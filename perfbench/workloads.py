"""The three workloads: their inputs, command sequences and output checks.

Each command's check recomputes what it can from the generated graph,
independently of ixpgraph, and returns a list of problems (empty when the
output is right). Stdout digests recorded from a known-good program are
checked on top of this in ``run.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import Graph, Plan, make_plan

# (IXPs, ASes) drawn before the giant component is taken. "reach" is a
# third of the paper's AS count: gain-cdf grows with the square of the
# co-located pairs and takes about a minute at paper scale.
SIZES = {"ingest": (500, 4700), "paper-suite": (500, 4700), "reach": (160, 1500)}
GRAPH = "graph.json"
TABLE2_SAMPLE = 500
BUDGETS = (5.0, 20.0)


@dataclass(frozen=True)
class Command:
    label: str                 # unique within the workload
    group: str | None          # per-command metric it adds to, e.g. "table2"
    argv: tuple[str, ...]      # ixpgraph arguments, paths relative to the work dir
    check: Callable[[bytes], list[str]]
    # What the stdout digest is taken of; see _rounded_values.
    digest_of: Callable[[bytes], bytes] = lambda out: out


@dataclass
class Workload:
    commands: list[Command]
    setup: Command             # the set-up probe, timed apart from the sequence
    inputs: dict               # sizes of the generated inputs


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs into ``workdir`` and list its commands."""
    plan = make_plan(seed, *SIZES[name])
    graph = plan.graph
    graph_json = graph.to_json().encode()
    inputs = {"ixps": len(graph.ixps), "ases": len(graph.ases), "edges": len(graph.edges),
              "graph_bytes": len(graph_json)}
    if name == "ingest":
        plan.write_build_inputs(workdir)
        inputs.update(pdb_rows=len(plan.pdb_rows), pch_rows=len(plan.pch_rows),
                      as_type_rows=len(plan.as_type_rows),
                      location_rows=len(plan.location_rows), planted=plan.planted)
        commands = _ingest_commands(plan, graph_json, workdir)
    elif name == "paper-suite":
        (workdir / GRAPH).write_bytes(graph_json)
        commands = _paper_suite_commands(graph)
    else:
        (workdir / GRAPH).write_bytes(graph_json)
        commands = _reach_commands(graph, workdir, seed)
    setup = Command("setup", None, ("metrics", GRAPH, "degree-cdf", "--class", "ixp"),
                    _degree_check(graph, "ixp"))
    return Workload(commands, setup, inputs)


# --- ingest -----------------------------------------------------------------

def _ingest_commands(plan: Plan, graph_json: bytes, workdir: Path) -> list[Command]:
    def check_build(out: bytes) -> list[str]:
        problems = _expect(out, plan.build_stdout(GRAPH).encode(), "build report")
        if (workdir / GRAPH).read_bytes() != graph_json:
            problems.append("graph file differs from the graph the inputs define")
        return problems

    def check_export_json(out: bytes) -> list[str]:
        return _expect(out, (workdir / GRAPH).read_bytes(), "export --format json vs graph file")

    return [
        Command("build", "build", ("build", "pdb.csv", "pch.csv", GRAPH, "--as-types",
                                   "as_types.csv", "--locations", "locations.csv"), check_build),
        Command("export_json", "export", ("export", GRAPH, "--format", "json"), check_export_json),
        Command("export_edgelist", "export", ("export", GRAPH, "--format", "edgelist"),
                lambda out: _expect(out, plan.graph.edgelist().encode(), "edgelist")),
    ]


def _expect(out: bytes, want: bytes, what: str) -> list[str]:
    return [] if out == want else [f"{what}: output differs from the expected bytes"]


# --- paper-suite -------------------------------------------------------------

def _paper_suite_commands(graph: Graph) -> list[Command]:
    n_ixp, n_as = len(graph.ixps), len(graph.ases)
    members = graph.members()

    def metric(label, group, *args, check):
        return Command(label, group, ("metrics", GRAPH, *args), check)

    return [
        metric("degree_cdf_ixp", None, "degree-cdf", "--class", "ixp",
               check=_degree_check(graph, "ixp")),
        metric("degree_cdf_as", None, "degree-cdf", "--class", "as",
               check=_degree_check(graph, "as")),
        metric("member_types_cdf", None, "member-types-cdf",
               check=_content_share_check(graph, members)),
        metric("table1", None, "table1", check=_table1_check(graph)),
        metric("correlation", None, "correlation", check=_correlation_check(graph)),
        metric("table2", "table2", "table2", check=_total_check(math.comb(n_as, 2))),
        metric("table2_sample", "table2", "table2", "--sample", str(TABLE2_SAMPLE),
               "--seed", "42",
               check=_total_check(math.comb(n_as, 2) - math.comb(n_as - TABLE2_SAMPLE, 2))),
        metric("table3_ixp", None, "table3", "--class", "ixp",
               check=_total_check(math.comb(n_ixp, 2))),
        metric("table3_as", "table3_as", "table3", "--class", "as",
               check=_total_check(math.comb(n_as, 2))),
        Command("betweenness", "betweenness", ("metrics", GRAPH, "betweenness"),
                _unit_values_check(graph), _rounded_values),
        metric("clustering", "clustering", "clustering", check=_unit_values_check(graph)),
    ]


def _csv_rows(out: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out.decode())))[1:]


def _degree_check(graph: Graph, node_class: str):
    adjacency = graph.members() if node_class == "ixp" else graph.memberships()
    want = sorted(Counter(len(v) for v in adjacency.values()).items())

    def check(out: bytes) -> list[str]:
        got = [(int(r[0]), int(r[1])) for r in _csv_rows(out)]
        return [] if got == want else [f"degree histogram ({node_class}) is wrong"]
    return check


def _content_share_check(graph: Graph, members: dict):
    shares = Counter(
        sum(graph.ases[a]["as_type"] == "Content" for a in m) / len(m) for m in members.values())
    want = sorted(shares.items())

    def check(out: bytes) -> list[str]:
        got = [(float(r[0]), int(r[1])) for r in _csv_rows(out)]
        return [] if got == want else ["content-share distribution is wrong"]
    return check


def _table1_check(graph: Graph):
    degree = {a: len(i) for a, i in graph.memberships().items()}
    want = []
    for t in (0, 20, 30):
        subset = [a for a in graph.ases if t == 0 or degree[a] > t]
        types = Counter(graph.ases[a]["as_type"] for a in subset)
        label = "All ASes" if t == 0 else f"ASes with degree >{t}"
        want.append([label] + [f"{100 * (types[k] / len(subset) if subset else 0.0):.1f}"
                               for k in ("Content", "Enterprise", "ISP")])

    def check(out: bytes) -> list[str]:
        return [] if _csv_rows(out) == want else ["table1 shares are wrong"]
    return check


def _correlation_check(graph: Graph):
    degree = {a: len(i) for a, i in graph.memberships().items()}
    points = [(degree[a], n["prefix_count"]) for a, n in sorted(graph.ases.items())
              if n["prefix_count"] is not None]
    want = statistics.correlation([float(x) for x, _ in points], [float(y) for _, y in points])

    def check(out: bytes) -> list[str]:
        got = float(_csv_rows(out)[0][0])
        return [] if math.isclose(got, want, rel_tol=1e-9) else ["correlation is wrong"]
    return check


def _total_check(total: int):
    """Pair-count tables: the counts must add up to the pairs enumerated."""
    def check(out: bytes) -> list[str]:
        got = sum(int(r[1]) for r in _csv_rows(out))
        return [] if got == total else [f"counts add up to {got}, not {total}"]
    return check


def _rounded_values(out: bytes) -> bytes:
    """Betweenness values to 9 significant digits.

    networkx sums path shares in node-set order, which follows the string
    hash seed, so the last digits of a value change from one process to
    the next.
    """
    rows = _csv_rows(out)
    return "".join(f"{node},{float(value):.9g}\n" for node, value in rows).encode()


def _unit_values_check(graph: Graph):
    def check(out: bytes) -> list[str]:
        rows = _csv_rows(out)
        if sorted(r[0] for r in rows) != sorted(graph.ixps):
            return ["node set is not the IXP set"]
        if not all(0.0 <= float(r[1]) <= 1.0 for r in rows):
            return ["value outside [0, 1]"]
        return []
    return check


# --- reach --------------------------------------------------------------------

def _reach_commands(graph: Graph, workdir: Path, seed: int) -> list[Command]:
    rng = random.Random(f"{seed}:reach")
    members, memberships = graph.members(), graph.memberships()
    reach = {a: set().union(*(members[i] for i in ixps)) for a, ixps in memberships.items()}

    costs = {i: round(rng.uniform(1.0, 10.0), 1) for i in sorted(graph.ixps) if rng.random() < 0.8}
    weights = {a: float(rng.choice([1, 2, 5, 10])) for a in sorted(graph.ases) if rng.random() < 0.8}
    targets = sorted(rng.sample(sorted(graph.ases), len(graph.ases) // 10))
    (workdir / "costs.csv").write_text(
        "ixp_id,cost\n" + "".join(f"{i},{c}\n" for i, c in costs.items()), encoding="utf-8")
    (workdir / "weights.csv").write_text(
        "asn,weight\n" + "".join(f"{a},{w}\n" for a, w in weights.items()), encoding="utf-8")
    (workdir / "targets.txt").write_text("".join(f"AS{a}\n" for a in targets), encoding="utf-8")
    priced = ("--costs", "costs.csv", "--weights", "weights.csv")

    def cover_check(universe, cost_of, weight_of, budget=None):
        def check(out: bytes) -> list[str]:
            sol = json.loads(out)
            chosen = sol["chosen"]
            reached = set().union(*(members[i] for i in chosen)) & universe
            problems = []
            if len(set(chosen)) != len(chosen):
                problems.append("an IXP is chosen twice")
            if sol["covered"] != sorted(reached):
                problems.append("covered set is not what the chosen IXPs reach")
            if budget is None and reached != universe:
                problems.append("cover misses targets")
            cost = sum(cost_of(i) for i in chosen)
            if not math.isclose(sol["total_cost"], cost, rel_tol=1e-9, abs_tol=1e-9):
                problems.append("total_cost is wrong")
            if budget is not None and cost > budget + 1e-9:
                problems.append("over budget")
            if not math.isclose(sol["total_weight"], sum(weight_of(a) for a in reached),
                                rel_tol=1e-9):
                problems.append("total_weight is wrong")
            return problems
        return check

    unit = lambda _: 1.0  # noqa: E731
    cost_of = lambda i: costs.get(i, 1.0)  # noqa: E731
    weight_of = lambda a: weights.get(a, 1.0)  # noqa: E731
    everyone = set(graph.ases)

    pairs = sum(len(r) - 1 for r in reach.values())
    commands = [Command("gain_cdf", "gain_cdf", ("metrics", GRAPH, "gain-cdf"),
                        _total_check(pairs))]
    top = sorted(graph.ases, key=lambda a: (-len(memberships[a]), a))[:5]
    for k, a in enumerate(top, start=1):
        commands.append(Command(f"tunnels_{k}", "tunnels",
                                ("place", GRAPH, "tunnels", "--as", str(a)),
                                _tunnels_check(a, reach)))
    commands += [
        Command("cover_all", "placement", ("place", GRAPH, "cover", "--targets", "all"),
                cover_check(everyone, unit, unit)),
        Command("cover_file", "placement",
                ("place", GRAPH, "cover", "--targets", "@targets.txt", *priced),
                cover_check(set(targets), cost_of, weight_of)),
    ]
    for k, budget in enumerate(BUDGETS, start=1):
        commands.append(Command(f"budget_{k}", "placement",
                                ("place", GRAPH, "budget", "--targets", "all",
                                 "--budget", str(budget), *priced),
                                cover_check(everyone, cost_of, weight_of, budget)))
    by_metro = Counter((loc["country"], loc["city"]) for loc in
                       (n["location"] for n in graph.ixps.values()) if loc)
    metros = [m for m, _ in sorted(by_metro.items(), key=lambda kv: (-kv[1], kv[0]))]
    for k, metro in enumerate([metros[0], metros[len(metros) // 2], metros[-1]], start=1):
        commands.append(Command(f"site_{k}", "placement",
                                ("place", GRAPH, "site", "--country", metro[0], "--city", metro[1]),
                                _site_check(graph, metro, members, memberships)))
    return commands


def _tunnels_check(a: int, reach: dict):
    partners = reach[a] - {a}
    want = sorted(((b, len(reach[b] - reach[a] - {a, b})) for b in partners),
                  key=lambda bg: (-bg[1], bg[0]))

    def check(out: bytes) -> list[str]:
        got = [(row["asn"], row["gain"]) for row in json.loads(out)]
        return [] if got == want else [f"tunnel ranking for AS{a} is wrong"]
    return check


def _site_check(graph: Graph, metro, members, memberships):
    local = [i for i, n in graph.ixps.items()
             if n["location"] and (n["location"]["country"], n["location"]["city"]) == metro]
    attributed = set().union(*(members[i] for i in local))
    want = sum(1.0 / (1 + len(memberships[a])) for a in sorted(attributed))

    def check(out: bytes) -> list[str]:
        got = json.loads(out)["score"]
        return [] if math.isclose(got, want, rel_tol=1e-9) else [f"site score for {metro} is wrong"]
    return check
