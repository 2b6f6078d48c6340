"""Command-line entry point.

Subcommands: ``build`` runs the full ingestion pipeline and writes the
canonical graph file; ``metrics`` computes one named metric from a graph
file as CSV (default) or JSON; ``place`` solves the placement problems
and prints JSON; ``export`` re-emits a graph as edgelist or JSON.

Exit codes: 0 success, 1 domain error (bad data, unknown metric,
uncoverable instance), 2 command-line usage error.

Handlers import ``ingest``, ``metrics`` and ``placement`` only where they run
them. The cyclic collector is off during a command: only argparse makes cycles.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import re
import sys
from itertools import accumulate
from typing import Callable, NamedTuple

from . import serialization
from .errors import EmptyGraph, FormatError, InsufficientData, IxpGraphError
from .model import AsType, BipartiteGraph, NodeClass, _parse_asn, _parse_decimal, _read_csv

_CLASS = {"ixp": NodeClass.IXP, "as": NodeClass.AS}
_TYPE = {"content": AsType.CONTENT, "enterprise": AsType.ENTERPRISE, "isp": AsType.ISP}


class MetricOutput(NamedTuple):
    columns: tuple[str, ...]
    rows: list[tuple]
    # CSV prints these columns with 1 decimal, like the tables they mirror;
    # JSON always carries full precision.
    percent_columns: frozenset = frozenset()


def _require_types(graph: BipartiteGraph) -> None:
    """Rejects a graph none of whose ASes has a type; one with no AS, too."""
    if all(node.as_type is AsType.UNKNOWN for node in graph.ases.values()):
        raise InsufficientData(
            "metric needs AS types, but no AS in the graph has one attached"
        )


def _cdf_output(column: str, dist: metrics.Distribution) -> MetricOutput:
    running = accumulate(count for _, count in dist.values)
    rows = [(value, count, acc / dist.total) for (value, count), acc in zip(dist.values, running)]
    return MetricOutput((column, "count", "cdf"), rows)


def _percent_output(column: str, pairs, total: int) -> MetricOutput:
    rows = [(value, count, 100 * count / total) for value, count in pairs]
    return MetricOutput((column, "count", "percent"), rows, frozenset({"percent"}))


def _metric_degree_cdf(metrics, graph, args) -> MetricOutput:
    return _cdf_output("degree", metrics.degree_distribution(graph, _CLASS[args.node_class]))


def _metric_member_types(metrics, graph, args) -> MetricOutput:
    _require_types(graph)
    fractions = metrics.member_type_fractions(graph)
    rows = [
        (ixp_id, f.content, f.enterprise, f.isp)
        for ixp_id, f in sorted(fractions.items())
    ]
    return MetricOutput(("ixp_id", "content", "enterprise", "isp"), rows)


def _metric_member_types_cdf(metrics, graph, args) -> MetricOutput:
    _require_types(graph)
    return _cdf_output("fraction", metrics.type_fraction_distribution(graph, _TYPE[args.as_type]))


def _metric_table1(metrics, graph, args) -> MetricOutput:
    _require_types(graph)
    shares = metrics.type_share_by_degree(graph, args.thresholds)
    rows = [
        ("All ASes" if t == 0 else f"ASes with degree >{t}",
         100 * f.content, 100 * f.enterprise, 100 * f.isp)
        for t, f in zip(args.thresholds, shares)
    ]
    return MetricOutput(
        ("subset", "content", "enterprise", "isp"),
        rows,
        percent_columns=frozenset({"content", "enterprise", "isp"}),
    )


def _metric_table2(metrics, graph, args) -> MetricOutput:
    dist = metrics.shortest_path_ixp_counts(graph, sample_size=args.sample, seed=args.seed)
    return _percent_output("ixps_crossed", dist.values, dist.total)


def _metric_table3(metrics, graph, args) -> MetricOutput:
    dist = metrics.multiplicity_distribution(graph, _CLASS[args.node_class])
    # Multiplicities of --tail and up share one ">=k" row, shown only when
    # some pair has one.
    rows = [(str(m), count) for m, count in dist.values if m < args.tail]
    if tail := sum(count for m, count in dist.values if m >= args.tail):
        rows.append((f">={args.tail}", tail))
    return _percent_output("multiplicity", rows, dist.total)


def _metric_gain_cdf(metrics, graph, args) -> MetricOutput:
    return _cdf_output("gain", metrics.remote_peering_gain_cdf(graph))


def _metric_correlation(metrics, graph, args) -> MetricOutput:
    return MetricOutput(("correlation",), [(metrics.degree_prefix_correlation(graph),)])


def _metric_node_values(metrics, graph, args) -> MetricOutput:
    kernel = {"betweenness": metrics.betweenness_centrality,
              "clustering": metrics.clustering_coefficient}[args.which]
    values = kernel(graph, _CLASS[args.node_class])
    return MetricOutput(("node", "value"), sorted(values.items()))


_METRICS: dict[str, tuple[str, Callable]] = {
    "degree-cdf": ("degree histogram and CDF for one vertex class", _metric_degree_cdf),
    "member-types": ("per-IXP member fractions by AS type", _metric_member_types),
    "member-types-cdf": ("distribution of one type's member fraction over IXPs", _metric_member_types_cdf),
    "table1": ("AS-type shares by degree threshold", _metric_table1),
    "table2": ("IXPs crossed by AS-to-AS shortest paths", _metric_table2),
    "table3": ("edge-multiplicity shares over node pairs of one class", _metric_table3),
    "gain-cdf": ("remote-peering gain distribution over co-located AS pairs", _metric_gain_cdf),
    "correlation": ("Pearson correlation of AS degree vs announced prefixes", _metric_correlation),
    "betweenness": ("betweenness centrality on a projection", _metric_node_values),
    "clustering": ("clustering coefficient on a projection", _metric_node_values),
}


def _decimal_flag(flag: str, raw: str, real: bool = False) -> int | float:
    """A numeric flag's value, as strict as a numeric CSV field."""
    try:
        return _parse_decimal(raw, real)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _count_flag(flag: str, raw: str) -> int:
    """A flag that counts something (a sample size, a bucket's lower end),
    so at least 1."""
    value = _decimal_flag(flag, raw)
    if value < 1:
        raise ValueError(f"{flag}: must be at least 1, got {value}")
    return value


def _parse_asn_token(token: str) -> int:
    """An AS number, optionally A- or AS-prefixed in any case."""
    try:
        return _parse_asn(re.sub(r"^(?:AS|A)", "", token.strip(), flags=re.IGNORECASE))
    except ValueError:
        raise ValueError(f"not an AS number: {token!r}") from None


def _parse_targets(spec: str) -> list[int] | None:
    """Target list from a flag value: a comma list of AS numbers (optionally
    A/AS-prefixed), @file with one entry per line, or None for "all"."""
    if spec.strip().lower() == "all":
        return None
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8-sig") as fh:
            try:
                tokens = fh.read().split()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{spec[1:]}: not UTF-8 text: {exc}") from None
    else:
        tokens = [t for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty target list")
    return [_parse_asn_token(t) for t in tokens]


def _read_map_file(path, expected_header, key_parse) -> dict:
    """A two-column CSV mapping parsed keys to finite positive decimal
    values; a key that parses to one seen before is an error."""
    out = {}
    for row in _read_csv(path, expected_header):
        if len(row) != 2:
            raise ValueError(f"{path}: expected 2 columns, got {len(row)}")
        try:
            key, value = key_parse(row[0]), _parse_decimal(row[1], real=True)
            if not 0 < value < math.inf:
                raise ValueError(f"not a finite positive number: {row[1]!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if key in out:
            raise ValueError(f"{path}: repeated key {row[0]!r}")
        out[key] = value
    return out


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_metric(output: MetricOutput, as_json: bool) -> None:
    if as_json:
        _print_json([dict(zip(output.columns, row)) for row in output.rows])
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(output.columns)
    for row in output.rows:
        writer.writerow(
            [
                f"{value:.1f}" if column in output.percent_columns else value
                for column, value in zip(output.columns, row)
            ]
        )


def cmd_build(args) -> int:
    from . import ingest
    result = ingest.build_from_files(
        args.pdb, args.pch, args.as_types, args.locations
    )
    serialization.write_graph(result.graph, args.out_graph)
    reasons = result.report.reasons
    report = {
        "nodes_total_pre": result.report.nodes_total_pre,
        "edges_total_pre": result.report.edges_total_pre,
        "nodes_discarded": sum(tally.nodes for tally in reasons.values()),
        "edges_discarded": sum(tally.edges for tally in reasons.values()),
        # DiscardReason is a str, so reasons sort by name.
        "reasons": {reason.value: tally._asdict() for reason, tally in sorted(reasons.items())},
    }
    if args.json:
        _print_json(
            {
                "graph_file": str(args.out_graph),
                "ixps": len(result.graph.ixps),
                "ases": len(result.graph.ases),
                "edges": result.graph.num_edges,
                "report": report,
                "attribute_warnings": result.attribute_warnings,
            }
        )
        return 0
    graph = result.graph
    print(f"graph: {len(graph.ixps)} IXPs, {len(graph.ases)} ASes, "
          f"{graph.num_edges} edges -> {args.out_graph}")
    print(f"discarded: {report['nodes_discarded']} of {report['nodes_total_pre']} nodes, "
          f"{report['edges_discarded']} of {report['edges_total_pre']} edges")
    for reason, tally in report["reasons"].items():
        print(f"  {reason}: {tally['nodes']} nodes, {tally['edges']} edges")
    if result.attribute_warnings:
        print(f"attribute warnings: {result.attribute_warnings}")
    return 0


def cmd_metrics(args, parser: argparse.ArgumentParser) -> int:
    from . import metrics
    entry = _METRICS.get(args.which)
    if entry is None:
        parser.print_usage(sys.stderr)
        known = "\n".join(f"  {name}: {help_}" for name, (help_, _) in sorted(_METRICS.items()))
        print(f"error: unknown metric {args.which!r}; available metrics:\n{known}",
              file=sys.stderr)
        return 1
    # Numeric flags are parsed before the graph loads, so a bad value is
    # reported at once, and ahead of a bad graph file.
    args.thresholds = [_decimal_flag("--thresholds", t.strip())
                       for t in args.thresholds.split(",") if t.strip()]
    if not args.thresholds:
        raise ValueError("--thresholds: no degree given")
    if min(args.thresholds) < 0:
        raise ValueError(f"--thresholds: must be at least 0, got {min(args.thresholds)}")
    args.tail = _count_flag("--tail", args.tail)
    args.seed = _decimal_flag("--seed", args.seed)
    if args.sample is not None:
        args.sample = _count_flag("--sample", args.sample)
    graph = serialization.read_graph(args.graph)
    if graph.num_nodes == 0:
        raise EmptyGraph("graph has no vertices")
    _print_metric(entry[1](metrics, graph, args), args.json)
    return 0


def cmd_place(args) -> int:
    from . import placement
    if args.problem == "budget":  # flags and their files are read before the graph loads
        budget = _decimal_flag("--budget", args.budget, real=True)
        if not 0 < budget < float("inf"):  # a long enough decimal overflows
            raise ValueError(f"--budget: must be finite and positive, got {budget}")
    if args.problem == "tunnels":
        asn = _parse_asn_token(args.asn)
    elif args.problem in ("cover", "budget"):
        targets = _parse_targets(args.targets)
        costs = None if args.costs is None else _read_map_file(args.costs, ["ixp_id", "cost"], str)
        weights = None if args.weights is None else _read_map_file(
            args.weights, ["asn", "weight"], _parse_asn_token)
    graph = serialization.read_graph(args.graph)
    if args.problem == "tunnels":
        ranked = placement.rank_tunnels(graph, asn)
        _print_json([{"asn": b, "gain": gain} for b, gain in ranked])
        return 0
    if args.problem == "site":
        score = placement.site_selection_score(graph, (args.country, args.city))
        _print_json({"country": args.country, "city": args.city, "score": score})
        return 0

    targets = sorted(graph.ases) if targets is None else targets
    instance = placement.build_instance(graph, targets, costs, weights)
    if args.problem == "cover":
        solution = placement.greedy_set_cover(instance)
    else:
        solution = placement.budgeted_max_coverage(instance, budget)
    _print_json(
        {
            "chosen": list(solution.chosen),
            "covered": sorted(solution.covered),
            "total_cost": solution.total_cost,
            "total_weight": solution.total_weight,
        }
    )
    return 0


def cmd_export(args, parser: argparse.ArgumentParser) -> int:
    if args.format not in ("edgelist", "json"):
        parser.print_usage(sys.stderr)
        shown = repr(args.format) if args.format else "missing"
        print(f"error: --format must be 'edgelist' or 'json' ({shown})", file=sys.stderr)
        return 1
    graph = serialization.read_graph(args.graph)
    if args.format == "edgelist":
        sys.stdout.write(serialization.membership_edgelist(graph))
    else:
        sys.stdout.write(serialization.dumps_graph(graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ixpgraph",
        description="Build and analyze the IXP-AS bipartite graph of the Internet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="ingest datasets and write a graph file")
    p_build.add_argument("pdb", help="PeeringDB-style membership CSV")
    p_build.add_argument("pch", help="PCH-style membership CSV")
    p_build.add_argument("out_graph", help="output graph JSON path")
    p_build.add_argument("--as-types", dest="as_types", help="asn,as_type CSV")
    p_build.add_argument("--locations", help="ixp_id,country,city,lat,lon CSV")
    p_build.add_argument("--json", action="store_true", help="machine-readable report")
    p_build.set_defaults(func=cmd_build)

    p_metrics = sub.add_parser("metrics", help="compute one metric from a graph file")
    p_metrics.add_argument("graph", help="graph JSON path")
    p_metrics.add_argument("which", help="metric name (see list on error)")
    p_metrics.add_argument("--class", dest="node_class", choices=("ixp", "as"),
                           default="ixp", help="vertex class for class-based metrics")
    p_metrics.add_argument("--type", dest="as_type",
                           choices=("content", "enterprise", "isp"), default="content",
                           help="AS type for member-types-cdf")
    p_metrics.add_argument("--thresholds", default="0,20,30",
                           help="comma list of degree thresholds for table1")
    p_metrics.add_argument("--tail", default="5",
                           help="table3 bucket: collapse multiplicities >= this value")
    p_metrics.add_argument("--sample", help="sample size of source ASes for table2")
    p_metrics.add_argument("--seed", default="42", help="sampling seed")
    p_metrics.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p_metrics.set_defaults(func=lambda args: cmd_metrics(args, p_metrics))

    p_place = sub.add_parser("place", help="solve a placement problem")
    p_place.add_argument("graph", help="graph JSON path")
    place_sub = p_place.add_subparsers(dest="problem", required=True)

    p_cover = place_sub.add_parser("cover", help="minimum-cost full coverage")
    p_budget = place_sub.add_parser("budget", help="maximum coverage within a budget")
    for p in (p_cover, p_budget):
        p.add_argument("--targets", required=True,
                       help='"all", comma list of AS numbers, or @file')
        p.add_argument("--costs", help="ixp_id,cost CSV (default: all 1.0)")
        p.add_argument("--weights", help="asn,weight CSV (default: all 1.0)")
    p_budget.add_argument("--budget", required=True, help="total cost budget")

    p_tunnels = place_sub.add_parser("tunnels", help="rank remote-peering resellers")
    p_tunnels.add_argument("--as", dest="asn", required=True, help="AS to rank tunnels for")

    p_site = place_sub.add_parser("site", help="score a location for a new site")
    p_site.add_argument("--country", required=True, help="country code")
    p_site.add_argument("--city", required=True, help="city name")
    p_place.set_defaults(func=cmd_place)

    p_export = sub.add_parser("export", help="re-emit a graph file")
    p_export.add_argument("graph", help="graph JSON path")
    p_export.add_argument("--format", default="", help="edgelist or json")
    p_export.set_defaults(func=lambda args: cmd_export(args, p_export))

    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (IxpGraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
