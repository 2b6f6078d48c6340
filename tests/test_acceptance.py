"""Acceptance gate: one test per criterion, each emitting a single
PASS/FAIL line with its elapsed time.

The lines are written with output capture suspended so they stay visible
in normal pytest runs.
"""

from __future__ import annotations

import ipaddress
import math
import os
import random
import time
from contextlib import contextmanager

import pytest

from ixpgraph import ingest, metrics, placement, serialization
from ixpgraph.cli import main
from ixpgraph.model import NodeClass, giant_component
from ixpgraph.placement import CoverageInstance

from conftest import (
    index_edges,
    make_g0,
    paper_scale_graph,
    random_bipartite,
    sanitize_fixture_files,
)
from oracles import bf_ixp_count_distribution, exhaustive_cover_oracle, harmonic

# Criteria 2 and 3 must run on the same random population.
RANDOM_GRAPH_SEED = 20240823
RANDOM_GRAPH_COUNT = 200


@pytest.fixture
def criterion(request):
    capture = request.config.pluginmanager.getplugin("capturemanager")

    def announce(line: str) -> None:
        if capture is not None:
            with capture.global_and_fixture_disabled():
                print(f"\n{line}", flush=True)
        else:
            print(f"\n{line}", flush=True)

    @contextmanager
    def _criterion(num: int, description: str, limit: float):
        start = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - start
            assert elapsed < limit, f"time limit exceeded: {elapsed:.2f}s >= {limit}s"
        except BaseException:
            announce(f"[criterion {num}] FAIL: {description}")
            raise
        announce(f"[criterion {num}] PASS ({elapsed:.2f}s): {description}")

    return _criterion


def test_criterion_1_g0_fixture_suite(criterion):
    with criterion(1, "G0 fixture suite matches every hand-derived value", limit=1.0):
        g0 = make_g0()

        assert metrics.degree_distribution(g0, NodeClass.IXP).values == ((1, 1), (3, 2))
        assert metrics.degree_distribution(g0, NodeClass.AS).values == ((1, 1), (2, 3))

        assert index_edges(g0, NodeClass.IXP) == {
            ("X1", "X2"): {2, 3},
            ("X1", "X3"): {1},
        }
        assert index_edges(g0, NodeClass.AS) == {
            (1, 2): {"X1"},
            (1, 3): {"X1"},
            (2, 3): {"X1", "X2"},
            (2, 4): {"X2"},
            (3, 4): {"X2"},
        }

        paths = metrics.shortest_path_ixp_counts(g0)
        assert paths.values == ((1, 5), (2, 1)) and paths.total == 6

        assert metrics.multiplicity_distribution(g0, NodeClass.IXP).values == ((0, 1), (1, 1), (2, 1))
        assert metrics.multiplicity_distribution(g0, NodeClass.AS).values == ((0, 1), (1, 4), (2, 1))

        assert dict(placement.rank_tunnels(g0, 1))[2] == 1
        assert dict(placement.rank_tunnels(g0, 4))[2] == 1
        assert dict(placement.rank_tunnels(g0, 2))[4] == 0
        gains = metrics.remote_peering_gain_cdf(g0)
        assert gains.values == ((0, 6), (1, 4)) and gains.total == 10
        assert placement.rank_tunnels(g0, 1) == [(2, 1), (3, 1)]

        instance = placement.build_instance(g0, sorted(g0.ases))
        cover = placement.greedy_set_cover(instance)
        assert cover.chosen == ("X1", "X2")
        assert cover.total_cost == 2.0
        assert cover.covered == frozenset({1, 2, 3, 4})
        budget = placement.budgeted_max_coverage(instance, budget=1.0)
        assert budget.chosen == ("X1",)
        assert budget.total_weight == 3.0


def test_criterion_2_projection_identity(criterion):
    with criterion(2, "projection identity on 200 random graphs", limit=30.0):
        rng = random.Random(RANDOM_GRAPH_SEED)
        for _ in range(RANDOM_GRAPH_COUNT):
            graph = random_bipartite(rng)
            edges = index_edges(graph, NodeClass.IXP)
            expected = sum(
                math.comb(len(graph.memberships(a)), 2) for a in graph.ases
            )
            assert sum(map(len, edges.values())) == expected
            # every projected edge must be exactly the shared-membership set
            for (u, v), via in edges.items():
                assert via == graph.members(u) & graph.members(v)
                assert via
            mult = metrics.multiplicity_distribution(graph, NodeClass.IXP)
            assert sum(m * c for m, c in mult.values) == expected


def _parity_scan(graph, source: int) -> None:
    """Level BFS from one AS; ASes sit on even levels, IXPs on odd ones."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            neighbors = (
                graph.members(node) if isinstance(node, str) else graph.memberships(node)
            )
            for n in neighbors:
                if n not in dist:
                    dist[n] = dist[node] + 1
                    nxt.append(n)
        frontier = nxt
    for node, d in dist.items():
        assert d % 2 == (1 if isinstance(node, str) else 0), (
            f"node {node!r} at distance {d} from AS {source}"
        )


def test_criterion_3_path_parity_and_oracle(criterion):
    with criterion(3, "path parity and naive BFS oracle on random graphs", limit=60.0):
        rng = random.Random(RANDOM_GRAPH_SEED)
        oracle_checked = 0
        for index in range(RANDOM_GRAPH_COUNT):
            graph = giant_component(random_bipartite(rng))
            n_as = len(graph.ases)
            if n_as < 2:
                continue
            dist = metrics.shortest_path_ixp_counts(graph)
            assert dist.total == n_as * (n_as - 1) // 2
            if n_as <= 50:
                assert dict(dist.values) == dict(bf_ixp_count_distribution(graph))
                oracle_checked += 1
            if index % 40 == 0:
                for source in sorted(graph.ases)[:3]:
                    _parity_scan(graph, source)
        assert oracle_checked > 0


def test_criterion_4_sanitization_pipeline(criterion, tmp_path):
    with criterion(4, "sanitization fixture yields the exact discard report", limit=30.0):
        pdb, pch = sanitize_fixture_files(tmp_path)
        result = ingest.build_from_files(pdb, pch)
        reasons = result.report.reasons

        assert reasons[ingest.DiscardReason.INACTIVE_IXP].nodes >= 1
        assert reasons[ingest.DiscardReason.INACTIVE_IXP].edges == 1
        assert reasons[ingest.DiscardReason.IP_INCONSISTENT].edges == 1
        assert reasons[ingest.DiscardReason.DUPLICATE_COLLAPSED].edges == 1
        assert reasons[ingest.DiscardReason.NOT_IN_GIANT_COMPONENT].nodes == 2
        assert reasons[ingest.DiscardReason.NOT_IN_GIANT_COMPONENT].edges == 1

        graph = result.graph
        # bipartiteness: every edge joins a known IXP to a known AS
        for ixp_id, asn in graph.edges:
            assert isinstance(ixp_id, str) and ixp_id in graph.ixps
            assert isinstance(asn, int) and asn in graph.ases
        # IP consistency: every surviving member address sits inside one of
        # its IXP's peering prefixes, with matching IP version
        for (ixp_id, _), edge in graph.edges.items():
            if edge.member_ip is None:
                continue
            address = ipaddress.ip_address(edge.member_ip)
            assert any(
                address.version == net.version and address in net
                for net in map(ipaddress.ip_network, graph.ixps[ixp_id].peering_prefixes)
            )


def _random_instance(rng: random.Random) -> tuple[CoverageInstance, float]:
    n_sets = rng.randint(1, 12)
    n_elements = rng.randint(1, 25)
    pool = range(1, n_elements + 1)
    candidates = {
        f"S{i:02d}": frozenset(rng.sample(pool, rng.randint(1, n_elements)))
        for i in range(n_sets)
    }
    universe = frozenset().union(*candidates.values())
    instance = CoverageInstance(
        universe=universe,
        candidates=candidates,
        cost={s: round(rng.uniform(0.5, 10.0), 2) for s in candidates},
        weight={e: round(rng.uniform(0.5, 5.0), 2) for e in universe},
    )
    budget = round(rng.uniform(0.5, sum(instance.cost.values())), 2)
    return instance, budget


def test_criterion_5_solvers_vs_oracle(criterion):
    with criterion(5, "greedy and budgeted solvers within bounds of the oracle", limit=30.0):
        rng = random.Random(5)
        for _ in range(100):
            instance, budget = _random_instance(rng)

            greedy = placement.greedy_set_cover(instance)
            optimum = exhaustive_cover_oracle(instance)
            assert greedy.covered == instance.universe
            bound = harmonic(len(instance.universe)) * optimum.total_cost
            assert greedy.total_cost <= bound + 1e-9
            assert greedy == placement.greedy_set_cover(instance)

            capped = placement.budgeted_max_coverage(instance, budget)
            best = exhaustive_cover_oracle(instance, budget=budget)
            assert capped.total_cost <= budget + 1e-9
            assert capped.total_weight >= 0.316 * best.total_weight - 1e-9
            assert capped == placement.budgeted_max_coverage(instance, budget)


def test_criterion_6_determinism_round_trip(criterion, tmp_path, capsys):
    with criterion(6, "byte-identical rebuilds and export round-trips", limit=30.0):
        pdb, pch = sanitize_fixture_files(tmp_path)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["build", str(pdb), str(pch), str(first)]) == 0
        assert main(["build", str(pdb), str(pch), str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        capsys.readouterr()  # discard build output captured above
        # export -> import -> export must reproduce the bytes exactly
        assert main(["export", str(first), "--format", "json"]) == 0
        exported = capsys.readouterr().out
        copy = tmp_path / "copy.json"
        copy.write_text(exported, encoding="utf-8")
        assert main(["export", str(copy), "--format", "json"]) == 0
        assert capsys.readouterr().out == exported
        assert exported == first.read_text(encoding="utf-8")


SNAPSHOT_PDB = os.environ.get("IXPGRAPH_SNAPSHOT_PDB")
SNAPSHOT_PCH = os.environ.get("IXPGRAPH_SNAPSHOT_PCH")


@pytest.mark.skipif(
    not (SNAPSHOT_PDB and SNAPSHOT_PCH),
    reason="external snapshot not provided (set IXPGRAPH_SNAPSHOT_PDB and IXPGRAPH_SNAPSHOT_PCH)",
)
def test_criterion_7_snapshot_reproduction(criterion):
    with criterion(7, "historical snapshot headline numbers within tolerance", limit=600.0):
        result = ingest.build_from_files(SNAPSHOT_PDB, SNAPSHOT_PCH)
        graph = result.graph
        assert abs(len(graph.ixps) - 504) <= 0.05 * 504
        assert abs(len(graph.ases) - 4692) <= 0.05 * 4692
        assert abs(graph.num_edges - 14651) <= 0.05 * 14651

        paths = metrics.shortest_path_ixp_counts(graph)
        two_share = 100.0 * dict(paths.values).get(2, 0) / paths.total
        assert abs(two_share - 83.3) <= 3.0

        mult = metrics.multiplicity_distribution(graph, NodeClass.IXP)
        zero_share = 100.0 * dict(mult.values).get(0, 0) / mult.total
        assert abs(zero_share - 80.2) <= 3.0


def test_criterion_8_paper_scale_runtime(criterion):
    with criterion(8, "paper-scale all-pairs path tally within five minutes", limit=300.0):
        graph = paper_scale_graph()
        n_as = len(graph.ases)
        assert 450 <= len(graph.ixps) <= 550
        assert 4200 <= n_as <= 4900
        assert 13000 <= graph.num_edges <= 17000
        degree_one = sum(1 for a in graph.ases if len(graph.memberships(a)) == 1)
        assert abs(degree_one / n_as - 0.43) <= 0.03

        paths = metrics.shortest_path_ixp_counts(graph)
        assert paths.total == n_as * (n_as - 1) // 2
