"""Projections onto one vertex class: the bitmask index every projection
metric reads, and the materialized oracle the networkx checks rest on."""

import math
import random

from ixpgraph.model import (
    AsNode,
    BipartiteGraph,
    IxpNode,
    MembershipEdge,
    NodeClass,
)
from ixpgraph.projection import bits, counter_add, index

from conftest import build_graph, index_edges, random_bipartite
from oracles import bf_project, project


class TestProjectG0:
    def test_ixp_class_edges(self, g0):
        nodes, masks, reach = index(g0, NodeClass.IXP)
        assert nodes == ["X1", "X2", "X3"]
        assert masks == {1: 0b101, 2: 0b011, 3: 0b011, 4: 0b010}
        assert reach == [0b111, 0b011, 0b101]
        assert index_edges(g0, NodeClass.IXP) == {
            ("X1", "X2"): {2, 3},
            ("X1", "X3"): {1},
        }

    def test_as_class_edges(self, g0):
        assert index(g0, NodeClass.AS)[0] == [1, 2, 3, 4]
        assert index_edges(g0, NodeClass.AS) == {
            (1, 2): {"X1"},
            (1, 3): {"X1"},
            (2, 3): {"X1", "X2"},
            (2, 4): {"X2"},
            (3, 4): {"X2"},
        }

    def test_no_a1_a4_edge(self, g0):
        nodes, _, reach = index(g0, NodeClass.AS)
        assert not reach[nodes.index(1)] >> nodes.index(4) & 1

    def test_single_ixp_two_members(self):
        graph = build_graph(
            [IxpNode("X1", ["X1"])],
            [AsNode(1), AsNode(2)],
            [MembershipEdge("X1", 1), MembershipEdge("X1", 2)],
        )
        assert index(graph, NodeClass.IXP) == (["X1"], {1: 1, 2: 1}, [1])
        assert index_edges(graph, NodeClass.IXP) == {}

    def test_isolated_nodes_retained(self, g0):
        g0.ixps["X4"] = IxpNode("X4", ["X4"])
        graph = BipartiteGraph(ixps=g0.ixps, ases=g0.ases, edges=g0.edges)
        nodes, _, reach = index(graph, NodeClass.IXP)
        assert nodes[3] == "X4" and reach[3] == 1 << 3
        assert index(graph, NodeClass.AS)[1]["X4"] == 0

    def test_empty_graph(self):
        # The index is empty; the kernels reading it raise EmptyGraph.
        for node_class in NodeClass:
            assert index(BipartiteGraph(), node_class) == ([], {}, [])

    def test_parallel_edge_totals(self, g0):
        assert sum(map(len, index_edges(g0, NodeClass.IXP).values())) == 3
        assert sum(map(len, index_edges(g0, NodeClass.AS).values())) == 6

    def test_bits(self):
        assert bits(0) == []
        assert bits(0b10110) == [1, 2, 4]
        assert bits(1 << 200) == [200]
        # Dense, a lone top bit and alternating bits, at 5000 bits.
        for m in ((1 << 5000) - 1, 1 << 4999, int("10" * 2500, 2), int("01" * 2500, 2)):
            assert bits(m) == [i for i in range(m.bit_length()) if m >> i & 1]
        # Only the set bits at or above ``low``: low 0, on a set bit, between
        # set bits, and past the top bit.
        assert bits(0b10110, 0) == [1, 2, 4]
        assert bits(0b10110, 2) == [2, 4]
        assert bits(0b10110, 3) == [4]
        assert bits(0b10110, 5) == bits(0b10110, 300) == []
        assert bits(0, 7) == []
        m = int("01" * 2500, 2)
        for low in (0, 1, 2, 2501, 4998, 4999, 5000):
            assert bits(m, low) == [i for i in range(low, 5000) if m >> i & 1]

    def test_counter_add(self):
        # Plane k of the counter holds bit k of each position's count.
        rng = random.Random(1611)
        for width in (1, 7, 300):
            planes, counts = [], [0] * width
            for _ in range(rng.randint(0, 200)):
                mask = rng.getrandbits(width) & rng.getrandbits(width)
                counter_add(planes, mask)
                counts = [c + (mask >> i & 1) for i, c in enumerate(counts)]
            assert [sum((p >> i & 1) << k for k, p in enumerate(planes))
                    for i in range(width)] == counts
            assert not planes or planes[-1]  # no empty top plane
            assert len(planes) == max(counts).bit_length()


class TestMultiplicity:
    """A pair's multiplicity is the number of other-class masks holding both."""

    def test_g0_values(self, g0):
        nodes, masks, _ = index(g0, NodeClass.IXP)
        pair = {(u, v): sum(m >> i & m >> j & 1 for m in masks.values())
                for i, u in enumerate(nodes) for j, v in enumerate(nodes)}
        assert pair["X1", "X2"] == pair["X2", "X1"] == 2
        assert pair["X2", "X3"] == 0

    def test_self_pair_is_zero(self, g0):
        # A node is in its own reach mask but never its own neighbour.
        for node_class in NodeClass:
            _, _, reach = index(g0, node_class)
            for i, r in enumerate(reach):
                assert r >> i & 1
                assert i not in bits(r & ~(1 << i))


class TestProjectionIdentities:
    """Structural identities on random graphs (the full 200-graph sweep
    runs in the acceptance suite)."""

    def test_multiplicity_identity_and_soundness(self):
        # The index against the edge-list oracle, and oracles.project, which
        # the networkx oracles run on, against both identities too.
        rng = random.Random(7)
        for _ in range(20):
            graph = random_bipartite(rng, max_ixps=15, max_ases=40)
            mi = project(graph, NodeClass.IXP)
            ma = project(graph, NodeClass.AS)
            as_degrees = [len(graph.memberships(a)) for a in graph.ases]
            ixp_degrees = [len(graph.members(x)) for x in graph.ixps]
            assert mi.num_parallel_edges == sum(math.comb(d, 2) for d in as_degrees)
            assert ma.num_parallel_edges == sum(math.comb(d, 2) for d in ixp_degrees)
            for node_class, mg in ((NodeClass.IXP, mi), (NodeClass.AS, ma)):
                expected = bf_project(graph, node_class)
                assert {p: set(v) for p, v in mg.edges.items()} == expected
                assert index_edges(graph, node_class) == expected

    def test_node_sets_equal_class_sets(self):
        rng = random.Random(8)
        graph = random_bipartite(rng, max_ixps=10, max_ases=30)
        assert index(graph, NodeClass.IXP)[0] == sorted(graph.ixps)
        assert index(graph, NodeClass.AS)[0] == sorted(graph.ases)
        assert project(graph, NodeClass.IXP).nodes == set(graph.ixps)
        assert project(graph, NodeClass.AS).nodes == set(graph.ases)
