"""Projections onto one vertex class."""

import math
import random

import pytest

from ixpgraph.errors import EmptyGraph, UnknownNode
from ixpgraph.model import (
    AsNode,
    BipartiteGraph,
    IxpNode,
    MembershipEdge,
    NodeClass,
    build_graph,
)
from ixpgraph.projection import multiplicity, project

from conftest import random_bipartite
from oracles import bf_project


class TestProjectG0:
    def test_ixp_class_edges(self, g0):
        mg = project(g0, NodeClass.IXP)
        assert mg.node_class is NodeClass.IXP
        assert mg.nodes == {"X1", "X2", "X3"}
        assert mg.edges == {
            ("X1", "X2"): frozenset({2, 3}),
            ("X1", "X3"): frozenset({1}),
        }

    def test_as_class_edges(self, g0):
        mg = project(g0, NodeClass.AS)
        assert mg.nodes == {1, 2, 3, 4}
        assert mg.edges == {
            (1, 2): frozenset({"X1"}),
            (1, 3): frozenset({"X1"}),
            (2, 3): frozenset({"X1", "X2"}),
            (2, 4): frozenset({"X2"}),
            (3, 4): frozenset({"X2"}),
        }

    def test_no_a1_a4_edge(self, g0):
        mg = project(g0, NodeClass.AS)
        assert (1, 4) not in mg.edges

    def test_single_ixp_two_members(self):
        graph = build_graph(
            [IxpNode("X1", ["X1"])],
            [AsNode(1), AsNode(2)],
            [MembershipEdge("X1", 1), MembershipEdge("X1", 2)],
        )
        mg = project(graph, NodeClass.IXP)
        assert mg.nodes == {"X1"}
        assert mg.edges == {}

    def test_isolated_nodes_retained(self, g0):
        g0.ixps["X4"] = IxpNode("X4", ["X4"])
        graph = BipartiteGraph(ixps=g0.ixps, ases=g0.ases, edges=g0.edges)
        mg = project(graph, NodeClass.IXP)
        assert "X4" in mg.nodes

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            project(BipartiteGraph(), NodeClass.IXP)

    def test_parallel_edge_totals(self, g0):
        assert project(g0, NodeClass.IXP).num_parallel_edges == 3
        assert project(g0, NodeClass.AS).num_parallel_edges == 6


class TestMultiplicity:
    def test_g0_values(self, g0):
        mg = project(g0, NodeClass.IXP)
        assert multiplicity(mg, "X1", "X2") == 2
        assert multiplicity(mg, "X2", "X3") == 0
        assert multiplicity(mg, "X2", "X1") == 2  # order-insensitive

    def test_self_pair_is_zero(self, g0):
        mg = project(g0, NodeClass.IXP)
        assert multiplicity(mg, "X1", "X1") == 0

    def test_unknown_node(self, g0):
        mg = project(g0, NodeClass.IXP)
        with pytest.raises(UnknownNode):
            multiplicity(mg, "X1", "X9")
        with pytest.raises(UnknownNode):
            multiplicity(mg, "X9", "X1")


class TestProjectionIdentities:
    """Structural identities on random graphs (the full 200-graph sweep
    runs in the acceptance suite)."""

    def test_multiplicity_identity_and_soundness(self):
        rng = random.Random(7)
        for _ in range(20):
            graph = random_bipartite(rng, max_ixps=15, max_ases=40)
            mi = project(graph, NodeClass.IXP)
            ma = project(graph, NodeClass.AS)
            as_degrees = [len(graph.memberships(a)) for a in graph.ases]
            ixp_degrees = [len(graph.members(x)) for x in graph.ixps]
            assert mi.num_parallel_edges == sum(math.comb(d, 2) for d in as_degrees)
            assert ma.num_parallel_edges == sum(math.comb(d, 2) for d in ixp_degrees)
            assert {p: set(v) for p, v in mi.edges.items()} == bf_project(graph, NodeClass.IXP)
            assert {p: set(v) for p, v in ma.edges.items()} == bf_project(graph, NodeClass.AS)

    def test_node_sets_equal_class_sets(self):
        rng = random.Random(8)
        graph = random_bipartite(rng, max_ixps=10, max_ases=30)
        assert project(graph, NodeClass.IXP).nodes == set(graph.ixps)
        assert project(graph, NodeClass.AS).nodes == set(graph.ases)
