"""Model types: validation, adjacency, degrees, giant component."""

import networkx as nx
import pytest

from ixpgraph.model import (
    AsNode,
    AsType,
    BipartiteGraph,
    IxpGraphError,
    IxpNode,
    IxpStatus,
    Location,
    MembershipEdge,
    NodeClass,
    Source,
    _by_value,
    giant_component,
)
from ixpgraph.projection import index

from conftest import (
    add_membership,
    assert_rebuilds_equal,
    build_graph,
    giant_test_graphs,
    make_g0,
)
from oracles import bf_degree, nx_giant_component


def pair_graph(*pairs):
    ixps = {x for x, _ in pairs}
    ases = {a for _, a in pairs}
    return build_graph(
        [IxpNode(x, [x]) for x in sorted(ixps)],
        [AsNode(a) for a in sorted(ases)],
        [MembershipEdge(x, a) for x, a in pairs],
    )


class TestNodeValidation:
    def test_asn_must_be_positive(self):
        with pytest.raises(ValueError):
            AsNode(0)
        with pytest.raises(ValueError):
            AsNode(-7)

    def test_negative_prefix_count_rejected(self):
        with pytest.raises(ValueError):
            AsNode(1, prefix_count=-1)

    def test_ixp_needs_a_name(self):
        with pytest.raises(ValueError):
            IxpNode("X1", names=[])

    def test_duplicate_peering_prefixes_rejected(self):
        with pytest.raises(ValueError):
            IxpNode("X1", ["X1"], peering_prefixes=["10.0.0.0/8", "10.0.0.0/8"])

    def test_edge_needs_sources(self):
        with pytest.raises(ValueError):
            MembershipEdge("X1", 1, sources=frozenset())

    def test_edge_sources_coerced_to_frozenset(self):
        edge = MembershipEdge("X1", 1, sources={Source.PDB})
        assert isinstance(edge.sources, frozenset)

    def test_default_peering_prefixes_not_shared(self):
        first, second = IxpNode("X1", ["X1"]), IxpNode("X2", ["X2"])
        assert first.peering_prefixes == [] and first.peering_prefixes is not second.peering_prefixes

    def test_location_defaults(self):
        loc = Location("DE", "Frankfurt")
        assert loc.lat is None and loc.lon is None

    def test_location_bounds_accepted(self):
        assert Location("AQ", "Pole", -90, 180.0).lat == -90
        assert Location("NO", "North", 90.0, -180).lon == -180

    @pytest.mark.parametrize("lat, lon", [
        (float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0),
        (0.0, float("-inf")), (90.5, 0.0), (-91, 0.0), (0.0, 999.5), (0.0, -180.01),
    ])
    def test_location_coordinates_finite_and_in_range(self, lat, lon):
        with pytest.raises(ValueError):
            Location("DE", "Frankfurt", lat, lon)

    # A str enum equals its value and its value's hash, so only the exact
    # type tells a wrong enum or a bare string from the right member.
    @pytest.mark.parametrize("record, message", [
        (lambda: AsNode(1, as_type=IxpStatus.ACTIVE),
         "as_type must be an AsType, got <IxpStatus.ACTIVE: 'Active'>"),
        (lambda: AsNode(1, as_type="ISP"), "as_type must be an AsType, got 'ISP'"),
        (lambda: IxpNode("X1", ["X1"], status="Active"),
         "status must be an IxpStatus, got 'Active'"),
        (lambda: IxpNode("X1", ["X1"], location=("DE", "Berlin", None, None)),
         "location must be a Location or null, got ('DE', 'Berlin', None, None)"),
        (lambda: MembershipEdge("X1", 1, sources={"PDB"}),
         "sources must hold only Source members, got 'PDB'"),
        (lambda: MembershipEdge("X1", 1, sources={Source.PCH, AsType.ISP}),
         "sources must hold only Source members, got <AsType.ISP: 'ISP'>"),
    ], ids=["wrong-enum-as-type", "str-as-type", "str-status", "tuple-location",
            "str-source", "wrong-enum-source"])
    def test_enum_and_nested_fields_checked_by_type(self, record, message):
        with pytest.raises(ValueError) as info:
            record()
        assert str(info.value) == message


class TestByValue:
    @pytest.mark.parametrize("kind", [AsType, IxpStatus, Source, NodeClass])
    def test_same_as_calling_the_enum(self, kind):
        for member in kind:
            assert _by_value(kind, member.value) is member
        for bad in ("Bogus", ["Active"], None):
            with pytest.raises(ValueError) as want:
                kind(bad)
            with pytest.raises(ValueError) as got:
                _by_value(kind, bad)
            assert str(got.value) == str(want.value)


class TestBipartiteGraph:
    def test_edge_with_missing_endpoint_rejected(self):
        with pytest.raises(ValueError, match=r"^edge \('X1', 1\) references a missing vertex$"):
            BipartiteGraph(
                ixps={"X1": IxpNode("X1", ["X1"])},
                ases={},
                edges={("X1", 1): MembershipEdge("X1", 1)},
            )

    def test_edge_key_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph(
                ixps={"X1": IxpNode("X1", ["X1"])},
                ases={1: AsNode(1)},
                edges={("X1", 1): MembershipEdge("X1", 2)},
            )

    def test_members_and_memberships(self, g0):
        assert g0.members("X1") == {1, 2, 3}
        assert g0.memberships(1) == {"X1", "X3"}
        with pytest.raises(IxpGraphError, match=r"^unknown IXP 'X9'$"):
            g0.members("X9")
        with pytest.raises(IxpGraphError, match=r"^unknown AS 99$"):
            g0.memberships(99)

    def test_equality_with_another_type_is_not_implemented(self, g0):
        assert BipartiteGraph().__eq__(object()) is NotImplemented
        assert (BipartiteGraph() == object()) is False
        assert g0 != "g0"

    def test_counts(self, g0):
        assert g0.num_nodes == 7
        assert g0.num_edges == 7

    def test_bipartiteness_scan(self, g0):
        for (ixp_id, asn) in g0.edges:
            assert isinstance(ixp_id, str) and ixp_id in g0.ixps
            assert isinstance(asn, int) and asn in g0.ases


class TestAddMembership:
    def test_single_edge(self):
        graph = BipartiteGraph(ixps={"X1": IxpNode("X1", ["X1"])}, ases={1: AsNode(1)})
        assert add_membership(graph, MembershipEdge("X1", 1)).num_edges == 1
        assert graph.num_edges == 0  # the graph it was given is not changed

    def test_readd_merges_sources(self):
        graph = BipartiteGraph(ixps={"X1": IxpNode("X1", ["X1"])}, ases={1: AsNode(1)})
        graph = add_membership(graph, MembershipEdge("X1", 1, sources={Source.PDB}))
        graph = add_membership(graph, MembershipEdge("X1", 1, sources={Source.PCH}))
        assert graph.num_edges == 1
        assert graph.edges[("X1", 1)].sources == {Source.PDB, Source.PCH}

    def test_existing_member_ip_wins(self):
        graph = BipartiteGraph(ixps={"X1": IxpNode("X1", ["X1"])}, ases={1: AsNode(1)})
        graph = add_membership(graph, MembershipEdge("X1", 1, member_ip="192.0.2.1"))
        graph = add_membership(graph, MembershipEdge("X1", 1, member_ip="192.0.2.2"))
        assert graph.edges[("X1", 1)].member_ip == "192.0.2.1"

    def test_unknown_endpoint(self, g0):
        with pytest.raises(ValueError, match=r"^edge \('X9', 1\) references a missing vertex$"):
            add_membership(g0, MembershipEdge("X9", 1))
        with pytest.raises(ValueError, match=r"^edge \('X1', 99\) references a missing vertex$"):
            add_membership(g0, MembershipEdge("X1", 99))

    def test_adjacency_updated(self):
        graph = BipartiteGraph(
            ixps={"X1": IxpNode("X1", ["X1"])}, ases={1: AsNode(1), 2: AsNode(2)}
        )
        graph = add_membership(graph, MembershipEdge("X1", 2))
        assert graph.members("X1") == {2}
        assert graph.memberships(2) == {"X1"}


class TestDegree:
    def test_g0_values(self, g0):
        assert len(g0.members("X1")) == 3
        assert len(g0.memberships(1)) == 2

    def test_isolated_vertex(self):
        graph = BipartiteGraph(ixps={"X1": IxpNode("X1", ["X1"])}, ases={1: AsNode(1)})
        assert len(graph.members("X1")) == 0
        assert len(graph.memberships(1)) == 0

    def test_unknown_node(self, g0):
        with pytest.raises(IxpGraphError, match=r"^unknown IXP 'X9'$"):
            g0.members("X9")
        with pytest.raises(IxpGraphError, match=r"^unknown AS 9$"):
            g0.memberships(9)

    def test_degree_sum_identity(self, g0):
        ixp_sum = sum(len(g0.members(x)) for x in g0.ixps)
        as_sum = sum(len(g0.memberships(a)) for a in g0.ases)
        assert ixp_sum == as_sum == g0.num_edges

    def test_matches_edge_scan_oracle(self, g0):
        for x in g0.ixps:
            assert len(g0.members(x)) == bf_degree(g0, x)
        for a in g0.ases:
            assert len(g0.memberships(a)) == bf_degree(g0, a)


class TestGiantComponent:
    def test_disconnected_pair_discarded(self):
        g0 = make_g0()
        graph = BipartiteGraph(ixps={**g0.ixps, "X9": IxpNode("X9", ["X9"])},
                               ases={**g0.ases, 9: AsNode(9)}, edges=g0.edges)
        graph = add_membership(graph, MembershipEdge("X9", 9))
        result = giant_component(graph)
        assert graph.num_nodes - result.num_nodes == 2
        assert graph.num_edges - result.num_edges == 1
        assert set(result.ixps) == {"X1", "X2", "X3"}
        assert set(result.ases) == {1, 2, 3, 4}

    def test_connected_graph_unchanged(self, g0):
        result = giant_component(g0)
        assert (result.num_nodes, result.num_edges) == (g0.num_nodes, g0.num_edges)

    def test_edge_count_tie_break(self):
        # Two 4-node components; the second carries 4 edges vs 3 and wins.
        graph = pair_graph(
            ("X1", 1), ("X1", 2), ("X2", 1),
            ("Y1", 11), ("Y1", 12), ("Y2", 11), ("Y2", 12),
        )
        result = giant_component(graph)
        assert set(result.ixps) == {"Y1", "Y2"}
        assert graph.num_nodes - result.num_nodes == 4
        assert graph.num_edges - result.num_edges == 3

    def test_label_tie_break(self):
        # Equal nodes and edges: the component containing the smallest
        # label ("5" sorts before "6" and either X id) is kept.
        graph = pair_graph(("X1", 5), ("X2", 6))
        result = giant_component(graph)
        assert set(result.ases) == {5}

    def test_result_is_connected_and_maximal(self):
        graph = pair_graph(("X1", 1), ("X2", 1), ("X3", 3), ("X4", 4))
        result = giant_component(graph)
        kept = set(result.ixps) | set(result.ases)
        assert kept == {"X1", "X2", 1}
        # Maximality: no discarded node is adjacent to a kept one.
        for (x, a) in graph.edges:
            assert ((x in kept) == (a in kept))

    def test_empty_graph(self):
        assert giant_component(BipartiteGraph()) == BipartiteGraph()

    def test_result_equals_a_checked_rebuild(self):
        # The component carries its records and adjacency sets over from the
        # graph, unchecked, and starts with no index of its own.
        dropped = 0
        for graph in giant_test_graphs():
            for node_class in NodeClass:
                index(graph, node_class)
            result = giant_component(graph)
            assert_rebuilds_equal(result)
            dropped += result.num_nodes < graph.num_nodes
        assert dropped

    def test_matches_networkx_components_and_tie_break(self):
        ties = set()
        for case, graph in enumerate(giant_test_graphs()):
            kept = nx_giant_component([*graph.ixps, *graph.ases], list(graph.edges))
            assert giant_component(graph) == BipartiteGraph(
                ixps={x: n for x, n in graph.ixps.items() if x in kept},
                ases={a: n for a, n in graph.ases.items() if a in kept},
                edges={k: e for k, e in graph.edges.items() if k[0] in kept},
            ), f"case {case}"
            g = nx.Graph(list(graph.edges))
            g.add_nodes_from([*graph.ixps, *graph.ases])
            scores = sorted((len(c), sum(1 for x, _ in graph.edges if x in c))
                            for c in nx.connected_components(g))
            if len(scores) > 1 and scores[-1][0] == scores[-2][0]:
                ties.add("edges" if scores[-1] != scores[-2] else "label")
        # Both tie-breaks decide some of the cases.
        assert ties == {"edges", "label"}


def test_enum_values_are_strings():
    assert AsType.CONTENT.value == "Content"
    assert Source.PDB.value == "PDB"
