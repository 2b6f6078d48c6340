"""Metric suite: distributions, type shares, path counts, multiplicity,
remote-peering gains, correlation, centrality/clustering."""

import hashlib
import math
import random
from collections import Counter

import networkx as nx
import pytest

from ixpgraph.metrics import (
    Distribution,
    TypeFractions,
    betweenness_centrality,
    clustering_coefficient,
    degree_distribution,
    degree_prefix_correlation,
    member_type_fractions,
    multiplicity_distribution,
    remote_peering_gain_cdf,
    shortest_path_ixp_counts,
    type_fraction_distribution,
    type_share_by_degree,
)
from ixpgraph.model import (
    AsNode,
    AsType,
    BipartiteGraph,
    IxpGraphError,
    IxpNode,
    MembershipEdge,
    NodeClass,
    giant_component,
)
from ixpgraph.placement import rank_tunnels
from ixpgraph.projection import index

from conftest import build_graph, gain_test_graphs, make_g0, paper_scale_graph, random_bipartite
from oracles import (
    bf_gain,
    bf_gain_cdf,
    bf_ixp_count_distribution,
    bf_project,
    exact_betweenness,
    nx_betweenness,
    nx_clustering,
    project,
)


def graph_of(memberships: dict[int, tuple[str, ...]],
             prefix_counts: dict[int, int] | None = None) -> BipartiteGraph:
    prefix_counts = prefix_counts or {}
    ixps = sorted({x for ixps in memberships.values() for x in ixps})
    return build_graph(
        [IxpNode(x, [x]) for x in ixps],
        [AsNode(a, prefix_count=prefix_counts.get(a)) for a in sorted(memberships)],
        [MembershipEdge(x, a) for a, xs in memberships.items() for x in xs],
    )


class TestDistribution:
    def test_from_counts_sorts_and_drops_zeros(self):
        dist = Distribution.from_counts({3: 1, 1: 2, 2: 0})
        assert dist.values == ((1, 2), (3, 1))
        assert dist.total == 3


class TestDegreeDistribution:
    def test_g0_as_class(self, g0):
        assert degree_distribution(g0, NodeClass.AS).values == ((1, 1), (2, 3))

    def test_g0_ixp_class(self, g0):
        # X1 and X2 have three members each, X3 has one.
        assert degree_distribution(g0, NodeClass.IXP).values == ((1, 1), (3, 2))

    def test_single_edge_graph(self):
        graph = graph_of({1: ("X1",)})
        for node_class in NodeClass:
            assert degree_distribution(graph, node_class).values == ((1, 1),)

    def test_total_equals_class_size(self, g0):
        assert degree_distribution(g0, NodeClass.IXP).total == len(g0.ixps)
        assert degree_distribution(g0, NodeClass.AS).total == len(g0.ases)

    def test_empty_graph(self):
        for node_class in NodeClass:
            assert degree_distribution(BipartiteGraph(), node_class) == Distribution((), 0)


class TestMemberTypeFractions:
    def test_g0_typed(self, g0_typed):
        fractions = member_type_fractions(g0_typed)
        assert fractions["X1"] == TypeFractions(1 / 3, 0.0, 2 / 3)
        assert fractions["X2"] == TypeFractions(0.0, 1 / 3, 2 / 3)
        assert fractions["X3"] == TypeFractions(1.0, 0.0, 0.0)

    def test_all_unknown_gives_zeros(self, g0):
        assert all(f == TypeFractions(0, 0, 0) for f in member_type_fractions(g0).values())

    def test_single_content_member(self):
        plain = graph_of({1: ("X1",)})
        graph = BipartiteGraph(ixps=plain.ixps, edges=plain.edges,
                               ases={1: plain.ases[1]._replace(as_type=AsType.CONTENT)})
        assert member_type_fractions(graph)["X1"] == TypeFractions(1.0, 0.0, 0.0)

    def test_fraction_distribution(self, g0_typed):
        dist = type_fraction_distribution(g0_typed, AsType.CONTENT)
        assert dist.values == ((0.0, 1), (1 / 3, 1), (1.0, 1))
        assert dist.total == 3

    def test_fraction_distribution_of_unknown_type(self, g0_typed):
        with pytest.raises(ValueError, match="Content, Enterprise, ISP"):
            type_fraction_distribution(g0_typed, AsType.UNKNOWN)


class TestTypeShareByDegree:
    def test_g0_thresholds(self, g0_typed):
        all_row, deg1_row = type_share_by_degree(g0_typed, [0, 1])
        assert (all_row.content, all_row.enterprise, all_row.isp) == (0.25, 0.25, 0.5)
        assert (deg1_row.content, deg1_row.enterprise, deg1_row.isp) == (1 / 3, 0.0, 2 / 3)

    def test_empty_subset_gives_zeros(self, g0_typed):
        (row,) = type_share_by_degree(g0_typed, [10])
        assert (row.content, row.enterprise, row.isp) == (0.0, 0.0, 0.0)

    def test_fractions_can_sum_below_one(self, g0_typed):
        graph = BipartiteGraph(
            ixps=g0_typed.ixps, edges=g0_typed.edges,
            ases={**g0_typed.ases, 4: g0_typed.ases[4]._replace(as_type=AsType.UNKNOWN)})
        (row,) = type_share_by_degree(graph, [0])
        assert row.content + row.enterprise + row.isp < 1.0

    def test_empty_graph(self):
        zeros = TypeFractions(0.0, 0.0, 0.0)
        assert type_share_by_degree(BipartiteGraph(), [0, 1]) == (zeros, zeros)


class TestShortestPathIxpCounts:
    def test_g0(self, g0):
        dist = shortest_path_ixp_counts(g0)
        assert dist.values == ((1, 5), (2, 1))
        assert dist.total == 6

    def test_chain(self):
        # 1-X1-2-X2-3: the outer pair crosses two IXPs.
        graph = graph_of({1: ("X1",), 2: ("X1", "X2"), 3: ("X2",)})
        assert shortest_path_ixp_counts(graph).values == ((1, 2), (2, 1))

    @staticmethod
    def random_graphs(rng: random.Random) -> list:
        """Five small connected graphs, then 40 with at least 10 IXPs, whose
        ids come in as X1, X2, ..., X10, out of sorted order (X1, X10, X2)."""
        graphs = [giant_component(random_bipartite(rng, max_ixps=8, max_ases=25))
                  for _ in range(5)]
        while len(graphs) < 45:
            graph = giant_component(random_bipartite(rng, max_ixps=14, max_ases=25))
            if len(graph.ixps) >= 10:
                graphs.append(graph)
        return graphs

    def test_matches_naive_oracle_on_random_graphs(self):
        for graph in self.random_graphs(random.Random(11)):
            expected = bf_ixp_count_distribution(graph)
            got = shortest_path_ixp_counts(graph)
            assert dict(got.values) == dict(expected)

    def test_sampled_matches_oracle_on_random_graphs(self):
        for graph in self.random_graphs(random.Random(17)):
            n = len(graph.ases)
            for k, seed in ((1, 0), (2, 5), (n // 2, 42), (n - 1, 7)):
                if not 0 < k < n:
                    continue
                sources = set(random.Random(seed).sample(range(n), k))
                expected = bf_ixp_count_distribution(graph, sources)
                got = shortest_path_ixp_counts(graph, sample_size=k, seed=seed)
                assert dict(got.values) == dict(expected)

    def test_shared_ixp_set_class(self):
        # ASes 1 and 2 share the IXP set {X1, X2}, as do 4 and 5 with {X3}.
        graph = graph_of({1: ("X1", "X2"), 2: ("X1", "X2"), 3: ("X2", "X3"),
                          4: ("X3",), 5: ("X3",)})
        assert dict(bf_ixp_count_distribution(graph)) == {1: 6, 2: 4}
        assert shortest_path_ixp_counts(graph).values == ((1, 6), (2, 4))

    def test_sample_covering_all_equals_full(self, g0):
        full = shortest_path_ixp_counts(g0)
        for seed in (0, 1, 42):
            assert shortest_path_ixp_counts(g0, sample_size=4, seed=seed).values == full.values

    def test_sampled_pair_count(self, g0):
        # k sampled sources tally C(k,2) + k(n-k) unordered pairs.
        dist = shortest_path_ixp_counts(g0, sample_size=2, seed=42)
        assert dist.total == 1 + 2 * 2

    def test_sampling_is_deterministic(self, g0):
        a = shortest_path_ixp_counts(g0, sample_size=2, seed=9)
        b = shortest_path_ixp_counts(g0, sample_size=2, seed=9)
        assert a == b

    def test_invalid_sample_size(self, g0):
        with pytest.raises(ValueError):
            shortest_path_ixp_counts(g0, sample_size=0)

    def test_disconnected_raises(self):
        graph = graph_of({1: ("X1",), 2: ("X2",)})
        with pytest.raises(IxpGraphError, match=r"^1 AS nodes unreachable from AS 1$"):
            shortest_path_ixp_counts(graph)

    def test_two_components_raise_when_sampled(self):
        graph = graph_of({1: ("X1",), 2: ("X1",), 3: ("X2",), 4: ("X2",)})
        for seed, source in enumerate([4, 2, 1, 2]):
            with pytest.raises(IxpGraphError, match=rf"^2 AS nodes unreachable from AS {source}$"):
                shortest_path_ixp_counts(graph, sample_size=1, seed=seed)

    def test_as_without_membership_raises(self):
        graph = graph_of({1: ("X1",), 2: ("X1",), 3: ()})
        with pytest.raises(IxpGraphError, match=r"^1 AS nodes unreachable from AS 1$"):
            shortest_path_ixp_counts(graph)
        for seed, source in enumerate([2, 1, 1, 1]):
            with pytest.raises(IxpGraphError, match=rf"^1 AS nodes unreachable from AS {source}$"):
                shortest_path_ixp_counts(graph, sample_size=1, seed=seed)

    def test_unreachable_count_excludes_the_source(self):
        # AS 1 is at no IXP; its reach mask still holds itself, so the two
        # ASes at X1 are all it cannot reach.
        graph = graph_of({1: (), 2: ("X1",), 3: ("X1",)})
        with pytest.raises(IxpGraphError, match=r"^2 AS nodes unreachable from AS 1$"):
            shortest_path_ixp_counts(graph)

    def test_single_as_is_empty(self):
        graph = graph_of({1: ("X1",)})
        dist = shortest_path_ixp_counts(graph)
        assert dist.total == 0 and dist.values == ()

    def test_invalid_sample_size_on_a_single_as(self):
        graph = graph_of({1: ("X1",)})
        for k in (0, -3):
            with pytest.raises(ValueError, match="^sample_size must be positive$"):
                shortest_path_ixp_counts(graph, sample_size=k)

    def test_empty_graph(self):
        for sample_size in (None, 3):
            assert shortest_path_ixp_counts(BipartiteGraph(), sample_size) == Distribution((), 0)


def ixp_chain(length: int, cycle: bool = False) -> dict[int, tuple[str, ...]]:
    """Memberships of IXPs X0..X{length-1} in a row (a ring if ``cycle``):
    AS 2k+1 sits at Xk alone and AS 2k+2 joins Xk to the next IXP, so the
    IXP ball of X0 is full only after length - 1 steps."""
    out = {}
    for k in range(length):
        out[2 * k + 1] = (f"X{k}",)
        if k + 1 < length or cycle:
            out[2 * k + 2] = (f"X{k}", f"X{(k + 1) % length}")
    return out


def with_lone_ixp(memberships: dict[int, tuple[str, ...]]) -> BipartiteGraph:
    """The graph of ``memberships`` plus an IXP "E" with no member."""
    ixps = sorted({x for xs in memberships.values() for x in xs} | {"E"})
    return build_graph([IxpNode(x, [x]) for x in ixps],
                       [AsNode(a) for a in sorted(memberships)],
                       [MembershipEdge(x, a) for a, xs in memberships.items() for x in xs])


class TestShortestPathIxpRings:
    """Graphs whose IXP balls fill slowly or never: a 3-IXP chain fills in
    two steps, longer chains and the cycle later, and no ball ever holds a
    member-less IXP. So the kernel's deeper rings carry the answer. Each
    graph runs full and sampled."""

    CONNECTED = {
        "chain-3": lambda: graph_of(ixp_chain(3)),
        "chain-10": lambda: graph_of(ixp_chain(10)),
        "chain-40": lambda: graph_of(ixp_chain(40)),
        "cycle-9": lambda: graph_of(ixp_chain(9, cycle=True)),
        # A member-less IXP never enters any ball, so no ball holds every IXP.
        "lone-ixp": lambda: with_lone_ixp(ixp_chain(6)),
        # Shortcuts and a lone IXP on a chain. ASes 102 and 103 share a reach
        # mask but not an IXP set: Y's only member is 103, which is also at X1.
        "shortcut": lambda: with_lone_ixp({**ixp_chain(10), 100: ("X2", "X7"),
                                           101: ("X0", "X1"), 102: ("X1",),
                                           103: ("X1", "Y")}),
    }

    @pytest.mark.parametrize("name", CONNECTED)
    def test_matches_the_oracle(self, name):
        graph = self.CONNECTED[name]()
        n = len(graph.ases)
        assert dict(shortest_path_ixp_counts(graph).values) == dict(bf_ixp_count_distribution(graph))
        for k, seed in ((1, 0), (3, 5), (n // 2, 42), (n - 1, 7)):
            sources = set(random.Random(seed).sample(range(n), k))
            got = shortest_path_ixp_counts(graph, sample_size=k, seed=seed)
            assert dict(got.values) == dict(bf_ixp_count_distribution(graph, sources))

    def test_chain_crosses_every_ixp(self):
        # The two lone ASes at the ends of a 40-IXP chain cross all 40.
        dist = shortest_path_ixp_counts(graph_of(ixp_chain(40)))
        assert dist.values[-1] == (40, 1)
        assert dist.total == math.comb(80 - 1, 2)

    @pytest.mark.parametrize("graph, sample, message", [
        # Two chains: AS 1 reaches the 5 ASes of its own 3-IXP chain.
        ({**ixp_chain(3), **{a + 100: tuple(x + "b" for x in xs)
                             for a, xs in ixp_chain(4).items()}},
         None, "7 AS nodes unreachable from AS 1"),
        # An AS at no IXP, sorted first and then last.
        ({1: (), **{a + 10: xs for a, xs in ixp_chain(10).items()}},
         None, "19 AS nodes unreachable from AS 1"),
        ({**ixp_chain(10), 999: ()}, None, "1 AS nodes unreachable from AS 1"),
        # Sampled, the first sampled source names the message.
        ({**ixp_chain(3), **{a + 100: tuple(x + "b" for x in xs)
                             for a, xs in ixp_chain(4).items()}},
         (3, 5), "5 AS nodes unreachable from AS 105"),
        ({**ixp_chain(10), 999: ()}, (4, 1), "1 AS nodes unreachable from AS 5"),
        ({**ixp_chain(10), 999: ()}, (4, 5), "19 AS nodes unreachable from AS 999"),
    ], ids=["two-chains", "no-ixp-first", "no-ixp-last", "two-chains-sampled",
            "no-ixp-sampled", "no-ixp-is-the-source"])
    def test_disconnected_message(self, graph, sample, message):
        graph = graph_of(graph)
        kwargs = {} if sample is None else {"sample_size": sample[0], "seed": sample[1]}
        with pytest.raises(IxpGraphError, match=f"^{message}$"):
            shortest_path_ixp_counts(graph, **kwargs)


class TestMultiplicityDistribution:
    def test_g0_ixp_pairs(self, g0):
        dist = multiplicity_distribution(g0, NodeClass.IXP)
        assert dist.values == ((0, 1), (1, 1), (2, 1))
        assert dist.total == 3

    def test_g0_as_pairs(self, g0):
        dist = multiplicity_distribution(g0, NodeClass.AS)
        assert dist.values == ((0, 1), (1, 4), (2, 1))
        assert dist.total == 6

    def test_total_is_all_pairs(self):
        rng = random.Random(3)
        graph = random_bipartite(rng, max_ixps=12, max_ases=40)
        for node_class, size in ((NodeClass.IXP, len(graph.ixps)), (NodeClass.AS, len(graph.ases))):
            dist = multiplicity_distribution(graph, node_class)
            assert dist.total == math.comb(size, 2)

    @pytest.mark.parametrize("node_class", list(NodeClass))
    def test_matches_oracle_on_random_graphs(self, node_class):
        graphs = gain_test_graphs()
        # An IXP without members, so the IXP class has a node with no
        # neighbour too (AS 8 of the first graph is one for the AS class).
        graphs.append(build_graph([IxpNode(x, [x]) for x in ("X1", "X2", "X3")],
                                  [AsNode(1), AsNode(2)],
                                  [MembershipEdge("X1", 1), MembershipEdge("X2", 1)]))
        for graph in graphs:
            pairs = bf_project(graph, node_class)
            n = len(graph.ixps if node_class is NodeClass.IXP else graph.ases)
            counts = Counter(len(vias) for vias in pairs.values())
            counts[0] = math.comb(n, 2) - len(pairs)
            expected = Distribution.from_counts(counts)
            dist = multiplicity_distribution(graph, node_class)
            assert dist == expected and repr(dist) == repr(expected)

    def test_single_node_projection(self):
        graph = graph_of({1: ("X1",)})
        dist = multiplicity_distribution(graph, NodeClass.IXP)
        assert dist.total == 0

    SHARED = (1, 2, 3, 4, 7, 8, 9, 15, 16, 17)  # each side of a counter's plane boundaries

    @staticmethod
    def shared_pairs(hub: bool) -> BipartiteGraph:
        """IXP pairs sharing c ASes and AS pairs sharing c IXPs, c over
        ``SHARED``, plus IXP "E" and AS 9999 with no neighbour. With ``hub``
        one IXP H and one AS 1 are the common end of every such pair, so
        their counters hold all the multiplicities at once."""
        edges = set()
        for c in TestMultiplicityDistribution.SHARED:
            for j in range(c):
                asn = 1000 + 100 * c + j
                edges |= {("H" if hub else f"P{c}", asn), (f"Q{c}", asn)}
                ixp = f"Z{c}.{j}"
                edges |= {(ixp, 1 if hub else 10 + c), (ixp, 30 + c)}
        return build_graph([IxpNode(x, [x]) for x in sorted({x for x, _ in edges} | {"E"})],
                           [AsNode(a) for a in sorted({a for _, a in edges} | {9999})],
                           [MembershipEdge(x, a) for x, a in sorted(edges)])

    @pytest.mark.parametrize("hub", [False, True], ids=["apart", "hub"])
    @pytest.mark.parametrize("node_class", list(NodeClass))
    def test_counter_plane_boundaries(self, node_class, hub):
        graph = self.shared_pairs(hub)
        pairs = bf_project(graph, node_class)
        n = len(graph.ixps if node_class is NodeClass.IXP else graph.ases)
        counts = Counter(len(vias) for vias in pairs.values())
        assert set(self.SHARED) <= set(counts)
        counts[0] = math.comb(n, 2) - len(pairs)
        expected = Distribution.from_counts(counts)
        dist = multiplicity_distribution(graph, node_class)
        assert dist == expected and repr(dist) == repr(expected)


class TestRemotePeeringGain:
    """The gain of AS a through co-located AS b, as ``rank_tunnels`` scores
    it and as the edge-list oracle recomputes it."""

    @staticmethod
    def gain(graph, a, b):
        return dict(rank_tunnels(graph, a))[b]

    def test_g0_a1_via_a2(self, g0):
        assert self.gain(g0, 1, 2) == bf_gain(g0, 1, 2) == 1

    def test_g0_a4_via_a2(self, g0):
        assert self.gain(g0, 4, 2) == bf_gain(g0, 4, 2) == 1

    def test_subset_footprint_gains_nothing(self, g0):
        # IXPs(A4) = {X2} is a subset of IXPs(A2) = {X1, X2}.
        assert self.gain(g0, 2, 4) == bf_gain(g0, 2, 4) == 0

    def test_same_as_rejected(self, g0):
        # An AS is never its own reseller.
        for a in g0.ases:
            assert a not in dict(rank_tunnels(g0, a))

    def test_not_colocated(self, g0):
        # A1 and A4 share no IXP, so neither is a reseller for the other.
        assert 4 not in dict(rank_tunnels(g0, 1))
        assert 1 not in dict(rank_tunnels(g0, 4))

    def test_matches_edge_list_oracle(self, g0):
        for a, b in ((1, 2), (1, 3), (2, 3), (3, 2), (4, 2), (4, 3)):
            assert self.gain(g0, a, b) == bf_gain(g0, a, b)


class TestRemotePeeringGainCdf:
    def test_g0(self, g0):
        dist = remote_peering_gain_cdf(g0)
        assert dist.values == ((0, 6), (1, 4))
        assert dist.total == 10

    def test_matches_pairwise_enumeration(self, g0):
        expected = Counter()
        for a in g0.ases:
            for b in g0.ases:
                if a == b or not (g0.memberships(a) & g0.memberships(b)):
                    continue
                expected[bf_gain(g0, a, b)] += 1
        assert dict(remote_peering_gain_cdf(g0).values) == dict(expected)

    def test_matches_oracle_on_random_graphs(self):
        graphs = gain_test_graphs()
        # The cases the masks must get right: an AS with no membership (its
        # reach mask is its own bit alone), a single-member IXP, no pairs at all.
        assert any(not g.memberships(a) for g in graphs for a in g.ases)
        assert any(len(g.members(x)) == 1 for g in graphs for x in g.ixps)
        assert any(remote_peering_gain_cdf(g).total == 0 for g in graphs)
        for graph in graphs:
            expected = bf_gain_cdf(graph)
            dist = remote_peering_gain_cdf(graph)
            assert dict(dist.values) == dict(expected)
            assert dist.total == sum(expected.values())

    def test_single_shared_ixp_all_zero(self):
        graph = graph_of({1: ("X1",), 2: ("X1",), 3: ("X1",)})
        dist = remote_peering_gain_cdf(graph)
        assert dist.values == ((0, 6),)

    def test_no_eligible_pairs(self):
        graph = graph_of({1: ("X1",), 2: ("X2",)})
        dist = remote_peering_gain_cdf(graph)
        assert dist.total == 0

    def test_gain_bound(self):
        rng = random.Random(21)
        graph = random_bipartite(rng, max_ixps=8, max_ases=30)
        dist = remote_peering_gain_cdf(graph)
        assert all(0 <= gain <= len(graph.ases) - 2 for gain, _ in dist.values)

    def test_empty_graph(self):
        assert remote_peering_gain_cdf(BipartiteGraph()) == Distribution((), 0)


class TestDegreePrefixCorrelation:
    def test_perfect_positive(self):
        graph = graph_of(
            {1: ("X1",), 2: ("X1", "X2"), 3: ("X1", "X2", "X3")},
            prefix_counts={1: 10, 2: 20, 3: 30},
        )
        assert degree_prefix_correlation(graph) == pytest.approx(1.0)

    def test_perfect_negative(self):
        graph = graph_of(
            {1: ("X1",), 2: ("X1", "X2"), 3: ("X1", "X2", "X3")},
            prefix_counts={1: 30, 2: 20, 3: 10},
        )
        assert degree_prefix_correlation(graph) == pytest.approx(-1.0)

    def test_ases_without_prefix_data_ignored(self):
        graph = graph_of(
            {1: ("X1",), 2: ("X1", "X2"), 3: ("X1", "X2", "X3"), 4: ("X1",)},
            prefix_counts={1: 10, 2: 20, 3: 30},
        )
        assert degree_prefix_correlation(graph) == pytest.approx(1.0)

    def test_too_few_points(self):
        graph = graph_of({1: ("X1",), 2: ("X1",)}, prefix_counts={1: 10})
        with pytest.raises(IxpGraphError, match=r"^need at least 2 ASes with prefix data, have 1$"):
            degree_prefix_correlation(graph)

    def test_constant_variable(self):
        graph = graph_of({1: ("X1",), 2: ("X1",)}, prefix_counts={1: 10, 2: 20})
        with pytest.raises(IxpGraphError, match=r"^at least one of the inputs is constant$"):
            degree_prefix_correlation(graph)


class TestCentralityAndClustering:
    def test_betweenness_path_graph(self, g0):
        # The G0 IXP projection is the path X3 - X1 - X2.
        values = betweenness_centrality(g0, NodeClass.IXP)
        assert values == {"X1": 1.0, "X2": 0.0, "X3": 0.0}

    def test_clustering_triangle(self):
        graph = graph_of({1: ("X1",), 2: ("X1",), 3: ("X1",)})
        values = clustering_coefficient(graph, NodeClass.AS)
        assert values == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_clustering_star_center(self):
        graph = graph_of({1: ("X1", "X2", "X3"), 2: ("X1",), 3: ("X2",), 4: ("X3",)})
        values = clustering_coefficient(graph, NodeClass.AS)
        assert values[1] == 0.0

    def test_g0_as_clustering(self, g0):
        values = clustering_coefficient(g0, NodeClass.AS)
        assert values == {1: 1.0, 2: pytest.approx(2 / 3), 3: pytest.approx(2 / 3), 4: 1.0}

    SMALL = [
        {1: ("X1",)},                                   # one node per class
        {1: ("X1",), 2: ("X1",)},                       # two, joined
        {1: ("X1",), 2: ("X2",)},                       # two, apart
        {1: ("X1", "X2"), 2: ("X2", "X3")},             # three on a path
        {1: ("X1",), 2: ("X1",), 3: ("X1",)},           # triangle
        {1: ("X1",), 2: ("X1",), 3: ("X2",)},           # pair plus isolated
        {1: ("X1", "X2"), 2: ("X2",), 3: ("X3", "X4"), 4: ("X4",)},  # two components
    ]

    @staticmethod
    def assert_exact(values, expected):
        assert list(values.items()) == list(expected.items())
        assert [type(v) for v in values.values()] == [type(v) for v in expected.values()]

    @staticmethod
    def assert_near(values, expected, rel):
        # networkx sums floats in its own order, so it is a second oracle
        # only to within a few ulp of the exact value.
        assert list(values) == list(expected)
        assert all(v == pytest.approx(expected[k], rel=rel, abs=0) for k, v in values.items())

    def assert_betweenness(self, graph, node_class, rel=1e-12):
        mg = project(graph, node_class)
        values = betweenness_centrality(graph, node_class)
        self.assert_exact(values, exact_betweenness(mg))
        self.assert_near(values, nx_betweenness(mg), rel)
        return values

    @staticmethod
    def shape(graph, node_class):
        """(has a pair at distance 3 or more, is disconnected) for the
        simple projection onto ``node_class``, from networkx."""
        mg = project(graph, node_class)
        g = nx.Graph(list(mg.edges))
        g.add_nodes_from(mg.nodes)
        far = any(d >= 3 for _, ds in nx.all_pairs_shortest_path_length(g) for d in ds.values())
        return far, not nx.is_connected(g)

    @pytest.mark.parametrize("node_class", list(NodeClass))
    def test_kernels_equal_networkx(self, node_class):
        rng = random.Random(2001)
        graphs = [graph_of(m) for m in self.SMALL]
        graphs += [random_bipartite(rng, max_ixps=25, max_ases=40) for _ in range(60)]
        for graph in graphs:
            self.assert_betweenness(graph, node_class)
            self.assert_exact(clustering_coefficient(graph, node_class),
                              nx_clustering(project(graph, node_class)))

    def test_betweenness_equals_exact_oracle_on_random_graphs(self):
        # Dense draws, sparse draws and the giant components of sparse draws,
        # in both classes: pairs at distance 3 or more (the far pass), with
        # and without disconnected pairs, turn up often.
        rng = random.Random(1611)
        shapes = Counter()
        for k in range(300):
            graph = random_bipartite(rng, *((25, 40) if k % 4 == 0 else (30, 12)))
            if k % 4 > 1:
                graph = giant_component(graph)
            for node_class in NodeClass:
                if graph.ixps if node_class is NodeClass.IXP else graph.ases:
                    self.assert_betweenness(graph, node_class)
                    shapes[self.shape(graph, node_class)] += 1
        # (far pairs, disconnected): 93, 109, 134 and 260 graphs at this seed.
        assert shapes[True, True] >= 80 and shapes[True, False] >= 80
        assert shapes[False, True] >= 80 and shapes[False, False] >= 80

    @staticmethod
    def layered_graph():
        # 60 layers of 3 IXPs, consecutive layers fully joined through one AS
        # per IXP pair: path counts grow as powers of 3, up to 3**59 > 2**93.
        layers = [[f"L{k:02d}X{i}" for i in range(3)] for k in range(60)]
        memberships = {}
        for upper, lower in zip(layers, layers[1:]):
            for a in upper:
                for b in lower:
                    memberships[len(memberships) + 1] = (a, b)
        return graph_of(memberships)

    def test_betweenness_past_2_53_paths_keeps_exact_path_counts(self):
        # Past 2**53 paths networkx's float sums round (powers of 2 would
        # stay exact), while the kernel's integer path counts do not.
        graph = self.layered_graph()
        assert (len(graph.ixps), len(graph.ases)) == (180, 531)
        values = self.assert_betweenness(graph, NodeClass.IXP, rel=1e-15)
        assert values != nx_betweenness(project(graph, NodeClass.IXP))

    def test_betweenness_at_paper_density_equals_networkx(self):
        # The paper-scale shape at 200 IXPs, its degree cap scaled with it
        # (140, as 350 of 500): every BFS has depth 2 and path counts reach 159.
        self.assert_betweenness(paper_scale_graph(n_ixp=200, n_as=1400), NodeClass.IXP)

    def test_paper_scale_graph_default_unchanged(self):
        # The degree cap is 350 at 500 IXPs: the paper-scale graph that other
        # tests pin figures on keeps exactly these edges.
        graph = paper_scale_graph()
        assert (len(graph.ixps), len(graph.ases), graph.num_edges) == (500, 4700, 15606)
        digest = hashlib.sha256(repr(sorted(graph.edges)).encode()).hexdigest()
        assert digest == "2f4c762a3276dde2b2a3248dad6a56fb819c4dbf4fcef86f4e944fe4cef1241b"

    def test_smaller_paper_shape_projection_is_not_complete(self):
        # A degree cap at or above n_ixp lets an AS join every IXP, which
        # makes every IXP pair adjacent and every betweenness value 0.
        nodes, _, reach = index(paper_scale_graph(n_ixp=150, n_as=1400), NodeClass.IXP)
        n = len(nodes)
        edges = sum((r & ~(1 << i)).bit_count() for i, r in enumerate(reach)) // 2
        assert 0 < edges < n * (n - 1) // 2

    def test_empty_graph(self):
        for node_class in NodeClass:
            assert multiplicity_distribution(BipartiteGraph(), node_class) == Distribution((), 0)
            for kernel in (betweenness_centrality, clustering_coefficient):
                assert kernel(BipartiteGraph(), node_class) == {}

    def test_class_without_nodes(self):
        # IXPs but no AS: the AS projection has no node and no pair.
        graph = BipartiteGraph(ixps={"X1": IxpNode("X1", ["X1"])})
        assert multiplicity_distribution(graph, NodeClass.AS).total == 0
        for kernel in (betweenness_centrality, clustering_coefficient):
            assert kernel(graph, NodeClass.AS) == {}
