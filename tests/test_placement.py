"""Coverage solvers, tunnel ranking, and site scoring."""

import random
import sys
from fractions import Fraction

import pytest

from ixpgraph.errors import (
    NoLocationData,
    Uncoverable,
    UnknownNode,
    UnknownTarget,
)
from ixpgraph.model import (
    AsNode,
    BipartiteGraph,
    IxpNode,
    Location,
    MembershipEdge,
)
from ixpgraph.placement import (
    CoverageInstance,
    build_instance,
    budgeted_max_coverage,
    greedy_set_cover,
    rank_tunnels,
    site_selection_score,
)

from conftest import build_graph, gain_test_graphs, make_g0
from oracles import bf_gain, exhaustive_cover_oracle, harmonic, scan_greedy


def instance_of(candidates: dict[str, set[int]],
                cost: dict[str, float] | None = None,
                weight: dict[int, float] | None = None) -> CoverageInstance:
    universe = frozenset().union(*candidates.values()) if candidates else frozenset()
    return CoverageInstance(
        universe=universe,
        candidates={c: frozenset(s) for c, s in candidates.items()},
        cost={c: (cost or {}).get(c, 1.0) for c in candidates},
        weight={a: (weight or {}).get(a, 1.0) for a in universe},
    )


def random_instance(rng: random.Random, max_candidates: int = 12) -> CoverageInstance:
    pool = range(1, rng.randint(2, 16))
    candidates = {}
    for i in range(rng.randint(1, max_candidates)):
        subset = {a for a in pool if rng.random() < 0.4}
        if subset:
            candidates[f"X{i:02d}"] = subset
    if not candidates:
        candidates = {"X00": {1}}
    cost = {c: rng.uniform(0.5, 3.0) for c in candidates}
    universe = set().union(*candidates.values())
    weight = {a: rng.uniform(0.5, 3.0) for a in universe}
    return instance_of(candidates, cost, weight)


def tied_instance(rng: random.Random) -> CoverageInstance:
    """A random instance full of near-ties: costs drawn from three prices,
    so cost ties are common; decimal weights such as 0.1 and 0.7, whose
    float sums depend on order; and ASNs spread over 32 bits, so a set's
    iteration order follows the order its elements went in."""
    asns = rng.sample(range(1, 2**32), rng.randint(1, 15))
    prices = [rng.choice((0.1, 0.3, 0.7, 1.1, 2.5)) for _ in range(2)] + [rng.uniform(0.1, 3.0)]
    candidates = {}
    for i in range(rng.randint(1, 12)):
        subset = {a for a in asns if rng.random() < 0.4}
        if subset:
            candidates[f"X{i:02d}"] = subset
    if not candidates:
        candidates = {"X00": {asns[0]}}
    cost = {c: rng.choice(prices) for c in candidates}
    weight = {a: rng.choice((0.1, 0.2, 0.3, 0.7, 1.1, rng.uniform(0.1, 3.0))) for a in asns}
    return instance_of(candidates, cost, weight)


def tied_budgets(rng: random.Random, instance: CoverageInstance) -> tuple[float, ...]:
    """A budget below every cost, one equal to a cost, and one in between
    the cheapest cost and the sum of all costs."""
    costs = sorted(instance.cost.values())
    return (costs[0] * rng.uniform(0.1, 0.99), rng.choice(costs),
            rng.uniform(costs[0], sum(costs)))


def shuffled(rng: random.Random, instance: CoverageInstance) -> CoverageInstance:
    """The same instance with every dict and set filled in a shuffled order."""
    def mixed(items):
        items = list(items)
        rng.shuffle(items)
        return items

    return CoverageInstance(
        universe=frozenset(mixed(instance.universe)),
        candidates={c: frozenset(mixed(instance.candidates[c])) for c in mixed(instance.candidates)},
        cost={c: instance.cost[c] for c in mixed(instance.cost)},
        weight={a: instance.weight[a] for a in mixed(instance.weight)},
    )


class TestCoverageInstance:
    def test_subset_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            CoverageInstance(
                universe=frozenset({1}),
                candidates={"X1": frozenset({1, 2})},
                cost={"X1": 1.0},
                weight={1: 1.0},
            )

    def test_missing_cost_rejected(self):
        with pytest.raises(ValueError):
            CoverageInstance(
                universe=frozenset({1}),
                candidates={"X1": frozenset({1})},
                cost={},
                weight={1: 1.0},
            )

    def test_missing_weight_rejected(self):
        with pytest.raises(ValueError):
            CoverageInstance(
                universe=frozenset({1}),
                candidates={"X1": frozenset({1})},
                cost={"X1": 1.0},
                weight={},
            )

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValueError):
            instance_of({"X1": {1}}, cost={"X1": 0.0})

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf")])
    def test_weight_not_finite_and_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="^weights must be finite and positive$"):
            instance_of({"X1": {1, 2}}, weight={1: 1.0, 2: bad})

    def test_weights_with_an_overflowing_sum_rejected(self):
        with pytest.raises(ValueError, match="^weights must have a finite sum$"):
            instance_of({"X1": {1, 2}}, weight={1: 1e308, 2: 1e308})


class TestBuildInstance:
    def test_g0_all_targets(self, g0):
        instance = build_instance(g0, [1, 2, 3, 4])
        assert instance.universe == {1, 2, 3, 4}
        assert instance.candidates == {
            "X1": frozenset({1, 2, 3}),
            "X2": frozenset({2, 3, 4}),
            "X3": frozenset({1}),
        }
        assert all(c == 1.0 for c in instance.cost.values())
        assert all(w == 1.0 for w in instance.weight.values())

    def test_empty_targets(self, g0):
        instance = build_instance(g0, [])
        assert instance.universe == frozenset()
        assert instance.candidates == {}

    def test_single_target(self, g0):
        instance = build_instance(g0, [4])
        assert instance.candidates == {"X2": frozenset({4})}

    def test_unknown_target_lists_missing(self, g0):
        with pytest.raises(UnknownTarget) as info:
            build_instance(g0, [1, 99, 42])
        assert "42" in str(info.value) and "99" in str(info.value)

    def test_explicit_costs_and_weights(self, g0):
        instance = build_instance(g0, [1, 4], costs={"X2": 5.0}, weights={4: 2.0})
        assert instance.cost["X2"] == 5.0
        assert instance.cost["X1"] == 1.0
        assert instance.weight == {1: 1.0, 4: 2.0}


class TestGreedySetCover:
    def test_g0_hand_run(self, g0):
        solution = greedy_set_cover(build_instance(g0, [1, 2, 3, 4]))
        assert solution.chosen == ("X1", "X2")
        assert solution.total_cost == 2.0
        assert solution.covered == {1, 2, 3, 4}

    def test_single_candidate(self):
        solution = greedy_set_cover(instance_of({"X1": {1, 2, 3}}))
        assert solution.chosen == ("X1",)

    def test_uncoverable_residue(self):
        instance = CoverageInstance(
            universe=frozenset({1, 2, 9}),
            candidates={"X1": frozenset({1, 2})},
            cost={"X1": 1.0},
            weight={1: 1.0, 2: 1.0, 9: 1.0},
        )
        with pytest.raises(Uncoverable) as info:
            greedy_set_cover(instance)
        assert info.value.residue == {9}
        assert "9" in str(info.value)

    def test_cost_effectiveness_pick(self):
        # X2 covers less but is far cheaper per element.
        instance = instance_of(
            {"X1": {1, 2, 3}, "X2": {1, 2}},
            cost={"X1": 9.0, "X2": 1.0},
        )
        solution = greedy_set_cover(instance)
        assert solution.chosen[0] == "X2"

    def test_tie_breaks_by_weight_then_id(self):
        instance = instance_of({"X2": {1, 2}, "X1": {1, 2}, "X0": {1}})
        # Same ratio for X1/X2 at step one; X0 loses on newly covered
        # weight; X1 beats X2 lexicographically.
        assert greedy_set_cover(instance).chosen == ("X1",)

    def test_empty_universe(self):
        solution = greedy_set_cover(instance_of({}))
        assert solution.chosen == ()
        assert solution.total_cost == 0.0 and type(solution.total_cost) is float

    def test_covers_universe_when_coverable(self):
        rng = random.Random(5)
        for _ in range(20):
            instance = random_instance(rng)
            assert greedy_set_cover(instance).covered == instance.universe


class TestBudgetedMaxCoverage:
    def test_g0_budget_one(self, g0):
        solution = budgeted_max_coverage(build_instance(g0, [1, 2, 3, 4]), 1.0)
        assert solution.chosen == ("X1",)
        assert solution.total_weight == 3.0

    def test_non_binding_budget_covers_union(self, g0):
        instance = build_instance(g0, [1, 2, 3, 4])
        solution = budgeted_max_coverage(instance, 100.0)
        assert solution.covered == instance.universe

    def test_budget_below_any_cost(self, g0):
        solution = budgeted_max_coverage(build_instance(g0, [1, 2, 3, 4]), 0.5)
        assert solution.chosen == ()
        assert solution.total_weight == 0.0

    def test_nonpositive_budget_rejected(self, g0):
        with pytest.raises(ValueError):
            budgeted_max_coverage(build_instance(g0, [1]), 0.0)

    def test_single_set_branch_beats_ratio_greedy(self):
        # The ratio greedy grabs the cheap high-ratio set and can no longer
        # afford the heavy one; the single-candidate branch must win.
        instance = instance_of(
            {"A": {1}, "B": {2, 3, 4, 5}},
            cost={"A": 1.0, "B": 10.0},
            weight={1: 6.0, 2: 2.0, 3: 2.0, 4: 2.0, 5: 2.0},
        )
        solution = budgeted_max_coverage(instance, 10.0)
        assert solution.chosen == ("B",)
        assert solution.total_weight == 8.0

    def test_budget_respected(self):
        rng = random.Random(6)
        for _ in range(20):
            instance = random_instance(rng)
            budget = rng.uniform(0.5, 6.0)
            assert budgeted_max_coverage(instance, budget).total_cost <= budget + 1e-9

    def test_float_costs_summing_past_budget(self):
        # 0.1 + 0.2 + 0.3 as binary floats sum to just over 0.6.
        instance = instance_of({"A": {1}, "B": {2}, "C": {3}},
                               cost={"A": 0.1, "B": 0.2, "C": 0.3})
        assert sum(map(Fraction, (0.1, 0.2, 0.3))) > Fraction(0.6)
        assert budgeted_max_coverage(instance, 0.6).chosen == ("A", "B")

    def test_exact_cost_sum_within_budget(self):
        # Decimal costs and budgets, whose float sums round either way.
        rng = random.Random(52)
        for _ in range(1000):
            instance = random_instance(rng)
            cost = {c: rng.randint(1, 30) / 10 for c in instance.candidates}
            instance = CoverageInstance(instance.universe, instance.candidates, cost, instance.weight)
            budget = rng.randint(1, 60) / 10
            chosen = budgeted_max_coverage(instance, budget).chosen
            assert sum(Fraction(cost[c]) for c in chosen) <= Fraction(budget)

    def test_costs_near_float_maximum(self):
        top = sys.float_info.max
        instance = instance_of({"A": {1}, "B": {2}, "C": {3}},
                               cost={"A": top / 2, "B": top / 2, "C": top})
        for budget in (top, top / 2, top * 0.75):
            solution = budgeted_max_coverage(instance, budget)
            assert sum(Fraction(instance.cost[c]) for c in solution.chosen) <= Fraction(budget)
        assert budgeted_max_coverage(instance, top).chosen == ("A", "B")


class TestExhaustiveOracle:
    def test_g0_cover_optimum(self, g0):
        solution = exhaustive_cover_oracle(build_instance(g0, [1, 2, 3, 4]))
        assert solution.total_cost == 2.0
        assert solution.chosen == ("X1", "X2")

    def test_g0_budget_optimum(self, g0):
        solution = exhaustive_cover_oracle(build_instance(g0, [1, 2, 3, 4]), budget=1.0)
        assert solution.total_weight == 3.0

    def test_empty_universe(self):
        solution = exhaustive_cover_oracle(instance_of({}))
        assert solution.chosen == () and solution.total_cost == 0.0

    def test_uncoverable(self):
        instance = CoverageInstance(
            universe=frozenset({1, 2}),
            candidates={"X1": frozenset({1})},
            cost={"X1": 1.0},
            weight={1: 1.0, 2: 1.0},
        )
        with pytest.raises(Uncoverable):
            exhaustive_cover_oracle(instance)

    def test_greedy_never_beats_oracle(self):
        rng = random.Random(77)
        for _ in range(15):
            instance = random_instance(rng, max_candidates=8)
            greedy = greedy_set_cover(instance)
            oracle = exhaustive_cover_oracle(instance)
            assert oracle.total_cost <= greedy.total_cost + 1e-9
            assert greedy.total_cost <= harmonic(len(instance.universe)) * oracle.total_cost + 1e-9


class TestDeterminism:
    def test_double_run_equality(self):
        rng = random.Random(123)
        for _ in range(10):
            instance = random_instance(rng)
            assert greedy_set_cover(instance) == greedy_set_cover(instance)
            assert (budgeted_max_coverage(instance, 3.0)
                    == budgeted_max_coverage(instance, 3.0))


class TestAgainstScanOracle:
    def test_equals_full_scan_on_near_ties(self):
        rng = random.Random(22)
        for _ in range(1200):
            instance = tied_instance(rng)
            assert greedy_set_cover(instance) == scan_greedy(instance)
            for budget in tied_budgets(rng, instance):
                assert budgeted_max_coverage(instance, budget) == scan_greedy(instance, budget)

    def test_equals_full_scan_when_ratios_overflow(self):
        # Weight over cost past the float range: budget keys tie at -inf and
        # fall to the newly covered weight.
        rng = random.Random(24)
        for _ in range(300):
            candidates = {f"X{i}": {a for a in range(1, 9) if rng.random() < 0.4} or {1}
                          for i in range(rng.randint(1, 6))}
            cost = {c: rng.choice((1e-300, 2e-300, 1e-10, 1.0)) for c in candidates}
            weight = {a: rng.choice((1e300, 1e299, 5.0)) for a in range(1, 9)}
            instance = instance_of(candidates, cost, weight)
            assert greedy_set_cover(instance) == scan_greedy(instance)
            for budget in (1e-300, 1e-10, 1.0, 3.0):
                assert budgeted_max_coverage(instance, budget) == scan_greedy(instance, budget)

    def test_solution_does_not_depend_on_build_order(self):
        rng = random.Random(23)
        for _ in range(1000):
            instance = tied_instance(rng)
            again = shuffled(rng, instance)
            assert greedy_set_cover(again) == greedy_set_cover(instance)
            for budget in tied_budgets(rng, instance):
                assert budgeted_max_coverage(again, budget) == budgeted_max_coverage(instance, budget)


class TestRankTunnels:
    def test_g0_a1(self, g0):
        assert rank_tunnels(g0, 1) == [(2, 1), (3, 1)]

    def test_g0_a4(self, g0):
        assert rank_tunnels(g0, 4) == [(2, 1), (3, 1)]

    def test_no_colocated_partners(self):
        graph = build_graph(
            [IxpNode("X1", ["X1"]), IxpNode("X2", ["X2"])],
            [AsNode(1), AsNode(2)],
            [MembershipEdge("X1", 1), MembershipEdge("X2", 2)],
        )
        assert rank_tunnels(graph, 1) == []

    def test_unknown_as(self, g0):
        with pytest.raises(UnknownNode):
            rank_tunnels(g0, 99)

    def test_matches_pairwise_gains(self, g0):
        for a in g0.ases:
            for b, gain in rank_tunnels(g0, a):
                assert gain == bf_gain(g0, a, b)

    def test_matches_oracle_on_random_graphs(self):
        for graph in gain_test_graphs():
            for a in graph.ases:
                partners = {b for x, b in graph.edges if (x, a) in graph.edges} - {a}
                expected = sorted(((b, bf_gain(graph, a, b)) for b in partners),
                                  key=lambda bg: (-bg[1], bg[0]))
                assert rank_tunnels(graph, a) == expected

    def test_sorted_by_gain_then_asn(self):
        graph = build_graph(
            [IxpNode(x, [x]) for x in ("X1", "X2", "X3")],
            [AsNode(a) for a in (1, 2, 3, 4, 5)],
            [
                MembershipEdge("X1", 1),
                MembershipEdge("X1", 2),
                MembershipEdge("X1", 3),
                MembershipEdge("X2", 2),
                MembershipEdge("X2", 4),
                MembershipEdge("X3", 3),
                MembershipEdge("X3", 4),
                MembershipEdge("X3", 5),
            ],
        )
        ranked = rank_tunnels(graph, 1)
        # AS3 opens X3 with two new ASes, AS2 opens X2 with one.
        assert ranked == [(3, 2), (2, 1)]
        gains = [g for _, g in ranked]
        assert gains == sorted(gains, reverse=True)


class TestSiteSelectionScore:
    def locate(self, graph, mapping):
        located = {x: graph.ixps[x]._replace(location=Location(*place))
                   for x, place in mapping.items()}
        return BipartiteGraph(ixps={**graph.ixps, **located}, ases=graph.ases, edges=graph.edges)

    def test_x3_only_location(self, g0):
        graph = self.locate(g0, {
            "X1": ("DE", "Frankfurt"),
            "X2": ("DE", "Frankfurt"),
            "X3": ("GR", "Athens"),
        })
        # A1 is the only AS at X3 and has degree 2.
        assert site_selection_score(graph, ("GR", "Athens")) == pytest.approx(1 / 3)

    def test_unknown_location_scores_zero(self, g0):
        graph = self.locate(g0, {"X1": ("DE", "Frankfurt")})
        assert site_selection_score(graph, ("US", "Ashburn")) == 0.0

    def test_two_degree_one_ases(self):
        graph = build_graph(
            [IxpNode("X1", ["X1"], location=Location("US", "Ashburn"))],
            [AsNode(1), AsNode(2)],
            [MembershipEdge("X1", 1), MembershipEdge("X1", 2)],
        )
        assert site_selection_score(graph, ("US", "Ashburn")) == pytest.approx(1.0)

    def test_case_insensitive_match(self, g0):
        graph = self.locate(g0, {"X3": ("gr", "ATHENS")})
        assert site_selection_score(graph, ("GR", "athens")) == pytest.approx(1 / 3)

    def test_no_location_data(self, g0):
        with pytest.raises(NoLocationData):
            site_selection_score(g0, ("DE", "Frankfurt"))

    def test_explicit_location_map(self, g0):
        graph = self.locate(g0, {"X2": ("DE", "Frankfurt")})
        # X2 members: A2 (degree 2), A3 (degree 2), A4 (degree 1).
        assert site_selection_score(graph, ("DE", "Frankfurt")) == pytest.approx(1 / 3 + 1 / 3 + 1 / 2)
