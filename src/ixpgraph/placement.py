"""IXP selection and placement as coverage optimization.

Middlebox deployment, remote-peering reseller choice, and new-site
selection all reduce to picking IXPs that cover target ASes. The solvers
here are the classic deterministic greedy approximations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

from .errors import NoLocationData, Uncoverable, UnknownNode, UnknownTarget
from .model import BipartiteGraph, NodeClass
from .projection import bits, index


class CoverageInstance(namedtuple("CoverageInstance", "universe candidates cost weight")):
    """A coverage problem: target ASes, candidate IXPs with the subset each
    covers, per-IXP deployment costs, and per-AS customer weights."""

    __slots__ = ()

    def __new__(cls, universe: frozenset[int], candidates: dict[str, frozenset[int]],
                cost: dict[str, float], weight: dict[int, float]):
        for ixp_id, subset in candidates.items():
            if not subset <= universe:
                raise ValueError(f"candidate {ixp_id!r} covers non-universe elements")
            if ixp_id not in cost:
                raise ValueError(f"candidate {ixp_id!r} has no cost")
        for asn in universe:
            if asn not in weight:
                raise ValueError(f"universe element {asn} has no weight")
        if not all(0 < c < math.inf for c in cost.values()):
            raise ValueError("costs must be finite and positive")
        if not all(0 < w < math.inf for w in weight.values()):
            raise ValueError("weights must be finite and positive")
        return tuple.__new__(cls, (universe, candidates, cost, weight))


class PlacementSolution(NamedTuple):
    chosen: tuple[str, ...]
    covered: frozenset[int]
    total_cost: float
    total_weight: float


def _solution(instance: CoverageInstance, chosen: Iterable[str]) -> PlacementSolution:
    chosen = tuple(chosen)
    covered = frozenset().union(*(instance.candidates[c] for c in chosen)) if chosen else frozenset()
    return PlacementSolution(
        chosen=chosen,
        covered=covered,
        total_cost=sum(instance.cost[c] for c in chosen),
        total_weight=sum(instance.weight[a] for a in covered),
    )


def build_instance(
    graph: BipartiteGraph,
    targets: Iterable[int],
    costs: Mapping[str, float] | None = None,
    weights: Mapping[int, float] | None = None,
) -> CoverageInstance:
    """Coverage instance over a graph: candidates are the IXPs hosting at
    least one target; absent costs and weights default to 1.0."""
    universe = frozenset(targets)
    missing = sorted(a for a in universe if a not in graph.ases)
    if missing:
        raise UnknownTarget(f"targets not in graph: {', '.join(map(str, missing))}")
    costs = dict(costs or {})
    weights = dict(weights or {})
    candidates = {}
    for ixp_id in graph.ixps:
        covered = frozenset(graph.members(ixp_id) & universe)
        if covered:
            candidates[ixp_id] = covered
    return CoverageInstance(
        universe=universe,
        candidates=candidates,
        cost={c: float(costs.get(c, 1.0)) for c in candidates},
        weight={a: float(weights.get(a, 1.0)) for a in universe},
    )


def _greedy(instance: CoverageInstance, ratio, budget: float) -> PlacementSolution:
    """Picks, round after round, the affordable candidate that adds weight
    with the least key ``(ratio(cost, new_weight), -new_weight, ixp_id)``,
    until no candidate left within the budget adds any. A chosen
    candidate adds no weight, so it is never picked twice."""
    chosen = []
    covered: set[int] = set()
    remaining = budget
    while True:
        best = None
        best_key = None
        for ixp_id, subset in instance.candidates.items():
            if instance.cost[ixp_id] > remaining:
                continue
            new_weight = sum(instance.weight[a] for a in subset - covered)
            if new_weight <= 0:
                continue
            key = (ratio(instance.cost[ixp_id], new_weight), -new_weight, ixp_id)
            if best_key is None or key < best_key:
                best, best_key = ixp_id, key
        if best is None:
            return _solution(instance, chosen)
        chosen.append(best)
        covered |= instance.candidates[best]
        remaining -= instance.cost[best]


def greedy_set_cover(instance: CoverageInstance) -> PlacementSolution:
    """Cost-effectiveness greedy cover of the whole universe.

    Each round picks the candidate minimizing cost per newly covered
    weight; ties go to the larger newly covered weight, then to the
    lexicographically smallest ixp_id, making the pick order total.
    """
    coverable = frozenset().union(*instance.candidates.values()) if instance.candidates else frozenset()
    residue = instance.universe - coverable
    if residue:
        raise Uncoverable(residue)

    return _greedy(instance, lambda cost, new_weight: cost / new_weight, math.inf)


def budgeted_max_coverage(instance: CoverageInstance, budget: float) -> PlacementSolution:
    """Maximize covered weight without exceeding the budget.

    Runs the weight-per-cost greedy under the budget and separately
    considers the single affordable candidate of maximum weight, returning
    the heavier of the two (the standard (1 - 1/e)/2 approximation
    scheme). A budget too small for any candidate yields an empty
    solution.
    """
    if not 0 < budget < math.inf:
        raise ValueError("budget must be finite and positive")

    greedy = _greedy(instance, lambda cost, new_weight: -new_weight / cost, budget)

    singles = [
        ixp_id for ixp_id in instance.candidates if instance.cost[ixp_id] <= budget
    ]
    if singles:
        best_single = min(
            singles,
            key=lambda c: (-sum(instance.weight[a] for a in instance.candidates[c]), c),
        )
        single = _solution(instance, [best_single])
        if single.total_weight > greedy.total_weight:
            return single
    return greedy


def rank_tunnels(graph: BipartiteGraph, asn: int) -> list[tuple[int, int]]:
    """Remote-peering resellers for an AS, best first.

    Every AS co-located with ``asn`` at one or more IXPs is a potential
    tunnel; each is scored by its remote-peering gain and the list is
    sorted by descending gain, then ascending ASN.
    """
    if asn not in graph.ases:
        raise UnknownNode(f"unknown AS {asn}")
    asns, _, reach = index(graph, NodeClass.AS)
    i = asns.index(asn)
    missing = ~reach[i]  # a partner's gain: the ASes it meets that asn does not
    gains = [(asns[j], (reach[j] & missing).bit_count()) for j in bits(reach[i] & ~(1 << i))]
    return sorted(gains, key=lambda bg: (-bg[1], bg[0]))


def site_selection_score(graph: BipartiteGraph, location: tuple[str, str]) -> float:
    """Attractiveness of a location for a new IXP site.

    An AS is attributed to the location when it has a membership at any
    IXP there (matched on country and city, case-insensitively). Each
    attributed AS contributes 1 / (1 + degree), so a location scores high
    when it hosts many ASes that are still poorly connected elsewhere.
    """
    def norm(loc: tuple[str, str]) -> tuple[str, str]:
        return (loc[0].casefold(), loc[1].casefold())

    ixp_locations = {
        ixp_id: (node.location.country, node.location.city)
        for ixp_id, node in graph.ixps.items()
        if node.location is not None
    }
    if not ixp_locations:
        raise NoLocationData("no IXP has location data")

    target = norm(location)
    local_ixps = [i for i, loc in ixp_locations.items() if norm(loc) == target]
    attributed: set[int] = set()
    for ixp_id in local_ixps:
        attributed |= graph.members(ixp_id)
    return float(sum(1.0 / (1.0 + len(graph.memberships(a))) for a in sorted(attributed)))
