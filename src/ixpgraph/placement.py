"""IXP selection and placement as coverage optimization.

Middlebox deployment, remote-peering reseller choice, and new-site
selection all reduce to picking IXPs that cover target ASes. The solvers
here are the classic deterministic greedy approximations.
"""

from __future__ import annotations

import heapq
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
        try:  # then every subset sum the solvers take is finite too
            math.fsum(weight.values())
        except OverflowError:
            raise ValueError("weights must have a finite sum") from None
        return tuple.__new__(cls, (universe, candidates, cost, weight))


class PlacementSolution(NamedTuple):
    chosen: tuple[str, ...]
    covered: frozenset[int]
    total_cost: float
    total_weight: float


def _solution(instance: CoverageInstance, chosen: list[str], covered) -> PlacementSolution:
    return PlacementSolution(
        chosen=tuple(chosen),
        covered=frozenset(covered),
        total_cost=sum((instance.cost[c] for c in chosen), 0.0),
        total_weight=math.fsum(instance.weight[a] for a in covered),
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
    """Lazy greedy (Minoux 1978; CELF): picks, round after round, the
    affordable candidate that adds weight with the least key
    ``(ratio(cost, new_weight), -new_weight, ixp_id)``, until none adds any.
    An fsum never grows as the set shrinks, so a stale heap key is a lower
    bound and a popped candidate whose fresh key still leads is the full
    scan's pick. A candidate is affordable while the exact sum of the chosen
    costs and its own is within the budget; a correctly rounded fsum has
    the exact sum's sign. Adding nothing or being unaffordable is final, so
    such a candidate is dropped for good."""
    chosen = []
    covered: set[int] = set()
    # Every candidate enters below any computed key (whose -new_weight is
    # finite), so each is keyed once against the empty cover before a pick.
    heap = [(-math.inf, -math.inf, ixp_id) for ixp_id in sorted(instance.candidates)]
    while heap:
        ixp_id = heapq.heappop(heap)[2]
        new = instance.candidates[ixp_id] - covered
        cost = instance.cost[ixp_id]
        if not new or budget < math.inf and math.fsum(
                [-budget, *map(instance.cost.__getitem__, chosen), cost]) > 0:
            continue
        new_weight = math.fsum(instance.weight[a] for a in new)
        key = (ratio(cost, new_weight), -new_weight, ixp_id)
        if heap and heap[0] < key:
            heapq.heappush(heap, key)
            continue
        chosen.append(ixp_id)
        covered |= new
    return _solution(instance, chosen, covered)


def greedy_set_cover(instance: CoverageInstance) -> PlacementSolution:
    """Cost-effectiveness greedy cover of the whole universe.

    Each round picks the candidate minimizing cost per newly covered
    weight; ties go to the larger newly covered weight, then to the
    lexicographically smallest ixp_id, making the pick order total.
    """
    solution = _greedy(instance, lambda cost, new_weight: cost / new_weight, math.inf)
    residue = instance.universe - solution.covered
    if residue:
        raise Uncoverable(residue)
    if math.isinf(solution.total_cost):  # finite costs, but too many of them
        raise ValueError("costs of the chosen IXPs must have a finite sum")
    return solution


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

    singles = (_solution(instance, [c], s) for c, s in sorted(instance.candidates.items())
               if instance.cost[c] <= budget)
    single = max(singles, key=lambda s: s.total_weight, default=greedy)
    return single if single.total_weight > greedy.total_weight else greedy


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
