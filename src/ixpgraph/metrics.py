"""Topological metrics over the bipartite graph and its projections.

Covers degree distributions, per-IXP member-type composition, AS-type
shares by degree threshold, IXPs crossed by AS-to-AS shortest paths,
projection edge-multiplicity histograms, remote-peering gains, the
degree-vs-prefix correlation, and generic centrality/clustering metrics.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import reduce
from itertools import compress
from math import fsum, inf, isfinite, lcm, sqrt
from operator import or_, sub
from typing import Iterable, NamedTuple

from .model import AsType, BipartiteGraph, IxpGraphError, NodeClass
from .projection import BIT_FLAGS, bits, counter_add, index


class Distribution(NamedTuple):
    """A histogram: (value, count) pairs in increasing value order, no count
    zero, plus the population total, their sum."""

    values: tuple[tuple[float, int], ...]
    total: int

    @classmethod
    def from_counts(cls, counts: dict) -> "Distribution":
        items = tuple(sorted((v, c) for v, c in counts.items() if c))
        return cls(values=items, total=sum(c for _, c in items))


class TypeFractions(NamedTuple):
    content: float
    enterprise: float
    isp: float


def degree_distribution(graph: BipartiteGraph, node_class: NodeClass) -> Distribution:
    """Degree histogram over one vertex class of the bipartite graph."""
    if node_class is NodeClass.IXP:
        degrees = [len(graph.members(i)) for i in graph.ixps]
    else:
        degrees = [len(graph.memberships(a)) for a in graph.ases]
    return Distribution.from_counts(Counter(degrees))


_TYPED = (AsType.CONTENT, AsType.ENTERPRISE, AsType.ISP)  # in TypeFractions' order


def _type_fractions(graph: BipartiteGraph, asns) -> TypeFractions:
    """Content, enterprise and ISP shares among ``asns``; 0.0 each if empty."""
    counts = Counter(graph.ases[a].as_type for a in asns)
    total = len(asns)
    return TypeFractions(*(counts[t] / total if total else 0.0 for t in _TYPED))


def member_type_fractions(graph: BipartiteGraph) -> dict[str, TypeFractions]:
    """Per-IXP fractions of members that are content, enterprise, or ISP ASes.

    Unknown-typed members count toward the denominator only, so the three
    fractions may sum to less than one.
    """
    return {x: _type_fractions(graph, graph.members(x)) for x in graph.ixps}


def type_fraction_distribution(graph: BipartiteGraph, as_type: AsType) -> Distribution:
    """Distribution over IXPs of the member fraction of one AS type, one of
    the three that ``TypeFractions`` holds."""
    if as_type not in _TYPED:
        raise ValueError(f"as_type must be one of {', '.join(t.value for t in _TYPED)}, "
                         f"got {as_type!r}")
    column = _TYPED.index(as_type)
    return Distribution.from_counts(
        Counter(f[column] for f in member_type_fractions(graph).values()))


def type_share_by_degree(graph: BipartiteGraph,
                         thresholds: Iterable[int]) -> tuple[TypeFractions, ...]:
    """AS-type shares among the ASes above each degree threshold, one
    ``TypeFractions`` per threshold, in the order given.

    Threshold 0 uses every AS regardless of degree; threshold t > 0
    restricts to ASes with degree > t. Shares are typed-count / subset
    size, with Unknown excluded from numerators.
    """
    return tuple(
        _type_fractions(graph, graph.ases if t == 0 else
                        [a for a in graph.ases if len(graph.memberships(a)) > t])
        for t in thresholds)


def shortest_path_ixp_counts(
    graph: BipartiteGraph,
    sample_size: int | None = None,
    seed: int = 42,
) -> Distribution:
    """Distribution of the number of IXPs crossed by AS-to-AS shortest paths.

    By default every unordered AS pair is enumerated exactly. With
    ``sample_size`` set, only a seeded uniform sample of source ASes is
    searched and each unordered pair touching the sample is tallied once;
    a sample covering all ASes reproduces the full enumeration exactly.

    On the AS-class masks of ``projection.index``, each IXP x gets its
    rings: ring k-1 holds the ASes reachable crossing at most k IXPs, the
    first being x. Ring 0 is x's members, ring 1 the OR of their reach masks,
    and each deeper ring adds the members of the IXPs one step further out
    in IXP space. Sources with one reach mask share one walk: the ASes
    within k IXPs of a source are the OR of its IXPs' rings k-1, a target
    first reached at level k crosses k IXPs, and each level's new ASes are
    counted with a popcount scaled by the class size. A target inside the
    sample is also a source and counts half from each end; one outside
    counts once. Raises ``IxpGraphError`` if some AS is unreachable from a source.
    """
    if sample_size is not None and sample_size <= 0:
        raise ValueError("sample_size must be positive")
    asns, members, reach = index(graph, NodeClass.AS)
    n_as = len(asns)
    if sample_size is None or sample_size >= n_as:
        sources = range(n_as)
    else:
        sources = random.Random(seed).sample(range(n_as), sample_size)

    outside = everyone = (1 << n_as) - 1
    classes: dict[int, list[int]] = {}
    for s in sources:
        outside ^= 1 << s
        entry = classes.setdefault(reach[s], [0, asns[s]])
        entry[0] += 1

    # IXP space, on the IXP index: near[k] is the ball of radius 1 around
    # IXP k, every IXP sharing a member with it. A member-less IXP's ball is
    # 0, not its own bit, so that ``full`` holds only IXPs with a member.
    ixps, _, near = index(graph, NodeClass.IXP)
    member_masks = [members[x] for x in ixps]
    near = [r if m else 0 for r, m in zip(near, member_masks)]
    full = reduce(or_, near, 0)  # every IXP with a member
    union = reduce(or_, member_masks, 0)  # every AS at some IXP
    reach_of = dict(zip(asns, reach))
    # rings[x][k-1]: the ASes within k IXPs of IXP x, up to the first ring
    # that holds every AS x ever reaches; a deeper ring equals the last.
    rings: dict[str, list[int]] = {}
    for k, x in enumerate(ixps):
        if not member_masks[k]:
            continue
        ring = [member_masks[k], reduce(or_, map(reach_of.__getitem__, graph.members(x)))]
        ball = frontier = near[k]
        while ring[-1] != union:
            frontier = reduce(or_, map(near.__getitem__, bits(frontier)), 0) & ~ball
            if not frontier:
                break
            ball |= frontier
            ring.append(union if ball == full else
                        reduce(or_, map(member_masks.__getitem__, bits(frontier)), ring[-1]))
        rings[x] = ring

    # Counted doubled so that a half-weight target stays an integer.
    doubled: Counter = Counter()
    for new, (size, asn) in classes.items():
        own = [rings[x] for x in graph.memberships(asn)]
        reached = crossed = 0
        while new:
            crossed += 1
            reached |= new
            doubled[crossed] += size * (new.bit_count() + (new & outside).bit_count())
            # A ring past its last is already in ``reached``.
            new = reduce(or_, [r[crossed] for r in own if crossed < len(r)], 0) & ~reached
        if reached != everyone:
            raise IxpGraphError(f"{n_as - reached.bit_count()} AS nodes unreachable from AS {asn}")
        doubled[1] -= size  # each source reaches itself through its own IXPs
    return Distribution.from_counts({k: c // 2 for k, c in doubled.items()})


def multiplicity_distribution(graph: BipartiteGraph, node_class: NodeClass) -> Distribution:
    """Edge-multiplicity histogram of the projection onto ``node_class`` over
    all unordered node pairs of the class, multiplicity-0 pairs included.

    Each node adds its neighbours' member masks into one bit-sliced counter
    (``projection.counter_add``), whose planes spell each partner's
    multiplicity. Splitting the partners by plane bits, from the top plane
    down, gives (multiplicity, mask) groups, each tallied by a popcount.
    Every pair is counted from both ends and the tallies are halved."""
    nodes, masks, _ = index(graph, node_class)
    neighbours = graph.members if node_class is NodeClass.IXP else graph.memberships
    doubled: Counter = Counter()
    for i, v in enumerate(nodes):
        planes: list[int] = []
        for o in neighbours(v):
            counter_add(planes, masks[o])
        groups = [(0, reduce(or_, planes, 0) & ~(1 << i))]
        for k in range(len(planes) - 1, -1, -1):
            split = []
            for m, group in groups:
                if high := group & planes[k]:
                    split.append((m | 1 << k, high))
                if low := group ^ high:
                    split.append((m, low))
            groups = split
        for m, group in groups:
            doubled[m] += group.bit_count()
    doubled[0] = len(nodes) * (len(nodes) - 1) - sum(doubled.values())
    return Distribution.from_counts({m: c // 2 for m, c in doubled.items()})


def remote_peering_gain_cdf(graph: BipartiteGraph) -> Distribution:
    """Gain distribution over all ordered co-located AS pairs.

    On the AS reach masks R, the gain of i through j is the ASes j meets
    that i does not, |R_j| - |R_i & R_j|. The intersection is symmetric, so
    one AND and popcount per unordered pair i < j gives both gains."""
    _, _, reach = index(graph, NodeClass.AS)
    size = [r.bit_count() for r in reach]
    tally: Counter = Counter()
    for i, r in enumerate(reach):
        js = bits(r, i + 1)
        common = list(map(int.bit_count, map(r.__and__, map(reach.__getitem__, js))))
        tally.update(map(sub, map(size.__getitem__, js), common))
        tally.update(map(size[i].__sub__, common))
    return Distribution.from_counts(tally)


def degree_prefix_correlation(graph: BipartiteGraph) -> float:
    """Pearson correlation between AS degree and announced-prefix count,
    over the ASes whose prefix count is known. The formula is the one
    ``statistics.correlation`` uses in Python 3.10 and 3.11, on correctly
    rounded ``fsum`` totals, so every interpreter gives the same bytes."""
    points = [
        (len(graph.memberships(a)), node.prefix_count)
        for a, node in graph.ases.items()
        if node.prefix_count is not None
    ]
    n = len(points)
    if n < 2:
        raise IxpGraphError(f"need at least 2 ASes with prefix data, have {n}")
    try:
        xs, ys = [float(x) for x, _ in points], [float(y) for _, y in points]
        xbar, ybar = fsum(xs) / n, fsum(ys) / n
        sxy = fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        spread = sqrt(fsum((d := x - xbar) * d for x in xs) * fsum((d := y - ybar) * d for y in ys))
    except (OverflowError, ValueError):  # past the float range; fsum of inf and -inf
        spread = inf
    if not isfinite(spread):
        raise IxpGraphError("prefix counts too large to correlate in floating point")
    if not spread:
        raise IxpGraphError("at least one of the inputs is constant")
    return sxy / spread


def _far_pass(nb: list[int], sources: list[int]) -> tuple[list[int], int]:
    """Brandes' dependencies (2001) on the targets at BFS level 3 or more, per
    source on exact path counts σ: D(w) = [level(w) >= 3] / σ_w + Σ_succ D, and
    v gains σ_v Σ_succ D. Every D is an integer count of 1 / L, L the lcm of
    the σ of every far target so far, and the totals are rescaled as L grows.
    Returns the totals, in units of 1 / L, and L."""
    total, scale = [0] * len(nb), 1
    for s in sources:
        sigma = [0] * len(nb)
        sigma[s] = 1
        seen = 1 << s
        levels = [(seen, [s])]
        while new := reduce(or_, map(nb.__getitem__, levels[-1][1])) & ~seen:
            groups: dict[int, int] = {}
            for v in levels[-1][1]:
                groups[sigma[v]] = groups.get(sigma[v], 0) | 1 << v
            level = bits(new)
            for w in level:
                sigma[w] = sum(c * (nb[w] & m).bit_count() for c, m in groups.items())
            seen |= new
            levels.append((new, level))
        if len(levels) < 4:
            continue  # no target at level 3 or more
        grown = lcm(scale, *{sigma[w] for _, level in levels[3:] for w in level})
        if grown != scale:
            total, scale = [t * (grown // scale) for t in total], grown
        dep = [0] * len(nb)
        below = 0
        for d in range(len(levels) - 1, 0, -1):
            mask, level = levels[d]
            for w in level:
                # bits()' walk inline, picking dep itself: sum of D over w's successors.
                succ = sum(compress(dep, bin(nb[w] & below)[:1:-1].encode().translate(BIT_FLAGS)))
                total[w] += sigma[w] * succ
                dep[w] = succ + scale // sigma[w] if d >= 3 else succ
            below = mask
    return total, scale


def betweenness_centrality(graph: BipartiteGraph, node_class: NodeClass) -> dict:
    """Normalized betweenness centrality on the simple projection onto
    ``node_class``: X(v) / ((n-1)(n-2)), with X(v) the sum of σ_st(v) / σ_st
    over ordered pairs s != v != t, computed exactly and rounded once. It is
    within a few ulp of networkx's float sums, not always equal to them.

    A pair at distance 2 has one shortest path through each of its
    c = |N(s) & N(t)| common neighbours: its common mask goes into a
    bit-sliced counter for c, and v's part is 2 Σ_c count_c(v) (L // c) / L,
    with L the lcm of the c's. Pairs further apart come from ``_far_pass``,
    run only from sources whose BFS reaches level 3, in units of its own
    common multiple; the two parts meet over the product of both multiples.
    """
    nodes, _, reach = index(graph, node_class)
    n = len(nodes)
    nb = [r & ~(1 << i) for i, r in enumerate(reach)]
    full, far = (1 << n) - 1, 0  # far: sources of a pair with no common neighbour
    counters: dict[int, list[int]] = {}
    for s, mask in enumerate(nb):
        for t in bits(full ^ reach[s], s + 1):  # t > s, not adjacent
            if common := mask & nb[t]:
                counter_add(counters.setdefault(common.bit_count(), []), common)
            else:  # at distance 3 or more, or apart
                far |= 1 << s | 1 << t
    multiple = lcm(*counters)
    near = [0] * n
    for c, planes in counters.items():
        for k, plane in enumerate(planes):
            weight = multiple // c << k + 1
            for v in bits(plane):
                near[v] += weight
    norm = multiple * max((n - 1) * (n - 2), 1)
    total, scale = _far_pass(nb, bits(far))
    return {v: (a * scale + t * multiple) / (norm * scale) for v, a, t in zip(nodes, near, total)}


def clustering_coefficient(graph: BipartiteGraph, node_class: NodeClass) -> dict:
    """Local clustering coefficient on the simple projection onto ``node_class``.

    A node of degree d with t ordered pairs of adjacent neighbours (twice
    its triangles) scores t / (d(d-1)); a node in no triangle scores the
    int 0, as networkx's ``clustering`` does.
    """
    nodes, _, reach = index(graph, node_class)
    nb = [r & ~(1 << i) for i, r in enumerate(reach)]
    out = {}
    for v, mask in zip(nodes, nb):
        t = sum((mask & nb[w]).bit_count() for w in bits(mask))
        d = mask.bit_count()
        out[v] = 0 if t == 0 else t / (d * (d - 1))
    return out

