"""Independent brute-force oracles used to pin down expected values.

These deliberately avoid the library's own adjacency caches and search
code: everything is recomputed from the raw edge list with the most naive
algorithm available, so agreement with the package is meaningful. The
betweenness oracle is Brandes' algorithm in exact rationals, which the
kernel must match bit for bit; networkx's float version is a second,
near-equal oracle. The clustering oracle is networkx's, matched value for
value. The graph-file oracle is the plain writer: a dict of the graph
through ``json.dumps(sort_keys=True, indent=2)``. The placement greedy's
oracle rescans every candidate on each pick. The parse oracle validates
every row's fields afresh, with no memo.
"""

from __future__ import annotations

import ipaddress
import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import networkx as nx

from ixpgraph.ingest import (
    _STATUS_SEVERITY,
    DATASET_HEADER,
    DiscardReason,
    DiscardReport,
    IxpIdentity,
    MembershipRecord,
    ParseResult,
    ReasonTally,
    normalize_ixp_name,
)
from ixpgraph.model import (
    AsNode,
    AsType,
    BipartiteGraph,
    IxpGraphError,
    IxpNode,
    IxpStatus,
    MembershipEdge,
    NodeClass,
    Source,
)
from ixpgraph.model import _by_value, _parse_asn, _parse_decimal, _read_csv
from ixpgraph.placement import CoverageInstance, PlacementSolution
from ixpgraph.serialization import FORMAT_VERSION


def bf_adjacency(graph: BipartiteGraph) -> dict:
    adj: dict = {x: set() for x in graph.ixps}
    adj.update({a: set() for a in graph.ases})
    for ixp_id, asn in graph.edges:
        adj[ixp_id].add(asn)
        adj[asn].add(ixp_id)
    return adj


def bf_degree(graph: BipartiteGraph, node_id) -> int:
    return sum(1 for key in graph.edges if node_id in key)


def bf_project(graph: BipartiteGraph, node_class: NodeClass) -> dict:
    """Projection edges as {(u, v): set of via}, from pairwise edge scans."""
    edges = list(graph.edges)
    out: dict = {}
    for i, (x1, a1) in enumerate(edges):
        for x2, a2 in edges[i + 1:]:
            if node_class is NodeClass.IXP and a1 == a2 and x1 != x2:
                u, v = sorted((x1, x2))
                out.setdefault((u, v), set()).add(a1)
            elif node_class is NodeClass.AS and x1 == x2 and a1 != a2:
                u, v = sorted((a1, a2))
                out.setdefault((u, v), set()).add(x1)
    return out


@dataclass
class Multigraph:
    """Projection of a BipartiteGraph onto one vertex class.

    ``edges`` maps a canonically ordered node pair (u < v) to the set of
    shared-neighbor ids from the opposite class; the pair's multiplicity is
    the size of that set.
    """

    node_class: NodeClass
    nodes: set = field(default_factory=set)
    edges: dict[tuple, frozenset] = field(default_factory=dict)

    @property
    def num_parallel_edges(self) -> int:
        """Total edge count with parallel edges counted individually."""
        return sum(len(vias) for vias in self.edges.values())


def project(graph: BipartiteGraph, node_class: NodeClass) -> Multigraph:
    """The materialized projection onto ``node_class``: IXPs i and j get
    one parallel edge per AS that is a member of both, and the AS class
    swaps the roles. Nodes of the class appear even when isolated."""
    if node_class is NodeClass.IXP:
        nodes = set(graph.ixps)
        via_neighbors = [(asn, graph.memberships(asn)) for asn in graph.ases]
    else:
        nodes = set(graph.ases)
        via_neighbors = [(ixp_id, graph.members(ixp_id)) for ixp_id in graph.ixps]

    edges: dict[tuple, set] = {}
    for via, shared in via_neighbors:
        for u, v in combinations(sorted(shared), 2):
            edges.setdefault((u, v), set()).add(via)
    return Multigraph(
        node_class=node_class,
        nodes=nodes,
        edges={pair: frozenset(vias) for pair, vias in edges.items()},
    )


def bf_distance(adj: dict, source, target) -> int | None:
    """Plain FIFO BFS hop distance; None if unreachable."""
    if source == target:
        return 0
    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        node, dist = queue.popleft()
        for nxt in adj[node]:
            if nxt == target:
                return dist + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    return None


def bf_ixp_count_distribution(graph: BipartiteGraph, sources: set[int] | None = None) -> Counter:
    """IXPs crossed per unordered AS pair, by per-pair BFS; asserts the
    even-distance parity along the way. With ``sources`` (indices into the
    sorted ASNs) only pairs with at least one end in that set are tallied."""
    adj = bf_adjacency(graph)
    asns = sorted(graph.ases)
    tally: Counter = Counter()
    for i, s in enumerate(asns):
        for j, t in enumerate(asns[i + 1:], start=i + 1):
            if sources is not None and i not in sources and j not in sources:
                continue
            dist = bf_distance(adj, s, t)
            assert dist is not None, f"pair ({s}, {t}) unreachable"
            assert dist % 2 == 0, f"odd AS-AS distance {dist} for ({s}, {t})"
            tally[dist // 2] += 1
    return tally


def bf_gain(graph: BipartiteGraph, a: int, b: int) -> int:
    """Remote-peering gain recomputed from the raw edge list."""
    def reach(asn: int) -> set[int]:
        my_ixps = {x for x, j in graph.edges if j == asn}
        return {j for x, j in graph.edges if x in my_ixps}

    gained = reach(b) - reach(a) - {a, b}
    return len(gained)


def bf_gain_cdf(graph: BipartiteGraph) -> Counter:
    """Gain tally over all ordered co-located AS pairs, pair by pair with
    ``bf_gain``; co-location is read off the raw edge list."""
    ixps_of: dict = {a: set() for a in graph.ases}
    for x, a in graph.edges:
        ixps_of[a].add(x)
    tally: Counter = Counter()
    for a in graph.ases:
        for b in graph.ases:
            if a != b and ixps_of[a] & ixps_of[b]:
                tally[bf_gain(graph, a, b)] += 1
    return tally


def _hex_mapped(ip) -> str:
    """``str(ip)`` as Python 3.10-3.12 print it: 3.13 prints an IPv4-mapped
    address with a dotted quad, they in hex."""
    if ip.version == 4 or ip.ipv4_mapped is None:
        return str(ip)
    high, low = divmod(int(ip.ipv4_mapped), 1 << 16)
    return f"::ffff:{high:x}:{low:x}" + (f"%{ip.scope_id}" if ip.scope_id else "")


def _bf_network_text(net) -> str:
    return f"{_hex_mapped(net.network_address)}/{net.prefixlen}"


def _bf_parse_row(row: list[str], expected_source: Source) -> MembershipRecord:
    # A row of any other field count fails to unpack with a ValueError.
    (source_raw, ixp_key, ixp_name, prefixes_raw, asn_raw,
     ip_raw, status_raw, type_raw, pfx_count_raw) = row
    source = _by_value(Source, source_raw)
    if source is not expected_source:
        raise ValueError(f"row source {source_raw!r} in a {expected_source.value} file")
    if not ixp_key or not ixp_name:
        raise ValueError("ixp_key and ixp_name must be non-empty")
    asn = _parse_asn(asn_raw)
    pfx_count = None
    if pfx_count_raw:
        pfx_count = _parse_decimal(pfx_count_raw)
        if pfx_count < 0:
            raise ValueError("as_prefix_count must be non-negative")
    prefixes = tuple(_bf_network_text(ipaddress.ip_network(part, strict=False))
                     for part in map(str.strip, prefixes_raw.split(";")) if part)
    return MembershipRecord(
        source=source,
        ixp_key=ixp_key,
        ixp_name=ixp_name,
        ixp_prefixes=prefixes,
        asn=asn,
        member_ip=_hex_mapped(ipaddress.ip_address(ip_raw)) if ip_raw else None,
        status=_by_value(IxpStatus, status_raw),
        as_type=_by_value(AsType, type_raw) if type_raw else None,
        as_prefix_count=pfx_count,
    )


def bf_parse_dataset(path, source: Source) -> ParseResult:
    """``ingest.parse_dataset`` one row at a time: every field of every row
    validated afresh, and every member IP parsed and printed by
    ``ipaddress`` (an IPv4-mapped one, and a prefix of one, in hex on every
    interpreter)."""
    records = []
    errors = 0
    for row in _read_csv(path, DATASET_HEADER):
        try:
            records.append(_bf_parse_row(row, source))
        except ValueError:
            errors += 1
    return ParseResult(records=records, parse_errors=errors)


def _prefixes_overlap(nets_a, nets_b) -> bool:
    for pa in nets_a:
        for pb in nets_b:
            if pa.version != pb.version:
                continue
            if pa == pb or pa.subnet_of(pb) or pb.subnet_of(pa):
                return True
    return False


def bf_merge_ixp_lists(records) -> dict[str, IxpIdentity]:
    """``ingest.merge_ixp_lists`` by comparing every pair of source keys'
    prefix sets with ``ipaddress``'s own ``subnet_of``: keys are joined by
    networkx's connected components, one edge per name match or prefix
    overlap, and ordered by their "source:key" text."""
    names: dict = {}
    prefixes: dict = {}
    statuses: dict = {}
    for record in records:
        key = (record.source, record.ixp_key)
        names.setdefault(key, set()).add(record.ixp_name)
        prefixes.setdefault(key, set()).update(
            ipaddress.ip_network(p) for p in record.ixp_prefixes
        )
        if key not in statuses or _STATUS_SEVERITY[record.status] > _STATUS_SEVERITY[statuses[key]]:
            statuses[key] = record.status

    # A name that normalizes to "" (punctuation only) matches no other.
    normalized = {key: {normalize_ixp_name(n) for n in ns} - {""} for key, ns in names.items()}
    keys = list(names)
    g = nx.Graph()
    g.add_nodes_from(keys)
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            if normalized[ka] & normalized[kb] or _prefixes_overlap(prefixes[ka], prefixes[kb]):
                g.add_edge(ka, kb)
    ordered = sorted(nx.connected_components(g),
                     key=lambda group: min(f"{source.value}:{key}" for source, key in group))

    width = max(4, len(str(len(ordered))))
    identities = {}
    for seq, group in enumerate(ordered, start=1):
        group_nets = sorted(
            set().union(*(prefixes[k] for k in group)),
            key=lambda n: (n.version, int(n.network_address), n.prefixlen),
        )
        identities[f"IXP{seq:0{width}d}"] = IxpIdentity(
            source_keys=frozenset(group),
            names=tuple(sorted(set().union(*(names[k] for k in group)))),
            peering_prefixes=tuple(map(_bf_network_text, group_nets)),
            status=max((statuses[k] for k in group), key=_STATUS_SEVERITY.get),
        )
    return identities


def nx_giant_component(nodes, edges) -> set:
    """The vertex set ``model.giant_component`` keeps: of networkx's
    connected components, the one with the most vertices, then the most
    edges, then the smallest label compared as a string."""
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return min(nx.connected_components(g),
               key=lambda c: (-len(c), -sum(1 for x, _ in edges if x in c), min(map(str, c))))


def bf_discard_report(records, parse_errors: int = 0) -> DiscardReport:
    """``ingest.sanitize(...)[1]`` by applying the four stages one
    at a time to a plain list of (unified IXP id, record) edges, the IXPs
    unified by ``bf_merge_ixp_lists``.

    Each stage's edge tally is the edges it drops; its node tally is the
    vertices that had an edge before it and none after it (for the giant
    component: that are outside it). So every vertex is tallied under the
    stage that drops its last edge, given that each starts with an edge,
    as merged identities and their records do."""
    identities = bf_merge_ixp_lists(records)

    def uid(record):
        return next(u for u, ident in identities.items()
                    if (record.source, record.ixp_key) in ident.source_keys)

    def on_lan(u, record):
        if record.member_ip is None:
            return True
        ip = ipaddress.ip_address(record.member_ip)
        return any(ip.version == net.version and ip in net
                   for net in map(ipaddress.ip_network, identities[u].peering_prefixes))

    def ends(pairs):
        return {u for u, _ in pairs} | {asn for _, asn in pairs}

    tagged = [(uid(r), r) for r in records]
    active = [(u, r) for u, r in tagged if identities[u].status is IxpStatus.ACTIVE]
    consistent = [(u, r) for u, r in active if on_lan(u, r)]
    tagged, active, consistent = ([(u, r.asn) for u, r in edges]
                                  for edges in (tagged, active, consistent))
    collapsed = sorted(set(consistent))
    vertices = [u for u, i in identities.items() if i.status is IxpStatus.ACTIVE]
    giant = nx_giant_component(vertices + sorted({r.asn for r in records}), collapsed)
    stages = [
        (DiscardReason.INACTIVE_IXP, tagged, active, ends(active)),
        (DiscardReason.IP_INCONSISTENT, active, consistent, ends(consistent)),
        (DiscardReason.DUPLICATE_COLLAPSED, consistent, collapsed, ends(collapsed)),
        (DiscardReason.NOT_IN_GIANT_COMPONENT, collapsed,
         [e for e in collapsed if e[0] in giant], giant),
    ]
    reasons = {DiscardReason.PARSE_ERROR: ReasonTally(0, parse_errors)}
    for reason, before, after, kept in stages:
        reasons[reason] = ReasonTally(len(ends(before) - kept), len(before) - len(after))
    return DiscardReport(
        nodes_total_pre=len(identities) + len({r.asn for r in records}),
        edges_total_pre=len(records) + parse_errors,
        reasons={reason: tally for reason, tally in reasons.items() if any(tally)},
    )


def bf_sanitized_graph(records) -> BipartiteGraph:
    """``ingest.sanitize(...)[0]`` by applying the four stages one at a time
    to a plain list of (unified IXP id, record) edges, the IXPs unified by
    ``bf_merge_ixp_lists``.

    Rows are read in (PDB first, member_ip) order, a row without an address
    first among its source's, ties in input order. Each edge left after
    stage 4 takes the first member_ip among its rows left after stage 2 and
    the union of their sources. Each AS left takes the first known as_type
    and the first known prefix count among all its rows, dropped or not."""
    identities = bf_merge_ixp_lists(records)

    def uid(record):
        return next(u for u, ident in identities.items()
                    if (record.source, record.ixp_key) in ident.source_keys)

    def on_lan(u, record):
        if record.member_ip is None:
            return True
        ip = ipaddress.ip_address(record.member_ip)
        return any(ip.version == net.version and ip in net
                   for net in map(ipaddress.ip_network, identities[u].peering_prefixes))

    def first_known(values):
        return next((v for v in values if v is not None), None)

    rows = sorted(((uid(r), r) for r in records),
                  key=lambda row: (row[1].source is not Source.PDB, row[1].member_ip or ""))
    active = [(u, r) for u, r in rows if identities[u].status is IxpStatus.ACTIVE]
    consistent = [(u, r) for u, r in active if on_lan(u, r)]
    vertices = [u for u, i in identities.items() if i.status is IxpStatus.ACTIVE]
    giant = nx_giant_component(vertices + sorted({r.asn for r in records}),
                               sorted({(u, r.asn) for u, r in consistent}))
    edges = []
    for key in sorted({(u, r.asn) for u, r in consistent if u in giant}):
        group = [r for u, r in consistent if (u, r.asn) == key]
        edges.append(MembershipEdge(*key, first_known(r.member_ip for r in group),
                                    frozenset(r.source for r in group)))
    ases = []
    for asn in sorted(v for v in giant if isinstance(v, int)):
        group = [r for _, r in rows if r.asn == asn]
        ases.append(AsNode(asn, first_known(r.as_type for r in group) or AsType.UNKNOWN,
                           first_known(r.as_prefix_count for r in group)))
    ixps = [IxpNode(u, list(identities[u].names), list(identities[u].peering_prefixes),
                    status=identities[u].status) for u in sorted(identities) if u in giant]
    return BipartiteGraph(ixps={x.ixp_id: x for x in ixps}, ases={a.asn: a for a in ases},
                          edges={(e.ixp_id, e.asn): e for e in edges})


def exhaustive_cover_oracle(
    instance: CoverageInstance, budget: float | None = None
) -> PlacementSolution:
    """Optimal solution by subset enumeration, for at most 20 candidates.

    Without a budget: the minimum-cost full cover (ties: fewer sets, then
    lexicographic). With a budget: the maximum-weight selection within it
    (ties: lower cost, then lexicographic). The chosen list is sorted, as
    enumeration has no pick order.
    """
    ids = sorted(instance.candidates)
    assert len(ids) <= 20, f"{len(ids)} candidates are too many to enumerate"
    best = None
    best_key = None
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            covered = frozenset().union(*(instance.candidates[c] for c in combo))
            sol = PlacementSolution(
                chosen=combo,
                covered=covered,
                total_cost=sum(instance.cost[c] for c in combo),
                total_weight=sum(instance.weight[a] for a in covered),
            )
            if budget is None:
                if sol.covered != instance.universe:
                    continue
                key = (sol.total_cost, len(combo), combo)
            else:
                if sum(Fraction(instance.cost[c]) for c in combo) > budget:
                    continue
                key = (-sol.total_weight, sol.total_cost, combo)
            if best_key is None or key < best_key:
                best, best_key = sol, key
    if best is None:
        raise _uncoverable(instance.universe - frozenset().union(*instance.candidates.values()))
    return best


def _uncoverable(residue) -> IxpGraphError:
    """The program's error for a universe ``residue`` that no candidate covers."""
    return IxpGraphError("universe not coverable; uncovered: "
                         + ", ".join(map(str, sorted(residue))))


def _bf_solution(instance: CoverageInstance, chosen) -> PlacementSolution:
    covered = frozenset(a for c in chosen for a in instance.candidates[c])
    return PlacementSolution(
        chosen=tuple(chosen),
        covered=covered,
        total_cost=sum(instance.cost[c] for c in chosen),
        total_weight=math.fsum(instance.weight[a] for a in covered),
    )


def scan_greedy(instance: CoverageInstance, budget: float | None = None) -> PlacementSolution:
    """The coverage greedy by a full rescan of every candidate per pick.

    Without a budget: the cost-per-new-weight cover, raising ``IxpGraphError``
    for what no candidate covers. With one: the new-weight-per-cost greedy
    within it, or the heaviest affordable single candidate (lowest id on
    ties) when that weighs strictly more. New weights are ``fsum``s, each
    pick is the least ``(ratio, -new_weight, ixp_id)``, and a candidate is
    affordable when the exact sum of its cost and the chosen ones is within
    the budget.
    """
    chosen: list[str] = []
    covered: set[int] = set()
    while True:
        keys = []
        for ixp_id in sorted(instance.candidates):
            cost = instance.cost[ixp_id]
            new_weight = math.fsum(instance.weight[a] for a in instance.candidates[ixp_id]
                                   if a not in covered)
            affordable = budget is None or sum(
                map(Fraction, [cost, *(instance.cost[c] for c in chosen)])) <= budget
            if affordable and new_weight > 0:
                ratio = cost / new_weight if budget is None else -new_weight / cost
                keys.append((ratio, -new_weight, ixp_id))
        if not keys:
            break
        best = min(keys)[2]
        chosen.append(best)
        covered |= instance.candidates[best]
    greedy = _bf_solution(instance, chosen)
    if budget is None:
        if greedy.covered != instance.universe:
            raise _uncoverable(instance.universe - greedy.covered)
        return greedy
    singles = [_bf_solution(instance, [c]) for c in sorted(instance.candidates)
               if instance.cost[c] <= budget]
    single = min(singles, key=lambda s: (-s.total_weight, s.chosen), default=greedy)
    return single if single.total_weight > greedy.total_weight else greedy


def harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def _simple_graph(mg: Multigraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(sorted(mg.nodes))
    g.add_edges_from(sorted(mg.edges))
    return g


def nx_betweenness(mg: Multigraph) -> dict:
    return dict(nx.betweenness_centrality(_simple_graph(mg), normalized=True))


def exact_betweenness(mg: Multigraph) -> dict:
    """Normalized betweenness in exact rationals, rounded to float once.

    Brandes' recursion (2001) from every source over a plain BFS on the
    simple projection, written over one common denominator per source:
    with L the lcm of the source's path counts, D(w) = L / σ_w + Σ_succ D
    is an int, and v's dependency σ_v Σ_succ D / L is a ``Fraction``. Each
    node's total is divided by (n-1)(n-2) as a ``Fraction``."""
    adj: dict = {v: set() for v in mg.nodes}
    for u, v in mg.edges:
        adj[u].add(v)
        adj[v].add(u)
    totals = dict.fromkeys(adj, Fraction(0))
    for s in adj:
        order, succ, dist, paths = [], {v: [] for v in adj}, {s: 0}, dict.fromkeys(adj, 0)
        paths[s] = 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if w not in dist:
                    queue.append(w)
                    dist[w] = dist[v] + 1
                if dist[w] == dist[v] + 1:
                    paths[w] += paths[v]
                    succ[v].append(w)
        common = math.lcm(*(paths[v] for v in order))
        below = {}
        for v in reversed(order):
            below[v] = sum(below[w] + common // paths[w] for w in succ[v])
            if v != s:
                totals[v] += Fraction(paths[v] * below[v], common)
    n = len(adj)
    norm = (n - 1) * (n - 2) if n >= 3 else 1
    return {v: float(totals[v] / norm) for v in sorted(adj)}


def nx_clustering(mg: Multigraph) -> dict:
    return dict(nx.clustering(_simple_graph(mg)))


def graph_to_dict(graph: BipartiteGraph) -> dict:
    """The graph file's document: IXPs by id, ASes by number, edges by
    (ixp_id, asn), each edge's sources sorted."""
    def location(loc):
        return None if loc is None else {
            "country": loc.country, "city": loc.city, "lat": loc.lat, "lon": loc.lon}

    return {
        "version": FORMAT_VERSION,
        "ixps": [
            {
                "ixp_id": node.ixp_id,
                "names": list(node.names),
                "peering_prefixes": list(node.peering_prefixes),
                "status": node.status.value,
                "location": location(node.location),
            }
            for _, node in sorted(graph.ixps.items())
        ],
        "ases": [
            {"asn": node.asn, "as_type": node.as_type.value, "prefix_count": node.prefix_count}
            for _, node in sorted(graph.ases.items())
        ],
        "edges": [
            {
                "ixp_id": edge.ixp_id,
                "asn": edge.asn,
                "member_ip": edge.member_ip,
                "sources": sorted(s.value for s in edge.sources),
            }
            for _, edge in sorted(graph.edges.items())
        ],
    }


def dumps_graph(graph: BipartiteGraph) -> str:
    """The canonical graph file's text by ``json.dumps``."""
    return json.dumps(graph_to_dict(graph), sort_keys=True, indent=2) + "\n"
