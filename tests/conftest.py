"""Shared fixtures: the G0 toy graph, random graph generators, CSV dataset
fixtures, a paper-scale synthetic graph, and the projection edges read off
the bitmask index."""

from __future__ import annotations

import ipaddress
import random

import pytest

from ixpgraph import projection, serialization
from ixpgraph.ingest import MembershipRecord
from ixpgraph.model import (
    AsNode,
    AsType,
    BipartiteGraph,
    IxpNode,
    IxpStatus,
    MembershipEdge,
    NodeClass,
    Source,
    giant_component,
)


def _merge_edge(edges: dict, edge: MembershipEdge) -> None:
    """Put ``edge`` in ``edges``; an existing (ixp_id, asn) edge instead gains
    its sources, and keeps its member_ip unless it has none."""
    key = (edge.ixp_id, edge.asn)
    existing = edges.get(key)
    edges[key] = edge if existing is None else existing._replace(
        sources=existing.sources | edge.sources,
        member_ip=edge.member_ip if existing.member_ip is None else existing.member_ip,
    )


def add_membership(graph: BipartiteGraph, edge: MembershipEdge) -> BipartiteGraph:
    """A new graph: ``graph`` with a membership edge added; re-adding an
    existing (ixp_id, asn) pair merges the sources sets instead of
    duplicating. ``graph`` itself is not changed.

    Raises ValueError, as the graph does, if either vertex is absent. When
    merging, an already recorded member_ip wins over the incoming one.
    """
    edges = dict(graph.edges)
    _merge_edge(edges, edge)
    return BipartiteGraph(ixps=graph.ixps, ases=graph.ases, edges=edges)


def build_graph(ixps, ases, memberships) -> BipartiteGraph:
    """A graph from node and edge iterables, built once; repeated (ixp_id,
    asn) pairs merge as in ``add_membership``, the first member_ip winning."""
    edges: dict = {}
    for edge in memberships:
        _merge_edge(edges, edge)
    return BipartiteGraph(ixps={n.ixp_id: n for n in ixps}, ases={n.asn: n for n in ases},
                          edges=edges)


def assert_rebuilds_equal(graph: BipartiteGraph) -> None:
    """``graph``, which a stage made from checked parts without re-checking
    them, equals the graph ``BipartiteGraph.__init__`` checks and builds from
    its dicts: the same records, every ``members()`` and ``memberships()``
    set, no adjacency entry for a node it lacks, and no index."""
    fresh = BipartiteGraph(ixps=dict(graph.ixps), ases=dict(graph.ases), edges=dict(graph.edges))
    assert graph == fresh
    assert graph._ixp_members == fresh._ixp_members
    assert graph._as_memberships == fresh._as_memberships
    assert not [key for key in vars(graph) if key.startswith("_index")]


# G0: the hand-checked toy fixture. IXPs X1..X3, ASes 1..4; A1 is at X1 and
# X3, A2 and A3 at X1 and X2, A4 at X2 only.
G0_MEMBERSHIPS = {1: ("X1", "X3"), 2: ("X1", "X2"), 3: ("X1", "X2"), 4: ("X2",)}


def make_g0(as_types: dict[int, AsType] | None = None,
            prefix_counts: dict[int, int] | None = None) -> BipartiteGraph:
    as_types = as_types or {}
    prefix_counts = prefix_counts or {}
    return build_graph(
        [IxpNode(f"X{i}", [f"Exchange {i}"]) for i in (1, 2, 3)],
        [
            AsNode(a, as_type=as_types.get(a, AsType.UNKNOWN),
                   prefix_count=prefix_counts.get(a))
            for a in (1, 2, 3, 4)
        ],
        [
            MembershipEdge(x, a)
            for a, ixps in G0_MEMBERSHIPS.items()
            for x in ixps
        ],
    )


G0_TYPES = {1: AsType.CONTENT, 2: AsType.ISP, 3: AsType.ISP, 4: AsType.ENTERPRISE}


@pytest.fixture
def g0() -> BipartiteGraph:
    return make_g0()


@pytest.fixture
def g0_typed() -> BipartiteGraph:
    return make_g0(as_types=G0_TYPES)


def random_bipartite(rng: random.Random, max_ixps: int = 50,
                     max_ases: int = 300) -> BipartiteGraph:
    """A random membership graph; may be disconnected and contain isolated
    vertices of either class."""
    n_ixp = rng.randint(1, max_ixps)
    n_as = rng.randint(1, max_ases)
    ixp_ids = [f"X{i}" for i in range(1, n_ixp + 1)]
    edges = set()
    for asn in range(1, n_as + 1):
        for ixp_id in rng.sample(ixp_ids, rng.randint(0, min(5, n_ixp))):
            edges.add((ixp_id, asn))
    return build_graph(
        [IxpNode(x, [x]) for x in ixp_ids],
        [AsNode(a) for a in range(1, n_as + 1)],
        [MembershipEdge(x, a) for x, a in sorted(edges)],
    )


def gain_test_graphs(seed: int = 11, count: int = 60) -> list[BipartiteGraph]:
    """Small random graphs for the remote-peering oracles, led by one with
    an AS without memberships (8), an IXP with a single member (X3) and
    several components."""
    memberships = {1: ("X1",), 2: ("X1",), 3: ("X1", "X2"), 4: ("X2",), 5: ("X3",),
                   6: ("X4",), 7: ("X4",), 8: ()}
    fixed = build_graph(
        [IxpNode(x, [x]) for x in ("X1", "X2", "X3", "X4")],
        [AsNode(a) for a in memberships],
        [MembershipEdge(x, a) for a, xs in memberships.items() for x in xs],
    )
    rng = random.Random(seed)
    return [fixed] + [random_bipartite(rng, max_ixps=12, max_ases=40) for _ in range(count - 1)]


# Prefix material for the merge tests: few base addresses and many lengths,
# so equal, nested and disjoint prefixes of both versions (/0, /32 and
# /128 included) all turn up often.
MERGE_BASES = {
    4: ["0.0.0.0", "10.0.0.0", "10.0.1.128", "10.1.0.0", "192.0.2.7", "255.255.255.255"],
    6: ["::", "2001:db8::", "2001:db8:0:1::", "2001:db8:1::1", "fe80::", "ffff::"],
}
MERGE_LENGTHS = {4: [0, 1, 8, 16, 23, 24, 25, 31, 32], 6: [0, 1, 32, 48, 63, 64, 127, 128]}
# "-" and " . " normalize to "", which matches no other name.
MERGE_NAMES = ["Metro One", "metro-one", "METRO  ONE", "Metro Two", "metro_two", "Lone IX",
               "-", " . "]


def _merge_prefix(rng: random.Random) -> str:
    version = rng.choice((4, 6))
    base, length = rng.choice(MERGE_BASES[version]), rng.choice(MERGE_LENGTHS[version])
    return str(ipaddress.ip_network(f"{base}/{length}", strict=False))


def merge_test_lists(seed: int = 5, count: int = 300) -> list[list]:
    """Random record lists for the IXP merge, PDB records first. A source
    key has one to three records, each with zero to two prefixes and a name
    that is either shared in some spelling or the key's own; some keys hold
    no prefix at all."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        lists: dict = {Source.PDB: [], Source.PCH: []}
        for k in range(rng.randint(1, 12)):
            source = rng.choice((Source.PDB, Source.PCH))
            bare = rng.random() < 0.15
            for _ in range(rng.randint(1, 3)):
                shared = rng.random() < 0.3
                lists[source].append(MembershipRecord(
                    source=source,
                    ixp_key=f"k{k}",
                    ixp_name=rng.choice(MERGE_NAMES) if shared else f"IX {source.value} {k}",
                    ixp_prefixes=[] if bare else [
                        _merge_prefix(rng) for _ in range(rng.randint(0, 2))],
                    asn=rng.randint(1, 50),
                    member_ip=None,
                    status=rng.choice(list(IxpStatus)),
                ))
        cases.append(lists[Source.PDB] + lists[Source.PCH])
    return cases


def sanitize_test_sets(seed: int = 7, count: int = 200) -> list[tuple[list, int]]:
    """Random (records, parse_errors) inputs for the cleaning path, PDB
    records first.

    Core IXPs k share a pool of ASes; IXP k's LAN is 10.k.0.0/24 and
    2001:db8:k::/48, or one of them, or none. Member addresses are absent,
    on the LAN, off it (172.16.0.0/12) or of a version the LAN lacks. Some
    core IXPs are listed again in the PCH file under their own key, with a
    name of another spelling and an equal or nested LAN, re-listing some of
    their members (cross-source duplicates, some with another address).
    Most sets have one inactive or not-approved IXP and a few fragments:
    IXPs whose members are at no other IXP, off the giant component.
    Core IXP 0 stays active and its first member has no address, so every
    set keeps an edge. Each row may carry an AS type and a prefix count,
    drawn from a second generator so that the rest of each set is the same
    as without them; an AS's rows often disagree on both."""
    rng = random.Random(seed)
    attributes = random.Random(f"attributes {seed}")
    types = (None, None, *AsType)
    cases = []
    for _ in range(count):
        pdb, pch = [], []
        n_core, n_frag = rng.randint(2, 6), rng.choice((0, 1, 2, 3))
        pool = list(range(1, rng.randint(4, 20) + 1))
        inactive = rng.randrange(1, n_core + n_frag) if rng.random() < 0.8 else None
        for k in range(n_core + n_frag):
            lan = [p for p in (f"10.{k}.0.0/24", f"2001:db8:{k}::/48") if rng.random() < 0.7]
            status = rng.choice((IxpStatus.INACTIVE, IxpStatus.NOT_APPROVED)) \
                if k == inactive else IxpStatus.ACTIVE
            if k < n_core:
                members = rng.sample(pool, rng.randint(1, min(6, len(pool))))
            else:
                members = [1000 + 10 * k + i for i in range(rng.randint(1, 3))]

            def address(h):
                kind = rng.random()
                if kind < 0.25 or (k == 0 and h == 0):
                    return None
                if kind < 0.55:
                    return f"10.{k}.0.{h + 1}"
                if kind < 0.8:
                    return f"2001:db8:{k}::{h + 1:x}"
                return f"172.16.{k}.{h + 1}"

            rows = [(asn, address(h)) for h, asn in enumerate(members)]
            if rng.random() < 0.1:
                rows.append(rows[-1])  # a same-source duplicate
            pdb += [_record(Source.PDB, f"k{k}", f"Exchange {k}", lan, asn, ip, status)
                    for asn, ip in rows]
            if k < n_core and rng.random() < 0.5:
                nested = [p.replace("0.0/24", "0.0/25") for p in lan if rng.random() < 0.8]
                again = rng.sample(rows, rng.randint(1, len(rows)))
                again = [(asn, ip if rng.random() < 0.7 else address(len(rows) + i))
                         for i, (asn, ip) in enumerate(again)]
                pch += [_record(Source.PCH, f"p{k}", f"exchange-{k}", nested, asn, ip,
                                IxpStatus.ACTIVE) for asn, ip in again]
        pdb, pch = ([r._replace(as_type=attributes.choice(types),
                                as_prefix_count=attributes.choice((None, attributes.randint(0, 9))))
                     for r in part] for part in (pdb, pch))
        cases.append((pdb + pch, rng.choice((0, 0, rng.randint(1, 5)))))
    return cases


def _record(source, key, name, prefixes, asn, ip, status) -> MembershipRecord:
    """A record as the row parser makes it from these fields."""
    addr = None if ip is None else ipaddress.ip_address(ip)
    return MembershipRecord(source, key, name, tuple(prefixes), asn,
                            None if addr is None else str(addr), status)


def giant_test_graphs(seed: int = 13, count: int = 300) -> list[BipartiteGraph]:
    """Random graphs of several components for the giant-component oracle.
    Half are unions of small fixed shapes, so that components often tie on
    vertex count, and on edge count too; labels are drawn so that string
    order differs from numeric order (AS 10 sorts before AS 9). The other
    half are sparse random graphs."""
    shapes = [
        [(0, 0)],                                   # 2 nodes, 1 edge
        [(0, 0), (0, 1)], [(0, 0), (1, 0)],         # 3 nodes, 2 edges
        [(0, 0), (0, 1), (0, 2)],                   # 4 nodes, 3 edges: star at an IXP,
        [(0, 0), (1, 0), (2, 0)],                   # star at an AS,
        [(0, 0), (1, 0), (1, 1)],                   # path
        [(0, 0), (0, 1), (1, 0), (1, 1)],           # 4 nodes, 4 edges
    ]
    rng = random.Random(seed)
    graphs = []
    for case in range(count):
        ixp_ids = rng.sample([f"X{i}" for i in range(1, 40)], 39)
        asns = rng.sample(range(1, 120), 119)
        if case % 2:
            graphs.append(random_bipartite(rng, max_ixps=8, max_ases=10))
            continue
        edges = []
        for _ in range(rng.randint(1, 6)):
            shape = rng.choice(shapes)
            xs = [ixp_ids.pop() for _ in range(max(x for x, _ in shape) + 1)]
            as_ = [asns.pop() for _ in range(max(a for _, a in shape) + 1)]
            edges += [(xs[x], as_[a]) for x, a in shape]
        lone_ixps = [ixp_ids.pop() for _ in range(rng.randint(0, 2))]
        lone_ases = [asns.pop() for _ in range(rng.randint(0, 2))]
        graphs.append(build_graph(
            [IxpNode(x, [x]) for x in sorted({x for x, _ in edges} | set(lone_ixps))],
            [AsNode(a) for a in sorted({a for _, a in edges} | set(lone_ases))],
            [MembershipEdge(x, a) for x, a in edges],
        ))
    return graphs


@pytest.fixture
def g0_file(tmp_path):
    """G0 written as a canonical graph file, for CLI-level tests."""
    path = tmp_path / "g0.json"
    serialization.write_graph(make_g0(), path)
    return path


DATASET_HEADER = ("source,ixp_key,ixp_name,ixp_prefixes,asn,"
                  "member_ip,status,as_type,as_prefix_count")


def index_edges(graph: BipartiteGraph, node_class: NodeClass) -> dict:
    """Projection edges as {(u, v): set of shared neighbours}, read off
    ``projection.index``: a node's neighbours from its mask
    ``reach[i] & ~(1 << i)``, and a pair's shared neighbours from the
    other class's masks that hold both nodes."""
    nodes, masks, reach = projection.index(graph, node_class)
    vias = [{o for o, m in masks.items() if m >> i & 1} for i in range(len(nodes))]
    edges = {}
    for i, r in enumerate(reach):
        for j in projection.bits(r & ~(1 << i)):
            assert reach[j] >> i & 1, f"neighbour masks of {nodes[i]!r} and {nodes[j]!r} disagree"
            if i < j:
                edges[nodes[i], nodes[j]] = vias[i] & vias[j]
    return edges


def write_membership_csv(path, rows):
    path.write_text("\n".join([DATASET_HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def sanitize_fixture_files(dirpath):
    """Dataset pair exercising every sanitization stage exactly once.

    Metro One appears in both sources (merged by prefix containment and by
    normalized name) with one IP-inconsistent edge and one cross-source
    duplicate; Bad Exchange is inactive; Lone Exchange hangs off the giant
    component as an isolated 2-node pair.
    """
    pdb = write_membership_csv(dirpath / "pdb.csv", [
        "PDB,m1,Metro One,192.0.2.0/24,65001,192.0.2.10,Active,ISP,120",
        "PDB,m1,Metro One,192.0.2.0/24,65002,192.0.2.11,Active,Content,300",
        "PDB,m1,Metro One,192.0.2.0/24,65003,10.0.0.5,Active,,",
        "PDB,m2,Metro Two,198.51.100.0/24,65003,198.51.100.3,Active,Enterprise,12",
        "PDB,m2,Metro Two,198.51.100.0/24,65001,,Active,ISP,120",
        "PDB,x9,Lone Exchange,203.0.113.0/24,65009,203.0.113.9,Active,,",
    ])
    pch = write_membership_csv(dirpath / "pch.csv", [
        "PCH,77,METRO-ONE,192.0.2.0/25,65002,192.0.2.11,Active,,",
        "PCH,88,Bad Exchange,192.0.113.0/24,65001,192.0.113.2,Inactive,,",
    ])
    return pdb, pch


def paper_scale_graph(seed: int = 42, n_ixp: int = 500, n_as: int = 4700) -> BipartiteGraph:
    """Synthetic graph matched to the published dataset's scale: about 500
    IXPs, 4,700 ASes, 15,000 membership edges, with roughly 43% of ASes at
    degree 1 and a heavy-tailed remainder.

    Degrees are capped at 350 of 500 IXPs, a cap scaled down with ``n_ixp``:
    one at or above ``n_ixp`` lets an AS join every IXP, which makes the
    IXP projection complete."""
    max_degree = min(350, 7 * n_ixp // 10)
    rng = random.Random(seed)
    degrees = []
    for _ in range(n_as):
        if rng.random() < 0.43:
            degrees.append(1)
        else:
            degrees.append(min(2 + int(rng.paretovariate(1.35)), max_degree))
    # Zipf-ish popularity so a few IXPs are very large, as in the data.
    weights = [1.0 / (i + 1) ** 0.8 for i in range(n_ixp)]
    ixp_ids = [f"IXP{i:04d}" for i in range(1, n_ixp + 1)]
    edges = set()
    for asn, deg in enumerate(degrees, start=1):
        chosen: set[int] = set()
        deg = min(deg, n_ixp)
        while len(chosen) < deg:
            chosen.update(rng.choices(range(n_ixp), weights=weights, k=deg - len(chosen)))
        for i in chosen:
            edges.add((ixp_ids[i], asn))
    graph = build_graph(
        [IxpNode(x, [x]) for x in ixp_ids],
        [AsNode(a) for a in range(1, n_as + 1)],
        [MembershipEdge(x, a) for x, a in sorted(edges)],
    )
    return giant_component(graph)
