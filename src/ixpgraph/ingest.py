"""Dataset parsing, IXP identity merging, and graph sanitization.

Input files are UTF-8 CSV exports of IXP membership data (a leading
byte-order mark is accepted), one per source (PeeringDB-style and
PCH-style), sharing the header::

    source,ixp_key,ixp_name,ixp_prefixes,asn,member_ip,status,as_type,as_prefix_count

``ixp_prefixes`` is a ';'-separated CIDR list; member_ip, as_type and
as_prefix_count may be empty. Attribute files are ``asn,as_type`` and
``ixp_id,country,city,lat,lon``.

A build is one path: parse both files, ``sanitize`` their records together
(it unifies their IXP identities first), then ``attach_attributes``. The
cleaning pipeline runs in a fixed order: inactive-IXP removal, then
IP-consistency filtering, then cross-source duplicate collapsing, then
giant-component extraction. The order is part of the contract; running
the giant-component step earlier can change the result.

A ``MembershipRecord`` is a validated row, whether parsed or built in
Python. Rows repeat their IXP's and their AS's fields once per membership,
so each value is validated once: each distinct group of raw IXP fields and
of raw AS fields once per file (memos made per ``parse_dataset`` call), and
each distinct member IP and peering prefix once per process (bounded memos
that parse, merge and sanitize share). The merge gathers each IXP's names
and prefixes over the distinct IXP groups, not over every record.
"""

from __future__ import annotations

import functools
import ipaddress
import re
from enum import Enum
from typing import NamedTuple, Sequence

from . import model
from .model import (
    AsNode,
    AsType,
    BipartiteGraph,
    IxpGraphError,
    IxpNode,
    IxpStatus,
    Location,
    MembershipEdge,
    Source,
)
from .model import _by_value, _parse_asn, _parse_decimal, _read_csv

DATASET_HEADER = [
    "source",
    "ixp_key",
    "ixp_name",
    "ixp_prefixes",
    "asn",
    "member_ip",
    "status",
    "as_type",
    "as_prefix_count",
]
AS_TYPES_HEADER = ["asn", "as_type"]
LOCATIONS_HEADER = ["ixp_id", "country", "city", "lat", "lon"]

_STATUS_SEVERITY = {IxpStatus.ACTIVE: 0, IxpStatus.NOT_APPROVED: 1, IxpStatus.INACTIVE: 2}


class DiscardReason(str, Enum):
    INACTIVE_IXP = "InactiveIxp"
    IP_INCONSISTENT = "IpInconsistent"
    NOT_IN_GIANT_COMPONENT = "NotInGiantComponent"
    DUPLICATE_COLLAPSED = "DuplicateCollapsed"
    PARSE_ERROR = "ParseError"


class ReasonTally(NamedTuple):
    nodes: int
    edges: int


class DiscardReport(NamedTuple):
    """What the sanitization pipeline threw away, tallied per reason."""

    nodes_total_pre: int
    edges_total_pre: int
    reasons: dict[DiscardReason, ReasonTally]


class MembershipRecord(NamedTuple):
    """One validated row of a membership dataset; ``member_ip`` is the
    address's canonical text (see ``_member_address``)."""

    source: Source
    ixp_key: str
    ixp_name: str
    ixp_prefixes: tuple[str, ...]
    asn: int
    member_ip: str | None
    status: IxpStatus
    as_type: AsType | None = None
    as_prefix_count: int | None = None


class ParseResult(NamedTuple):
    records: list[MembershipRecord]
    parse_errors: int


class IxpIdentity(NamedTuple):
    """An IXP unified across sources, with merged attributes."""

    source_keys: frozenset[tuple[Source, str]]
    names: tuple[str, ...]
    peering_prefixes: tuple[str, ...]
    status: IxpStatus


def _ip_text(ip: ipaddress.IPv4Address | ipaddress.IPv6Address) -> str:
    """``str(ip)`` as Python 3.10-3.12 print it: an IPv4-mapped address in
    hex (``::ffff:c000:201``), where 3.13 prints ``::ffff:192.0.2.1``."""
    n = int(ip)
    if n >> 32 != 0xFFFF:  # not IPv4-mapped
        return str(ip)
    scope = f"%{ip.scope_id}" if ip.scope_id else ""
    return f"::ffff:{n >> 16 & 0xFFFF:x}:{n & 0xFFFF:x}{scope}"


@functools.lru_cache(maxsize=1 << 16)
def _member_address(text: str) -> tuple[str, tuple[int, int]]:
    """A member IP's canonical text and (IP version, integer). ``ipaddress``
    accepts only canonical dotted quads, so an IPv4 address keeps its text."""
    ip = ipaddress.ip_address(text)
    return text if ip.version == 4 else _ip_text(ip), (ip.version, int(ip))


@functools.lru_cache(maxsize=1 << 14)
def _prefix(text: str) -> tuple[str, tuple[int, int, int]]:
    """A CIDR prefix's canonical text, host bits cleared, and its key
    (IP version, network address as int, length)."""
    net = ipaddress.ip_network(text, strict=False)
    address = net.network_address
    return f"{_ip_text(address)}/{net.prefixlen}", (net.version, int(address), net.prefixlen)


def _ixp_fields(expected_source: Source, source_raw: str, ixp_key: str, ixp_name: str,
                prefixes_raw: str, status_raw: str) -> tuple:
    source = _by_value(Source, source_raw)
    if source is not expected_source:
        raise ValueError(f"row source {source_raw!r} in a {expected_source.value} file")
    if not ixp_key or not ixp_name:
        raise ValueError("ixp_key and ixp_name must be non-empty")
    prefixes = tuple(_prefix(part)[0] for part in map(str.strip, prefixes_raw.split(";")) if part)
    return source, ixp_key, ixp_name, prefixes, _by_value(IxpStatus, status_raw)


def _as_fields(asn_raw: str, type_raw: str, pfx_count_raw: str) -> tuple:
    asn = _parse_asn(asn_raw)
    pfx_count = None
    if pfx_count_raw:
        pfx_count = _parse_decimal(pfx_count_raw)
        if pfx_count < 0:
            raise ValueError("as_prefix_count must be non-negative")
    return asn, _by_value(AsType, type_raw) if type_raw else None, pfx_count


def parse_dataset(path, source: Source) -> ParseResult:
    """Parse one membership CSV; malformed rows are counted, not fatal.

    Rows repeat their IXP's and their AS's fields, so each distinct group
    of raw IXP fields and of raw AS fields is validated once per file (a
    rejected group again on each of its rows), and each distinct member IP
    once per process (a bounded memo)."""
    records = []
    errors = 0
    ixp_fields = functools.cache(functools.partial(_ixp_fields, source))
    as_fields = functools.cache(_as_fields)
    for row in _read_csv(path, DATASET_HEADER):
        try:
            # A row of any other field count fails to unpack.
            (source_raw, ixp_key, ixp_name, prefixes_raw, asn_raw,
             ip_raw, status_raw, type_raw, pfx_count_raw) = row
            row_source, key, name, prefixes, status = ixp_fields(
                source_raw, ixp_key, ixp_name, prefixes_raw, status_raw)
            asn, as_type, pfx_count = as_fields(asn_raw, type_raw, pfx_count_raw)
            member_ip = _member_address(ip_raw)[0] if ip_raw else None
        except ValueError:
            errors += 1
        else:
            records.append(MembershipRecord(row_source, key, name, prefixes, asn, member_ip,
                                            status, as_type, pfx_count))
    return ParseResult(records=records, parse_errors=errors)


def normalize_ixp_name(name: str) -> str:
    """Lowercase and collapse whitespace/punctuation runs, so e.g.
    "DE-CIX Frankfurt" and "de cix  frankfurt" compare equal."""
    return re.sub(r"[\s\-_.,]+", " ", name.lower()).strip()


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def merge_ixp_lists(records: Sequence[MembershipRecord]) -> dict[str, IxpIdentity]:
    """Unify the source-local IXPs that ``records``, of either source, name,
    keyed by unified id.

    Two IXPs become one node when a peering prefix is identical or nested,
    or when their normalized names match; a name that normalizes to nothing
    (such as "-") matches no other. Unification is the transitive closure
    of those matches. Unified ids are "IXP" plus a zero-padded sequence
    number, assigned in order of each group's smallest (source, key) pair,
    so the numbering is reproducible. A ``Source`` compares by its value and
    no value is a prefix of another, so the pairs sort as their "source:key"
    texts do.

    Prefixes are matched by lookup, not pairwise. Each distinct prefix (its
    canonical CIDR text, host bits cleared as ``parse_dataset`` does) is keyed as
    (version, network address as int, length); two prefixes are equal or
    nested exactly when one's key is among the other's supernet keys
    (itself included), so each key looks up at most 33 (IPv4) or 129 (IPv6)
    keys, and the merge is linear in prefixes times prefix length.
    """
    names: dict[tuple[Source, str], set[str]] = {}
    prefixes: dict[tuple[Source, str], set[str]] = {}
    statuses: dict[tuple[Source, str], set[IxpStatus]] = {}
    # Records repeat their IXP's fields once per member: gather them over the
    # distinct field groups, in first-seen order.
    for source, ixp_key, name, group_prefixes, status in dict.fromkeys(
            (r.source, r.ixp_key, r.ixp_name, tuple(r.ixp_prefixes), r.status) for r in records):
        key = (source, ixp_key)
        names.setdefault(key, set()).add(name)
        prefixes.setdefault(key, set()).update(_prefix(prefix)[0] for prefix in group_prefixes)
        statuses.setdefault(key, set()).add(status)

    keys = sorted(names)
    uf = _UnionFind(keys)

    first_named: dict[str, tuple[Source, str]] = {}  # normalized name -> first key with it
    holders: dict[tuple[int, int, int], list] = {}  # prefix key -> keys holding it
    for key in keys:
        for name in filter(None, map(normalize_ixp_name, names[key])):
            uf.union(first_named.setdefault(name, key), key)
        for prefix in prefixes[key]:
            holders.setdefault(_prefix(prefix)[1], []).append(key)
    for (version, address, length), group in holders.items():
        bits = 32 if version == 4 else 128
        for outer in range(length + 1):
            host = bits - outer
            for other in holders.get((version, address >> host << host, outer), ()):
                uf.union(group[0], other)

    # Keys are visited in order, so groups come out ordered by smallest key.
    groups: dict = {}
    for key in keys:
        groups.setdefault(uf.find(key), []).append(key)

    width = max(4, len(str(len(groups))))
    identities = {}
    for seq, group in enumerate(groups.values(), start=1):
        group_names = sorted(set().union(*(names[k] for k in group)))
        # Canonical texts map one-to-one to keys: sorting by key sorts networks.
        group_nets = sorted(set().union(*(prefixes[k] for k in group)), key=lambda p: _prefix(p)[1])
        status = max(set().union(*(statuses[k] for k in group)), key=_STATUS_SEVERITY.get)
        identities[f"IXP{seq:0{width}d}"] = IxpIdentity(
            source_keys=frozenset(group),
            names=tuple(group_names),
            peering_prefixes=tuple(group_nets),
            status=status,
        )
    return identities


def sanitize(
    records: Sequence[MembershipRecord], parse_errors: int = 0
) -> tuple[BipartiteGraph, DiscardReport]:
    """Build the final graph from the records of both sources, and count what
    was dropped; ``parse_errors`` is how many rows their parse rejected.

    The records' IXPs are unified by ``merge_ixp_lists`` first, and each
    record joins the unified IXP of its (source, key). Then, in order: (1)
    drop IXPs flagged Inactive or NotApproved by any source, with their
    edges; (2) drop edges whose member_ip falls outside every peering prefix
    of the unified IXP; (3) collapse duplicate (ixp, asn) edges across
    sources, merging their sources sets; (4) keep only the giant component.
    Steps 1-3 are one pass over the rows in priority order (PDB first), and
    a row's fate is the first of them that drops it. An edge takes the first
    member_ip given among its kept rows; an AS the first as_type and prefix
    count given among all of its rows. Every record's member_ip is read as
    its canonical text and integer through ``_member_address``, so a record
    built in Python is treated as the row parser would have made it. The
    graph iterates in the order ``dumps_graph`` writes. Each
    step tallies the edges it drops, and a node under the step that drops
    its last edge; malformed rows count as ParseError edges. A reason is in
    the report when either of its tallies is non-zero.
    """
    identities = merge_ixp_lists(records)
    key_to_uid = {key: uid for uid, ident in identities.items() for key in ident.source_keys}

    def priority(record: MembershipRecord) -> tuple[bool, str]:
        # PDB data wins over PCH, for an edge's member_ip and for an AS's
        # attributes; a row without a member_ip comes first within its source.
        text = record.member_ip
        return record.source is not Source.PDB, "" if text is None else _member_address(text)[0]

    bad_uids = {uid for uid, ident in identities.items() if ident.status is not IxpStatus.ACTIVE}
    lans = {}  # unified IXP id -> (version, network as int, netmask as int) per prefix
    for uid, ident in identities.items():
        lans[uid] = nets = []
        for prefix in ident.peering_prefixes:
            version, network, length = _prefix(prefix)[1]
            bits = 32 if version == 4 else 128
            nets.append((version, network, (1 << bits) - (1 << bits - length)))
    edge_tally = dict.fromkeys(DiscardReason, 0) | {DiscardReason.PARSE_ERROR: parse_errors}
    linked = set()  # vertices with an edge left after (1)
    kept: dict[str, dict[int, list]] = {uid: {} for uid in identities}  # asn -> [ip, sources]
    as_types: dict[int, AsType | None] = {}
    pfx_counts: dict[int, int | None] = {}
    for record in sorted(records, key=priority):
        uid = key_to_uid[record.source, record.ixp_key]
        asn = record.asn
        # Every row, kept or dropped, feeds its AS: the first known value wins.
        if as_types.get(asn) is None:
            as_types[asn] = record.as_type
        if pfx_counts.get(asn) is None:
            pfx_counts[asn] = record.as_prefix_count
        # (1) inactive / not-approved IXPs
        if uid in bad_uids:
            edge_tally[DiscardReason.INACTIVE_IXP] += 1
            continue
        linked.update((uid, asn))
        # (2) member IPs outside the unified IXP's peering LAN
        member_ip = record.member_ip
        if member_ip is not None:
            member_ip, (version, ip) = _member_address(member_ip)
            for net_version, network, mask in lans[uid]:
                if net_version == version and ip & mask == network:
                    break
            else:
                edge_tally[DiscardReason.IP_INCONSISTENT] += 1
                continue
        # (3) duplicate collapse across sources
        edge = kept[uid].get(asn)
        if edge is None:
            kept[uid][asn] = [member_ip, {record.source}]
            continue
        edge_tally[DiscardReason.DUPLICATE_COLLAPSED] += 1
        if edge[0] is None:
            edge[0] = member_ip
        edge[1].add(record.source)
    # Edges by (uid, asn), uids being zero-padded; one frozenset per sources set.
    sets: dict[frozenset, frozenset] = {}
    edges = {}
    for uid, row in kept.items():
        for asn in sorted(row):
            member_ip, sources = row[asn][0], frozenset(row[asn][1])
            edges[uid, asn] = MembershipEdge(uid, asn, member_ip, sets.setdefault(sources, sources))
    if not edges:
        raise IxpGraphError("no membership edges survive sanitization")

    as_nodes = {
        asn: AsNode(asn=asn, as_type=AsType.UNKNOWN if as_types[asn] is None else as_types[asn],
                    prefix_count=pfx_counts[asn])
        for asn in sorted(as_types)
    }
    ixp_nodes = {
        uid: IxpNode(uid, list(ident.names), list(ident.peering_prefixes), status=ident.status)
        for uid, ident in identities.items() if uid not in bad_uids
    }
    graph = BipartiteGraph(ixps=ixp_nodes, ases=as_nodes, edges=edges)

    # (4) giant component. A node is tallied under the step that drops its
    # last edge: (1) takes the inactive IXPs and the ASes it leaves with no
    # edge, (2) the vertices it leaves with no edge, (4) the rest it drops.
    giant = model.giant_component(graph)
    nodes_total_pre = len(identities) + len(as_nodes)
    node_tally = dict.fromkeys(DiscardReason, 0)
    node_tally[DiscardReason.INACTIVE_IXP] = len(bad_uids) + len(as_nodes.keys() - linked)
    node_tally[DiscardReason.IP_INCONSISTENT] = len(linked - {v for pair in edges for v in pair})
    node_tally[DiscardReason.NOT_IN_GIANT_COMPONENT] = (
        nodes_total_pre - sum(node_tally.values()) - giant.num_nodes)
    edge_tally[DiscardReason.NOT_IN_GIANT_COMPONENT] = graph.num_edges - giant.num_edges
    reasons = {r: ReasonTally(node_tally[r], edge_tally[r])
               for r in DiscardReason if node_tally[r] or edge_tally[r]}
    return giant, DiscardReport(nodes_total_pre, len(records) + parse_errors, reasons)


def _as_type_row(row: list[str]) -> tuple[int, str, AsType]:
    asn_raw, type_raw = row
    return _parse_asn(asn_raw), "as_type", _by_value(AsType, type_raw)


def _location_row(row: list[str]) -> tuple[str, str, Location]:
    ixp_id, country, city, lat_raw, lon_raw = row
    return ixp_id, "location", Location(
        country=country,
        city=city,
        lat=_parse_decimal(lat_raw, real=True) if lat_raw else None,
        lon=_parse_decimal(lon_raw, real=True) if lon_raw else None,
    )


def attach_attributes(
    graph: BipartiteGraph,
    as_types_path=None,
    locations_path=None,
) -> tuple[BipartiteGraph, int]:
    """Attach AS types and IXP locations from attribute CSVs.

    Rows naming an ASN or IXP id that is not in the graph are skipped, and
    so is a row for a node that an earlier valid row of the same file set:
    the first valid row wins. The returned count says how many rows were
    ignored (including malformed ones). Passing no files returns the graph
    unchanged.
    """
    warnings = 0
    ases = dict(graph.ases)
    ixps = dict(graph.ixps)
    for path, header, nodes, parse_row in (
        (as_types_path, AS_TYPES_HEADER, ases, _as_type_row),
        (locations_path, LOCATIONS_HEADER, ixps, _location_row),
    ):
        if path is None:
            continue
        done = set()
        for row in _read_csv(path, header):
            try:
                key, field, value = parse_row(row)
                if key in done:
                    raise ValueError(f"{key} set by an earlier row")
                nodes[key] = nodes[key]._replace(**{field: value})
                done.add(key)
            except (KeyError, ValueError):
                warnings += 1

    # Attributes never touch edges: the edges and adjacency sets carry over.
    return BipartiteGraph._from_checked(ixps, ases, graph._ixp_members, graph._as_memberships,
                                        graph.edges), warnings


class BuildResult(NamedTuple):
    graph: BipartiteGraph
    report: DiscardReport
    attribute_warnings: int


def build_from_files(
    pdb_path,
    pch_path,
    as_types_path=None,
    locations_path=None,
) -> BuildResult:
    """Full pipeline: parse both datasets, sanitize their records together
    (merging their IXP identities), and optionally attach attributes."""
    pdb = parse_dataset(pdb_path, Source.PDB)
    pch = parse_dataset(pch_path, Source.PCH)
    graph, report = sanitize(pdb.records + pch.records, pdb.parse_errors + pch.parse_errors)
    graph, warnings = attach_attributes(graph, as_types_path, locations_path)
    return BuildResult(graph=graph, report=report, attribute_warnings=warnings)
