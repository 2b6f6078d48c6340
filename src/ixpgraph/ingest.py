"""Dataset parsing, IXP identity merging, and graph sanitization.

Input files are UTF-8 CSV exports of IXP membership data (a leading
byte-order mark is accepted), one per source (PeeringDB-style and
PCH-style), sharing the header::

    source,ixp_key,ixp_name,ixp_prefixes,asn,member_ip,status,as_type,as_prefix_count

``ixp_prefixes`` is a ';'-separated CIDR list; member_ip, as_type and
as_prefix_count may be empty. Attribute files are ``asn,as_type`` and
``ixp_id,country,city,lat,lon``.

The cleaning pipeline runs in a fixed order: inactive-IXP removal, then
IP-consistency filtering, then cross-source duplicate collapsing, then
giant-component extraction. The order is part of the contract; running
the giant-component step earlier can change the result.
"""

from __future__ import annotations

import ipaddress
import re
from enum import Enum
from typing import NamedTuple, Sequence

from . import model
from .errors import EmptyGraph
from .model import (
    AsNode,
    AsType,
    BipartiteGraph,
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
    """One validated row of a membership dataset."""

    source: Source
    ixp_key: str
    ixp_name: str
    ixp_prefixes: tuple[str, ...]
    asn: int
    member_ip: str | None
    status: IxpStatus
    as_type: AsType | None = None
    as_prefix_count: int | None = None
    # member_ip as (IP version, integer): set by the row parser, else by sanitize.
    member_addr: tuple[int, int] | None = None


class ParseResult(NamedTuple):
    records: list[MembershipRecord]
    parse_errors: int


class IxpIdentity(NamedTuple):
    """An IXP unified across sources, with merged attributes."""

    ixp_id: str
    source_keys: frozenset[tuple[Source, str]]
    names: tuple[str, ...]
    peering_prefixes: tuple[str, ...]
    status: IxpStatus


def _parse_prefixes(raw: str) -> tuple[str, ...]:
    return tuple(str(ipaddress.ip_network(part, strict=False))
                 for part in map(str.strip, raw.split(";")) if part)


def _parse_row(row: list[str], expected_source: Source,
               prefix_lists: dict[str, tuple[str, ...]]) -> MembershipRecord:
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
    prefixes = prefix_lists.get(prefixes_raw)
    if prefixes is None:
        prefixes = prefix_lists[prefixes_raw] = _parse_prefixes(prefixes_raw)
    ip = ipaddress.ip_address(ip_raw) if ip_raw else None
    return MembershipRecord(
        source=source,
        ixp_key=ixp_key,
        ixp_name=ixp_name,
        ixp_prefixes=prefixes,
        asn=asn,
        member_ip=None if ip is None else str(ip),
        status=_by_value(IxpStatus, status_raw),
        as_type=_by_value(AsType, type_raw) if type_raw else None,
        as_prefix_count=pfx_count,
        member_addr=None if ip is None else (ip.version, int(ip)),
    )


def parse_dataset(path, source: Source) -> ParseResult:
    """Parse one membership CSV; malformed rows are counted, not fatal."""
    records = []
    errors = 0
    prefix_lists: dict[str, tuple[str, ...]] = {}  # raw ixp_prefixes -> canonical tuple
    for row in _read_csv(path, DATASET_HEADER):
        try:
            records.append(_parse_row(row, source, prefix_lists))
        except ValueError:
            errors += 1
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


def merge_ixp_lists(
    pdb: Sequence[MembershipRecord], pch: Sequence[MembershipRecord]
) -> dict[str, IxpIdentity]:
    """Unify source-local IXPs across the two datasets.

    Two IXPs become one node when a peering prefix is identical or nested,
    or when their normalized names match; unification is the transitive
    closure of those matches. Unified ids are "IXP" plus a zero-padded
    sequence number, assigned in order of each group's smallest (source,
    key) pair, so the numbering is reproducible. A ``Source`` compares by
    its value and no value is a prefix of another, so the pairs sort as
    their "source:key" texts do.

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
    canonical: dict[str, str] = {}  # prefix text as given -> canonical CIDR text
    prefix_keys: dict[str, tuple[int, int, int]] = {}
    for record in list(pdb) + list(pch):
        key = (record.source, record.ixp_key)
        names.setdefault(key, set()).add(record.ixp_name)
        for prefix in record.ixp_prefixes:
            if prefix not in canonical:
                net = ipaddress.ip_network(prefix, strict=False)
                canonical[prefix] = text = str(net)
                prefix_keys[text] = (net.version, int(net.network_address), net.prefixlen)
        prefixes.setdefault(key, set()).update(map(canonical.get, record.ixp_prefixes))
        statuses.setdefault(key, set()).add(record.status)

    keys = sorted(names)
    uf = _UnionFind(keys)

    first_named: dict[str, tuple[Source, str]] = {}  # normalized name -> first key with it
    holders: dict[tuple[int, int, int], list] = {}  # prefix key -> keys holding it
    for key in keys:
        for name in names[key]:
            uf.union(first_named.setdefault(normalize_ixp_name(name), key), key)
        for prefix in prefixes[key]:
            holders.setdefault(prefix_keys[prefix], []).append(key)
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
        ixp_id = f"IXP{seq:0{width}d}"
        group_names = sorted(set().union(*(names[k] for k in group)))
        # Canonical texts map one-to-one to keys: sorting by key sorts networks.
        group_nets = sorted(set().union(*(prefixes[k] for k in group)), key=prefix_keys.get)
        status = max(set().union(*(statuses[k] for k in group)), key=_STATUS_SEVERITY.get)
        identities[ixp_id] = IxpIdentity(
            ixp_id=ixp_id,
            source_keys=frozenset(group),
            names=tuple(group_names),
            peering_prefixes=tuple(group_nets),
            status=status,
        )
    return identities


def _record_priority(record: MembershipRecord) -> tuple:
    # PDB data wins over PCH, for an edge's member_ip and for an AS's
    # attributes; a row without a member_ip comes first within its source.
    return (0 if record.source is Source.PDB else 1, record.member_ip or "")


def sanitize(
    records: Sequence[MembershipRecord],
    identities: dict[str, IxpIdentity],
    parse_errors: int = 0,
) -> tuple[BipartiteGraph, DiscardReport]:
    """Run the fixed cleaning pipeline and build the final graph.

    Steps, in order: (1) drop IXPs flagged Inactive or NotApproved by any
    source, with their edges; (2) drop edges whose member_ip falls outside
    every peering prefix of the unified IXP; (3) collapse duplicate
    (ixp, asn) edges across sources, merging their sources sets; (4) keep
    only the giant component. Steps 1-3 are one pass over the rows in
    priority order (PDB first), and a row's fate is the first of them that
    drops it. An edge takes the first member_ip given among its kept rows;
    an AS the first as_type and prefix count given among all of its rows.
    Each step tallies the edges it drops, and a node under the step that
    drops its last edge; malformed rows count as ParseError edges. A reason
    is in the report when either of its tallies is non-zero.
    """
    key_to_uid = {key: uid for uid, ident in identities.items() for key in ident.source_keys}
    rows = []  # (unified IXP id, record)
    for record in records:
        uid = key_to_uid.get((record.source, record.ixp_key))
        if uid is None:
            raise ValueError(f"record references unmerged IXP key {record.ixp_key!r}")
        if record.member_addr is None and record.member_ip is not None:
            ip = ipaddress.ip_address(record.member_ip)
            record = record._replace(member_addr=(ip.version, int(ip)))
        rows.append((uid, record))
    rows.sort(key=lambda row: _record_priority(row[1]))

    bad_uids = {uid for uid, ident in identities.items() if ident.status is not IxpStatus.ACTIVE}
    nets = {
        uid: [(net.version, int(net.network_address), int(net.netmask))
              for net in map(ipaddress.ip_network, ident.peering_prefixes)]
        for uid, ident in identities.items()
    }
    edge_tally = dict.fromkeys(DiscardReason, 0) | {DiscardReason.PARSE_ERROR: parse_errors}
    linked = set()  # vertices with an edge left after (1)
    edges: dict[tuple[str, int], MembershipEdge] = {}
    as_types: dict[int, AsType | None] = {}
    pfx_counts: dict[int, int | None] = {}
    for uid, record in rows:
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
        if record.member_addr is not None:
            version, ip = record.member_addr
            if not any(version == v and ip & mask == net for v, net, mask in nets[uid]):
                edge_tally[DiscardReason.IP_INCONSISTENT] += 1
                continue
        # (3) duplicate collapse across sources
        edge = edges.get((uid, asn))
        if edge is None:
            edges[uid, asn] = MembershipEdge(uid, asn, record.member_ip, {record.source})
            continue
        edge_tally[DiscardReason.DUPLICATE_COLLAPSED] += 1
        member_ip = record.member_ip if edge.member_ip is None else edge.member_ip
        edges[uid, asn] = MembershipEdge(uid, asn, member_ip, edge.sources | {record.source})
    if not edges:
        raise EmptyGraph("no membership edges survive sanitization")

    as_nodes = {
        asn: AsNode(asn=asn, as_type=AsType.UNKNOWN if as_type is None else as_type,
                    prefix_count=pfx_counts[asn])
        for asn, as_type in as_types.items()
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

    if as_types_path is not None:
        typed = set()
        for row in _read_csv(as_types_path, AS_TYPES_HEADER):
            try:
                asn_raw, type_raw = row
                asn = _parse_asn(asn_raw)
                if asn in typed:
                    raise ValueError(f"AS {asn} typed by an earlier row")
                ases[asn] = ases[asn]._replace(as_type=_by_value(AsType, type_raw))
                typed.add(asn)
            except (KeyError, ValueError):
                warnings += 1

    if locations_path is not None:
        located = set()
        for row in _read_csv(locations_path, LOCATIONS_HEADER):
            try:
                ixp_id, country, city, lat_raw, lon_raw = row
                if ixp_id in located:
                    raise ValueError(f"IXP {ixp_id} located by an earlier row")
                ixps[ixp_id] = ixps[ixp_id]._replace(location=Location(
                    country=country,
                    city=city,
                    lat=_parse_decimal(lat_raw, real=True) if lat_raw else None,
                    lon=_parse_decimal(lon_raw, real=True) if lon_raw else None,
                ))
                located.add(ixp_id)
            except (KeyError, ValueError):
                warnings += 1

    return BipartiteGraph(ixps=ixps, ases=ases, edges=graph.edges), warnings


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
    """Full pipeline: parse both datasets, merge IXP identities, sanitize,
    and optionally attach attributes."""
    pdb = parse_dataset(pdb_path, Source.PDB)
    pch = parse_dataset(pch_path, Source.PCH)
    identities = merge_ixp_lists(pdb.records, pch.records)
    graph, report = sanitize(
        pdb.records + pch.records,
        identities,
        parse_errors=pdb.parse_errors + pch.parse_errors,
    )
    graph, warnings = attach_attributes(graph, as_types_path, locations_path)
    return BuildResult(graph=graph, report=report, attribute_warnings=warnings)
