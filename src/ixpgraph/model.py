"""Attributed graph types for the IXP-membership view of the Internet.

The central structure is the :class:`BipartiteGraph`: IXP vertices on one
side, AS vertices on the other, and membership edges only.

Nodes and edges are immutable records. A graph is not changed once built:
``ingest.attach_attributes``, say, returns a new graph.
"""

from __future__ import annotations

import csv
import functools
import re
from collections import namedtuple
from enum import Enum
from typing import Iterable, Union

NodeId = Union[str, int]
MAX_ASN = 2**32 - 1


class IxpGraphError(Exception):
    """A domain error: bad input data, or a graph a command cannot answer for."""


class AsType(str, Enum):
    CONTENT = "Content"
    ENTERPRISE = "Enterprise"
    ISP = "ISP"
    UNKNOWN = "Unknown"


class IxpStatus(str, Enum):
    ACTIVE = "Active"
    INACTIVE = "Inactive"
    NOT_APPROVED = "NotApproved"


class Source(str, Enum):
    PDB = "PDB"
    PCH = "PCH"
    OTHER = "Other"


class NodeClass(str, Enum):
    IXP = "IXP"
    AS = "AS"


def _by_value(kind: type[Enum], value) -> Enum:
    """``kind(value)`` by dict lookup; an unknown or unhashable value still raises there."""
    try:
        return kind._value2member_map_[value]
    except (KeyError, TypeError):
        return kind(value)


_INTEGER = re.compile(r"-?[0-9]+")
_REAL = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


def _parse_decimal(raw: str, real: bool = False) -> int | float:
    """A plain decimal number: ASCII digits with an optional leading '-',
    and one '.' fraction where ``real``. Unlike ``int()`` and ``float()`` it
    takes no '_' separator, no other script's digits, no exponent, no
    surrounding space and no 'nan' or 'inf'."""
    if (_REAL if real else _INTEGER).fullmatch(raw) is None:
        raise ValueError(f"not a decimal number: {raw!r}")
    return float(raw) if real else int(raw)


def _parse_asn(raw: str) -> int:
    asn = _parse_decimal(raw)
    if not 0 < asn <= MAX_ASN:
        raise ValueError(f"asn must be in 1..{MAX_ASN}, got {asn}")
    return asn


def _read_csv(path, expected_header: list[str]) -> Iterable[list[str]]:
    """The rows after the header, each field stripped of surrounding
    whitespace; a row whose fields are all empty (a blank line, say) is
    skipped. A row the reader cannot split (a field over the csv module's
    size limit, say) ends the file with an ``IxpGraphError``: the reader cannot
    resume after it. So does a byte that is not UTF-8."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IxpGraphError(f"{path}: empty file, expected header {','.join(expected_header)}")
            if [h.strip().lower() for h in header] != expected_header:
                raise IxpGraphError(f"{path}: unrecognized header {','.join(header)!r}")
            for row in reader:
                row = [field.strip() for field in row]
                if any(row):
                    yield row
        except csv.Error as exc:
            raise IxpGraphError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise IxpGraphError(f"{path}: not UTF-8 text: {exc}") from None


# Records are namedtuple subclasses whose __new__ tests each field inline,
# on exact types (a bool is no number), then calls tuple.__new__ as the
# namedtuple's own __new__ would: one Python call fewer per record, on the
# 20k built per graph load. ``_replace`` skips __new__, so it may only set
# a value that passes the field's test: ``ingest.attach_attributes`` sets
# only an ``AsType`` or a ``Location`` its own __new__ has checked.
class Location(namedtuple("Location", "country city lat lon")):
    """An IXP's metro; ``lat`` and ``lon``, when known, are finite degrees
    in [-90, 90] and [-180, 180]."""

    __slots__ = ()

    def __new__(cls, country: str, city: str, lat: float | None = None,
                lon: float | None = None):
        for name, value in (("country", country), ("city", city)):
            if type(value) is not str:
                raise ValueError(f"{name} must be a string, got {value!r}")
        for name, value, limit in (("lat", lat, 90), ("lon", lon, 180)):
            if value is not None and type(value) is not float and type(value) is not int:
                raise ValueError(f"{name} must be a number or null, got {value!r}")
            # NaN and the infinities fail this range test too.
            if value is not None and not -limit <= value <= limit:
                raise ValueError(f"{name} must be a finite number in "
                                 f"[-{limit}, {limit}], got {value!r}")
        return tuple.__new__(cls, (country, city, lat, lon))


class AsNode(namedtuple("AsNode", "asn as_type prefix_count")):
    """An autonomous system vertex.

    ``prefix_count`` is the total number of announced IP prefixes; ``None``
    means unknown.
    """

    __slots__ = ()

    def __new__(cls, asn: int, as_type: AsType = AsType.UNKNOWN,
                prefix_count: int | None = None):
        if type(asn) is not int or not 0 < asn <= MAX_ASN:
            raise ValueError(f"asn must be an integer in 1..{MAX_ASN}, got {asn!r}")
        if type(as_type) is not AsType:
            raise ValueError(f"as_type must be an AsType, got {as_type!r}")
        if prefix_count is not None and type(prefix_count) is not int:
            raise ValueError(f"prefix_count must be an integer or null, got {prefix_count!r}")
        if prefix_count is not None and prefix_count < 0:
            raise ValueError(f"prefix_count must be non-negative, got {prefix_count!r}")
        return tuple.__new__(cls, (asn, as_type, prefix_count))


class IxpNode(namedtuple("IxpNode", "ixp_id names peering_prefixes location status")):
    """An Internet eXchange Point vertex.

    ``names`` holds one display name per source dataset (at least one).
    ``peering_prefixes`` are the distinct CIDR blocks of the IXP's peering
    LAN (a new empty list when not given).
    """

    __slots__ = ()

    def __new__(cls, ixp_id: str, names: list[str], peering_prefixes: list[str] | None = None,
                location: Location | None = None, status: IxpStatus = IxpStatus.ACTIVE):
        if type(ixp_id) is not str:
            raise ValueError(f"ixp_id must be a string, got {ixp_id!r}")
        if type(names) is not list or not names or not all(type(n) is str for n in names):
            raise ValueError(f"names must be a non-empty list of strings, got {names!r}")
        prefixes = [] if peering_prefixes is None else peering_prefixes
        if (type(prefixes) is not list or not all(type(p) is str for p in prefixes)
                or len(set(prefixes)) != len(prefixes)):
            raise ValueError(f"peering_prefixes must be a list of distinct strings, got {prefixes!r}")
        if location is not None and type(location) is not Location:
            raise ValueError(f"location must be a Location or null, got {location!r}")
        if type(status) is not IxpStatus:
            raise ValueError(f"status must be an IxpStatus, got {status!r}")
        return tuple.__new__(cls, (ixp_id, names, prefixes, location, status))


class MembershipEdge(namedtuple("MembershipEdge", "ixp_id asn member_ip sources")):
    """One IXP-AS membership. Parallel edges per (ixp_id, asn) are forbidden;
    the same membership seen in several datasets merges its ``sources`` set."""

    __slots__ = ()

    def __new__(cls, ixp_id: str, asn: int, member_ip: str | None = None,
                sources: frozenset[Source] = frozenset({Source.OTHER})):
        if type(ixp_id) is not str:
            raise ValueError(f"ixp_id must be a string, got {ixp_id!r}")
        if type(asn) is not int or not 0 < asn <= MAX_ASN:
            raise ValueError(f"asn must be an integer in 1..{MAX_ASN}, got {asn!r}")
        if member_ip is not None and type(member_ip) is not str:
            raise ValueError(f"member_ip must be a string or null, got {member_ip!r}")
        sources = frozenset(sources)
        if not sources:
            raise ValueError("membership edge needs a non-empty sources set")
        for source in sources:  # by type(), as "PDB" == Source.PDB
            if type(source) is not Source:
                raise ValueError(f"sources must hold only Source members, got {source!r}")
        return tuple.__new__(cls, (ixp_id, asn, member_ip, sources))


class BipartiteGraph:
    """The IXP-AS membership graph.

    Vertex classes live in disjoint key spaces (string ixp_id vs integer
    asn), so AS-AS or IXP-IXP edges cannot even be represented. Edges are
    keyed by (ixp_id, asn), which enforces membership-level uniqueness.
    Two graphs are equal when their ``ixps``, ``ases`` and ``edges`` are.
    """

    def __init__(self, ixps: dict[str, IxpNode] | None = None,
                 ases: dict[int, AsNode] | None = None,
                 edges: dict[tuple[str, int], MembershipEdge] | None = None):
        self.ixps = {} if ixps is None else ixps
        self.ases = {} if ases is None else ases
        self.edges = {} if edges is None else edges
        # Adjacency caches, derived from edges.
        members = self._ixp_members = {ixp_id: set() for ixp_id in self.ixps}
        memberships = self._as_memberships = {asn: set() for asn in self.ases}
        for (ixp_id, asn), edge in self.edges.items():
            if ixp_id not in members or asn not in memberships:
                raise ValueError(f"edge ({ixp_id!r}, {asn}) references a missing vertex")
            if edge.ixp_id != ixp_id or edge.asn != asn:
                raise ValueError(f"edge keyed ({ixp_id!r}, {asn}) disagrees with its fields")
            members[ixp_id].add(asn)
            memberships[asn].add(ixp_id)

    @classmethod
    def _from_checked(cls, ixps, ases, members, memberships, edges) -> BipartiteGraph:
        """A graph of records and adjacency sets already checked against each
        other, skipping ``__init__``'s per-edge loop; ``edges`` is the edge
        dict or a ``_make_edges`` that makes it when first read."""
        graph = cls.__new__(cls)
        vars(graph).update(ixps=ixps, ases=ases, _ixp_members=members, _as_memberships=memberships)
        vars(graph)["edges" if isinstance(edges, dict) else "_make_edges"] = edges
        return graph

    @functools.cached_property
    def edges(self) -> dict[tuple[str, int], MembershipEdge]:
        """Set by ``__init__``. A graph that ``serialization.read_graph``
        rebuilds from its cache is made by ``_from_checked`` with its adjacency
        and a ``_make_edges`` that makes its edge records here, when first read."""
        return self.__dict__.pop("_make_edges")()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ixps, self.ases, self.edges) == (other.ixps, other.ases, other.edges)

    @property
    def num_nodes(self) -> int:
        return len(self.ixps) + len(self.ases)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def members(self, ixp_id: str) -> set[int]:
        """ASNs with a membership at the given IXP: the graph's own set, not to be changed."""
        try:
            return self._ixp_members[ixp_id]
        except KeyError:
            raise IxpGraphError(f"unknown IXP {ixp_id!r}") from None

    def memberships(self, asn: int) -> set[str]:
        """IXP ids the given AS is a member of: the graph's own set, not to be changed."""
        try:
            return self._as_memberships[asn]
        except KeyError:
            raise IxpGraphError(f"unknown AS {asn}") from None


def giant_component(graph: BipartiteGraph) -> BipartiteGraph:
    """Induced subgraph on the largest connected component.

    Largest by vertex count; ties broken by larger edge count, then by the
    lexicographically smallest contained node label, so the result is
    deterministic. An empty graph's giant component is an empty graph.
    """
    best, best_key = set(), (0,)  # every component's key sorts before (0,)
    unvisited: set[NodeId] = set(graph.ixps) | set(graph.ases)
    while unvisited:
        start = next(iter(unvisited))
        seen = {start}
        frontier = [start]
        degrees = 0  # twice the component's edge count
        while frontier:
            nxt = []
            for v in frontier:
                neighbors = graph.members(v) if isinstance(v, str) else graph.memberships(v)
                degrees += len(neighbors)
                for w in neighbors:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        key = (-len(seen), -degrees, min(str(v) for v in seen))
        if key < best_key:
            best, best_key = seen, key
        unvisited -= seen
    # A component holds every neighbour of its nodes, so the records and
    # adjacency sets carry over, and an edge is in it exactly when its IXP is.
    ixps = {i: n for i, n in graph.ixps.items() if i in best}
    ases = {a: n for a, n in graph.ases.items() if a in best}
    return BipartiteGraph._from_checked(
        ixps, ases, {i: graph.members(i) for i in ixps}, {a: graph.memberships(a) for a in ases},
        {key: e for key, e in graph.edges.items() if key[0] in best})
