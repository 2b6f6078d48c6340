"""Canonical on-disk formats: versioned graph JSON and edgelist export.

The JSON writer is deterministic byte for byte: keys are sorted, arrays
are emitted in a fixed order (IXPs by id, ASes by number, edges by
(ixp_id, asn)), and the file ends with a single newline. Writing the
same graph twice produces identical files, which makes snapshots
diffable. The reader keeps what it validated in a cache beside the file
(see ``read_graph``).
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import marshal
import os
import stat
import sys
from pathlib import Path

from . import model
from .errors import FormatError
from .model import (
    AsNode,
    AsType,
    BipartiteGraph,
    IxpNode,
    IxpStatus,
    Location,
    MembershipEdge,
    Source,
    _by_value,
)

FORMAT_VERSION = 1
_str = json.encoder.encode_basestring_ascii  # json.dumps's escaper by default


def graph_from_dict(data: dict) -> BipartiteGraph:
    """The graph a parsed document describes. Each record checks its own fields;
    this maps keys onto records and checks what needs the whole document: its
    shape and version, duplicates, and the names in each edge's ``sources``."""
    if not isinstance(data, dict):
        raise FormatError("graph document must be a JSON object")
    version = data.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported graph format version {version!r}")
    for key in ("ixps", "ases", "edges"):
        if not isinstance(data.get(key), list):
            raise FormatError(f"graph document missing array {key!r}")
    try:
        ixps = {}
        for item in data["ixps"]:
            loc = item.get("location")
            if loc is not None:
                loc = Location(loc["country"], loc["city"], loc.get("lat"), loc.get("lon"))
            node = IxpNode(item["ixp_id"], item["names"], item.get("peering_prefixes", []), loc,
                           _by_value(IxpStatus, item.get("status", "Active")))
            if node.ixp_id in ixps:
                raise FormatError(f"duplicate IXP {node.ixp_id!r}")
            ixps[node.ixp_id] = node
        ases = {}
        for item in data["ases"]:
            asn = item["asn"]
            node = AsNode(asn, _by_value(AsType, item.get("as_type", "Unknown")),
                          item.get("prefix_count"))
            if asn in ases:
                raise FormatError(f"duplicate AS {asn}")
            ases[asn] = node
        edges = {}
        source_sets: dict[tuple[str, ...], frozenset] = {}  # a few distinct lists
        for item in data["edges"]:
            names = item.get("sources", ["Other"])
            try:
                sources = source_sets[tuple(names) if type(names) is list else None]
            except (KeyError, TypeError):  # unseen, not a list, or holding an unhashable item
                if type(names) is not list or not all(type(name) is str for name in names):
                    raise FormatError(f"sources must be a list of strings, got {names!r}") from None
                sources = source_sets[tuple(names)] = frozenset(map(Source, names))
            ixp_id, asn = item["ixp_id"], item["asn"]
            edge = MembershipEdge(ixp_id, asn, item.get("member_ip"), sources)
            if (ixp_id, asn) in edges:
                raise FormatError(f"duplicate edge {(ixp_id, asn)}")
            edges[ixp_id, asn] = edge
        return BipartiteGraph(ixps=ixps, ases=ases, edges=edges)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed graph document: {exc}") from exc


def _array(items: list[str], pad: str) -> str:
    """Encoded ``items`` as ``json.dumps(indent=2)`` lays out an array closed at ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def dumps_graph(graph: BipartiteGraph) -> str:
    """The bytes ``json.dumps(sort_keys=True, indent=2)`` gives for the graph's
    document (the oracle in ``tests/oracles.py``), written directly: keys in
    sorted order, strings by json's ASCII escaper, ``int`` fields as decimals."""
    ixps = []
    for _, node in sorted(graph.ixps.items()):
        loc = node.location
        location = "null" if loc is None else (
            f'{{\n        "city": {_str(loc.city)},\n        "country": {_str(loc.country)},'
            f'\n        "lat": {json.dumps(loc.lat)},'
            f'\n        "lon": {json.dumps(loc.lon)}\n      }}')
        ixps.append(
            f'{{\n      "ixp_id": {_str(node.ixp_id)},\n      "location": {location},'
            f'\n      "names": {_array([*map(_str, node.names)], "      ")},'
            f'\n      "peering_prefixes": {_array([*map(_str, node.peering_prefixes)], "      ")},'
            f'\n      "status": {_str(node.status.value)}\n    }}')
    ases = [
        f'{{\n      "as_type": {_str(node.as_type.value)},\n      "asn": {node.asn},'
        f'\n      "prefix_count": {"null" if node.prefix_count is None else node.prefix_count}'
        '\n    }'
        for _, node in sorted(graph.ases.items())
    ]
    rendered = {  # each distinct sources set once
        sources: _array([_str(s) for s in sorted(x.value for x in sources)], "      ")
        for sources in {edge.sources for edge in graph.edges.values()}
    }
    edges = [
        f'{{\n      "asn": {edge.asn},\n      "ixp_id": {_str(edge.ixp_id)},\n      "member_ip": '
        f'{"null" if edge.member_ip is None else _str(edge.member_ip)},'
        f'\n      "sources": {rendered[edge.sources]}\n    }}'
        for _, edge in sorted(graph.edges.items())
    ]
    return (f'{{\n  "ases": {_array(ases, "  ")},\n  "edges": {_array(edges, "  ")},'
            f'\n  "ixps": {_array(ixps, "  ")},\n  "version": {FORMAT_VERSION}\n}}\n')


def _write_atomically(target: Path, data: bytes) -> None:
    """Write ``data`` to a temp file in ``target``'s directory and rename it
    over ``target``, so a failed write leaves the old file intact. The temp
    file is created new: a file or symlink already at its path is an error,
    never written through."""
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    fh = open(tmp, "xb")  # O_CREAT | O_EXCL, which refuses a symlink too
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_graph(graph: BipartiteGraph, path) -> None:
    """Write the graph atomically: a temp file in the target's directory is
    renamed over the target, so a failed write leaves the old file intact.
    An ``OSError`` names ``path``, never the temp file."""
    target = Path(path)
    if not target.name:
        raise ValueError(f"cannot write a graph to {str(path)!r}: not a file name")
    data = dumps_graph(graph).encode()
    try:
        _write_atomically(target, data)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def read_graph(path) -> BipartiteGraph:
    """The graph a graph file holds, read and validated from its bytes once.

    A regular file (not a pipe, and not named through a symlink) gets a cache
    file beside it, ``.<name>.ixpgraph``, holding the validated graph. It is
    keyed by a SHA-256 over the file's bytes, the source of this module and of
    ``model``, and the interpreter's cache tag and marshal version. A later
    read of the same bytes by the same code rebuilds the graph from the cache
    without parsing or checking again. A cache that is missing, stale, corrupt,
    a symlink or another user's is ignored and rewritten, and an error reading
    or writing it is ignored. Only the file's owner reads or writes its cache,
    as ``marshal`` is not safe on another user's bytes, so where ``os`` has no
    ``geteuid`` (not POSIX) there is no cache and every read parses and checks
    the JSON. A file that fails validation writes no cache."""
    with open(path, "rb") as fh:
        raw = fh.read()
        st = os.fstat(fh.fileno())
    cache = _cache_path(path, st)
    if cache is not None:
        digest = _code_hash().copy()
        digest.update(raw)
        key = digest.digest()
        graph = _load_cache(cache, key)
        if graph is not None:
            return graph
    try:  # decoded as a text-mode read would: UTF-8 only, universal newlines
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except ValueError as exc:  # bad JSON, not UTF-8, or an int past the digit limit
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise FormatError(f"{path}: not valid JSON: nested too deeply") from None
    graph = graph_from_dict(data)
    if cache is not None:
        try:
            _write_atomically(cache, _cache_bytes(key, graph))
        except OSError:
            pass  # an unwritable directory, say: the graph file stays the authority
    return graph


def _cache_path(path, st: os.stat_result) -> Path | None:
    """Where the cache of the graph file at ``path``, whose open file ``st``
    describes, lives; ``None`` when it gets none: when the platform has no file
    owners (no ``os.geteuid``), when it is no regular file of this process's
    effective user, when ``path`` is a symlink (``/dev/stdin``, say) or when
    the reading code's source cannot be read."""
    if not hasattr(os, "geteuid"):  # no file owners, so no trust rule for a cache
        return None
    try:
        if (not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid() or _code_hash() is None
                or not os.path.samestat(os.lstat(path), st)):
            return None
    except OSError:
        return None
    path = Path(path)
    return path.with_name(f".{path.name}.ixpgraph")


@functools.cache
def _code_hash():
    """A SHA-256 over what a cache entry's validity rests on apart from the
    graph bytes: the interpreter's cache tag and marshal version, and the
    source of the reading and checking code, which defines the cache's payload
    too; ``None`` when that source cannot be read."""
    digest = hashlib.sha256(f"{sys.implementation.cache_tag}\0{marshal.version}".encode())
    try:
        for name in (model.__file__, __file__):
            source = Path(name).read_bytes()
            digest.update(len(source).to_bytes(8, "big") + source)
    except OSError:  # run from a zip archive, say
        return None
    return digest


def _cache_bytes(key: bytes, graph: BipartiteGraph) -> bytes:
    """``key``, the payload's SHA-256, then the payload: the graph's IXP and AS
    rows in dict order, each IXP's member ASNs and each AS's IXP ids in edge
    order, and the edge section, the edge rows marshalled apart with each
    distinct ``sources`` set once."""
    members = {ixp_id: [] for ixp_id in graph.ixps}
    memberships = {asn: [] for asn in graph.ases}
    sets: dict[frozenset, int] = {}
    edges = []
    for e in graph.edges.values():
        members[e.ixp_id].append(e.asn)
        memberships[e.asn].append(e.ixp_id)
        edges.append((e.ixp_id, e.asn, e.member_ip, sets.setdefault(e.sources, len(sets))))
    payload = marshal.dumps((
        [(n.ixp_id, n.names, n.peering_prefixes, n.location and tuple(n.location),
          n.status.value) for n in graph.ixps.values()],
        [(n.asn, n.as_type.value, n.prefix_count) for n in graph.ases.values()],
        list(members.values()),
        list(memberships.values()),
        marshal.dumps((edges, [[s.value for s in sources] for sources in sets])),
    ))
    return key + hashlib.sha256(payload).digest() + payload


def _load_cache(cache: Path, key: bytes) -> BipartiteGraph | None:
    """The graph in ``cache`` when it is a regular file of this process's
    effective user holding an intact payload under ``key``; ``None`` otherwise.
    Each adjacency set is built from one list in edge order, so it iterates as
    the miss's, built by one ``add`` per edge, does. The edge records are made
    on first use."""
    try:
        # No symlink is followed, and a pipe put here cannot block the open.
        fd = os.open(cache, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        with open(fd, "rb") as fh:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid():
                return None
            blob = fh.read()
    except OSError:
        return None
    payload = memoryview(blob)[64:]
    if blob[:32] != key or hashlib.sha256(payload).digest() != blob[32:64]:
        return None
    ixp_rows, as_rows, members, memberships, edge_section = marshal.loads(payload)
    new = tuple.__new__
    status, as_type = IxpStatus._value2member_map_, AsType._value2member_map_
    ixps = {row[0]: new(IxpNode, (*row[:3], row[3] and new(Location, row[3]), status[row[4]]))
            for row in ixp_rows}
    ases = {asn: new(AsNode, (asn, as_type[kind], count)) for asn, kind, count in as_rows}
    graph = BipartiteGraph.__new__(BipartiteGraph)
    vars(graph).update(ixps=ixps, ases=ases,
                       _ixp_members=dict(zip(ixps, map(set, members))),
                       _as_memberships=dict(zip(ases, map(set, memberships))),
                       _make_edges=functools.partial(_edges, edge_section))
    return graph


def _edges(section: bytes) -> dict[tuple[str, int], MembershipEdge]:
    """The edge records a cache's edge section holds, keyed in dict order."""
    rows, source_rows = marshal.loads(section)
    new = tuple.__new__
    sets = [frozenset(map(Source._value2member_map_.__getitem__, values))
            for values in source_rows]
    return {(ixp_id, asn): new(MembershipEdge, (ixp_id, asn, ip, sets[k]))
            for ixp_id, asn, ip, k in rows}


def membership_edgelist(graph: BipartiteGraph) -> str:
    """Bipartite edges as TSV lines "ixp_id<TAB>asn", sorted."""
    lines = [f"{ixp_id}\t{asn}" for ixp_id, asn in sorted(graph.edges)]
    return "\n".join(lines) + ("\n" if lines else "")
