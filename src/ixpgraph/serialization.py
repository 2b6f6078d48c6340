"""Canonical on-disk formats: versioned graph JSON and edgelist export.

The JSON writer is deterministic byte for byte: keys are sorted, arrays
are emitted in a fixed order (IXPs by id, ASes by number, edges by
(ixp_id, asn)), and the file ends with a single newline. Writing the
same graph twice produces identical files, which makes snapshots
diffable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import FormatError, UnknownEndpoint
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
    except FormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, UnknownEndpoint) as exc:
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


def write_graph(graph: BipartiteGraph, path) -> None:
    """Write the graph atomically: a temp file in the target's directory is
    renamed over the target, so a failed write leaves the old file intact.
    An ``OSError`` names ``path``, never the temp file."""
    target = Path(path)
    if not target.name:
        raise ValueError(f"cannot write a graph to {str(path)!r}: not a file name")
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dumps_graph(graph))
        os.replace(tmp, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)  # already gone after a successful replace


def read_graph(path) -> BipartiteGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, not UTF-8, or an int past the digit limit
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        except RecursionError:
            raise FormatError(f"{path}: not valid JSON: nested too deeply") from None
    return graph_from_dict(data)


def membership_edgelist(graph: BipartiteGraph) -> str:
    """Bipartite edges as TSV lines "ixp_id<TAB>asn", sorted."""
    lines = [f"{ixp_id}\t{asn}" for ixp_id, asn in sorted(graph.edges)]
    return "\n".join(lines) + ("\n" if lines else "")
