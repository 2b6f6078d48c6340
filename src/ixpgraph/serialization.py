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
    MAX_ASN,
    MembershipEdge,
    Source,
)

FORMAT_VERSION = 1
_NUMBER = (int, float, type(None))


def _location_to_dict(location: Location | None):
    if location is None:
        return None
    return {
        "country": location.country,
        "city": location.city,
        "lat": location.lat,
        "lon": location.lon,
    }


def graph_to_dict(graph: BipartiteGraph) -> dict:
    return {
        "version": FORMAT_VERSION,
        "ixps": [
            {
                "ixp_id": node.ixp_id,
                "names": list(node.names),
                "peering_prefixes": list(node.peering_prefixes),
                "status": node.status.value,
                "location": _location_to_dict(node.location),
            }
            for _, node in sorted(graph.ixps.items())
        ],
        "ases": [
            {
                "asn": node.asn,
                "as_type": node.as_type.value,
                "prefix_count": node.prefix_count,
            }
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


def _typed(name: str, value, kinds, what: str):
    """``value`` when it is an instance of ``kinds`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise FormatError(f"{name} must be {what}, got {value!r}")
    return value


def _strings(name: str, value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FormatError(f"{name} must be a list of strings, got {value!r}")
    return list(value)


def _ixp_id(value) -> str:
    return _typed("ixp_id", value, str, "a string")


def _asn(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_ASN:
        raise FormatError(f"asn must be an integer in 1..{MAX_ASN}, got {value!r}")
    return value


def graph_from_dict(data: dict) -> BipartiteGraph:
    if not isinstance(data, dict):
        raise FormatError("graph document must be a JSON object")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported graph format version {version!r}")
    for key in ("ixps", "ases", "edges"):
        if not isinstance(data.get(key), list):
            raise FormatError(f"graph document missing array {key!r}")
    try:
        ixps = {}
        for item in data["ixps"]:
            ixp_id = _ixp_id(item["ixp_id"])
            if ixp_id in ixps:
                raise FormatError(f"duplicate IXP {ixp_id!r}")
            loc = item.get("location")
            ixps[ixp_id] = IxpNode(
                ixp_id=ixp_id,
                names=_strings("names", item["names"]),
                peering_prefixes=_strings("peering_prefixes", item.get("peering_prefixes", [])),
                status=IxpStatus(item.get("status", "Active")),
                location=None if loc is None else Location(
                    country=_typed("country", loc["country"], str, "a string"),
                    city=_typed("city", loc["city"], str, "a string"),
                    lat=_typed("lat", loc.get("lat"), _NUMBER, "a number or null"),
                    lon=_typed("lon", loc.get("lon"), _NUMBER, "a number or null"),
                ),
            )
        ases = {}
        for item in data["ases"]:
            asn = _asn(item["asn"])
            if asn in ases:
                raise FormatError(f"duplicate AS {asn}")
            ases[asn] = AsNode(
                asn=asn,
                as_type=AsType(item.get("as_type", "Unknown")),
                prefix_count=_typed("prefix_count", item.get("prefix_count"),
                                    (int, type(None)), "an integer or null"),
            )
        edges = {}
        source_sets: dict[tuple[str, ...], frozenset] = {}  # a few distinct lists
        for item in data["edges"]:
            key = (_ixp_id(item["ixp_id"]), _asn(item["asn"]))
            if key in edges:
                raise FormatError(f"duplicate edge {key}")
            names = tuple(_strings("sources", item.get("sources", ["Other"])))
            sources = source_sets.get(names)
            if sources is None:
                sources = source_sets[names] = frozenset(map(Source, names))
            edges[key] = MembershipEdge(
                ixp_id=key[0],
                asn=key[1],
                member_ip=_typed("member_ip", item.get("member_ip"),
                                 (str, type(None)), "a string or null"),
                sources=sources,
            )
        return BipartiteGraph(ixps=ixps, ases=ases, edges=edges)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, UnknownEndpoint) as exc:
        raise FormatError(f"malformed graph document: {exc}") from exc


def dumps_graph(graph: BipartiteGraph) -> str:
    return json.dumps(graph_to_dict(graph), sort_keys=True, indent=2) + "\n"


def write_graph(graph: BipartiteGraph, path) -> None:
    """Write the graph atomically: a temp file in the target's directory is
    renamed over the target, so a failed write leaves the old file intact."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dumps_graph(graph))
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_graph(path) -> BipartiteGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        except RecursionError:
            raise FormatError(f"{path}: not valid JSON: nested too deeply") from None
    return graph_from_dict(data)


def membership_edgelist(graph: BipartiteGraph) -> str:
    """Bipartite edges as TSV lines "ixp_id<TAB>asn", sorted."""
    lines = [f"{ixp_id}\t{asn}" for ixp_id, asn in sorted(graph.edges)]
    return "\n".join(lines) + ("\n" if lines else "")
