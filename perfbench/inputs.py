"""Seeded inputs for the benchmark workloads, with the results they must give.

One generator makes every input. ``base_edges`` draws a paper-scale
IXP-AS membership graph; ``make_plan`` derives from it

* the PDB/PCH membership CSV pair and the ``--as-types`` and
  ``--locations`` files that ``ixpgraph build`` reads, planted so that
  every ingest stage has work to do (merges by name, by equal and by
  nested prefix, inactive IXPs, IP-inconsistent rows, cross-source
  duplicates, off-giant fragments and malformed rows);
* the graph that ``build`` must produce from them (``Plan.graph``), which
  is also the graph file the query workloads read;
* the report ``build`` must print.

Nothing here imports ixpgraph: inputs and expected results follow from
the seed alone, so a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import ipaddress
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

DATASET_HEADER = ("source,ixp_key,ixp_name,ixp_prefixes,asn,"
                  "member_ip,status,as_type,as_prefix_count")

METROS = [
    ("DE", "Frankfurt", 50.11, 8.68), ("NL", "Amsterdam", 52.37, 4.9),
    ("GB", "London", 51.51, -0.13), ("US", "Ashburn", 39.04, -77.49),
    ("US", "New York", 40.71, -74.01), ("BR", "Sao Paulo", -23.55, -46.63),
    ("JP", "Tokyo", 35.68, 139.69), ("SG", "Singapore", 1.35, 103.82),
    ("FR", "Paris", 48.86, 2.35), ("RU", "Moscow", 55.76, 37.62),
    ("US", "Chicago", 41.88, -87.63), ("HK", "Hong Kong", 22.32, 114.17),
    ("SE", "Stockholm", 59.33, 18.07), ("US", "Los Angeles", 34.05, -118.24),
    ("PL", "Warsaw", 52.23, 21.01), ("IT", "Milan", 45.46, 9.19),
    ("ES", "Madrid", 40.42, -3.7), ("AU", "Sydney", -33.87, 151.21),
    ("ZA", "Johannesburg", -26.2, 28.05), ("CZ", "Prague", 50.08, 14.44),
    ("AT", "Vienna", 48.21, 16.37), ("CH", "Zurich", 47.38, 8.54),
    ("UA", "Kyiv", 50.45, 30.52), ("IN", "Mumbai", 19.08, 72.88),
    ("CA", "Toronto", 43.65, -79.38), ("AR", "Buenos Aires", -34.6, -58.38),
    ("KE", "Nairobi", -1.29, 36.82), ("FI", "Helsinki", 60.17, 24.94),
    ("NZ", "Auckland", -36.85, 174.76), ("DE", "Berlin", 52.52, 13.41),
]

_V4_BLOCK = 1 << 14  # one /18 per IXP: room for every AS of the graph


def base_edges(seed: int, n_ixp: int, n_as: int) -> set[tuple[int, int]]:
    """Paper-scale membership edges (ixp index, asn), giant component only.

    A copy of the test suite's ``paper_scale_graph``: 43% of ASes at degree
    1, a Pareto(1.35) tail capped at 350, Zipf(0.8) IXP popularity. One
    change: the Pareto degrees are taken at evenly spaced quantiles instead
    of drawn, so every seed has the same degree multiset and the seed only
    decides which AS gets which degree and which IXPs it joins. Drawn
    degrees make the IXP projection vary from 59k to 101k edges between
    seeds, and the kernels' run time with it.
    """
    rng = random.Random(seed)
    n_one = round(0.43 * n_as)
    n_tail = n_as - n_one
    degrees = [1] * n_one + [
        min(2 + int(((k + 0.5) / n_tail) ** (-1 / 1.35)), 350) for k in range(n_tail)
    ]
    rng.shuffle(degrees)
    weights = [1.0 / (i + 1) ** 0.8 for i in range(n_ixp)]
    edges = set()
    for asn, deg in enumerate(degrees, start=1):
        chosen: set[int] = set()
        deg = min(deg, n_ixp)
        while len(chosen) < deg:
            chosen.update(rng.choices(range(n_ixp), weights=weights, k=deg - len(chosen)))
        edges.update((i, asn) for i in chosen)
    return _giant(edges)


def _giant(edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    adj: dict = {}
    for i, a in edges:
        adj.setdefault(("x", i), []).append(("a", a))
        adj.setdefault(("a", a), []).append(("x", i))
    unseen = set(adj)
    best: set = set()
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            frontier = [w for v in frontier for w in adj[v] if w not in comp and not comp.add(w)]
        unseen -= comp
        if len(comp) > len(best):
            best = comp
    return {(i, a) for i, a in edges if ("x", i) in best}


@dataclass
class Graph:
    """A graph in the shape of the canonical graph file (format version 1)."""

    ixps: dict[str, dict] = field(default_factory=dict)
    ases: dict[int, dict] = field(default_factory=dict)
    edges: dict[tuple[str, int], dict] = field(default_factory=dict)

    def members(self) -> dict[str, set[int]]:
        out: dict[str, set[int]] = {i: set() for i in self.ixps}
        for i, a in self.edges:
            out[i].add(a)
        return out

    def memberships(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {a: set() for a in self.ases}
        for i, a in self.edges:
            out[a].add(i)
        return out

    def to_json(self) -> str:
        """The bytes ``ixpgraph`` writes for this graph: sorted keys, indent 2."""
        doc = {
            "version": 1,
            "ixps": [dict(self.ixps[i], ixp_id=i) for i in sorted(self.ixps)],
            "ases": [dict(self.ases[a], asn=a) for a in sorted(self.ases)],
            "edges": [dict(self.edges[k], ixp_id=k[0], asn=k[1]) for k in sorted(self.edges)],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def edgelist(self) -> str:
        return "".join(f"{i}\t{a}\n" for i, a in sorted(self.edges))


@dataclass
class Plan:
    """Every generated input of one seed and size, with its expected results."""

    pdb_rows: list[str]
    pch_rows: list[str]
    as_type_rows: list[str]
    location_rows: list[str]
    graph: Graph
    report: dict            # the discard report ``build --json`` would give
    attribute_warnings: int
    planted: dict[str, int]  # how much work each ingest stage gets

    def build_stdout(self, out_name: str) -> str:
        g, r = self.graph, self.report
        lines = [
            f"graph: {len(g.ixps)} IXPs, {len(g.ases)} ASes, {len(g.edges)} edges -> {out_name}",
            f"discarded: {r['nodes_discarded']} of {r['nodes_total_pre']} nodes, "
            f"{r['edges_discarded']} of {r['edges_total_pre']} edges",
        ]
        lines += [f"  {reason}: {t['nodes']} nodes, {t['edges']} edges"
                  for reason, t in r["reasons"].items()]
        if self.attribute_warnings:
            lines.append(f"attribute warnings: {self.attribute_warnings}")
        return "\n".join(lines) + "\n"

    def write_build_inputs(self, directory: Path) -> None:
        _write(directory / "pdb.csv", [DATASET_HEADER, *self.pdb_rows])
        _write(directory / "pch.csv", [DATASET_HEADER, *self.pch_rows])
        _write(directory / "as_types.csv", ["asn,as_type", *self.as_type_rows])
        _write(directory / "locations.csv", ["ixp_id,country,city,lat,lon", *self.location_rows])


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class _Ixp:
    block: int
    kind: str                      # see make_plan
    v4: ipaddress.IPv4Network
    v6: ipaddress.IPv6Network | None
    pdb_key: str | None = None
    pch_key: str | None = None
    pdb_name: str = ""
    pch_name: str = ""
    pdb_prefixes: tuple = ()
    pch_prefixes: tuple = ()
    pdb_status: str = "Active"
    pch_status: str = "Active"
    uid: str = ""

    def source_keys(self) -> list[str]:
        keys = []
        if self.pdb_key is not None:
            keys.append(f"PDB:{self.pdb_key}")
        if self.pch_key is not None:
            keys.append(f"PCH:{self.pch_key}")
        return keys

    def host(self, h: int, v6: bool) -> str:
        net = self.v6 if v6 else self.v4
        return str(net.network_address + h)

    def contains(self, ip: str) -> bool:
        addr = ipaddress.ip_address(ip)
        nets = set(self.pdb_prefixes) | set(self.pch_prefixes)
        return any(addr.version == n.version and addr in n for n in nets)


# Share of the graph's IXPs per kind. "same", "nested" and "name" appear in
# both sources and merge by equal prefix, nested prefix and normalized name.
_KINDS = (("same", 0.40), ("nested", 0.20), ("name", 0.15), ("pdb", 0.15), ("pch", 0.10))


def make_plan(seed: int, n_ixp: int, n_as: int) -> Plan:
    edges = base_edges(seed, n_ixp, n_as)
    rng = random.Random(f"{seed}:sources")
    true_ixps = sorted({i for i, _ in edges})
    asns = sorted({a for _, a in edges})
    n_inactive = max(2, len(true_ixps) // 50)
    n_fragments = max(2, len(true_ixps) // 100)

    ixps: list[_Ixp] = []
    kinds = [k for k, _ in _KINDS]
    shares = [s for _, s in _KINDS]
    for block in range(len(true_ixps) + n_inactive + n_fragments):
        if block < len(true_ixps):
            kind = rng.choices(kinds, weights=shares)[0]
        elif block < len(true_ixps) + n_inactive:
            kind = "inactive" if block % 2 else "notapproved"
        else:
            kind = "fragment"
        v4 = ipaddress.ip_network(((10 << 24) + block * _V4_BLOCK, 18))
        v6 = (ipaddress.ip_network(f"2001:db8:{block:x}::/64")
              if kind in kinds and rng.random() < 0.3 else None)
        ixps.append(_Ixp(block=block, kind=kind, v4=v4, v6=v6))

    pch_numbers = list(range(1, len(ixps) + 1))
    rng.shuffle(pch_numbers)
    for x in ixps:
        own = (x.v4,) + ((x.v6,) if x.v6 else ())
        if x.kind != "pch":
            x.pdb_key = str(x.block + 1)
            x.pdb_prefixes = own
            x.pdb_name = {"inactive": f"Closed-{x.block} Exchange",
                          "notapproved": f"Closed-{x.block} Exchange",
                          "fragment": f"Island-{x.block} IX"}.get(x.kind, f"Metro-{x.block} IX")
        if x.kind in ("same", "nested", "name", "pch", "notapproved"):
            x.pch_key = str(pch_numbers[x.block])
            x.pch_name = {"name": rng.choice([f"METRO {x.block}  ix", f"metro_{x.block}.IX"]),
                          "notapproved": f"CX{x.block}"}.get(x.kind, f"M{x.block}-IX")
            x.pch_prefixes = {"nested": (next(x.v4.subnets(1)),), "name": ()}.get(x.kind, own)
        if x.kind == "inactive":
            x.pdb_status = "Inactive"
        if x.kind == "notapproved":
            x.pch_status = "NotApproved"

    # Unified ids: "IXP" + sequence number in order of each group's smallest
    # source key, zero-padded to at least 4 digits.
    width = max(4, len(str(len(ixps))))
    for seq, x in enumerate(sorted(ixps, key=lambda x: min(x.source_keys())), start=1):
        x.uid = f"IXP{seq:0{width}d}"

    # AS attributes; every valid row of an AS carries the same ones.
    as_type: dict[int, str | None] = {}
    prefix_count: dict[int, int | None] = {}
    degree = Counter(a for _, a in edges)
    fragment_asns = []
    next_asn = max(asns) + 100
    for x in ixps:
        if x.kind == "fragment":
            fragment_asns.append(list(range(next_asn, next_asn + rng.randint(2, 3))))
            next_asn += 3
    for a in asns + [a for group in fragment_asns for a in group]:
        as_type[a] = rng.choices(["ISP", "Content", "Enterprise", None],
                                 weights=[55, 15, 20, 10])[0]
        prefix_count[a] = (None if rng.random() < 0.05
                           else 1 + int(rng.lognormvariate(1.5, 1.0) * degree.get(a, 1)))

    rows = {"PDB": [], "PCH": []}
    counts = Counter()

    def row(source, x: _Ixp, asn, ip, junk=None):
        key, name, prefixes, status = (
            (x.pdb_key, x.pdb_name, x.pdb_prefixes, x.pdb_status) if source == "PDB"
            else (x.pch_key, x.pch_name, x.pch_prefixes, x.pch_status))
        fields = [source, key, name, ";".join(map(str, prefixes)), str(asn), ip or "",
                  status, as_type[asn] or "", "" if prefix_count[asn] is None else str(prefix_count[asn])]
        for index, value in (junk or {}).items():
            fields[index] = value
        rows[source].append(",".join(fields))

    def member_ip(x: _Ixp, h: int) -> str | None:
        if rng.random() < 0.1:
            return None
        return x.host(h, v6=x.v6 is not None and rng.random() < 0.3)

    def pch_ip(x: _Ixp, h: int, ip: str | None) -> str | None:
        r = rng.random()
        if r < 0.2:
            return None
        if r < 0.35 and ip is not None:
            # The sources disagree on the address; PDB's wins the collapse.
            return x.host(h + _V4_BLOCK // 2, v6=":" in ip)
        return ip

    graph = Graph()
    by_ixp: dict[int, list[int]] = {}
    for i, a in edges:
        by_ixp.setdefault(i, []).append(a)
    for x, i in zip(ixps, true_ixps):
        graph.ixps[x.uid] = {
            "names": sorted({n for n in (x.pdb_name, x.pch_name) if n}),
            "peering_prefixes": [str(n) for n in sorted(
                set(x.pdb_prefixes) | set(x.pch_prefixes),
                key=lambda n: (n.version, int(n.network_address), n.prefixlen))],
            "status": "Active",
            "location": None,
        }
        for h, a in enumerate(sorted(by_ixp[i]), start=1):
            if x.kind == "pdb":
                sources = ["PDB"]
            elif x.kind == "pch":
                sources = ["PCH"]
            else:
                # The first member is listed by both, so both source keys exist.
                r = 0.0 if h == 1 else rng.random()
                sources = ["PDB", "PCH"] if r < 0.55 else ["PDB"] if r < 0.8 else ["PCH"]
            ip = member_ip(x, h)
            listed = [(s, ip if s == "PDB" else pch_ip(x, h, ip)) for s in sources]
            if len(listed) == 2 and rng.random() < 0.1:
                # One source reports an address off the peering LAN (or of an
                # IP version the LAN lacks); the other row keeps the edge.
                bad = rng.randrange(2)
                off_lan = rng.choice([f"192.168.{h // 256}.{h % 256}", f"2001:db8:ffff::{h:x}"])
                listed[bad] = (listed[bad][0], off_lan)
                counts["ip_inconsistent"] += 1
            kept = [(s, p) for s, p in listed if p is None or x.contains(p)]
            counts["duplicates"] += len(kept) - 1
            counts["conflicting_addresses"] += len({p for _, p in kept if p is not None}) > 1
            for s, p in listed:
                row(s, x, a, p)
            best = sorted(kept, key=lambda sp: (sp[0] != "PDB", sp[1] or ""))
            graph.edges[(x.uid, a)] = {
                "member_ip": next((p for _, p in best if p is not None), None),
                "sources": sorted({s for s, _ in kept}),
            }
        counts[f"merged_{x.kind}"] += x.kind in ("same", "nested", "name")

    inactive_rows = 0
    fragment_groups = iter(fragment_asns)
    for x in ixps[len(true_ixps):]:
        if x.kind == "fragment":
            members = next(fragment_groups)
            counts["fragment_nodes"] += 1 + len(members)
            counts["fragment_edges"] += len(members)
        else:
            members = rng.sample(asns, rng.randint(5, 30))
            counts["inactive_ixps"] += 1
        for h, a in enumerate(members, start=1):
            ip = x.host(h, v6=False)
            row("PDB", x, a, ip)
            inactive_rows += x.kind != "fragment"
            if x.kind == "notapproved" and (h == 1 or rng.random() < 0.5):
                row("PCH", x, a, ip)
                inactive_rows += 1

    # Rows that fail validation, one defect each.
    some = next(x for x in ixps if x.pdb_key)
    pch_some = next(x for x in ixps if x.pch_key)
    a0 = asns[0]
    for junk in ({4: "AS64x"}, {6: "Retired"}, {5: "300.1.2.3"}, {4: "0"}):
        row("PDB", some, a0, some.host(1, False), junk)
    rows["PDB"].append(rows["PDB"][-1].rsplit(",", 1)[0])  # a field short
    for junk in ({3: "10.0.0.0/33"}, {7: "Transit"}, {8: "-5"}, {2: ""}):
        row("PCH", pch_some, a0, None, junk)
    malformed = 9
    for source in rows:
        rng.shuffle(rows[source])

    for a in asns:
        graph.ases[a] = {"as_type": as_type[a] or "Unknown", "prefix_count": prefix_count[a]}

    # --as-types: fill in every untyped AS, retype a few, and add rows the
    # build must skip with a warning (ASes off the graph, malformed rows).
    as_type_rows = []
    for a in asns:
        if as_type[a] is None or rng.random() < 0.05:
            new = rng.choice(["ISP", "Content", "Enterprise"])
            graph.ases[a]["as_type"] = new
            as_type_rows.append(f"{a},{new}")
    skipped = [f"{a},ISP" for group in fragment_asns for a in group]
    skipped += [f"{next_asn + 1000},Content", "abc,ISP", f"{asns[1]},Transit", f"{asns[2]}"]
    as_type_rows += skipped
    warnings = len(skipped)

    # --locations, keyed by unified id; lopsided so a few metros hold many IXPs.
    location_rows = []
    metro_weights = [1.0 / (m + 1) for m in range(len(METROS))]
    for x in ixps[:len(true_ixps)]:
        country, city, lat, lon = rng.choices(METROS, weights=metro_weights)[0]
        if rng.random() < 0.05:
            location_rows.append(f"{x.uid},{country},{city},,")
            loc = {"country": country, "city": city, "lat": None, "lon": None}
        else:
            location_rows.append(f"{x.uid},{country},{city},{lat},{lon}")
            loc = {"country": country, "city": city, "lat": lat, "lon": lon}
        graph.ixps[x.uid]["location"] = loc
    skipped = [f"{x.uid},DE,Berlin,52.52,13.41" for x in ixps[len(true_ixps):]]
    skipped += ["IXP0001,DE,Berlin,north,13.41", "IXP0002,DE,Berlin"]
    location_rows += skipped
    warnings += len(skipped)
    rng.shuffle(as_type_rows)
    rng.shuffle(location_rows)

    duplicates = counts["duplicates"]
    n_bad = counts["inactive_ixps"]
    reasons = {
        "DuplicateCollapsed": {"nodes": 0, "edges": duplicates},
        "InactiveIxp": {"nodes": n_bad, "edges": inactive_rows},
        "IpInconsistent": {"nodes": 0, "edges": counts["ip_inconsistent"]},
        "NotInGiantComponent": {"nodes": counts["fragment_nodes"], "edges": counts["fragment_edges"]},
        "ParseError": {"nodes": 0, "edges": malformed},
    }
    report = {
        "nodes_total_pre": len(ixps) + len(as_type),
        "edges_total_pre": len(rows["PDB"]) + len(rows["PCH"]),
        "nodes_discarded": sum(t["nodes"] for t in reasons.values()),
        "edges_discarded": sum(t["edges"] for t in reasons.values()),
        "reasons": reasons,
    }
    planted = {
        "merged_by_equal_prefix": counts["merged_same"],
        "merged_by_nested_prefix": counts["merged_nested"],
        "merged_by_name": counts["merged_name"],
        "inactive_ixps": n_bad,
        "ip_inconsistent_rows": counts["ip_inconsistent"],
        "cross_source_duplicates": duplicates,
        "conflicting_addresses": counts["conflicting_addresses"],
        "fragment_nodes": counts["fragment_nodes"],
        "malformed_rows": malformed,
        "attribute_warnings": warnings,
    }
    empty = [name for name, n in planted.items() if n == 0]
    if empty:
        raise ValueError(f"seed {seed} plants no work for: {', '.join(empty)}")
    return Plan(rows["PDB"], rows["PCH"], as_type_rows, location_rows,
                graph, report, warnings, planted)
