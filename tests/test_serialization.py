"""Canonical graph JSON and edgelist export."""

import hashlib
import itertools
import json
import marshal
import os
import random
import re
import threading
from pathlib import Path

import pytest

import oracles

from ixpgraph import model, serialization
from ixpgraph.ingest import sanitize
from ixpgraph.model import (
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
from ixpgraph.serialization import (
    dumps_graph,
    graph_from_dict,
    membership_edgelist,
    read_graph,
    write_graph,
)

from conftest import build_graph, make_g0, paper_scale_graph, sanitize_test_sets
from oracles import graph_to_dict


def attributed_graph():
    """A small graph exercising every serializable attribute."""
    return build_graph(
        [
            IxpNode("X1", ["One", "Uno"], peering_prefixes=["192.0.2.0/24"],
                    location=Location("DE", "Frankfurt", 50.1, 8.68),
                    status=IxpStatus.ACTIVE),
            IxpNode("X2", ["Two"]),
        ],
        [
            AsNode(1, as_type=AsType.ISP, prefix_count=10),
            AsNode(2),
        ],
        [
            MembershipEdge("X1", 1, member_ip="192.0.2.9",
                           sources=frozenset({Source.PDB, Source.PCH})),
            MembershipEdge("X1", 2),
            MembershipEdge("X2", 1),
        ],
    )


class TestRoundTrip:
    def test_dumps_loads_byte_identical(self):
        graph = attributed_graph()
        text = dumps_graph(graph)
        again = dumps_graph(graph_from_dict(json.loads(text)))
        assert again == text

    def test_loaded_graph_equals_original(self):
        graph = attributed_graph()
        loaded = graph_from_dict(json.loads(dumps_graph(graph)))
        assert loaded == graph

    def test_file_round_trip(self, tmp_path):
        graph = attributed_graph()
        path = tmp_path / "g.json"
        write_graph(graph, path)
        assert read_graph(path) == graph

    def test_writes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_graph(make_g0(), a)
        write_graph(make_g0(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "g.json"
        write_graph(make_g0(), path)
        before = path.read_bytes()

        def boom(graph):
            raise RuntimeError("disk full")

        monkeypatch.setattr("ixpgraph.serialization.dumps_graph", boom)
        with pytest.raises(RuntimeError):
            write_graph(build_graph([], [], []), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "g.json"
        write_graph(make_g0(), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError) as info:
            write_graph(build_graph([], [], []), path)
        assert info.value.filename == str(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    def test_link_planted_at_the_temp_path_is_not_followed(self, tmp_path):
        path = tmp_path / "g.json"
        write_graph(make_g0(), path)
        before = path.read_bytes()
        victim = tmp_path / "victim"
        victim.write_bytes(b"not a graph")
        planted = tmp_path / f".g.json.{os.getpid()}.tmp"
        planted.symlink_to(victim)
        with pytest.raises(FileExistsError) as info:
            write_graph(build_graph([], [], []), path)
        assert info.value.filename == str(path)
        assert victim.read_bytes() == b"not a graph"
        assert path.read_bytes() == before and not path.is_symlink()
        assert planted.is_symlink()

    def test_trailing_newline(self):
        assert dumps_graph(make_g0()).endswith("}\n")

    def test_version_field_present(self):
        assert graph_to_dict(make_g0())["version"] == 1


# Strings the writer must escape exactly as json.dumps does: a quote, a
# backslash, control characters, non-ASCII text and a non-BMP character.
TRICKY = ['plain', 'say "hi"', "back\\slash", "tab\tnew\nline\x01\x7f", "Zürich", "東京",
          "emoji \U0001F600", "\U0001D518 math", "", " ", "/slash/", "\u2028sep"]
LATS = [None, 0, -0.0, 1e-05, 50.1, -33.86, 90, 12]
LONS = [None, 0, -0.0, 1e-05, 8.68, -180, 179.99999999999997, -7]
ALL_SOURCES = [frozenset(c) for n in (1, 2, 3) for c in itertools.combinations(Source, n)]


def random_attributed_graph(seed: int) -> BipartiteGraph:
    """A seeded graph that draws every attribute the file carries from
    values that stress the writer."""
    rng = random.Random(seed)
    ixps = []
    for i in range(rng.randint(0, 6)):
        location = None if rng.random() < 0.3 else Location(
            rng.choice(TRICKY), rng.choice(TRICKY), rng.choice(LATS), rng.choice(LONS))
        prefixes = rng.sample(["192.0.2.0/24", "2001:db8::/32", "10.0.0.0/8"], rng.randint(0, 3))
        ixps.append(IxpNode(f"X{i}{rng.choice(TRICKY)}", rng.sample(TRICKY, rng.randint(1, 3)),
                            peering_prefixes=prefixes, location=location,
                            status=rng.choice(list(IxpStatus))))
    ases = [AsNode(rng.choice([1, 2**32 - 1, rng.randint(2, 2**32 - 2)]) if i == 0 else 1000 + i,
                   as_type=rng.choice(list(AsType)),
                   prefix_count=rng.choice([None, 0, 7, 10**9]))
            for i in range(rng.randint(0, 8))]
    edges = [
        MembershipEdge(x.ixp_id, a.asn,
                       member_ip=rng.choice([None, "192.0.2.9", "2001:db8::1", "fe80::1%eth0"]),
                       sources=rng.choice(ALL_SOURCES))
        for x in ixps for a in ases if rng.random() < 0.5
    ]
    return build_graph(ixps, ases, edges)


class TestWriterOracle:
    """dumps_graph writes the bytes of json.dumps(sort_keys=True, indent=2)."""

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_json_dumps(self, seed):
        graph = random_attributed_graph(seed)
        text = dumps_graph(graph)
        assert text == oracles.dumps_graph(graph)
        assert graph_from_dict(json.loads(text)) == graph

    def test_random_graphs_cover_the_tricky_values(self):
        graphs = [random_attributed_graph(seed) for seed in range(200)]
        text = "".join(oracles.dumps_graph(g) for g in graphs)
        for needle in ['\\"hi\\"', "back\\\\slash", "\\u0001", "\\u00fc", "\\ud83d\\ude00",
                       '"lat": -0.0', '"lon": 1e-05', '"lat": null', '"lat": 90,',
                       '"member_ip": null', '"2001:db8::1"', '"peering_prefixes": []',
                       '"prefix_count": null', '"edges": []', '"location": null']:
            assert needle in text, needle
        used = {e.sources for g in graphs for e in g.edges.values()}
        assert used == set(ALL_SOURCES)

    @pytest.mark.parametrize("graph", [BipartiteGraph(), build_graph([IxpNode("X", ["X"])], [AsNode(1)], [])],
                             ids=["empty", "no-edges"])
    def test_graphs_without_edges(self, graph):
        assert dumps_graph(graph) == oracles.dumps_graph(graph)

    def test_paper_scale_write_read_write(self, tmp_path):
        graph = paper_scale_graph()
        path = tmp_path / "g.json"
        write_graph(graph, path)
        data = path.read_bytes()
        assert data == oracles.dumps_graph(graph).encode()
        again = tmp_path / "again.json"
        write_graph(read_graph(path), again)
        assert again.read_bytes() == data


def _edge(field, value):
    def mutate(doc):
        doc["edges"][0][field] = value
    return mutate


def _as(field, value):
    def mutate(doc):
        doc["ases"][0][field] = value
    return mutate


def _ixp(field, value):
    def mutate(doc):
        doc["ixps"][0][field] = value
    return mutate


# Each loader check with its whole message. A field's own rule lives in its
# record, whose ValueError the loader reports as a malformed document; the
# checks that need the whole document (duplicates, sources names) raise
# their own message.
LOADER_MESSAGES = [
    ("edge-bool-asn", _edge("asn", True),
     "malformed graph document: asn must be an integer in 1..4294967295, got True"),
    ("edge-zero-asn", _edge("asn", 0),
     "malformed graph document: asn must be an integer in 1..4294967295, got 0"),
    ("edge-33-bit-asn", _edge("asn", 2**32),
     "malformed graph document: asn must be an integer in 1..4294967295, got 4294967296"),
    ("edge-float-asn", _edge("asn", 1.0),
     "malformed graph document: asn must be an integer in 1..4294967295, got 1.0"),
    ("as-bool-asn", _as("asn", True),
     "malformed graph document: asn must be an integer in 1..4294967295, got True"),
    ("as-zero-asn", _as("asn", 0),
     "malformed graph document: asn must be an integer in 1..4294967295, got 0"),
    ("as-33-bit-asn", _as("asn", 2**32),
     "malformed graph document: asn must be an integer in 1..4294967295, got 4294967296"),
    ("as-float-asn", _as("asn", 1.0),
     "malformed graph document: asn must be an integer in 1..4294967295, got 1.0"),
    ("edge-int-ixp-id", _edge("ixp_id", 7),
     "malformed graph document: ixp_id must be a string, got 7"),
    ("empty-sources", _edge("sources", []),
     "malformed graph document: membership edge needs a non-empty sources set"),
    ("unhashable-sources", _edge("sources", [{}]), "sources must be a list of strings, got [{}]"),
    ("unknown-source", _edge("sources", ["PDB", "Bogus"]),
     "malformed graph document: 'Bogus' is not a valid Source"),
    ("duplicate-edge", lambda doc: doc["edges"].append(dict(doc["edges"][0])),
     "duplicate edge ('X1', 1)"),
    ("int-member-ip", _edge("member_ip", 5),
     "malformed graph document: member_ip must be a string or null, got 5"),
    ("bool-prefix-count", _as("prefix_count", True),
     "malformed graph document: prefix_count must be an integer or null, got True"),
    ("unknown-as-type", _as("as_type", "Bogus"),
     "malformed graph document: 'Bogus' is not a valid AsType"),
    ("list-as-type", _as("as_type", ["ISP"]),
     "malformed graph document: ['ISP'] is not a valid AsType"),
    ("unknown-status", _ixp("status", "Bogus"),
     "malformed graph document: 'Bogus' is not a valid IxpStatus"),
    ("list-status", _ixp("status", ["Active"]),
     "malformed graph document: ['Active'] is not a valid IxpStatus"),
    ("missing-edge-asn", lambda doc: doc["edges"][0].pop("asn"), "edges[0]: missing key 'asn'"),
    ("missing-ixp-id", lambda doc: doc["ixps"][2].pop("ixp_id"), "ixps[2]: missing key 'ixp_id'"),
    ("missing-status", lambda doc: doc["ixps"][1].pop("status"), "IXP 'X2': missing key 'status'"),
    ("missing-lat", _ixp("location", {"country": "DE", "city": "Berlin", "lon": None}),
     "location of IXP 'X1': missing key 'lat'"),
    ("missing-as-type", lambda doc: doc["ases"][3].pop("as_type"), "AS 4: missing key 'as_type'"),
    ("missing-sources", lambda doc: doc["edges"][-1].pop("sources"),
     "edge ('X3', 1): missing key 'sources'"),
    ("missing-id-of-bad-ixp", lambda doc: doc["ixps"][0].update(ixp_id=7, status=None)
     or doc["ixps"][0].pop("names"), "IXP 7: missing key 'names'"),
    ("edge-to-missing-as", _edge("asn", 99),
     "malformed graph document: edge ('X1', 99) references a missing vertex"),
    ("int-ixp-item", lambda doc: doc.update(ixps=[1], ases=[], edges=[]),
     "malformed graph document: 'int' object is not subscriptable"),
    ("list-edge-item", lambda doc: doc.update(ixps=[], ases=[], edges=[[1]]),
     "malformed graph document: list indices must be integers or slices, not str"),
    ("bool-version", lambda doc: doc.update(version=True), "unsupported graph format version True"),
    ("float-version", lambda doc: doc.update(version=1.0), "unsupported graph format version 1.0"),
]


class TestLoaderMessages:
    @pytest.mark.parametrize("mutate, message", [case[1:] for case in LOADER_MESSAGES],
                             ids=[case[0] for case in LOADER_MESSAGES])
    def test_one_line_message(self, mutate, message):
        doc = graph_to_dict(make_g0())
        mutate(doc)
        with pytest.raises(IxpGraphError) as info:
            graph_from_dict(json.loads(json.dumps(doc)))
        assert str(info.value) == message

    def test_unhashable_sources_after_cached_lists(self):
        doc = graph_to_dict(make_g0())
        doc["edges"][-1]["sources"] = ["PDB", ["PCH"]]
        with pytest.raises(IxpGraphError, match=r"^sources must be a list of strings, got "):
            graph_from_dict(doc)

    def test_records_refuse_what_the_reader_refuses(self, tmp_path):
        # Each case: a graph holding the bad value, the same value in a
        # document, and the field's one message for both.
        cases = [
            (lambda: build_graph([], [AsNode(True)], []), _as("asn", True),
             "asn must be an integer in 1..4294967295, got True"),
            (lambda: build_graph([IxpNode("X", ["X"], location=Location("DE", "Berlin", True))],
                                 [], []),
             _ixp("location", {"country": "DE", "city": "Berlin", "lat": True, "lon": None}),
             "lat must be a number or null, got True"),
            (lambda: build_graph([], [AsNode(1, prefix_count=2.5)], []),
             _as("prefix_count", 2.5), "prefix_count must be an integer or null, got 2.5"),
            (lambda: build_graph([IxpNode("X", ["X"])], [AsNode(1)],
                                 [MembershipEdge("X", 1, member_ip=5)]),
             _edge("member_ip", 5), "member_ip must be a string or null, got 5"),
            (lambda: build_graph([IxpNode("X", "X")], [], []), _ixp("names", "X"),
             "names must be a non-empty list of strings, got 'X'"),
        ]
        written, bad = tmp_path / "written.json", tmp_path / "bad.json"
        for graph, mutate, message in cases:
            # write_graph never gets such a graph, so it writes no file that
            # read_graph rejects.
            with pytest.raises(ValueError) as refused:
                write_graph(graph(), written)
            assert str(refused.value) == message
            assert not written.exists()
            doc = graph_to_dict(make_g0())
            mutate(doc)
            bad.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(IxpGraphError) as rejected:
                read_graph(bad)
            assert str(rejected.value) == "malformed graph document: " + message


    def test_write_graph_writes_no_enum_the_reader_rejects(self, tmp_path):
        # A wrong enum member would be written as its value ("as_type":
        # "Active") and a bare string source has no .value; the records
        # refuse both, so write_graph never gets such a graph.
        written = tmp_path / "written.json"
        for graph in (lambda: build_graph([], [AsNode(1, as_type=IxpStatus.ACTIVE)], []),
                      lambda: build_graph([IxpNode("X", ["X"])], [AsNode(1)],
                                          [MembershipEdge("X", 1, sources={"PDB"})])):
            with pytest.raises(ValueError):
                write_graph(graph(), written)
            assert not written.exists()
        doc = graph_to_dict(make_g0())
        _as("as_type", "Active")(doc)
        written.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(IxpGraphError, match="'Active' is not a valid AsType"):
            read_graph(written)


class TestFormatErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("definitely not json", encoding="utf-8")
        with pytest.raises(IxpGraphError, match=rf"^{re.escape(str(path))}: not valid JSON: "):
            read_graph(path)

    def test_number_past_the_int_digit_limit_names_the_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"version": 1, "ixps": [], "ases": [], "edges": [%s]}' % ("9" * 5000),
                        encoding="utf-8")
        with pytest.raises(IxpGraphError, match=rf"^{re.escape(str(path))}: not valid JSON: "):
            read_graph(path)

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(IxpGraphError, match="nested too deeply"):
            read_graph(path)

    def test_wrong_version(self):
        data = graph_to_dict(make_g0())
        data["version"] = 99
        with pytest.raises(IxpGraphError, match=r"^unsupported graph format version 99$"):
            graph_from_dict(data)

    def test_missing_arrays(self):
        with pytest.raises(IxpGraphError, match=r"^graph document missing array 'edges'$"):
            graph_from_dict({"version": 1, "ixps": [], "ases": []})

    def test_non_object_document(self):
        with pytest.raises(IxpGraphError, match=r"^graph document must be a JSON object$"):
            graph_from_dict([1, 2, 3])

    def test_malformed_node_entry(self):
        data = graph_to_dict(make_g0())
        del data["ases"][0]["asn"]
        with pytest.raises(IxpGraphError, match=r"^ases\[0\]: missing key 'asn'$"):
            graph_from_dict(data)

    def test_edge_to_missing_vertex(self):
        data = graph_to_dict(make_g0())
        data["edges"].append({"ixp_id": "X9", "asn": 1, "member_ip": None,
                              "sources": ["PDB"]})
        with pytest.raises(IxpGraphError, match=r"^malformed graph document: edge \('X9', 1\) "
                                                r"references a missing vertex$"):
            graph_from_dict(data)

    @pytest.mark.parametrize("sources", [{"PDB": 1}, "PDB", ["PDB", 1]],
                             ids=["object", "string", "non-string-item"])
    def test_sources_not_a_list_of_strings(self, sources):
        data = graph_to_dict(make_g0())
        data["edges"][0]["sources"] = sources
        with pytest.raises(IxpGraphError) as info:
            graph_from_dict(data)
        assert "\n" not in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_graph(tmp_path / "nope.json")


class TestEdgelists:
    def test_membership_edgelist_sorted(self, g0):
        lines = membership_edgelist(g0).splitlines()
        assert len(lines) == 7
        assert lines == sorted(lines)
        assert lines[0] == "X1\t1"

    def test_membership_edgelist_is_the_sorted_edges(self, tmp_path):
        # Read off the adjacency, the lines are those of sorted(graph.edges):
        # on built graphs, on a graph with a member-less IXP, and on graphs
        # read from the cache, where the edge list makes no edge record.
        def from_edges(graph):
            return "".join(f"{ixp_id}\t{asn}\n" for ixp_id, asn in sorted(graph.edges))

        g0 = make_g0()
        lone = BipartiteGraph(ixps={**g0.ixps, "X0": IxpNode("X0", ["X0"])}, ases=g0.ases,
                              edges=g0.edges)
        graphs = [lone, paper_scale_graph(n_ixp=60, n_as=500)]
        graphs += [sanitize(records, errors)[0] for records, errors in sanitize_test_sets(count=20)]
        path = tmp_path / "g.json"
        for case, graph in enumerate(graphs):
            assert membership_edgelist(graph) == from_edges(graph), f"case {case}"
            write_graph(graph, path)
            read_graph(path)
            cached = read_graph(path)
            assert "_make_edges" in vars(cached), f"case {case}"  # a cache hit
            assert membership_edgelist(cached) == from_edges(graph), f"case {case}"
            assert "edges" not in vars(cached), f"case {case}"

    def test_membership_edgelist_empty_graph(self):
        from ixpgraph.model import BipartiteGraph

        assert membership_edgelist(BipartiteGraph()) == ""


def _records(graph: BipartiteGraph) -> list:
    """Every record of the graph, with its type and its fields' types, in the
    order of the graph's dicts and adjacency maps."""
    def typed(record):
        return type(record), [(type(f), f) for f in record]
    return [
        [(key, typed(n), n.location and typed(n.location)) for key, n in graph.ixps.items()],
        [(key, typed(n)) for key, n in graph.ases.items()],
        [(key, typed(e), {type(s) for s in e.sources}) for key, e in graph.edges.items()],
        [(key, list(graph.members(key))) for key in graph.ixps],
        [(key, list(graph.memberships(key))) for key in graph.ases],
    ]


@pytest.fixture
def graph_reads(monkeypatch):
    """The number of graph documents validated since the test began: a read
    that hits the cache validates none."""
    calls = []
    monkeypatch.setattr(serialization, "graph_from_dict",
                        lambda data: calls.append(1) or graph_from_dict(data))
    return calls


def _cache_of(path):
    return path.with_name(f".{path.name}.ixpgraph")


def _flip_in_edge_section(blob: bytes) -> bytes:
    """``blob`` with one bit flipped in the middle of its edge section, the
    part of the payload a hit decodes only when ``edges`` is first read."""
    section = marshal.loads(blob[64:])[-1]
    at = blob.index(section) + len(section) // 2
    return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]


class TestGraphCache:
    """read_graph keeps the validated graph in ``.<name>.ixpgraph`` beside a
    regular file and rebuilds it from there while the bytes are unchanged."""

    @pytest.mark.parametrize("case", [*range(200), "paper-scale", "empty"])
    def test_hit_equals_miss(self, tmp_path, graph_reads, case):
        path = tmp_path / "g.json"
        if isinstance(case, int):  # the writer-oracle's graphs, arrays in a seeded order
            graph = random_attributed_graph(case)
            doc = graph_to_dict(graph)
            for key in ("ixps", "ases", "edges"):
                random.Random(case).shuffle(doc[key])
            path.write_text(json.dumps(doc), encoding="utf-8")
        else:
            graph = paper_scale_graph() if case == "paper-scale" else BipartiteGraph()
            write_graph(graph, path)
        miss = read_graph(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [".g.json.ixpgraph", "g.json"]
        hit = read_graph(path)
        assert len(graph_reads) == 1
        assert "edges" not in vars(hit)  # made on first use, from the adjacency's own rows
        assert ([list(hit.members(x)) for x in hit.ixps]
                == [list(miss.members(x)) for x in miss.ixps])
        assert ([list(hit.memberships(a)) for a in hit.ases]
                == [list(miss.memberships(a)) for a in miss.ases])
        assert hit == miss == graph
        assert _records(hit) == _records(miss)
        assert dumps_graph(hit) == dumps_graph(miss)

    def test_edited_reader_source_misses(self, tmp_path, graph_reads, monkeypatch):
        # A later reader that tightens a check in model.py must not trust
        # what this one validated.
        path, _ = self._cached_file(tmp_path)
        edited = tmp_path.parent / f"{tmp_path.name}-model.py"
        edited.write_bytes(Path(model.__file__).read_bytes() + b"# a tightened check\n")
        monkeypatch.setattr(model, "__file__", str(edited))
        serialization._code_hash.cache_clear()
        try:
            self._ignored_and_rewritten(path, graph_reads, attributed_graph())
        finally:
            serialization._code_hash.cache_clear()
            edited.unlink()

    def _cached_file(self, tmp_path):
        path = tmp_path / "g.json"
        write_graph(attributed_graph(), path)
        read_graph(path)
        return path, _cache_of(path)

    def _ignored_and_rewritten(self, path, graph_reads, want):
        before = len(graph_reads)
        assert read_graph(path) == want
        assert len(graph_reads) == before + 1  # ignored: the file was validated
        cache = _cache_of(path)
        assert cache.is_file() and not cache.is_symlink()
        assert cache.stat().st_uid == path.stat().st_uid
        assert read_graph(path) == want
        assert len(graph_reads) == before + 1  # rewritten: the next read hits
        assert sorted(p.name for p in path.parent.iterdir()) == [cache.name, path.name]

    def test_stale_cache_is_ignored(self, tmp_path, graph_reads):
        path, cache = self._cached_file(tmp_path)
        write_graph(make_g0(), path)  # the cache still holds the old graph
        self._ignored_and_rewritten(path, graph_reads, make_g0())

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
        lambda blob: blob[:40] + bytes([blob[40] ^ 1]) + blob[41:],
        lambda blob: blob[:len(blob) // 2],
        lambda blob: blob[:20],
        lambda blob: b"",
        _flip_in_edge_section,
    ], ids=["payload-bit", "digest-bit", "truncated-payload", "truncated-header", "empty",
            "edge-section-bit"])
    def test_damaged_cache_is_ignored(self, tmp_path, graph_reads, damage):
        path, cache = self._cached_file(tmp_path)
        cache.write_bytes(damage(cache.read_bytes()))
        self._ignored_and_rewritten(path, graph_reads, attributed_graph())

    def test_cache_of_other_code_is_ignored(self, tmp_path, graph_reads, monkeypatch):
        path = tmp_path / "g.json"
        write_graph(attributed_graph(), path)
        with monkeypatch.context() as patch:
            patch.setattr(serialization, "_code_hash",
                          lambda: hashlib.sha256(b"another version of the reader"))
            read_graph(path)
        self._ignored_and_rewritten(path, graph_reads, attributed_graph())

    def test_symlinked_cache_is_ignored(self, tmp_path, graph_reads):
        path, cache = self._cached_file(tmp_path)
        elsewhere = tmp_path.parent / f"{tmp_path.name}-cache"
        cache.rename(elsewhere)  # a good cache, reached through a link
        cache.symlink_to(elsewhere)
        self._ignored_and_rewritten(path, graph_reads, attributed_graph())
        elsewhere.unlink()

    def test_pipe_in_place_of_the_cache_is_ignored(self, tmp_path, graph_reads):
        path, cache = self._cached_file(tmp_path)
        cache.unlink()
        os.mkfifo(cache)  # opening it for reading would wait for a writer
        self._ignored_and_rewritten(path, graph_reads, attributed_graph())

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                        reason="only root can give a file to another user")
    def test_cache_of_another_user_is_ignored(self, tmp_path, graph_reads):
        path, cache = self._cached_file(tmp_path)
        os.chown(cache, path.stat().st_uid + 4242, -1)
        self._ignored_and_rewritten(path, graph_reads, attributed_graph())

    def test_link_planted_at_the_temp_path_is_not_followed(self, tmp_path, graph_reads):
        path = tmp_path / "g.json"
        write_graph(attributed_graph(), path)
        victim = tmp_path / "victim"
        victim.write_bytes(b"not a cache")
        planted = tmp_path / f"..g.json.ixpgraph.{os.getpid()}.tmp"
        planted.symlink_to(victim)
        for _ in range(2):
            assert read_graph(path) == attributed_graph()
        assert len(graph_reads) == 2  # the write was skipped
        assert victim.read_bytes() == b"not a cache"
        assert sorted(p.name for p in tmp_path.iterdir()) == [planted.name, "g.json", "victim"]

    def _read_by_another_user(self, path, cache, graph_reads):
        """A reader other than the file's owner neither uses nor writes the
        cache: it validates the file on every read, while the owner's cache is
        current and once it is stale, and leaves that cache as it was."""
        blob, owner = cache.read_bytes(), cache.stat().st_uid
        before = len(graph_reads)
        for _ in range(2):
            assert read_graph(path) == attributed_graph()
        assert len(graph_reads) == before + 2  # the owner's current cache was not read
        path.write_bytes(path.read_bytes().replace(b"\"Uno\"", b"\"Una\""))
        for _ in range(2):
            assert read_graph(path) != attributed_graph()
        assert len(graph_reads) == before + 4
        assert cache.read_bytes() == blob and cache.stat().st_uid == owner
        assert sorted(p.name for p in path.parent.iterdir()) == [cache.name, path.name]

    def test_reader_other_than_the_owner_writes_no_cache(self, tmp_path, graph_reads,
                                                         monkeypatch):
        path, cache = self._cached_file(tmp_path)
        monkeypatch.setattr(os, "geteuid", lambda: path.stat().st_uid + 4242)
        self._read_by_another_user(path, cache, graph_reads)

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                        reason="only root can give a file to another user")
    def test_root_writes_no_cache_beside_another_users_file(self, tmp_path, graph_reads):
        path, cache = self._cached_file(tmp_path)
        other = path.stat().st_uid + 4242
        for name in (path, cache):
            os.chown(name, other, -1)
        self._read_by_another_user(path, cache, graph_reads)

    def test_reader_other_than_the_owner_ignores_a_crafted_cache(self, tmp_path, graph_reads,
                                                                 monkeypatch):
        # The owner's cache is marshal data that the records' checks never saw:
        # here, under the right key and payload digest, AS numbers they refuse.
        path = tmp_path / "g.json"
        write_graph(attributed_graph(), path)
        new = tuple.__new__
        ixps = {"X1": new(IxpNode, ("X1", [], [], None, IxpStatus.ACTIVE))}
        ases = {asn: new(AsNode, (asn, AsType.UNKNOWN, None)) for asn in ("one", True)}
        edges = {("X1", asn): new(MembershipEdge, ("X1", asn, None, frozenset({Source.OTHER})))
                 for asn in ases}
        digest = serialization._code_hash().copy()
        digest.update(path.read_bytes())
        crafted = serialization._cache_bytes(digest.digest(), BipartiteGraph(ixps, ases, edges))
        cache = _cache_of(path)
        cache.write_bytes(crafted)
        monkeypatch.setattr(os, "geteuid", lambda: path.stat().st_uid + 4242)
        graph = read_graph(path)
        assert graph == attributed_graph()
        assert _records(graph) == _records(attributed_graph())
        assert len(graph_reads) == 1
        assert cache.read_bytes() == crafted

    def test_unwritable_cache_path_is_skipped(self, tmp_path, graph_reads):
        path = tmp_path / "g.json"
        write_graph(attributed_graph(), path)
        _cache_of(path).mkdir()
        for _ in range(2):
            assert read_graph(path) == attributed_graph()
        assert len(graph_reads) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [".g.json.ixpgraph", "g.json"]
        assert not any(_cache_of(path).iterdir())

    def _read_without_a_cache(self, path, graph_reads):
        """Two reads of ``path`` that validate the JSON each time and leave no
        cache beside it; the graph they give."""
        graphs = [read_graph(path) for _ in range(2)]
        assert len(graph_reads) == 2
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        assert graphs[0] == graphs[1]
        return graphs[0]

    def test_path_that_cannot_be_looked_up_again_gets_no_cache(self, tmp_path, graph_reads,
                                                                monkeypatch):
        path = tmp_path / "g.json"
        write_graph(attributed_graph(), path)

        def lstat(*args, **kwargs):
            raise PermissionError("lstat refused")

        with monkeypatch.context() as patch:
            patch.setattr(os, "lstat", lstat)
            graph = self._read_without_a_cache(path, graph_reads)
        assert graph == read_graph(path) == attributed_graph()
        assert dumps_graph(graph) == path.read_text(encoding="utf-8")

    def test_unreadable_reader_source_gets_no_cache(self, tmp_path, graph_reads, monkeypatch):
        # The reading code runs from somewhere its source cannot be read
        # (a zip archive, say): with nothing to key a cache on, there is none.
        path = tmp_path / "g.json"
        write_graph(attributed_graph(), path)

        def read_bytes(self):
            raise OSError(f"cannot read {self}")

        serialization._code_hash.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(Path, "read_bytes", read_bytes)
                assert serialization._code_hash() is None
                graph = self._read_without_a_cache(path, graph_reads)
        finally:
            serialization._code_hash.cache_clear()
        assert graph == read_graph(path) == attributed_graph()
        assert dumps_graph(graph) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("mutate, message", [case[1:] for case in LOADER_MESSAGES],
                             ids=[case[0] for case in LOADER_MESSAGES])
    def test_malformed_graph_writes_no_cache(self, tmp_path, mutate, message):
        doc = graph_to_dict(make_g0())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for _ in range(2):
            with pytest.raises(IxpGraphError) as info:
                read_graph(path)
            assert str(info.value) == message
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("encode", [
        lambda text: b"\xef\xbb\xbf" + text.encode(),
        lambda text: text.encode("utf-16"),
        lambda text: text.encode("utf-16-le"),
        lambda text: text.replace("\n", "\r\n").encode().replace(b"Exchange 1", b"Exchange \xfc"),
        lambda text: text.replace("\n", "\r\n").encode().replace(b'"asn": 1,', b'"asn": ,'),
        lambda text: text.replace("\n", "\r").encode()[:-9],
    ], ids=["utf-8-bom", "utf-16", "utf-16-le", "crlf-bad-byte", "crlf-bad-value", "cr-cut"])
    def test_undecodable_file_keeps_the_text_read_message(self, tmp_path, encode):
        path = tmp_path / "g.json"
        path.write_bytes(encode(dumps_graph(make_g0())))
        with pytest.raises(ValueError) as text_read:  # how the file read as text fails
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        with pytest.raises(IxpGraphError) as info:
            read_graph(path)
        assert str(info.value) == f"{path}: not valid JSON: {text_read.value}"
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    def test_pipe_is_not_cached(self, tmp_path, graph_reads):
        fifo = tmp_path / "g.json"
        os.mkfifo(fifo)
        text = dumps_graph(attributed_graph()).encode()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(text)

        for _ in range(2):
            writer = threading.Thread(target=feed, daemon=True)
            writer.start()
            assert read_graph(fifo) == attributed_graph()
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert len(graph_reads) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    def test_symlinked_graph_is_not_cached(self, tmp_path, graph_reads):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        write_graph(attributed_graph(), target)
        link.symlink_to(target)
        for _ in range(2):
            assert read_graph(link) == attributed_graph()
        assert len(graph_reads) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]
