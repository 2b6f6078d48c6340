"""Canonical graph JSON and edgelist export."""

import itertools
import json
import random
import re

import pytest

import oracles

from ixpgraph.errors import FormatError
from ixpgraph.model import (
    AsNode,
    AsType,
    BipartiteGraph,
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

from conftest import build_graph, make_g0, paper_scale_graph
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
    ("missing-edge-asn", lambda doc: doc["edges"][0].pop("asn"), "malformed graph document: 'asn'"),
    ("edge-to-missing-as", _edge("asn", 99),
     "malformed graph document: edge ('X1', 99) references a missing vertex"),
    ("int-ixp-item", lambda doc: doc.update(ixps=[1], ases=[], edges=[]),
     "malformed graph document: 'int' object has no attribute 'get'"),
    ("list-edge-item", lambda doc: doc.update(ixps=[], ases=[], edges=[[1]]),
     "malformed graph document: 'list' object has no attribute 'get'"),
    ("bool-version", lambda doc: doc.update(version=True), "unsupported graph format version True"),
    ("float-version", lambda doc: doc.update(version=1.0), "unsupported graph format version 1.0"),
]


class TestLoaderMessages:
    @pytest.mark.parametrize("mutate, message", [case[1:] for case in LOADER_MESSAGES],
                             ids=[case[0] for case in LOADER_MESSAGES])
    def test_one_line_message(self, mutate, message):
        doc = graph_to_dict(make_g0())
        mutate(doc)
        with pytest.raises(FormatError) as info:
            graph_from_dict(json.loads(json.dumps(doc)))
        assert str(info.value) == message

    def test_unhashable_sources_after_cached_lists(self):
        doc = graph_to_dict(make_g0())
        doc["edges"][-1]["sources"] = ["PDB", ["PCH"]]
        with pytest.raises(FormatError, match=r"^sources must be a list of strings, got "):
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
            with pytest.raises(FormatError) as rejected:
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
        with pytest.raises(FormatError, match="'Active' is not a valid AsType"):
            read_graph(written)


class TestFormatErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("definitely not json", encoding="utf-8")
        with pytest.raises(FormatError):
            read_graph(path)

    def test_number_past_the_int_digit_limit_names_the_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"version": 1, "ixps": [], "ases": [], "edges": [%s]}' % ("9" * 5000),
                        encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: not valid JSON: "):
            read_graph(path)

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(FormatError, match="nested too deeply"):
            read_graph(path)

    def test_wrong_version(self):
        data = graph_to_dict(make_g0())
        data["version"] = 99
        with pytest.raises(FormatError):
            graph_from_dict(data)

    def test_missing_arrays(self):
        with pytest.raises(FormatError):
            graph_from_dict({"version": 1, "ixps": [], "ases": []})

    def test_non_object_document(self):
        with pytest.raises(FormatError):
            graph_from_dict([1, 2, 3])

    def test_malformed_node_entry(self):
        data = graph_to_dict(make_g0())
        del data["ases"][0]["asn"]
        with pytest.raises(FormatError):
            graph_from_dict(data)

    def test_edge_to_missing_vertex(self):
        data = graph_to_dict(make_g0())
        data["edges"].append({"ixp_id": "X9", "asn": 1, "member_ip": None,
                              "sources": ["PDB"]})
        with pytest.raises(FormatError):
            graph_from_dict(data)

    @pytest.mark.parametrize("sources", [{"PDB": 1}, "PDB", ["PDB", 1]],
                             ids=["object", "string", "non-string-item"])
    def test_sources_not_a_list_of_strings(self, sources):
        data = graph_to_dict(make_g0())
        data["edges"][0]["sources"] = sources
        with pytest.raises(FormatError) as info:
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

    def test_membership_edgelist_empty_graph(self):
        from ixpgraph.model import BipartiteGraph

        assert membership_edgelist(BipartiteGraph()) == ""
