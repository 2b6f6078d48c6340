"""Canonical graph JSON and edgelist export."""

import json

import pytest

from ixpgraph.errors import FormatError
from ixpgraph.model import (
    AsNode,
    AsType,
    IxpNode,
    IxpStatus,
    Location,
    MembershipEdge,
    Source,
    build_graph,
)
from ixpgraph.serialization import (
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    membership_edgelist,
    read_graph,
    write_graph,
)

from conftest import make_g0


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


class TestFormatErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("definitely not json", encoding="utf-8")
        with pytest.raises(FormatError):
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
