"""CLI subcommands, output formats, and the exit-code contract."""

import ast
import gc
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ixpgraph import serialization
from ixpgraph.cli import _parse_asn_token, _read_map_file, main
from ixpgraph.ingest import attach_attributes, parse_dataset
from ixpgraph.model import (
    AsNode,
    AsType,
    BipartiteGraph,
    IxpNode,
    Location,
    MembershipEdge,
    Source,
)

from conftest import (
    G0_TYPES,
    build_graph,
    make_g0,
    paper_scale_graph,
    random_bipartite,
    sanitize_fixture_files,
    write_membership_csv,
)
from oracles import graph_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env(**extra) -> dict:
    """The environment for a CLI subprocess that imports this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


@pytest.fixture
def typed_g0_file(tmp_path):
    path = tmp_path / "g0_typed.json"
    serialization.write_graph(make_g0(as_types=G0_TYPES), path)
    return path


@pytest.fixture
def located_g0_file(tmp_path):
    g0 = make_g0()
    locations = {"X1": Location("DE", "Frankfurt"), "X2": Location("DE", "Frankfurt"),
                 "X3": Location("GR", "Athens")}
    graph = BipartiteGraph(
        ixps={x: node._replace(location=locations[x]) for x, node in g0.ixps.items()},
        ases=g0.ases, edges=g0.edges)
    path = tmp_path / "g0_located.json"
    serialization.write_graph(graph, path)
    return path


class TestBuild:
    def test_smoke(self, tmp_path, capsys):
        pdb, pch = sanitize_fixture_files(tmp_path)
        out_path = tmp_path / "graph.json"
        code, out, err = run(capsys, "build", str(pdb), str(pch), str(out_path))
        assert code == 0
        assert "graph: 2 IXPs, 3 ASes, 4 edges" in out
        assert "NotInGiantComponent: 2 nodes, 1 edges" in out
        graph = serialization.read_graph(out_path)
        assert graph.num_edges == 4

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        pdb, pch = sanitize_fixture_files(tmp_path)
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert run(capsys, "build", str(pdb), str(pch), str(one))[0] == 0
        assert run(capsys, "build", str(pdb), str(pch), str(two))[0] == 0
        assert one.read_bytes() == two.read_bytes()

    def test_all_inactive_is_domain_error(self, tmp_path, capsys):
        pdb = write_membership_csv(tmp_path / "pdb.csv", [
            "PDB,k1,Alpha,192.0.2.0/24,64500,,Inactive,,",
        ])
        pch = write_membership_csv(tmp_path / "pch.csv", [])
        code, _, err = run(capsys, "build", str(pdb), str(pch),
                           str(tmp_path / "g.json"))
        assert code == 1
        assert "error" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", str(tmp_path / "none.csv"),
                           str(tmp_path / "none2.csv"), str(tmp_path / "g.json"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("out", ["nodir/g.json", "", "adir"],
                             ids=["missing-directory", "empty", "directory"])
    def test_failed_write_names_the_given_path(self, tmp_path, capsys, monkeypatch, out):
        # Into "adir" the temp file is written, then fails to replace the
        # directory and is removed.
        monkeypatch.chdir(tmp_path)
        pdb, pch = sanitize_fixture_files(tmp_path)
        (tmp_path / "adir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run(capsys, "build", str(pdb), str(pch), out)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(out) in err and ".tmp" not in err, err
        assert sorted(tmp_path.rglob("*")) == before

    def test_json_report(self, tmp_path, capsys):
        pdb, pch = sanitize_fixture_files(tmp_path)
        code, out, _ = run(capsys, "build", str(pdb), str(pch),
                           str(tmp_path / "g.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ixps"] == 2 and payload["edges"] == 4
        report = payload["report"]
        assert set(report) == {"nodes_total_pre", "edges_total_pre",
                               "nodes_discarded", "edges_discarded", "reasons"}
        reasons = report["reasons"]
        assert reasons["InactiveIxp"] == {"nodes": 1, "edges": 1}
        assert list(reasons) == sorted(reasons)
        assert report["nodes_discarded"] == sum(t["nodes"] for t in reasons.values()) == 3
        assert report["edges_discarded"] == sum(t["edges"] for t in reasons.values()) == 4
        # The text report gives the same totals and reasons, in the same order.
        code, out, _ = run(capsys, "build", str(pdb), str(pch), str(tmp_path / "g.json"))
        assert code == 0
        assert out.splitlines()[1:] == ["discarded: 3 of 8 nodes, 4 of 8 edges"] + [
            f"  {reason}: {t['nodes']} nodes, {t['edges']} edges" for reason, t in reasons.items()]

    def test_attribute_files(self, tmp_path, capsys):
        pdb, pch = sanitize_fixture_files(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n65002,Content\n99999,ISP\n", encoding="utf-8")
        code, out, _ = run(capsys, "build", str(pdb), str(pch),
                           str(tmp_path / "g.json"), "--as-types", str(types))
        assert code == 0
        assert "attribute warnings: 1" in out


    def test_repeated_attribute_key_is_a_warning(self, tmp_path, capsys):
        pdb, pch = sanitize_fixture_files(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n65002,Content\n65002,ISP\n", encoding="utf-8")
        locations = tmp_path / "locations.csv"
        locations.write_text("ixp_id,country,city,lat,lon\nIXP0001,DE,Frankfurt,,\n"
                             " IXP0001 ,GR,Athens,,\n", encoding="utf-8")
        out_path = tmp_path / "g.json"
        code, out, _ = run(capsys, "build", str(pdb), str(pch), str(out_path),
                           "--as-types", str(types), "--locations", str(locations))
        assert code == 0
        assert out.endswith("attribute warnings: 2\n")
        graph = serialization.read_graph(out_path)
        assert graph.ases[65002].as_type.value == "Content"
        assert graph.ixps["IXP0001"].location.city == "Frankfurt"


class TestMetrics:
    def test_degree_cdf_ixp_csv(self, g0_file, capsys):
        code, out, _ = run(capsys, "metrics", str(g0_file), "degree-cdf", "--class", "ixp")
        assert code == 0
        assert out == "degree,count,cdf\n1,1,0.3333333333333333\n3,2,1.0\n"
        assert len(out.splitlines()) == 3

    def test_degree_cdf_as_csv(self, g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(g0_file), "degree-cdf", "--class", "as")
        assert out.splitlines()[1:] == ["1,1,0.25", "2,3,1.0"]

    def test_table2_csv(self, g0_file, capsys):
        code, out, _ = run(capsys, "metrics", str(g0_file), "table2")
        assert code == 0
        assert out == "ixps_crossed,count,percent\n1,5,83.3\n2,1,16.7\n"

    def test_table2_json_full_precision(self, g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(g0_file), "table2", "--json")
        rows = json.loads(out)
        assert rows[0]["ixps_crossed"] == 1
        assert rows[0]["count"] == 5
        assert rows[0]["percent"] == pytest.approx(500 / 6)

    def test_table2_sampled_deterministic(self, g0_file, capsys):
        args = ("metrics", str(g0_file), "table2", "--sample", "2", "--seed", "7")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_table2_threads_flag_rejected(self, g0_file):
        with pytest.raises(SystemExit) as info:
            main(["metrics", str(g0_file), "table2", "--threads", "2"])
        assert info.value.code == 2

    def test_table2_ignores_threads_env(self, g0_file, capsys, monkeypatch):
        monkeypatch.setenv("IXPGRAPH_THREADS", "many")
        code, out, _ = run(capsys, "metrics", str(g0_file), "table2")
        assert code == 0
        assert out == "ixps_crossed,count,percent\n1,5,83.3\n2,1,16.7\n"

    def test_betweenness_independent_of_hash_seed(self, tmp_path):
        # String IXP ids hash differently per interpreter; on a graph of this
        # shape, any set-order dependence shows in the last digits.
        path = tmp_path / "g.json"
        serialization.write_graph(paper_scale_graph(n_ixp=200, n_as=150), path)
        outputs = []
        for hash_seed in ("1", "2"):
            env = subprocess_env(PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "ixpgraph.cli", "metrics", str(path), "betweenness"],
                env=env, capture_output=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_table3_ixp_csv(self, g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(g0_file), "table3", "--class", "ixp")
        assert out == "multiplicity,count,percent\n0,1,33.3\n1,1,33.3\n2,1,33.3\n"

    def test_table3_as_csv(self, g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(g0_file), "table3", "--class", "as")
        assert out.splitlines()[1:] == ["0,1,16.7", "1,4,66.7", "2,1,16.7"]
        # Multiplicities of --tail and up share one row, shown only if not empty.
        _, out, _ = run(capsys, "metrics", str(g0_file), "table3", "--class", "as", "--tail", "2")
        assert out.splitlines()[1:] == ["0,1,16.7", "1,4,66.7", ">=2,1,16.7"]
        _, out, _ = run(capsys, "metrics", str(g0_file), "table3", "--class", "as", "--tail", "3")
        assert out.splitlines()[1:] == ["0,1,16.7", "1,4,66.7", "2,1,16.7"]

    def test_table1_csv(self, typed_g0_file, capsys):
        code, out, _ = run(capsys, "metrics", str(typed_g0_file), "table1",
                           "--thresholds", "0,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "subset,content,enterprise,isp"
        assert lines[1] == "All ASes,25.0,25.0,50.0"
        assert lines[2] == "ASes with degree >1,33.3,0.0,66.7"

    def test_member_types_csv(self, typed_g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(typed_g0_file), "member-types")
        lines = out.splitlines()
        assert lines[0] == "ixp_id,content,enterprise,isp"
        assert lines[1].startswith("X1,0.3333333333333333,0.0,")
        assert lines[3] == "X3,1.0,0.0,0.0"

    def test_member_types_cdf(self, typed_g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(typed_g0_file), "member-types-cdf",
                        "--type", "content")
        lines = out.splitlines()
        assert lines[0] == "fraction,count,cdf"
        assert len(lines) == 4

    def test_types_required(self, g0_file, capsys):
        for metric in ("table1", "member-types", "member-types-cdf"):
            code, _, err = run(capsys, "metrics", str(g0_file), metric)
            assert code == 1
            assert "AS types" in err

    @pytest.mark.parametrize("which", ["table1", "member-types", "member-types-cdf"])
    def test_type_metric_on_empty_graph(self, tmp_path, capsys, which):
        # An empty graph is named as such, not blamed on missing AS types.
        path = tmp_path / "empty.json"
        serialization.write_graph(BipartiteGraph(), path)
        assert run(capsys, "metrics", str(path), which) == (
            1, "", "error: graph has no vertices\n")
        # With an IXP but no AS, it is still the AS types that are missing.
        serialization.write_graph(build_graph([IxpNode("X1", ["X1"])], [], []), path)
        assert run(capsys, "metrics", str(path), which) == (
            1, "", "error: metric needs AS types, but no AS in the graph has one attached\n")

    def test_gain_cdf_csv(self, g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(g0_file), "gain-cdf")
        assert out == "gain,count,cdf\n0,6,0.6\n1,4,1.0\n"

    def test_correlation(self, tmp_path, capsys):
        graph = build_graph(
            [IxpNode(x, [x]) for x in ("X1", "X2", "X3")],
            [AsNode(1, prefix_count=10), AsNode(2, prefix_count=20),
             AsNode(3, prefix_count=30)],
            [MembershipEdge("X1", 1), MembershipEdge("X1", 2), MembershipEdge("X2", 2),
             MembershipEdge("X1", 3), MembershipEdge("X2", 3), MembershipEdge("X3", 3)],
        )
        path = tmp_path / "corr.json"
        serialization.write_graph(graph, path)
        code, out, _ = run(capsys, "metrics", str(path), "correlation")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "correlation"
        assert float(lines[1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("big", [10**200, 10**400], ids=["square-overflows", "past-float"])
    def test_correlation_overflow_is_one_line_error(self, tmp_path, capsys, big):
        # 10**200 squares past the float range, where r would come out as a
        # zero; 10**400 is past it already.
        path = tmp_path / "big.json"
        serialization.write_graph(make_g0(prefix_counts={1: big, 2: 5, 4: 7}), path)
        code, out, err = run(capsys, "metrics", str(path), "correlation")
        assert (code, out) == (1, "")
        assert err == "error: prefix counts too large to correlate in floating point\n"

    def test_betweenness_csv(self, g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(g0_file), "betweenness", "--class", "ixp")
        assert out == "node,value\nX1,1.0\nX2,0.0\nX3,0.0\n"

    def test_clustering_csv(self, g0_file, capsys):
        _, out, _ = run(capsys, "metrics", str(g0_file), "clustering", "--class", "as")
        lines = out.splitlines()
        assert lines[0] == "node,value"
        assert lines[1] == "1,1.0"
        assert len(lines) == 5

    @pytest.mark.parametrize("which", ["table3", "betweenness", "clustering", "gain-cdf"])
    @pytest.mark.parametrize("node_class", ["ixp", "as"])
    def test_projection_metric_on_empty_graph(self, tmp_path, capsys, which, node_class):
        path = tmp_path / "empty.json"
        serialization.write_graph(BipartiteGraph(), path)
        code, out, err = run(capsys, "metrics", str(path), which, "--class", node_class)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_every_metric_on_degenerate_graphs(self, tmp_path, capsys):
        # No vertex at all is one error for every metric. An IXP without an
        # AS is a graph, and a metric over its empty class is an empty table.
        no_types = (1, "", "error: metric needs AS types, but no AS in the graph has one attached\n")
        one_ixp = {
            "degree-cdf": {"ixp": (0, "degree,count,cdf\n0,1,1.0\n", ""),
                           "as": (0, "degree,count,cdf\n", "")},
            "member-types": no_types,
            "member-types-cdf": no_types,
            "table1": no_types,
            "table2": (0, "ixps_crossed,count,percent\n", ""),
            "table3": (0, "multiplicity,count,percent\n", ""),
            "gain-cdf": (0, "gain,count,cdf\n", ""),
            "correlation": (1, "", "error: need at least 2 ASes with prefix data, have 0\n"),
            "betweenness": {"ixp": (0, "node,value\nX1,0.0\n", ""), "as": (0, "node,value\n", "")},
            "clustering": {"ixp": (0, "node,value\nX1,0\n", ""), "as": (0, "node,value\n", "")},
        }
        empty, lone = tmp_path / "empty.json", tmp_path / "one-ixp.json"
        serialization.write_graph(BipartiteGraph(), empty)
        serialization.write_graph(build_graph([IxpNode("X1", ["X1"])], [], []), lone)
        for which, expected in one_ixp.items():
            for node_class in ("ixp", "as"):
                argv = (which, "--class", node_class)
                assert run(capsys, "metrics", str(empty), *argv) == (
                    1, "", "error: graph has no vertices\n"), argv
                want = expected[node_class] if isinstance(expected, dict) else expected
                assert run(capsys, "metrics", str(lone), *argv) == want, argv

    def test_unknown_metric(self, g0_file, capsys):
        code, _, err = run(capsys, "metrics", str(g0_file), "entropy")
        assert code == 1
        assert "usage" in err
        assert "available metrics" in err
        assert "degree-cdf" in err

    def test_invalid_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        code, _, err = run(capsys, "metrics", str(bad), "table2")
        assert code == 1
        assert "error" in err

    def test_missing_graph_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "metrics", str(tmp_path / "none.json"), "table2")
        assert code == 1


class TestPlace:
    def test_cover_g0(self, g0_file, capsys):
        code, out, _ = run(capsys, "place", str(g0_file), "cover",
                           "--targets", "A1,A2,A3,A4")
        assert code == 0
        payload = json.loads(out)
        assert payload["chosen"] == ["X1", "X2"]
        assert payload["covered"] == [1, 2, 3, 4]
        assert payload["total_cost"] == 2.0

    def test_cover_targets_all(self, g0_file, capsys):
        _, out, _ = run(capsys, "place", str(g0_file), "cover", "--targets", "all")
        assert json.loads(out)["chosen"] == ["X1", "X2"]

    def test_cover_targets_from_file(self, g0_file, tmp_path, capsys):
        listing = tmp_path / "targets.txt"
        listing.write_text("AS1\n2\nA3\n4\n", encoding="utf-8")
        _, out, _ = run(capsys, "place", str(g0_file), "cover",
                        "--targets", f"@{listing}")
        assert json.loads(out)["covered"] == [1, 2, 3, 4]

    def test_cover_targets_file_with_byte_order_mark(self, g0_file, tmp_path, capsys):
        listing = tmp_path / "targets.txt"
        listing.write_text("AS1\n2\nA3\n4\n", encoding="utf-8-sig")
        code, out, err = run(capsys, "place", str(g0_file), "cover",
                             "--targets", f"@{listing}")
        assert (code, err) == (0, "")
        assert json.loads(out)["covered"] == [1, 2, 3, 4]

    def test_budget_one(self, g0_file, capsys):
        code, out, _ = run(capsys, "place", str(g0_file), "budget",
                           "--budget", "1", "--targets", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["chosen"] == ["X1"]
        assert payload["total_weight"] == 3.0

    @pytest.mark.parametrize("graph, argv", [
        ("g0", ["budget", "--budget", "0.5", "--targets", "all"]),
        ("empty", ["cover", "--targets", "all"]),
    ], ids=["budget-below-every-cost", "empty-graph"])
    def test_nothing_chosen_prints_a_float_cost(self, g0_file, tmp_path, capsys, graph, argv):
        path = g0_file
        if graph == "empty":
            path = tmp_path / "empty.json"
            serialization.write_graph(BipartiteGraph(), path)
        code, out, err = run(capsys, "place", str(path), *argv)
        assert (code, err) == (0, "")
        assert '"total_cost": 0.0,' in out
        assert json.loads(out)["chosen"] == []

    def test_custom_costs(self, g0_file, tmp_path, capsys):
        costs = tmp_path / "costs.csv"
        costs.write_text("ixp_id,cost\nX1,10\n", encoding="utf-8")
        _, out, _ = run(capsys, "place", str(g0_file), "cover",
                        "--targets", "all", "--costs", str(costs))
        payload = json.loads(out)
        assert payload["chosen"] == ["X2", "X3"]
        assert payload["total_cost"] == 2.0

    def test_custom_weights(self, g0_file, tmp_path, capsys):
        weights = tmp_path / "weights.csv"
        weights.write_text("asn,weight\n4,10\n", encoding="utf-8")
        _, out, _ = run(capsys, "place", str(g0_file), "budget",
                        "--budget", "1", "--targets", "all",
                        "--weights", str(weights))
        # A4's weight makes X2 the heaviest single pick.
        assert json.loads(out)["chosen"] == ["X2"]

    @pytest.mark.parametrize("flag, value", [("--costs", "nan"), ("--weights", "inf"),
                                             ("--budget", "nan")])
    def test_non_finite_value_is_one_line_error(self, g0_file, tmp_path, capsys, flag, value):
        argv = ["place", str(g0_file), "budget", "--targets", "all", "--budget", "1"]
        if flag == "--budget":
            argv[-1] = value
        else:
            path = tmp_path / "values.csv"
            header, key = ("ixp_id,cost", "X1") if flag == "--costs" else ("asn,weight", "4")
            path.write_text(f"{header}\n{key},{value}\n", encoding="utf-8")
            argv += [flag, str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("problem", ["cover", "budget"])
    @pytest.mark.parametrize("flag", ["--costs", "--weights"])
    def test_empty_map_file_path_is_one_line_error(self, g0_file, capsys, problem, flag):
        # An empty path is a file that cannot be read, not "no file".
        argv = ["place", str(g0_file), problem, "--targets", "all", flag, ""]
        if problem == "budget":
            argv += ["--budget", "1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(": ''\n") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", [",", " , ,", "@"], ids=["comma", "commas", "empty-file"])
    def test_empty_target_list_is_one_line_error(self, g0_file, tmp_path, capsys, spec):
        if spec == "@":
            empty = tmp_path / "targets.txt"
            empty.write_text("\n", encoding="utf-8")
            spec += str(empty)
        assert run(capsys, "place", str(g0_file), "cover", "--targets", spec) == (
            1, "", "error: empty target list\n")

    @pytest.mark.parametrize("flag, row", [("--costs", "X1,1,2"), ("--weights", "4,1,2")])
    def test_map_file_row_of_three_fields_is_one_line_error(self, g0_file, tmp_path, capsys,
                                                           flag, row):
        path = tmp_path / "values.csv"
        header = "ixp_id,cost" if flag == "--costs" else "asn,weight"
        path.write_text(f"{header}\n{row}\n", encoding="utf-8")
        assert run(capsys, "place", str(g0_file), "cover", "--targets", "all",
                   flag, str(path)) == (1, "", f"error: {path}: expected 2 columns, got 3\n")

    @pytest.mark.parametrize("rows, message", [
        # The file's own rows are checked as it is read, so the error names it.
        (["4,0"], "{path}: not a finite positive number: '0'"),
        # Each weight is finite; their sum is not.
        ([f"{a},1{'0' * 308}" for a in (2, 3)], "weights must have a finite sum"),
    ], ids=["zero", "overflowing-sum"])
    def test_bad_weights_are_one_line_error(self, g0_file, tmp_path, capsys, rows, message):
        path = tmp_path / "weights.csv"
        path.write_text("\n".join(["asn,weight", *rows]) + "\n", encoding="utf-8")
        message = message.format(path=path)
        for problem in (["cover"], ["budget", "--budget", "1"]):
            assert run(capsys, "place", str(g0_file), *problem, "--targets", "all",
                       "--weights", str(path)) == (1, "", f"error: {message}\n")

    def test_cover_costs_with_an_overflowing_sum_are_one_line_error(self, tmp_path, capsys):
        # 21 IXPs, 5 ASes, each AS a member somewhere; every cost is finite,
        # the sum of those the cover picks is not.
        graph = random_bipartite(random.Random(11131))
        assert (len(graph.ixps), len(graph.ases)) == (21, 5)
        path, costs = tmp_path / "g.json", tmp_path / "costs.csv"
        serialization.write_graph(graph, path)
        costs.write_text("ixp_id,cost\n" + "".join(f"{x},1{'0' * 308}\n" for x in graph.ixps),
                         encoding="utf-8")
        assert run(capsys, "place", str(path), "cover", "--targets", "all",
                   "--costs", str(costs)) == (
            1, "", "error: costs of the chosen IXPs must have a finite sum\n")

    def test_tunnels(self, g0_file, capsys):
        code, out, _ = run(capsys, "place", str(g0_file), "tunnels", "--as", "A1")
        assert code == 0
        assert json.loads(out) == [{"asn": 2, "gain": 1}, {"asn": 3, "gain": 1}]

    def test_tunnels_plain_asn(self, g0_file, capsys):
        _, out, _ = run(capsys, "place", str(g0_file), "tunnels", "--as", "4")
        assert json.loads(out) == [{"asn": 2, "gain": 1}, {"asn": 3, "gain": 1}]

    def test_site(self, located_g0_file, capsys):
        code, out, _ = run(capsys, "place", str(located_g0_file), "site",
                           "--country", "GR", "--city", "Athens")
        assert code == 0
        payload = json.loads(out)
        assert payload["score"] == pytest.approx(1 / 3)

    def test_uncoverable(self, tmp_path, capsys):
        g0 = make_g0()
        graph = BipartiteGraph(ixps=g0.ixps, ases={**g0.ases, 9: AsNode(9)},  # 9 is at no IXP
                               edges=g0.edges)
        path = tmp_path / "g.json"
        serialization.write_graph(graph, path)
        code, _, err = run(capsys, "place", str(path), "cover", "--targets", "1,9")
        assert code == 1
        assert "9" in err

    def test_unknown_target(self, g0_file, capsys):
        code, _, err = run(capsys, "place", str(g0_file), "cover", "--targets", "999")
        assert code == 1
        assert "999" in err

    def test_bad_target_token(self, g0_file, capsys):
        code, _, err = run(capsys, "place", str(g0_file), "cover", "--targets", "one")
        assert code == 1
        assert "one" in err

    @pytest.mark.parametrize("argv", [
        ("cover", "--targets", "AS\u0663"),
        ("cover", "--targets", "1_0"),
        ("cover", "--targets", "-5"),
        ("tunnels", "--as", "A\u0663"),
    ], ids=["non-ascii-target", "separator-target", "negative-target", "non-ascii-as"])
    def test_lax_asn_token_is_one_line_error(self, g0_file, capsys, argv):
        code, out, err = run(capsys, "place", str(g0_file), *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: not an AS number") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, row", [
        ("--costs", "X1,1_0"), ("--costs", "X1,\u0663"), ("--costs", "X1,1e1"),
        ("--weights", "\u0664,10"), ("--weights", "4,1_0"),
    ])
    def test_lax_map_file_number_is_one_line_error(self, g0_file, tmp_path, capsys, flag, row):
        path = tmp_path / "values.csv"
        header = "ixp_id,cost" if flag == "--costs" else "asn,weight"
        path.write_text(f"{header}\n{row}\n", encoding="utf-8")
        code, out, err = run(capsys, "place", str(g0_file), "cover", "--targets", "all",
                             flag, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, rows, key", [
        ("--costs", ["X1,10", "X2,1", "X1,2"], "X1"),
        ("--weights", ["1,5", "AS1,7"], "AS1"),
    ])
    def test_repeated_map_file_key_is_one_line_error(self, g0_file, tmp_path, capsys,
                                                     flag, rows, key):
        path = tmp_path / "values.csv"
        header = "ixp_id,cost" if flag == "--costs" else "asn,weight"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "place", str(g0_file), "cover", "--targets", "all",
                             flag, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: repeated key {key!r}\n"

    def test_missing_budget_is_usage_error(self, g0_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["place", str(g0_file), "budget", "--targets", "all"])
        assert info.value.code == 2


class TestExport:
    def test_edgelist(self, g0_file, capsys):
        code, out, _ = run(capsys, "export", str(g0_file), "--format", "edgelist")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines == sorted(lines)
        assert lines[0] == "X1\t1"

    def test_json_matches_canonical_file(self, g0_file, capsys):
        code, out, _ = run(capsys, "export", str(g0_file), "--format", "json")
        assert code == 0
        assert out == g0_file.read_text(encoding="utf-8")

    def test_missing_format_flag(self, g0_file, capsys):
        code, _, err = run(capsys, "export", str(g0_file))
        assert code == 1
        assert "usage" in err

    def test_bogus_format(self, g0_file, capsys):
        code, _, err = run(capsys, "export", str(g0_file), "--format", "xml")
        assert code == 1
        assert "xml" in err

    def test_missing_graph(self, tmp_path, capsys):
        code, _, _ = run(capsys, "export", str(tmp_path / "none.json"),
                         "--format", "edgelist")
        assert code == 1


def _int_ixp_id(doc):
    doc["ixps"][2]["ixp_id"] = 3
    doc["edges"] = [{**e, "ixp_id": 3} if e["ixp_id"] == "X3" else e for e in doc["edges"]]


def _asn_value(value):
    def mutate(doc):
        doc["ases"][0]["asn"] = value
        doc["edges"] = [{**e, "asn": value} if e["asn"] == 1 else e for e in doc["edges"]]
    return mutate


class TestWithoutNetworkx:
    # A None entry in sys.modules makes every import of networkx fail.
    PRELUDE = ("import sys; sys.modules['networkx'] = None; "
               "from ixpgraph.cli import main; sys.exit(main(sys.argv[1:]))")

    def cli(self, *argv) -> str:
        proc = subprocess.run([sys.executable, "-c", self.PRELUDE, *argv],
                              env=subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_commands_need_no_networkx(self, tmp_path, g0_file, capsys):
        pdb, pch = sanitize_fixture_files(tmp_path)
        built = tmp_path / "built.json"
        self.cli("build", str(pdb), str(pch), str(built))
        assert self.cli("export", str(built), "--format", "json") == built.read_text(encoding="utf-8")
        assert self.cli("place", str(g0_file), "tunnels", "--as", "1")
        for which in ("gain-cdf", "table2"):
            argv = ("metrics", str(g0_file), which)
            assert self.cli(*argv) == run(capsys, *argv)[1]
        for which in ("table3", "betweenness", "clustering"):
            for node_class in ("ixp", "as"):
                argv = ("metrics", str(g0_file), which, "--class", node_class)
                assert self.cli(*argv) == run(capsys, *argv)[1]


class TestWithoutPosixNames:
    """Graph files are written and read where ``os`` lacks the POSIX-only
    names, as on Windows: the temp file needs only exclusive create, and with
    no ``geteuid`` there are no file owners, so no cache."""

    @pytest.mark.parametrize("names, reads", [
        (("geteuid", "O_NOFOLLOW", "O_NONBLOCK"), True),
        (("O_NOFOLLOW",), False),  # a platform with geteuid has the open flags too
    ])
    def test_same_bytes_without_the_names(self, tmp_path, capsys, monkeypatch, names, reads):
        pdb, pch = sanitize_fixture_files(tmp_path)
        path = tmp_path / "graph.json"
        commands = [("build", str(pdb), str(pch), str(path))]
        if reads:
            commands += [("export", str(path), "--format", "json"),
                         ("export", str(path), "--format", "edgelist"),
                         ("metrics", str(path), "degree-cdf"),
                         ("place", str(path), "tunnels", "--as", "65003")]
        for name in names:
            monkeypatch.delattr(os, name)
        without = [run(capsys, *argv) for argv in commands]
        built = path.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.json", "pch.csv", "pdb.csv"]
        monkeypatch.undo()
        path.unlink()
        assert [run(capsys, *argv) for argv in commands] == without
        assert path.read_bytes() == built
        assert (tmp_path / ".graph.json.ixpgraph").is_file() == reads
        assert all(code == 0 and err == "" for code, _, err in without)


def _interpreters() -> list[str]:
    """The running interpreter, then every distinct other one that starts and
    is at least the package's floor (3.10): pyenv's ``versions/*/bin/python``
    under ``$PYENV_ROOT`` (default ``~/.pyenv``) and ``python3.N`` on PATH.
    A pyenv shim for a version it cannot find fails the probe."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = sorted(map(str, root.glob("versions/*/bin/python")))
    candidates += filter(None, (shutil.which(f"python3.{n}") for n in range(10, 30)))
    probe = "import sys; sys.stdout.write(sys.version if sys.version_info >= (3, 10) else '')"
    found = {sys.version: sys.executable}
    for exe in candidates:
        try:
            proc = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout:
            found.setdefault(proc.stdout, exe)
    return list(found.values())


def cross_version_inputs(dirpath) -> tuple:
    """Membership CSVs for a seeded small graph: every edge once in the PDB
    file under a /24 per IXP, and the even IXPs' edges again in the PCH file
    under their own keys and a nested /25, so that build merges IXPs and
    collapses duplicates. Also the graph's highest-degree AS."""
    graph = paper_scale_graph(seed=42, n_ixp=40, n_as=300)
    types = ["Content", "Enterprise", "ISP", ""]
    pdb, pch = [], []
    for k, ixp_id in enumerate(sorted(graph.ixps)):
        for asn in sorted(graph.members(ixp_id)):
            tail = f"10.0.{k}.{asn % 120 + 1},Active,{types[asn % 4]},{asn * 7 % 100 or ''}"
            pdb.append(f"PDB,{ixp_id},{ixp_id} Exchange,10.0.{k}.0/24,{asn},{tail}")
            if k % 2 == 0:
                pch.append(f"PCH,p{k},{ixp_id}-exchange,10.0.{k}.0/25,{asn},{tail}")
    return (write_membership_csv(dirpath / "pdb.csv", pdb),
            write_membership_csv(dirpath / "pch.csv", pch),
            max(graph.ases, key=lambda a: (len(graph.memberships(a)), -a)))


class TestAcrossInterpreters:
    """Every command whose bytes hold across Python versions gives the same
    stdout on each installed interpreter the package supports. ``place
    budget`` and ``place site`` are left out: their float sums still round
    differently from 3.12 on. The prefix counts of the inputs are ones whose
    ``statistics.correlation`` differs in the last digit on 3.12 and 3.13."""

    RUNNER = ("import contextlib, io, json, sys\n"
              "from ixpgraph.cli import main\n"
              "outputs = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    buf = io.StringIO()\n"
              "    with contextlib.redirect_stdout(buf):\n"
              "        code = main(argv)\n"
              "    outputs.append([argv, code, buf.getvalue()])\n"
              "print(json.dumps(outputs))\n")

    def test_same_bytes_on_every_interpreter(self, tmp_path):
        interpreters = _interpreters()
        if len(interpreters) < 2:
            pytest.skip("no second interpreter of Python 3.10 or later found")
        pdb, pch, asn = cross_version_inputs(tmp_path)
        # Attribute files with a padded row, a malformed row and a repeated key.
        types = tmp_path / "as_types.csv"
        types.write_text(f"asn,as_type\n  {asn} , Content \n{asn + 1},Methane\n{asn},ISP\n",
                         encoding="utf-8")
        locations = tmp_path / "locations.csv"
        locations.write_text("ixp_id,country,city,lat,lon\n"
                             " IXP0001 , DE , Frankfurt , 50.11 , 8.68 \n"
                             "IXP0002,DE,Berlin,north,13.41\n"
                             "IXP0001,GR,Athens,37.98,23.73\n", encoding="utf-8")
        attributes = ["--as-types", str(types), "--locations", str(locations)]
        graph = "graph.json"  # relative: build prints the path it wrote
        commands = [
            ["build", str(pdb), str(pch), graph],
            ["build", str(pdb), str(pch), "typed.json", *attributes],
            ["build", str(pdb), str(pch), "typed-too.json", *attributes, "--json"],
            ["export", "typed.json", "--format", "json"],
            ["export", graph, "--format", "edgelist"],
            ["export", graph, "--format", "json"],
            ["metrics", graph, "table2"],
            ["metrics", graph, "table3", "--class", "ixp"],
            ["metrics", graph, "table3", "--class", "as"],
            ["metrics", graph, "table3", "--class", "as", "--tail", "2"],
            ["metrics", graph, "degree-cdf", "--class", "ixp"],
            ["metrics", graph, "degree-cdf", "--class", "as"],
            ["metrics", "typed.json", "member-types"],
            ["metrics", "typed.json", "member-types-cdf", "--type", "content"],
            ["metrics", "typed.json", "table1", "--thresholds", "0,1,2"],
            ["metrics", "typed.json", "table1", "--json"],
            ["metrics", graph, "betweenness"],
            ["metrics", graph, "betweenness", "--class", "as"],  # runs the far pass
            ["metrics", graph, "clustering"],
            ["metrics", graph, "gain-cdf"],
            ["metrics", graph, "correlation"],
            ["place", graph, "tunnels", "--as", str(asn)],
            ["place", graph, "cover", "--targets", "all"],
        ]
        outputs = {}
        for i, exe in enumerate(interpreters):
            workdir = tmp_path / f"run{i}"
            workdir.mkdir()
            # "-W error": a deprecation on any interpreter fails the test.
            proc = subprocess.run([exe, "-W", "error", "-c", self.RUNNER, json.dumps(commands)],
                                  cwd=workdir, env=subprocess_env(), capture_output=True, text=True)
            assert proc.returncode == 0, f"{exe}: {proc.stderr}"
            outputs[exe] = json.loads(proc.stdout)
        reference = outputs.pop(interpreters[0])
        assert all(code == 0 and out for _, code, out in reference)
        for exe, got in outputs.items():
            for want, have in zip(reference, got):
                assert have == want, f"{exe} differs from {interpreters[0]} on {want[0]}"


def _set(section, key, value):
    def mutate(doc):
        doc[section][0][key] = value
    return mutate


def _location(**fields):
    return _set("ixps", "location", {"country": "GR", "city": "Athens", "lat": None,
                                     "lon": None, **fields})


class TestGraphValidation:
    @pytest.mark.parametrize("mutate", [
        _int_ixp_id,
        _asn_value(True),
        _asn_value("1"),
        _asn_value(1.0),
        _asn_value(0),
        _asn_value(2**32),
        lambda doc: doc["ixps"].append(dict(doc["ixps"][0])),
        lambda doc: doc["ases"].append(dict(doc["ases"][0])),
        lambda doc: doc["edges"].append(dict(doc["edges"][0])),
        _set("ixps", "names", "Alpha"),
        _set("ixps", "names", ["Alpha", 2]),
        _set("ixps", "peering_prefixes", ["192.0.2.0/24", 24]),
        _set("ases", "prefix_count", True),
        _set("edges", "member_ip", 5),
        _location(country=7),
        _location(city=None),
        _location(lat="north"),
        _location(lon=True),
        _location(lat=float("nan")),
        _location(lon=float("inf")),
        _location(lat=-90.5),
        _location(lon=999.5),
    ], ids=["int-ixp-id", "bool-asn", "str-asn", "float-asn", "zero-asn",
            "33-bit-asn", "duplicate-ixp", "duplicate-as", "duplicate-edge",
            "str-names", "int-name", "int-prefix", "bool-prefix-count",
            "int-member-ip", "int-country", "null-city", "str-lat", "bool-lon",
            "nan-lat", "inf-lon", "south-of-pole-lat", "out-of-range-lon"])
    def test_bad_document_is_one_line_error(self, tmp_path, capsys, mutate):
        doc = graph_to_dict(make_g0())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "export", str(path), "--format", "edgelist")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestInputEncoding:
    @pytest.mark.parametrize("kind", ["membership", "attribute", "map-file", "graph",
                                      "cover-targets", "budget-targets"])
    def test_non_utf8_input_names_its_file(self, tmp_path, capsys, g0_file, kind):
        pdb, pch = sanitize_fixture_files(tmp_path)
        graph = str(tmp_path / "g.json")
        latin1 = "Z\u00fcrich".encode("latin-1")
        if kind == "membership":
            bad = pch
            bad.write_bytes(pch.read_bytes() + b"PCH,99," + latin1 + b",,65001,,Active,,\n")
            argv = ["build", str(pdb), str(pch), graph]
        elif kind == "attribute":
            bad = tmp_path / "types.csv"
            bad.write_bytes(b"asn,as_type\n65001,ISP\n65002," + latin1 + b"\n")
            argv = ["build", str(pdb), str(pch), graph, "--as-types", str(bad)]
        elif kind == "map-file":
            bad = tmp_path / "costs.csv"
            bad.write_bytes(b"ixp_id,cost\n" + latin1 + b",2\n")
            argv = ["place", str(g0_file), "cover", "--targets", "all", "--costs", str(bad)]
        elif kind in ("cover-targets", "budget-targets"):
            bad = tmp_path / "targets.txt"
            bad.write_bytes(b"AS1\n" + latin1 + b"\n")
            argv = ["place", str(g0_file), kind.split("-")[0], "--targets", f"@{bad}"]
            if kind == "budget-targets":
                argv += ["--budget", "1"]
        else:
            bad = g0_file
            bad.write_bytes(g0_file.read_bytes().replace(b"Exchange 1", b"Exchange " + latin1))
            argv = ["export", str(bad), "--format", "edgelist"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "can't decode byte 0xfc" in err


def padded(path, name):
    """A copy of a CSV file whose data rows have every field padded with
    spaces, with whitespace-only rows and an empty line around them."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows = [",".join(f"  {field} " for field in row.split(",")) for row in rows]
    copy = path.with_name(name)
    copy.write_text("\n".join([header, " , ", *rows, "", "\t, ,", ""]) + "\n",
                    encoding="utf-8")
    return copy


class TestCsvRowRule:
    """Every CSV input is read with fields stripped and blank rows skipped."""

    @staticmethod
    def read(kind, path):
        if kind in ("pdb", "pch"):
            return parse_dataset(path, Source(kind.upper()))
        if kind == "as-types":
            return attach_attributes(make_g0(), as_types_path=path)
        if kind == "locations":
            return attach_attributes(make_g0(), locations_path=path)
        if kind == "costs":
            return _read_map_file(path, ["ixp_id", "cost"], str)
        return _read_map_file(path, ["asn", "weight"], _parse_asn_token)

    CLEAN = {
        "pdb": "source,ixp_key,ixp_name,ixp_prefixes,asn,member_ip,status,as_type,as_prefix_count\n"
               "PDB,k1,Alpha,192.0.2.0/24;2001:db8::/32,64500,192.0.2.1,Active,ISP,42\n"
               "PDB,k1,Alpha,192.0.2.0/24;2001:db8::/32,64501,,Active,,\n"
               "PDB,k2,Beta,,bogus,,Active,,\n",
        "pch": "source,ixp_key,ixp_name,ixp_prefixes,asn,member_ip,status,as_type,as_prefix_count\n"
               "PCH,77,Gamma,198.51.100.0/24,64502,198.51.100.7,NotApproved,Content,\n"
               "PDB,78,Delta,,64503,,Active,,\n",
        "as-types": "asn,as_type\n1,Content\n2,ISP\n99,ISP\n3,Methane\n",
        "locations": "ixp_id,country,city,lat,lon\nX1,DE,Frankfurt,50.1,8.68\n"
                     "X2,GR,Athens,,\nX9,DE,Berlin,,\nX3,DE,Kiel,91,\n",
        "costs": "ixp_id,cost\nX1,10\nX2,2.5\n",
        "weights": "asn,weight\n4,10\nAS1,0.5\n",
    }

    @pytest.mark.parametrize("kind", list(CLEAN))
    def test_padded_file_reads_as_the_clean_one(self, tmp_path, kind):
        clean = tmp_path / f"{kind}.csv"
        clean.write_text(self.CLEAN[kind], encoding="utf-8")
        expected = self.read(kind, clean)
        assert self.read(kind, padded(clean, f"padded-{kind}.csv")) == expected

    def test_padded_build_matches_the_clean_build(self, tmp_path, capsys):
        pdb, pch = sanitize_fixture_files(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n65002,Content\n99999,ISP\n", encoding="utf-8")
        locations = tmp_path / "locations.csv"
        locations.write_text("ixp_id,country,city,lat,lon\nIXP0001,DE,Frankfurt,50.1,\n",
                             encoding="utf-8")
        builds = []
        for prefix in ("clean", "padded"):
            files = [pdb, pch, types, locations]
            if prefix == "padded":
                files = [padded(path, f"padded-{path.name}") for path in files]
            out_graph = tmp_path / f"{prefix}.json"
            code, out, err = run(capsys, "build", str(files[0]), str(files[1]), str(out_graph),
                                 "--as-types", str(files[2]), "--locations", str(files[3]))
            assert (code, err) == (0, "")
            builds.append((out.replace(str(out_graph), "GRAPH"), out_graph.read_bytes()))
        assert builds[0] == builds[1]


class TestFatalInputs:
    """Inputs the readers cannot get past end the run: exit 1, one stderr
    line, no output and no new file."""

    @pytest.mark.parametrize("case", ["oversized-membership-field", "oversized-as-types-field",
                                      "oversized-costs-field", "deep-json-graph",
                                      "non-object-graph-item"])
    def test_one_line_error_and_no_file(self, tmp_path, g0_file, case):
        big = "x" * 140_000
        pdb, pch = sanitize_fixture_files(tmp_path)
        built = tmp_path / "built.json"
        if case == "oversized-membership-field":
            pdb = write_membership_csv(tmp_path / "big.csv",
                                       [f"PDB,k1,{big},192.0.2.0/24,64500,,Active,,"])
            argv = ["build", str(pdb), str(pch), str(built)]
        elif case == "oversized-as-types-field":
            types = tmp_path / "types.csv"
            types.write_text(f"asn,as_type\n65001,ISP\n65002,{big}\n", encoding="utf-8")
            argv = ["build", str(pdb), str(pch), str(built), "--as-types", str(types)]
        elif case == "oversized-costs-field":
            costs = tmp_path / "costs.csv"
            costs.write_text(f"ixp_id,cost\n{big},1\n", encoding="utf-8")
            argv = ["place", str(g0_file), "cover", "--targets", "all", "--costs", str(costs)]
        elif case == "deep-json-graph":
            deep = tmp_path / "deep.json"
            deep.write_text("[" * 100_000, encoding="utf-8")
            argv = ["metrics", str(deep), "degree-cdf"]
        else:
            odd = tmp_path / "odd.json"
            odd.write_text('{"version": 1, "ixps": [1], "ases": [], "edges": []}', encoding="utf-8")
            argv = ["metrics", str(odd), "degree-cdf"]
        before = sorted(tmp_path.iterdir())
        proc = subprocess.run([sys.executable, "-m", "ixpgraph.cli", *argv],
                              env=subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(tmp_path.iterdir()) == before


class TestUsageErrors:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_lax_threshold_is_one_line_error(self, typed_g0_file, capsys):
        code, out, err = run(capsys, "metrics", str(typed_g0_file), "table1",
                             "--thresholds", "0,1_0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --thresholds: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("metrics", "table3", "--tail", "٣"),
        ("metrics", "table2", "--sample", "1_0"),
        ("metrics", "table2", "--seed", "٤"),
        ("metrics", "table1", "--thresholds", "0,1_0"),
        # argparse reads "-1,0" as an option unless it follows "=".
        ("metrics", "table1", "--thresholds=-1,0"),
        ("metrics", "table1", "--thresholds", ""),
        ("metrics", "table1", "--thresholds", ",,"),
        ("place", "budget", "--targets", "all", "--budget", "1_0"),
        ("place", "budget", "--targets", "all", "--budget", "-1"),
        ("place", "budget", "--targets", "all", "--budget", "0"),
        ("place", "budget", "--targets", "all", "--budget", "1" + "0" * 309),
    ], ids=["tail", "sample", "seed", "thresholds", "thresholds-negative",
            "thresholds-empty", "thresholds-commas", "budget", "budget-negative",
            "budget-0", "budget-overflow"])
    def test_lax_numeric_flag_is_one_line_error(self, typed_g0_file, tmp_path, capsys, argv):
        # The flag is parsed before the graph loads: a missing graph file
        # gives the same error.
        command, *rest = argv
        flag = rest[-1].partition("=")[0] if rest[-1].startswith("--") else rest[-2]
        for graph in (typed_g0_file, tmp_path / "missing.json"):
            code, out, err = run(capsys, command, str(graph), *rest)
            assert code == 1
            assert out == ""
            assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, value", [
        (("table2", "--sample", "0"), 0),
        (("table2", "--sample", "-3"), -3),
        (("table3", "--tail", "0"), 0),
        (("table3", "--tail", "-2"), -2),
    ], ids=["sample-0", "sample-negative", "tail-0", "tail-negative"])
    def test_count_flag_below_one_is_one_line_error(self, g0_file, tmp_path, capsys,
                                                    argv, value):
        # Checked before the graph loads, so also on a missing graph file and
        # on a one-AS graph, where table2 has no pair to sample.
        single = tmp_path / "single.json"
        serialization.write_graph(build_graph([IxpNode("X1", ["X1"])], [AsNode(1)],
                                              [MembershipEdge("X1", 1)]), single)
        for graph in (g0_file, single, tmp_path / "missing.json"):
            code, out, err = run(capsys, "metrics", str(graph), *argv)
            assert (code, out, err) == (1, "", f"error: {argv[1]}: must be at least 1, got {value}\n")

    @pytest.mark.parametrize("argv, token", [
        (("tunnels", "--as", "x"), "'x'"),
        (("cover", "--targets", "1_0"), "'1_0'"),
        (("budget", "--targets", "64500,AS1_0", "--budget", "5"), "'AS1_0'"),
    ], ids=["tunnels-as", "cover-targets", "budget-targets"])
    def test_bad_as_flag_is_reported_before_the_graph_loads(self, g0_file, tmp_path,
                                                            capsys, argv, token):
        # Only "--targets all" needs the graph, so a missing graph file
        # gives the same one-line error as G0.
        for graph in (g0_file, tmp_path / "missing.json"):
            code, out, err = run(capsys, "place", str(graph), *argv)
            assert code == 1
            assert out == ""
            assert err == f"error: not an AS number: {token}\n"

    @pytest.mark.parametrize("argv, header, row, message", [
        (("cover", "--targets", "1", "--costs"), "ixp_id,cost", "X1,1_0",
         "not a decimal number: '1_0'"),
        (("budget", "--targets", "1", "--budget", "5", "--weights"), "asn,weight", "4,1_0",
         "not a decimal number: '1_0'"),
        (("cover", "--targets", "all", "--costs"), "ixp_id,cost", "X1,0",
         "not a finite positive number: '0'"),
        (("cover", "--targets", "1", "--costs"), "ixp_id,cost", "X1,-2.5",
         "not a finite positive number: '-2.5'"),
        (("budget", "--targets", "1", "--budget", "5", "--weights"), "asn,weight",
         "4," + "1" + "0" * 310, f"not a finite positive number: '1{'0' * 310}'"),
        (("budget", "--targets", "1", "--budget", "5", "--weights"), "asn,weight", "4,-0.0",
         "not a finite positive number: '-0.0'"),
    ], ids=["cover-costs", "budget-weights", "zero-cost", "negative-cost", "overflowing-weight",
            "negative-zero-weight"])
    def test_map_file_is_read_before_the_graph(self, g0_file, tmp_path, capsys,
                                               argv, header, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{row}\n", encoding="utf-8")
        for graph in (g0_file, tmp_path / "missing.json"):
            code, out, err = run(capsys, "place", str(graph), *argv, str(bad))
            assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")

    def test_target_file_is_read_before_the_graph(self, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("AS1\nA-2\n", encoding="utf-8")
        code, out, err = run(capsys, "place", str(tmp_path / "missing.json"), "cover",
                             "--targets", f"@{targets}")
        assert (code, out, err) == (1, "", "error: not an AS number: 'A-2'\n")

    def test_bad_class_choice(self, g0_file):
        with pytest.raises(SystemExit) as info:
            main(["metrics", str(g0_file), "degree-cdf", "--class", "router"])
        assert info.value.code == 2


@pytest.fixture(scope="module")
def paper_scale_file(tmp_path_factory):
    """The paper-scale graph's file and its highest-degree AS."""
    graph = paper_scale_graph()
    path = tmp_path_factory.mktemp("paper") / "graph.json"
    serialization.write_graph(graph, path)
    return path, max(graph.ases, key=lambda a: len(graph.memberships(a)))


class TestCommandStartUp:
    """What every command pays before its own work: the modules it imports,
    and the cyclic collector, which is off while a command runs."""

    BASE = {"ixpgraph", "ixpgraph.cli", "ixpgraph.errors", "ixpgraph.model",
            "ixpgraph.serialization"}
    PRELUDE = ("import json, sys; from ixpgraph.cli import main; code = main(sys.argv[1:]); "
               "print(json.dumps(sorted(sys.modules)), file=sys.stderr); sys.exit(code)")

    @pytest.mark.parametrize("command, modules", [
        ("build", {"ixpgraph.ingest"}),
        ("metrics", {"ixpgraph.metrics", "ixpgraph.projection"}),
        ("correlation", {"ixpgraph.metrics", "ixpgraph.projection"}),
        ("place", {"ixpgraph.placement", "ixpgraph.projection"}),
        ("export", set()),
    ], ids=["build", "metrics", "correlation", "place", "export"])
    def test_command_imports_only_what_it_runs(self, tmp_path, g0_file, command, modules):
        pdb, pch = sanitize_fixture_files(tmp_path)
        costs = tmp_path / "costs.csv"
        costs.write_text("ixp_id,cost\nX1,2\n", encoding="utf-8")
        counted = tmp_path / "counted.json"
        serialization.write_graph(make_g0(prefix_counts={1: 10, 2: 20, 4: 5}), counted)
        argv = {"build": ["build", str(pdb), str(pch), str(tmp_path / "built.json")],
                "metrics": ["metrics", str(g0_file), "table2"],
                "correlation": ["metrics", str(counted), "correlation"],
                "place": ["place", str(g0_file), "cover", "--targets", "all",
                          "--costs", str(costs)],
                "export": ["export", str(g0_file), "--format", "json"]}[command]
        proc = subprocess.run([sys.executable, "-c", self.PRELUDE, *argv],
                              env=subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stderr.splitlines()[-1]))
        assert {m for m in loaded if m.startswith("ixpgraph")} == self.BASE | modules
        # dataclasses pulls in inspect (with ast, dis and tokenize), and
        # statistics pulls in fractions and decimal.
        assert not loaded & {"dataclasses", "inspect", "statistics"}

    def test_betweenness_with_far_pairs_imports_no_fractions(self, tmp_path):
        # The IXP projection is the path X1 - X2 - X3 - X4 - X5, so the far
        # pass runs on exact integer totals, and neither fractions nor
        # decimal (3-4 ms to import) is loaded.
        ixps = [f"X{i}" for i in range(1, 6)]
        graph = build_graph([IxpNode(x, [x]) for x in ixps], [AsNode(a) for a in range(1, 5)],
                            [MembershipEdge(x, a) for a in range(1, 5) for x in ixps[a - 1:a + 1]])
        path = tmp_path / "path.json"
        serialization.write_graph(graph, path)
        proc = subprocess.run([sys.executable, "-c", self.PRELUDE, "metrics", str(path),
                               "betweenness"], env=subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1:] == [
            "X1,0.0", "X2,0.5", "X3,0.6666666666666666", "X4,0.5", "X5,0.0"]
        assert not set(json.loads(proc.stderr.splitlines()[-1])) & {"fractions", "decimal"}

    @pytest.mark.parametrize("argv, code", [
        (["export", "{graph}", "--format", "edgelist"], 0),
        (["export", "{graph}", "--format", "xml"], 1),
        (["metrics", "{missing}", "degree-cdf"], 1),
        (["metrics", "{graph}", "degree-cdf", "--class", "router"], 2),
    ], ids=["ok", "bad-format", "missing-graph", "usage-error"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, g0_file, tmp_path, capsys, argv, code, enabled):
        argv = [a.format(graph=g0_file, missing=tmp_path / "none.json") for a in argv]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                got = main(argv)
            except SystemExit as exit_:
                got = exit_.code
            assert (got, gc.isenabled()) == (code, enabled)
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_is_off_during_the_command(self, g0_file, capsys, monkeypatch):
        seen = []
        read_graph = serialization.read_graph

        def spy(path):
            seen.append(gc.isenabled())
            return read_graph(path)

        monkeypatch.setattr(serialization, "read_graph", spy)
        assert gc.isenabled()
        assert run(capsys, "metrics", str(g0_file), "degree-cdf")[0] == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("argv", [
        ("export", "{graph}", "--format", "json"),
        ("metrics", "{graph}", "degree-cdf", "--class", "as"),
        ("metrics", "{graph}", "table3", "--class", "ixp"),
        ("place", "{graph}", "cover", "--targets", "all"),
        ("place", "{graph}", "tunnels", "--as", "{asn}"),
    ], ids=["export", "degree-cdf", "table3", "cover", "tunnels"])
    def test_command_leaves_little_cyclic_garbage(self, paper_scale_file, capsys, argv):
        # With the collector off, what a command leaves in reference cycles
        # stays until the caller collects: a few hundred argparse objects,
        # not a share of the graph's 5.2k nodes and 15.6k edges.
        path, asn = paper_scale_file
        argv = [a.format(graph=path, asn=asn) for a in argv]
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert run(capsys, *argv)[0] == 0
            garbage = gc.collect()
        finally:
            if was:
                gc.enable()
        assert garbage < 1000


def traced_targets() -> list[tuple[str, str]]:
    """The (module, function) pairs in perfbench/layers.py's TARGETS, read
    with ``ast`` so the bench's own imports are not needed."""
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]


class TestTracedBenchmarkModules:
    # Traced names whose functions left the package; their spans read 0
    # until the bench drops them (ROADMAP item 1, benchmark upkeep).
    KNOWN_GAPS = {("projection", "project"), ("metrics", "remote_peering_gain")}

    def test_traced_modules_import(self):
        # perfbench's traced run imports ixpgraph.<module> for every module
        # its TARGETS name, so deleting one of them breaks that run.
        modules = sorted({module for module, _ in traced_targets()})
        assert "projection" in modules
        for module in modules:
            importlib.import_module(f"ixpgraph.{module}")

    def test_traced_functions_exist(self):
        # A traced function that leaves the package silently drops its span.
        missing = {(module, function) for module, function in traced_targets()
                   if not hasattr(importlib.import_module(f"ixpgraph.{module}"), function)}
        assert missing == self.KNOWN_GAPS


@pytest.fixture(scope="module")
def bench_commands(tmp_path_factory):
    """The paper-scale graph with AS types, prefix counts and locations, and
    the command lines of the paper-suite and reach benchmark workloads on it."""
    rng = random.Random(42)
    plain = paper_scale_graph()
    metros = [("DE", "Frankfurt"), ("GR", "Athens"), ("NL", "Amsterdam"), ("US", "Ashburn")]
    ixps = {}
    for ixp_id, node in plain.ixps.items():
        country, city = rng.choice(metros)
        ixps[ixp_id] = node._replace(location=Location(
            country, city, round(rng.uniform(-90, 90), 4), round(rng.uniform(-180, 180), 4)))
    ases = {asn: node._replace(as_type=rng.choice(list(AsType)), prefix_count=rng.randint(0, 5000))
            for asn, node in plain.ases.items()}
    graph = BipartiteGraph(ixps=ixps, ases=ases, edges=plain.edges)
    work = tmp_path_factory.mktemp("bench")
    path = work / "graph.json"
    serialization.write_graph(graph, path)
    costs, weights, targets = work / "costs.csv", work / "weights.csv", work / "targets.txt"
    costs.write_text("ixp_id,cost\n" + "".join(
        f"{x},{round(rng.uniform(1, 10), 1)}\n" for x in graph.ixps if rng.random() < 0.8),
        encoding="utf-8")
    weights.write_text("asn,weight\n" + "".join(
        f"{a},{rng.choice([1, 2, 5, 10])}\n" for a in graph.ases if rng.random() < 0.8),
        encoding="utf-8")
    targets.write_text("".join(f"AS{a}\n" for a in rng.sample(sorted(graph.ases), 470)),
                       encoding="utf-8")
    priced = ["--costs", str(costs), "--weights", str(weights)]
    top = sorted(graph.ases, key=lambda a: (-len(graph.memberships(a)), a))[:5]
    metrics = [["degree-cdf", "--class", "ixp"], ["degree-cdf", "--class", "as"],
               ["member-types-cdf"], ["table1"], ["correlation"], ["table2"],
               ["table2", "--sample", "500", "--seed", "42"], ["table3", "--class", "ixp"],
               ["table3", "--class", "as"], ["betweenness"], ["clustering"], ["gain-cdf"]]
    places = [*(["tunnels", "--as", str(a)] for a in top),
              ["cover", "--targets", "all"], ["cover", "--targets", f"@{targets}", *priced],
              *(["budget", "--targets", "all", "--budget", b, *priced] for b in ("5", "20")),
              *(["site", "--country", c, "--city", city] for c, city in metros[:3])]
    return path, ([["metrics", str(path), *m] for m in metrics]
                  + [["place", str(path), *p] for p in places])


class TestGraphCache:
    """A command prints the same from a cached graph as from its JSON."""

    def test_every_bench_command_prints_the_same_cold_and_warm(self, bench_commands, capsys,
                                                               monkeypatch):
        # A warm read makes no edge record until one is read: no metric or
        # placement does, and both exports do.
        path, commands = bench_commands
        exports = [["export", str(path), "--format", fmt] for fmt in ("json", "edgelist")]
        validated, validate = [], serialization.graph_from_dict
        monkeypatch.setattr(serialization, "graph_from_dict",
                            lambda data: validated.append(1) or validate(data))
        graphs, read = [], serialization.read_graph
        monkeypatch.setattr(serialization, "read_graph",
                            lambda name: graphs.append(read(name)) or graphs[-1])
        cache = path.with_name(f".{path.name}.ixpgraph")
        for argv in [*commands, *exports]:
            cache.unlink(missing_ok=True)
            cold = run(capsys, *argv)
            assert cache.is_file()
            warm = run(capsys, *argv)
            assert cold == warm and cold[0] == 0 and cold[2] == "", argv
            assert ("edges" in vars(graphs[-1])) == (argv in exports), argv
        assert len(validated) == len(commands) + len(exports)  # each warm run read the cache

    def test_unwritable_cache_path_changes_nothing(self, g0_file, capsys):
        want = run(capsys, "export", str(g0_file), "--format", "json")
        g0_file.with_name(f".{g0_file.name}.ixpgraph").unlink()
        g0_file.with_name(f".{g0_file.name}.ixpgraph").mkdir()
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "ixpgraph.cli", "export", str(g0_file),
                                   "--format", "json"],
                                  env=subprocess_env(), capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == want
        assert sorted(p.name for p in g0_file.parent.iterdir()) == [
            f".{g0_file.name}.ixpgraph", g0_file.name]

    def test_standard_input_is_not_cached(self, g0_file, capsys):
        want = run(capsys, "export", str(g0_file), "--format", "edgelist")
        with open(g0_file, "rb") as stdin:
            proc = subprocess.run([sys.executable, "-m", "ixpgraph.cli", "export", "/dev/stdin",
                                   "--format", "edgelist"], stdin=stdin,
                                  env=subprocess_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == want
        assert not list(Path("/dev").glob(".*.ixpgraph"))
