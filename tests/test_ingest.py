"""Dataset parsing, IXP identity merging, sanitization, attributes."""

import ipaddress
import json
import random
import re
import sys
from collections import Counter

import pytest

import oracles

from ixpgraph.cli import main
from ixpgraph.ingest import (
    _member_address,
    _prefix,
    DiscardReason,
    IxpIdentity,
    MembershipRecord,
    ReasonTally,
    attach_attributes,
    build_from_files,
    merge_ixp_lists,
    normalize_ixp_name,
    parse_dataset,
    sanitize,
)
from ixpgraph.model import AsType, IxpGraphError, IxpStatus, NodeClass, Source
from ixpgraph.projection import index
from ixpgraph.serialization import dumps_graph

from conftest import (
    assert_rebuilds_equal,
    merge_test_lists,
    sanitize_fixture_files,
    sanitize_test_sets,
    write_membership_csv,
)
from oracles import bf_discard_report, bf_merge_ixp_lists, bf_parse_dataset, bf_sanitized_graph


def parse(tmp_path, rows, source=Source.PDB, name="data.csv"):
    return parse_dataset(write_membership_csv(tmp_path / name, rows), source)


def random_membership_rows(rng, source: str, n: int) -> list[str]:
    """Rows drawn from small pools of IXP fields (key, name, prefixes,
    status), AS fields (asn, as_type, prefix count) and member IPs, so that
    good and bad groups repeat; a few rows name the other source or have a
    field too few or too many."""
    ixps = [
        ("k1", "Alpha", "192.0.2.0/24", "Active"),
        ("k1", "Alpha IX", "192.0.2.7/24; 2001:db8::/32", "Active"),
        ("k2", "Beta", "", "NotApproved"),
        ("k3", "Gamma", "2001:DB8:1::/48", "Inactive"),
        ("k4", "Delta", "192.0.2.0/33", "Active"),    # bad prefix list
        ("k5", "Epsilon", "10.0.0.0/8", "Sometimes"),  # bad status
        ("", "Zeta", "10.0.0.0/8", "Active"),          # empty key
    ]
    ases = [("64500", "ISP", "42"), ("64501", "", ""), ("4200000000", "Content", "0"),
            ("abc", "ISP", ""),         # bad asn
            ("64502", "Methane", ""),   # bad as_type
            ("64503", "", "-3")]        # negative count
    ips = ["", "192.0.2.1", "10.1.2.3", "2001:DB8::0:1", "2001:db8::1", "FE80::0:1%eth0",
           "::ffff:192.0.2.1", "999.1.2.3", "192.0.2.01"]
    rows = []
    for _ in range(n):
        key, name, prefixes, status = rng.choice(ixps)
        asn, as_type, count = rng.choice(ases)
        row_source = source if rng.random() < 0.95 else "PCH" if source == "PDB" else "PDB"
        row = [row_source, key, name, prefixes, asn, rng.choice(ips), status, as_type, count]
        if rng.random() < 0.03:
            row = row[:-1] if rng.random() < 0.5 else row + [""]
        rows.append(",".join(row))
    return rows


class TestParseDataset:
    def test_well_formed_rows(self, tmp_path):
        result = parse(tmp_path, [
            "PDB,k1,Alpha,192.0.2.0/24,64500,192.0.2.1,Active,ISP,42",
            "PDB,k1,Alpha,192.0.2.0/24,64501,,Active,,",
            "PDB,k2,Beta,,64500,,NotApproved,Content,0",
        ])
        assert len(result.records) == 3
        assert result.parse_errors == 0
        first = result.records[0]
        assert first.asn == 64500
        assert first.ixp_prefixes == ("192.0.2.0/24",)
        assert first.member_ip == "192.0.2.1"
        assert first.as_type is AsType.ISP
        assert first.as_prefix_count == 42
        assert result.records[1].member_ip is None
        assert result.records[2].status is IxpStatus.NOT_APPROVED

    def test_prefix_list_and_canonicalization(self, tmp_path):
        result = parse(tmp_path, [
            "PDB,k1,Alpha,192.0.2.128/25;2001:db8::/32,64500,,Active,,",
        ])
        assert result.records[0].ixp_prefixes == ("192.0.2.128/25", "2001:db8::/32")

    def test_host_bits_normalized(self, tmp_path):
        result = parse(tmp_path, ["PDB,k1,Alpha,192.0.2.7/24,64500,,Active,,"])
        assert result.records[0].ixp_prefixes == ("192.0.2.0/24",)

    def test_malformed_asn_counted_not_fatal(self, tmp_path):
        result = parse(tmp_path, [
            "PDB,k1,Alpha,,abc,,Active,,",
            "PDB,k1,Alpha,,64500,,Active,,",
        ])
        assert len(result.records) == 1
        assert result.parse_errors == 1

    @pytest.mark.parametrize("row", [
        "PDB,k1,Alpha,,0,,Active,,",                    # asn not positive
        "PDB,k1,Alpha,,4294967296,,Active,,",           # asn above 32 bits
        "PDB,k1,Alpha,,64_500,,Active,,",               # digit separator
        "PDB,k1,Alpha,not-a-cidr,64500,,Active,,",      # bad prefix
        "PDB,k1,Alpha,,64500,999.1.2.3,Active,,",       # bad member ip
        "PDB,k1,Alpha,,64500,,Sometimes,,",             # bad status
        "PDB,k1,Alpha,,64500,,Active,Methane,",         # bad as_type
        "PDB,k1,Alpha,,64500,,Active,,-3",              # negative count
        "PDB,,Alpha,,64500,,Active,,",                  # empty key
        "PDB,k1,,,64500,,Active,,",                     # empty name
        "PCH,k1,Alpha,,64500,,Active,,",                # wrong source
        "PDB,k1,Alpha,,64500,,Active",                  # short row
        "PDB,k1,Alpha,,64500,,Active,,1_000",           # separator in count
        "PDB,k1,Alpha,,64500,,Active,,\u0663",          # Arabic-Indic digit count
        "PDB,k1,Alpha,,64500,,Active,,1e3",             # exponent in count
        "PDB,k1,Alpha,,\u0666\u0664\u0665\u0660\u0660,,Active,,",  # Arabic-Indic asn
    ])
    def test_malformed_rows(self, tmp_path, row):
        result = parse(tmp_path, [row])
        assert result.records == []
        assert result.parse_errors == 1

    def test_blank_lines_skipped(self, tmp_path):
        result = parse(tmp_path, ["", "PDB,k1,Alpha,,64500,,Active,,", ""])
        assert len(result.records) == 1
        assert result.parse_errors == 0

    def test_empty_file_with_header(self, tmp_path):
        result = parse(tmp_path, [])
        assert result.records == [] and result.parse_errors == 0

    def test_unrecognized_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\nx,y\n", encoding="utf-8")
        with pytest.raises(IxpGraphError,
                           match=rf"^{re.escape(str(path))}: unrecognized header 'who,what'$"):
            parse_dataset(path, Source.PDB)

    def test_file_without_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IxpGraphError,
                           match=rf"^{re.escape(str(path))}: empty file, expected header "):
            parse_dataset(path, Source.PDB)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_dataset(tmp_path / "nope.csv", Source.PDB)

    def test_oversized_field_is_format_error(self, tmp_path):
        path = write_membership_csv(tmp_path / "big.csv", [
            "PDB,k1,Alpha,,64500,,Active,,",
            "PDB,k1," + "x" * 140_000 + ",,64501,,Active,,",
        ])
        with pytest.raises(IxpGraphError, match=r"big\.csv, line 3: field larger than field limit"):
            parse_dataset(path, Source.PDB)

    def test_matches_row_oracle_on_random_files(self, tmp_path):
        # The parser validates each distinct group of IXP fields and of AS
        # fields once per file, and each member IP once for both files; the
        # oracle validates every row. A rejected group still costs each of
        # its rows a parse error.
        seen = Counter()
        for seed in range(6):
            rng = random.Random(seed)
            for source in (Source.PDB, Source.PCH):
                path = write_membership_csv(tmp_path / f"{source.value}{seed}.csv",
                                            random_membership_rows(rng, source.value, 150))
                result, expected = parse_dataset(path, source), bf_parse_dataset(path, source)
                assert result == expected, (seed, source)
                seen["errors"] += result.parse_errors
                seen.update(r.member_ip for r in result.records)
        assert seen["errors"] and seen["2001:db8::1"] and seen["fe80::1%eth0"], seen
        assert seen["::ffff:c000:201"], seen

    def test_accepted_ipv4_text_is_canonical(self):
        # A member IP that ipaddress reads as IPv4 keeps its own text, which
        # holds only while ipaddress accepts nothing but canonical dotted
        # quads: no leading zero, no other script's digit, no sign or base.
        octets = ["0", "00", "000", "1", "01", "001", "10", "010", "99", "100", "199", "255",
                  "256", "0255", "1000", "", "\u0663", "\uff11", "+1", "0x1", " 1"]
        rng = random.Random(7)
        corpus = {"192.0.2.1", "0.0.0.0", "255.255.255.255", "192.0.2.01", "256.1.1.1",
                  "1000.1.1.1", "1.2.3", "1.2.3.4.5", "1..2.3", "\u0663.1.1.1", "\uff11.1.1.1",
                  "+1.1.1.1", "0x1.1.1.1"}
        corpus.update(".".join(rng.choice(octets) for _ in range(rng.randint(3, 5)))
                      for _ in range(5000))
        corpus.update(".".join(str(rng.randrange(256)) for _ in range(4)) for _ in range(500))
        accepted = 0
        for text in sorted(corpus):
            try:
                ip = ipaddress.ip_address(text)
            except ValueError:
                continue
            assert ip.version == 4 and str(ip) == text, text
            assert _member_address(text) == (text, (4, int(ip)))
            accepted += 1
        assert 0 < accepted < len(corpus)

    def test_mapped_ipv4_text_is_hex_on_every_interpreter(self):
        # Python 3.13 prints an IPv4-mapped address as ::ffff:192.0.2.1 and
        # 3.10-3.12 as ::ffff:c000:201; a member IP takes the older text, so
        # a graph file does not change with the interpreter.
        cases = {
            "::ffff:192.0.2.1": "::ffff:c000:201",
            "::FFFF:C000:0201": "::ffff:c000:201",
            "0:0:0:0:0:ffff:a00:1": "::ffff:a00:1",
            "::ffff:0.0.0.0": "::ffff:0:0",
            "::ffff:0.0.0.1": "::ffff:0:1",
            "::ffff:0.1.0.0": "::ffff:1:0",
            "::ffff:255.255.255.255": "::ffff:ffff:ffff",
            "::ffff:192.0.2.1%eth0": "::ffff:c000:201%eth0",
            # Not mapped: printed by ipaddress as before.
            "::fffe:c000:201": "::fffe:c000:201",
            "1::ffff:c000:201": "1::ffff:c000:201",
            "::c000:201": "::c000:201",
        }
        for text, canonical in cases.items():
            assert _member_address(text) == (canonical, (6, int(ipaddress.ip_address(text)))), text
        # A peering prefix in the mapped range is spelled the same way.
        assert _prefix("::FFFF:192.0.2.1/120") == ("::ffff:c000:200/120", (6, 0xFFFFC0000200, 120))
        assert _prefix("::ffff:0.0.0.0/96")[0] == "::ffff:0:0/96"
        if sys.version_info < (3, 13):  # the text these interpreters print
            rng = random.Random(11)
            values = [rng.getrandbits(32) for _ in range(3000)]
            values += [rng.getrandbits(16) << 16 * rng.randint(0, 1) for _ in range(1000)]
            for text in (f"::ffff:{ipaddress.IPv4Address(n)}" for n in values):
                assert _member_address(text)[0] == str(ipaddress.ip_address(text)), text

    def test_shared_prefix_lists_are_immutable(self, tmp_path):
        # Rows with the same raw ixp_prefixes share one parsed value, so it
        # must be a tuple: a list shared across records could be mutated
        # through any one of them.
        result = parse(tmp_path, [
            "PDB,k1,Alpha,192.0.2.0/24,64500,,Active,,",
            "PDB,k1,Alpha,192.0.2.0/24,64501,,Active,,",
        ])
        first, second = result.records
        assert first.ixp_prefixes is second.ixp_prefixes
        assert isinstance(first.ixp_prefixes, tuple)


class TestNormalizeIxpName:
    @pytest.mark.parametrize("a,b", [
        ("DE-CIX Frankfurt", "de cix  frankfurt"),
        ("AMS-IX", "ams ix"),
        ("  LINX  ", "linx"),
        ("A.B,C_D", "a b c d"),
    ])
    def test_equal_after_normalization(self, a, b):
        assert normalize_ixp_name(a) == normalize_ixp_name(b)

    def test_distinct_names_stay_distinct(self):
        assert normalize_ixp_name("LINX") != normalize_ixp_name("France-IX")


def records_for_merge(tmp_path, pdb_rows, pch_rows):
    pdb = parse(tmp_path, pdb_rows, Source.PDB, "p.csv").records
    pch = parse(tmp_path, pch_rows, Source.PCH, "c.csv").records
    return pdb + pch


class TestMergeIxpLists:
    def test_prefix_containment_unifies(self, tmp_path):
        records = records_for_merge(
            tmp_path,
            ["PDB,de,DE-CIX Frankfurt,80.81.192.0/21,64500,,Active,,"],
            ["PCH,9,decix fra,80.81.192.0/22,64501,,Active,,"],
        )
        identities = merge_ixp_lists(records)
        assert len(identities) == 1
        ident = next(iter(identities.values()))
        assert ident.source_keys == {(Source.PDB, "de"), (Source.PCH, "9")}
        assert ident.peering_prefixes == ("80.81.192.0/21", "80.81.192.0/22")

    def test_name_match_with_disjoint_prefixes(self, tmp_path):
        records = records_for_merge(
            tmp_path,
            ["PDB,ams,AMS-IX,10.0.0.0/24,64500,,Active,,"],
            ["PCH,5,ams ix,10.9.0.0/24,64501,,Active,,"],
        )
        assert len(merge_ixp_lists(records)) == 1

    def test_unrelated_ixps_stay_separate(self, tmp_path):
        records = records_for_merge(
            tmp_path,
            ["PDB,linx,LINX,10.0.0.0/24,64500,,Active,,"],
            ["PCH,fr,France-IX,10.9.0.0/24,64501,,Active,,"],
        )
        identities = merge_ixp_lists(records)
        assert len(identities) == 2

    def test_transitive_closure(self, tmp_path):
        # A~B by prefix, B~C by name: all three collapse into one node.
        records = records_for_merge(
            tmp_path,
            ["PDB,a,Alpha West,10.0.0.0/16,64500,,Active,,"],
            [
                "PCH,b,Beta,10.0.1.0/24,64501,,Active,,",
                "PCH,c,beta,172.16.0.0/24,64502,,Active,,",
            ],
        )
        assert len(merge_ixp_lists(records)) == 1

    def test_same_version_required_for_prefix_match(self, tmp_path):
        records = records_for_merge(
            tmp_path,
            ["PDB,a,Alpha,0.0.0.0/0,64500,,Active,,"],
            ["PCH,b,Beta,::/0,64501,,Active,,"],
        )
        assert len(merge_ixp_lists(records)) == 2

    def test_ids_assigned_in_source_key_order(self, tmp_path):
        records = records_for_merge(
            tmp_path,
            ["PDB,zz,Zed,10.0.0.0/24,64500,,Active,,"],
            ["PCH,aa,Ay,10.9.0.0/24,64501,,Active,,"],
        )
        identities = merge_ixp_lists(records)
        # "PCH:aa" sorts before "PDB:zz", so Ay gets the first id.
        assert identities["IXP0001"].names == ("Ay",)
        assert identities["IXP0002"].names == ("Zed",)

    def test_status_conflict_resolves_to_worst(self, tmp_path):
        records = records_for_merge(
            tmp_path,
            ["PDB,x,Xchg,10.0.0.0/24,64500,,Active,,"],
            ["PCH,y,xchg,10.0.0.0/24,64501,,Inactive,,"],
        )
        ident = merge_ixp_lists(records)["IXP0001"]
        assert ident.status is IxpStatus.INACTIVE

    def test_names_and_prefixes_merged_sorted(self, tmp_path):
        records = records_for_merge(
            tmp_path,
            ["PDB,x,Zulu Exchange,192.0.2.0/24,64500,,Active,,"],
            ["PCH,y,zulu exchange,192.0.2.0/25;10.0.0.0/8,64501,,Active,,"],
        )
        ident = merge_ixp_lists(records)["IXP0001"]
        assert ident.names == ("Zulu Exchange", "zulu exchange")
        assert ident.peering_prefixes == ("10.0.0.0/8", "192.0.2.0/24", "192.0.2.0/25")

    def test_punctuation_only_names_match_no_other(self, tmp_path):
        # "-" and "." both normalize to "": that matches no other name, so
        # IXPs with disjoint prefixes stay apart, and a shared prefix still
        # unifies them.
        def merged(pch_lan):
            return merge_ixp_lists(records_for_merge(
                tmp_path,
                ["PDB,a,-,192.0.2.0/24,64500,,Active,,", "PDB,b,-,10.0.0.0/24,64501,,Active,,"],
                [f"PCH,c,.,{pch_lan},64502,,Active,,"],
            ))

        apart = merged("198.51.100.0/24")
        assert [ident.names for ident in apart.values()] == [(".",), ("-",), ("-",)]
        joined = merged("192.0.2.128/25")
        assert [(ident.names, len(ident.source_keys)) for ident in joined.values()] == [
            (("-", "."), 2), (("-",), 1)]

    def test_result_type(self, tmp_path):
        records = records_for_merge(
            tmp_path, ["PDB,a,Alpha,10.0.0.0/24,64500,,Active,,"], [])
        ident = merge_ixp_lists(records)["IXP0001"]
        assert isinstance(ident, IxpIdentity)

    def test_matches_pairwise_oracle_on_random_lists(self):
        for case, records in enumerate(merge_test_lists()):
            assert merge_ixp_lists(records) == bf_merge_ixp_lists(records), f"case {case}"


class TestSanitize:
    def run_fixture(self, tmp_path):
        pdb_path, pch_path = sanitize_fixture_files(tmp_path)
        pdb = parse_dataset(pdb_path, Source.PDB)
        pch = parse_dataset(pch_path, Source.PCH)
        return sanitize(pdb.records + pch.records, pdb.parse_errors + pch.parse_errors)

    def test_stage_tallies(self, tmp_path):
        _, report = self.run_fixture(tmp_path)
        assert report.reasons[DiscardReason.INACTIVE_IXP] == ReasonTally(1, 1)
        assert report.reasons[DiscardReason.IP_INCONSISTENT] == ReasonTally(0, 1)
        assert report.reasons[DiscardReason.DUPLICATE_COLLAPSED] == ReasonTally(0, 1)
        assert report.reasons[DiscardReason.NOT_IN_GIANT_COMPONENT] == ReasonTally(2, 1)
        assert DiscardReason.PARSE_ERROR not in report.reasons

    def test_totals_identity(self, tmp_path):
        graph, report = self.run_fixture(tmp_path)
        assert report.nodes_total_pre == 8
        assert report.edges_total_pre == 8
        nodes_discarded = sum(tally.nodes for tally in report.reasons.values())
        edges_discarded = sum(tally.edges for tally in report.reasons.values())
        assert report.nodes_total_pre - nodes_discarded == graph.num_nodes
        assert report.edges_total_pre - edges_discarded == graph.num_edges

    def test_surviving_graph(self, tmp_path):
        graph, _ = self.run_fixture(tmp_path)
        assert len(graph.ixps) == 2
        assert set(graph.ases) == {65001, 65002, 65003}
        assert graph.num_edges == 4

    def test_surviving_ips_consistent(self, tmp_path):
        graph, _ = self.run_fixture(tmp_path)
        for (ixp_id, _), edge in graph.edges.items():
            if edge.member_ip is None:
                continue
            ip = ipaddress.ip_address(edge.member_ip)
            nets = [ipaddress.ip_network(p) for p in graph.ixps[ixp_id].peering_prefixes]
            assert any(ip.version == n.version and ip in n for n in nets)

    def test_duplicate_merges_sources_and_prefers_pdb_ip(self, tmp_path):
        graph, _ = self.run_fixture(tmp_path)
        merged = [e for e in graph.edges.values() if e.asn == 65002]
        assert len(merged) == 1
        assert merged[0].sources == {Source.PDB, Source.PCH}
        assert merged[0].member_ip == "192.0.2.11"

    def test_as_attributes_carried_over(self, tmp_path):
        graph, _ = self.run_fixture(tmp_path)
        assert graph.ases[65001].as_type is AsType.ISP
        assert graph.ases[65001].prefix_count == 120
        assert graph.ases[65002].as_type is AsType.CONTENT

    def test_parse_errors_reported(self, tmp_path):
        pdb = parse(tmp_path, [
            "PDB,k1,Alpha,192.0.2.0/24,64500,,Active,,",
            "PDB,k1,Alpha,192.0.2.0/24,bogus,,Active,,",
        ])
        _, report = sanitize(pdb.records, pdb.parse_errors)
        assert report.reasons[DiscardReason.PARSE_ERROR] == ReasonTally(0, 1)
        assert report.edges_total_pre == 2

    def test_all_inactive_raises_empty(self, tmp_path):
        pdb = parse(tmp_path, ["PDB,k1,Alpha,192.0.2.0/24,64500,,Inactive,,"])
        with pytest.raises(IxpGraphError, match=r"^no membership edges survive sanitization$"):
            sanitize(pdb.records)

    def test_absent_member_ip_kept(self, tmp_path):
        pdb = parse(tmp_path, [
            "PDB,k1,Alpha,192.0.2.0/24,64500,,Active,,",
            "PDB,k1,Alpha,192.0.2.0/24,64501,,Active,,",
        ])
        graph, report = sanitize(pdb.records)
        assert graph.num_edges == 2
        assert DiscardReason.IP_INCONSISTENT not in report.reasons

    def test_ixp_without_prefix_drops_rows_with_ip(self, tmp_path):
        # No peering prefix in either source: stage 2 finds no LAN that
        # holds a member IP, so every row that reports one is dropped.
        pdb = parse(tmp_path, [
            "PDB,k1,Alpha,,64500,192.0.2.1,Active,,",
            "PDB,k1,Alpha,,64501,,Active,,",
            "PDB,k1,Alpha,,64502,,Active,,",
        ])
        pch = parse(tmp_path, ["PCH,7,ALPHA,,64501,2001:db8::1,Active,,"],
                    Source.PCH, "pch.csv")
        records = pdb.records + pch.records
        assert [i.peering_prefixes for i in merge_ixp_lists(records).values()] == [()]
        graph, report = sanitize(records)
        # AS 64500 loses its only row here, so stage 2 counts it as well.
        assert report.reasons[DiscardReason.IP_INCONSISTENT] == ReasonTally(1, 2)
        assert DiscardReason.NOT_IN_GIANT_COMPONENT not in report.reasons
        assert sorted(graph.edges) == [("IXP0001", 64501), ("IXP0001", 64502)]
        assert all(edge.member_ip is None for edge in graph.edges.values())

    def test_node_tallied_at_stage_that_drops_its_last_edge(self, tmp_path):
        pdb = parse(tmp_path, [
            "PDB,a,Alpha,192.0.2.0/24,64502,,Active,,",
            "PDB,a,Alpha,192.0.2.0/24,64503,,Active,,",
            "PDB,b,Beta,,64500,198.51.100.1,Active,,",  # only row, no LAN for its IP
            "PDB,b,Beta,,64502,,Active,,",
            "PDB,c,Gamma,203.0.113.0/24,64501,203.0.113.1,Inactive,,",  # only row
            "PDB,d,Delta,,64504,192.0.2.9,Active,,",  # Delta and 64504 both lose it
        ])
        graph, report = sanitize(pdb.records)
        assert report.reasons == {
            DiscardReason.INACTIVE_IXP: ReasonTally(2, 1),
            DiscardReason.IP_INCONSISTENT: ReasonTally(3, 2),
        }
        assert report.nodes_total_pre == 9
        assert sum(tally.nodes for tally in report.reasons.values()) == 5
        assert sorted(graph.ixps) == ["IXP0001", "IXP0002"]
        assert sorted(graph.ases) == [64502, 64503]
        assert graph.num_edges == 3

    def test_parsed_member_address_is_carried(self, tmp_path):
        pdb = parse(tmp_path, [
            "PDB,k1,Alpha,192.0.2.0/24,64500,192.0.2.7,Active,,",
            "PDB,k1,Alpha,192.0.2.0/24,64501,2001:DB8::0:1,Active,,",
            "PDB,k1,Alpha,192.0.2.0/24,64502,,Active,,",
        ])
        assert [r.member_ip for r in pdb.records] == ["192.0.2.7", "2001:db8::1", None]

    def test_hand_built_record_off_the_lan_dropped(self):
        # A record built in Python is checked by its member_ip.
        records = [
            MembershipRecord(Source.PDB, "k", "Alpha", ("192.0.2.0/24",), 64500, "192.0.2.5",
                             IxpStatus.ACTIVE),
            MembershipRecord(Source.PDB, "k", "Alpha", ("192.0.2.0/24",), 64501, "10.9.9.9",
                             IxpStatus.ACTIVE),
        ]
        graph, report = sanitize(records)
        assert sorted(graph.edges) == [("IXP0001", 64500)]
        assert report.reasons == {DiscardReason.IP_INCONSISTENT: ReasonTally(1, 1)}

    def test_hand_built_prefix_with_host_bits_is_canonicalized(self):
        # A record built in Python may hold 192.0.2.1/24, which the row
        # parser would have written as 192.0.2.0/24: the merge, the LAN
        # check and the graph treat it as that network.
        def build(lan):
            records = [
                MembershipRecord(Source.PDB, "k", "Alpha", (lan,), 64500, "192.0.2.5",
                                 IxpStatus.ACTIVE),
                MembershipRecord(Source.PDB, "k", "Alpha", (lan,), 64501, "10.9.9.9",
                                 IxpStatus.ACTIVE),
            ]
            pch = [MembershipRecord(Source.PCH, "p", "Beta", ("192.0.2.128/25",), 64502,
                                    "192.0.2.200", IxpStatus.ACTIVE)]
            return merge_ixp_lists(records + pch), sanitize(records + pch)

        identities, (graph, report) = build("192.0.2.1/24")
        assert (identities, graph, report) == (build("192.0.2.0/24")[0], *build("192.0.2.0/24")[1])
        assert [i.peering_prefixes for i in identities.values()] == [
            ("192.0.2.0/24", "192.0.2.128/25")]
        assert sorted(graph.edges) == [("IXP0001", 64500), ("IXP0001", 64502)]
        assert report.reasons == {DiscardReason.IP_INCONSISTENT: ReasonTally(1, 1)}

    def test_hand_built_member_ip_is_canonicalized(self, tmp_path):
        # A record built in Python gets the member_ip text the row parser
        # would have given it.
        rows = ["PDB,k,Alpha,2001:db8::/32,64500,2001:DB8::0:1,Active,,",
                "PDB,k,Alpha,2001:db8::/32,64501,2001:db8:0::2,Active,,",
                "PDB,k,Alpha,2001:db8::/32,64501,2001:db8::1:0,Active,,"]
        parsed = parse(tmp_path, rows).records
        hand_built = [MembershipRecord(Source.PDB, "k", "Alpha", ("2001:db8::/32",), int(asn), ip,
                                       IxpStatus.ACTIVE)
                      for asn, ip in (row.split(",")[4:6] for row in rows)]
        graph = sanitize(parsed)[0]
        assert sanitize(hand_built)[0] == graph
        assert [e.member_ip for e in graph.edges.values()] == ["2001:db8::1", "2001:db8::1:0"]

    def test_ip_consistency_matches_ipaddress_containment(self):
        # Stage 2 tests each member address against its LAN by integer
        # masks, reading each member IP's integer from _member_address.
        rng = random.Random(3)
        lans = ["192.0.2.0/24", "192.0.2.128/25", "10.0.0.0/8", "0.0.0.0/0",
                "2001:db8::/32", "2001:db8:1::/48", "::/0", "198.51.100.7/32"]
        ips = ["192.0.2.1", "192.0.2.200", "10.255.0.1", "11.0.0.0", "198.51.100.7",
               "2001:db8::1", "2001:db8:1::5", "2001:db9::", "::ffff:192.0.2.1", "fe80::1%eth0"]
        for _ in range(100):
            prefixes = rng.sample(lans, rng.randint(0, 3))
            records = [MembershipRecord(Source.PDB, "k1", "Alpha", prefixes, 64500, None,
                                        IxpStatus.ACTIVE)]
            records += [MembershipRecord(Source.PDB, "k1", "Alpha", prefixes, 64501 + i, str(ip),
                                         IxpStatus.ACTIVE)
                        for i, ip in enumerate(map(ipaddress.ip_address, ips))]
            graph, _ = sanitize(records)
            nets = [ipaddress.ip_network(p) for p in prefixes]
            expected = {64500} | {
                64501 + i for i, ip in enumerate(map(ipaddress.ip_address, ips))
                if any(ip.version == net.version and ip in net for net in nets)}
            assert {asn for _, asn in graph.edges} == expected

    def test_report_matches_stage_by_stage_oracle(self):
        sets = sanitize_test_sets()
        seen = Counter()
        for case, (records, parse_errors) in enumerate(sets):
            report = sanitize(records, parse_errors)[1]
            assert report == bf_discard_report(records, parse_errors), f"case {case}"
            seen.update(list(report.reasons))
        # Each reason is in some reports and missing from others.
        assert all(0 < seen[reason] < len(sets) for reason in DiscardReason), seen

    def test_graph_matches_stage_by_stage_oracle(self):
        seen = Counter()
        for case, (records, parse_errors) in enumerate(sanitize_test_sets()):
            graph = sanitize(records, parse_errors)[0]
            assert graph == bf_sanitized_graph(records), f"case {case}"
            seen.update(len(edge.sources) for edge in graph.edges.values())
            seen.update(node.as_type for node in graph.ases.values())
            seen.update(node.prefix_count is None for node in graph.ases.values())
            # An AS whose rows disagree, so that the winner rule decides.
            seen["conflict"] += any(
                len({r.as_type for r in records if r.asn == asn} - {None}) > 1
                for asn in graph.ases)
        assert all(seen[k] for k in (1, 2, True, False, "conflict", *AsType)), seen

    def test_graph_iterates_in_canonical_order(self):
        # The order dumps_graph writes: IXPs by id, ASes by number, edges by
        # (ixp_id, asn); equal sources sets are one object.
        shared = 0
        for case, (records, parse_errors) in enumerate(sanitize_test_sets()):
            graph = sanitize(records, parse_errors)[0]
            assert list(graph.ixps) == sorted(graph.ixps), f"case {case}"
            assert list(graph.ases) == sorted(graph.ases), f"case {case}"
            assert list(graph.edges) == sorted(graph.edges), f"case {case}"
            sets = {}
            for edge in graph.edges.values():
                assert sets.setdefault(edge.sources, edge.sources) is edge.sources
            shared += len(sets) < graph.num_edges
            assert dumps_graph(graph) == oracles.dumps_graph(graph), f"case {case}"
        assert shared

    def test_more_than_9999_ixps_keep_canonical_order(self):
        # Ids widen to five digits together, so text order stays number order.
        records = [MembershipRecord(Source.PDB, f"k{i}", f"Exchange {i}", (), 64500, None,
                                    IxpStatus.ACTIVE) for i in range(10_001)]
        graph = sanitize(records)[0]
        assert list(graph.ixps) == sorted(graph.ixps)
        assert list(graph.edges) == sorted(graph.edges)
        assert list(graph.ixps)[-1] == "IXP10001"

    def test_report_dict_shape(self, tmp_path, capsys):
        # The CLI shapes the report; its JSON carries sanitize's tallies as-is.
        _, report = self.run_fixture(tmp_path)
        pdb_path, pch_path = sanitize_fixture_files(tmp_path)
        assert main(["build", str(pdb_path), str(pch_path), str(tmp_path / "g.json"),
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)["report"]
        assert set(data) == {"nodes_total_pre", "edges_total_pre",
                             "nodes_discarded", "edges_discarded", "reasons"}
        assert list(data["reasons"]) == sorted(data["reasons"])
        assert data["reasons"] == {reason.value: {"nodes": tally.nodes, "edges": tally.edges}
                                   for reason, tally in report.reasons.items()}
        assert (data["nodes_total_pre"], data["edges_total_pre"]) == (
            report.nodes_total_pre, report.edges_total_pre)
        assert data["nodes_discarded"] == sum(t.nodes for t in report.reasons.values())
        assert data["edges_discarded"] == sum(t.edges for t in report.reasons.values())

    def test_reports_do_not_share_reasons(self, tmp_path):
        _, first = self.run_fixture(tmp_path)
        _, second = self.run_fixture(tmp_path)
        assert first.reasons is not second.reasons
        first.reasons.clear()
        assert second.reasons


class TestAttachAttributes:
    def build(self, tmp_path):
        pdb = parse(tmp_path, [
            "PDB,k1,Alpha,192.0.2.0/24,64500,,Active,,",
            "PDB,k1,Alpha,192.0.2.0/24,64501,,Active,,",
        ])
        graph, _ = sanitize(pdb.records)
        return graph

    def test_types_attached(self, tmp_path):
        graph = self.build(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n64500,Content\n", encoding="utf-8")
        graph, warnings = attach_attributes(graph, as_types_path=types)
        assert graph.ases[64500].as_type is AsType.CONTENT
        assert graph.ases[64501].as_type is AsType.UNKNOWN
        assert warnings == 0

    def test_locations_attached(self, tmp_path):
        graph = self.build(tmp_path)
        locs = tmp_path / "locs.csv"
        locs.write_text("ixp_id,country,city,lat,lon\nIXP0001,DE,Frankfurt,50.1,8.68\n",
                        encoding="utf-8")
        graph, warnings = attach_attributes(graph, locations_path=locs)
        location = graph.ixps["IXP0001"].location
        assert location.country == "DE" and location.city == "Frankfurt"
        assert location.lat == pytest.approx(50.1)
        assert warnings == 0

    def test_empty_optional_coordinates(self, tmp_path):
        graph = self.build(tmp_path)
        locs = tmp_path / "locs.csv"
        locs.write_text("ixp_id,country,city,lat,lon\nIXP0001,DE,Frankfurt,,\n",
                        encoding="utf-8")
        graph, _ = attach_attributes(graph, locations_path=locs)
        assert graph.ixps["IXP0001"].location.lat is None

    def test_bad_coordinates_warned(self, tmp_path):
        graph = self.build(tmp_path)
        locs = tmp_path / "locs.csv"
        locs.write_text("ixp_id,country,city,lat,lon\n"
                        "IXP0001,DE,Frankfurt,nan,8.68\n"
                        "IXP0001,DE,Frankfurt,50.1,inf\n"
                        "IXP0001,DE,Frankfurt,50.1,999.5\n"
                        "IXP0001,DE,Frankfurt,-90.5,8.68\n", encoding="utf-8")
        graph, warnings = attach_attributes(graph, locations_path=locs)
        assert warnings == 4
        assert graph.ixps["IXP0001"].location is None

    def test_lax_numbers_warned(self, tmp_path):
        graph = self.build(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n64_500,Content\n\u0666\u0664\u0665\u0660\u0660,ISP\n"
                         "+64500,ISP\n64500.0,ISP\n", encoding="utf-8")
        locs = tmp_path / "locs.csv"
        locs.write_text("ixp_id,country,city,lat,lon\n"
                        "IXP0001,DE,Frankfurt,1_0.5,8.68\n"
                        "IXP0001,DE,Frankfurt,\u0663,8.68\n"
                        "IXP0001,DE,Frankfurt,1e1,8.68\n"
                        "IXP0001,DE,Frankfurt,50.1,.5\n"
                        "IXP0001,DE,Frankfurt,50.1,8.\n", encoding="utf-8")
        graph, warnings = attach_attributes(graph, as_types_path=types, locations_path=locs)
        assert warnings == 9
        assert graph.ixps["IXP0001"].location is None
        assert graph.ases[64500].as_type is AsType.UNKNOWN

    def test_negative_coordinates_attached(self, tmp_path):
        graph = self.build(tmp_path)
        locs = tmp_path / "locs.csv"
        locs.write_text("ixp_id,country,city,lat,lon\nIXP0001,AU,Sydney,-33.87,151\n",
                        encoding="utf-8")
        graph, warnings = attach_attributes(graph, locations_path=locs)
        assert warnings == 0
        assert (graph.ixps["IXP0001"].location.lat, graph.ixps["IXP0001"].location.lon) == (-33.87, 151.0)

    @pytest.mark.parametrize("kind", ["as_types_path", "locations_path"])
    def test_oversized_field_is_format_error(self, tmp_path, kind):
        graph = self.build(tmp_path)
        path = tmp_path / "attrs.csv"
        header = "asn,as_type" if kind == "as_types_path" else "ixp_id,country,city,lat,lon"
        path.write_text(f"{header}\n\"{'x' * 140_000}\",ISP\n", encoding="utf-8")
        with pytest.raises(IxpGraphError, match=r"attrs\.csv, line 2"):
            attach_attributes(graph, **{kind: path})

    def test_unknown_rows_warned(self, tmp_path):
        graph = self.build(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n99999,Content\nbogus,ISP\n", encoding="utf-8")
        locs = tmp_path / "locs.csv"
        locs.write_text("ixp_id,country,city,lat,lon\nIXP9999,DE,Berlin,,\n",
                        encoding="utf-8")
        _, warnings = attach_attributes(graph, as_types_path=types, locations_path=locs)
        assert warnings == 3

    def test_as_type_row_with_extra_field_warned(self, tmp_path):
        graph = self.build(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n64500,Content,junk\n64501,ISP\n", encoding="utf-8")
        graph, warnings = attach_attributes(graph, as_types_path=types)
        assert graph.ases[64500].as_type is AsType.UNKNOWN
        assert graph.ases[64501].as_type is AsType.ISP
        assert warnings == 1

    def test_repeated_as_type_first_valid_row_wins(self, tmp_path):
        graph = self.build(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n64500,Content\n64500,ISP\n"
                         "64501,Methane\n64501,ISP\n64501,Content\n", encoding="utf-8")
        graph, warnings = attach_attributes(graph, as_types_path=types)
        assert graph.ases[64500].as_type is AsType.CONTENT
        assert graph.ases[64501].as_type is AsType.ISP
        assert warnings == 3

    def test_repeated_location_first_valid_row_wins(self, tmp_path):
        graph = self.build(tmp_path)
        locs = tmp_path / "locs.csv"
        locs.write_text("ixp_id,country,city,lat,lon\n"
                        "IXP0001,DE,Berlin,north,13.41\n"
                        "IXP0001,DE,Frankfurt,50.1,8.68\n"
                        "IXP0001,GR,Athens,37.98,23.73\n", encoding="utf-8")
        graph, warnings = attach_attributes(graph, locations_path=locs)
        assert graph.ixps["IXP0001"].location.city == "Frankfurt"
        assert warnings == 2

    def test_result_equals_a_checked_rebuild(self, tmp_path):
        # Attributes never touch edges, so the edges and adjacency sets carry
        # over unchecked; the result starts with no index of its own.
        graph = self.build(tmp_path)
        index(graph, NodeClass.AS)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n64500,Content\n", encoding="utf-8")
        locs = tmp_path / "locs.csv"
        locs.write_text("ixp_id,country,city,lat,lon\nIXP0001,DE,Frankfurt,50.1,8.68\n",
                        encoding="utf-8")
        for paths in ({}, {"as_types_path": types}, {"as_types_path": types,
                                                     "locations_path": locs}):
            attached, _ = attach_attributes(graph, **paths)
            assert_rebuilds_equal(attached)
        assert attached.ases[64500].as_type is AsType.CONTENT
        assert attached.ixps["IXP0001"].location.city == "Frankfurt"

    def test_no_files_is_identity(self, tmp_path):
        graph = self.build(tmp_path)
        attached, warnings = attach_attributes(graph)
        assert attached == graph and warnings == 0

    def test_header_only_files_are_identity(self, tmp_path):
        graph = self.build(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n", encoding="utf-8")
        attached, warnings = attach_attributes(graph, as_types_path=types)
        assert attached == graph and warnings == 0

    def test_bad_attribute_header(self, tmp_path):
        graph = self.build(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,flavor\n64500,Content\n", encoding="utf-8")
        with pytest.raises(IxpGraphError, match=r"types\.csv: unrecognized header 'asn,flavor'$"):
            attach_attributes(graph, as_types_path=types)


class TestBuildFromFiles:
    def test_full_pipeline(self, tmp_path):
        pdb_path, pch_path = sanitize_fixture_files(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n65001,ISP\n90909,Content\n", encoding="utf-8")
        result = build_from_files(pdb_path, pch_path, as_types_path=types)
        assert len(result.graph.ixps) == 2
        assert result.graph.num_edges == 4
        assert result.graph.ases[65001].as_type is AsType.ISP
        assert result.attribute_warnings == 1
        assert sum(tally.nodes for tally in result.report.reasons.values()) == 3

    def test_built_graph_writes_the_oracle_bytes(self, tmp_path):
        pdb_path, pch_path = sanitize_fixture_files(tmp_path)
        types = tmp_path / "types.csv"
        types.write_text("asn,as_type\n65003,ISP\n65001,Content\n", encoding="utf-8")
        graph = build_from_files(pdb_path, pch_path, as_types_path=types).graph
        assert_rebuilds_equal(graph)
        assert dumps_graph(graph) == oracles.dumps_graph(graph)

    def test_deterministic_output(self, tmp_path):
        pdb_path, pch_path = sanitize_fixture_files(tmp_path)
        first = dumps_graph(build_from_files(pdb_path, pch_path).graph)
        second = dumps_graph(build_from_files(pdb_path, pch_path).graph)
        assert first == second

    def test_byte_order_mark_is_ignored(self, tmp_path):
        pdb_path, pch_path = sanitize_fixture_files(tmp_path)
        bom_path = tmp_path / "pdb_bom.csv"
        bom_path.write_bytes(b"\xef\xbb\xbf" + pdb_path.read_bytes())
        plain = dumps_graph(build_from_files(pdb_path, pch_path).graph)
        assert dumps_graph(build_from_files(bom_path, pch_path).graph) == plain
