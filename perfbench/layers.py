"""Which ixpgraph functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. Each wrapped public function gets a
span per call; a few also record counts read off their return values.
``layer_metrics`` folds the spans into the per-layer metrics named in
``PER_LAYER``; a function a workload never calls reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Tracer

# Command groups with their own wall, CPU and RSS metrics.
GROUPS = ("build", "export", "table2", "table3_as", "betweenness", "clustering",
          "gain_cdf", "tunnels", "placement")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index] if len(args) > index else None


def _by_class(base):
    def namer(args, kwargs):
        node_class = _arg(args, kwargs, 1, "node_class")
        return f"{base}.{getattr(node_class, 'value', node_class)}".lower()
    return namer


def _sampled(args, kwargs):
    sampled = _arg(args, kwargs, 1, "sample_size") is not None
    return "metrics.shortest_path_ixp_counts" + (".sample" if sampled else "")


def _merge_counts(result, args, kwargs):
    keys = sum(len(identity.source_keys) for identity in result.values())
    return {"source_keys": keys, "key_pairs": keys * (keys - 1) // 2, "identities": len(result)}


def _sanitize_counts(result, args, kwargs):
    graph, report = result
    counts = {"edges_in": report.edges_total_pre, "edges_kept": graph.num_edges}
    counts.update({f"discarded.{reason.value}": tally.edges
                   for reason, tally in report.reasons.items()})
    return counts


def _multiplicity_counts(result, args, kwargs):
    node_class = args[0].node_class.value.lower()
    return {f"parallel_edges.{node_class}": sum(int(m) * c for m, c in result.values)}


# (module, function, span namer, counter); None namer means "module.function".
TARGETS = [
    ("ingest", "build_from_files", None, None),
    ("ingest", "parse_dataset", None,
     lambda r, a, k: {"rows": len(r.records) + r.parse_errors, "errors": r.parse_errors}),
    ("ingest", "merge_ixp_lists", None, _merge_counts),
    ("ingest", "sanitize", None, _sanitize_counts),
    ("ingest", "attach_attributes", None, None),
    ("model", "giant_component", None, None),
    ("serialization", "read_graph", None, None),
    ("serialization", "graph_from_dict", None, None),
    ("serialization", "dumps_graph", None, lambda r, a, k: {"bytes": len(r.encode())}),
    ("serialization", "write_graph", None, None),
    ("serialization", "membership_edgelist", None, None),
    ("projection", "project", _by_class("projection.project"),
     lambda r, a, k: {"pairs": len(r.edges)}),
    ("metrics", "degree_distribution", None, None),
    ("metrics", "member_type_fractions", None, None),
    ("metrics", "type_fraction_distribution", None, None),
    ("metrics", "type_share_by_degree", None, None),
    ("metrics", "degree_prefix_correlation", None, None),
    ("metrics", "shortest_path_ixp_counts", _sampled, lambda r, a, k: {"pairs": r.total}),
    ("metrics", "multiplicity_distribution", None, _multiplicity_counts),
    ("metrics", "betweenness_centrality", None, None),
    ("metrics", "clustering_coefficient", None, None),
    ("metrics", "remote_peering_gain_cdf", None, lambda r, a, k: {"pairs": r.total}),
    ("metrics", "remote_peering_gain", None, None),
    ("placement", "rank_tunnels", None, lambda r, a, k: {"partners": len(r)}),
    ("placement", "build_instance", None, lambda r, a, k: {"candidates": len(r.candidates)}),
    ("placement", "greedy_set_cover", None, lambda r, a, k: {"rounds": len(r.chosen)}),
    ("placement", "budgeted_max_coverage", None, lambda r, a, k: {"rounds": len(r.chosen)}),
    ("placement", "site_selection_score", None, None),
]

_REASONS = ("DuplicateCollapsed", "InactiveIxp", "IpInconsistent", "NotInGiantComponent",
            "ParseError")

# Per-layer metrics, in report order, with their units. Fractions are
# listed right after their base.
PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"{g}_s", "s") for g in GROUPS]
    + [(f"cli.{g}.{m}", u) for g in GROUPS for m, u in (("cpu_s", "s"), ("rss_mb", "MB"))]
    + [
        ("serialization.read_graph.s", "s"),
        ("serialization.graph_from_dict.s", "s"),
        ("serialization.dumps_graph.s", "s"),
        ("serialization.write_graph.s", "s"),
        ("serialization.membership_edgelist.s", "s"),
        ("serialization.graph_bytes", "bytes"),
        ("ingest.parse_dataset.s", "s"),
        ("ingest.parse_dataset.rows", "count"),
        ("ingest.parse_dataset.errors", "count"),
        ("ingest.merge_ixp_lists.s", "s"),
        ("ingest.merge_ixp_lists.source_keys", "count"),
        ("ingest.merge_ixp_lists.key_pairs", "count"),
        ("ingest.merge_ixp_lists.identities", "count"),
        ("ingest.merge_ixp_lists.useful_frac", "ratio"),
        ("ingest.sanitize.self_s", "s"),
        ("ingest.sanitize.edges_in", "count"),
        ("ingest.sanitize.edges_kept", "count"),
        ("ingest.sanitize.kept_frac", "ratio"),
    ]
    + [(f"ingest.sanitize.discarded.{r}", "count") for r in _REASONS]
    + [
        ("ingest.attach_attributes.s", "s"),
        ("model.giant_component.s", "s"),
        ("metrics.shortest_path_ixp_counts.s", "s"),
        ("metrics.shortest_path_ixp_counts.sample.s", "s"),
        ("metrics.shortest_path_ixp_counts.pairs", "count"),
        ("projection.project.as.s", "s"),
        ("projection.project.ixp.s", "s"),
        ("projection.project.as.pairs", "count"),
        ("projection.project.as.parallel_edges", "count"),
        ("metrics.multiplicity_distribution.s", "s"),
        ("metrics.betweenness_centrality.s", "s"),
        ("metrics.clustering_coefficient.s", "s"),
        ("metrics.remote_peering_gain_cdf.s", "s"),
        ("metrics.remote_peering_gain_cdf.pairs", "count"),
        ("placement.rank_tunnels.self_s", "s"),
        ("placement.rank_tunnels.partners", "count"),
        ("metrics.remote_peering_gain.calls", "count"),
        ("metrics.remote_peering_gain.s", "s"),
        ("placement.build_instance.s", "s"),
        ("placement.build_instance.candidates", "count"),
        ("placement.greedy_set_cover.s", "s"),
        ("placement.greedy_set_cover.rounds", "count"),
        ("placement.budgeted_max_coverage.s", "s"),
        ("placement.budgeted_max_coverage.rounds", "count"),
        ("placement.site_selection_score.s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span-derived entries of ``PER_LAYER``.

    Per span name: total duration ``.s``, self time ``.self_s``, ``.calls``
    and each count summed over calls.
    """
    totals: dict[str, float] = defaultdict(float)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        totals[f"{span.name}.s"] += span.end - span.start
        totals[f"{span.name}.self_s"] += self_s
        totals[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            totals[f"{span.name}.{key}"] += value
    merge, sanitize = "ingest.merge_ixp_lists", "ingest.sanitize"
    totals["serialization.graph_bytes"] = max(
        (s.counts.get("bytes", 0) for s in tracer.spans if s.name == "serialization.dumps_graph"),
        default=0)
    totals["projection.project.as.parallel_edges"] = totals[
        "metrics.multiplicity_distribution.parallel_edges.as"]
    # Merges found per pair of source keys compared, over every call.
    pairs = totals[f"{merge}.key_pairs"]
    merged = totals[f"{merge}.source_keys"] - totals[f"{merge}.identities"]
    totals[f"{merge}.useful_frac"] = merged / pairs if pairs else 0.0
    edges_in = totals[f"{sanitize}.edges_in"]
    totals[f"{sanitize}.kept_frac"] = totals[f"{sanitize}.edges_kept"] / edges_in if edges_in else 0.0
    names = {name for name, _ in PER_LAYER}
    return {name: value for name, value in totals.items() if name in names}
