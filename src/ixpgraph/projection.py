"""Projections of the bipartite graph onto a single vertex class."""

from __future__ import annotations

from itertools import combinations

from .errors import EmptyGraph, UnknownNode
from .model import BipartiteGraph, Multigraph, NodeClass


def project(graph: BipartiteGraph, node_class: NodeClass) -> Multigraph:
    """Project the bipartite graph onto the chosen vertex class.

    For the IXP class, IXPs i and j get one parallel edge per AS that is a
    member of both; the AS class swaps the roles. Nodes of the class appear
    even when isolated in the projection, so pair-based statistics keep the
    full denominator.
    """
    if graph.num_nodes == 0:
        raise EmptyGraph("cannot project an empty graph")
    if node_class is NodeClass.IXP:
        nodes = set(graph.ixps)
        via_neighbors = [(asn, graph.memberships(asn)) for asn in graph.ases]
    else:
        nodes = set(graph.ases)
        via_neighbors = [(ixp_id, graph.members(ixp_id)) for ixp_id in graph.ixps]

    edges: dict[tuple, set] = {}
    for via, shared in via_neighbors:
        for u, v in combinations(sorted(shared), 2):
            edges.setdefault((u, v), set()).add(via)
    return Multigraph(
        node_class=node_class,
        nodes=nodes,
        edges={pair: frozenset(vias) for pair, vias in edges.items()},
    )


def multiplicity(mg: Multigraph, u, v) -> int:
    """Number of parallel edges between u and v; 0 if unconnected, and 0 for
    (u, u) since projections have no self-loops."""
    if u not in mg.nodes:
        raise UnknownNode(f"unknown node {u!r}")
    if v not in mg.nodes:
        raise UnknownNode(f"unknown node {v!r}")
    if u == v:
        return 0
    pair = (u, v) if u < v else (v, u)
    return len(mg.edges.get(pair, ()))
