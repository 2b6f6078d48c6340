"""Projections of the bipartite graph onto a single vertex class.

IXPs i and j are joined in the IXP projection by one parallel edge per AS
that is a member of both; the AS projection swaps the roles. Every
projection metric reads the projection off one bitmask index: the nodes
of the class in sorted order, each other-class node's neighbours as a
bitmask over those indices, and each node's reach mask.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .model import BipartiteGraph, NodeClass


def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def index(graph: BipartiteGraph, node_class: NodeClass) -> tuple[list, dict, list[int]]:
    """The nodes of ``node_class`` in sorted order, each other-class node's
    neighbours as a bitmask over those indices, and each node's reach mask:
    the OR of its neighbours' masks, which holds the node itself unless it
    has no neighbour. Node i's projection neighbours are ``reach[i] & ~(1 << i)``,
    and the parallel edges of a pair are the masks holding both bits."""
    if node_class is NodeClass.IXP:
        nodes, others = sorted(graph.ixps), graph.ases
        of_node, of_other = graph.members, graph.memberships
    else:
        nodes, others = sorted(graph.ases), graph.ixps
        of_node, of_other = graph.memberships, graph.members
    position = {v: i for i, v in enumerate(nodes)}
    masks = {o: sum(1 << position[v] for v in of_other(o)) for o in others}
    reach = [reduce(or_, map(masks.get, of_node(v)), 0) for v in nodes]
    return nodes, masks, reach


def partner_gains(reach: list[int], i: int) -> tuple[list[int], list[int]]:
    """On the AS-class reach masks: the ASes co-located with AS i (the set
    bits j != i of ``reach[i]``) and the remote-peering gain of i through
    each, the ASes j meets that i does not: ``(reach[j] & ~reach[i]).bit_count()``."""
    partners = bits(reach[i] & ~(1 << i))
    missing = ~reach[i]
    return partners, [(reach[j] & missing).bit_count() for j in partners]
