"""Projections of the bipartite graph onto a single vertex class.

IXPs i and j are joined in the IXP projection by one parallel edge per AS
that is a member of both; the AS projection swaps the roles. Every
projection metric reads the projection off one bitmask index: the nodes
of the class in sorted order, each other-class node's neighbours as a
bitmask over those indices, and each node's reach mask. ``index`` is the
only code that builds masks from the graph; ``bits`` lists their set
bits, from a given index up.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count
from operator import or_

from .model import BipartiteGraph, NodeClass

BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # bin() digits to 0/1 bytes for compress()


def bits(mask: int, low: int = 0) -> list[int]:
    """Indices of the set bits of ``mask`` at or above ``low``, ascending,
    picked at C speed. The cost is O(bit length - low), not O(popcount): a
    sparse mask over many nodes costs as much as a full one."""
    return list(compress(count(low), bin(mask >> low)[:1:-1].encode().translate(BIT_FLAGS)))


def counter_add(planes: list[int], mask: int) -> None:
    """Add one at each set bit of ``mask`` to a bit-sliced counter, whose
    plane k holds bit k of every position's count: the carry-save ripple of
    Harley–Seal popcount's vertical counter (Muła, Kurz and Lemire, 2016)."""
    for k, plane in enumerate(planes):
        planes[k] = plane ^ mask
        mask &= plane
        if not mask:
            return
    planes.append(mask)


def index(graph: BipartiteGraph, node_class: NodeClass) -> tuple[list, dict, list[int]]:
    """The nodes of ``node_class`` in sorted order, each other-class node's
    neighbours as a bitmask over those indices, and each node's reach mask:
    its own bit OR its neighbours' masks, so it always holds the node. Node
    i's projection neighbours are ``reach[i] & ~(1 << i)``, and the parallel
    edges of a pair are the masks holding both bits. Built once per graph and
    class, and kept in the graph's ``__dict__``: callers must not change it."""
    key = "_index_" + node_class.value
    if key in vars(graph):
        return vars(graph)[key]
    if node_class is NodeClass.IXP:
        nodes, others = sorted(graph.ixps), graph.ases
        of_node, of_other = graph.members, graph.memberships
    else:
        nodes, others = sorted(graph.ases), graph.ixps
        of_node, of_other = graph.memberships, graph.members
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    masks = {o: sum(map(bit.__getitem__, of_other(o))) for o in others}
    reach = [reduce(or_, map(masks.get, of_node(v)), bit[v]) for v in nodes]
    vars(graph)[key] = result = nodes, masks, reach
    return result
