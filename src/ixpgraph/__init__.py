"""ixpgraph: the IXP-AS bipartite graph of the inter-domain Internet.

Build the graph from IXP-membership datasets, project it onto either
vertex class, compute topological metrics, and solve IXP-selection
problems as coverage optimizations.
"""

from .errors import (
    Disconnected,
    EmptyGraph,
    FormatError,
    InsufficientData,
    IxpGraphError,
    NoLocationData,
    Uncoverable,
    UnknownEndpoint,
    UnknownNode,
    UnknownTarget,
)
from .model import (
    AsNode,
    AsType,
    BipartiteGraph,
    IxpNode,
    IxpStatus,
    Location,
    MembershipEdge,
    NodeClass,
    Source,
    add_membership,
    build_graph,
    giant_component,
)

__version__ = "0.1.0"

__all__ = [
    "AsNode",
    "AsType",
    "BipartiteGraph",
    "Disconnected",
    "EmptyGraph",
    "FormatError",
    "InsufficientData",
    "IxpGraphError",
    "IxpNode",
    "IxpStatus",
    "Location",
    "MembershipEdge",
    "NoLocationData",
    "NodeClass",
    "Source",
    "Uncoverable",
    "UnknownEndpoint",
    "UnknownNode",
    "UnknownTarget",
    "add_membership",
    "build_graph",
    "giant_component",
    "__version__",
]
