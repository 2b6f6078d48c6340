"""ixpgraph: the IXP-AS bipartite graph of the inter-domain Internet.

Build the graph from IXP-membership datasets, project it onto either
vertex class, compute topological metrics, and solve IXP-selection
problems as coverage optimizations.
"""

from .model import NodeClass

__version__ = "0.1.0"

__all__ = ["NodeClass", "__version__"]
