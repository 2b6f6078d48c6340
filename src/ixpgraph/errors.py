"""Exception hierarchy shared by all ixpgraph modules."""


class IxpGraphError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownNode(IxpGraphError):
    """A node id was not found in the graph."""


class UnknownEndpoint(IxpGraphError):
    """A membership edge references a vertex that is not in the graph."""


class UnknownTarget(IxpGraphError):
    """A coverage target ASN is not present in the graph."""


class EmptyGraph(IxpGraphError):
    """The operation requires a non-empty graph."""


class Disconnected(IxpGraphError):
    """A node pair required to be reachable is not."""


class InsufficientData(IxpGraphError):
    """Not enough (or degenerate) data points for a statistic."""


class FormatError(IxpGraphError):
    """An input file's header or overall structure is unrecognizable."""


class NoLocationData(IxpGraphError):
    """No IXP location information is available for site scoring."""


class Uncoverable(IxpGraphError):
    """The coverage universe cannot be covered by the candidate sets.

    Attributes:
        residue: the universe elements no candidate covers.
    """

    def __init__(self, residue):
        self.residue = frozenset(residue)
        super().__init__(
            "universe not coverable; uncovered: "
            + ", ".join(str(x) for x in sorted(self.residue))
        )
