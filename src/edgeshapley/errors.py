"""Exception types raised across the library."""


class GameError(Exception):
    """Base class for all errors raised by edgeshapley."""


class UnknownNodeError(GameError, KeyError):
    """A node label was not found in the graph."""

    def __init__(self, label):
        super().__init__(f"unknown node: {label!r}")
        self.label = label

    def __str__(self):
        return self.args[0]


class UnknownEdgeError(GameError, KeyError):
    """An edge (by endpoint pair) was not found in the graph."""

    def __init__(self, u, v):
        super().__init__(f"unknown edge: ({u!r}, {v!r})")
        self.endpoints = (u, v)

    def __str__(self):
        return self.args[0]


class GraphConstructionError(GameError, ValueError):
    """The node/edge data violates a graph invariant."""


class DegenerateRouteError(GameError, ValueError):
    """A route's node set induces no edges, so it has no traversal cost."""


class CapacityError(GameError, ValueError):
    """The player count exceeds an enumeration bound."""


class CharacteristicContractError(GameError, ValueError):
    """A characteristic function breaks its contract (e.g. nonzero worth on the empty set)."""


class ZeroNormalizationError(GameError, ValueError):
    """A node game fed to the edge-game bridge has a nonzero singleton worth."""

    def __init__(self, label, worth):
        super().__init__(
            f"bridge requires v({{{label!r}}}) = 0, got {worth!r}; "
            "zero-normalize the game first"
        )
        self.label = label
        self.worth = worth


class ScenarioError(GameError, ValueError):
    """A scenario document failed to parse or validate.

    ``location`` pinpoints the offending field (JSON-path-ish string) or the
    line/column of a syntax error.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
