"""Exception types raised across the package."""

from __future__ import annotations


class GraphError(ValueError):
    """Base class for rejected graph input."""


class FormatError(GraphError):
    """Malformed polygraph file."""


class EmbeddingError(GraphError):
    """Structurally invalid embedding: loops, parallel edges, or an
    inconsistent rotation system."""


class EulerError(GraphError):
    """Well-formed rotation system whose face count fails V - E + F = 2,
    i.e. the embedding is not on the sphere."""

    def __init__(self, message: str, graph=None):
        super().__init__(message)
        self.graph = graph


class NotThreeConnectedError(GraphError):
    """Valid spherical embedding whose graph is not vertex 3-connected.

    Carries the parsed graph so callers may still inspect its faces.
    """

    def __init__(self, message: str, graph=None):
        super().__init__(message)
        self.graph = graph


class DuplicateCircuitError(ValueError):
    """A circuit constraint was added twice to the same system."""


class InternalError(RuntimeError):
    """A postcondition the implementation guarantees was violated."""
