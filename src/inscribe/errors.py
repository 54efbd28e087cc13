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


class NotThreeConnectedError(GraphError):
    """Valid spherical embedding whose graph is not vertex 3-connected."""


class InternalError(RuntimeError):
    """A postcondition the implementation guarantees was violated."""
