"""Exception types shared across the engine."""

from __future__ import annotations


class DGLiftError(Exception):
    """Base class for all engine errors."""


class IllFormedPresentation(DGLiftError):
    """An algebra presentation violates a structural invariant (names the variable)."""


class BadExpression(IllFormedPresentation):
    """A variable's differential is not a well-formed expression; index is
    the variable's position in the presentation."""

    def __init__(self, index: int, msg: str):
        self.index = index
        super().__init__(msg)


class OwnerMismatch(DGLiftError):
    """Two elements or maps belong to different algebras/modules."""


class DimensionMismatch(DGLiftError):
    """Vector or matrix shapes are incompatible."""


class NotTriangular(DGLiftError):
    """A module differential has an entry on or above the diagonal."""


class DegreeMismatch(DGLiftError):
    """An entry is not homogeneous of the required degree."""


class DSquaredNonzero(DGLiftError):
    """d ∘ d != 0; carries the offending basis column."""


class CapExceeded(DGLiftError):
    """A computation needs a DG degree or tensor degree beyond the configured cap."""

    def __init__(self, needed, cap, what: str):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what} {needed} exceeds configured cap {cap}; raise the limit")


class FiltrationStuck(DGLiftError):
    """A filtration-descent step required a null-homotopy that does not exist."""
