"""Exception types shared across the package."""


class LoopAlgError(Exception):
    """Base class for all package errors."""


class UnsupportedTypeError(LoopAlgError):
    """Cartan type outside the support matrix for the requested operation."""


class InvalidCoordinatesError(LoopAlgError):
    """Alcove coordinates that do not describe a standard parahoric."""


class UsageError(LoopAlgError):
    """Command-line input that the requested computation does not accept."""


class WindowUnderflowError(LoopAlgError):
    """A coefficient was requested outside the exactly-known window."""


class MismatchError(LoopAlgError):
    """Two independent computations of the same object disagree."""


class UnsupportedTwistedError(LoopAlgError):
    """Twisted (r > 1) loop algebras are not implemented."""


class ContainmentViolation(LoopAlgError):
    """A sampled element mapped outside the predicted order bounds."""

    def __init__(self, message, seed=None, witness=None):
        super().__init__(message)
        self.seed = seed
        self.witness = witness


class SurjectivityFailure(LoopAlgError):
    """A reconstructed section failed lattice membership or the round trip."""


class DiagramMismatch(LoopAlgError):
    """The two paths of the residue square disagree beyond a global scalar."""


class NotOperShapeError(LoopAlgError):
    """Connection matrix is not of the expected principal-nilpotent shape."""


class CyclicFailure(LoopAlgError):
    """No start vector tried is cyclic for the scalar reduction."""


class NoCertificateError(LoopAlgError):
    """No gauge exponent in the search range produced a slope certificate."""
