"""Exception types shared across the package."""


class BlfkitError(Exception):
    """Base class for all package errors."""


class SchemeError(BlfkitError):
    """A polygon scheme is malformed or describes a non-orientable surface."""


class CurveError(BlfkitError):
    """A curve or arc word is invalid on its surface."""


class NotSimpleError(CurveError):
    """An operation requiring an embedded (simple) curve got a non-simple one."""


class InessentialCurveError(BlfkitError):
    """Surgery was requested along a nullhomotopic or boundary-trivial curve."""


class StandardizationError(BlfkitError):
    """A simple curve could not be moved to a coordinate position for surgery."""


class ProjectionObstructedError(BlfkitError):
    """A curve or arc cannot be carried across a round surgery.

    It crosses the cut curve, which no band slide over the round handle
    undoes, or its projected word is invalid on the surgered surface.
    """


class HandleMoveError(BlfkitError):
    """A handle slide or cancellation was requested in an illegal position."""
