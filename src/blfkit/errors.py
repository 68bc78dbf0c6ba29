"""Exception types shared across the package."""


class BlfkitError(Exception):
    """Base class for all package errors."""


class SchemeError(BlfkitError):
    """A polygon scheme is malformed or describes a non-orientable surface."""


class CurveError(BlfkitError):
    """A curve or arc word is invalid on its surface."""


class NotSimpleError(CurveError):
    """An operation requiring an embedded (simple) curve got a non-simple one."""


class ImageTooLargeError(BlfkitError):
    """A free-group image would have more than ``oracle.MAX_IMAGE_LETTERS`` letters."""


class InessentialCurveError(BlfkitError):
    """Surgery was requested along a nullhomotopic or boundary-trivial curve."""


class StandardizationError(BlfkitError):
    """``surgery.standardize`` stopped: no coordinate twist shortens the word."""


class ProjectionObstructedError(BlfkitError):
    """A curve or arc cannot be carried across a round surgery.

    It crosses the cut curve, which no band slide over the round handle
    undoes, or its projected word is invalid on the surgered surface.
    """


class HandleMoveError(BlfkitError):
    """A handle slide or cancellation was requested in an illegal position."""
