"""Exception taxonomy shared across the package."""


class GlobinvError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GlobinvError):
    """An argument has the wrong shape for the map it is used with."""


class NonFinite(GlobinvError):
    """A map evaluation or derivative produced NaN or infinity."""


class UnknownMap(GlobinvError):
    """Registry lookup failed."""


class MissingBound(GlobinvError):
    """A certified profile was requested but the model carries no analytic bound."""


class OutOfRange(GlobinvError):
    """A scalar argument lies outside the range covered by its profile or grid."""


class ZeroRadius(GlobinvError):
    """A certificate degenerated: the accessible codomain radius is zero."""


class EmptySublevel(GlobinvError):
    """No sample landed in the requested sublevel set."""


class TooFewPoints(GlobinvError):
    """A trajectory has fewer than two recorded points."""


class StrategyMismatch(GlobinvError):
    """The requested solve strategy does not apply to the model's shape."""


class LoopNotInImage(GlobinvError):
    """A fibre loop could not be lifted; the loop leaves the accessible image."""


class JobValidationError(GlobinvError):
    """A CLI job file failed schema validation."""
