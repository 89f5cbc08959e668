"""Exception types shared across the package."""


class CurveAnalysisError(Exception):
    """Base class for analysis failures."""


class OnCurve(CurveAnalysisError):
    """The base point lies on (or numerically too close to) the curve."""


class NearPole(CurveAnalysisError):
    """Kernel parameters sit too close to the pole circle |alpha| = beta."""


class Unresolved(CurveAnalysisError):
    """A numerical computation could not be resolved at the allowed grid sizes."""


class NotSingular(CurveAnalysisError):
    """Cusp certification was requested at a point that is not singular."""


class WindowTooWide(CurveAnalysisError):
    """A parameter window contains more than one predicted cusp."""


class EmptyInput(CurveAnalysisError):
    """An operation that needs at least one item received none."""
