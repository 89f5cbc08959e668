"""Exception types shared across the package."""


class CurveAnalysisError(Exception):
    """Base class for analysis failures."""


class OnCurve(CurveAnalysisError):
    """The base point lies on (or numerically too close to) the curve."""


class NearPole(CurveAnalysisError):
    """Kernel parameters sit too close to the pole circle |alpha| = beta."""


class Unresolved(CurveAnalysisError):
    """A numerical computation could not be resolved at the allowed grid sizes."""
