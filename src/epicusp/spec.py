"""The curve specification and the closed forms that need no arrays.

The package studies one family of plane curves,

    gamma_{a,b}^s(t) = (1-s) * exp(2*pi*i*a*t) + (1+s) * exp(2*pi*i*b*t),

with integer frequencies 1 <= a < b and a weight parameter s in [-1, 1],
traced over one period t in [0, 1).  TwoTermSpec names one curve of it and
is the input of every analysis.

The paper's two headline results are closed forms in a, b and s alone: the
winding number about the origin (winding_closed_form) and the cusp locus
(predicted_cusp_locus), together with the origin passages of the balanced
curve (zeros_of_curve).  find_cusps builds the certificates of the cusps
from the proof in the singularity module docstring, so they too need no
arrays.  These live here, beside the specification, because this module
imports nothing beyond the standard library and errors: `epicusp wind`
without --numeric or --z0 and `epicusp cusps` load it and never numpy.
curve, winding and singularity re-export every name they used to define,
so their import paths and pickles written under them still resolve.
Every public entry point checks each scalar argument with one call to
_integer, _real, _weight, _check_pair, _grid_size or _point, defined here;
each raises ValueError naming the argument.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import OnCurve

# the most samples an entry point takes (_grid_size): 16 MB per complex array
MAX_GRID_SAMPLES = 1 << 20


class PlanePoint(NamedTuple):
    """A point (x, y) of the plane, also read as the complex number x + iy."""

    x: float
    y: float

    @staticmethod
    def from_complex(z: complex) -> "PlanePoint":
        return PlanePoint(z.real, z.imag)

    def as_complex(self) -> complex:
        return complex(self.x, self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def _integer(value, name: str) -> int:
    """An integer (a frequency, an order or a count) as a plain int; numpy
    integers pass, bools and other non-integers raise ValueError naming it."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValueError(f"{name} must be an integer") from exc


def _real(value, name: str) -> float:
    """A finite real number as a float; anything else (a bool, a string,
    None, a NaN, an int too large for a float) raises ValueError naming it."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{name} must be a finite real number, not {value!r}")


def _weight(value, name: str) -> float:
    """A weight s of the family: a real number in [-1, 1], as a float."""
    s = _real(value, name)
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"{name} must lie in [-1, 1]")
    return s


def _grid_size(n, least: int, name: str = "n") -> int:
    """A sample count: an integer in [least, MAX_GRID_SAMPLES], as a plain int."""
    n = _integer(n, name)
    if not least <= n <= MAX_GRID_SAMPLES:
        raise ValueError(f"need n >= {least}" if n < least else f"need n <= {MAX_GRID_SAMPLES}")
    return n


def _point(value, name: str) -> complex:
    """A finite point as a complex number, from a PlanePoint of two reals or
    a complex number; a bool, a string, None or a plain tuple is refused."""
    plane = isinstance(value, PlanePoint)
    kind = numbers.Real if plane else numbers.Complex
    if any(isinstance(v, bool) or not isinstance(v, kind) for v in (value if plane else (value,))):
        raise ValueError(f"{name} must be a PlanePoint or a complex number, not {value!r}")
    try:
        z = value.as_complex() if plane else complex(value)
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
    except OverflowError:  # an int or a Fraction too large for a float
        pass
    raise ValueError(f"{name} must be finite")


def _check_pair(a, b) -> tuple[int, int]:
    """Frequencies as plain ints, with 1 <= a < b."""
    a, b = _integer(a, "frequency a"), _integer(b, "frequency b")
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    return a, b


@dataclass(frozen=True)
class TwoTermSpec:
    """The two-term family with frequencies 1 <= a < b and weights 1-s, 1+s.

    Raises ValueError unless a, b are integers and s is a finite real
    number in [-1, 1]; bools and strings are refused."""

    a: int
    b: int
    s: float

    def __post_init__(self) -> None:
        a, b = _check_pair(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s", _weight(self.s, "s"))


def winding_closed_form(spec: TwoTermSpec) -> int:
    """Winding number of the two-term curve about the origin.

    Returns a for s < 0 and b for s > 0, including the endpoint weights
    s = -1 and s = 1 where the curve degenerates to a circle traced a
    or b times.

    Raises
    ------
    OnCurve
        If s = 0: the curve passes through the origin and the winding
        number is undefined there.
    """
    if spec.s == 0:
        raise OnCurve("curve passes through the origin at s=0")
    return spec.a if spec.s < 0 else spec.b


def zeros_of_curve(a: int, b: int) -> list[Fraction]:
    """Parameters where the balanced curve (s=0) passes through the origin.

    These are exactly t = h/(2(b-a)) for odd h, giving b-a values in [0, 1).
    """
    a, b = _check_pair(a, b)
    d = 2 * (b - a)
    return [Fraction(h, d) for h in range(1, d, 2)]


@dataclass(frozen=True)
class CuspLocus:
    """Predicted cusp parameters of the family for fixed (a, b)."""

    s_bar: Fraction
    t_values: tuple[Fraction, ...]
    proven: bool


def predicted_cusp_locus(a: int, b: int) -> CuspLocus:
    """Cusp parameters: s = (a-b)/(a+b), t = h/(2(b-a)), h odd.

    These are all the singular points of the family, each an ordinary
    cusp, for every a (see the singularity module docstring); the t are
    zeros_of_curve.  The proven flag records whether a = 1, the paper's case.
    """
    a, b = _check_pair(a, b)
    return CuspLocus(s_bar=Fraction(a - b, a + b), t_values=tuple(zeros_of_curve(a, b)), proven=(a == 1))


class CuspCertificate(NamedTuple):
    """Evidence that the curve has a cusp at parameter t: the one-sided unit
    tangents from below and above t, which a cusp flips (flip_dot = -1).
    ``proven`` records whether a = 1, the case the paper proves; the
    derivation in the singularity module docstring covers every a."""

    s: float
    t: float
    tangent_left: PlanePoint
    tangent_right: PlanePoint
    flip_dot: float
    proven: bool = False


def find_cusps(a: int, b: int) -> list[CuspCertificate]:
    """The certificates of the b - a cusps of the family, sorted by t.

    They follow from the proof in the singularity module docstring: at
    t = h/d, d = 2(b-a), the unit tangents are -exp(2*pi*i*a*t) from below
    and exp(2*pi*i*a*t) from above, whose angle 2*pi*((a*h) mod d)/d is
    reduced in integers, and flip_dot is exactly -1.  s and t are
    (a-b)/(a+b) and h/d, correctly rounded divisions of integers, so they
    are float(Fraction) of the locus.
    """
    a, b = _check_pair(a, b)
    d = 2 * (b - a)
    s = (a - b) / (a + b)
    certs = []
    for h in range(1, d, 2):
        angle = 2.0 * math.pi * (a * h % d) / d
        x, y = math.cos(angle), math.sin(angle)
        certs.append(CuspCertificate(s, h / d, PlanePoint(-x, -y), PlanePoint(x, y), -1.0, a == 1))
    return certs
