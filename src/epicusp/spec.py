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
from the proof in the singularity module docstring, and
_balanced_intersections the self-intersections of the balanced curve
from integer numerators, so they too need no arrays.  These live here,
beside the specification, because this module imports nothing beyond the
standard library and errors, and fractions only where a Fraction is
built: `epicusp wind` without --numeric or --z0, `epicusp cusps` and
`epicusp intersect -s 0` load it and never numpy.  curve, winding,
singularity and geometry re-export every name they used to define, so
their import paths and pickles written under them still resolve.

The result types are frozen records on the _Record base here, in place
of frozen dataclasses, whose module imports inspect: they compare, hash,
print and pickle as the dataclasses did, and refuse assignment.
Every public entry point checks each scalar argument with one call to
_integer, _real, _weight, _check_pair, _grid_size or _point, defined here;
each raises ValueError naming the argument.  _curve checks that a curve
argument is a TwoTermSpec and raises TypeError naming it.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import NamedTuple, Optional

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


class _Record:
    """Base of the frozen result types: named fields, each set once.

    A subclass lists its fields as class annotations, in order, after
    those of its bases; a class attribute of the same name is that field's
    default.  Equality (same class, equal fields), hash, repr and pickles
    (the class, then the dict of fields) are those of a frozen dataclass
    with the same fields, and assigning or deleting an attribute raises
    AttributeError.  A subclass that checks its arguments defines __init__
    and passes the checked values on to this one.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__annotations__)
        cls._fields += own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields or field in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {field!r}")
        values.update(kwargs)
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() is missing the arguments {', '.join(missing)}")
        # in field order, so the pickled dict is that of the dataclass
        self.__dict__.update((f, values[f] if f in values else self._defaults[f]) for f in fields)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TwoTermSpec(_Record):
    """The two-term family with frequencies 1 <= a < b and weights 1-s, 1+s.

    Raises ValueError unless a, b are integers and s is a finite real
    number in [-1, 1]; bools and strings are refused."""

    a: int
    b: int
    s: float

    def __init__(self, a, b, s) -> None:
        a, b = _check_pair(a, b)
        super().__init__(a, b, _weight(s, "s"))


def _curve(value, name: str = "spec") -> TwoTermSpec:
    """A curve argument, which must be a TwoTermSpec; anything else (a plain
    tuple of a, b, s included) raises TypeError naming it."""
    if not isinstance(value, TwoTermSpec):
        raise TypeError(f"{name} must be a TwoTermSpec, not {value!r}")
    return value


def winding_closed_form(spec: TwoTermSpec) -> int:
    """Winding number of the two-term curve about the origin.

    Returns a for s < 0 and b for s > 0, including the endpoint weights
    s = -1 and s = 1 where the curve degenerates to a circle traced a
    or b times.

    Raises
    ------
    TypeError
        If spec is not a TwoTermSpec.
    OnCurve
        If s = 0: the curve passes through the origin and the winding
        number is undefined there.
    """
    _curve(spec)
    if spec.s == 0:
        raise OnCurve("curve passes through the origin at s=0")
    return spec.a if spec.s < 0 else spec.b


def zeros_of_curve(a: int, b: int) -> list[Fraction]:
    """Parameters where the balanced curve (s=0) passes through the origin.

    These are exactly t = h/(2(b-a)) for odd h, giving b-a values in [0, 1).
    """
    from fractions import Fraction

    a, b = _check_pair(a, b)
    d = 2 * (b - a)
    return [Fraction(h, d) for h in range(1, d, 2)]


class CuspLocus(_Record):
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
    from fractions import Fraction

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


class IntersectionRecord(NamedTuple):
    """A self-intersection: gamma(t1) = gamma(t2) with t1 < t2."""

    t1: float
    t2: float
    point: PlanePoint
    on_rational_grid: bool
    grid_index_pair: Optional[tuple[int, int]] = None


def _check_isolated(spec: TwoTermSpec) -> None:
    """Raise ValueError if the self-intersections of spec form a continuum:
    a and b share a factor, or s = 1, or s = -1 with a >= 2."""
    a, b, s = spec.a, spec.b, spec.s
    if math.gcd(a, b) > 1 or s == 1.0 or (s == -1.0 and a > 1):
        raise ValueError(
            f"({a},{b},{s}) retraces itself, so its self-intersections form a continuum"
        )


def _balanced_intersections(spec: TwoTermSpec) -> list[IntersectionRecord]:
    """geometry.self_intersections of a balanced curve (s = 0), from integers.

    In the notation of the geometry module docstring both numerators of
    g_+- factor.  With p = a+b and d = b-a,

        sin(2 pi a u) + sin(2 pi b u) = 2 sin(pi p u) cos(pi d u),
        sin(2 pi a u) - sin(2 pi b u) = -2 cos(pi p u) sin(pi d u),

    so the roots in (0, 1/2) are rational: k/p and (2k+1)/(2d) for g_+,
    (2k+1)/(2p) and k/d for g_-, a root of both factors counting once.  Over
    L = 2(b^2 - a^2) = 2pd their numerators U are 2dk and p(2k+1) for g_+,
    d(2k+1) and 2pk for g_-, and the centre m/(2(b-a)) is mp/L, so every
    self-intersection is the pair of rationals ((mp - U) mod L, mp + U) / L.
    Both numerators have the parity of mp + U.  When it is even the pair lies
    on the grid j/(b^2 - a^2).  When it is odd, p is odd, and so is d; an odd
    mp + U needs U = p(2k+1) with m even, or U = 2pk with m odd, and then both
    numerators are p times an odd number: the pair is a meeting of two
    origin passages h/(2(b-a)), h odd, which lie off the grid.

    The pairs are sorted as the integers n1*L + n2, so ties keep their
    exact order, and t = n/L is correctly rounded: float(Fraction(n, L)).
    Both numerators even set on_rational_grid and the index pair
    (n1/2, n2/2).  gamma is evaluated once per numerator with eval_complex's
    float operations, so the points have its bits wherever math.cos and
    math.sin round as np.cos and np.sin do: the phase u = f*t is reduced
    to its fractional part, which u % 1.0 gives exactly for u >= 0, before
    it is multiplied by 2*pi, and the terms, of weight 1, are summed as
    (0.0 + e_a) + e_b.  Raises ValueError if a and b share a factor.
    """
    _check_isolated(spec)
    a, b = spec.a, spec.b
    p, d = a + b, b - a
    L, half = 2 * p * d, p * d
    plus = {*range(2 * d, half, 2 * d), *range(p, half, 2 * p)}
    minus = {*range(d, half, 2 * d), *range(2 * p, half, 2 * p)}
    keys = []
    for m in range(d):
        centre = m * p
        for u in minus if m % 2 else plus:
            n1, n2 = (centre - u) % L, centre + u
            keys.append(n1 * L + n2 if n1 < n2 else n2 * L + n1)
    keys.sort()
    pairs = [divmod(key, L) for key in keys]
    tau, cos, sin = 2.0 * math.pi, math.cos, math.sin
    points = {}
    for n in {n for pair in pairs for n in pair}:
        t = n / L
        angle_a, angle_b = tau * (a * t % 1.0), tau * (b * t % 1.0)
        points[n] = (t, 0.0 + cos(angle_a) + cos(angle_b), 0.0 + sin(angle_a) + sin(angle_b))
    # _make skips the keyword handling of the named-tuple constructors
    record, plane_point = IntersectionRecord._make, PlanePoint._make
    records = []
    for n1, n2 in pairs:
        (t1, x1, y1), (t2, x2, y2) = points[n1], points[n2]
        on = n1 % 2 == 0
        point = plane_point((0.5 * (x1 + x2), 0.5 * (y1 + y2)))
        records.append(record((t1, t2, point, on, (n1 // 2, n2 // 2) if on else None)))
    return records
