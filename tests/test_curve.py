import cmath
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_item
from epicusp import CurveSpec, ExponentialTerm, TwoTermSpec, eval_complex
from epicusp.curve import (
    _TABLE_CACHE_LIMIT,
    _shifted_unit_roots,
    _term_samples,
    _unit_roots,
    as_curve,
    curve_scale,
    derivative_scale,
    eval_grid,
)


def point(spec, t: float, order: int = 0) -> complex:
    """gamma(t), or its order-th t-derivative, as a Python complex."""
    return complex(eval_complex(spec, float(t), order))


def close(z: complex, x: float, y: float, tol: float = 1e-12) -> bool:
    return abs(z.real - x) <= tol and abs(z.imag - y) <= tol


def rotated(spec, phi: float) -> CurveSpec:
    """The curve turned about the origin by phi: every weight times exp(i*phi)."""
    turn = cmath.exp(1j * phi)
    return CurveSpec.from_pairs((t.frequency, t.weight * turn) for t in as_curve(spec).terms)


@st.composite
def curve_specs(draw):
    """Random curves with small integer frequencies and bounded weights."""
    m = draw(st.integers(min_value=1, max_value=4))
    terms = []
    for _ in range(m):
        freq = draw(st.integers(min_value=1, max_value=10))
        re = draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
        im = draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
        terms.append(ExponentialTerm(freq, complex(re, im)))
    return CurveSpec(tuple(terms))


def reference_eval(spec, t, order=0):
    """The kernel as first written: np.mod phase, cos + 1j*sin, all in numpy."""
    c = as_curve(spec)
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for term in c.terms:
        angle = 2.0 * np.pi * np.mod(term.frequency * t, 1.0)
        factor = (2j * np.pi * term.frequency) ** order
        out += term.weight * factor * (np.cos(angle) + 1j * np.sin(angle))
    return out


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


KERNEL_SPECS = [
    TwoTermSpec(1, 3, 0.0),
    TwoTermSpec(2, 5, -0.3),
    TwoTermSpec(7, 60, 0.85),
    CurveSpec.from_pairs([(1, 0.7 - 0.2j), (-3, 0.45 + 0.3j), (5, 0.1j), (0, 0.2)]),
    rotated(TwoTermSpec(3, 11, 0.4), 0.7),
]
KERNEL_T = [0.0, -0.0, 0.1, 0.37, 0.5, 1.0 - 2.0**-53, -0.25, -0.1, 1e-300, -1e-300,
            5e-324, 123456.789, -98765.4321, 1e9 + 0.3, -3.5e12, 2.0**52 + 1.0]


class TestKernel:
    """eval_complex against the reference, bit for bit."""

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=range(len(KERNEL_SPECS)))
    @pytest.mark.parametrize("order", range(4))
    def test_arrays_match_the_reference(self, spec, order):
        rng = np.random.default_rng(order)
        for t in (
            np.arange(4096) / 4096,
            rng.uniform(-1e4, 1e4, 2048),
            -rng.uniform(0, 1, 1024),
            np.array(KERNEL_T),
            np.arange(12.0).reshape(3, 4) / 7 - 1,
        ):
            assert same_bits(eval_complex(spec, t, order), reference_eval(spec, t, order))

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=range(len(KERNEL_SPECS)))
    @pytest.mark.parametrize("order", range(4))
    def test_scalars_match_the_reference(self, spec, order):
        ts = KERNEL_T + list(np.random.default_rng(order).uniform(-50, 50, 200))
        for t in ts:
            want = reference_eval(spec, t, order)
            for x in (float(t), np.float64(t)):
                assert same_bits(eval_complex(spec, x, order), want), t

    @pytest.mark.parametrize("spec", KERNEL_SPECS[:3], ids=range(3))
    def test_real_weights_give_array_bits_for_scalars(self, spec):
        ts = np.array(KERNEL_T + list(np.random.default_rng(7).uniform(-50, 50, 200)))
        for order in range(4):
            along = eval_complex(spec, ts, order)
            for t, z in zip(ts, along):
                assert same_bits(eval_complex(spec, float(t), order), np.array(z)), t

    @given(curve_specs(), st.floats(allow_nan=False, allow_infinity=False),
           st.integers(min_value=0, max_value=3))
    @settings(deadline=None)
    def test_any_finite_scalar_matches_the_reference(self, spec, t, order):
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(eval_complex(spec, t, order), reference_eval(spec, t, order))

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=range(len(KERNEL_SPECS)))
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, np.float64(math.nan), 1e308])
    def test_non_finite_phase_gives_nan(self, spec, t):
        with np.errstate(over="ignore", invalid="ignore"):
            for order in range(3):
                z = eval_complex(spec, t, order)
                assert z.shape == () and cmath.isnan(complex(z))

    def test_lowering_is_cached_without_touching_identity(self):
        spec = TwoTermSpec(2, 5, 0.25)
        fresh = pickle.dumps(spec)
        low = spec.lower()
        assert spec.lower() is low
        twin = TwoTermSpec(2, 5, 0.25)
        assert spec == twin and hash(spec) == hash(twin)
        assert pickle.dumps(spec) == fresh == pickle.dumps(twin)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        assert back.lower() == low and repr(back) == repr(spec)


class TestEvaluate:
    def test_balanced_curve_starts_at_two(self):
        assert close(point(TwoTermSpec(1, 3, 0.0), 0.0), 2.0, 0.0)

    def test_balanced_curve_passes_through_origin_at_quarter(self):
        assert close(point(TwoTermSpec(1, 3, 0.0), 0.25), 0.0, 0.0)

    def test_degenerate_weight_gives_circle_point(self):
        assert close(point(TwoTermSpec(1, 3, -1.0), 0.5), -2.0, 0.0)

    @given(curve_specs(), st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    @settings(deadline=None)
    def test_one_periodic(self, spec, t):
        assert abs(point(spec, t) - point(spec, t + 1.0)) < 1e-12

    @given(curve_specs(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(deadline=None)
    def test_norm_bounded_by_weight_sum(self, spec, t):
        bound = sum(abs(term.weight) for term in spec.terms)
        assert abs(point(spec, t)) <= bound + 1e-12

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=2, max_value=10),
           st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(deadline=None)
    def test_real_weights_reflect_across_x_axis(self, a, b, s, t):
        if a >= b:
            a, b = b, a + b
        spec = TwoTermSpec(a, b, s)
        p, q = point(spec, t), point(spec, 1.0 - t)
        assert abs(q.real - p.real) < 1e-12 and abs(q.imag + p.imag) < 1e-12


class TestDerivative:
    def test_vanishes_at_the_cusp(self):
        assert abs(point(TwoTermSpec(1, 3, -0.5), 0.25, 1)) < 1e-12

    def test_unit_circle_speed(self):
        assert close(point(CurveSpec.from_pairs([(1, 1.0)]), 0.0, 1), 0.0, 2.0 * math.pi)

    def test_balanced_start_tangent(self):
        assert close(point(TwoTermSpec(1, 3, 0.0), 0.0, 1), 0.0, 8.0 * math.pi)

    @given(curve_specs(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(deadline=None, max_examples=50)
    def test_matches_central_differences(self, spec, t):
        h = 1e-6
        d = point(spec, t, 1)
        diff = (point(spec, t + h) - point(spec, t - h)) / (2 * h)
        assert abs(d.real - diff.real) < 1e-4
        assert abs(d.imag - diff.imag) < 1e-4


def slope(spec, t: float) -> float:
    """dy/dx = y'(t)/x'(t) from the first derivative."""
    d = point(spec, t, 1)
    return d.imag / d.real


class TestParametricDerivative:
    def test_zero_slope_on_the_diagonal_axis(self):
        assert slope(TwoTermSpec(1, 3, -0.5), 0.125) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_circle_slope(self):
        assert slope(TwoTermSpec(1, 3, -1.0), 0.25) == pytest.approx(0.0, abs=1e-12)

    def test_undefined_at_the_singular_point(self):
        spec = TwoTermSpec(1, 3, -0.5)
        assert abs(point(spec, 0.25, 1).real) <= 1e-9 * derivative_scale(spec)

    def test_cusp_weight_closed_form(self):
        # away from the poles the slope of the s=-1/2 curve is -cot(4 pi t)
        spec = TwoTermSpec(1, 3, -0.5)
        for k in range(1, 200):
            t = k / 200.0
            if min(abs(t - p / 4.0) for p in range(5)) < 1e-2:
                continue
            assert slope(spec, t) == pytest.approx(-1.0 / math.tan(4.0 * math.pi * t), abs=1e-9)


class TestRotate:
    """Turning every weight by exp(i*phi) turns every point of the curve."""

    def test_zero_angle_is_identity(self):
        spec = TwoTermSpec(1, 3, 0.3)
        t = np.arange(64) / 64
        assert same_bits(eval_complex(rotated(spec, 0.0), t), eval_complex(spec, t))

    def test_quarter_turn_moves_start_upward(self):
        assert close(point(rotated(TwoTermSpec(1, 3, 0.0), math.pi / 2), 0.0), 0.0, 2.0)

    @given(curve_specs(), st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(deadline=None, max_examples=50)
    def test_rotation_roundtrip(self, spec, phi, t):
        back = rotated(rotated(spec, phi), -phi)
        assert abs(point(spec, t) - point(back, t)) < 1e-12
        assert abs(point(rotated(spec, phi), t) - cmath.exp(1j * phi) * point(spec, t)) < 1e-12


@st.composite
def aliased_specs(draw):
    """Curves with negative frequencies, frequencies past the grid size, complex weights."""
    m = draw(st.integers(min_value=1, max_value=4))
    weights = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    return CurveSpec.from_pairs(
        (draw(st.integers(min_value=-200, max_value=200)), complex(draw(weights), draw(weights)))
        for _ in range(m)
    )


class TestGrid:
    """eval_grid against eval_complex on t = j/n."""

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
           st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=0, max_value=14))
    @settings(deadline=None)
    def test_two_term_specs_match_bit_for_bit_at_powers_of_two(self, a, d, s, k):
        spec, n = TwoTermSpec(a, a + d, s), 2**k
        assert same_bits(eval_grid(spec, n), eval_complex(spec, np.arange(n) / n))

    @given(aliased_specs(), st.integers(min_value=1, max_value=3000))
    @example(CurveSpec.from_pairs([(38, 2.2250738585e-313j)]), 35)
    @settings(deadline=None)
    def test_any_curve_agrees_at_any_size(self, spec, n):
        gap = np.max(np.abs(eval_grid(spec, n) - eval_complex(spec, np.arange(n) / n)))
        # A product that lands among the subnormals is rounded to a multiple
        # of the smallest one, an absolute error that no relative bound
        # covers.  Per term, each part w_re*e_re - w_im*e_im of one
        # evaluation rounds at most two products by half of it each (the
        # difference of subnormals is exact), so the two evaluations differ
        # by at most 2*sqrt(2) < 4 smallest subnormals per term.
        floor = 4 * len(spec.terms) * np.finfo(float).smallest_subnormal
        assert gap <= 1e-12 * curve_scale(spec) + floor

    def test_the_cached_table_is_read_only(self):
        table = _unit_roots(1000)
        before = table.copy()
        assert table is _unit_roots(1000)
        with pytest.raises(ValueError):
            table[1] = 0.0
        z = eval_grid(CurveSpec.from_pairs([(1, 1.0)]), 1000)
        z[1] = 0.0  # the result is the caller's own array
        assert same_bits(table, before)

    def test_large_tables_are_not_kept(self):
        assert _unit_roots(1 << 17) is not _unit_roots(1 << 17)

    def test_the_cached_shifted_samples_are_read_only(self):
        e = _shifted_unit_roots(3, 4, 1000)
        assert e is _shifted_unit_roots(3, 4, 1000)
        assert _shifted_unit_roots(3, 4, _TABLE_CACHE_LIMIT) is _shifted_unit_roots(3, 4, _TABLE_CACHE_LIMIT)
        with pytest.raises(ValueError):
            e[1] = 0.0
        unit = CurveSpec.from_pairs([(3, 1.0)])
        assert same_bits(e, eval_complex(unit, np.arange(1000) / 1000 + 1.0 / 4))

    def test_large_shifted_samples_are_not_kept(self):
        n = _TABLE_CACHE_LIMIT + 1
        assert _shifted_unit_roots(3, 4, n) is not _shifted_unit_roots(3, 4, n)

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            eval_grid(TwoTermSpec(1, 3, 0.0), 0)

    def test_the_cached_term_samples_are_read_only(self):
        e = _term_samples(3, 1000)
        assert e is _term_samples(3, 1000)
        assert same_bits(_term_samples(1003, 1000), e)  # the same frequency mod n
        assert _term_samples(3, _TABLE_CACHE_LIMIT) is _term_samples(3, _TABLE_CACHE_LIMIT)
        with pytest.raises(ValueError):
            e[1] = 0.0
        before = e.copy()
        z = eval_grid(CurveSpec.from_pairs([(3, 1.0)]), 1000)
        z[1] = 0.0  # the result is the caller's own array
        assert same_bits(e, before)
        assert same_bits(e, per_item.grid_samples(CurveSpec.from_pairs([(3, 1.0)]), np.arange(1000), 1000))

    def test_large_term_samples_are_not_kept(self):
        n = _TABLE_CACHE_LIMIT + 1
        assert _term_samples(3, n) is not _term_samples(3, n)


class TestGridGather:
    """eval_grid against per-call gathers from the unit-root table (per_item.grid_samples)."""

    @given(aliased_specs(), st.integers(min_value=1, max_value=3000))
    @example(CurveSpec.from_pairs([(10**15 + 7, 0.5 - 2j), (-(10**12), 1.5j)]), 4096)
    @example(CurveSpec.from_pairs([(-3, 1.0 - 1.0j), (2**40, -0.25 + 0.75j)]), _TABLE_CACHE_LIMIT)
    @example(CurveSpec.from_pairs([(5, 0.3 + 0.1j), (-(2**33) - 1, 1.0)]), _TABLE_CACHE_LIMIT + 1)
    @example(TwoTermSpec(3, 10, -0.4), 10_000)
    @settings(deadline=None)
    def test_same_bits_at_every_size(self, spec, n):
        assert same_bits(eval_grid(spec, n), per_item.grid_samples(spec, np.arange(n), n))

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
           st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=1, max_value=20_000))
    @settings(deadline=None, max_examples=60)
    def test_two_term_specs_at_every_size(self, a, d, s, n):
        spec = TwoTermSpec(a, a + d, s)
        assert same_bits(eval_grid(spec, n), per_item.grid_samples(spec, np.arange(n), n))


class TestSample:
    """eval_grid at small sizes, point by point."""

    def test_two_point_sample(self):
        z = eval_grid(TwoTermSpec(1, 3, 0.0), 2)
        assert close(z[0], 2.0, 0.0)
        assert close(z[1], -2.0, 0.0)

    def test_unit_circle_quarters(self):
        z = eval_grid(CurveSpec.from_pairs([(1, 1.0)]), 4)
        for w, (x, y) in zip(z, [(1, 0), (0, 1), (-1, 0), (0, -1)]):
            assert close(w, x, y)

    def test_first_sample_is_the_start_point(self):
        spec = TwoTermSpec(2, 5, 0.3)
        assert eval_grid(spec, 17)[0] == point(spec, 0.0)

    def test_rejects_tiny_grids(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                eval_grid(TwoTermSpec(1, 3, 0.0), n)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "a,b,s",
        [
            (0, 3, 0.0),
            (3, 3, 0.0),
            (3, 1, 0.0),
            (1, 3, 1.5),
            (True, 2, 0.0),
            (1, np.True_, 0.0),
            (1, 3.0, 0.0),
            (1, 3, math.nan),
        ],
    )
    def test_rejects_bad_parameters(self, a, b, s):
        with pytest.raises(ValueError):
            TwoTermSpec(a, b, s)

    @pytest.mark.parametrize(
        "spec, order",
        [
            (TwoTermSpec(1, 3, 0.5), -1),
            (TwoTermSpec(1, 3, 0.5), 0.5),
            (TwoTermSpec(1, 3, 0.5), 1.0),
            (TwoTermSpec(1, 3, 0.5), True),
            (CurveSpec.from_pairs([(0, 1.0), (2, 1.0)]), -1),
        ],
    )
    def test_rejects_bad_orders(self, spec, order):
        for t in (0.1, np.array([0.1, 0.2])):
            with pytest.raises(ValueError, match="order"):
                eval_complex(spec, t, order)

    def test_numpy_integer_orders_are_accepted(self):
        spec = TwoTermSpec(1, 3, 0.5)
        assert same_bits(eval_complex(spec, 0.1, np.int64(2)), eval_complex(spec, 0.1, 2))

    def test_numpy_integer_frequencies_become_ints(self):
        spec = TwoTermSpec(np.int64(1), np.int32(3), 0)
        assert spec == TwoTermSpec(1, 3, 0)
        assert type(spec.a) is int and type(spec.b) is int
        assert type(ExponentialTerm(np.int64(4), 1.0).frequency) is int

    def test_lowering_preserves_weights(self):
        low = TwoTermSpec(2, 5, 0.25).lower()
        assert [(t.frequency, t.weight) for t in low.terms] == [(2, 0.75), (5, 1.25)]

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            CurveSpec(())
