import cmath
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_item
from epicusp import TwoTermSpec, eval_complex
from epicusp.curve import (
    _TABLE_CACHE_LIMIT,
    _eval_terms,
    _shifted_unit_roots,
    _term_samples,
    _terms,
    _unit_roots,
    curve_scale,
    derivative_scale,
    eval_grid,
)


def point(spec, t: float, order: int = 0) -> complex:
    """gamma(t), or its order-th t-derivative, as a Python complex."""
    return complex(eval_complex(spec, float(t), order))


def close(z: complex, x: float, y: float, tol: float = 1e-12) -> bool:
    return abs(z.real - x) <= tol and abs(z.imag - y) <= tol


@st.composite
def curve_specs(draw, max_b: int = 10):
    """Random curves of the family with small frequencies."""
    b = draw(st.integers(min_value=2, max_value=max_b))
    a = draw(st.integers(min_value=1, max_value=b - 1))
    return TwoTermSpec(a, b, draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)))


def reference_eval(spec, t, order=0):
    """The kernel as first written: np.mod phase, cos + 1j*sin, all in numpy."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for f, w in ((spec.a, 1.0 - spec.s), (spec.b, 1.0 + spec.s)):
        angle = 2.0 * np.pi * np.mod(f * t, 1.0)
        factor = (2j * np.pi * f) ** order
        out += w * factor * (np.cos(angle) + 1j * np.sin(angle))
    return out


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


KERNEL_SPECS = [
    TwoTermSpec(1, 3, 0.0),
    TwoTermSpec(2, 5, -0.3),
    TwoTermSpec(7, 60, 0.85),
    TwoTermSpec(3, 11, -1.0),
    TwoTermSpec(10**6, 10**9 + 7, 0.4),
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
        # a float is a 0-d array, and with real weights numpy's complex
        # products have the same bits at any length
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

    def test_pickles_hold_the_fields_only(self):
        spec = TwoTermSpec(2, 5, -0.25)
        eval_complex(spec, 0.1)
        # the fields a, b and s, and nothing an evaluation derives from them
        assert pickle.dumps(spec, protocol=4) == (
            b"\x80\x04\x95A\x00\x00\x00\x00\x00\x00\x00\x8c\x0cepicusp.spec\x94\x8c\x0b"
            b"TwoTermSpec\x94\x93\x94)\x81\x94}\x94(\x8c\x01a\x94K\x02\x8c\x01b\x94K\x05\x8c"
            b"\x01s\x94G\xbf\xd0\x00\x00\x00\x00\x00\x00ub."
        )
        twin = TwoTermSpec(2, 5, -0.25)
        assert spec == twin and hash(spec) == hash(twin)
        assert pickle.dumps(spec) == pickle.dumps(twin)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec) and repr(back) == repr(spec)


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
        bound = abs(1.0 - spec.s) + abs(1.0 + spec.s)
        assert curve_scale(spec) == bound == 2.0
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
        # at s = -1 the curve is 2 exp(2 pi i t), twice the unit circle
        assert close(point(TwoTermSpec(1, 2, -1.0), 0.0, 1) / 2, 0.0, 2.0 * math.pi)

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


def rotated(terms, phi: float) -> list[tuple[int, complex]]:
    """The terms of the curve turned about the origin by phi: every weight times exp(i*phi)."""
    turn = cmath.exp(1j * phi)
    return [(f, w * turn) for f, w in terms]


def rotated_point(terms, t: float) -> complex:
    return complex(_eval_terms(terms, t, 0))


class TestRotate:
    """Turning every weight by exp(i*phi) turns every point of the curve."""

    def test_zero_angle_is_identity(self):
        spec = TwoTermSpec(1, 3, 0.3)
        t = np.arange(64) / 64
        assert same_bits(_eval_terms(rotated(_terms(spec), 0.0), t, 0), eval_complex(spec, t))

    def test_quarter_turn_moves_start_upward(self):
        terms = rotated(_terms(TwoTermSpec(1, 3, 0.0)), math.pi / 2)
        assert close(rotated_point(terms, 0.0), 0.0, 2.0)

    @given(curve_specs(), st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(deadline=None, max_examples=50)
    def test_rotation_roundtrip(self, spec, phi, t):
        turned = rotated(_terms(spec), phi)
        assert abs(point(spec, t) - rotated_point(rotated(turned, -phi), t)) < 1e-12
        assert abs(rotated_point(turned, t) - cmath.exp(1j * phi) * point(spec, t)) < 1e-12


class TestGrid:
    """eval_grid against eval_complex on t = j/n."""

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
           st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=0, max_value=14))
    @settings(deadline=None)
    def test_two_term_specs_match_bit_for_bit_at_powers_of_two(self, a, d, s, k):
        spec, n = TwoTermSpec(a, a + d, s), 2**k
        assert same_bits(eval_grid(spec, n), eval_complex(spec, np.arange(n) / n))

    # frequencies past the grid size included
    @given(curve_specs(max_b=200), st.integers(min_value=1, max_value=3000))
    @settings(deadline=None)
    def test_any_curve_agrees_at_any_size(self, spec, n):
        gap = np.max(np.abs(eval_grid(spec, n) - eval_complex(spec, np.arange(n) / n)))
        assert gap <= 1e-12 * curve_scale(spec)

    def test_the_cached_table_is_read_only(self):
        table = _unit_roots(1000)
        before = table.copy()
        assert table is _unit_roots(1000)
        with pytest.raises(ValueError):
            table[1] = 0.0
        z = eval_grid(TwoTermSpec(1, 2, 0.0), 1000)
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
        unit = ((3, complex(1.0)),)
        assert same_bits(e, _eval_terms(unit, np.arange(1000) / 1000 + 1.0 / 4, 0))

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
        z = eval_grid(TwoTermSpec(3, 4, 0.0), 1000)
        z[1] = 0.0  # the result is the caller's own array
        assert same_bits(e, before)
        assert same_bits(e, _unit_roots(1000)[3 * np.arange(1000) % 1000])

    def test_large_term_samples_are_not_kept(self):
        n = _TABLE_CACHE_LIMIT + 1
        assert _term_samples(3, n) is not _term_samples(3, n)


class TestGridGather:
    """eval_grid against per-call gathers from the unit-root table (per_item.grid_samples)."""

    @given(curve_specs(max_b=200), st.integers(min_value=1, max_value=3000))
    @example(TwoTermSpec(10**12, 10**15 + 7, -0.75), 4096)
    @example(TwoTermSpec(3, 2**40, 0.5), _TABLE_CACHE_LIMIT)
    @example(TwoTermSpec(5, 2**33 + 1, -1.0), _TABLE_CACHE_LIMIT + 1)
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
        # at s = -1 the curve is 2 exp(2 pi i t), twice the unit circle
        z = eval_grid(TwoTermSpec(1, 2, -1.0), 4) / 2
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
            (TwoTermSpec(1, 2, -1.0), -1),
        ],
    )
    def test_rejects_bad_orders(self, spec, order):
        for t in (0.1, np.array([0.1, 0.2])):
            with pytest.raises(ValueError, match="order"):
                eval_complex(spec, t, order)

    @pytest.mark.parametrize("spec, top", [(TwoTermSpec(1, 3, 0.5), 241), (TwoTermSpec(1, 7, 1.0), 187), (TwoTermSpec(10**6, 10**9 + 7, -1.0), 31)])
    def test_an_order_past_the_float_range_is_refused(self, spec, top):
        # 2*(2*pi*b)**order bounds the derivative; past a float it overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(eval_complex(spec, [0.0, 0.1, 0.37], top)))
        for order in (top + 1, 400, 10**6):
            with pytest.raises(ValueError, match=f"order {order} overflows"):
                eval_complex(spec, 0.1, order)

    def test_numpy_integer_orders_are_accepted(self):
        spec = TwoTermSpec(1, 3, 0.5)
        assert same_bits(eval_complex(spec, 0.1, np.int64(2)), eval_complex(spec, 0.1, 2))

    def test_numpy_integer_frequencies_become_ints(self):
        spec = TwoTermSpec(np.int64(1), np.int32(3), 0)
        assert spec == TwoTermSpec(1, 3, 0)
        assert type(spec.a) is int and type(spec.b) is int

    def test_lowering_preserves_weights(self):
        # _terms lowers a spec to the (frequency, weight) pairs of its terms
        terms = _terms(TwoTermSpec(2, 5, 0.25))
        assert terms == ((2, 0.75), (5, 1.25))
        assert [type(w) for _, w in terms] == [complex, complex]
