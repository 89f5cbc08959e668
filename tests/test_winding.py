import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epicusp import (
    KernelParams,
    NearPole,
    OnCurve,
    PlanePoint,
    TwoTermSpec,
    Unresolved,
    eval_complex,
    kernel_integral,
    winding_closed_form,
    winding_numeric,
    zeros_of_curve,
)
from epicusp import winding
from epicusp.curve import MAX_GRID_SAMPLES, _TABLE_CACHE_LIMIT, _unit_roots, eval_grid

ORIGIN = PlanePoint(0.0, 0.0)


class TestClosedForm:
    def test_dominant_low_frequency(self):
        assert winding_closed_form(TwoTermSpec(1, 3, -0.5)) == 1

    def test_dominant_high_frequency(self):
        assert winding_closed_form(TwoTermSpec(1, 3, 0.5)) == 3

    def test_balanced_curve_passes_through_origin(self):
        with pytest.raises(OnCurve):
            winding_closed_form(TwoTermSpec(2, 7, 0.0))

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
           st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(deadline=None)
    def test_picks_the_heavier_frequency(self, a, d, s):
        assume(s != 0.0)
        b = a + d
        expected = a if s < 0 else b
        assert winding_closed_form(TwoTermSpec(a, b, s)) == expected


class TestNumeric:
    def test_circle_multiplicity(self):
        # at s = 1 the curve is 2 exp(2 pi i 5 t), the circle traced five times
        res = winding_numeric(TwoTermSpec(1, 5, 1.0), ORIGIN, 256)
        assert res.value == 5
        assert res.residual < 1e-6

    def test_point_outside_winds_zero(self):
        res = winding_numeric(TwoTermSpec(1, 3, 0.2), PlanePoint(10.0, 0.0), 256)
        assert res.value == 0

    @pytest.mark.parametrize("s,expected", [(-0.3, 1), (0.3, 3)])
    def test_agrees_with_closed_form(self, s, expected):
        res = winding_numeric(TwoTermSpec(1, 3, s), ORIGIN, 4096)
        assert res.value == expected
        assert res.residual < 1e-6

    def test_base_point_on_curve(self):
        # 0.25 lands exactly on the 512-point grid, so the sample distance is 0
        z0 = PlanePoint.from_complex(complex(eval_complex(TwoTermSpec(1, 3, 0.4), 0.25)))
        with pytest.raises(OnCurve):
            winding_numeric(TwoTermSpec(1, 3, 0.4), z0, 512)

    def test_base_point_barely_off_curve(self):
        # close enough that angle steps stay too coarse on every grid up to
        # MAX_GRID_SAMPLES
        p = complex(eval_complex(TwoTermSpec(1, 3, 0.4), 0.3))
        z0 = PlanePoint(p.real + 1e-7, p.imag)
        with pytest.raises(Unresolved):
            winding_numeric(TwoTermSpec(1, 3, 0.4), z0, 64)

    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            winding_numeric(TwoTermSpec(1, 3, 0.2), ORIGIN, 63)

    @pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_a_base_point_that_is_not_finite_is_refused_before_sampling(self, monkeypatch, x, y):
        def no_grid(spec, n):
            raise AssertionError(f"sampled {n} points")

        monkeypatch.setattr(winding, "eval_grid", no_grid)
        for z0 in (PlanePoint(x, y), complex(x, y)):
            with pytest.raises(ValueError, match="z0 must be finite"):
                winding_numeric(TwoTermSpec(1, 3, 0.5), z0)

    @pytest.mark.parametrize("x,y", [(1e160, 1e160), (1e155, 0.0), (-1.7e308, 1.7e308), (0.0, -2.0**501)])
    def test_a_far_base_point_winds_zero(self, x, y):
        # past ~1.3e154 the products of consecutive samples would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert winding_numeric(TwoTermSpec(1, 3, 0.5), PlanePoint(x, y)).value == 0

    def test_a_far_base_point_keeps_the_steps_of_a_near_one(self, monkeypatch):
        # a curve and base point both scaled by 2^600 give 2^600 * (gamma - z0)
        # exactly, which the far branch scales back by a power of two
        spec, z0 = TwoTermSpec(2, 5, 0.25), PlanePoint(0.3, -0.2)
        near = winding_numeric(spec, z0)
        assert near.value == 5
        monkeypatch.setattr(winding, "eval_grid", lambda spec, n: 2.0**600 * eval_grid(spec, n))
        assert winding_numeric(spec, PlanePoint(2.0**600 * z0.x, 2.0**600 * z0.y)) == near

    @pytest.mark.parametrize("n", [64, 128, 1024])
    def test_grid_doubling_stability(self, n):
        spec = TwoTermSpec(2, 5, -0.6)
        assert winding_numeric(spec, ORIGIN, n).value == winding_numeric(spec, ORIGIN, 2 * n).value

    def test_samples_field_reports_grid_used(self):
        res = winding_numeric(TwoTermSpec(1, 2, 0.5), ORIGIN, 128)
        assert res.samples in (128, 256)


def roots_inside(a: int, b: int, s: float, z0: complex) -> int:
    """Zeros of (1+s)w^b + (1-s)w^a - z0 in |w| < 1: the winding number about z0."""
    coeffs = np.zeros(b + 1, dtype=complex)
    coeffs[0] = 1.0 + s
    coeffs[b - a] = 1.0 - s
    coeffs[b] = -z0
    moduli = np.abs(np.roots(coeffs))
    assert np.min(np.abs(moduli - 1.0)) > 1e-6  # no root near the circle: a sound count
    return int(np.sum(moduli < 1.0))


class TestGridGrowth:
    """(7, 60, 0.2) needs grids far past 4096 points about most base points."""

    def test_off_centre_base_point(self):
        res = winding_numeric(TwoTermSpec(7, 60, 0.2), PlanePoint(0.5, 0.5))
        assert res.value == roots_inside(7, 60, 0.2, 0.5 + 0.5j) == 36
        assert res.samples == 131072

    def test_random_base_points_match_the_root_count(self):
        rng = np.random.default_rng(2024)
        for x, y in rng.uniform(-2.0, 2.0, (8, 2)):
            res = winding_numeric(TwoTermSpec(7, 60, 0.2), PlanePoint(x, y))
            assert res.value == roots_inside(7, 60, 0.2, complex(x, y)), (x, y)

    def test_gives_up_past_the_largest_grid(self, monkeypatch):
        monkeypatch.setattr(winding, "MAX_GRID_SAMPLES", 65536)
        with pytest.raises(Unresolved):
            winding_numeric(TwoTermSpec(7, 60, 0.2), PlanePoint(0.5, 0.5))


class TestAliasing:
    """Below 4 samples per turn of the fastest term, a term can alias to a
    slow turning whose steps all stay under pi/2."""

    def test_a_coarse_grid_is_refined_before_the_first_pass(self):
        # on 64 points, z^49 turns like z^(49-64) = z^-15
        res = winding_numeric(TwoTermSpec(1, 49, 1.0), ORIGIN, 64)
        assert res.value == 49 and res.samples == 256

    @pytest.mark.parametrize("n", [64, 100, 128])
    def test_every_pair_on_a_small_grid(self, n):
        for b in range(2, 61):
            for a in range(1, b):
                for s in (-0.5, 0.9, 1.0):
                    res = winding_numeric(TwoTermSpec(a, b, s), ORIGIN, n)
                    assert res.value == (a if s < 0 else b), (a, b, s)
                    assert res.samples >= 4 * b

    def test_a_grid_past_the_largest_is_refused_before_sampling(self, monkeypatch):
        def no_grid(spec, n):
            raise AssertionError(f"sampled {n} points")

        monkeypatch.setattr(winding, "eval_grid", no_grid)
        with pytest.raises(ValueError, match="need n <="):
            winding_numeric(TwoTermSpec(1, 3, 0.5), ORIGIN, MAX_GRID_SAMPLES + 1)

    def test_a_frequency_past_the_largest_grid_is_refused(self):
        spec = TwoTermSpec(1, MAX_GRID_SAMPLES // 2, 0.5)
        with pytest.raises(Unresolved, match=f"frequency {spec.b} needs more than"):
            winding_numeric(spec, ORIGIN, 64)


class TestKernelIntegral:
    def test_dominant_constant(self):
        v = kernel_integral(KernelParams(alpha=1.0, beta=2.0), 512)
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_dominant_oscillation(self):
        v = kernel_integral(KernelParams(alpha=2.0, beta=1.0), 512)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_sign_of_alpha_is_irrelevant(self):
        p = kernel_integral(KernelParams(alpha=-1.5, beta=2.0), 512)
        q = kernel_integral(KernelParams(alpha=1.5, beta=2.0), 512)
        assert p == pytest.approx(q, abs=1e-14)

    def test_near_pole_refused(self):
        with pytest.raises(NearPole):
            kernel_integral(KernelParams(alpha=1.0, beta=1.0 + 1e-9), 512)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelParams(alpha=1.0, beta=0.0)

    @pytest.mark.parametrize(
        "alpha,beta", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf)]
    )
    def test_alpha_and_beta_must_be_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            KernelParams(alpha, beta)

    @given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
           st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
           st.sampled_from([1, 2, 7, 512, 2048, 3000, _TABLE_CACHE_LIMIT + 1]))
    @settings(deadline=None, max_examples=100)
    def test_the_cached_grid_gives_the_bits_of_the_expression(self, alpha, beta, n):
        assume(abs(beta - abs(alpha)) >= 1e-6 * max(beta, abs(alpha)))
        t = np.arange(n) / n
        expected = complex(np.mean(1.0 / (beta + alpha * np.exp(2j * np.pi * t))))
        got = kernel_integral(KernelParams(alpha, beta), n)
        assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())

    def test_the_cached_grid_is_read_only(self):
        # the grid is eval_grid's unit-root table, which no call may change
        e = _unit_roots(2048)
        before = e.copy()
        kernel_integral(KernelParams(alpha=1.0, beta=2.0), 2048)
        assert e is _unit_roots(2048) and e.tobytes() == before.tobytes()
        with pytest.raises(ValueError):
            e[0] = 0.0

    @pytest.mark.parametrize("n", [0, -1, MAX_GRID_SAMPLES + 1])
    def test_empty_grids_are_refused(self, n, monkeypatch):
        def no_grid(n):
            raise AssertionError(f"built a grid of {n} points")

        monkeypatch.setattr(winding, "_unit_roots", no_grid)
        with pytest.raises(ValueError):
            kernel_integral(KernelParams(alpha=1.0, beta=2.0), n)

    @given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
           st.floats(min_value=0.05, max_value=3.0, allow_nan=False))
    @settings(deadline=None, max_examples=200)
    def test_dichotomy(self, alpha, beta):
        # stay away from the circle |alpha| = beta where the value jumps
        assume(beta > 1.02 * abs(alpha) or beta < 0.98 * abs(alpha))
        expected = 1.0 / beta if beta > abs(alpha) else 0.0
        assert kernel_integral(KernelParams(alpha, beta), 2048) == pytest.approx(expected, abs=1e-10)


class TestOriginPassages:
    def test_known_quarter_points(self):
        assert zeros_of_curve(1, 3) == [Fraction(1, 4), Fraction(3, 4)]

    def test_adjacent_frequencies(self):
        assert zeros_of_curve(1, 2) == [Fraction(1, 2)]

    def test_wide_gap(self):
        assert zeros_of_curve(2, 5) == [Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)]

    def test_count_equals_frequency_gap(self):
        for a, b in [(1, 2), (1, 5), (2, 7), (3, 8)]:
            assert len(zeros_of_curve(a, b)) == b - a

    def test_values_are_actual_origin_passages(self):
        for t in zeros_of_curve(2, 7):
            assert abs(eval_complex(TwoTermSpec(2, 7, 0.0), float(t))) < 1e-12
