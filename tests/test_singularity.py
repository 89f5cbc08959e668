import json
import math
from fractions import Fraction

import numpy as np
import pytest

from epicusp import (
    CurveSpec,
    CuspLocus,
    NotSingular,
    PointKind,
    TwoTermSpec,
    Unresolved,
    WindowTooWide,
    certify_cusp,
    classify_point,
    derivative,
    evaluate,
    find_cusps,
    loop_birth_count,
    parametric_derivative,
    predicted_cusp_locus,
    rotate,
    rotated_param_deriv,
    rotation_angle,
    undefined_derivative_set,
)
from epicusp import singularity
from epicusp.cli import main
from epicusp.curve import eval_complex
from epicusp.singularity import (
    CUSP_FLIP_TOL,
    _certify_cusps,
    _circ_dist,
    _monotone_pieces,
    undefined_derivative_sets,
)
from exact_counts import chebyshev_u, coprime_pairs, fold_weights, roots_inside, x_prime_count

CUSP_SPEC = TwoTermSpec(1, 3, -0.5)


def flat_tangent_spec() -> CurveSpec:
    """A curve whose speed vanishes to second order at t = 0.

    gamma'(t) = e^{2 pi i t} (1 - e^{2 pi i t})^2 has a double zero, so the
    tangent direction is the same on both sides of the stop: singular, but
    not a cusp.
    """
    w = 1.0 / (2j * math.pi)
    return CurveSpec.from_pairs([(1, w), (2, -w), (3, w / 3.0)])


class TestClassifyPoint:
    def test_circle_start_is_vertical(self):
        assert classify_point(TwoTermSpec(1, 3, -1.0), 0.0) is PointKind.VERTICAL_TANGENT

    def test_circle_quarter_is_horizontal(self):
        circle = CurveSpec.from_pairs([(1, 1.0)])
        assert classify_point(circle, 0.25) is PointKind.HORIZONTAL_TANGENT

    def test_cusp_parameter_is_singular(self):
        assert classify_point(CUSP_SPEC, 0.25) is PointKind.SINGULAR

    def test_generic_point_is_regular(self):
        assert classify_point(TwoTermSpec(1, 3, 0.3), 0.1) is PointKind.REGULAR


class TestCertifyCusp:
    def test_certifies_the_known_cusp(self):
        cert = certify_cusp(CUSP_SPEC, 0.25)
        assert cert is not None
        assert cert.flip_dot <= -1.0 + 1e-6
        assert cert.s == -0.5 and cert.t == 0.25
        assert cert.proven

    def test_tangents_are_vertical_and_opposed(self):
        cert = certify_cusp(CUSP_SPEC, 0.25)
        assert abs(cert.tangent_left.x) < 1e-6
        assert abs(cert.tangent_right.x) < 1e-6
        dot = (cert.tangent_left.x * cert.tangent_right.x
               + cert.tangent_left.y * cert.tangent_right.y)
        assert dot == pytest.approx(-1.0, abs=1e-6)

    def test_second_cusp_certifies_too(self):
        assert certify_cusp(CUSP_SPEC, 0.75) is not None

    def test_regular_point_is_refused(self):
        with pytest.raises(NotSingular):
            certify_cusp(TwoTermSpec(1, 3, 0.3), 0.25)

    @pytest.mark.parametrize("delta", [0.0, -1e-4, 2e-3])
    def test_offset_range_is_enforced(self, delta):
        with pytest.raises(ValueError):
            certify_cusp(CUSP_SPEC, 0.25, delta=delta)

    def test_flat_tangent_point_is_not_certified(self):
        spec = flat_tangent_spec()
        assert classify_point(spec, 0.0) is PointKind.SINGULAR
        assert certify_cusp(spec, 0.0) is None

    def test_a_stopped_curve_is_not_certified(self):
        # gamma' is 0 everywhere, so there is no one-sided tangent
        assert certify_cusp(CurveSpec.from_pairs([(0, 1.0)]), 0.0) is None

    def test_the_first_failing_point_decides(self):
        # t = 0.3 is regular, t = 0 singular without a flip: whichever
        # comes first decides, as it would one point at a time
        spec = flat_tangent_spec()
        with pytest.raises(NotSingular, match="t=0.3"):
            _certify_cusps(spec, [0.3, 0.0], 1e-3)
        assert _certify_cusps(spec, [0.0, 0.3], 1e-3)[0] is None
        with pytest.raises(NotSingular, match="t=0.1"):
            _certify_cusps(CUSP_SPEC, [0.25, 0.1, 0.75], 1e-3)


class TestPredictedLocus:
    def test_quarter_cusps(self):
        locus = predicted_cusp_locus(1, 3)
        assert locus == CuspLocus(
            s_bar=Fraction(-1, 2),
            t_values=(Fraction(1, 4), Fraction(3, 4)),
            proven=True,
        )

    def test_adjacent_frequencies(self):
        locus = predicted_cusp_locus(1, 2)
        assert locus.s_bar == Fraction(-1, 3)
        assert locus.t_values == (Fraction(1, 2),)

    def test_general_low_frequency_is_conjectural(self):
        locus = predicted_cusp_locus(2, 5)
        assert locus.s_bar == Fraction(-3, 7)
        assert locus.t_values == (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))
        assert not locus.proven

    def test_locus_points_have_zero_speed(self):
        locus = predicted_cusp_locus(2, 7)
        spec = TwoTermSpec(2, 7, float(locus.s_bar))
        for t in locus.t_values:
            assert derivative(spec, float(t)).norm() < 1e-12


class TestFindCusps:
    def test_four_cusps_of_one_five(self):
        certs = find_cusps(1, 5)
        assert len(certs) == 4
        for k, cert in enumerate(certs):
            assert cert.s == pytest.approx(-2.0 / 3.0, abs=1e-6)
            assert cert.t == pytest.approx((2 * k + 1) / 8.0, abs=1e-6)
            assert cert.proven

    def test_conjectural_pair_found(self):
        certs = find_cusps(2, 3)
        assert len(certs) == 1
        assert certs[0].s == pytest.approx(-0.2, abs=1e-6)
        assert certs[0].t == pytest.approx(0.5, abs=1e-6)
        assert not certs[0].proven

    def test_cusps_are_equally_spaced_in_t(self):
        certs = find_cusps(2, 5)
        ts = [c.t for c in certs]
        for u, v in zip(ts, ts[1:]):
            assert v - u == pytest.approx(1.0 / 3.0, abs=1e-9)

    # the two pairs the former 256x256 seed grid left short, (1, 130), and
    # a stride of pairs up to b = 149
    @pytest.mark.parametrize(
        "a,b",
        [(20, 41), (7, 60), (1, 130)]
        + [(a, b) for b in range(13, 151, 17) for a in (1, b // 3, b // 2 + 1, b - 1)],
    )
    def test_every_locus_point_is_certified_exactly(self, a, b):
        certs = find_cusps(a, b)
        d = 2 * (b - a)
        assert len(certs) == b - a
        for h, cert in zip(range(1, d, 2), certs):
            assert cert.s == float(Fraction(a - b, a + b))
            assert cert.t == float(Fraction(h, d))
            assert cert.flip_dot <= -1.0 + 1e-6
            assert cert.proven == (a == 1)

    @pytest.mark.parametrize("a,b", [(a, b) for b in range(2, 13) for a in range(1, b)])
    def test_grid_search_finds_the_same_singular_points(self, a, b):
        ts = [c.t for c in find_cusps(a, b)]
        found = reference_singular_points(a, b)
        s_bar = float(Fraction(a - b, a + b))
        for s, t in found:
            assert abs(s - s_bar) < 1e-6
            assert min(_circ_dist(t, u) for u in ts) < 1e-6
        for u in ts:
            assert min(_circ_dist(t, u) for _, t in found) < 1e-6

    def test_failed_certification_raises(self, monkeypatch):
        monkeypatch.setattr(singularity, "_certify_cusps", lambda spec, ts, delta: [None] * len(ts))
        with pytest.raises(Unresolved):
            find_cusps(2, 5)

    @pytest.mark.parametrize("a,b", [(True, 3), (1.5, 3), (1, 3.0), ("1", 3)])
    def test_frequencies_must_be_integers(self, a, b):
        with pytest.raises(ValueError):
            predicted_cusp_locus(a, b)
        with pytest.raises(ValueError):
            find_cusps(a, b)

    def test_numpy_integer_frequencies_are_accepted(self):
        locus = predicted_cusp_locus(np.int64(2), np.int32(5))
        assert locus == predicted_cusp_locus(2, 5)
        assert find_cusps(np.int64(2), np.int64(5)) == find_cusps(2, 5)


def reference_certificate(spec, t: float, delta: float = 1e-3):
    """certify_cusp one point at a time in Python complex arithmetic.

    This was certify_cusp before the certificates of a pair were built in
    one array pass: nine scalar evaluations of gamma', one to classify the
    point and eight for the one-sided tangents.  It is the reference for
    the bits of that pass.
    """
    if classify_point(spec, t) is not PointKind.SINGULAR:
        raise NotSingular(f"no singular point at t={t}")

    def unit_tangent(u):
        d = complex(eval_complex(spec, u, order=1))
        return d / abs(d)

    offsets = [delta / 4**k for k in range(4)]
    left = [unit_tangent(t - d) for d in offsets]
    right = [unit_tangent(t + d) for d in offsets]
    flips = [(lt.conjugate() * rt).real for lt, rt in zip(left, right)]
    for coarse, fine in zip(flips, flips[1:]):
        if (16.0 * fine - coarse) / 15.0 > -1.0 + CUSP_FLIP_TOL:
            return None
    tl = 4.0 * left[3] - left[2]
    tr = 4.0 * right[3] - right[2]
    tl, tr = tl / abs(tl), tr / abs(tr)
    return singularity.CuspCertificate(
        s=float(getattr(spec, "s", math.nan)),
        t=float(t),
        tangent_left=singularity.PlanePoint.from_complex(tl),
        tangent_right=singularity.PlanePoint.from_complex(tr),
        flip_dot=(tl.conjugate() * tr).real,
        proven=(getattr(spec, "a", None) == 1),
    )


def reference_cusps(a: int, b: int) -> tuple[TwoTermSpec, float, list]:
    """The spec, offset and per-point reference certificates find_cusps uses."""
    locus = predicted_cusp_locus(a, b)
    spec = TwoTermSpec(a, b, float(locus.s_bar))
    delta = min(1e-3, 0.01 / (a + b))
    return spec, delta, [reference_certificate(spec, float(t), delta) for t in locus.t_values]


class TestOneArrayPass:
    """find_cusps and certify_cusp have the bits of the per-point reference.

    Both sides are computed in this process: the contract is determinism
    on one machine, so no bytes are stored.
    """

    @pytest.mark.parametrize("b", range(2, 61))
    def test_every_pair_up_to_sixty_has_the_reference_bits(self, b):
        for a in range(1, b):
            spec, delta, want = reference_cusps(a, b)
            assert repr(find_cusps(a, b)) == repr(want), (a, b)
            for cert in want:
                assert repr(certify_cusp(spec, cert.t, delta=delta)) == repr(cert), (a, b, cert.t)

    def test_certify_cusp_keeps_the_reference_bits_off_the_locus(self):
        for spec, t in [(CUSP_SPEC, 0.75), (flat_tangent_spec(), 0.0),
                        (CurveSpec.from_pairs([(1, 4.0), (4, 1.0)]), 1.0 / 6.0)]:
            assert repr(certify_cusp(spec, t)) == repr(reference_certificate(spec, t))

    def test_cli_prints_the_reference_certificates(self, capsys):
        assert main(["cusps", "-a", "7", "-b", "60"]) == 0
        lines = [
            json.dumps({"s": c.s, "t": c.t, "flip_dot": c.flip_dot, "proven": c.proven}) + "\n"
            for c in reference_cusps(7, 60)[2]
        ]
        assert capsys.readouterr().out == "".join(lines)


def _newton_refine_singular(a: int, b: int, s0: float, t0: float):
    """Damped Newton on gamma'(s, t) = 0 from a grid seed; None if it stalls."""
    ca, cb = 2j * np.pi * a, 2j * np.pi * b
    dscale = 2.0 * np.pi * (a + b) * 2.0

    def gprime(s, t):
        ea = np.exp(2j * np.pi * a * t)
        eb = np.exp(2j * np.pi * b * t)
        return (1.0 - s) * ca * ea + (1.0 + s) * cb * eb, ea, eb

    s, t = s0, t0
    g, ea, eb = gprime(s, t)
    for _ in range(50):
        if abs(g) < 1e-12 * dscale:
            return s, t % 1.0
        dg_ds = -ca * ea + cb * eb
        dg_dt = (1.0 - s) * ca * (2j * np.pi * a) * ea + (1.0 + s) * cb * (2j * np.pi * b) * eb
        jac = np.array([[dg_ds.real, dg_dt.real], [dg_ds.imag, dg_dt.imag]])
        rhs = -np.array([g.real, g.imag])
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        lam = 1.0
        while lam > 1.0 / 64.0:
            s_new = min(max(s + lam * step[0], -1.0 + 1e-6), 1.0 - 1e-6)
            t_new = t + lam * step[1]
            g_new, ea_new, eb_new = gprime(s_new, t_new)
            if abs(g_new) < (1.0 - 0.5 * lam) * abs(g) + 1e-15:
                s, t, g, ea, eb = s_new, t_new, g_new, ea_new, eb_new
                break
            lam *= 0.5
        else:
            return None
    return (s, t % 1.0) if abs(g) < 1e-12 * dscale else None


def reference_singular_points(a: int, b: int) -> list[tuple[float, float]]:
    """Singular points found without the locus: local minima of |gamma'|^2
    on a 256x256 (s, t) grid, refined by damped Newton.  This was
    find_cusps' search before it listed the closed-form locus; it is kept
    as an independent completeness oracle for small b."""
    ss = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3, 256)
    tt = np.arange(256) / 256
    S = ss[:, None]
    G = (1.0 - S) * (2j * np.pi * a) * np.exp(2j * np.pi * a * tt) + (
        1.0 + S
    ) * (2j * np.pi * b) * np.exp(2j * np.pi * b * tt)
    D = np.abs(G) ** 2
    dscale = 2.0 * np.pi * (a + b) * 2.0
    is_min = D < (0.05 * dscale) ** 2
    for ds, dt in ((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)):
        shifted = np.roll(D, (ds, dt), axis=(0, 1))
        if ds == -1:
            shifted[-1, :] = np.inf  # s does not wrap
        elif ds == 1:
            shifted[0, :] = np.inf
        is_min &= D <= shifted
    seeds = [(float(ss[i]), float(tt[j])) for i, j in zip(*np.nonzero(is_min))]
    refined = [_newton_refine_singular(a, b, s, t) for s, t in seeds]
    return [hit for hit in refined if hit is not None]


class TestRotation:
    def test_angle_examples(self):
        assert rotation_angle(1, 3) == pytest.approx(0.0, abs=1e-15)
        assert rotation_angle(1, 5) == pytest.approx(math.pi / 4)
        assert rotation_angle(1, 9) == pytest.approx(math.pi / 2 - math.pi / 8)

    def test_rotation_puts_cusp_on_vertical_axis(self):
        # after the rotation the cusp tangent is vertical, so x'(t) has a
        # double zero at the cusp parameter
        spec = rotate(TwoTermSpec(1, 5, -2.0 / 3.0), rotation_angle(1, 5))
        assert abs(derivative(spec, 1.0 / 8.0).x) < 1e-12

    def test_slope_poles_return_none(self):
        assert rotated_param_deriv(1, 3, 0.25) is None
        assert rotated_param_deriv(1, 5, 0.125) is None

    def test_slope_zero_crossing(self):
        assert rotated_param_deriv(1, 3, 0.125) == pytest.approx(0.0, abs=1e-12)

    def test_matches_cotangent_form(self):
        for k in range(1, 40):
            t = k / 40.0
            if min(abs(t - p / 4.0) for p in range(5)) < 0.02:
                continue
            assert rotated_param_deriv(1, 3, t) == pytest.approx(
                -1.0 / math.tan(4.0 * math.pi * t), abs=1e-9
            )

    def test_matches_measured_slope_of_rotated_curve(self):
        spec = rotate(TwoTermSpec(1, 5, -2.0 / 3.0), rotation_angle(1, 5))
        for t in (0.03, 0.2, 0.31, 0.55, 0.77):
            measured = parametric_derivative(spec, t)
            assert measured == pytest.approx(rotated_param_deriv(1, 5, t), abs=1e-9)

    @pytest.mark.parametrize("a,b", [(2, 5), (3, 5), (2, 7), (3, 8), (3, 20), (4, 9)])
    def test_first_cusp_lands_on_the_vertical_axis_for_every_a(self, a, b):
        # cusp 0 lies at the angle pi*a/(b-a), not pi/(b-a)
        spec = rotate(TwoTermSpec(a, b, (a - b) / (a + b)), rotation_angle(a, b))
        cusp = evaluate(spec, 1.0 / (2 * (b - a)))
        assert abs(cusp.x) < 1e-12 and cusp.y > 0.0

    @pytest.mark.parametrize("a,b", [(2, 5), (3, 5), (2, 7), (3, 8)])
    def test_slope_matches_the_rotated_curve_for_every_a(self, a, b):
        spec = rotate(TwoTermSpec(a, b, (a - b) / (a + b)), rotation_angle(a, b))
        for t in (0.013, 0.03, 0.2, 0.31, 0.55, 0.77):
            want = rotated_param_deriv(a, b, t)
            assert parametric_derivative(spec, t) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(2, 5), (3, 8), (3, 20)])
    def test_the_first_cusp_is_a_slope_pole_for_every_a(self, a, b):
        assert rotated_param_deriv(a, b, 1.0 / (2 * (b - a))) is None


class TestLoopBirth:
    def test_counts_around_the_transition(self):
        assert loop_birth_count(1, 3, -0.495, 0.25, 0.03) == 3
        assert loop_birth_count(1, 3, -0.5, 0.25, 0.03) == 1
        assert loop_birth_count(1, 3, -0.505, 0.25, 0.03) == 1

    @pytest.mark.parametrize("b", [2, 3, 4, 5, 6])
    def test_pattern_across_frequencies(self, b):
        s_bar = (1 - b) / (1 + b)
        pattern = tuple(loop_birth_count(1, b, s_bar + ds) for ds in (-0.005, 0.0, 0.005))
        assert pattern == (1, 1, 3)

    @pytest.mark.parametrize("a,b,eps", [(2, 5, 1e-3), (2, 7, 1e-3), (3, 20, 1e-4)])
    def test_loop_is_born_above_the_cusp_weight_for_every_a(self, a, b, eps):
        s_bar = (a - b) / (a + b)
        assert loop_birth_count(a, b, s_bar + eps) == 3
        assert loop_birth_count(a, b, s_bar - eps) == 1

    def test_window_spanning_two_cusps_is_refused(self):
        with pytest.raises(WindowTooWide):
            loop_birth_count(1, 3, -0.5, t_center=0.5, half_width=0.3)


class TestUndefinedDerivativeSet:
    def test_small_weight_has_only_the_fixed_pair(self):
        assert undefined_derivative_set(1, 3, -0.75) == [0.0, 0.5]

    def test_transition_weight_collapses_to_quarters(self):
        assert undefined_derivative_set(1, 3, -0.5) == [0.0, 0.25, 0.5, 0.75]

    def test_degenerate_weight_hits_sixths(self):
        values = undefined_derivative_set(1, 3, 1.0)
        sixths = [0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0]
        assert values == pytest.approx(sixths, abs=1e-12)

    @pytest.mark.parametrize("s,count", [(-0.9, 2), (-0.5, 4), (0.0, 6), (0.7, 6)])
    def test_cardinality_steps_with_weight(self, s, count):
        assert len(undefined_derivative_set(1, 3, s)) == count

    def test_values_are_slope_poles(self):
        for s in (-0.3, 0.0, 0.4):
            spec = TwoTermSpec(1, 3, s)
            for v in undefined_derivative_set(1, 3, s):
                assert parametric_derivative(spec, v) is None

    def test_numeric_fallback_pair(self):
        values = undefined_derivative_set(1, 2, 0.4)
        assert len(values) == 4
        assert 0.0 in values and 0.5 in values
        spec = TwoTermSpec(1, 2, 0.4)
        for v in values:
            assert abs(derivative(spec, v).x) < 1e-8


def reference_x_prime_zeros(spec: TwoTermSpec) -> list[float]:
    """One weight's search through eval_complex: the bisection that the
    batched kernel replaced, kept as its reference."""
    n = 256 * (spec.a + spec.b)

    def xp(t):
        return eval_complex(spec, t, order=1).real

    t = np.arange(n + 1) / n
    v = xp(t)
    bracket = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    lo, hi, v_lo = t[bracket], t[bracket + 1], v[bracket]
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        v_mid = xp(mid)
        up = live & (np.sign(v_mid) == np.sign(v_lo))
        lo, v_lo = np.where(up, mid, lo), np.where(up, v_mid, v_lo)
        hi = np.where(live & ~up, mid, hi)
    ends = np.where(np.abs(xp(lo)) <= np.abs(xp(hi)), lo, hi)
    roots = sorted(t[:-1][v[:-1] == 0.0].tolist() + ends.tolist())
    out: list[float] = []
    for r in roots:
        r %= 1.0
        if all(min(abs(r - q) % 1.0, 1.0 - abs(r - q) % 1.0) > 1e-9 for q in out):
            out.append(r)
    return sorted(out)


# the weights render_singularity_diagram draws
DIAGRAM_WEIGHTS = [-1.0 + 2.0 * i / 200 for i in range(201)]


def one_three_set(s: float) -> list[float]:
    """The zeros of x' for (1, 3) in closed form: t = 0 and 1/2, plus the
    four solutions of 4*pi*t = +-arccos((-2-s)/(3(1+s))) mod pi once
    s >= -1/2, which coincide in pairs at s = -1/2."""
    values = [0.0, 0.5]
    if s >= -0.5:
        tbar = math.acos((-2.0 - s) / (3.0 * (1.0 + s))) / (4.0 * math.pi)
        for v in (tbar, 0.5 - tbar, 0.5 + tbar, 1.0 - tbar):
            v %= 1.0
            if all(abs(v - w) > 1e-12 for w in values):
                values.append(v)
    return sorted(values)


def exact_weight(s: float) -> Fraction:
    # the rational a float weight stands for: a level within rounding of a
    # critical value of R counts as meeting it
    return Fraction(s).limit_denominator(10**6)


def max_x_prime(a: int, b: int, s: float, ts: list[float]) -> float:
    """max |x'(t)| over ts, in units of its scale 2*pi*(|1-s|*a + |1+s|*b)."""
    spec = TwoTermSpec(a, b, s)
    scale = 2.0 * math.pi * (abs(1.0 - s) * a + abs(1.0 + s) * b)
    return float(np.max(np.abs(eval_complex(spec, np.array(ts), order=1).real))) / scale


class TestBatchedXPrimeZeros:
    # (1, 2) and (9, 11) include weights where zeros coalesce
    @pytest.mark.parametrize("a,b", [(2, 5), (3, 4), (3, 5), (4, 5), (1, 2), (9, 11)])
    def test_every_diagram_weight_has_the_exact_count(self, a, b):
        batched = undefined_derivative_sets(a, b, DIAGRAM_WEIGHTS)
        assert [repr(undefined_derivative_set(a, b, s)) for s in DIAGRAM_WEIGHTS] == [
            repr(v) for v in batched
        ]
        for s, got in zip(DIAGRAM_WEIGHTS, batched):
            exact = x_prime_count(a, b, exact_weight(s))
            assert len(got) == exact, s
            reference = reference_x_prime_zeros(TwoTermSpec(a, b, s))
            if len(reference) == exact:
                # the reference bisects a triple zero at t = 1/2 only to 6.2e-7
                tol = 1e-6 if (a, b, round(s, 9)) in ((1, 2, -0.6), (3, 4, -0.28)) else 1e-9
                assert np.max(np.abs(np.subtract(got, reference))) <= tol, s

    def test_one_three_keeps_its_closed_form(self):
        weights = DIAGRAM_WEIGHTS + [-0.75, -0.5, -0.4999999, 0.0, 1.0]
        for s, got in zip(weights, undefined_derivative_sets(1, 3, weights)):
            want = one_three_set(s)
            assert len(got) == len(want), s
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, s

    @pytest.mark.parametrize("a,b", [pair for pair in coprime_pairs(8) if fold_weights(*pair)])
    def test_counts_next_to_every_fold_weight(self, a, b):
        # within 1e-9 of a fold two zeros of x' lie ~3e-5 apart, closer
        # than one cell of a uniform sign scan
        for s0 in fold_weights(a, b):
            for s in [s0 + sign * 10.0**-k for k in (3, 6, 9) for sign in (-1, 1)]:
                ts = undefined_derivative_set(a, b, s)
                assert len(ts) == x_prime_count(a, b, Fraction(s)), s
                assert max_x_prime(a, b, s, ts) < 1e-12

    def test_two_zeros_one_scan_cell_apart(self):
        s = -0.6264917519439482
        ts = undefined_derivative_set(1, 4, s)
        assert len(ts) == x_prime_count(1, 4, Fraction(s)) == 8
        assert max_x_prime(1, 4, s, ts) < 1e-12

    @pytest.mark.parametrize("a,b", [(1, 2), (1, 30), (1, 34), (2, 35), (1, 38)])
    def test_a_triple_zero_at_one_half_is_exact(self, a, b):
        # at s = (a^2-b^2)/(a^2+b^2), e.g. (1, 2, -0.6), x', x'' and x'''
        # all vanish at t = 1/2; rounding s moves g(1/2) by up to
        # eps*(a^2+b^2)/2, which must not split off two zeros next to 1/2
        s = Fraction(a * a - b * b, a * a + b * b)
        ts = undefined_derivative_set(a, b, float(s))
        assert 0.5 in ts and len(ts) == x_prime_count(a, b, s)
        assert undefined_derivative_set(1, 2, -0.6) == [0.0, 0.5]

    @pytest.mark.parametrize("a,b", [(2, 4), (3, 6), (4, 6), (6, 9)])
    def test_a_shared_factor_repeats_the_reduced_zeros(self, a, b):
        g = math.gcd(a, b)
        weights = [-0.9, -0.5, 0.0, 0.3, 0.5, 0.9]
        reduced = undefined_derivative_sets(a // g, b // g, weights)
        for s, got, base in zip(weights, undefined_derivative_sets(a, b, weights), reduced):
            assert len(got) == x_prime_count(a, b, exact_weight(s)) == g * len(base), s
            assert got == sorted(got) and 0.0 <= got[0] and got[-1] < 1.0
            assert got[: len(base)] == [t / g for t in base]
            assert max_x_prime(a, b, s, got) < 1e-12

    @pytest.mark.parametrize("a,b", coprime_pairs(13))
    def test_breakpoints_are_every_turn_of_r(self, a, b):
        # R's critical points are the zeros of
        # W = (b-a) sin 2 pi (a+b) u - (a+b) sin 2 pi (b-a) u, and W / sin 2 pi u
        # is (b-a) U_{a+b-1} - (a+b) U_{b-a-1} at cos 2 pi u
        w = [(b - a) * c for c in chebyshev_u(a + b - 1)]
        for i, c in enumerate(chebyshev_u(b - a - 1)):
            w[i] -= (a + b) * c
        pieces = _monotone_pieces(a, b)
        assert pieces[0] == 0.0 and pieces[-1] == 0.5 and np.all(np.diff(pieces) > 0.0)
        assert len(pieces) == 2 + (a - 1) + roots_inside(w)
        assert not pieces.flags.writeable

    def test_no_weights_give_no_sets(self):
        assert undefined_derivative_sets(2, 5, []) == []

    @pytest.mark.parametrize("weights", [[0.0, 1.5], [float("nan")]])
    def test_every_weight_is_checked(self, weights):
        with pytest.raises(ValueError):
            undefined_derivative_sets(2, 5, weights)
