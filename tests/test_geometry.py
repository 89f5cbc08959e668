import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import per_item
from epicusp import (
    IntersectionRecord,
    TwoTermSpec,
    grid_intersection_check,
    self_intersections,
    verify_symmetry,
)
from epicusp import curve, geometry
from epicusp.curve import MAX_GRID_SAMPLES, eval_complex
from epicusp.geometry import SymmetryReport
from exact_counts import (
    chebyshev_u,
    coprime_pairs,
    intersection_count,
    poly_value,
    tangency_weights,
)


@pytest.fixture
def broken_terms(monkeypatch):
    """The term helper gives the broken specs below their own terms."""
    true_terms = curve._terms

    def terms(spec):
        return spec.broken_terms() if isinstance(spec, Broken) else true_terms(spec)

    monkeypatch.setattr(curve, "_terms", terms)


@pytest.mark.usefixtures("broken_terms")
class TestVerifySymmetry:
    def test_coprime_pair_verifies(self):
        report = verify_symmetry(TwoTermSpec(1, 3, 0.4))
        assert report.verified
        assert report.claimed_order == 2
        assert not report.degenerate

    def test_deviations_are_tiny(self):
        report = verify_symmetry(TwoTermSpec(2, 5, -0.7))
        assert report.rotation_deviation < 1e-12
        assert report.reflection_deviation < 1e-12

    def test_common_factor_blocks_verification(self):
        report = verify_symmetry(TwoTermSpec(2, 4, 0.5))
        assert not report.coprime
        assert not report.verified

    def test_degenerate_weight_is_flagged(self):
        report = verify_symmetry(TwoTermSpec(1, 3, 1.0))
        assert report.degenerate
        assert report.verified  # the circle still has the claimed symmetry

    def test_rejects_small_sample_counts(self):
        with pytest.raises(ValueError):
            verify_symmetry(TwoTermSpec(1, 3, 0.0), n=99)

    def test_rejects_a_grid_past_the_largest_before_sampling(self, monkeypatch):
        def no_samples(spec, d, n):
            raise AssertionError(f"sampled {n} points")

        monkeypatch.setattr(geometry, "_weighted_samples", no_samples)
        with pytest.raises(ValueError, match="need n <="):
            verify_symmetry(TwoTermSpec(1, 3, 0.5), n=MAX_GRID_SAMPLES + 1)

    @pytest.mark.parametrize("n", [1e4, 1024.0, 100.5, True, "1024"])
    def test_a_count_that_is_not_an_integer_is_refused_before_sampling(self, monkeypatch, n):
        def no_samples(spec, d, n):
            raise AssertionError(f"sampled {n} points")

        monkeypatch.setattr(geometry, "_weighted_samples", no_samples)
        with pytest.raises(ValueError, match="n must be an integer"):
            verify_symmetry(TwoTermSpec(1, 3, 0.5), n=n)

    def test_a_numpy_integer_count_is_accepted(self):
        spec = TwoTermSpec(2, 5, 0.3)
        assert verify_symmetry(spec, n=np.int64(1000)) == verify_symmetry(spec, n=1000)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.floats(min_value=-0.95, max_value=0.95, allow_nan=False))
    @settings(deadline=None, max_examples=40)
    def test_identities_hold_for_coprime_pairs(self, a, d, s):
        assume(math.gcd(a, a + d) == 1)
        report = verify_symmetry(TwoTermSpec(a, a + d, s), n=256)
        assert report.rotation_deviation < 1e-12
        assert report.reflection_deviation < 1e-12

    def test_complex_weights_break_only_the_reflection(self):
        report = verify_symmetry(ComplexWeights(2, 5, 0.3))
        assert report.rotation_deviation < 1e-12
        assert report.reflection_deviation > 0.1
        assert not report.verified

    def test_a_wrong_frequency_breaks_the_rotation(self):
        report = verify_symmetry(WrongFrequency(2, 5, 0.3))
        assert report.rotation_deviation > 0.1
        assert report.reflection_deviation < 1e-12
        assert not report.verified


def advanced_samples(spec: TwoTermSpec, n: int) -> np.ndarray:
    """gamma(j/n + 1/(b-a)) item by item, each term at its exact phase.

    With d = b-a, f*(j/n + 1/d) is ((f*j mod n)*d + (f mod d)*n) mod n*d
    over n*d; each sample's angle is 2*pi times that quotient of Python
    ints, correctly rounded, and the terms are weighted and summed into
    zeros, as eval_complex does.  The terms are looked up at call time, so
    that a test can replace them.
    """
    d = spec.b - spec.a
    q = n * d
    out = np.zeros(n, dtype=complex)
    for f, w in curve._terms(spec):
        angle = np.array([2.0 * math.pi * ((f * j % n * d + f % d * n) % q / q) for j in range(n)])
        e = np.empty(n, dtype=complex)
        np.cos(angle, out=e.real)
        np.sin(angle, out=e.imag)
        np.multiply(w, e, out=e)
        out += e
    return out


def reference_verify_symmetry(spec: TwoTermSpec, n: int) -> SymmetryReport:
    """verify_symmetry on whole arrays: every sample of each identity at once.

    The grid samples and their mirrors are gathered term by term at j and
    -j mod n (per_item.grid_samples), not read from eval_grid, and the
    advanced samples are built item by item (advanced_samples), not
    gathered from a table.
    """
    j = np.arange(n)
    z, z_mirror = per_item.grid_samples(spec, j, n), per_item.grid_samples(spec, -j, n)
    shift = advanced_samples(spec, n)
    rot = np.exp(2j * np.pi * spec.a / (spec.b - spec.a)) * z
    return SymmetryReport(
        claimed_order=spec.b - spec.a,
        rotation_deviation=float(np.max(np.abs(shift - rot))),
        reflection_deviation=float(np.max(np.abs(z_mirror - np.conj(z)))),
        coprime=math.gcd(spec.a, spec.b) == 1,
        degenerate=abs(spec.s) == 1.0,
    )


# one block, a partial last block, blocks of 2048 or 4096 that end at n/2 or
# just past it, and sizes at and above the cache limit
BLOCK_EDGE_SIZES = [100, 101, 2047, 2048, 2049, 4094, 4095, 4096, 4097, 8190, 8191, 8192, 8193,
                    10000, 65536, 65537]


@pytest.mark.usefixtures("broken_terms")
class TestSymmetryBlocks:
    """verify_symmetry in blocks gives the bits of the whole-array form."""

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
           st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
           st.sampled_from(BLOCK_EDGE_SIZES))
    @settings(deadline=None, max_examples=80)
    def test_any_pair_and_weight(self, a, d, s, n):
        spec = TwoTermSpec(a, a + d, s)
        assert repr(verify_symmetry(spec, n)) == repr(reference_verify_symmetry(spec, n))

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("broken", ["ComplexWeights", "WrongFrequency", "OppositeTurns"])
    def test_broken_identities(self, broken, n):
        cls = {"ComplexWeights": ComplexWeights, "WrongFrequency": WrongFrequency,
               "OppositeTurns": OppositeTurns}[broken]
        for spec in (cls(3, 7, 0.4), cls(1, 2, -0.2)):
            assert repr(verify_symmetry(spec, n)) == repr(reference_verify_symmetry(spec, n))

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(geometry, "_SYMMETRY_BLOCK", block)
        for spec in (TwoTermSpec(2, 5, -0.3), ComplexWeights(1, 4, 0.6), WrongFrequency(3, 4, 0.1)):
            for n in (100, 101, 128, 131):
                assert repr(verify_symmetry(spec, n)) == repr(reference_verify_symmetry(spec, n))


@pytest.fixture
def table_builds(monkeypatch):
    """The (r, d, n) of every table curve._roots builds or finds kept, in order."""
    builds, build = [], curve._roots

    def counted(r, d, n):
        builds.append((r, d, n))
        return build(r, d, n)

    monkeypatch.setattr(curve, "_roots", counted)
    return builds


@pytest.mark.usefixtures("broken_terms")
class TestOneTablePerClass:
    """Above the cache limit a call builds one table per class f mod d among its terms."""

    def test_the_terms_of_a_class_share_its_table(self, table_builds):
        n = curve._TABLE_CACHE_LIMIT + 1
        verify_symmetry(TwoTermSpec(2, 5, 0.3), n)
        # the grid class 0 mod 1, then the advanced class 2 mod 3 of a and b
        assert table_builds == [(0, 1, n), (2, 3, n)]

    def test_terms_of_two_classes_build_two_tables(self, table_builds):
        # b+1 = 6 lies in the class 0 mod 3, a = 2 in the class 2
        n = curve._TABLE_CACHE_LIMIT + 1
        spec = WrongFrequency(2, 5, 0.3)
        report = verify_symmetry(spec, n)
        assert table_builds == [(0, 1, n), (2, 3, n), (0, 3, n)]
        assert repr(report) == repr(reference_verify_symmetry(spec, n))

    def test_eval_grid_gathers_both_terms_from_one_table(self, table_builds):
        n = curve._TABLE_CACHE_LIMIT + 1
        curve.eval_grid(TwoTermSpec(2, 5, 0.3), n)
        assert table_builds == [(0, 1, n)]


class Broken(TwoTermSpec):
    """A spec whose broken_terms, under the broken_terms fixture, break an identity."""


class ComplexWeights(Broken):
    """Both weights turned by e^{0.1i}: a rotated image, no longer mirror-symmetric."""

    def broken_terms(self):
        turn = cmath.exp(0.1j)
        return [(self.a, (1.0 - self.s) * turn), (self.b, (1.0 + self.s) * turn)]


class OppositeTurns(Broken):
    """Weights turned by e^{0.1i} and e^{-0.1i}.

    The reflection deviation is 2|Im w_a + Im w_b e^{-2 pi i (b-a) t}|, so
    for b - a = 1 it is largest at t = 1/2 alone, the sample that is its
    own mirror.
    """

    def broken_terms(self):
        return [(self.a, (1.0 - self.s) * cmath.exp(0.1j)), (self.b, (1.0 + self.s) * cmath.exp(-0.1j))]


class WrongFrequency(Broken):
    """Frequency b+1 in place of b, which breaks the order b-a rotation."""

    def broken_terms(self):
        return [(self.a, complex(1.0 - self.s)), (self.b + 1, complex(1.0 + self.s))]


class TestSymmetryGroupOrder:
    """The modulus behind the proof, in the module docstring, that the group is D_{b-a}."""

    @pytest.mark.parametrize("a,b", coprime_pairs(12))
    @pytest.mark.parametrize("s", [-0.9, -0.3, 0.0, 0.5, 0.95])
    def test_the_modulus_reaches_two_only_at_the_polygon(self, a, b, s):
        d = b - a
        t = np.arange(64 * d) / (64 * d)
        z = eval_complex(TwoTermSpec(a, b, s), t)
        # |gamma|^2 = 2(1 + s^2) + 2(1 - s^2) cos(2 pi (b-a) t)
        modulus = 2 * (1 + s * s) + 2 * (1 - s * s) * np.cos(2 * np.pi * d * t)
        assert np.max(np.abs(np.abs(z) ** 2 - modulus)) < 1e-12
        # the maxima are the samples t = k/(b-a) alone, at 2 exp(2 pi i a k/(b-a)),
        # which are b-a distinct points
        peaks = np.flatnonzero(np.abs(z) > 2 - 1e-9)
        assert peaks.tolist() == (64 * np.arange(d)).tolist()
        k = np.arange(d)
        assert np.max(np.abs(z[peaks] - 2 * np.exp(2j * np.pi * a * k / d))) < 1e-12
        assert sorted(a * k % d) == k.tolist()


def record_near(records: list[IntersectionRecord], t1: float, t2: float, tol: float = 1e-6):
    for r in records:
        if abs(r.t1 - t1) < tol and abs(r.t2 - t2) < tol:
            return r
    return None


class TestSelfIntersections:
    def test_balanced_curve_has_three_crossings(self):
        records = self_intersections(TwoTermSpec(1, 3, 0.0))
        assert len(records) == 3
        assert all(r.t1 < r.t2 for r in records)
        assert [r.t1 for r in records] == sorted(r.t1 for r in records)

    def test_origin_contact_is_found_exactly(self):
        records = self_intersections(TwoTermSpec(1, 3, 0.0))
        hit = record_near(records, 0.25, 0.75)
        assert hit is not None
        assert hit.point.norm() < 1e-9
        assert hit.on_rational_grid
        assert hit.grid_index_pair == (2, 6)

    def test_balanced_records_sit_on_the_eighths_grid(self):
        for r in self_intersections(TwoTermSpec(1, 3, 0.0)):
            assert r.on_rational_grid
            j1, j2 = r.grid_index_pair
            assert abs(r.t1 - j1 / 8.0) < 1e-9
            assert abs(r.t2 - j2 / 8.0) < 1e-9

    def test_records_are_genuine_coincidences(self):
        spec = TwoTermSpec(2, 5, 0.0)
        for r in self_intersections(spec):
            assert abs(eval_complex(spec, r.t1) - eval_complex(spec, r.t2)) < 1e-9 * 2.0

    def test_loop_appears_past_the_transition_weight(self):
        # crossing s through -1/2 births a small loop near t = 1/4
        born = self_intersections(TwoTermSpec(1, 3, -0.495))
        flat = self_intersections(TwoTermSpec(1, 3, -0.505))

        def in_window(r):
            return 0.2 < r.t1 < 0.3 and 0.2 < r.t2 < 0.3

        assert sum(1 for r in born if in_window(r)) == 1
        assert sum(1 for r in flat if in_window(r)) == 0

    def test_intersection_set_shares_the_curve_symmetry(self):
        spec = TwoTermSpec(2, 5, 0.0)
        records = self_intersections(spec)
        points = [r.point.as_complex() for r in records]
        rot = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        for p in points:
            assert any(abs(p * rot - q) < 1e-6 for q in points)

    def test_off_grid_weight_loses_the_grid_flag(self):
        records = self_intersections(TwoTermSpec(1, 4, 0.2))
        assert records
        assert all(not r.on_rational_grid for r in records)
        assert all(r.grid_index_pair is None for r in records)

    @pytest.mark.parametrize(
        "a,b,s", [(2, 4, 0.3), (3, 9, 0.0), (1, 3, 1.0), (2, 5, 1.0), (2, 5, -1.0), (3, 4, -1.0)]
    )
    def test_a_continuum_raises(self, a, b, s):
        # a shared factor, s = 1 or s = -1 with a >= 2: the curve retraces itself
        with pytest.raises(ValueError, match="continuum"):
            self_intersections(TwoTermSpec(a, b, s))

    @pytest.mark.parametrize("b", [2, 3, 7])
    def test_the_simple_circle_has_none(self, b):
        assert self_intersections(TwoTermSpec(1, b, -1.0)) == []

    def test_needs_a_two_term_spec(self):
        with pytest.raises(TypeError):
            self_intersections((1, 4, 0.0))

    def test_a_pair_just_across_t_zero_stays_below_one(self, monkeypatch):
        # for (1, 3) the odd centre is 1/4; a half gap one float above it
        # puts t1 an ulp below 0, which wraps to 1 - 2**-54, a float 1.0
        u = np.nextafter(0.25, 1.0)
        monkeypatch.setattr(geometry, "_half_gap_roots", lambda a, b, s: (np.array([]), np.array([u])))
        (r,) = self_intersections(TwoTermSpec(1, 3, 0.3))
        assert (r.t1, r.t2) == (0.0, 0.25 + u)

    @pytest.mark.parametrize(
        "a,b,s,exact,count",
        [(2, 3, -0.2, Fraction(-1, 5), 1), (1, 3, -0.49999, -0.49999, 2), (1, 3, -0.50001, -0.50001, 0)],
    )
    def test_loops_at_and_next_to_the_cusp_weight(self, a, b, s, exact, count):
        # the float nearest the cusp weight -1/5 of (2, 3) stands for it, and
        # the cusp itself is no intersection; just past the cusp weight of
        # (1, 3) the two new loops are tiny but real
        assert len(self_intersections(TwoTermSpec(a, b, s))) == count
        assert intersection_count(a, b, exact) == count


class TestGridCheck:
    @pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 3)])
    def test_small_pairs_match_the_oracle(self, a, b):
        assert grid_intersection_check(a, b)

    def test_every_pair_up_to_thirty_passes_as_the_pair_loops_do(self):
        pairs = coprime_pairs(30)
        assert len(pairs) == 277
        for a, b in pairs:
            assert grid_intersection_check(a, b), (a, b)
            assert per_item.grid_intersection_check(a, b), (a, b)

    @pytest.mark.parametrize("a,b", [(1, 3), (2, 5), (3, 8), (4, 9)])
    def test_a_dropped_grid_record_fails(self, monkeypatch, a, b):
        records = self_intersections(TwoTermSpec(a, b, 0.0))
        i = next(i for i, r in enumerate(records) if r.on_rational_grid)
        monkeypatch.setattr(geometry, "self_intersections", lambda spec: records[:i] + records[i + 1 :])
        assert not grid_intersection_check(a, b)

    # a+b odd puts origin passages off the grid
    @pytest.mark.parametrize(
        "a,b,on_grid",
        [(1, 3, True), (2, 5, True), (3, 8, True), (2, 5, False), (3, 8, False), (4, 9, False)],
    )
    def test_a_parameter_one_ulp_off_fails(self, monkeypatch, a, b, on_grid):
        records = self_intersections(TwoTermSpec(a, b, 0.0))
        i = next(i for i, r in enumerate(records) if r.on_rational_grid == on_grid)
        moved = list(records)
        moved[i] = records[i]._replace(t1=float(np.nextafter(records[i].t1, 1.0)))
        monkeypatch.setattr(geometry, "self_intersections", lambda spec: moved)
        assert not grid_intersection_check(a, b)
        # a match within 1e-9, as the pair loops make, accepts the moved record
        assert per_item.grid_intersection_check(a, b)

    @pytest.mark.parametrize("a,b", [(1, 3), (2, 5), (3, 8), (4, 9)])
    @pytest.mark.parametrize("extra", ["neither", "origin and grid", "one origin passage twice"])
    def test_an_extra_off_grid_record_fails(self, monkeypatch, a, b, extra):
        records = self_intersections(TwoTermSpec(a, b, 0.0))
        h = float(Fraction(1, 2 * (b - a)))  # the first origin passage
        t1, t2 = {"neither": (0.2, 0.7), "origin and grid": (h, 1 - 1 / (b * b - a * a)),
                  "one origin passage twice": (h, h)}[extra]
        extra = IntersectionRecord(t1, t2, records[0].point, False, None)
        monkeypatch.setattr(geometry, "self_intersections", lambda spec: records + [extra])
        assert not grid_intersection_check(a, b)

    def test_common_factor_is_rejected(self):
        with pytest.raises(ValueError):
            grid_intersection_check(2, 4)

    def test_order_is_enforced(self):
        with pytest.raises(ValueError):
            grid_intersection_check(3, 2)


def check_records(spec: TwoTermSpec, records: list[IntersectionRecord]) -> None:
    """Ordered parameters in [0, 1), genuine meetings, point = gamma(t1)."""
    assert all(0.0 <= r.t1 < r.t2 < 1.0 for r in records)
    t1 = np.array([r.t1 for r in records])
    t2 = np.array([r.t2 for r in records])
    z1, z2 = eval_complex(spec, t1), eval_complex(spec, t2)
    scale = 2.0  # |1 - s| + |1 + s|
    assert np.all(np.abs(z1 - z2) <= 1e-9 * scale)
    points = np.array([r.point.as_complex() for r in records], dtype=complex)
    assert np.all(np.abs(points - z1) <= 1e-9 * scale)


def oracle_weights(a: int, b: int) -> list[tuple[float, Fraction]]:
    """(weight passed in, exact weight of the answer): s = 0, +-1e-6, the cusp
    weight, next to it, near +-1 and two random ones.  The float nearest
    the cusp weight stands for the cusp weight itself."""
    s_bar = Fraction(a - b, a + b)
    near = [float(s_bar) + d for d in (1e-4, -1e-4, 1e-6)]
    rng = random.Random(100 * a + b)
    floats = [0.0, 1e-6, -1e-6, *near, 0.99, -0.99, 0.999999, rng.uniform(-1, 1), rng.uniform(-1, 1)]
    return [(float(s_bar), s_bar)] + [(s, Fraction(s)) for s in floats]


COPRIME_12 = coprime_pairs(12)
COPRIME_40 = coprime_pairs(40)


class TestExactOracles:
    def test_chebyshev_u(self):
        # U_3 = 8x^3 - 4x, and U_{k-1}(1) = k
        assert chebyshev_u(3) == [0, -4, 0, 8]
        assert all(poly_value(chebyshev_u(k - 1), 1) == k for k in range(1, 9))

    def test_the_sturm_count_of_one_three(self):
        # (1, 3, 0) meets itself three times, at the eighths
        assert intersection_count(1, 3, 0) == 3

    @pytest.mark.parametrize("a,b", COPRIME_12)
    def test_counts_equal_the_sturm_count(self, a, b):
        for s, exact in oracle_weights(a, b):
            spec = TwoTermSpec(a, b, s)
            records = self_intersections(spec)
            assert len(records) == intersection_count(a, b, exact), s
            check_records(spec, records)

    @pytest.mark.parametrize("a,b", [pair for pair in coprime_pairs(8) if tangency_weights(*pair)])
    def test_counts_next_to_every_tangency_weight(self, a, b):
        # within 1e-9 of a weight where g has a double root two roots of g
        # lie ~3e-5 apart, closer than one cell of a uniform sign scan
        for s0 in tangency_weights(a, b):
            for s in [s0 + sign * 10.0**-k for k in (3, 6, 9) for sign in (-1, 1)]:
                spec = TwoTermSpec(a, b, s)
                records = self_intersections(spec)
                assert len(records) == intersection_count(a, b, Fraction(s)), s
                check_records(spec, records)

    @pytest.mark.parametrize("b", [265, 282, 286])
    def test_no_loop_at_the_cusp_weight_of_a_high_frequency(self, b):
        # for a = 1 and s <= (1-b)/(1+b) the curve is simple; rounding that
        # weight moves g_-(0) by up to eps*b/2, which must not give birth to
        # b - 1 tiny loops
        assert self_intersections(TwoTermSpec(1, b, float(Fraction(1 - b, 1 + b)))) == []

    def test_two_loops_one_scan_cell_apart(self):
        # two roots of g_+ lie within 1/(256(a+b)) of each other here
        s = -0.178659859731647
        records = self_intersections(TwoTermSpec(1, 6, s))
        assert len(records) == intersection_count(1, 6, Fraction(s)) == 15
        check_records(TwoTermSpec(1, 6, s), records)

    def test_the_kernel_finds_the_balanced_roots(self):
        # self_intersections takes s = 0 from integers, so this is where the
        # level-set kernel meets exact roots: the rationals of the module
        # docstring's factorisation, all found, none more than 16 ulps off
        # (10 is the worst over these pairs)
        assert len(COPRIME_40) == 489
        for a, b in COPRIME_40:
            for got, exact in zip(geometry._half_gap_roots(a, b, 0.0), per_item.balanced_roots(a, b)):
                want = np.array([float(u) for u in exact])
                assert len(got) == len(want), (a, b)
                assert np.all(np.abs(got - want) <= 16 * np.spacing(want)), (a, b)

    @pytest.mark.parametrize("b", range(2, 41))
    def test_balanced_pairs_equal_the_integer_oracle(self, b):
        # at s = 0 two unit vectors with equal nonzero sums are the same two,
        # so away from the origin the terms swap: a*t1 = b*t2 and b*t1 = a*t2
        # mod 1, which puts t1, t2 on the grid j/n, n = b^2 - a^2, with
        # j2 - j1 a multiple of b - a; the C(b-a, 2) pairs of origin
        # passages t = h/(2(b-a)) = h(a+b)/(2n), h odd, may lie off it.
        # Pairs are kept in units of 1/(2n).
        for a in [a for a, bb in COPRIME_40 if bb == b]:
            n = b * b - a * a
            j1 = np.arange(n)[:, None]
            j2 = j1 + (b - a) * np.arange(1, a + b + 1)[None, :]
            hit = (j2 < n) & ((a * j1 - b * j2) % n == 0) & ((b * j1 - a * j2) % n == 0)
            j1 = np.broadcast_to(j1, j2.shape)
            want = set(zip((2 * j1[hit]).tolist(), (2 * j2[hit]).tolist()))
            origin = [h * (a + b) for h in range(1, 2 * (b - a), 2)]
            want |= {(u, v) for i, u in enumerate(origin) for v in origin[i + 1 :]}

            spec = TwoTermSpec(a, b, 0.0)
            records = self_intersections(spec)
            check_records(spec, records)
            got = [(round(r.t1 * 2 * n), round(r.t2 * 2 * n)) for r in records]
            for r, (k1, k2) in zip(records, got):
                assert abs(r.t1 - k1 / (2 * n)) < 1e-12 and abs(r.t2 - k2 / (2 * n)) < 1e-12
            assert len(set(got)) == len(got)
            assert set(got) == want, (a, b)
