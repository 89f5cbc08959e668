import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epicusp import (
    CurveSpec,
    IntersectionRecord,
    TwoTermSpec,
    grid_intersection_check,
    self_intersections,
    verify_symmetry,
)
from epicusp.curve import eval_complex
from epicusp.geometry import _circ, _close_pairs, _merge_duplicates


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

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.floats(min_value=-0.95, max_value=0.95, allow_nan=False))
    @settings(deadline=None, max_examples=40)
    def test_identities_hold_for_coprime_pairs(self, a, d, s):
        assume(math.gcd(a, a + d) == 1)
        report = verify_symmetry(TwoTermSpec(a, a + d, s), n=256)
        assert report.rotation_deviation < 1e-12
        assert report.reflection_deviation < 1e-12


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

    def test_generic_spec_matches_two_term_route(self):
        generic = CurveSpec.from_pairs([(1, 1.0), (4, 1.0)])
        a = [(r.t1, r.t2) for r in self_intersections(generic)]
        b = [(r.t1, r.t2) for r in self_intersections(TwoTermSpec(1, 4, 0.0))]
        assert len(a) == len(b)
        for (u1, u2), (v1, v2) in zip(a, b):
            assert u1 == pytest.approx(v1, abs=1e-9)
            assert u2 == pytest.approx(v2, abs=1e-9)

    def test_records_are_genuine_coincidences(self):
        from epicusp import evaluate

        spec = TwoTermSpec(2, 5, 0.0)
        for r in self_intersections(spec):
            p, q = evaluate(spec, r.t1), evaluate(spec, r.t2)
            assert math.hypot(p.x - q.x, p.y - q.y) < 1e-9 * 2.0

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

    def test_rejects_coarse_grids(self):
        with pytest.raises(ValueError):
            self_intersections(TwoTermSpec(1, 3, 0.0), t_grid=128)


class TestClosePairs:
    @pytest.mark.parametrize(
        "spec",
        [
            TwoTermSpec(1, 3, 0.0),
            TwoTermSpec(2, 7, 0.25),
            TwoTermSpec(5, 13, -0.6),
            CurveSpec.from_pairs([(-2, 0.7), (3, 1.0), (5, 0.3 + 0.2j)]),
        ],
    )
    @pytest.mark.parametrize("radius_in_segments", [1.0, 3.5])
    def test_matches_the_brute_force_distance_matrix(self, spec, radius_in_segments):
        n = 512
        z = eval_complex(spec, np.arange(n) / n)
        r = radius_in_segments * float(np.max(np.abs(np.diff(z))))
        pts = np.column_stack([z.real, z.imag])
        dx = pts[:, None, 0] - pts[None, :, 0]
        dy = pts[:, None, 1] - pts[None, :, 1]
        near = np.triu(dx * dx + dy * dy <= r * r, k=1)
        expected = {tuple(p) for p in np.argwhere(near).tolist()}
        got = _close_pairs(pts, r).tolist()
        assert len(got) == len(expected)
        assert {tuple(p) for p in got} == expected


class TestGridCheck:
    @pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 3)])
    def test_small_pairs_match_the_oracle(self, a, b):
        assert grid_intersection_check(a, b)

    def test_common_factor_is_rejected(self):
        with pytest.raises(ValueError):
            grid_intersection_check(2, 4)

    def test_order_is_enforced(self):
        with pytest.raises(ValueError):
            grid_intersection_check(3, 2)


def reference_merge(hits):
    """The quadratic cluster loop that _merge_duplicates replaced, kept as
    its reference: every hit is compared with every kept record."""
    hits = sorted(hits)
    kept = []
    for t1, t2, resid in hits:
        merged = False
        for k, (u1, u2, ur) in enumerate(kept):
            if _circ(t1, u1) < 1e-4 and _circ(t2, u2) < 1e-4:
                if resid < ur:
                    kept[k] = (t1, t2, resid)
                merged = True
                break
        if not merged:
            kept.append((t1, t2, resid))
    kept.sort()
    return kept


# parameters at the ends of [0, 1], where clusters meet across the wrap
EDGES = st.sampled_from([0.0, 2e-5, 9e-5, 1.5e-4, 0.5, 1.0 - 1.5e-4, 1.0 - 9e-5, 1.0 - 2e-5, 1.0])


@st.composite
def clustered_hits(draw):
    """(t1, t2, residual) hits in clusters of spread ~1e-4 on [0, 1]."""
    centre = EDGES | st.floats(0.0, 1.0)
    centres = draw(st.lists(st.tuples(centre, centre), min_size=1, max_size=4))
    jitter = st.floats(-3e-4, 3e-4)
    residual = st.sampled_from([0.0, 1e-12, 1e-10]) | st.floats(0.0, 1e-9)
    hits = []
    for _ in range(draw(st.integers(1, 40))):
        c1, c2 = draw(st.sampled_from(centres))
        t1 = min(max(c1 + draw(jitter), 0.0), 1.0)
        t2 = min(max(c2 + draw(jitter), 0.0), 1.0)
        hits.append((min(t1, t2), max(t1, t2), draw(residual)))
    return hits


class TestMergeDuplicates:
    @settings(max_examples=200, deadline=None)
    @given(clustered_hits())
    def test_sweep_equals_the_quadratic_loop(self, hits):
        assert repr(_merge_duplicates(hits)) == repr(reference_merge(hits))

    def test_clusters_meet_across_the_wrap(self):
        # the last hit lies within 1e-4 of the first across t = 1 and has
        # the smaller residual, so it replaces it
        hits = [(2e-5, 1.0 - 1e-5, 1e-12), (0.5, 0.6, 1e-12), (1.0 - 3e-5, 1.0 - 1e-6, 1e-13)]
        assert _merge_duplicates(hits) == reference_merge(hits) == [
            (0.5, 0.6, 1e-12),
            (1.0 - 3e-5, 1.0 - 1e-6, 1e-13),
        ]

    def test_the_first_kept_match_wins(self):
        # the third hit moves record 0 past record 1 in t1; the fourth hit
        # lies within 1e-4 of both and merges into record 0, kept first
        hits = [(0.1, 0.2, 1e-10), (0.10005, 0.2002, 1e-10), (0.10008, 0.20005, 1e-11), (0.1001, 0.20013, 1e-13)]
        assert _merge_duplicates(hits) == reference_merge(hits) == [
            (0.10005, 0.2002, 1e-10),
            (0.1001, 0.20013, 1e-13),
        ]

    def test_a_replaced_record_is_matched_at_its_new_place(self):
        # each hit moves the record by less than 1e-4; the last one lies
        # 2.5e-4 past where the record started
        hits = [(0.1, 0.2, 1e-10), (0.10009, 0.2, 1e-11), (0.10018, 0.2, 1e-12), (0.10025, 0.2, 1e-13)]
        assert _merge_duplicates(hits) == reference_merge(hits) == [(0.10025, 0.2, 1e-13)]
