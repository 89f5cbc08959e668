"""The array builders against the outputs built one item at a time (per_item.py)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_item
from epicusp import geometry
from epicusp import (
    TwoTermSpec,
    render_curve,
    render_singularity_diagram,
    self_intersections,
)
from epicusp.render import _interleave, _px
from epicusp.singularity import undefined_derivative_sets
from exact_counts import coprime_pairs

WEIGHTS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
PAIRS = st.integers(1, 14).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 15)))
COPRIME_PAIRS = st.sampled_from(coprime_pairs(20))


CURVES = st.builds(lambda pair, s: TwoTermSpec(*pair, s), PAIRS, WEIGHTS)


class TestRenderCurve:
    @given(st.lists(CURVES, min_size=1, max_size=9), st.sampled_from([2, 3, 255, 256, 1000, 1024]))
    @settings(deadline=None, max_examples=60)
    # the circles of radius 2 at s = -1 and 1 reach furthest
    @example([TwoTermSpec(1, 2, -1.0), TwoTermSpec(3, 7, 1.0)], 1024)
    def test_bytes_match_point_by_point(self, specs, n):
        assert render_curve(specs, n) == per_item.render_curve(specs, n)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)))
    @example([-0.0, -1e-300, -0.0004999, -0.0005, 0.0005, -123.4565, 2.5e-4])
    def test_one_format_gives_the_bytes_of_each_value(self, values):
        # "%.3f" % v and f"{v:.3f}" round alike, -0.000 included
        half = len(values) // 2
        x, y = values[:half], values[half : 2 * half]
        got = " ".join(["%.3f,%.3f"] * half) % _interleave(np.array(x), np.array(y))
        assert got == " ".join(f"{_px(u)},{_px(v)}" for u, v in zip(x, y))

    def test_too_few_samples_are_refused(self):
        with pytest.raises(ValueError):
            render_curve([TwoTermSpec(1, 3, 0.0)], samples=1)


class TestSingularityDiagram:
    @pytest.mark.parametrize("b", range(2, 16))
    def test_bytes_match_point_by_point(self, b):
        # every a < b, the pairs with a shared factor such as (2,4), (3,6)
        # and (6,9) included
        for a in range(1, b):
            assert render_singularity_diagram(a, b) == per_item.render_singularity_diagram(a, b)

    @given(PAIRS, st.lists(WEIGHTS, max_size=12))
    @settings(deadline=None, max_examples=80)
    @example((2, 5), [])
    @example((3, 6), [-1.0, 1.0, -1 / 3])
    def test_sets_match_set_by_set(self, pair, weights):
        got = undefined_derivative_sets(*pair, weights)
        assert repr(got) == repr(per_item.undefined_derivative_sets(*pair, weights))


class TestResultLists:
    @given(COPRIME_PAIRS, st.sampled_from(["zero", "cusp", "any"]), WEIGHTS)
    @settings(deadline=None, max_examples=120)
    # the exact pairs (1/50, 3/50) and (1/50, 47/50) share t1: the first
    # must come first, though a t1 a few ulps below 1/50 would sort ahead
    @example((4, 29), "zero", 0.0)
    def test_records_match_record_by_record(self, pair, where, s):
        a, b = pair
        s = {"zero": 0.0, "cusp": (a - b) / (a + b), "any": s}[where]
        if abs(s) == 1.0:
            s = 0.5 * s
        spec = TwoTermSpec(a, b, s)
        assert repr(self_intersections(spec)) == repr(per_item.self_intersections(spec))

    @pytest.mark.parametrize("b", [15, 29, 40, 60])
    def test_grid_flags_at_the_balanced_weight(self, b):
        for a in range(1, b, 2 if b > 15 else 1):
            if math.gcd(a, b) == 1:
                spec = TwoTermSpec(a, b, 0.0)
                assert repr(self_intersections(spec)) == repr(per_item.self_intersections(spec))


class TestGridIntersectionCheck:
    """The blocked array comparisons against the pair loops."""

    def test_same_verdict_on_every_small_grid(self):
        pairs = [(a, b) for a, b in coprime_pairs(150) if b * b - a * a <= 300]
        assert len(pairs) == 319
        for a, b in pairs:
            assert geometry.grid_intersection_check(a, b) == per_item.grid_intersection_check(a, b)

    @pytest.mark.parametrize("a,b", [(1, 3), (2, 5), (3, 8), (4, 9), (7, 12)])
    @pytest.mark.parametrize("drop", [0, -1])
    def test_same_verdict_with_a_record_missing(self, monkeypatch, a, b, drop):
        records = self_intersections(TwoTermSpec(a, b, 0.0))
        short = records[:drop] + records[drop:][1:]
        monkeypatch.setattr(geometry, "self_intersections", lambda spec: short)
        verdict = geometry.grid_intersection_check(a, b)
        assert verdict == per_item.grid_intersection_check(a, b)
        # a dropped grid pair leaves an oracle pair unmatched
        assert verdict == (records[drop].grid_index_pair is None)
