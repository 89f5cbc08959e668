"""End-to-end verification suite.

Each test runs one numbered criterion from the acceptance module and
prints a single PASS/FAIL line with the criterion's own summary, so a
full run reads as a scorecard.  The criteria re-derive their expected
values independently of the library internals wherever possible (brute
force oracles, closed forms, byte comparisons).
"""

import cmath

import pytest

from epicusp import singularity
from epicusp.acceptance import CRITERIA
from epicusp.singularity import rotated_param_deriv
from epicusp.spec import PlanePoint, find_cusps


def _run(number: int) -> None:
    name, fn = CRITERIA[number - 1]
    passed, detail = fn()
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {name} ({detail})")
    assert passed, f"criterion {number}: {name}: {detail}"


def test_criterion_01_winding_closed_vs_numeric():
    _run(1)


def test_criterion_02_kernel_dichotomy():
    _run(2)


def test_criterion_02_draws_the_same_pairs_each_run():
    # random.Random(20240817) gives this worst error; numpy's default_rng
    # with the same seed gave 2.55e-15
    _, fn = CRITERIA[1]
    for _ in range(2):
        assert fn() == (True, "100 seeded pairs, worst error 1.33e-15")


def test_criterion_03_two_cusp_certificates():
    _run(3)


def test_criterion_04_unit_a_locus():
    _run(4)


def test_criterion_05_general_a_locus():
    _run(5)


def test_criterion_06_loop_birth():
    _run(6)


def test_criterion_07_symmetry_identities():
    _run(7)


def test_criterion_08_intersection_grid():
    _run(8)


def test_criterion_09_origin_zeros():
    _run(9)


def test_criterion_10_rotated_closed_forms():
    _run(10)


def test_criterion_11_render_determinism():
    _run(11)


def test_criterion_count_is_complete():
    assert len(CRITERIA) == 11


def swapped(cert):
    return cert._replace(tangent_left=cert.tangent_right, tangent_right=cert.tangent_left)


def turned(cert):
    turn = cmath.exp(1e-3j)
    return cert._replace(
        tangent_left=PlanePoint.from_complex(turn * cert.tangent_left.as_complex()),
        tangent_right=PlanePoint.from_complex(turn * cert.tangent_right.as_complex()),
    )


@pytest.mark.parametrize("damage", [swapped, turned])
@pytest.mark.parametrize("number", [3, 4, 5])
def test_the_cusp_criteria_refuse_wrong_tangents(monkeypatch, number, damage):
    # the criteria check the certificates against gamma' measured either side
    monkeypatch.setattr(singularity, "find_cusps", lambda a, b: [damage(c) for c in find_cusps(a, b)])
    passed, detail = CRITERIA[number - 1][1]()
    assert not passed, detail


@pytest.mark.parametrize(
    "slope",
    [lambda t: -slope_of(t), lambda t: slope_of(t) + 2e-9, lambda t: slope_of(t) * (1.0 + 1e-8)],
    ids=["negated", "shifted by 2e-9", "scaled by 1 + 1e-8"],
)
def test_criterion_10_refuses_a_wrong_slope(monkeypatch, slope):
    monkeypatch.setattr(singularity, "rotated_param_deriv", lambda a, b, t: slope(t))
    passed, detail = CRITERIA[9][1]()
    assert not passed and detail.startswith("slope mismatch"), detail


def slope_of(t: float) -> float:
    """The slope the library gives, read before a test replaces it."""
    return rotated_param_deriv(1, 3, t)
