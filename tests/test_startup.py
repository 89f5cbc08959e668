"""What a cold process loads: the package, the closed-form commands and the
names the package re-exports.

Each load check runs in a fresh interpreter, since this test process has
long since imported numpy and every submodule.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import epicusp
from epicusp import curve, singularity, spec, winding

PKG_ROOT = str(Path(epicusp.__file__).resolve().parent.parent)
SUBMODULES = ("acceptance", "cli", "curve", "errors", "geometry", "render", "singularity",
              "spec", "winding")


def loaded_after(code: str) -> tuple[list[str], str]:
    """The numpy and epicusp modules a fresh interpreter holds after code, and its stdout."""
    report = (
        "\nimport sys as _sys, json as _json"
        "\nprint(_json.dumps(sorted(m for m in _sys.modules"
        " if m.split('.')[0] in ('numpy', 'epicusp'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + report], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": PKG_ROOT},
    )
    assert proc.returncode == 0, proc.stderr
    *output, modules = proc.stdout.splitlines()
    return json.loads(modules), "\n".join(output)


def test_import_loads_no_submodule_and_no_numpy():
    modules, _ = loaded_after("import epicusp")
    assert modules == ["epicusp"]


def test_a_spec_name_loads_only_spec():
    modules, _ = loaded_after("from epicusp import TwoTermSpec, predicted_cusp_locus")
    assert modules == ["epicusp", "epicusp.errors", "epicusp.spec"]


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["wind", "-a", "1", "-b", "3", "-s", "0.5"], {"value": 3, "method": "closed_form"}),
        (["wind", "-a", "1", "-b", "3", "-s", "-1/2"], {"value": 1, "method": "closed_form"}),
        (["cusps", "-a", "2", "-b", "5", "--predicted-only"],
         {"s": -3 / 7, "t": [1 / 6, 0.5, 5 / 6], "proven": False}),
    ],
)
def test_closed_form_commands_load_no_numpy(argv, stdout):
    modules, out = loaded_after(f"from epicusp.cli import main; main({argv!r})")
    assert json.loads(out) == stdout
    assert modules == ["epicusp", "epicusp.cli", "epicusp.errors", "epicusp.spec"]


def test_the_acceptance_battery_loads_no_numpy_random():
    modules, out = loaded_after(
        "import io, contextlib"
        "\nfrom epicusp.cli import main"
        "\nwith contextlib.redirect_stdout(io.StringIO()) as _out:"
        "\n    code = main(['verify'])"
        "\nprint(code, _out.getvalue().splitlines()[-1])"
    )
    assert out == '0 {"total": 11, "failed": 0}'
    assert "numpy" in modules
    assert [m for m in modules if m.split(".")[:2] == ["numpy", "random"]] == []


def test_every_public_name_resolves_and_is_listed():
    listing = dir(epicusp)
    for name in epicusp.__all__:
        assert getattr(epicusp, name) is not None
        assert name in listing


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from epicusp import *", namespace)
    assert set(epicusp.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(epicusp, name) for name in epicusp.__all__)


def test_submodules_are_attributes():
    for name in SUBMODULES:
        assert getattr(epicusp, name).__name__ == f"epicusp.{name}"


PUBLIC_NAMES = [
    "CurveAnalysisError", "CuspCertificate", "CuspLocus", "IntersectionRecord",
    "KernelParams", "NearPole", "NotSingular", "OnCurve", "PlanePoint",
    "SymmetryReport", "TwoTermSpec", "Unresolved", "WindingResult", "certify_cusp",
    "eval_complex", "find_cusps", "grid_intersection_check", "kernel_integral",
    "loop_birth_count", "predicted_cusp_locus", "render_curve", "render_singularity_diagram",
    "rotated_param_deriv", "self_intersections", "undefined_derivative_sets", "verify_symmetry",
    "winding_closed_form", "winding_numeric", "zeros_of_curve",
]
# names the package no longer exports: eval_complex, certify_cusp and
# kernel_integral cover what they did, TwoTermSpec is the one curve type,
# render_curve takes its sample count directly and refuses an empty list with
# ValueError, loop_birth_count centres its window on a cusp and refuses a
# wider one with ValueError, and undefined_derivative_sets takes any weights
REMOVED_NAMES = [
    "evaluate", "derivative", "parametric_derivative", "rotate", "sample", "spec_to_wire",
    "spec_from_wire", "export_samples", "render_param_derivative", "classify_point",
    "PointKind", "winding_decomposition_check", "CurveSpec", "ExponentialTerm", "PlotSpec",
    "EmptyInput", "WindowTooWide", "rotation_angle", "undefined_derivative_set",
]


def test_the_public_names_are_exactly_these():
    assert epicusp.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_a_removed_name_raises_attribute_error(name):
    with pytest.raises(AttributeError):
        getattr(epicusp, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'find_cusp'"):
        epicusp.find_cusp
    assert not hasattr(epicusp, "numpy")


@pytest.mark.parametrize(
    "module, names",
    [
        (curve, ("PlanePoint", "_integer", "TwoTermSpec")),
        (winding, ("winding_closed_form", "zeros_of_curve")),
        (singularity, ("CuspLocus", "predicted_cusp_locus", "_check_pair")),
    ],
)
def test_moved_names_are_the_same_objects(module, names):
    for name in names:
        assert getattr(module, name) is getattr(spec, name)


# pickles written while these classes were defined in curve and singularity
OLD_PICKLES = [
    (
        b"\x80\x04\x95B\x00\x00\x00\x00\x00\x00\x00\x8c\repicusp.curve\x94\x8c\x0bTwoTermSpec"
        b"\x94\x93\x94)\x81\x94}\x94(\x8c\x01a\x94K\x02\x8c\x01b\x94K\x05\x8c\x01s\x94G\xbf\xd0"
        b"\x00\x00\x00\x00\x00\x00ub.",
        spec.TwoTermSpec(2, 5, -0.25),
    ),
    (
        b"\x80\x04\x956\x00\x00\x00\x00\x00\x00\x00\x8c\repicusp.curve\x94\x8c\nPlanePoint\x94"
        b"\x93\x94G?\xe0\x00\x00\x00\x00\x00\x00G\xbf\xf0\x00\x00\x00\x00\x00\x00\x86\x94\x81"
        b"\x94.",
        spec.PlanePoint(0.5, -1.0),
    ),
    (
        b"\x80\x04\x95\x84\x00\x00\x00\x00\x00\x00\x00\x8c\x13epicusp.singularity\x94\x8c\t"
        b"CuspLocus\x94\x93\x94)\x81\x94}\x94(\x8c\x05s_bar\x94\x8c\tfractions\x94\x8c\x08"
        b"Fraction\x94\x93\x94J\xff\xff\xff\xffK\x02\x86\x94R\x94\x8c\x08t_values\x94h\x08K\x01"
        b"K\x04\x86\x94R\x94h\x08K\x03K\x04\x86\x94R\x94\x86\x94\x8c\x06proven\x94\x88ub.",
        spec.predicted_cusp_locus(1, 3),
    ),
]


@pytest.mark.parametrize("data, expected", OLD_PICKLES)
def test_pickles_from_the_old_modules_load_back_equal(data, expected):
    back = pickle.loads(data)
    assert type(back) is type(expected) and back == expected
    assert pickle.loads(pickle.dumps(back)) == expected

