"""What a cold process loads: the package, the closed-form commands, the
curve plots and the names the package re-exports.

Each load check runs in a fresh interpreter, since this test process has
long since imported numpy and every submodule.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import epicusp
from epicusp import acceptance, curve, geometry, singularity, spec, winding

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


def all_loaded_after(code: str) -> set[str]:
    """Every module in sys.modules of a fresh interpreter after code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys as _sys; print(' '.join(_sys.modules))"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": PKG_ROOT},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_submodule_and_no_numpy():
    modules, _ = loaded_after("import epicusp")
    assert modules == ["epicusp"]
    # nor any other module that a bare interpreter in this environment does
    # not hold, but for importlib and what it loads where site has not
    bare = all_loaded_after("pass")
    importlib_adds = all_loaded_after("import importlib") - bare
    assert all_loaded_after("import epicusp") - bare - importlib_adds == {"epicusp"}


def test_a_spec_name_loads_only_spec():
    modules, _ = loaded_after("from epicusp import TwoTermSpec, find_cusps, predicted_cusp_locus")
    assert modules == ["epicusp", "epicusp.errors", "epicusp.spec"]


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["wind", "-a", "1", "-b", "3", "-s", "0.5"], [{"value": 3, "method": "closed_form"}]),
        (["wind", "-a", "1", "-b", "3", "-s", "-1/2"], [{"value": 1, "method": "closed_form"}]),
        (["cusps", "-a", "2", "-b", "5", "--predicted-only"],
         [{"s": -3 / 7, "t": [1 / 6, 0.5, 5 / 6], "proven": False}]),
        (["cusps", "-a", "2", "-b", "5"],
         [{"s": -3 / 7, "t": t, "flip_dot": -1.0, "proven": False} for t in (1 / 6, 0.5, 5 / 6)]),
    ],
)
def test_closed_form_commands_load_no_numpy(argv, stdout):
    modules, out = loaded_after(f"from epicusp.cli import main; main({argv!r})")
    assert [json.loads(line) for line in out.splitlines()] == stdout
    assert modules == ["epicusp", "epicusp.cli", "epicusp.errors", "epicusp.spec"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_balanced_intersections_load_only_spec(fmt):
    argv = ["intersect", "-a", "2", "-b", "5", "-s", "0", "--format", fmt]
    modules, out = loaded_after(f"from epicusp.cli import main; main({argv!r})")
    assert modules == ["epicusp", "epicusp.cli", "epicusp.errors", "epicusp.spec"]
    records = geometry.self_intersections(spec.TwoTermSpec(2, 5, 0.0))
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == "t1,t2,x,y,on_grid"
        got = [tuple(map(float, line.split(",")[:2])) for line in lines[1:]]
    else:
        got = [(row["t1"], row["t2"]) for row in map(json.loads, lines)]
    assert len(records) == 12 and got == [(r.t1, r.t2) for r in records]


@pytest.mark.parametrize(
    "argv",
    [
        ["wind", "-a", "1", "-b", "3", "-s", "0.5"],
        ["cusps", "-a", "7", "-b", "60"],
        ["plot", "-a", "2", "-b", "7", "-s", "0.3", "-n", "256", "--out", os.devnull],
        ["intersect", "-a", "11", "-b", "29", "-s", "0"],
    ],
)
def test_closed_form_commands_load_neither_dataclasses_nor_fractions(argv):
    # dataclasses imports inspect, and fractions decimal: a few ms of every
    # cold command; a weight written as p/q still loads fractions to parse it
    modules = all_loaded_after(
        "import io, contextlib\nfrom epicusp.cli import main"
        f"\nwith contextlib.redirect_stdout(io.StringIO()):\n    main({argv!r})"
    )
    assert "epicusp.spec" in modules
    assert not {"dataclasses", "fractions", "numpy"} & modules


def test_symmetry_loads_no_singularity():
    modules, _ = loaded_after("from epicusp.cli import main; main(['symmetry', '-a', '2', '-b', '5', '-s', '0.3'])")
    assert "epicusp.geometry" in modules and "epicusp.singularity" not in modules


@pytest.mark.parametrize(
    "argv",
    [
        ["plot", "-a", "2", "-b", "7", "-s", "0.3", "-n", "256"],
        ["plot", "-a", "1", "-b", "3", "-s", "-1/2"],
        ["sweep", "-a", "3", "-b", "8", "--count", "5"],
    ],
)
def test_curve_plots_load_no_numpy(tmp_path, argv):
    out = tmp_path / "curve.svg"
    modules, stdout = loaded_after(f"from epicusp.cli import main; main({argv + ['--out', str(out)]!r})")
    assert json.loads(stdout)["bytes"] == len(out.read_text())
    assert modules == ["epicusp", "epicusp.cli", "epicusp.errors", "epicusp.render", "epicusp.spec"]


def test_render_curve_loads_no_numpy():
    modules, out = loaded_after(
        "from epicusp import TwoTermSpec, render_curve"
        "\nprint(render_curve([TwoTermSpec(1, 3, 0.5)], 64).count('<polyline'))"
    )
    assert out == "1"
    assert modules == ["epicusp", "epicusp.errors", "epicusp.render", "epicusp.spec"]


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
    "KernelParams", "NearPole", "OnCurve", "PlanePoint",
    "SymmetryReport", "TwoTermSpec", "Unresolved", "WindingResult",
    "eval_complex", "find_cusps", "grid_intersection_check", "kernel_integral",
    "loop_birth_count", "predicted_cusp_locus", "render_curve", "render_singularity_diagram",
    "rotated_param_deriv", "self_intersections", "undefined_derivative_sets", "verify_symmetry",
    "winding_closed_form", "winding_numeric", "zeros_of_curve",
]
# names the package no longer exports: eval_complex, find_cusps and
# kernel_integral cover what they did, TwoTermSpec is the one curve type,
# render_curve takes its sample count directly and refuses an empty list with
# ValueError, loop_birth_count centres its window on a cusp and refuses a
# wider one with ValueError, and undefined_derivative_sets takes any weights
REMOVED_NAMES = [
    "evaluate", "derivative", "parametric_derivative", "rotate", "sample", "spec_to_wire",
    "spec_from_wire", "export_samples", "render_param_derivative", "classify_point",
    "PointKind", "winding_decomposition_check", "CurveSpec", "ExponentialTerm", "PlotSpec",
    "EmptyInput", "WindowTooWide", "rotation_angle", "undefined_derivative_set",
    "certify_cusp", "NotSingular",
]


def test_the_public_names_are_exactly_these():
    assert epicusp.__all__ == PUBLIC_NAMES


def test_the_result_records_are_named_tuples():
    # the fields and defaults of the frozen dataclasses they replace
    record, certificate = epicusp.IntersectionRecord, epicusp.CuspCertificate
    assert issubclass(record, tuple) and issubclass(certificate, tuple)
    assert record._fields == ("t1", "t2", "point", "on_rational_grid", "grid_index_pair")
    assert record._field_defaults == {"grid_index_pair": None}
    assert certificate._fields == ("s", "t", "tangent_left", "tangent_right", "flip_dot", "proven")
    assert certificate._field_defaults == {"proven": False}


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
        (geometry, ("IntersectionRecord",)),
        (singularity, ("CuspCertificate", "CuspLocus", "find_cusps", "predicted_cusp_locus",
                       "_check_pair", "_real")),
    ],
)
def test_moved_names_are_the_same_objects(module, names):
    for name in names:
        assert getattr(module, name) is getattr(spec, name)


# pickles written while these classes were defined in curve and singularity;
# the certificate's tangents are those of the numeric certifier of that time
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
    (
        b"\x80\x04\x95\x98\x00\x00\x00\x00\x00\x00\x00\x8c\x13epicusp.singularity\x94\x8c\x0f"
        b"CuspCertificate\x94\x93\x94(G\xbf\xe0\x00\x00\x00\x00\x00\x00G?\xd0\x00\x00\x00\x00"
        b"\x00\x00\x8c\x0cepicusp.spec\x94\x8c\nPlanePoint\x94\x93\x94G\xbd\xbb\xfb<\x9ax\x19"
        b"\x18G\xbf\xf0\x00\x00\x00\x00\x00\x00\x86\x94\x81\x94h\x05G\xbd\xbb\xfbH\xecx\t(G?"
        b"\xf0\x00\x00\x00\x00\x00\x00\x86\x94\x81\x94G\xbf\xf0\x00\x00\x00\x00\x00\x00\x88t"
        b"\x94\x81\x94.",
        spec.CuspCertificate(
            -0.5, 0.25, spec.PlanePoint(-2.544892912230493e-11, -1.0),
            spec.PlanePoint(-2.544910010097435e-11, 1.0), -1.0, True,
        ),
    ),
    (
        b"\x80\x04\x95}\x00\x00\x00\x00\x00\x00\x00\x8c\x10epicusp.geometry\x94\x8c\x12"
        b"IntersectionRecord\x94\x93\x94(G?\xd0\x00\x00\x00\x00\x00\x00G?\xe8\x00\x00\x00"
        b"\x00\x00\x00\x8c\x0cepicusp.spec\x94\x8c\nPlanePoint\x94\x93\x94G\xbf\xe0\x00\x00"
        b"\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86\x94\x81\x94\x88K\x03K\t"
        b"\x86\x94t\x94\x81\x94.",
        spec.IntersectionRecord(0.25, 0.75, spec.PlanePoint(-0.5, 0.0), True, (3, 9)),
    ),
]


@pytest.mark.parametrize("data, expected", OLD_PICKLES)
def test_pickles_from_the_old_modules_load_back_equal(data, expected):
    back = pickle.loads(data)
    assert type(back) is type(expected) and back == expected
    assert pickle.loads(pickle.dumps(back)) == expected



# the result types that were frozen dataclasses: their fields, defaults and
# a value of each, and the module that defines them
DATACLASS_TYPES = [
    (spec, "TwoTermSpec", ["a", "b", "s"], (2, 5, -0.25)),
    (spec, "CuspLocus", ["s_bar", "t_values", "proven"], (Fraction(-1, 2), (Fraction(1, 4), Fraction(3, 4)), True)),
    (geometry, "SymmetryReport",
     ["claimed_order", "rotation_deviation", "reflection_deviation", "coprime",
      ("degenerate", bool, dataclasses.field(default=False))], (3, 2.5e-16, 0.0, True)),
    (winding, "WindingResult", ["value", "residual", "samples"], (3, 1.5e-13, 4096)),
    (winding, "KernelParams", ["alpha", "beta"], (0.5, 1.5)),
    (acceptance, "CriterionResult", ["number", "name", "passed", "detail"], (8, "grid", True, "ok")),
]


@pytest.mark.parametrize("module, name, fields, values", DATACLASS_TYPES, ids=[t[1] for t in DATACLASS_TYPES])
def test_result_types_behave_as_the_frozen_dataclasses_they_replace(monkeypatch, module, name, fields, values):
    cls = getattr(module, name)
    twin = dataclasses.make_dataclass(name, fields, frozen=True)
    twin.__module__ = module.__name__
    record, old = cls(*values), twin(*values)
    assert repr(record) == repr(old) and hash(record) == hash(old)
    assert record == cls(*values) and old == twin(*values)
    changed = (values[0] + 1, *values[1:])
    assert (record != cls(*changed)) and (old != twin(*changed))
    assert record != old and record != values
    # pickles are those the dataclass wrote, under each protocol
    monkeypatch.setattr(module, name, twin)
    written = [pickle.dumps(old, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    monkeypatch.undo()
    assert [pickle.dumps(record, protocol) for protocol in range(len(written))] == written
    assert all(pickle.loads(data) == record for data in written)
    for field in old.__dataclass_fields__:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, 0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert record == cls(*values)


def test_result_types_take_keywords_and_defaults():
    report = geometry.SymmetryReport(claimed_order=3, rotation_deviation=0.0, reflection_deviation=0.0, coprime=True)
    assert report.degenerate is False and report.verified
    assert geometry.SymmetryReport(3, 0.0, 0.0, True, True).degenerate is True
    assert spec.TwoTermSpec(b=3, a=1, s=0.5) == spec.TwoTermSpec(1, 3, 0.5)
    # too many, repeated, unknown and missing arguments
    for args, kwargs in [((1, 2, 3, 4), {}), ((1, 2, 3), {"value": 1}), ((1, 2, 3), {"x": 1}), ((1, 2), {})]:
        with pytest.raises(TypeError):
            winding.WindingResult(*args, **kwargs)
