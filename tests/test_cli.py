import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epicusp
from epicusp.cli import main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


class TestWind:
    def test_closed_form(self, capsys):
        rc, out = run_cli(capsys, "wind", "-a", "1", "-b", "3", "-s", "0.5")
        assert rc == 0
        assert json.loads(out) == {"value": 3, "method": "closed_form"}

    def test_rational_weight_flag(self, capsys):
        # a detached "-1/2" must reach the parser as an attached value
        rc, out = run_cli(capsys, "wind", "-a", "1", "-b", "3", "-s", "-1/2")
        assert rc == 0
        assert json.loads(out)["value"] == 1

    def test_numeric_route(self, capsys):
        rc, out = run_cli(capsys, "wind", "-a", "1", "-b", "3", "-s", "-0.3", "--numeric")
        assert rc == 0
        payload = json.loads(out)
        assert payload["value"] == 1
        assert payload["method"] == "numeric"
        assert payload["residual"] < 1e-6

    def test_base_point_override(self, capsys):
        rc, out = run_cli(capsys, "wind", "-a", "1", "-b", "3", "-s", "0", "--z0", "10,0")
        assert rc == 0
        assert json.loads(out)["value"] == 0

    def test_base_point_that_needs_a_fine_grid(self, capsys):
        rc, out = run_cli(capsys, "wind", "-a", "7", "-b", "60", "-s", "0.2", "--z0", "0.5,0.5")
        assert rc == 0
        assert json.loads(out)["value"] == 36

    @pytest.mark.parametrize("z0", ["-1,2", "-.5,1"])
    def test_detached_negative_base_point(self, capsys, z0):
        # a detached "-1,2" must reach --z0, or its abbreviation --z, as its
        # value, not as a new flag
        argv = ("wind", "-a", "1", "-b", "3", "-s", "0.5")
        attached = run_cli(capsys, *argv, f"--z0={z0}")[1]
        for flag in ("--z0", "--z"):
            rc, out = run_cli(capsys, *argv, flag, z0)
            assert rc == 0
            assert out == attached

    def test_balanced_weight_reports_the_error(self, capsys):
        rc, out = run_cli(capsys, "wind", "-a", "1", "-b", "3", "-s", "0")
        assert rc == 1
        payload = json.loads(out)
        assert payload["error"] == "OnCurve"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("wind", "-a", "3", "-b", "1", "-s", "0.5"),
            ("wind", "-a", "1", "-b", "3", "-s", "seven"),
            ("wind", "-a", "1", "-b", "3", "-s", "1.5"),
            ("wind", "-a", "1", "-b", "3"),
            ("nonsense",),
            ("wind", "-a", "1", "-b", "3", "-s", "0.5", "--z0", "1"),
            ("wind", "-a", "1", "-b", "3", "-s", "0.5", "--z0", "a,b"),
            ("wind", "-a", "1", "-b", "3", "-s", "0.5", "--z0", "1,2,3"),
            ("wind", "-a", "1", "-b", "3", "-s", "0.5", "--z0", "nan,0"),
            ("cusps", "-a", "1", "-b", "3", "--s-grid", "64"),
            ("intersect", "-a", "1", "-b", "3", "-s", "0", "-n", "4096"),
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2


class TestCusps:
    def test_predicted_only(self, capsys):
        rc, out = run_cli(capsys, "cusps", "-a", "1", "-b", "3", "--predicted-only")
        assert rc == 0
        assert json.loads(out) == {"s": -0.5, "t": [0.25, 0.75], "proven": True}

    def test_certified_search(self, capsys):
        rc, out = run_cli(capsys, "cusps", "-a", "1", "-b", "3")
        assert rc == 0
        rows = json_lines(out)
        assert len(rows) == 2
        for row, t in zip(rows, (0.25, 0.75)):
            assert row["s"] == pytest.approx(-0.5, abs=1e-6)
            assert row["t"] == pytest.approx(t, abs=1e-6)
            assert row["flip_dot"] <= -1.0 + 1e-6
            assert row["proven"]

    def test_failed_certification_reports_the_error(self, capsys, monkeypatch):
        monkeypatch.setattr(
            epicusp.singularity, "_certify_cusps", lambda spec, ts, delta: [None] * len(ts)
        )
        rc, out = run_cli(capsys, "cusps", "-a", "2", "-b", "5")
        assert rc == 1
        assert json.loads(out)["error"] == "Unresolved"


class TestSymmetry:
    def test_report_fields(self, capsys):
        rc, out = run_cli(capsys, "symmetry", "-a", "2", "-b", "5", "-s", "-0.7")
        assert rc == 0
        payload = json.loads(out)
        assert payload["claimed_order"] == 3
        assert payload["verified"] and payload["coprime"]
        assert payload["rotation_deviation"] < 1e-9


class TestIntersect:
    def test_json_records(self, capsys):
        rc, out = run_cli(capsys, "intersect", "-a", "1", "-b", "3", "-s", "0")
        assert rc == 0
        rows = json_lines(out)
        assert len(rows) == 3
        origin = [r for r in rows if abs(r["t1"] - 0.25) < 1e-6]
        assert len(origin) == 1
        assert origin[0]["on_rational_grid"]
        assert origin[0]["grid_index_pair"] == [2, 6]

    def test_csv_records(self, capsys):
        rc, out = run_cli(capsys, "intersect", "-a", "1", "-b", "3", "-s", "0",
                          "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "t1,t2,x,y,on_grid"
        assert len(lines) == 4
        for line in lines[1:]:
            t1, t2, x, y, on_grid = line.split(",")
            assert float(t1) < float(t2)
            assert on_grid in ("true", "false")

    @pytest.mark.parametrize("a,b,s", [("2", "4", "0.3"), ("1", "3", "1"), ("2", "5", "-1")])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_continuum_reports_the_error(self, capsys, a, b, s, fmt):
        rc, out = run_cli(capsys, "intersect", "-a", a, "-b", b, "-s", s, "--format", fmt)
        assert rc == 1
        payload = json.loads(out)
        assert payload["error"] == "ValueError"
        assert "continuum" in payload["message"]

    def test_the_simple_circle_has_none(self, capsys):
        rc, out = run_cli(capsys, "intersect", "-a", "1", "-b", "3", "-s", "-1")
        assert rc == 0
        assert out == ""

    def test_loops_one_scan_cell_apart_are_all_printed(self, capsys):
        rc, out = run_cli(capsys, "intersect", "-a", "1", "-b", "6", "-s", "-0.178659859731647")
        assert rc == 0
        assert len(json_lines(out)) == 15


# argv pieces for intersect: valid pairs a < b, coprime or not, beside
# junk frequencies (kept small: the work grows with b); weights inside and
# outside [-1, 1], rationals and junk
JUNK_FREQUENCIES = st.one_of(
    st.integers(-2, 40).map(str),
    st.sampled_from(["", "1.5", "3.0", "1e1", "0x3", "-", "--", "+3", " 4"]),
    st.text(alphabet="ab+-./ e", max_size=3),
)
VALID_PAIRS = st.builds(lambda a, d: (str(a), str(a + d)), st.integers(1, 20), st.integers(1, 20))
PAIRS = st.one_of(VALID_PAIRS, VALID_PAIRS, st.tuples(JUNK_FREQUENCIES, JUNK_FREQUENCIES))
WEIGHTS = st.one_of(
    st.floats(-1.0, 1.0).map(repr),
    st.floats(-1.0, 1.0).map(repr),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-9, 9)),
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "1/2/3", "", "seven", "-", "0,5"]),
)
FORMATS = st.sampled_from([None, "json", "csv", "csv", "xml", "", "CSV"])


def exit_code_and_stdout(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


class TestIntersectArgvFuzz:
    @given(PAIRS, WEIGHTS, FORMATS)
    @settings(deadline=None, max_examples=300)
    def test_exit_code_and_stdout_keep_the_contract(self, pair, s, fmt):
        argv = ["intersect", "-a", pair[0], "-b", pair[1], "-s", s]
        if fmt is not None:
            argv += ["--format", fmt]
        rc, out = exit_code_and_stdout(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert out == ""
        elif rc == 1:
            assert set(json_lines(out)[0]) == {"error", "message"} and out.count("\n") == 1
        elif fmt == "csv":
            assert out.startswith("t1,t2,x,y,on_grid\r\n") and out.endswith("\r\n")
            for row in out.split("\r\n")[1:-1]:
                t1, t2, x, y, on_grid = row.split(",")
                assert 0.0 <= float(t1) < float(t2) < 1.0 and on_grid in ("true", "false")
        else:
            for record in json_lines(out):
                assert 0.0 <= record["t1"] < record["t2"] < 1.0


# -n for symmetry: below the minimum of 100 samples, up to a few
# thousand beyond the default, and junk; never large, as the work grows with n
SIZES = st.one_of(
    st.integers(-10, 20_000).map(str),
    st.sampled_from(["", "1e3", "100.0", "0x100", "-", "ten", " 200"]),
)
REPORT_FIELDS = {"claimed_order", "rotation_deviation", "reflection_deviation",
                 "coprime", "degenerate", "verified"}


class TestSymmetryArgvFuzz:
    @given(PAIRS, WEIGHTS, st.none() | SIZES)
    @settings(deadline=None, max_examples=200)
    def test_exit_code_and_stdout_keep_the_contract(self, pair, s, n):
        argv = ["symmetry", "-a", pair[0], "-b", pair[1], "-s", s]
        if n is not None:
            argv += ["-n", n]
        rc, out = exit_code_and_stdout(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert out == ""
            return
        assert out.count("\n") == 1 and out.endswith("\n")
        record = json.loads(out)
        if rc == 1:
            assert set(record) == {"error", "message"}
            return
        a, b = int(pair[0]), int(pair[1])
        assert set(record) == REPORT_FIELDS
        assert n is None or int(n) >= 100
        assert record["claimed_order"] == b - a
        assert record["coprime"] == (math.gcd(a, b) == 1)
        assert record["verified"] == (record["coprime"] and record["rotation_deviation"] < 1e-9
                                      and record["reflection_deviation"] < 1e-9)


# pairs for cusps and wind reach b = 200; the work grows with b only linearly
WIDE_VALID_PAIRS = st.builds(
    lambda a, d: (str(a), str(a + d)), st.integers(1, 100), st.integers(1, 100)
)
WIDE_PAIRS = st.one_of(
    WIDE_VALID_PAIRS, WIDE_VALID_PAIRS, st.tuples(JUNK_FREQUENCIES, JUNK_FREQUENCIES)
)


class TestCuspsArgvFuzz:
    @given(WIDE_PAIRS, st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_exit_code_and_stdout_keep_the_contract(self, pair, predicted_only):
        argv = ["cusps", "-a", pair[0], "-b", pair[1]]
        if predicted_only:
            argv.append("--predicted-only")
        rc, out = exit_code_and_stdout(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert out == ""
            return
        records = json_lines(out)
        if rc == 1:
            assert len(records) == 1 and set(records[0]) == {"error", "message"}
            return
        a, b = int(pair[0]), int(pair[1])
        s_bar = (a - b) / (a + b)
        if predicted_only:
            ts = [h / (2 * (b - a)) for h in range(1, 2 * (b - a), 2)]
            assert records == [{"s": s_bar, "t": ts, "proven": a == 1}]
            return
        assert len(records) == b - a
        for h, record in zip(range(1, 2 * (b - a), 2), records):
            assert set(record) == {"s", "t", "flip_dot", "proven"}
            assert record["s"] == s_bar and record["t"] == h / (2 * (b - a))
            assert record["flip_dot"] <= -1.0 + 1e-6 and record["proven"] == (a == 1)


# base points for wind: small coordinates, on and off the curve, and junk
POINTS = st.builds("{!r},{!r}".format, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
BASE_POINTS = st.one_of(
    POINTS,
    POINTS,
    st.sampled_from(["0,0", "1,0", "-1,2", "2,0", "", "1", "1,2,3", "nan,0", "inf,1", "a,b"]),
)
VALID_WEIGHTS = st.floats(-1.0, 1.0).map(repr)


class TestWindArgvFuzz:
    @given(WIDE_PAIRS, VALID_WEIGHTS | WEIGHTS, st.none() | BASE_POINTS, st.booleans(),
           st.none() | SIZES)
    @settings(deadline=None, max_examples=200)
    def test_exit_code_and_stdout_keep_the_contract(self, pair, s, z0, numeric, n):
        argv = ["wind", "-a", pair[0], "-b", pair[1], "-s", s]
        if z0 is not None:
            argv += ["--z0", z0]
        if numeric:
            argv.append("--numeric")
        if n is not None:
            argv += ["-n", n]
        rc, out = exit_code_and_stdout(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert out == ""
            return
        assert out.count("\n") == 1 and out.endswith("\n")
        record = json.loads(out)
        if rc == 1:
            assert set(record) == {"error", "message"}
            return
        # the winding number counts zeros of a degree-b polynomial in the disk
        assert isinstance(record["value"], int) and 0 <= record["value"] <= int(pair[1])
        if record["method"] == "closed_form":
            assert set(record) == {"value", "method"} and not numeric
        else:
            assert record["method"] == "numeric"
            assert set(record) == {"value", "residual", "samples", "method"}
            assert record["residual"] < 0.25 and record["samples"] >= int(n or 4096)


class TestPlotAndSweep:
    def test_plot_writes_the_document(self, capsys, tmp_path):
        out_path = tmp_path / "curve.svg"
        rc, out = run_cli(capsys, "plot", "-a", "1", "-b", "3", "-s", "-1/2",
                          "--out", str(out_path))
        assert rc == 0
        payload = json.loads(out)
        text = out_path.read_text(encoding="utf-8")
        assert payload["bytes"] == len(text)
        assert text.startswith("<svg")

    def test_plot_is_deterministic_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "one.svg", tmp_path / "two.svg"]
        for p in paths:
            run_cli(capsys, "plot", "-a", "2", "-b", "5", "-s", "0.3", "--out", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sweep_panel(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.svg"
        rc, out = run_cli(capsys, "sweep", "-a", "1", "-b", "3", "--out", str(out_path))
        assert rc == 0
        payload = json.loads(out)
        assert payload["curves"] == 21
        assert out_path.read_text(encoding="utf-8").count("<polyline") == 21

    def test_sweep_needs_two_weights(self, capsys, tmp_path):
        rc, out = run_cli(capsys, "sweep", "-a", "1", "-b", "3", "--count", "1",
                          "--out", str(tmp_path / "x.svg"))
        assert rc == 1
        assert "error" in json.loads(out)


class TestVerify:
    def test_full_suite_passes(self, capsys):
        rc, out = run_cli(capsys, "verify")
        assert rc == 0
        rows = json_lines(out)
        assert rows[-1] == {"total": 11, "failed": 0}
        assert all(r["passed"] for r in rows[:-1])

    def test_failures_change_the_exit_code(self, capsys, monkeypatch):
        from epicusp import acceptance
        from epicusp.acceptance import CriterionResult

        monkeypatch.setattr(
            acceptance, "run_all",
            lambda: [CriterionResult(1, "stub", False, "forced failure")],
        )
        rc, out = run_cli(capsys, "verify")
        assert rc == 3
        assert json_lines(out)[-1] == {"total": 1, "failed": 1}


def _console_script() -> tuple[list[str], dict[str, str] | None]:
    """Command and environment that run the ``epicusp`` console script."""
    installed = shutil.which("epicusp")
    if installed:
        return [installed], None
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["epicusp"]
    module, func = target.split(":")
    # what an installer's generated wrapper does with the declared target
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    pkg_root = str(Path(epicusp.__file__).resolve().parent.parent)
    return [sys.executable, "-c", code], {**os.environ, "PYTHONPATH": pkg_root}


def test_import_loads_no_scipy():
    code = "import sys, epicusp; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    pkg_root = str(Path(epicusp.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": pkg_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_is_installed():
    """The declared ``epicusp`` entry point works as a command.

    Where ``epicusp`` is on PATH, the installed command is run.  Otherwise
    the ``[project.scripts]`` target from pyproject.toml is run through the
    interpreter, as the generated wrapper would run it.
    """
    cmd, env = _console_script()
    proc = subprocess.run(
        cmd + ["wind", "-a", "1", "-b", "3", "-s", "-1/2"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 1
