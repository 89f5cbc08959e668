"""The benchmark's workloads: seeded inputs, one operation each, and checks.

A workload is a list of operations, one pass.  Every run repeats the same
pass, so the share of failed operations does not depend on the seed or on
the run length.  Inputs come from ``random.Random(seed)`` and only from
ranges where the program answers completely; the named faults below are
the only operations expected to fail, and they are in every pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import gcd
from typing import Any, Callable, Optional

import oracles as O

# The console-script wrapper for `epicusp = "epicusp.cli:main"`.
CLI_ENTRY = "import sys; from epicusp.cli import main; sys.exit(main())"

CRITERIA_NAMES = (
    "winding closed form vs numeric",
    "kernel integral dichotomy",
    "two cusp certificates for (1,3)",
    "cusp locus for a=1, b=2..8",
    "conjectural cusp locus for a>1",
    "loop birth across the threshold",
    "dihedral symmetry identities",
    "self-intersection rational grid",
    "origin zeros of balanced curves",
    "rotated-frame closed forms",
    "rendering determinism and markers",
)

# Deterministic faults of the program, kept in every `search` pass.
FAULTS = {
    ("find_cusps", 20, 41): "the 256x256 seed grid misses 2 of the 21 cusps",
    ("find_cusps", 7, 60): "the 256x256 seed grid misses 8 of the 53 cusps",
    ("self_intersections", 11, 29, 0.0): "t_grid=4096 misses 1 of the 495 grid pairs",
}

DIAGRAM_PAIRS = ((2, 5), (3, 4), (3, 5), (4, 5))
S0_BUCKETS = ((15, 40), (40, 80), (80, 140), (140, 220))


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fault: Optional[str] = None


@dataclass
class CliResult:
    stdout: str
    returncode: int
    maxrss_kb: int = 0
    files: dict = field(default_factory=dict)


# --- input draws ------------------------------------------------------------


def _weight(rng: random.Random, lo: float = 0.1, hi: float = 0.9) -> float:
    """A weight with lo <= |s| <= hi, sign chosen at random, 3 decimals."""
    return round(rng.choice((-1, 1)) * rng.uniform(lo, hi), 3)


def _coprime_pair(rng: random.Random, max_b: int, min_b: int = 2) -> tuple[int, int]:
    while True:
        b = rng.randint(min_b, max_b)
        a = rng.randint(1, b - 1)
        if gcd(a, b) == 1:
            return a, b


def _pair_in_bucket(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    pairs = [
        (a, b)
        for b in range(2, 40)
        for a in range(1, b)
        if gcd(a, b) == 1 and lo <= b * b - a * a < hi
    ]
    return rng.choice(pairs)


def _base_point(rng: random.Random, a: int, b: int, s: float) -> complex:
    """A point at least 0.05 from the curve whose root count is well conditioned."""
    while True:
        z0 = complex(round(rng.uniform(-2.2, 2.2), 3), round(rng.uniform(-2.2, 2.2), 3))
        if O.min_distance_to_curve(a, b, s, z0) < 0.05:
            continue
        if O.winding_by_roots(a, b, s, z0)[1] > 1e-3:
            return z0


# --- cli-cold -----------------------------------------------------------------


def cli_commands(seed: int, out_dir: str) -> list[tuple[str, list[str], Callable[[CliResult], None]]]:
    """The command mix: (label, argv, check) for each command of one pass."""
    rng = random.Random(seed)
    cmds = []

    a, b = _coprime_pair(rng, 8)
    s = _weight(rng)
    cmds.append(("wind", ["wind", "-a", str(a), "-b", str(b), "-s", str(s)], _check_wind(a, b, s, 0j, False)))
    a, b = _coprime_pair(rng, 8)
    s = _weight(rng)
    cmds.append(
        ("wind --numeric", ["wind", "-a", str(a), "-b", str(b), "-s", str(s), "--numeric"], _check_wind(a, b, s, 0j, True))
    )
    a, b = _coprime_pair(rng, 6)
    s = _weight(rng)
    z0 = _base_point(rng, a, b, s)
    cmds.append(
        (
            "wind --z0",
            ["wind", "-a", str(a), "-b", str(b), "-s", str(s), f"--z0={z0.real},{z0.imag}"],
            _check_wind(a, b, s, z0, True),
        )
    )
    a, b = _coprime_pair(rng, 10)
    cmds.append(("cusps", ["cusps", "-a", str(a), "-b", str(b)], _check_cusps_cli(a, b)))
    a, b = _coprime_pair(rng, 20)
    cmds.append(
        ("cusps --predicted-only", ["cusps", "-a", str(a), "-b", str(b), "--predicted-only"], _check_locus_cli(a, b))
    )
    a, b = _coprime_pair(rng, 12)
    s = _weight(rng)
    cmds.append(("symmetry", ["symmetry", "-a", str(a), "-b", str(b), "-s", str(s)], _check_symmetry_cli(a, b)))
    a, b = _pair_in_bucket(rng, 8, 60)
    cmds.append(("intersect json", ["intersect", "-a", str(a), "-b", str(b), "-s", "0"], _check_intersect_json(a, b)))
    a, b = _coprime_pair(rng, 8)
    s = _weight(rng)
    cmds.append(
        ("intersect csv", ["intersect", "-a", str(a), "-b", str(b), "-s", str(s), "--format", "csv"], _check_intersect_csv(a, b, s))
    )
    a, b = _coprime_pair(rng, 8)
    s = _weight(rng, 0.0, 1.0)
    n = rng.choice((256, 512, 1024))
    path = os.path.join(out_dir, "plot.svg")
    cmds.append(
        (
            "plot",
            ["plot", "-a", str(a), "-b", str(b), "-s", str(s), "-n", str(n), "--out", path],
            _check_svg_cli(path, [(a, b, s)], n),
        )
    )
    a, b = _coprime_pair(rng, 6)
    count = rng.randint(3, 9)
    path = os.path.join(out_dir, "sweep.svg")
    weights = [-1.0 + 2.0 * i / (count - 1) for i in range(count)]
    cmds.append(
        (
            "sweep",
            ["sweep", "-a", str(a), "-b", str(b), "--count", str(count), "--out", path],
            _check_svg_cli(path, [(a, b, w) for w in weights], 1024),
        )
    )
    return cmds


def run_cold(argv: list[str], env: dict) -> CliResult:
    """Spawn the CLI in a fresh interpreter and wait for it; peak RSS from wait4."""
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_ENTRY, *argv], stdout=subprocess.PIPE, stderr=devnull, env=env
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(out.decode(), proc.returncode, usage.ru_maxrss)


def run_in_process(main: Callable[[list[str]], int], argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return CliResult(buf.getvalue(), rc)


def _json_lines(res: CliResult) -> list[dict]:
    if res.returncode != 0:
        raise O.Mismatch(f"exit code {res.returncode}: {res.stdout[:200]!r}")
    return [json.loads(line) for line in res.stdout.splitlines() if line.strip()]


def _check_wind(a, b, s, z0, numeric):
    def check(res):
        (out,) = _json_lines(res)
        want = (a if s < 0 else b) if z0 == 0 else O.winding_by_roots(a, b, s, z0)[0]
        if out["value"] != want:
            raise O.Mismatch(f"wind ({a},{b},{s}) about {z0}: {out['value']}, expected {want}")
        if out["method"] != ("numeric" if numeric else "closed_form"):
            raise O.Mismatch(f"wind: method {out['method']}")
        if numeric and not out["residual"] < 1e-6:
            raise O.Mismatch(f"wind: residual {out['residual']}")

    return check


def _check_cusps_cli(a, b):
    def check(res):
        rows = _json_lines(res)
        O.check_cusps(a, b, [(r["s"], r["t"]) for r in rows])
        if any(r["flip_dot"] > -1.0 + 1e-6 or r["proven"] != (a == 1) for r in rows):
            raise O.Mismatch(f"cusps ({a},{b}): certificate fields wrong")

    return check


def _check_locus_cli(a, b):
    def check(res):
        (out,) = _json_lines(res)
        s_bar, ts = O.cusp_locus(a, b)
        if out["s"] != float(s_bar) or out["t"] != [float(t) for t in ts] or out["proven"] != (a == 1):
            raise O.Mismatch(f"cusps --predicted-only ({a},{b}): {out}")

    return check


def _check_symmetry_cli(a, b):
    def check(res):
        (out,) = _json_lines(res)
        if out["claimed_order"] != b - a or not out["coprime"] or not out["verified"] or out["degenerate"]:
            raise O.Mismatch(f"symmetry ({a},{b}): {out}")
        if not (out["rotation_deviation"] < 1e-12 and out["reflection_deviation"] < 1e-12):
            raise O.Mismatch(f"symmetry ({a},{b}): deviations {out}")

    return check


def _check_intersect_json(a, b):
    n = b * b - a * a

    def check(res):
        rows = _json_lines(res)
        O.check_intersections_s0(a, b, [(r["t1"], r["t2"]) for r in rows])
        for r in rows:
            j1, j2 = round(r["t1"] * n), round(r["t2"] * n)
            on_grid = abs(r["t1"] * n - j1) < 1e-9 * n and abs(r["t2"] * n - j2) < 1e-9 * n
            pair = [j1 % n, j2 % n] if on_grid else None
            if r["on_rational_grid"] != on_grid or r["grid_index_pair"] != pair:
                raise O.Mismatch(f"intersect ({a},{b},0): grid flag wrong in {r}")
            if abs(complex(r["x"], r["y"]) - O.gamma(a, b, 0.0, r["t1"])) > 2e-9:
                raise O.Mismatch(f"intersect ({a},{b},0): point wrong in {r}")

    return check


def _check_intersect_csv(a, b, s):
    def check(res):
        if res.returncode != 0:
            raise O.Mismatch(f"exit code {res.returncode}")
        lines = res.stdout.split("\r\n")
        if lines[0] != "t1,t2,x,y,on_grid" or lines[-1] != "":
            raise O.Mismatch("intersect csv: bad header or line endings")
        rows = [line.split(",") for line in lines[1:-1]]
        if any(len(r) != 5 or r[4] != "false" for r in rows):
            raise O.Mismatch("intersect csv: bad row")
        O.check_intersections_general(
            a, b, s, [(float(r[0]), float(r[1]), complex(float(r[2]), float(r[3]))) for r in rows]
        )

    return check


def _check_svg_cli(path, curves, samples):
    def check(res):
        (out,) = _json_lines(res)
        with open(path, encoding="utf-8") as fh:
            doc = fh.read()
        res.files[path] = doc
        if out["out"] != path or out["bytes"] != len(doc):
            raise O.Mismatch(f"{path}: stdout {out} does not describe the document")
        O.check_curve_svg(doc, curves, samples)

    return check


def cli_ops(seed: int, out_dir: str, env: dict) -> list[Op]:
    """One cold subprocess per command; repeats must write identical bytes."""
    ops = []
    first: dict[str, str] = {}
    for label, argv, check in cli_commands(seed, out_dir):

        def checked(res, check=check, label=label):
            check(res)
            for doc in res.files.values():
                if first.setdefault(label, doc) != doc:
                    raise O.Mismatch(f"{label}: document bytes differ from the first run")

        ops.append(Op(label, lambda argv=argv: run_cold(argv, env), checked))
    return ops


# --- search -----------------------------------------------------------------


def search_inputs(seed: int) -> list[tuple]:
    """(kind, args) for one pass: stratified so each seed costs about the same."""
    rng = random.Random(seed)
    inputs: list[tuple] = []
    for d in range(1, 25):  # every cusp count 1..24 once; complete for b <= 34
        a = rng.randint(1, 30 - d)
        inputs.append(("find_cusps", a, a + d))
    inputs += [("find_cusps", 20, 41), ("find_cusps", 7, 60)]
    for lo, hi in S0_BUCKETS:
        inputs.append(("self_intersections", *_pair_in_bucket(rng, lo, hi), 0.0))
    for sign in (1, 1, 1, -1, -1, -1):
        a, b = _coprime_pair(rng, 11, 3)
        inputs.append(("self_intersections", a, b, sign * round(rng.uniform(0.1, 0.8), 3)))
    inputs.append(("self_intersections", 11, 29, 0.0))
    inputs.append(("render_singularity_diagram", *rng.choice(DIAGRAM_PAIRS)))
    rng.shuffle(inputs)
    return inputs


def search_ops(seed: int, lib) -> list[Op]:
    ops = []
    for key in search_inputs(seed):
        kind, a, b = key[:3]
        fault = FAULTS.get(key)
        if kind == "find_cusps":
            run = lambda a=a, b=b: lib.singularity.find_cusps(a, b)
            check = lambda out, a=a, b=b: O.check_cusps(a, b, [(c.s, c.t) for c in out])
            label = f"find_cusps({a}, {b})"
        elif kind == "self_intersections":
            s = key[3]
            run = lambda a=a, b=b, s=s: lib.geometry.self_intersections(lib.TwoTermSpec(a, b, s))
            if s == 0.0:
                check = lambda out, a=a, b=b: O.check_intersections_s0(a, b, [(r.t1, r.t2) for r in out])
            else:
                check = lambda out, a=a, b=b, s=s: O.check_intersections_general(
                    a, b, s, [(r.t1, r.t2, complex(r.point.x, r.point.y)) for r in out]
                )
            label = f"self_intersections({a}, {b}, {s})"
        else:
            run = lambda a=a, b=b: lib.render.render_singularity_diagram(a, b)
            check = lambda out, a=a, b=b: O.check_diagram_svg(a, b, out)
            label = f"render_singularity_diagram({a}, {b})"
        ops.append(Op(label, run, _memo_check(check), fault))
    return ops


def _memo_check(check):
    """Outputs repeat from pass to pass; check each distinct output once.

    Only the message is kept: re-raising a stored exception would chain
    each pass's frames, and the outputs they hold, onto its traceback.
    """
    seen: dict[str, Optional[str]] = {}

    def wrapped(out):
        key = repr(out)
        if key not in seen:
            try:
                check(out)
                seen[key] = None
            except O.Mismatch as exc:
                seen[key] = str(exc)
        if seen[key] is not None:
            raise O.Mismatch(seen[key])

    return wrapped


# --- verify -----------------------------------------------------------------


def verify_ops(lib) -> list[Op]:
    def check(results):
        got = [(r.number, r.name) for r in results]
        want = list(enumerate(CRITERIA_NAMES, start=1))
        if got != want:
            raise O.Mismatch(f"criteria {got} != {want}")
        failed = [f"{r.number}: {r.detail}" for r in results if not r.passed]
        if failed:
            raise O.Mismatch(f"criteria failed: {failed}")

    return [Op("acceptance.run_all()", lambda: lib.acceptance.run_all(), check)]


# --- one pass ---------------------------------------------------------------


@dataclass
class PassStats:
    latencies: list = field(default_factory=list)
    pass_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    maxrss_kb: int = 0


def run_pass(ops: list[Op], stats: PassStats, timed: bool = True) -> None:
    """Run every op once, time it, then check its output (untimed)."""
    pass_time = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if error is None:
            try:
                op.check(out)
            except (O.Mismatch, ValueError, KeyError, TypeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            if isinstance(out, CliResult):
                stats.maxrss_kb = max(stats.maxrss_kb, out.maxrss_kb)
        pass_time += dt
        if timed:
            stats.latencies.append(dt)
            stats.attempted += 1
            stats.failed += error is not None
        if error is not None and op.fault is None:
            stats.unexpected.append(f"{op.label}: {error}")
    if timed:
        stats.pass_times.append(pass_time)
