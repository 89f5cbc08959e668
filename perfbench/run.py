"""Benchmark of epicusp, run from the root of a source checkout.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --check-only

The package is imported from ``src/`` (it is not installed) and no
``EPICUSP_*`` variable is passed on.  Each run first measures set-up: the
median time of five fresh interpreters that ``import epicusp``.  It then
repeats whole passes of the workload's operations, one at a time, until
``--seconds`` have gone by, and checks every output.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics, end to end with ``--trace 0`` and per layer with
``--trace 1``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = ("cli-cold", "search", "verify")
SETUP_RUNS = 5
CLI_INPROCESS_PASSES = 3


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("EPICUSP_")}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> float:
    """Median spawn-to-exit time of `python3 -c "import epicusp"`, after one
    untimed run that fills the file cache and writes bytecode."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import epicusp"], env=env, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def load_lib(src: str) -> SimpleNamespace:
    sys.path.insert(0, src)
    lib = SimpleNamespace()
    for name in ("curve", "singularity", "geometry", "parallel", "winding", "render", "acceptance", "cli"):
        try:
            setattr(lib, name, importlib.import_module(f"epicusp.{name}"))
        except ModuleNotFoundError as exc:
            if exc.name != f"epicusp.{name}":
                raise
            setattr(lib, name, None)
    lib.TwoTermSpec = lib.curve.TwoTermSpec
    return lib


def timed_passes(ops: list, seconds: float, min_passes: int = 1) -> tuple[W.PassStats, int]:
    stats = W.PassStats()
    passes = 0
    end = time.perf_counter() + seconds
    while passes < min_passes or time.perf_counter() < end:
        W.run_pass(ops, stats)
        passes += 1
    return stats, passes


def build_ops(workload: str, seed: int, lib, env: dict, out_dir: str) -> tuple[list, int]:
    """The pass for a workload and the fewest passes a run makes (the CLI
    mix runs twice so that repeated documents are compared byte for byte)."""
    if workload == "cli-cold":
        return W.cli_ops(seed, out_dir, env), 2
    if workload == "search":
        return W.search_ops(seed, lib), 1
    return W.verify_ops(lib), 1


def end_to_end(workload: str, stats: W.PassStats, setup_s: float) -> dict:
    if workload == "cli-cold":
        rss_kb = stats.maxrss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(stats), "1/s"),
        "latency_p50_ms": (statistics.median(stats.latencies) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def ops_per_s(stats: W.PassStats) -> float:
    """Operations of a pass over the median time of a pass."""
    return stats.attempted / len(stats.pass_times) / statistics.median(stats.pass_times)


def shares(ops: list, stats: W.PassStats) -> dict:
    """Each operation's share of the time of a pass, in percent."""
    n = len(ops)
    per_op = [sum(stats.latencies[i::n]) for i in range(n)]
    total = sum(per_op)
    return {op.label: round(100.0 * t / total, 1) for op, t in zip(ops, per_op)}


def traced_run(workload, ops, min_passes, seconds, lib, env, seed, out_dir) -> tuple[dict, W.PassStats, dict]:
    """Half the time untraced, half traced; per-layer metrics per traced pass.

    The cold CLI commands run in children that the tracer cannot see, so for
    cli-cold the library layers come from the same command mix run through
    ``cli.main`` in this process, after one untraced warm-up pass of it.
    """
    metrics, absent = layers.import_times(env)
    plain, _ = timed_passes(ops, seconds / 2, min_passes)
    if workload == "cli-cold":
        stdout_bytes: list[int] = []

        def in_process(argv):
            res = W.run_in_process(lib.cli.main, argv)
            stdout_bytes.append(len(res.stdout.encode()))
            return res

        cold_checks = {op.label: op.check for op in ops}
        inproc = [
            W.Op(label, lambda argv=argv: in_process(argv), cold_checks[label])
            for label, argv, _ in W.cli_commands(seed, out_dir)
        ]
        W.run_pass(inproc, plain, timed=False)
        stdout_bytes.clear()
    tracer = layers.Tracer()
    tracer.install(lib)
    traced, passes = timed_passes(ops, seconds / 2, min_passes)
    metrics["cli.work_ms"] = metrics["cli.stdout_bytes"] = 0.0
    if workload == "cli-cold":
        work = W.PassStats()
        for _ in range(CLI_INPROCESS_PASSES):
            W.run_pass(inproc, work)
        traced.unexpected += work.unexpected
        passes = CLI_INPROCESS_PASSES
        metrics["cli.work_ms"] = statistics.median(work.latencies) * 1e3
        metrics["cli.stdout_bytes"] = sum(stdout_bytes) / passes
    metrics.update(tracer.metrics(passes))
    untraced_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
    metrics["trace.ops_per_s_untraced"] = untraced_rate
    metrics["trace.ops_per_s_traced"] = traced_rate
    stats = W.PassStats(
        latencies=plain.latencies + traced.latencies,
        pass_times=plain.pass_times + traced.pass_times,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        unexpected=plain.unexpected + traced.unexpected,
    )
    report = {
        "absent": absent + tracer.absent,
        "trace_overhead_pct": round(100.0 * (untraced_rate / traced_rate - 1.0), 2),
    }
    return metrics, stats, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--check-only", action="store_true", help="one pass of every workload, all checks, no timing"
    )
    args = parser.parse_args(argv)
    if not args.check_only and args.workload is None:
        parser.error("--workload is required unless --check-only is given")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "epicusp", "__init__.py")):
        print("perfbench: src/epicusp not found; run from the root of an epicusp checkout", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("EPICUSP_")]:
        del os.environ[key]
    env = child_env(src)

    runs_dir = os.path.join(root, "perfbench", "runs")
    os.makedirs(runs_dir, exist_ok=True)
    out_dir = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=runs_dir), root)
    try:
        if args.check_only:
            return check_only(args.seed, src, env, out_dir)
        return bench(args, src, env, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def check_only(seed: int, src: str, env: dict, out_dir: str) -> int:
    lib = load_lib(src)
    ok = True
    for workload in WORKLOADS:
        ops, min_passes = build_ops(workload, seed, lib, env, out_dir)
        stats = W.PassStats()
        for _ in range(min_passes):
            W.run_pass(ops, stats)
        known = sorted({op.label for op in ops if op.fault})
        print(
            json.dumps(
                {
                    "workload": workload,
                    "correct": not stats.unexpected,
                    "attempted": stats.attempted,
                    "failed": stats.failed,
                    "known_faults": known,
                    "unexpected": stats.unexpected,
                }
            )
        )
        ok = ok and not stats.unexpected
    return 0 if ok else 1


def bench(args, src: str, env: dict, out_dir: str) -> int:
    setup_s = None if args.trace else measure_setup(env)
    lib = load_lib(src)
    ops, min_passes = build_ops(args.workload, args.seed, lib, env, out_dir)
    warm_up = W.PassStats()
    if args.workload != "cli-cold":
        W.run_pass(ops, warm_up, timed=False)  # checked but not timed
    report: dict = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        values, stats, extra = traced_run(
            args.workload, ops, min_passes, args.seconds, lib, env, args.seed, out_dir
        )
        report.update(extra)
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        stats, _ = timed_passes(ops, args.seconds, min_passes)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(args.workload, stats, setup_s).items()
        }
        if args.workload == "search":
            report["share_pct"] = shares(ops, stats)
    stats.unexpected[:0] = warm_up.unexpected
    report["unexpected_failures"] = stats.unexpected
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": not stats.unexpected,
                "attempted": stats.attempted,
                "failed": stats.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def bench_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
