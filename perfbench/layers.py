"""Per-layer spans and counters, recorded from the benchmark's own files.

``Tracer.install`` swaps each traced public function for a timing wrapper
at every binding of it inside the ``epicusp`` package, so a name that one
module imported from another (``eval_complex`` in each module that uses
it) is traced where it is called.  A function that no longer exists is
reported as absent.  Spans nest per thread: a span's self time is its
duration minus that of the spans inside it.  Time spent in the tracer's own
bookkeeping (computing an oracle count) is taken out of every open span.
Each thread sums into its own tables, merged when the metrics are read.
Threads of the program's pool add their own span time, so a layer's time
can exceed the wall time it covers.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from math import gcd

import numpy as np

import oracles as O

# (module, public function) pairs that get a span
TARGETS = (
    ("curve", "eval_complex"),
    ("singularity", "find_cusps"),
    ("singularity", "certify_cusp"),
    ("singularity", "undefined_derivative_set"),
    ("geometry", "self_intersections"),
    ("geometry", "verify_symmetry"),
    ("geometry", "grid_intersection_check"),
    ("parallel", "map_ordered"),
    ("winding", "winding_numeric"),
    ("winding", "kernel_integral"),
    ("render", "render_singularity_diagram"),
    ("render", "render_curve"),
)

# metric names that depend on each target, for absence reporting
METRICS_OF = {
    "curve.eval_complex": (
        "curve.eval_calls",
        "curve.eval_scalar_calls",
        "curve.eval_points",
        "curve.eval_self_ms",
        "curve.eval_scalar_us",
        "curve.eval_ns_per_point",
    ),
    "singularity.find_cusps": (
        "singularity.find_cusps_ms",
        "singularity.cusps_found",
        "singularity.cusps_expected",
    ),
    "singularity.certify_cusp": ("singularity.certify_cusp_ms", "singularity.certify_calls"),
    "singularity.undefined_derivative_set": (
        "singularity.undefined_derivative_set_ms",
        "singularity.udef_calls",
        "singularity.udef_roots",
    ),
    "geometry.self_intersections": (
        "geometry.self_intersections_ms",
        "geometry.intersections_found",
        "geometry.intersections_expected",
    ),
    "geometry.verify_symmetry": ("geometry.verify_symmetry_ms",),
    "geometry.grid_intersection_check": ("geometry.grid_intersection_check_ms",),
    "parallel.map_ordered": ("parallel.map_ordered_ms", "parallel.map_ordered_items"),
    "winding.winding_numeric": ("winding.winding_numeric_ms",),
    "winding.kernel_integral": ("winding.kernel_integral_ms",),
    "render.render_singularity_diagram": ("render.singularity_diagram_ms",),
    "render.render_curve": ("render.render_curve_ms",),
}

IMPORTS = {
    "epicusp": "import.epicusp_ms",
    "numpy": "import.numpy_ms",
    "scipy.spatial": "import.scipy_spatial_ms",
    "scipy.optimize": "import.scipy_optimize_ms",
}

CRITERIA = 11


class _ThreadData(threading.local):
    """One thread's span stack and sums, so that the hot path takes no lock."""

    def __init__(self, registry: list, lock: threading.Lock) -> None:
        self.frames: list[float] = []  # per open span: time of the spans inside it
        self.paused = 0.0
        self.sums = (defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(float))
        self.time, self.self_time, self.calls, self.counts = self.sums
        with lock:
            registry.append(self.sums)


class Tracer:
    def __init__(self) -> None:
        self._registry: list[tuple] = []
        self._local = _ThreadData(self._registry, threading.Lock())
        self.absent: list[str] = []
        self._oracle_sizes: dict[tuple[int, int], int] = {}

    # -- spans ----------------------------------------------------------------

    def wrap(self, key: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            frames = local.frames
            frames.append(0.0)
            paused0 = local.paused
            t0 = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0 - (local.paused - paused0)
                inner = frames.pop()
                if frames:
                    frames[-1] += dt
                local.time[key] += dt
                local.self_time[key] += dt - inner
                local.calls[key] += 1
            if note is not None:
                t1 = time.perf_counter()
                note(self, local.counts, args, kwargs, return_value, dt)
                local.paused += time.perf_counter() - t1
            return return_value

        return traced

    # -- installation -----------------------------------------------------------

    def install(self, lib) -> None:
        package = [m for name, m in sorted(sys.modules.items()) if name == "epicusp" or name.startswith("epicusp.")]
        for module_name, fn_name in TARGETS:
            key = f"{module_name}.{fn_name}"
            module = getattr(lib, module_name, None)
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.absent.extend(METRICS_OF[key])
                continue
            wrapper = self.wrap(key, fn, NOTES.get(key))
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
        criteria = getattr(lib.acceptance, "CRITERIA", None)
        if criteria is None:
            self.absent.extend(f"acceptance.c{i:02d}_ms" for i in range(1, CRITERIA + 1))
        else:
            for i, (name, fn) in enumerate(list(criteria)):
                criteria[i] = (name, self.wrap(f"acceptance.c{i + 1:02d}", fn))

    # -- oracle counts ------------------------------------------------------------

    def oracle_size(self, a: int, b: int) -> int:
        if (a, b) not in self._oracle_sizes:
            self._oracle_sizes[(a, b)] = len(O.intersection_oracle(a, b))
        return self._oracle_sizes[(a, b)]

    # -- metrics --------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of every span and counter metric, over all threads."""
        span_time, self_time, calls, c = (defaultdict(float) for _ in range(4))
        for sums in self._registry:
            for total, part in zip((span_time, self_time, calls, c), sums):
                for k, v in part.items():
                    total[k] += v
        p = float(passes)
        ms = lambda key: span_time[key] * 1e3 / p
        scalar_calls = c["eval_scalar_calls"]
        array_points = c["eval_points"] - scalar_calls
        out = {
            "curve.eval_calls": calls["curve.eval_complex"] / p,
            "curve.eval_scalar_calls": scalar_calls / p,
            "curve.eval_points": c["eval_points"] / p,
            "curve.eval_self_ms": self_time["curve.eval_complex"] * 1e3 / p,
            "curve.eval_scalar_us": c["eval_scalar_s"] * 1e6 / scalar_calls if scalar_calls else 0.0,
            "curve.eval_ns_per_point": c["eval_array_s"] * 1e9 / array_points if array_points else 0.0,
            "singularity.find_cusps_ms": ms("singularity.find_cusps"),
            "singularity.certify_cusp_ms": ms("singularity.certify_cusp"),
            "singularity.certify_calls": calls["singularity.certify_cusp"] / p,
            "singularity.cusps_found": c["cusps_found"] / p,
            "singularity.cusps_expected": c["cusps_expected"] / p,
            "singularity.undefined_derivative_set_ms": ms("singularity.undefined_derivative_set"),
            "singularity.udef_calls": calls["singularity.undefined_derivative_set"] / p,
            "singularity.udef_roots": c["udef_roots"] / p,
            "geometry.self_intersections_ms": ms("geometry.self_intersections"),
            "geometry.intersections_found": c["intersections_found"] / p,
            "geometry.intersections_expected": c["intersections_expected"] / p,
            "geometry.verify_symmetry_ms": ms("geometry.verify_symmetry"),
            "geometry.grid_intersection_check_ms": ms("geometry.grid_intersection_check"),
            "parallel.map_ordered_ms": ms("parallel.map_ordered"),
            "parallel.map_ordered_items": c["map_ordered_items"] / p,
            "winding.winding_numeric_ms": ms("winding.winding_numeric"),
            "winding.kernel_integral_ms": ms("winding.kernel_integral"),
            "render.singularity_diagram_ms": ms("render.render_singularity_diagram"),
            "render.render_curve_ms": ms("render.render_curve"),
            "render.svg_bytes": c["svg_bytes"] / p,
        }
        for i in range(1, CRITERIA + 1):
            out[f"acceptance.c{i:02d}_ms"] = ms(f"acceptance.c{i:02d}")
        for name in self.absent:
            out[name] = 0.0
        return out


# -- counters taken from arguments and results ------------------------------------


def _note_eval(tracer, counts, args, kwargs, result, dt):
    t = args[1] if len(args) > 1 else kwargs["t"]
    if isinstance(t, float):
        size, scalar = 1, True
    else:
        size, scalar = int(np.size(t)), np.ndim(t) == 0
    counts["eval_points"] += size
    if scalar:
        counts["eval_scalar_calls"] += 1
        counts["eval_scalar_s"] += dt
    else:
        counts["eval_array_s"] += dt


def _note_find_cusps(tracer, counts, args, kwargs, result, dt):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    counts["cusps_found"] += len(result)
    counts["cusps_expected"] += b - a


def _note_udef(tracer, counts, args, kwargs, result, dt):
    counts["udef_roots"] += len(result)


def _note_intersections(tracer, counts, args, kwargs, result, dt):
    spec = args[0] if args else kwargs["spec"]
    a, b, s = (getattr(spec, k, None) for k in ("a", "b", "s"))
    if s == 0 and a is not None and gcd(a, b) == 1:
        counts["intersections_found"] += len(result)
        counts["intersections_expected"] += tracer.oracle_size(a, b)


def _note_svg(tracer, counts, args, kwargs, result, dt):
    counts["svg_bytes"] += len(result)


def _note_map_ordered(tracer, counts, args, kwargs, result, dt):
    counts["map_ordered_items"] += len(result)


NOTES = {
    "curve.eval_complex": _note_eval,
    "singularity.find_cusps": _note_find_cusps,
    "singularity.undefined_derivative_set": _note_udef,
    "geometry.self_intersections": _note_intersections,
    "render.render_singularity_diagram": _note_svg,
    "render.render_curve": _note_svg,
    "parallel.map_ordered": _note_map_ordered,
}


# -- import times ---------------------------------------------------------------


def import_times(env: dict, runs: int = 3) -> tuple[dict[str, float], list[str]]:
    """Cumulative import times (ms, median of fresh processes) from -X importtime."""
    seen: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import epicusp"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            check=True,
        )
        this_run: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name in seen and name not in this_run:
                this_run[name] = int(parts[1]) / 1e3
        for name, value in this_run.items():
            seen[name].append(value)
    values = {IMPORTS[n]: statistics.median(v) if v else 0.0 for n, v in seen.items()}
    absent = [IMPORTS[n] for n, v in seen.items() if not v]
    return values, absent
