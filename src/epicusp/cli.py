"""Command-line interface.

Every analysis result goes to stdout as JSON (or JSON lines); anything
human-facing goes to stderr.  Exit codes: 0 success, 1 analysis error
(with a JSON error object on stdout) or a reader that closed stdout
early (no traceback), 2 usage error, 3 verification failure.

Only the standard library, errors and the numpy-free spec module are
imported up front, and fractions only to parse a weight written as p/q.
Each handler imports the module it calls, so a cold `epicusp wind`
without --numeric or --z0, `epicusp cusps` and `epicusp intersect -s 0`,
which print closed forms and integer listings from spec, and `epicusp
plot` and `epicusp sweep`, whose render module samples curves in plain
Python, never load numpy.  numpy is loaded by `wind --numeric` or
`--z0`, `symmetry`, `intersect` at any other weight, and `verify`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import CurveAnalysisError
from .spec import PlanePoint, TwoTermSpec, _balanced_intersections, find_cusps, predicted_cusp_locus
from .spec import winding_closed_form

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _parse_s(text: str) -> float:
    """Weight parameter as a decimal or an exact rational like -1/2."""
    try:
        if "/" in text:
            from fractions import Fraction

            value = float(Fraction(text))
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not -1.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("s must lie in [-1, 1]")
    return value


def _parse_z0(text: str) -> PlanePoint:
    """Base point as x,y with finite coordinates."""
    try:
        x, y = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a point x,y: {text!r}") from exc
    if not (math.isfinite(x) and math.isfinite(y)):
        raise argparse.ArgumentTypeError("z0 coordinates must be finite")
    return PlanePoint(x, y)


def _fuse_rational_flags(argv: list[str]) -> list[str]:
    # argparse treats a detached "-1/2" or "-1,2" as a new flag; re-attach
    # values with a leading dash to their option (argparse also takes the
    # abbreviation --z for --z0)
    fused = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (
            arg in ("-s", "-a", "-b", "-n", "--z", "--z0")
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and len(argv[i + 1]) > 1
            and argv[i + 1][1] in "0123456789."
        ):
            fused.append(f"{arg}={argv[i + 1]}" if arg.startswith("--") else arg + argv[i + 1])
            i += 2
        else:
            fused.append(arg)
            i += 1
    return fused


def _add_ab(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-a", type=int, required=True, help="lower frequency, >= 1")
    parser.add_argument("-b", type=int, required=True, help="upper frequency, > a")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epicusp",
        description="Analysis of two-term exponential-sum plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wind", help="winding number about a base point")
    _add_ab(p)
    p.add_argument("-s", type=_parse_s, required=True, help="weight in [-1, 1]")
    p.add_argument(
        "--z0", type=_parse_z0, default="0,0", help="base point as x,y (default origin)"
    )
    p.add_argument("--numeric", action="store_true", help="force argument tracking")
    p.add_argument("-n", type=int, default=4096, help="grid size for --numeric")

    p = sub.add_parser("cusps", help="locate and certify cusps")
    _add_ab(p)
    p.add_argument("--predicted-only", action="store_true", help="print the locus only")

    p = sub.add_parser("symmetry", help="verify the dihedral symmetry identities")
    _add_ab(p)
    p.add_argument("-s", type=_parse_s, required=True)
    p.add_argument("-n", type=int, default=1024)

    p = sub.add_parser("intersect", help="find self-intersections")
    _add_ab(p)
    p.add_argument("-s", type=_parse_s, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("plot", help="render one curve to SVG")
    _add_ab(p)
    p.add_argument("-s", type=_parse_s, required=True)
    p.add_argument("-n", type=int, default=1024, help="polyline samples")
    p.add_argument("--out", required=True, help="output SVG path")

    p = sub.add_parser("sweep", help="render a panel of curves over a weight sweep")
    _add_ab(p)
    p.add_argument("--count", type=int, default=21, help="number of weights in [-1, 1]")
    p.add_argument("--out", required=True, help="output SVG path")

    sub.add_parser("verify", help="run the full verification suite")
    return parser


def _cmd_wind(args) -> int:
    spec = TwoTermSpec(args.a, args.b, args.s)
    if args.numeric or args.z0 != (0.0, 0.0):
        from . import winding

        result = winding.winding_numeric(spec, args.z0, n=args.n)
        payload = {
            "value": result.value,
            "residual": result.residual,
            "samples": result.samples,
            "method": "numeric",
        }
    else:
        payload = {"value": winding_closed_form(spec), "method": "closed_form"}
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_cusps(args) -> int:
    if args.predicted_only:
        locus = predicted_cusp_locus(args.a, args.b)
        print(
            json.dumps(
                {
                    "s": float(locus.s_bar),
                    "t": [float(t) for t in locus.t_values],
                    "proven": locus.proven,
                }
            )
        )
        return EXIT_OK
    for cert in find_cusps(args.a, args.b):
        print(
            json.dumps(
                {
                    "s": cert.s,
                    "t": cert.t,
                    "flip_dot": cert.flip_dot,
                    "proven": cert.proven,
                }
            )
        )
    return EXIT_OK


def _cmd_symmetry(args) -> int:
    from . import geometry

    report = geometry.verify_symmetry(TwoTermSpec(args.a, args.b, args.s), n=args.n)
    print(
        json.dumps(
            {
                "claimed_order": report.claimed_order,
                "rotation_deviation": report.rotation_deviation,
                "reflection_deviation": report.reflection_deviation,
                "coprime": report.coprime,
                "degenerate": report.degenerate,
                "verified": report.verified,
            }
        )
    )
    return EXIT_OK


def _cmd_intersect(args) -> int:
    spec = TwoTermSpec(args.a, args.b, args.s)
    if spec.s == 0.0:
        records = _balanced_intersections(spec)
    else:
        from . import geometry

        records = geometry.self_intersections(spec)
    if args.format == "csv":
        sys.stdout.write("t1,t2,x,y,on_grid\r\n")
        for r in records:
            sys.stdout.write(
                "%.17g,%.17g,%.17g,%.17g,%s\r\n"
                % (r.t1, r.t2, r.point.x, r.point.y, str(r.on_rational_grid).lower())
            )
        return EXIT_OK
    for r in records:
        print(
            json.dumps(
                {
                    "t1": r.t1,
                    "t2": r.t2,
                    "x": r.point.x,
                    "y": r.point.y,
                    "on_rational_grid": r.on_rational_grid,
                    "grid_index_pair": list(r.grid_index_pair) if r.grid_index_pair else None,
                }
            )
        )
    return EXIT_OK


def _write_out(path: str, doc: str) -> None:
    """Write an SVG document to --out.

    A path that cannot be written (a missing directory, a closed FIFO) is
    an analysis error, so main's broken-pipe handler only ever sees stdout.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        raise CurveAnalysisError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_plot(args) -> int:
    from . import render

    doc = render.render_curve([TwoTermSpec(args.a, args.b, args.s)], samples=args.n)
    _write_out(args.out, doc)
    print(json.dumps({"out": args.out, "bytes": len(doc)}))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import render

    if args.count < 2:
        raise CurveAnalysisError("need at least 2 weights in the sweep")
    # count curves of 1024 samples each stay within the most that -n allows
    most = render.MAX_GRID_SAMPLES // 1024
    if args.count > most:
        raise CurveAnalysisError(f"need at most {most} weights in the sweep")
    weights = [-1.0 + 2.0 * i / (args.count - 1) for i in range(args.count)]
    specs = [TwoTermSpec(args.a, args.b, s) for s in weights]
    doc = render.render_curve(specs)
    _write_out(args.out, doc)
    print(json.dumps({"out": args.out, "curves": len(specs), "bytes": len(doc)}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    for r in results:
        print(
            json.dumps(
                {
                    "criterion": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                }
            )
        )
    failed = [r for r in results if not r.passed]
    print(json.dumps({"total": len(results), "failed": len(failed)}))
    return EXIT_OK if not failed else EXIT_VERIFY


_HANDLERS = {
    "wind": _cmd_wind,
    "cusps": _cmd_cusps,
    "symmetry": _cmd_symmetry,
    "intersect": _cmd_intersect,
    "plot": _cmd_plot,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_fuse_rational_flags(argv))
    a = getattr(args, "a", None)
    if a is not None and not 1 <= args.a < args.b:
        parser.error("need 1 <= a < b")
    try:
        code = _run(args)
        # a reader that has gone away is met here, not in the final flush
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush of what
        # is left cannot raise again (the note on SIGPIPE in the signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_ANALYSIS
    return code


def _run(args) -> int:
    try:
        return _HANDLERS[args.command](args)
    except CurveAnalysisError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_ANALYSIS
    except ValueError as exc:
        print(json.dumps({"error": "ValueError", "message": str(exc)}))
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
