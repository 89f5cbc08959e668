"""Steadiness check: run the benchmark several times per workload.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --workload search --runs 5 --sets 2

Each run uses another seed.  For every end-to-end metric it prints the
median of the runs, the first and third quartiles (``statistics.quantiles``,
n=4) and their distance as a share of the median, next to the metric's
bound from BENCHMARK.json: a spread below a third of the bound is steady.
With ``--sets 2`` a second set of runs (on fresh seeds) is made and the
drift of each median against the first set is printed too.  It also checks
that every run reports the same share of failed operations.  Run it from
the root of the checkout; it exits 1 if any spread or drift exceeds its
bound (``setup_s`` is held to its bound on drift only).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], name: str) -> tuple[float, float, float]:
    values = [r["metrics"][name]["value"] for r in results]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least 2 runs")

    ok = True
    seed = args.seed
    for workload in args.workload or names:
        sets = []
        for _ in range(args.sets):
            results = []
            for _ in range(args.runs):
                r = one_run(workload, seed, args.seconds)
                seed += 1
                print(json.dumps({"workload": workload, "seed": seed - 1, **r}), flush=True)
                results.append(r)
            sets.append(results)
        runs = [r for s in sets for r in s]
        fail_shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: correct={correct}, failed share(s) {sorted(map(str, fail_shares))}")
        ok = ok and correct and len(fail_shares) == 1
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, q1, q3 = summarize(sets[0], name)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "OVER"
            if name == "setup_s":
                verdict += " (spread not held to the bound)"
            elif spread > bound:
                ok = False
            line = f"  {name:<16}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}{bound:>7.2f}  {verdict}"
            if args.sets == 2:
                med2 = summarize(sets[1], name)[0]
                worse = (med2 - med) / med if metric["better"] == "lower" else (med - med2) / med
                line += f"; second median {med2:.4f}, worse by {worse:+.3f}"
                if worse > bound:
                    ok = False
                    line += " OVER"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
