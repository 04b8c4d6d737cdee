"""Steadiness check of the benchmark across seeds and across sets of runs.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--sets N]

Runs ``run.py --trace 0`` once per seed and workload, ``--sets`` times
over (a set is every seed of one workload).  For each end-to-end metric it
prints the median of each set and the spread of its values (distance
between the first and third quartile, as a share of the median) against
the metric's bound in BENCHMARK.json.  Exits 1 if an operation failed, if
a spread exceeds its bound, if a later set's median is worse than the
first set's by more than the bound, or if the exact counts printed on a
run's ``exact:`` line differ between sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    exact = next(json.loads(line.split("exact: ", 1)[1]) for line in lines if "exact: " in line)
    return result, exact


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec, workload, seeds):
    """Values of every end-to-end metric over the seeds, and exact counts."""
    values: dict = {m["name"]: [] for m in spec["end_to_end"]}
    exact, ok = {}, True
    for seed in seeds:
        result, exact[seed] = run_once(spec, workload, seed)
        if not result["correct"]:
            print(f"{workload} seed {seed}: {result['failed']} failed operations")
            ok = False
        metrics = result["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{name} {metrics[name]['value']:.4g} {metrics[name]['unit']}" for name in values)
            + f"  fail_frac {fail_frac:.3g}", flush=True)
    return values, exact, ok


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values, exact, good = run_set(spec, workload, seeds)
            sets.append((values, exact))
            ok = ok and good
        for m in spec["end_to_end"]:
            first_med = None
            for n, (values, _) in enumerate(sets, 1):
                vals = values[m["name"]]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med
                verdict = ("ok" if spread <= m["bound"] / 3
                           else "within bound" if spread <= m["bound"] else "TOO WIDE")
                line = (f"  {workload} {m['name']} set {n}: median {med:.4g} {m['unit']},"
                        f" spread {spread:.3f} (bound {m['bound']}, a third {m['bound'] / 3:.3f}): {verdict}")
                ok = ok and verdict != "TOO WIDE"
                if first_med is None:
                    first_med = med
                else:
                    worse = (med - first_med) / first_med
                    if m["better"] == "higher":
                        worse = -worse
                    line += f"; worse than set 1 by {worse:+.3f}"
                    if worse > m["bound"]:
                        line += ": TOO MUCH"
                        ok = False
                print(line)
        for _, exact in sets[1:]:
            same = exact == sets[0][1]
            ok = ok and same
            print(f"  {workload} exact counts repeat across sets: {'yes' if same else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
