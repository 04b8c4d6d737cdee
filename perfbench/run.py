"""Benchmark of the dalg library: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Sets up (input generation in a fresh process, nine times, each right after
the reference set-up in ``reference.py``), then runs passes over the
inputs in fresh worker processes until ``--seconds`` of operation time is
spent.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs half a pass untraced and the
same operations traced, and reports the per-layer metrics.  Operation and
set-up times are reported at a reference machine speed
(``at_reference_speed``, ``setup_at_reference_speed``).  Every answer is
checked.  The last line of standard output is one JSON object; see
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("classify", "decompose", "envelope", "cli_quotient")
# set-ups per run, each paired with the reference set-up run just before it
SETUP_PAIRS = 9
# reference.py takes about this long on the machine described in
# README.md; set-up times are reported at the speed at which it takes
# exactly this long
REF_SETUP_S = 0.165
CHILD_TIMEOUT_S = 170
# worker.calibrate() takes about this long right after an operation on the
# machine described in README.md; operation times are reported at the
# speed at which it takes exactly this long
REF_CALIB_S = 0.005
# an operation's speed is the median calibration of the 2 * SPEED_HALF + 1
# operations around it: long enough to drop jitter, short against drift
SPEED_HALF = 4

sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402


class BenchError(RuntimeError):
    """A step of the benchmark itself failed; no result is printed."""


def _child(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def setup(workload, seed, tag):
    """Generate the inputs SETUP_PAIRS times, each right after a reference
    set-up; returns the file, the set-up times and the reference times.
    Every copy of the file must be identical to every other."""
    path = WORK / f"{tag}.jsonl"
    times, refs, shas = [], [], set()
    for _ in range(SETUP_PAIRS):
        refs.append(json.loads(_child([str(BENCH / "reference.py")]))["reference_s"])
        out = json.loads(_child([str(BENCH / "gen.py"), workload, str(seed), str(path)]))
        times.append(out["setup_s"])
        shas.add(out["sha256"])
    if len(shas) != 1:
        raise BenchError(f"input generation for {workload} seed {seed} is not deterministic")
    return path, times, refs


def setup_at_reference_speed(times, refs):
    """Set-up time at the speed at which reference.py takes REF_SETUP_S.

    Each set-up is divided by the reference set-up timed just before it,
    so both see the same stretch of the machine's speed; the median of
    these ratios drops the odd slow process."""
    return REF_SETUP_S * statistics.median(t / r for t, r in zip(times, refs))


def run_worker(inputs, tag, ops=None, budget_s=None, check=True, trace=False):
    job_path = WORK / f"{tag}-job.json"
    result_path = WORK / f"{tag}-result.json"
    job = {"inputs": str(inputs), "ops": ops, "budget_s": budget_s, "check": check, "trace": trace}
    job_path.write_text(json.dumps(job))
    try:
        _child([str(BENCH / "worker.py"), str(job_path), str(result_path)])
        return json.loads(result_path.read_text())
    finally:
        job_path.unlink()
        result_path.unlink(missing_ok=True)


def at_reference_speed(result):
    """Operation times of a pass scaled to the reference machine speed."""
    lat, cal = result["latency_s"], result["calib_s"]
    return [
        t * REF_CALIB_S / statistics.median(cal[max(0, i - SPEED_HALF): i + SPEED_HALF + 1])
        for i, t in enumerate(lat)
    ]


def _same_answers(reference, result):
    """An unchecked pass inherits the checked pass's verdicts: an operation
    fails if it failed there or if its answer differs."""
    for i, digest in enumerate(result["digests"]):
        if result["ok"][i] and (not reference["ok"][i] or digest != reference["digests"][i]):
            result["ok"][i] = False
            if len(result["errors"]) < 5:
                result["errors"].append(f"operation {i} answered differently from the checked pass")


def wall_clock(passes):
    """Raw wall-clock figures of untraced passes, and their median
    calibration time: what the reference-speed figures were scaled from."""
    wall_ms = [t * 1000 for p in passes for t in p["latency_s"]]
    correct = sum(sum(p["ok"]) for p in passes)
    cuts = statistics.quantiles(wall_ms, n=100)
    return {
        "wall.ops_per_s": (correct * 1000 / sum(wall_ms), "1/s"),
        "wall.op_p50_ms": (cuts[49], "ms"),
        "wall.op_p90_ms": (cuts[89], "ms"),
        "calib.op_ms": (1000 * statistics.median(c for p in passes for c in p["calib_s"]), "ms"),
    }


def measure(inputs, tag, seconds):
    """Closed-loop passes until `seconds` of operation time is spent."""
    first = run_worker(inputs, tag)
    passes = [first]
    spent = sum(first["latency_s"])
    while spent < seconds:
        more = run_worker(inputs, tag, budget_s=seconds - spent, check=False)
        if not more["latency_s"]:
            break
        _same_answers(first, more)
        passes.append(more)
        spent += sum(more["latency_s"])
    latency_ms = [t * 1000 for p in passes for t in at_reference_speed(p)]
    attempted = len(latency_ms)
    correct = sum(sum(p["ok"]) for p in passes)
    cuts = statistics.quantiles(latency_ms, n=100)
    metrics = {
        "ops_per_s": (correct * 1000 / sum(latency_ms), "1/s"),
        "op_p50_ms": (cuts[49], "ms"),
        "op_p90_ms": (cuts[89], "ms"),
        "fail_frac": ((attempted - correct) / attempted, "fraction"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    metrics.update(wall_clock(passes))
    return {
        "attempted": attempted,
        "failed": attempted - correct,
        "errors": [e for p in passes for e in p["errors"]][:5],
        "exact": first["exact"],
        "passes": len(passes),
        "beyond_p90": sum(1 for t in latency_ms if t > cuts[89]),
        "metrics": metrics,
    }


def measure_traced(inputs, tag, seconds, n_ops):
    """Half a pass untraced, then the same operations traced, until `seconds`."""
    half = (n_ops + 1) // 2
    plain_s = traced_s = 0.0
    units, attempted, failed, errors, plains = 0, 0, 0, [], []
    totals = tracing.Tracer()
    wall_s = 0.0
    while units == 0 or wall_s < seconds:
        plain = run_worker(inputs, tag, ops=half)
        traced = run_worker(inputs, tag, ops=half, check=False, trace=True)
        _same_answers(plain, traced)
        plains.append(plain)
        wall_s += sum(plain["latency_s"]) + sum(traced["latency_s"])
        for r in (plain, traced):
            attempted += len(r["ok"])
            failed += r["ok"].count(False)
            errors += r["errors"]
        plain_s += sum(at_reference_speed(plain))
        traced_s += sum(at_reference_speed(traced))
        scale = REF_CALIB_S / statistics.median(traced["calib_s"])
        for name, stats in traced["trace"].items():
            acc = totals.stats.setdefault(name, {})
            for key, value in stats.items():
                # counts stay whole; times go to the reference speed
                acc[key] = acc.get(key, 0) + (value if isinstance(value, int) else value * scale)
        units += 1
    per_unit = {}
    for name, value in totals.metrics().items():
        # counts repeat exactly from unit to unit
        per_unit[name] = value // units if isinstance(value, int) else value / units
    metrics = {name: (per_unit[name], unit) for name, unit in tracing.PER_LAYER}
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    metrics.update(wall_clock(plains))
    return {
        "attempted": attempted, "failed": failed, "errors": errors[:5],
        "exact": None, "passes": 2 * units, "metrics": metrics,
    }


def run_workload(workload, seed, seconds, trace):
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}"
    try:
        inputs, times, refs = setup(workload, seed, tag)
        with open(inputs) as fh:
            n_ops = len(json.loads(fh.readline())["order"])
        res = measure_traced(inputs, tag, seconds, n_ops) if trace else measure(inputs, tag, seconds)
    finally:
        (WORK / f"{tag}.jsonl").unlink(missing_ok=True)
    res["metrics"].update({
        "setup_s": (setup_at_reference_speed(times, refs), "s"),
        "wall.setup_s": (statistics.median(times), "s"),
        "calib.setup_s": (statistics.median(refs), "s"),
    })
    return res


def declared(trace):
    """Names and units of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload, seed, seconds, trace, res):
    print(f"workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {trace}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name}: {value:.6g} {unit}")
    line = f"  operations: {res['attempted']} in {res['passes']} passes, {res['failed']} failed"
    if "beyond_p90" in res:
        line += f", {res['beyond_p90']} beyond p90"
    print(line)
    for err in res["errors"]:
        print(f"  error: {err}")
    if res["exact"] is not None:
        print("  exact: " + json.dumps(res["exact"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="operation time to measure")
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        want = declared(args.trace)
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(args.workload, args.seed, args.seconds, args.trace, res)
        metrics = {}
        for name, unit in want.items():
            if name not in res["metrics"] or res["metrics"][name][1] != unit:
                raise BenchError(f"metric {name} ({unit}) was not measured")
            metrics[name] = {"value": res["metrics"][name][0], "unit": unit}
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
