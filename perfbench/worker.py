"""One pass of a workload, in a fresh process: the measured closed loop.

    python3 perfbench/worker.py <job.json> <result.json>

One client, one thread: each operation starts when the previous one has
returned.  Only the operation itself is timed; reading its input line
before and checking its answer after are not.  The job names the input
file, how many operations of the pass order to run (``ops``, null for
all), an optional budget of operation time after which no operation is
started, whether to check answers and whether to trace.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_TABLE = [(i * 40503 + 7) & 0xFFFF for i in range(1 << 16)]


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The machine's speed drifts by a quarter over tens of seconds (shared
    host), the same in wall and CPU time.  Timing this loop after every
    operation measures that drift, so run.py can express operation times
    at a reference speed.  Like the library, the loop looks up a 2^16-entry
    table (the GF(2^16) log/exp tables), builds small lists and updates a
    dict on tuple keys; of the loops tried, it tracked the drift of the
    workloads best.  Never change it: results stay comparable only while it
    stays the same.
    """
    # the collector's cost grows with the heap the library left behind;
    # it belongs to the operations, not to the machine's speed
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = _TABLE
        acc = 0
        rows = []
        for i in range(3000):
            x = table[(i * 2654435761) & 0xFFFF]
            y = table[(x * 31) & 0xFFFF]
            acc ^= table[(x + y) & 0xFFFF]
            rows.append([acc & 255, x & 255, y & 255])
        counts: dict = {}
        for r in rows:
            key = (r[0], r[1])
            counts[key] = counts.get(key, 0) ^ r[2]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def import_library():
    """Import dalg (and its CLI module) from this checkout's src/ only."""
    import dalg
    import dalg.cli  # noqa: F401  not imported by the package itself

    if SRC not in Path(dalg.__file__).resolve().parents:
        raise SystemExit(f"dalg was imported from {dalg.__file__}, not from {SRC}")
    return dalg


def _inputs(path):
    """Header, and a reader of input i that keeps only one text in memory."""
    offsets = []
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        while True:
            pos = fh.tell()
            if not fh.readline():
                break
            offsets.append(pos)

    def read(i):
        with open(path, "rb") as fh:
            fh.seek(offsets[i])
            return json.loads(fh.readline())

    return header, read


def run_pass(job):
    import tracer as tracing
    import workloads

    header, read = _inputs(job["inputs"])
    workload = header["workload"]
    op, to_answer, check = (
        workloads.OPS[workload], workloads.ANSWERS[workload], workloads.CHECKS[workload]
    )
    order = header["order"] if job["ops"] is None else header["order"][: job["ops"]]
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    clock = time.perf_counter
    latency, calib, ok, digests, errors, done = [], [], [], [], [], []
    verified: dict = {}
    spent = 0.0
    for index in order:
        if job["budget_s"] is not None and spent >= job["budget_s"]:
            break
        item = read(index)
        if tracer:
            tracer.active = True
        t0 = clock()
        try:
            result = op(item, header)
            failure = None
        except Exception as e:  # a failed operation is counted, not fatal
            result, failure = None, f"{type(e).__name__}: {e}"
        dt = clock() - t0
        if tracer:
            tracer.active = False
        spent += dt
        latency.append(dt)
        calib.append(calibrate())

        answer = None
        if failure is None:
            answer = to_answer(result)
            digest = hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()
            if not job["check"]:
                good = True  # the caller compares digests with a checked pass
            elif index in verified:
                good = digest == verified[index]
            else:
                try:
                    good = bool(check(item["expect"], answer))
                except Exception as e:
                    good, failure = False, f"check raised {type(e).__name__}: {e}"
                if good:
                    verified[index] = digest
            if not good and failure is None:
                failure = f"wrong answer for input {index}: {answer}"
        else:
            digest = "error"
        del result
        ok.append(failure is None)
        digests.append(digest)
        done.append((index, item, answer))
        if failure is not None and len(errors) < 5:
            errors.append(failure)

    complete = len(done) == len(header["order"])
    return {
        "latency_s": latency,
        "calib_s": calib,
        "ok": ok,
        "digests": digests,
        "errors": errors,
        "exact": workloads.exact_counts(workload, done) if complete else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.stats if tracer else None,
    }


def main(argv):
    with open(argv[1]) as fh:
        job = json.load(fh)
    import_library()
    result = run_pass(job)
    with open(argv[2], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
