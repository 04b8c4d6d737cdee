"""Self-tests of the benchmark: its checker, its tracer and its inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for p in (str(BENCH.parent / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import import_library  # noqa: E402

import_library()

_POOLS: dict = {}


def pool(workload):
    """Header and inputs of one pass, generated once per test run."""
    if workload not in _POOLS:
        header, inputs = gen.GENERATORS[workload](random.Random(f"{workload}:7"))
        _POOLS[workload] = (header, inputs)
    return _POOLS[workload]


def first(workload, pred=lambda item: True):
    header, inputs = pool(workload)
    return header, next(item for item in inputs if pred(item))


def run_op(workload, header, item):
    return workloads.ANSWERS[workload](workloads.OPS[workload](item, header))


def test_checker_accepts_real_and_rejects_tampered_answers():
    check = workloads.CHECKS
    header, item = first("classify", lambda it: it["expect"]["extended"])
    ans = run_op("classify", header, item)
    assert check["classify"](item["expect"], ans)
    for key, bad in (("extended", False), ("canonical", False), ("iso", False), ("k", 8)):
        assert not check["classify"](item["expect"], dict(ans, **{key: bad})), key

    header, item = first("decompose")
    ans = run_op("decompose", header, item)
    assert check["decompose"](item["expect"], ans)
    assert not check["decompose"](item["expect"], dict(ans, defects=ans["defects"][:-1]))
    assert not check["decompose"](item["expect"], dict(ans, dims=[1] + ans["dims"][1:]))
    assert not check["decompose"](item["expect"], dict(ans, total_defect=ans["total_defect"] + 1))

    for op in ("pbw", "confluence"):
        header, item = first("envelope", lambda it: it["op"] == op)
        ans = run_op("envelope", header, item)
        assert check["envelope"](item["expect"], ans)
        assert not check["envelope"](item["expect"], dict(ans, passed=False))
        key = "relations" if op == "pbw" else "words"
        assert not check["envelope"](item["expect"], dict(ans, **{key: ans[key] - 1}))

    header, item = first("cli_quotient", lambda it: it["argv"][0] == "invariants")
    ans = run_op("cli_quotient", header, item)
    assert check["cli_quotient"](item["expect"], ans)
    assert not check["cli_quotient"](item["expect"], dict(ans, code=3))
    bad = copy.deepcopy(ans)
    bad["report"]["defect"] = "2"
    assert not check["cli_quotient"](item["expect"], bad)

    header, item = first("cli_quotient", lambda it: it["argv"][0] == "present")
    ans = run_op("cli_quotient", header, item)
    assert check["cli_quotient"](item["expect"], ans)
    bad = copy.deepcopy(ans)
    bad["report"]["source"] = "P(2,0) / [x1^2, x2^2, x1 x2, xi1 x1, xi2 x2, xi1 x2 + xi2 x1] @ deg 4"
    assert not check["cli_quotient"](item["expect"], bad)


def test_tracer_rebinds_every_site_and_restores_them():
    import dalg
    from dalg import algebra, dim7, linalg, polyd, structure

    original = linalg.rref_rows
    assert tracing.unwrapped_bindings(), "nothing to find before install"
    undo = tracing.install(tracing.Tracer())
    try:
        assert tracing.unwrapped_bindings() == []
        for holder in (linalg, polyd):
            assert holder.rref_rows.__wrapped__ is original
        assert dalg.quad_roots is dim7.quad_roots  # the package re-export too
        assert algebra.nullspace_rows.__wrapped__ is linalg.nullspace_rows.__wrapped__
        assert structure.poly_roots.__wrapped__ is dalg.unipoly.poly_roots.__wrapped__
        assert dim7.quad_roots.__wrapped__ is dalg.gf2k.quad_roots.__wrapped__
        assert hasattr(vars(algebra.DAlgebra)["verify"], "__wrapped__")
    finally:
        tracing.uninstall(undo)
    assert linalg.rref_rows is original and polyd.rref_rows is original


def test_recursive_spans_split_self_time():
    t = tracing.Tracer()

    def rec(n):
        time.sleep(0.01)
        return wrapped(n - 1) if n else 0

    wrapped = t.wrap("toy.rec", rec)
    t.active = True
    start = time.perf_counter()
    wrapped(3)
    wall = time.perf_counter() - start
    stats = t.stats["toy.rec"]
    assert stats["calls"] == 4
    # durations nest (0.04 + 0.03 + 0.02 + 0.01); self times do not
    assert 0.035 < stats["self_s"] <= wall


def test_traced_answers_equal_untraced_and_counts_hold():
    header, item = first("classify", lambda it: it["expect"]["extended"])
    plain = run_op("classify", header, item)
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        t.active = True
        start = time.perf_counter()
        traced = run_op("classify", header, item)
        wall = time.perf_counter() - start
        t.active = False
    finally:
        tracing.uninstall(undo)
    assert traced == plain
    m = t.metrics()
    assert m["dim7.normalize7.calls"] == 2  # the doubled field runs it again
    assert m["gf2k.field_extend.calls"] == 1
    assert m["gf2k.quad_roots.no_root"] >= 1
    total_self = sum(s["self_s"] for s in t.stats.values())
    assert total_self <= wall

    for workload in ("decompose", "envelope", "cli_quotient"):
        header, inputs = pool(workload)
        for item in inputs[:2]:
            plain = run_op(workload, header, item)
            t = tracing.Tracer()
            undo = tracing.install(t)
            try:
                t.active = True
                traced = run_op(workload, header, item)
            finally:
                tracing.uninstall(undo)
            assert traced == plain
            assert t.metrics()["gf2k.quad_roots.calls"] == 0
            assert t.metrics()["dim7.make_D.calls"] == 0


def test_generation_is_deterministic_and_seeded():
    a = gen.GENERATORS["envelope"](random.Random("envelope:3"))
    b = gen.GENERATORS["envelope"](random.Random("envelope:3"))
    c = gen.GENERATORS["envelope"](random.Random("envelope:4"))
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a) != json.dumps(c)


def test_family_tensors_match_make_d():
    from dalg import field
    from dalg.dim7 import make_D

    fam = gen.DFamily()
    for k in (1, 8, 16):
        ctx = field(k)
        rng = random.Random(k)
        for _ in range(3):
            h, kk, p = ctx.rand(rng), ctx.rand(rng), ctx.rand(rng)
            made = make_D(ctx, h, kk, p)
            assert fam.tensor(h, kk, p) == made.tensor
            assert fam.dcols == [made.dmat.col(j) for j in range(made.n)]


def test_unchecked_pass_inherits_failures_and_reference_speed_scales():
    import run

    reference = {"ok": [True, False, True], "digests": ["a", "b", "c"]}
    later = {"ok": [True, True, True], "digests": ["a", "b", "x"], "errors": []}
    run._same_answers(reference, later)
    assert later["ok"] == [True, False, False]

    ref = run.REF_CALIB_S
    result = {"latency_s": [0.1, 0.2, 0.3], "calib_s": [ref, ref, ref]}
    assert run.at_reference_speed(result) == [0.1, 0.2, 0.3]
    slow = {"latency_s": [0.2, 0.4, 0.6], "calib_s": [2 * ref] * 3}
    assert [round(t, 12) for t in run.at_reference_speed(slow)] == [0.1, 0.2, 0.3]

    # set-ups: each is divided by the reference set-up just before it
    refs = [run.REF_SETUP_S, 2 * run.REF_SETUP_S, 9 * run.REF_SETUP_S]
    assert round(run.setup_at_reference_speed([0.5, 1.0, 0.1], refs), 12) == 0.5


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[n] == u for n, u in tracing.PER_LAYER)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_each_mode_reports_exactly_the_declared_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench(BENCH.parent, "--workload", "cli_quotient", "--seed", "1",
                      "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        if group == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _bench(tmp, "--workload", "envelope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as e:  # report every test, then fail
                failed += 1
                print(f"FAIL {name}: {type(e).__name__}: {e}")
    sys.exit(1 if failed else 0)
