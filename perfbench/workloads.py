"""One operation per workload, and the check of its answer.

``OPS[w](item, header)`` is the timed operation: it starts from the
input's text and returns what the library returned.  ``answer`` turns that
into plain facts (outside the timed region) and ``check`` compares the
facts with what the generator built, never with another call of the
function being measured.  The library is reached through its modules at
call time, so a tracer that rebinds module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# -- classify -------------------------------------------------------------------


def op_classify(item, header):
    from dalg import algebra, dim7, formats

    a = formats.loads(item["text"])
    res = dim7.normalize7(a)
    rep = algebra.verify_morphism(res.morphism, require_iso=True)
    ref = header["reference"]
    same = res.canonical.tensor == ref["tensor"] and res.canonical.dmat.rows == ref["dmat_rows"]
    return res, rep, same


def answer_classify(result):
    res, rep, same = result
    return {
        "canonical": same,
        "iso": rep.passed,
        "maps_onto_canonical": res.morphism.source is res.algebra
        and res.morphism.target is res.canonical,
        "extended": res.extended,
        "k": res.algebra.ctx.k,
        "params": [res.h, res.k, res.p, res.q],
        "morphism": _digest(res.morphism.mat.rows),
    }


def check_classify(expect, ans):
    return (
        ans["canonical"]
        and ans["iso"]
        and ans["maps_onto_canonical"]
        and ans["extended"] == expect["extended"]
        and ans["k"] == (16 if ans["extended"] else 8)
    )


# -- decompose ------------------------------------------------------------------


def op_decompose(item, header):
    from dalg import formats, structure

    a = formats.loads(item["text"])
    return a, structure.decompose(a)


def answer_decompose(result):
    from dalg.algebra import defect

    a, dec = result
    return {
        "dims": sorted(f.n for f in dec.factors),
        "defects": sorted(defect(f) for f in dec.factors),
        "total_defect": defect(a),
        "idempotents": _digest(dec.idempotents),
        "iso": _digest(dec.iso.mat.rows),
    }


def check_decompose(expect, ans):
    return (
        ans["dims"] == expect["dims"]
        and ans["defects"] == expect["defects"]
        and ans["total_defect"] == sum(expect["defects"])
    )


# -- envelope -------------------------------------------------------------------


def op_envelope(item, header):
    from dalg import formats, pbw

    lie = formats.loads(item["text"])
    sctx, _ = pbw.ordered_for_straightening(lie)
    if item["op"] == "pbw":
        return "pbw", pbw.verify_pbw(sctx, item["bound"])
    return "confluence", pbw.confluence_test(
        sctx, trials=item["trials"], max_len=item["max_len"], seed=item["seed"]
    )


def answer_envelope(result):
    kind, rep = result
    if kind == "pbw":
        # the only note reads "checked N sandwiched relations at bound B"
        relations = int(rep.notes[-1].split()[1])
        return {"passed": rep.passed, "relations": relations}
    return {"passed": rep.passed, "words": rep.words_checked, "report": _digest(str(rep))}


def check_envelope(expect, ans):
    if not ans["passed"]:
        return False
    if "relations" in expect:
        return ans.get("relations") == expect["relations"]
    return ans.get("words") == expect["words"]


# -- cli_quotient ---------------------------------------------------------------


def op_cli_quotient(item, header):
    from dalg import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(item["text"])
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(item["argv"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def answer_cli_quotient(result):
    code, text = result
    return {"code": code, "report": _kv(text)}


def _requotient_dim(source, k):
    from dalg import dsl, gf2k, polyd

    return polyd.quotient_to_dalgebra(dsl.parse_presentation(source, gf2k.field(k))).n


def check_cli_quotient(expect, ans):
    report = ans["report"]
    if ans["code"] != 0 or report.get("exit") != "0":
        return False
    if "invariants" in expect:
        return all(report.get(key) == value for key, value in expect["invariants"].items())
    # a recovered presentation must quotient back to an algebra of the same size
    return _requotient_dim(report["source"], expect["field"]) == expect["n"]


OPS = {
    "classify": op_classify,
    "decompose": op_decompose,
    "envelope": op_envelope,
    "cli_quotient": op_cli_quotient,
}
ANSWERS = {
    "classify": answer_classify,
    "decompose": answer_decompose,
    "envelope": answer_envelope,
    "cli_quotient": answer_cli_quotient,
}
CHECKS = {
    "classify": check_classify,
    "decompose": check_decompose,
    "envelope": check_envelope,
    "cli_quotient": check_cli_quotient,
}


def exact_counts(workload, ops):
    """Counts that repeat exactly for a seed: they prove two runs did the same work.

    ``ops`` holds one (input index, input, answer) triple per operation of a
    pass; an operation that raised has the answer None.
    """
    answers = [a or {} for _, _, a in ops]
    if workload == "classify":
        return {"doubling_ops": sum(1 for a in answers if a.get("extended"))}
    if workload == "decompose":
        counts: dict = {}
        for _, item, _ in ops:
            counts[item["meta"]] = counts.get(item["meta"], 0) + 1
        return {"ops_by_field_and_basis": dict(sorted(counts.items()))}
    if workload == "envelope":
        return {"sandwiched_relations": sum(a.get("relations", 0) for a in answers)}
    relations = {}
    for (index, item, _), a in zip(ops, answers):
        reported = a.get("report", {}).get("relations")
        relations[index] = int(reported) if reported else item["relations"]
    return {"relations_per_input": relations}
