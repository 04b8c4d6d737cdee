"""Command line front end.

    python3 -m dalg.cli <command> [input] [flags]

Commands
--------
check        run the axiom suite (and lemma suite / Jacobi variants)
invariants   kernel, image, and center dimensions, defect, locality
decompose    split into local factors along primitive idempotents
classify7    normalize a 7-dimensional algebra onto the canonical model
present      recover a generators-and-relations presentation
pbw-verify   independence of standard words in the enveloping algebra
confluence   normal forms agree across rewrite strategies and preimages

Input is a file path (or ``-``/nothing for stdin) holding either an
algebra file (see :mod:`dalg.formats`) or presentation source (see
:mod:`dalg.dsl`); a presentation is built over GF(2^k) from ``--field``
and quotiented before the command runs.  ``pbw-verify`` and
``confluence`` expect a ``lie2`` file.

Flags: ``--field k`` (DSL field, default 1), ``--bound N`` (degree or
word-length bound where the command uses one), ``--trials T`` (N, T >= 0),
``--seed S``, ``--format human|kv``.  Both formats are line-oriented
``key: value`` reports; ``human`` adds indented failure detail.

Exit codes: 0 all checks passed, 2 unreadable or inapplicable input,
including a presentation whose degree bound is too small, 3 axiom or
independence failure, 4 theorem violation on concrete data,
5 the computation needs a field extension (reported, never applied
silently; ``classify7`` extends on its own because its contract allows
one doubling).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .algebra import DAlgebra, defect, lemma_suite
from .dim7 import normalize7
from .dsl import parse_presentation, to_source
from .errors import (
    AxiomsFailed,
    DalgError,
    NeedsExtension,
    NotApplicable,
    TheoremViolation,
)
from .formats import loads
from .gf2k import field
from .lie import LieAlgebra2, jacobi_seven_term_check, verify_lie
from .pbw import confluence_test, ordered_for_straightening, standard_count, verify_pbw
from .polyd import present, quotient_to_dalgebra
from .structure import decompose, is_local

EXIT_PASS = 0
EXIT_INPUT = 2
EXIT_AXIOM = 3
EXIT_THEOREM = 4
EXIT_EXTENSION = 5

_DSL_START = re.compile(r"\s*P\s*\(")


class Output:
    """Line-oriented report, same keys in both formats."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []

    def kv(self, key, value):
        self.lines.append(f"{key}: {value}")

    def detail(self, text):
        if self.fmt == "human":
            self.lines.append(f"  {text}")

    def emit(self):
        for line in self.lines:
            print(line)


def _read_text(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_object(text: str, args):
    if _DSL_START.match(text):
        pres = parse_presentation(text, field(args.field))
        return quotient_to_dalgebra(pres)
    return loads(text)


def _report_suites(out: Output, suites) -> bool:
    ok = True
    for name, rep in suites:
        out.kv(name, "pass" if rep.passed else "fail")
        for i, f in enumerate(rep.failures):
            out.kv(f"{name} failure {i}", f.axiom)
            out.detail(str(f))
        for note in rep.notes:
            out.detail(note)
        ok = ok and rep.passed
    return ok


def cmd_check(obj, out: Output, args) -> int:
    out.kv("kind", obj.kind)
    out.kv("field", obj.ctx.k)
    out.kv("n", obj.n)
    if isinstance(obj, LieAlgebra2):
        suites = [("axioms", verify_lie(obj)), ("jacobi7", jacobi_seven_term_check(obj))]
    elif isinstance(obj, DAlgebra):
        suites = [("axioms", obj.verify()), ("lemmas", lemma_suite(obj))]
    else:
        suites = [("axioms", obj.verify())]
    return EXIT_PASS if _report_suites(out, suites) else EXIT_AXIOM


def cmd_invariants(obj, out: Output, args) -> int:
    out.kv("kind", obj.kind)
    out.kv("field", obj.ctx.k)
    out.kv("n", obj.n)
    out.kv("dim ker d", obj.ker_d().dim)
    out.kv("dim im d", obj.im_d().dim)
    if isinstance(obj, LieAlgebra2):
        out.kv("abelian", "yes" if obj.is_abelian() else "no")
        return EXIT_PASS
    out.kv("dim center", obj.center().dim)
    out.kv("defect", defect(obj))
    witness = obj.is_commutative()
    out.kv("commutative", "yes" if witness is None else "no")
    if not isinstance(obj, DAlgebra):
        return EXIT_PASS
    try:
        out.kv("local", "yes" if is_local(obj) else "no")
    except NeedsExtension as e:
        out.kv("local", "undecided in this field")
        out.kv("suggested field", e.suggested_k)
        return EXIT_EXTENSION
    return EXIT_PASS


def cmd_decompose(obj, out: Output, args) -> int:
    if not isinstance(obj, DAlgebra):
        raise NotApplicable("decompose expects a d-algebra")
    dec = decompose(obj)
    out.kv("factors", len(dec.factors))
    hx = obj.ctx.to_hex
    for i, (f, e) in enumerate(zip(dec.factors, dec.idempotents)):
        out.kv(f"factor {i} dim", f.n)
        out.kv(f"factor {i} defect", defect(f))
        out.kv(f"idempotent {i}", " ".join(hx(c) for c in e))
    out.kv("isomorphism", "verified")
    return EXIT_PASS


def cmd_classify7(obj, out: Output, args) -> int:
    if not isinstance(obj, DAlgebra):
        raise NotApplicable("classify7 expects a d-algebra")
    res = normalize7(obj)
    hx = res.algebra.ctx.to_hex
    out.kv("field", res.algebra.ctx.k)
    out.kv("extended", "yes" if res.extended else "no")
    out.kv("h", hx(res.h))
    out.kv("k", hx(res.k))
    out.kv("p", hx(res.p))
    out.kv("q", hx(res.q))
    out.kv("canonical", "D(0,0,0)")
    out.kv("isomorphism", "verified")
    return EXIT_PASS


def cmd_present(obj, out: Output, args) -> int:
    if not isinstance(obj, DAlgebra):
        raise NotApplicable("present expects a d-algebra")
    bound = args.bound if args.bound is not None else 4
    pres = present(obj, [obj.basis_vec(j) for j in obj.generators()], bound)
    out.kv("rank r", pres.pa.r)
    out.kv("rank s", pres.pa.s)
    out.kv("relations", len(pres.relations))
    out.kv("source", to_source(pres))
    return EXIT_PASS


def cmd_pbw_verify(obj, out: Output, args) -> int:
    if not isinstance(obj, LieAlgebra2):
        raise NotApplicable("pbw-verify expects a Lie algebra")
    bound = args.bound if args.bound is not None else 4
    sctx, reordered = ordered_for_straightening(obj)
    out.kv("reordered", "yes" if reordered else "no")
    out.kv("bound", bound)
    out.kv("standard words", standard_count(obj.n, sctx.kk, bound))
    rep = verify_pbw(sctx, bound)
    return EXIT_PASS if _report_suites(out, [("independence", rep)]) else EXIT_AXIOM


def cmd_confluence(obj, out: Output, args) -> int:
    if not isinstance(obj, LieAlgebra2):
        raise NotApplicable("confluence expects a Lie algebra")
    trials = args.trials if args.trials is not None else 1000
    max_len = args.bound if args.bound is not None else 6
    sctx, reordered = ordered_for_straightening(obj)
    out.kv("reordered", "yes" if reordered else "no")
    rep = confluence_test(sctx, trials=trials, max_len=max_len, seed=args.seed)
    out.kv("trials", rep.trials)
    out.kv("max length", rep.max_len)
    out.kv("seed", rep.seed)
    out.kv("words checked", rep.words_checked)
    out.kv("strategy mismatches", len(rep.strategy_mismatches))
    out.kv("preimage mismatches", len(rep.preimage_mismatches))
    out.kv("confluence", "pass" if rep.passed else "fail")
    for w in rep.strategy_mismatches + rep.preimage_mismatches:
        out.detail(f"mismatch at word {w}")
    for note in rep.notes:
        out.detail(note)
    return EXIT_PASS if rep.passed else EXIT_AXIOM


_COMMANDS = {
    "check": cmd_check,
    "invariants": cmd_invariants,
    "decompose": cmd_decompose,
    "classify7": cmd_classify7,
    "present": cmd_present,
    "pbw-verify": cmd_pbw_verify,
    "confluence": cmd_confluence,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="dalg", description="exact d-algebra and twisted Lie algebra checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("path", nargs="?", default=None, help="input file, - for stdin")
        p.add_argument("--field", type=int, default=1, help="GF(2^k) for DSL input")
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("human", "kv"), default="human")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Output(args.format)
    out.kv("command", args.command)
    try:
        for flag, value in (("--bound", args.bound), ("--trials", args.trials)):
            if value is not None and value < 0:
                raise NotApplicable(f"{flag} must be at least 0, got {value}")
        text = _read_text(args.path)
        obj = _load_object(text, args)
        code = args.fn(obj, out, args)
    except AxiomsFailed as e:
        out.kv("axioms", "fail")
        if e.report is not None:
            for i, f in enumerate(e.report.failures):
                out.kv(f"axioms failure {i}", f.axiom)
                out.detail(str(f))
        code = EXIT_AXIOM
    except NeedsExtension as e:
        out.kv("error", "needs-extension")
        out.kv("message", e)
        if e.suggested_k is not None:
            out.kv("suggested field", e.suggested_k)
        code = EXIT_EXTENSION
    except TheoremViolation as e:
        out.kv("error", "theorem-violation")
        out.kv("message", e)
        code = EXIT_THEOREM
    except (DalgError, ValueError, OSError) as e:
        out.kv("error", "input")
        out.kv("message", e)
        code = EXIT_INPUT
    out.kv("exit", code)
    out.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
