"""verify_pbw and confluence_test against the dense loop, the scan and the fuzz.

``dense_verify_pbw`` is the loop the library used before relations were
straightened from precomputed term lists: each sandwiched relation is a
sum of per-word :class:`TElem` s, straightened by ``straighten_elem``.
It runs on ``DenseStraightenCtx``, whose rewrite rules are the earlier
ones that scan dense d-columns and tensor vectors.  Where the
diamond-lemma proof holds, every report must print the same as the dense
loop, the sandwich scan and the site/preimage fuzz of ``helpers``.
Where it fails, :func:`verify_pbw` and :func:`confluence_test` must both
name the witness that ``dense_witness`` finds with the dense rules.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dalg import Matrix, NotApplicable, field
from dalg.algebra import AxiomFailure, AxiomReport
from dalg.lie import LieAlgebra2, abelian_lie, commutator_lie, gl_object, verify_lie
from dalg.pbw import (
    StraightenCtx,
    TElem,
    _add_into,
    confluence_test,
    ordered_for_straightening,
    prove_pbw,
    standard_words,
    verify_pbw,
)

from helpers import fuzz_confluence, scan_pbw
from test_pbw import axiom4_violator, jordan_lie


# -- the dense path -------------------------------------------------------------


class DenseStraightenCtx(StraightenCtx):
    """The rewrite rules on dense d-columns, tensor vectors and [w, w]."""

    def _one_step(self, word, j):
        L = self.L
        mul = self.ctx.mul
        a, b = word[j], word[j + 1]
        head, tail = word[:j], word[j + 2 :]
        out = []
        if a == b:
            w = self.preimages[a]
            for m, cm in enumerate(L.bracket(w, w)):
                if cm:
                    out.append((head + (m,) + tail, cm))
            return out
        out.append((head + (b, a) + tail, 1))
        da = L.dmat.col(a)
        for x, cx in enumerate(L.dmat.col(b)):
            for y, cy in enumerate(da):
                if cx and cy:
                    out.append((head + (x, y) + tail, mul(cx, cy)))
        for m, cm in enumerate(L.tensor[a][b]):
            if cm:
                out.append((head + (m,) + tail, cm))
        return out


def dense_relation(sctx: StraightenCtx, u, i, j, w) -> TElem:
    """u R(i,j) w as a sum of per-word TElems, from dense columns."""
    L = sctx.L
    rel = TElem.from_word(u + (i, j) + w)
    rel += TElem.from_word(u + (j, i) + w)
    di = L.dmat.col(i)
    dj = L.dmat.col(j)
    dd: dict = {}
    for a, ca in enumerate(dj):
        if not ca:
            continue
        for b, cb in enumerate(di):
            if not cb:
                continue
            _add_into(dd, u + (a, b) + w, sctx.ctx.mul(ca, cb))
    rel += TElem(dd)
    return rel + TElem({u + (m,) + w: c for m, c in enumerate(L.tensor[i][j]) if c})


def dense_verify_pbw(sctx: StraightenCtx, bound: int) -> AxiomReport:
    L = sctx.L
    rep = AxiomReport("pbw")
    n = L.n
    checked = 0
    shells = [w for w in standard_words(n, sctx.kk, max(bound - 2, 0))]
    for u in shells:
        for w in shells:
            if len(u) + 2 + len(w) > bound:
                continue
            for i in range(n):
                for j in range(n):
                    out = sctx.straighten_elem(dense_relation(sctx, u, i, j, w))
                    checked += 1
                    if not out.is_zero():
                        rep.record(
                            "relation_straightens_to_zero",
                            (u, i, j, w),
                            tuple(sorted(out.terms.items())),
                            (),
                        )
    for i in range(n):
        if sctx.straighten((i,)) != TElem.from_word((i,)):
            rep.record("degree_one_standard", (i,), (), ())
    rep.notes.append(f"checked {checked} sandwiched relations at bound {bound}")
    return rep


def dense_witness(sctx: StraightenCtx):
    """The first failing check of the diamond lemma, from dense data.

    A prefix letter with d(e_i) != 0, then the relations R(i,j), then the
    overlaps xyz of two left-hand sides, in lexicographic order; None when
    every check holds.
    """
    L, kk = sctx.L, sctx.kk
    for i in range(kk):
        if any(L.dmat.col(i)):
            return AxiomFailure("d_kills_prefix", (i,), tuple(L.dmat.col(i)), (0,) * L.n)
    for i, j in itertools.product(range(L.n), repeat=2):
        out = sctx.straighten_elem(dense_relation(sctx, (), i, j, ()))
        if not out.is_zero():
            return AxiomFailure("relation_straightens_to_zero", ((), i, j, ()), tuple(sorted(out.terms.items())), ())
    for w in itertools.product(range(L.n), repeat=3):
        if all(a > b or a == b < kk for a, b in zip(w, w[1:])):
            left, right = (sctx.straighten_elem(TElem(sctx._one_step(w, p))) for p in (0, 1))
            if left != right:
                return AxiomFailure(
                    "overlap_resolves", w, tuple(sorted(left.terms.items())), tuple(sorted(right.terms.items()))
                )
    return None


# -- inputs ---------------------------------------------------------------------


def gl3_e01(ctx):
    e01 = Matrix(ctx, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    return commutator_lie(gl_object(3, e01))


def perturbed(L, rng, tensor_edits, d_edits):
    """A copy of L with random bracket entries and square-zero d edits.

    d must keep squaring to zero, or straightening need not terminate; an
    edit of d that breaks that is drawn again.
    """
    ctx, n = L.ctx, L.n
    tensor = [[list(v) for v in row] for row in L.tensor]
    for _ in range(tensor_edits):
        tensor[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = ctx.rand(rng)
    drows = [list(r) for r in L.dmat.rows]
    done = 0
    while done < d_edits:
        trial = [list(r) for r in drows]
        trial[rng.randrange(n)][rng.randrange(n)] = ctx.rand(rng)
        d = Matrix(ctx, trial, n)
        if d.mul(d).is_zero():
            drows, done = trial, done + 1
    return LieAlgebra2(ctx, tensor, drows)


def variants(L, rng):
    # unchanged, bracket only, d only, both
    yield L
    yield perturbed(L, rng, 1, 0)
    yield perturbed(L, rng, 0, 1)
    yield perturbed(L, rng, 2, 1)


# (builder, bounds); gl(3) stops at bound 3 to keep the dense loop quick
INPUTS = [
    (jordan_lie, (2, 3, 4, 5)),
    (axiom4_violator, (2, 3, 4, 5)),
    # d(e0) = e1: the image is not leading, so the basis is reordered
    (lambda ctx: abelian_lie(ctx, 3, Matrix(ctx, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])), (2, 3, 4, 5)),
    (gl3_e01, (2, 3)),
]


@pytest.mark.parametrize("k", (1, 2, 4, 8))
def test_verify_pbw_matches_dense_loop(k):
    ctx = field(k)
    rng = random.Random(400 + k)
    proved = refuted = 0
    for build, bounds in INPUTS:
        for v in variants(build(ctx), rng):
            sctx, _ = ordered_for_straightening(v)
            dense = DenseStraightenCtx(sctx.L)
            ok = prove_pbw(sctx)
            for bound in bounds:
                got, want = verify_pbw(sctx, bound), dense_verify_pbw(dense, bound)
                if ok:
                    assert str(got) == str(want) and got.notes == want.notes
                else:
                    assert got.failures == [dense_witness(dense)] and not got.notes
                assert want.passed or not got.passed
                proved += ok
                refuted += not ok
    assert proved > 5 and refuted > 5


# -- the diamond-lemma proof against the scan and the fuzz, exhaustively ---------


def every_gf2_plane():
    """All 256 bracket tensors on GF(2)^2 with each of the 4 square-zero d.

    Non-alternating, non-Jacobi and non-derivation brackets are included:
    the proof must fail wherever the scan or the fuzz finds a witness.
    """
    ctx = field(1)
    square_zero = ([[0, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [1, 1]])
    for bits in range(256):
        entries = [(bits >> b) & 1 for b in range(8)]
        tensor = [[entries[4 * i + 2 * j : 4 * i + 2 * j + 2] for j in range(2)] for i in range(2)]
        for d in square_zero:
            yield bits, LieAlgebra2(ctx, tensor, Matrix(ctx, d, 2))


def test_proof_reports_match_scan_and_fuzz_on_every_gf2_plane():
    proved = refuted = 0
    for bits, L in every_gf2_plane():
        sctx, _ = ordered_for_straightening(L)
        witness = dense_witness(DenseStraightenCtx(sctx.L))
        ok = prove_pbw(sctx)
        assert ok == (witness is None)
        if ok:
            for bound in (2, 3, 4):
                got, want = verify_pbw(sctx, bound), scan_pbw(sctx, bound)
                assert want.passed and str(got) == str(want) and got.notes == want.notes
            got = confluence_test(sctx, trials=12, max_len=5, seed=bits)
            assert got.passed and got == fuzz_confluence(sctx, trials=12, max_len=5, seed=bits)
        else:
            assert verify_pbw(sctx, 3).failures == [witness]
            with pytest.raises(NotApplicable, match="diamond-lemma proof holds") as refusal:
                confluence_test(sctx, trials=12, max_len=5, seed=bits)
            assert str(refusal.value).endswith(str(witness))
            # a refuted overlap is a relation combination that survives at degree 3
            assert not scan_pbw(sctx, 3).passed
        if verify_lie(L).passed:
            # the PBW theorem: every twisted Lie algebra passes
            assert ok
        proved += ok
        refuted += not ok
    assert proved + refuted == 1024
    assert proved > 20 and refuted > 900
