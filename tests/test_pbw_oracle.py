"""verify_pbw from relation term lists, against the per-word TElem loop.

``dense_verify_pbw`` is the loop the library used before relations were
straightened from precomputed term lists: each sandwiched relation is a
sum of per-word :class:`TElem` s, straightened by ``straighten_elem``.
It runs on ``DenseStraightenCtx``, whose rewrite step is the earlier one
that scans dense d-columns and tensor vectors.  Every report must print
the same: the same failures, witnesses and vectors, in the same order.
"""

from __future__ import annotations

import random

import pytest

from dalg import Matrix, field
from dalg.algebra import AxiomReport
from dalg.lie import LieAlgebra2, abelian_lie, commutator_lie, gl_object
from dalg.pbw import (
    StraightenCtx,
    TElem,
    _add_into,
    ordered_for_straightening,
    standard_words,
    verify_pbw,
)

from test_pbw import axiom4_violator, jordan_lie


# -- the dense path -------------------------------------------------------------


class DenseStraightenCtx(StraightenCtx):
    """The rewrite step on dense d-columns, tensor vectors and [w, w]."""

    def _straighten_step(self, word, key):
        L = self.L
        ctx = self.ctx
        mul = ctx.mul
        descents = [
            j for j in range(len(word) - 1) if word[j] > word[j + 1]
        ]
        if descents:
            j = descents[self._pick(key, word, len(descents))]
            hi, lo = word[j], word[j + 1]
            head, tail = word[:j], word[j + 2 :]
            acc: dict = {}
            for sw, sc in self._straighten(head + (lo, hi) + tail, key).items():
                _add_into(acc, sw, sc)
            dhi = L.dmat.col(hi)
            dlo = L.dmat.col(lo)
            for a, ca in enumerate(dlo):
                if not ca:
                    continue
                for b, cb in enumerate(dhi):
                    if not cb:
                        continue
                    c = mul(ca, cb)
                    for sw, sc in self._straighten(head + (a, b) + tail, key).items():
                        _add_into(acc, sw, mul(c, sc))
            for m, cm in enumerate(L.tensor[hi][lo]):
                if not cm:
                    continue
                for sw, sc in self._straighten(head + (m,) + tail, key).items():
                    _add_into(acc, sw, mul(cm, sc))
            return acc
        squares = [
            j
            for j in range(len(word) - 1)
            if word[j] == word[j + 1] and word[j] < self.kk
        ]
        if squares:
            j = squares[self._pick(key, word, len(squares))]
            head, tail = word[:j], word[j + 2 :]
            acc = {}
            w = self.preimages[word[j]]
            bw = L.bracket(w, w)
            for m, cm in enumerate(bw):
                if not cm:
                    continue
                for sw, sc in self._straighten(head + (m,) + tail, key).items():
                    _add_into(acc, sw, mul(cm, sc))
            return acc
        return {word: 1}


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
                    rel += TElem(
                        {u + (m,) + w: c for m, c in enumerate(L.tensor[i][j]) if c}
                    )
                    out = sctx.straighten_elem(rel)
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
    failing = passing = 0
    for build, bounds in INPUTS:
        for v in variants(build(ctx), rng):
            sctx, _ = ordered_for_straightening(v)
            dense = DenseStraightenCtx(sctx.L)
            for bound in bounds:
                got, want = verify_pbw(sctx, bound), dense_verify_pbw(dense, bound)
                assert str(got) == str(want) and got.notes == want.notes
                if got.passed:
                    passing += 1
                else:
                    failing += 1
    assert failing > 5 and passing > 5
