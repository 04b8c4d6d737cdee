"""The incremental echelon against the batch eliminations it replaced.

``Subspace`` grows by ``add``; the oracles in ``helpers`` are the old
batch constructor (one ``rref_rows`` over every vector), the augmented
coordinate solver, the per-pick ``extend_basis`` and the restart-style
closure and ``generators``.  The corpus mixes random, duplicate, dependent
and zero vectors over GF(2), GF(2^8) and GF(2^16).  ``SparseEchelon``, the
presentation quotient's sparse twin, is checked against ``Subspace``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from dalg import (
    AssocAlgebra2,
    AxiomReport,
    CoordSolver,
    DAlgebra,
    Inconsistent,
    Matrix,
    Subspace,
    close,
    direct_product,
    extend_basis,
    field,
    formats,
    is_d_ideal,
    quotient,
    subspace_intersect,
)
from dalg.linalg import SparseEchelon

from helpers import (
    batch_subspace,
    corpus_small,
    dense_rebase,
    rand_vec,
    rebuild_extend_basis,
    restart_closure,
    restart_generators,
    sparse_rref,
    sparse_vec,
    tiny_d_algebra,
    TransformSolver,
    truncated_poly_algebra,
)

FIELDS = (1, 8, 16)


def vector_corpus(k: int, seed: int) -> list:
    """(ctx, ambient, vectors) cases: random vectors interleaved with
    duplicates, combinations of earlier ones and zero vectors."""
    ctx = field(k)
    rng = random.Random(f"echelon:{k}:{seed}")
    cases = []
    for _ in range(40):
        n = rng.randrange(1, 9)
        vecs = []
        for _ in range(rng.randrange(0, 2 * n + 2)):
            kind = rng.randrange(4) if vecs else 0
            if kind == 0:  # random, sparse half the time
                v = [ctx.rand(rng) if rng.random() < 0.5 else 0 for _ in range(n)]
                if rng.random() < 0.5:
                    v = [ctx.rand(rng) for _ in range(n)]
            elif kind == 1:
                v = list(rng.choice(vecs))
            elif kind == 2:
                v = [0] * n
                for u in rng.sample(vecs, min(len(vecs), 3)):
                    c = ctx.rand(rng)
                    v = [x ^ ctx.mul(c, y) for x, y in zip(v, u)]
            else:
                v = [0] * n
            vecs.append(v)
        cases.append((ctx, n, vecs))
    return cases


def combination(ctx, coeffs, vecs, n):
    v = [0] * n
    for c, u in zip(coeffs, vecs):
        v = [x ^ ctx.mul(c, y) for x, y in zip(v, u)]
    return v


def snapshot(s: Subspace):
    return ([list(r) for r in s.rows], s.pivots, [list(a) for a in s._accepted])


@pytest.mark.parametrize("k", FIELDS)
def test_add_keeps_the_batch_rref_and_refuses_exactly_members(k):
    for ctx, n, vecs in vector_corpus(k, 0):
        span = Subspace(ctx, n)
        for t, v in enumerate(vecs):
            before = batch_subspace(ctx, n, vecs[:t])
            row = span.add(v)
            assert (row is None) == before.contains(v)
            if row is not None:
                # the residual, scaled to a leading 1
                residual = before.reduce(v)
                p = next(i for i, x in enumerate(row) if x)
                assert row[p] == 1 and residual == [ctx.mul(residual[p], x) for x in row]
            after = batch_subspace(ctx, n, vecs[: t + 1])
            assert (span.rows, span.pivots) == (after.rows, after.pivots)
        assert Subspace(ctx, n, vecs) == span


@pytest.mark.parametrize("k", (1, 8))
def test_sparse_echelon_matches_the_subspace_on_sparse_rows(k):
    """Rows of one to four nonzero entries in 40 columns, with duplicates
    and combinations of earlier rows: after every add the pivots, rows and
    residuals equal the dense Subspace's, and ``_at`` names exactly the
    rows nonzero at each non-pivot column."""
    ctx, n = field(k), 40
    rng = random.Random(f"sparse-echelon:{k}")
    for _ in range(6):
        sparse, dense = SparseEchelon(ctx), Subspace(ctx, n)
        vecs = []
        for _ in range(rng.randrange(10, 50)):
            if vecs and rng.random() < 0.3:
                picks = rng.sample(vecs, min(2, len(vecs)))
                v = combination(ctx, [ctx.rand(rng) for _ in picks], picks, n)
            else:
                v = [0] * n
                for j in rng.sample(range(n), rng.randrange(1, 5)):
                    v[j] = ctx.rand_nonzero(rng)
            vecs.append(v)
            assert sparse.add(sparse_vec(v)) == (dense.add(v) is not None)
            assert sparse_rref(sparse, n) == (dense.rows, dense.pivots)
            probe = [ctx.rand(rng) if rng.random() < 0.2 else 0 for _ in range(n)]
            assert sparse_vec(dense.reduce(probe)) == sparse.reduce(sparse_vec(probe))
        free = [c for c in range(n) if c not in sparse.rows]
        at = {c: {q for q, row in sparse.rows.items() if c in row} for c in free}
        assert {c: sparse._at.get(c, set()) for c in free} == at


@pytest.mark.parametrize("k", FIELDS)
def test_coords_equal_the_transform_solver(k):
    rng = random.Random(f"coords:{k}")
    for ctx, n, vecs in vector_corpus(k, 1):
        span = Subspace(ctx, n)
        accepted = [v for v in vecs if span.add(v) is not None]
        oracle = TransformSolver(ctx, accepted)
        for _ in range(4):
            c = [ctx.rand(rng) for _ in accepted]
            v = combination(ctx, c, accepted, n)
            assert span.coords(v) == oracle.coords(v) == c
        for v in vecs:
            assert span.coords(v) == oracle.coords(v)
        if span.dim < n:
            outside = next(e for e in ([int(i == j) for j in range(n)] for i in range(n)) if not span.contains(e))
            for solver in (span, oracle):
                with pytest.raises(Inconsistent):
                    solver.coords(outside)
        # coords after more adds read the grown span
        extra = [ctx.rand(rng) for _ in range(n)]
        if span.add(extra) is not None:
            assert span.coords(extra) == [0] * len(accepted) + [1]


@pytest.mark.parametrize("k", FIELDS)
def test_coord_solver_is_a_subspace_that_refuses_dependent_bases(k):
    for ctx, n, vecs in vector_corpus(k, 2):
        span = Subspace(ctx, n)
        accepted = [v for v in vecs if span.add(v) is not None]
        solver = CoordSolver(ctx, accepted)
        assert isinstance(solver, Subspace) and solver.rows == span.rows
        assert all(solver.coords(v) == span.coords(v) for v in vecs)
        if len(accepted) < len(vecs):
            with pytest.raises(Inconsistent):
                CoordSolver(ctx, vecs)


@pytest.mark.parametrize("k", FIELDS)
def test_extend_basis_matches_the_rebuild_and_leaves_sub_alone(k):
    for ctx, n, vecs in vector_corpus(k, 3):
        half = len(vecs) // 2
        sub = Subspace(ctx, n, vecs[:half])
        before = snapshot(sub)
        assert extend_basis(sub, vecs[half:]) == rebuild_extend_basis(sub, vecs[half:])
        assert snapshot(sub) == before
        other = Subspace(ctx, n, vecs[half:])
        other_before = snapshot(other)
        inter = subspace_intersect(sub, other)
        assert snapshot(sub) == before and snapshot(other) == other_before
        assert sub.dim + other.dim == Subspace(ctx, n, vecs).dim + inter.dim


def test_is_d_ideal_and_quotient_leave_the_ideal_alone():
    cases = []
    for k in FIELDS:
        ctx = field(k)
        t4 = truncated_poly_algebra(ctx, 4)
        cases.append((t4, close(t4, [t4.mul(t4.basis_vec(1), t4.basis_vec(1))]).space))
        tiny = tiny_d_algebra(ctx)
        cases.append((tiny, close(tiny, [tiny.basis_vec(1)]).space))
        p, _, _ = direct_product(tiny, truncated_poly_algebra(ctx, 3))
        dense = dense_rebase(p, random.Random(k))
        cases.append((dense, close(dense, [dense.d(dense.basis_vec(3))]).space))
    for a, space in cases:
        before = snapshot(space)
        assert is_d_ideal(a, space)
        q, proj = quotient(a, space)
        assert q.n == a.n - space.dim and q.verify().passed
        assert snapshot(space) == before
        # the projection kills the ideal and is onto
        assert all(not any(proj.apply(r)) for r in space.rows)
        assert proj.mat.rank() == q.n


def test_closure_matches_the_restart_oracle():
    rng = random.Random(0xC10)
    for a in corpus_small():
        for _ in range(2):
            vectors = [rand_vec(a, rng) for _ in range(rng.randrange(1, 3))]
            left = [rand_vec(a, rng) for _ in range(rng.randrange(0, 3))]
            got, want = a.closure(vectors, left), restart_closure(a, vectors, left)
            assert (got.rows, got.pivots) == (want.rows, want.pivots)


def test_a_new_generator_multiplies_the_span_so_far():
    """Upper triangular 3 x 3 matrices over GF(2), d = 0, on the basis 1,
    E12, E01, E02, E00, E11: E02 = E01 E12 comes only from multiplying the
    span so far by the new pick E01, so it must not join J."""
    ctx = field(1)
    units = [(1, 2), (0, 1), (0, 2), (0, 0), (1, 1)]
    mats = [[[int(r == c) for c in range(3)] for r in range(3)]]
    mats += [[[int((r, c) == u) for c in range(3)] for r in range(3)] for u in units]
    solver = CoordSolver(ctx, [sum(m, []) for m in mats])

    def times(x, y):
        return [[sum(x[r][m] & y[m][c] for m in range(3)) & 1 for c in range(3)] for r in range(3)]

    tensor = [[solver.coords(sum(times(x, y), [])) for y in mats] for x in mats]
    a = AssocAlgebra2(ctx, tensor, Matrix.zeros(ctx, 6, 6))
    assert a.generators() == restart_generators(a) == [1, 2, 4, 5]


def seed41_algebras(monkeypatch) -> list:
    """The decompose and classify inputs of perfbench/gen.py at seed 41,
    parsed as the benchmark parses them.  The generator builds verified
    algebras and J reads only their constants, so parsing skips verify."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import gen
    finally:
        sys.path.remove(bench)
    texts = []
    for workload in ("decompose", "classify"):
        _, items = gen.GENERATORS[workload](random.Random(f"{workload}:41"))
        texts += [item["text"] for item in items]
    monkeypatch.setattr(AssocAlgebra2, "verify", lambda self: AxiomReport(self.kind))
    monkeypatch.setattr(DAlgebra, "verify", AssocAlgebra2.verify)
    return [formats.loads(t) for t in texts]


def test_generators_match_the_restart_oracle_on_seed41_inputs(monkeypatch):
    algs = seed41_algebras(monkeypatch)
    assert len(algs) == 248
    for a in algs:
        assert a.generators() == restart_generators(a)


def test_spans_closures_and_coordinates_run_no_batch_elimination(monkeypatch):
    from dalg import linalg, min_poly

    def refuse(*args):
        raise AssertionError("rref_rows called")

    monkeypatch.setattr(linalg, "rref_rows", refuse)
    ctx = field(8)
    p, _, _ = direct_product(tiny_d_algebra(ctx), truncated_poly_algebra(ctx, 3))
    a = dense_rebase(p, random.Random(8))
    a._gens = None
    assert a.closure([a.basis_vec(2)], [a.basis_vec(1)]).dim == a.n
    assert a.generators() == restart_generators(a)
    span = a.closure([a.unit_vec()], [])
    assert len(extend_basis(span, [a.basis_vec(i) for i in range(a.n)])) == a.n - 1
    basis = [a.basis_vec(i) for i in range(a.n)]
    assert CoordSolver(ctx, basis).coords(a.basis_vec(3)) == basis[3]
    assert min_poly(Matrix(ctx, [[0, 1], [0, 0]], 2)).coeffs == (0, 0, 1)
