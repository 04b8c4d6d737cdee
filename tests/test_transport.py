"""Structure constants on a new basis by contraction, against per-pair products.

``dense_transport`` is the loop that :func:`change_basis`,
:func:`subalgebra`, :func:`quotient`, :func:`homology` and
:func:`ordered_for_straightening` each carried before they shared
:meth:`StructureConstants.transport`: one dense product per pair of new
basis vectors and one d image per vector, each read through ``coords``.
The kernel must return the same constants, and the five functions the
same whole outputs (or the same refusal) when they run on the oracle.
``dense_commutator_tensor`` is the per-pair loop :func:`commutator_lie`
ran before it read its bracket from the same contractions.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dalg import (
    DalgError,
    LieAlgebra2,
    Matrix,
    Subspace,
    abelian_lie,
    change_basis,
    close,
    commutator_lie,
    decompose,
    direct_product_many,
    field,
    gl_object,
    homology,
    quotient,
    subalgebra,
)
from dalg.algebra import StructureConstants, vec_xor
from dalg.linalg import CoordSolver
from dalg.pbw import ordered_for_straightening

from helpers import corpus_small, dense_rebase, rand_vec, tiny_d_algebra, truncated_poly_algebra


def dense_transport(self, basis, coords):
    tensor = [[coords(self._product(bi, bj)) for bj in basis] for bi in basis]
    return tensor, [coords(self.d(b)) for b in basis]


def dense_commutator_tensor(a):
    n = a.n
    tensor = []
    for i in range(n):
        ei = a.basis_vec(i)
        di = a.dmat.col(i)
        row = []
        for j in range(n):
            ej = a.basis_vec(j)
            dj = a.dmat.col(j)
            row.append(vec_xor(vec_xor(a.mul(ei, ej), a.mul(ej, ei)), a.mul(dj, di)))
        tensor.append(row)
    return tensor


def gl2_gf2():
    """The six invertible 2 x 2 matrices over GF(2), as lists of rows."""
    rows = [[0, 1], [1, 0], [1, 1]]
    return [[r, s] for r in rows for s in rows if r != s]


def test_transport_matches_dense_loop_on_every_gf2_n2_input():
    ctx = field(1)
    bases = gl2_gf2()
    assert len(bases) == 6
    solvers = [CoordSolver(ctx, b).coords for b in bases]
    cases = 0
    for bits in range(256):
        flat = [(bits >> s) & 1 for s in range(8)]
        tensor = [[flat[4 * i + 2 * j : 4 * i + 2 * j + 2] for j in range(2)] for i in range(2)]
        for dbits in range(16):
            dmat = [[(dbits >> 2 * r + c) & 1 for c in range(2)] for r in range(2)]
            sc = StructureConstants(ctx, tensor, dmat)
            for basis, coords in zip(bases, solvers):
                assert sc.transport(basis, coords) == dense_transport(sc, basis, coords)
                cases += 1
    assert cases == 24_576


def rebased_inputs():
    rng = random.Random(0x7A5)
    algs = corpus_small()
    for k in (8, 16):
        ctx = field(k)
        t3 = truncated_poly_algebra(ctx, 3)
        tiny = tiny_d_algebra(ctx)
        algs += [dense_rebase(direct_product_many([t3, tiny])[0], rng), dense_rebase(t3, rng)]
        algs.append(dense_rebase(direct_product_many([tiny, tiny, truncated_poly_algebra(ctx, 2)])[0], rng))
    return algs


def random_basis(a, rng, head=()):
    while True:
        rows = list(head) + [rand_vec(a, rng) for _ in range(a.n - len(head))]
        if Subspace(a.ctx, a.n, rows).dim == a.n:
            return rows


def test_transport_matches_dense_loop_on_corpus_and_dense_rebases():
    rng = random.Random(12)
    for a in rebased_inputs():
        for basis in ([a.basis_vec(i) for i in range(a.n)], random_basis(a, rng), random_basis(a, rng)):
            coords = CoordSolver(a.ctx, basis).coords
            assert a.transport(basis, coords) == dense_transport(a, basis, coords)


# -- whole outputs of the callers ---------------------------------------------


def signature(x):
    """Everything a caller returns, as plain data."""
    if isinstance(x, (tuple, list)):
        return tuple(signature(y) for y in x)
    if isinstance(x, StructureConstants):
        return (type(x).__name__, x.tensor, x.dmat.rows, getattr(x, "unit_idx", None), getattr(x, "coset_reps", None))
    if isinstance(x, Matrix):
        return (x.rows, x.ncols)
    if hasattr(x, "mat"):  # Morphism
        return signature(x.mat)
    if hasattr(x, "kk"):  # StraightenCtx
        return ("sctx", x.kk, signature(x.L))
    if hasattr(x, "iso"):  # Decomposition
        return signature(tuple(vars(x).values()))
    return x


def outcome(fn, *args, **kwargs):
    try:
        return signature(fn(*args, **kwargs))
    except DalgError as e:
        return (type(e).__name__, str(e))


@pytest.fixture
def on_both(monkeypatch):
    """Run a call on the kernel, then on the dense oracle; return both outcomes."""

    def run(fn, *args, **kwargs):
        got = outcome(fn, *args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(StructureConstants, "transport", dense_transport)
            want = outcome(fn, *args, **kwargs)
        return got, want

    return run


def test_callers_match_the_dense_oracle_on_algebras(on_both):
    rng = random.Random(5)
    refusals = 0
    for a in rebased_inputs():
        unit = a.unit_vec()
        calls = [
            (change_basis, a, random_basis(a, rng, head=[unit])),
            (subalgebra, a, a.ker_d().rows),
            (subalgebra, a, [unit, rand_vec(a, rng)]),
            (quotient, a, close(a, [a.basis_vec(a.n - 1)]).space),
            (quotient, a, close(a, [rand_vec(a, rng)]).space),
            (homology, a),
        ]
        for fn, *args in calls:
            got, want = on_both(fn, *args)
            assert got == want, fn.__name__
            refusals += isinstance(got[0], str)
        # a random basis seldom holds the unit as a basis vector: both refuse
        if a.n > 1:
            got, want = on_both(change_basis, a, random_basis(a, rng))
            assert got == want
    assert refusals > 10


def test_decompose_matches_the_dense_oracle(on_both):
    rng = random.Random(9)
    ctx = field(8)
    t2, t3, tiny = truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3), tiny_d_algebra(ctx)
    for factors in ([t2, t3], [tiny, t3, tiny], [t3, tiny]):
        a = dense_rebase(direct_product_many(factors)[0], rng)
        got, want = on_both(decompose, a)
        assert got == want and not isinstance(got[0], str)


def lie_inputs():
    for k in (1, 8, 16):
        ctx = field(k)
        yield commutator_lie(gl_object(2, Matrix(ctx, [[0, 1], [0, 0]])))
        yield commutator_lie(gl_object(3, Matrix(ctx, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])))
        yield abelian_lie(ctx, 2, dmat=[[0, 0], [1, 0]])
        yield LieAlgebra2(ctx, [[[0] * 3 for _ in range(3)] for _ in range(3)], [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    for dbits in itertools.product((0, 1), repeat=4):
        ctx = field(1)
        dmat = [list(dbits[:2]), list(dbits[2:])]
        if Matrix(ctx, dmat).mul(Matrix(ctx, dmat)).is_zero():
            yield abelian_lie(ctx, 2, dmat=dmat)


def test_ordered_for_straightening_matches_the_dense_oracle(on_both):
    reordered = 0
    for L in lie_inputs():
        got, want = on_both(ordered_for_straightening, L)
        assert got == want
        reordered += got[1]
    assert reordered >= 8


def test_commutator_lie_matches_the_dense_loop():
    algs = rebased_inputs()
    for k in (1, 8, 16):
        ctx = field(k)
        algs += [gl_object(2, Matrix(ctx, [[0, 1], [0, 0]])), gl_object(3, Matrix(ctx, [[0, 0, 1], [0, 0, 0], [0, 0, 0]]))]
    nonabelian = 0
    for a in algs:
        L = commutator_lie(a)
        assert L.tensor == dense_commutator_tensor(a) and L.dmat == a.dmat
        nonabelian += not L.is_abelian()
    assert nonabelian >= 6
