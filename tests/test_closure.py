"""Generated spans: AssocAlgebra2.closure and generators() against the
brute-force searches they replace.

``all_products_generators`` closes under every product of two span rows
and under d; ``right_product_span`` closes 1, the generators and their d
images under right multiplication.  On algebras that pass ``verify`` both
give the d-subalgebra the generators generate, so the greedy picks and
the ``NotGenerating`` refusals of ``present`` must agree with them.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from dalg import AssocAlgebra2, CoordSolver, Matrix, NotGenerating, direct_product, field, present
from dalg.dim7 import make_D

from helpers import (
    all_products_generators,
    corpus_small,
    dense_rebase,
    right_product_span,
    tiny_d_algebra,
    truncated_poly_algebra,
)


@functools.lru_cache(maxsize=None)
def dim3_gf2_algebras() -> tuple:
    """Every unital GF(2) algebra on 1, e1, e2 with d(1) = 0 that passes
    verify, every such d tried on every associative tensor."""
    ctx = field(1)

    def tensor_of(bits):
        t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for i in range(3):
            t[0][i][i] = t[i][0][i] = 1
        for s, (i, j) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
            t[i][j] = [bits >> (3 * s + m) & 1 for m in range(3)]
        return t

    zero = Matrix.zeros(ctx, 3, 3)
    tensors = [tensor_of(b) for b in range(1 << 12)]
    tensors = [t for t in tensors if AssocAlgebra2(ctx, t, zero).verify().passed]
    out = []
    for t in tensors:
        for bits in range(1 << 6):
            rows = [[0] + [bits >> (2 * m + c) & 1 for c in range(2)] for m in range(3)]
            a = AssocAlgebra2(ctx, t, Matrix(ctx, rows, 3))
            if a.verify().passed:
                out.append(a)
    return tuple(out)


def upper_triangular_gf2() -> AssocAlgebra2:
    """Upper triangular 3 x 3 matrices over GF(2), d = 0, on the basis
    1, E01, E12, E02, E00, E11.  E01 (E12 x) and E12 (E01 x) differ, so
    each new pick must be closed under left multiplication by every
    earlier pick, not by itself only."""
    ctx = field(1)
    units = [(0, 1), (1, 2), (0, 2), (0, 0), (1, 1)]
    mats = [[[int(r == c) for c in range(3)] for r in range(3)]]
    mats += [[[int((r, c) == u) for c in range(3)] for r in range(3)] for u in units]
    solver = CoordSolver(ctx, [sum(m, []) for m in mats])

    def times(a, b):
        return [[sum(a[r][m] & b[m][c] for m in range(3)) & 1 for c in range(3)] for r in range(3)]

    tensor = [[solver.coords(sum(times(a, b), [])) for b in mats] for a in mats]
    return AssocAlgebra2(ctx, tensor, Matrix.zeros(ctx, 6, 6))


@functools.lru_cache(maxsize=None)
def verified_inputs() -> tuple:
    rng = random.Random(0xC105E)
    k8, k16 = field(8), field(16)
    ds = [make_D(k8, 0, 0, 0)] + [make_D(k8, k8.rand(rng), k8.rand(rng), k8.rand(rng)) for _ in range(4)]
    products = [
        direct_product(ds[1], truncated_poly_algebra(k8, 3))[0],
        direct_product(tiny_d_algebra(k16), truncated_poly_algebra(k16, 2))[0],
        direct_product(make_D(k16, 0x1D, 0x7, 0x3A5), tiny_d_algebra(k16))[0],
    ]
    small = corpus_small()
    rebased = [dense_rebase(a, rng) for a in ds[1:3] + products + small[::7]]
    tri = upper_triangular_gf2()
    out = ds + products + small + rebased + [tri, dense_rebase(tri, rng)]
    assert all(a.verify().passed for a in out)
    return tuple(out)


def test_dim3_gf2_enumeration_covers_both_kinds():
    algs = dim3_gf2_algebras()
    assert len(algs) == 136
    assert any(any(a.dmat.col(j)) for a in algs for j in range(3))
    assert any(a.is_commutative() is not None for a in algs)


def test_generators_match_all_products_search_dim3_gf2():
    for a in dim3_gf2_algebras():
        assert a.generators() == all_products_generators(a)


def test_generators_match_all_products_search():
    assert upper_triangular_gf2().generators() == [1, 2, 4, 5]
    for a in verified_inputs():
        assert a.generators() == all_products_generators(a)


def check_generating(a, gens, call_present):
    span = a.closure([a.unit_vec()] + gens, gens)
    want = right_product_span(a, gens)
    assert span == want
    if not call_present:
        return
    if want.dim < a.n:
        msg = f"generators span a proper subalgebra of dimension {want.dim}$"
        with pytest.raises(NotGenerating, match=msg):
            present(a, gens, 1)
    else:
        present(a, gens, 1)


def test_not_generating_matches_right_products_dim3_gf2():
    for a in dim3_gf2_algebras():
        for size in range(4):
            for pick in itertools.combinations(range(3), size):
                check_generating(a, [a.basis_vec(j) for j in pick], call_present=True)


def test_not_generating_matches_right_products():
    rng = random.Random(0x9E75)
    for a in verified_inputs():
        picks = [a.generators(), a.generators()[:-1]]
        picks += [rng.sample(range(a.n), rng.randrange(1, min(a.n, 3) + 1)) for _ in range(3)]
        for pick in picks:
            check_generating(a, [a.basis_vec(j) for j in pick], call_present=a.n <= 8)
        # random dense vectors, not basis vectors
        check_generating(a, [a.rand_vec(rng) for _ in range(2)], call_present=False)


def test_closure_is_monotone_and_holds_its_vectors():
    a = verified_inputs()[1]
    rng = random.Random(3)
    v, g = a.rand_vec(rng), a.rand_vec(rng)
    small = a.closure([v], [])
    big = a.closure([v], [g])
    assert small.contains(v) and small.contains(a.d(v))
    assert all(big.contains(r) for r in small.rows) and big.contains(a.mul(g, v))
    assert a.closure([], [g]).is_zero()
