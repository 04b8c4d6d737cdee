import random

import pytest

from dalg import (
    AmbientMismatch,
    DIdeal,
    Subspace,
    close,
    direct_product,
    field,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_coprime,
    nilpotency_index,
)

from helpers import dense_rebase, rand_vec, tiny_d_algebra, truncated_poly_algebra


def test_close_adds_d_image():
    a = tiny_d_algebra(field(4))
    i = close(a, [a.basis_vec(2)])  # x with d(x) = w
    assert i.dim == 2
    assert i.contains(a.basis_vec(1))
    assert not i.contains(a.unit_vec())


def test_close_of_truncated_poly():
    a = truncated_poly_algebra(field(8), 4)
    i = close(a, [a.basis_vec(2)])  # t^2
    assert i.dim == 2
    assert i.contains(a.basis_vec(3))
    assert not i.contains(a.basis_vec(1))


def test_close_fixpoint_matches_brute_force():
    # closure = span of all words e_w * g reachable by repeated left mult
    rng = random.Random(11)
    t5 = truncated_poly_algebra(field(4), 5)
    cases = [(t5, rand_vec(t5, rng)) for _ in range(20)]
    # a dense GF(2^16) product with a nonzero d; d(g) generates a proper ideal
    k16 = field(16)
    p, _, _ = direct_product(tiny_d_algebra(k16), truncated_poly_algebra(k16, 3))
    dense = dense_rebase(p, random.Random(16))
    cases += [(dense, v) for g in [rand_vec(dense, rng) for _ in range(3)] for v in (g, dense.d(g))]
    for a, g in cases:
        i = close(a, [g])
        brute = Subspace(a.ctx, a.n, [g])
        for _ in range(a.n):
            vecs = list(brute.rows)
            vecs += [a.mul(a.basis_vec(t), v) for v in brute.rows for t in range(a.n)]
            vecs += [a.mul(v, a.basis_vec(t)) for v in brute.rows for t in range(a.n)]
            vecs += [a.d(v) for v in brute.rows]
            brute = Subspace(a.ctx, a.n, vecs)
        assert i.space == brute


def test_product_commutes_and_power():
    rng = random.Random(5)
    a = truncated_poly_algebra(field(8), 5)
    for _ in range(15):
        i = close(a, [rand_vec(a, rng)])
        j = close(a, [rand_vec(a, rng)])
        assert ideal_product(i, j) == ideal_product(j, i)
    t = close(a, [a.basis_vec(1)])
    assert ideal_product(t, t).dim == 3
    assert nilpotency_index(t) == 5


def test_sum_and_intersect():
    a = truncated_poly_algebra(field(4), 4)
    i = close(a, [a.basis_vec(2)])
    j = close(a, [a.basis_vec(3)])
    assert ideal_sum(i, j) == i
    assert ideal_intersect(i, j) == j


def test_coprime_factor_kernels_multiply_to_intersection():
    ctx = field(4)
    p, pa, pb = direct_product(
        truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3)
    )
    ka = DIdeal(p, Subspace(ctx, p.n, pa.mat.nullspace()))
    kb = DIdeal(p, Subspace(ctx, p.n, pb.mat.nullspace()))
    assert is_coprime(ka, kb)
    assert ideal_product(ka, kb) == ideal_intersect(ka, kb)
    assert not is_coprime(ka, ka)


def test_nilpotency_index():
    a = truncated_poly_algebra(field(8), 4)
    t = close(a, [a.basis_vec(1)])
    assert nilpotency_index(t) == 4
    assert nilpotency_index(close(a, [])) == 1
    # an ideal containing an idempotent never dies
    ctx = field(4)
    p, pa, pb = direct_product(
        truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 2)
    )
    ka = DIdeal(p, Subspace(ctx, p.n, pa.mat.nullspace()))
    assert nilpotency_index(ka) is None


def test_ambient_mismatch_rejected():
    ctx = field(4)
    a = truncated_poly_algebra(ctx, 3)
    b = truncated_poly_algebra(ctx, 3)
    i = close(a, [a.basis_vec(1)])
    j = close(b, [b.basis_vec(1)])
    with pytest.raises(AmbientMismatch):
        ideal_sum(i, j)
    with pytest.raises(AmbientMismatch):
        DIdeal(a, Subspace(ctx, a.n + 1))
