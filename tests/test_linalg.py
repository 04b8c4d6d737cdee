"""Exact linear algebra: echelon forms, subspaces, solvers, minimal polynomials."""

from __future__ import annotations

import itertools
import random

import pytest

from dalg import (
    CoordSolver,
    Inconsistent,
    Matrix,
    Subspace,
    UniPoly,
    extend_basis,
    field,
    min_poly,
    poly_gcd,
    poly_roots,
    solve,
    squarefree_part,
    subspace_intersect,
    subspace_quotient_reps,
    subspace_sum,
)
from dalg.linalg import solve_lex_least

from helpers import field_trace


def rand_matrix(ctx, rng, nrows, ncols):
    return Matrix(ctx, [[ctx.rand(rng) for _ in range(ncols)] for _ in range(nrows)], ncols)


def test_rref_canonical_and_idempotent():
    rng = random.Random(7)
    for k in (2, 8):
        ctx = field(k)
        for _ in range(50):
            m = rand_matrix(ctx, rng, rng.randrange(1, 7), rng.randrange(1, 7))
            red, pivots = m.rref()
            red2, pivots2 = red.rref()
            assert red.rows == red2.rows and pivots == pivots2
            assert list(pivots) == sorted(pivots)
            for i, p in enumerate(pivots):
                assert red.rows[i][p] == 1
                for i2 in range(red.nrows):
                    if i2 != i:
                        assert red.rows[i2][p] == 0


def test_rank_nullity():
    rng = random.Random(8)
    ctx = field(8)
    for _ in range(200):
        m = rand_matrix(ctx, rng, rng.randrange(1, 8), rng.randrange(1, 8))
        assert m.rank() + len(m.nullspace()) == m.ncols
        for v in m.nullspace():
            assert m.mul_vec(v) == [0] * m.nrows


def test_solve_roundtrip_and_inconsistent():
    rng = random.Random(9)
    ctx = field(8)
    for _ in range(100):
        m = rand_matrix(ctx, rng, rng.randrange(1, 7), rng.randrange(1, 7))
        x = [ctx.rand(rng) for _ in range(m.ncols)]
        b = m.mul_vec(x)
        y = solve(ctx, m, b)
        assert m.mul_vec(y) == b
    m = Matrix(ctx, [[1, 0], [1, 0]], 2)
    with pytest.raises(Inconsistent):
        solve(ctx, m, [1, 2])


def test_solve_lex_least_is_least_of_all_solutions():
    # every x in F^n is tried, so each system is checked exhaustively
    rng = random.Random(29)
    for k in (1, 2):
        ctx = field(k)
        for _ in range(150):
            m = rand_matrix(ctx, rng, rng.randrange(1, 5), rng.randrange(1, 5))
            b = m.mul_vec([ctx.rand(rng) for _ in range(m.ncols)])
            every = itertools.product(range(ctx.order), repeat=m.ncols)
            least = min(list(x) for x in every if m.mul_vec(x) == b)
            assert solve_lex_least(ctx, m, b) == least


def test_inverse():
    rng = random.Random(10)
    ctx = field(8)
    made = 0
    while made < 30:
        m = rand_matrix(ctx, rng, 5, 5)
        if m.rank() < 5:
            continue
        made += 1
        assert m.mul(m.inverse()) == Matrix.identity(ctx, 5)
    with pytest.raises(Inconsistent):
        Matrix(ctx, [[1, 1], [1, 1]], 2).inverse()


def test_subspace_membership_and_canonical_equality():
    ctx = field(4)
    s = Subspace(ctx, 3, [[1, 2, 3], [0, 1, 1]])
    for r in s.rows:
        assert s.contains(r)
    # a different generating set of the same space compares equal
    v = [1 ^ 0, 2 ^ 1, 3 ^ 1]  # sum of the two generators
    s2 = Subspace(ctx, 3, [[1, 2, 3], v])
    assert s == s2
    assert not s.contains([0, 0, 1]) or s.dim == 3


def test_subspace_dimension_law():
    rng = random.Random(11)
    ctx = field(8)
    for _ in range(100):
        n = rng.randrange(2, 7)
        u = Subspace(ctx, n, [[ctx.rand(rng) for _ in range(n)] for _ in range(rng.randrange(1, 5))])
        w = Subspace(ctx, n, [[ctx.rand(rng) for _ in range(n)] for _ in range(rng.randrange(1, 5))])
        s = subspace_sum(u, w)
        i = subspace_intersect(u, w)
        assert u.dim + w.dim == s.dim + i.dim
        for r in i.rows:
            assert u.contains(r) and w.contains(r)
        for r in u.rows:
            assert s.contains(r)


def test_extend_basis_and_quotient_reps():
    ctx = field(2)
    sub = Subspace(ctx, 4, [[1, 1, 0, 0]])
    reps = subspace_quotient_reps(sub)
    assert len(reps) == 3
    total = Subspace(ctx, 4, sub.rows + reps)
    assert total.dim == 4
    within = Subspace(ctx, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    reps2 = subspace_quotient_reps(sub, within)
    assert len(reps2) == 1 and within.contains(reps2[0])
    assert extend_basis(within, [[1, 1, 0, 0]]) == []


def test_coord_solver_roundtrip():
    rng = random.Random(12)
    ctx = field(8)
    for _ in range(50):
        n = rng.randrange(2, 7)
        m = rng.randrange(1, n + 1)
        basis = []
        span = Subspace(ctx, n, [])
        while len(basis) < m:
            v = [ctx.rand(rng) for _ in range(n)]
            if not span.contains(v):
                basis.append(v)
                span = Subspace(ctx, n, span.rows + [v])
        cs = CoordSolver(ctx, basis)
        coeffs = [ctx.rand(rng) for _ in range(m)]
        v = [0] * n
        for c, b in zip(coeffs, basis):
            for i in range(n):
                v[i] ^= ctx.mul(c, b[i])
        assert cs.coords(v) == coeffs
    with pytest.raises(Inconsistent):
        CoordSolver(field(2), [[1, 0], [1, 0]])


def test_min_poly_known_cases():
    ctx = field(2)
    assert min_poly(Matrix.identity(ctx, 3)).coeffs == (1, 1)  # t + 1
    assert min_poly(Matrix.zeros(ctx, 2, 2)).coeffs == (0, 1)  # t
    jordan = Matrix(ctx, [[0, 1], [0, 0]], 2)
    assert min_poly(jordan).coeffs == (0, 0, 1)  # t^2
    companion = Matrix(ctx, [[0, 1], [1, 1]], 2)
    assert min_poly(companion).coeffs == (1, 1, 1)  # t^2 + t + 1


def test_min_poly_annihilates():
    rng = random.Random(13)
    ctx = field(4)
    for _ in range(30):
        n = rng.randrange(1, 5)
        m = rand_matrix(ctx, rng, n, n)
        p = min_poly(m)
        acc = Matrix.zeros(ctx, n, n)
        power = Matrix.identity(ctx, n)
        for c in p.coeffs:
            if c:
                acc = acc.add(Matrix(ctx, [[ctx.mul(c, x) for x in r] for r in power.rows], n))
            power = power.mul(m)
        assert acc.is_zero()
        assert p.coeffs[-1] == 1  # monic


def test_unipoly_divmod_and_gcd():
    rng = random.Random(14)
    ctx = field(8)
    for _ in range(100):
        a = UniPoly(ctx, [ctx.rand(rng) for _ in range(rng.randrange(1, 7))])
        b = UniPoly(ctx, [ctx.rand(rng) for _ in range(rng.randrange(1, 5))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        g = poly_gcd(a, b)
        if not g.is_zero():
            assert (a % g).is_zero() and (b % g).is_zero()


def test_poly_roots_and_eval():
    ctx = field(8)
    r, s = 0x1D, 0x3
    p = UniPoly(ctx, [ctx.mul(r, s), ctx.add(r, s), 1])  # (t - r)(t - s)
    assert poly_roots(p) == tuple(sorted((r, s)))
    assert p(r) == 0 and p(s) == 0 and p(0) == ctx.mul(r, s)


def scan_poly_roots(p):
    """The sorted distinct roots of p, by evaluating it at every element."""
    return tuple(t for t in range(p.ctx.order) if p(t) == 0)


def rootless_factor(ctx, rng, degree):
    """A random monic polynomial of degree 2 or 3 without roots, so irreducible."""
    while True:
        f = UniPoly(ctx, [ctx.rand(rng) for _ in range(degree)] + [1])
        if not scan_poly_roots(f):
            return f


def linear_product(ctx, roots):
    t = UniPoly.x(ctx)
    p = UniPoly.one(ctx)
    for r in roots:
        p = p * (t + UniPoly(ctx, (r,)))
    return p


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_poly_roots_matches_scan_oracle(k):
    ctx = field(k)
    rng = random.Random(k)
    for c in range(1, min(ctx.order, 16)):
        assert poly_roots(UniPoly(ctx, (c,))) == ()
    for _ in range(60):
        # repeated roots, rootless irreducible factors and a nonunit leading coefficient
        roots = [ctx.rand(rng) for _ in range(rng.randrange(0, 5))]
        roots += rng.sample(roots, min(len(roots), rng.randrange(0, 3)))
        p = linear_product(ctx, roots).scale(ctx.rand_nonzero(rng))
        for _ in range(rng.randrange(0, 3)):
            p = p * rootless_factor(ctx, rng, rng.choice((2, 3)))
        assert poly_roots(p) == scan_poly_roots(p) == tuple(sorted(set(roots)))


def test_poly_roots_gf65536_planted_roots():
    ctx = field(16)
    rng = random.Random(16)
    # t^2 + t + c has no root exactly when Tr(c) = 1
    c = next(c for c in range(ctx.order) if field_trace(ctx, c))
    irreducible = UniPoly(ctx, (c, 1, 1))
    for _ in range(20):
        roots = [ctx.rand(rng) for _ in range(rng.randrange(1, 8))]
        p = linear_product(ctx, roots + roots[:2]) * irreducible
        assert poly_roots(p.scale(ctx.rand_nonzero(rng))) == tuple(sorted(set(roots)))


def test_squarefree_part():
    ctx = field(2)
    t = UniPoly.x(ctx)
    one = UniPoly.one(ctx)
    tp1 = t + one
    p = t * tp1 * tp1  # t (t+1)^2
    assert squarefree_part(p) == (t * tp1).monic()
    irr = UniPoly(ctx, (1, 1, 1))  # t^2 + t + 1
    assert squarefree_part(irr * irr) == irr
    assert squarefree_part(one) == one
