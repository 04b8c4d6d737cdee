"""Builders for small reference algebras shared across the test suite."""

from __future__ import annotations

from dalg import DAlgebra, Matrix, Subspace, field
from dalg.gf2k import FieldCtx


def field_trace(ctx: FieldCtx, x: int) -> int:
    """Tr(x) = x + x^2 + ... + x^(2^(k-1)), which lies in {0, 1}."""
    acc = 0
    for _ in range(ctx.k):
        acc ^= x
        x = ctx.sq(x)
    return acc


def truncated_poly_algebra(ctx: FieldCtx, m: int) -> DAlgebra:
    """F[t]/(t^m) with zero differential, basis 1, t, ..., t^(m-1)."""
    tensor = [
        [[1 if s == i + j else 0 for s in range(m)] if i + j < m else [0] * m for j in range(m)]
        for i in range(m)
    ]
    return DAlgebra(ctx, tensor, Matrix.zeros(ctx, m, m), 0)


def tiny_d_algebra(ctx: FieldCtx) -> DAlgebra:
    """Basis {1, w, x} with d(x) = w, x^2 = w x = x w = w^2 = 0.

    The smallest commutative algebra with a nonzero differential.
    """
    n = 3
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        tensor[0][i][i] = 1
        tensor[i][0][i] = 1
    dmat = Matrix(ctx, [[0, 0, 0], [0, 0, 1], [0, 0, 0]], n)
    return DAlgebra(ctx, tensor, dmat, 0)


def field_as_algebra(ctx: FieldCtx) -> DAlgebra:
    """The base field as a one-dimensional algebra."""
    return DAlgebra(ctx, [[[1]]], Matrix.zeros(ctx, 1, 1), 0)


def gf4_over_gf2_algebra() -> DAlgebra:
    """GF(4) as a two-dimensional commutative algebra over GF(2).

    Basis {1, g} with g^2 = g + 1; semisimple with a residue field the
    base field cannot split.
    """
    ctx = field(1)
    tensor = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 1]],  # g * g = 1 + g
    ]
    return DAlgebra(ctx, tensor, Matrix.zeros(ctx, 2, 2), 0)


def extension_field_algebra(ctx: FieldCtx, m: int, rng) -> DAlgebra:
    """GF(2^(k m)) as the algebra F[x]/(p) over F = ctx, basis 1, x, ..., x^(m-1).

    p is a random monic polynomial of degree m in {2, 3} without a root in
    F, hence irreducible; the algebra is a field F cannot split.
    """
    from dalg import UniPoly, poly_roots

    while True:
        p = UniPoly(ctx, [ctx.rand(rng) for _ in range(m)] + [1])
        if not poly_roots(p):
            break
    tensor = []
    for i in range(m):
        row = []
        for j in range(m):
            mono = UniPoly(ctx, [0] * (i + j) + [1]) % p
            row.append(list(mono.coeffs) + [0] * (m - len(mono.coeffs)))
        tensor.append(row)
    return DAlgebra(ctx, tensor, Matrix.zeros(ctx, m, m), 0)


def corpus_small() -> list[DAlgebra]:
    """Deterministic corpus of d-algebras of dimension at most 6.

    Mixes truncated polynomials, products, quotients and bounded
    presentations over several fields; used wherever a test wants many
    small verified algebras.
    """
    from dalg import close, direct_product, field as fld, quotient
    from dalg import parse_presentation, quotient_to_dalgebra

    sources = [
        "P(0,1) / [y1^2] @ deg 2",
        "P(0,2) / [y1^2, y2^2, y1 y2] @ deg 2",
        "P(1,0) / [x1^2, xi1 x1] @ deg 3",
        "P(1,1) / [x1^2, xi1 x1, y1^2, y1 x1, y1 xi1] @ deg 3",
    ]
    algs = []
    for k in (1, 2, 3, 4, 8):
        ctx = fld(k)
        for m in range(1, 6):
            algs.append(truncated_poly_algebra(ctx, m))
        algs.append(tiny_d_algebra(ctx))
        algs.append(field_as_algebra(ctx))
        t2 = truncated_poly_algebra(ctx, 2)
        t3 = truncated_poly_algebra(ctx, 3)
        tiny = tiny_d_algebra(ctx)
        algs.append(direct_product(t2, t2)[0])
        algs.append(direct_product(t3, t3)[0])
        algs.append(direct_product(tiny, t2)[0])
        algs.append(direct_product(tiny, tiny)[0])
        t4 = truncated_poly_algebra(ctx, 4)
        t_sq = t4.mul(t4.basis_vec(1), t4.basis_vec(1))
        algs.append(quotient(t4, close(t4, [t_sq]).space)[0])
        algs.append(quotient(tiny, close(tiny, [tiny.basis_vec(1)]).space)[0])
        for src in sources:
            algs.append(quotient_to_dalgebra(parse_presentation(src, ctx)))
    algs.append(gf4_over_gf2_algebra())
    assert all(a.n <= 6 for a in algs)
    return algs


def random_dim7(rng) -> DAlgebra:
    """A random member of the 7-dimensional family in a random basis."""
    from dalg import field as fld
    from dalg.dim7 import make_D

    ctx = fld(rng.choice([1, 2, 3, 4, 8]))
    return dense_rebase(make_D(ctx, ctx.rand(rng), ctx.rand(rng), ctx.rand(rng)), rng)


def dense_rebase(a: DAlgebra, rng) -> DAlgebra:
    """a rewritten on a random basis that keeps the unit at index 0."""
    from dalg import Subspace, change_basis

    while True:
        rows = [a.unit_vec()] + [a.rand_vec(rng) for _ in range(a.n - 1)]
        if Subspace(a.ctx, a.n, rows).dim == a.n:
            return change_basis(a, rows, unit=a.unit_vec())[0]


def square_corrupted(a: DAlgebra, i: int, m: int, c: int) -> DAlgebra:
    """a with c added to coordinate m of e_i e_i.

    With d = 0 and i not the unit this breaks associativity alone: the unit
    laws and Leibniz do not read e_i e_i, and commutativity compares it with
    itself.
    """
    tensor = [[list(v) for v in row] for row in a.tensor]
    tensor[i][i][m] ^= c
    return type(a)(a.ctx, tensor, a.dmat, a.unit_idx)


def dense_assoc_corrupt_gf16() -> DAlgebra:
    """F[t]/(t^3) x F[t]/(t^2) over GF(2^16) in a seeded dense basis, with
    the unit coordinate of e_1 e_1 changed: it fails associativity only."""
    import random

    from dalg import direct_product

    ctx = field(16)
    p, _, _ = direct_product(truncated_poly_algebra(ctx, 3), truncated_poly_algebra(ctx, 2))
    return square_corrupted(dense_rebase(p, random.Random(0xA550C)), 1, 0, 1)


def all_products_generators(a: DAlgebra) -> list:
    """Indices picked greedily, d-nonzero basis vectors first, until 1 and
    the picks generate a: each candidate is tested against the span of 1
    and the picks closed under every product of two span rows and under d,
    rebuilt from scratch after each pick."""

    def generated(gens):
        span = Subspace(a.ctx, a.n, [a.unit_vec()] + [a.basis_vec(g) for g in gens])
        while True:
            rows = span.rows
            grown = Subspace(
                a.ctx, a.n, rows + [a.mul(u, v) for u in rows for v in rows] + [a.d(u) for u in rows]
            )
            if grown.dim == span.dim:
                return span
            span = grown

    gens: list = []
    span = generated(gens)
    for i in sorted(range(a.n), key=lambda i: not any(a.dmat.col(i))):
        if not span.contains(a.basis_vec(i)):
            gens.append(i)
            span = generated(gens)
    return gens


def right_product_span(a: DAlgebra, gens) -> Subspace:
    """Span of 1, the generators and the d images of those with nonzero d,
    closed under right multiplication by the same vectors."""
    mults = [list(g) for g in gens] + [a.d(g) for g in gens if any(a.d(g))]
    span = Subspace(a.ctx, a.n, [a.unit_vec()] + mults)
    while True:
        grown = Subspace(a.ctx, a.n, span.rows + [a.mul(r, m) for r in span.rows for m in mults])
        if grown.dim == span.dim:
            return span
        span = grown


def two_sided_relation_span(pres) -> Subspace:
    """Span of u * rel * v over every relation and every pair of monomials
    u, v that fits inside the bound, built pair by pair.

    Columns are the normal monomials of degree at most the bound in reverse
    order, as ``quotient_to_dalgebra`` eliminates them; the oracle for its
    one-sided relation span.
    """
    from bisect import bisect_right

    from dalg import PElem, enumerate_monomials, mono_degree

    pa, bound = pres.pa, pres.bound
    monos = enumerate_monomials(pa, bound)
    nm = len(monos)
    degs = [mono_degree(m) for m in monos]
    upto = [bisect_right(degs, e) for e in range(bound + 1)]
    rev = {m: nm - 1 - i for i, m in enumerate(monos)}
    rows = set()
    for rel in pres.relations:
        if rel.is_zero():
            continue
        room = bound - rel.degree()
        for u, udeg in zip(monos[: upto[room]], degs):
            left = PElem(pa, {u: 1}) * rel
            for v in monos[: upto[room - udeg]]:
                row = [0] * nm
                for m, c in (left * PElem(pa, {v: 1})).terms.items():
                    row[rev[m]] = c
                rows.add(tuple(row))
    return Subspace(pa.ctx, nm, rows)
