"""Lie algebras with a square-zero differential twisting their laws.

The bracket laws here are the char-2 twisted versions: antisymmetry and
Jacobi each pick up a correction term built from d, and the alternating
law [x,x] = 0 is imposed only on the kernel of d.  The twist comes from
the same braiding that twists commutativity for :class:`~dalg.DAlgebra`:
swapping x and y costs an extra d(y), d(x) term.

Brackets arise here from two sources: the braided commutator of an
associative algebra, [x,y] = xy + yx + d(y)d(x), and matrix algebras
whose differential is commutation with a fixed square-zero matrix.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (
    AssocAlgebra2,
    AxiomReport,
    StructureConstants,
    _contract,
    _nonzero,
    vec_xor,
)
from .errors import BadDifferential, ShapeMismatch, TheoremViolation
from .gf2k import Fe, FieldCtx
from .linalg import Matrix, Subspace, Vec

__all__ = [
    "LieAlgebra2",
    "verify_lie",
    "jacobi_seven_term_check",
    "commutator_lie",
    "gl_object",
    "abelian_lie",
]


class LieAlgebra2(StructureConstants):
    """A bilinear bracket plus a differential; tensor[i][j] = [e_i, e_j]."""

    kind = "lie2"

    def bracket(self, a: Sequence[Fe], b: Sequence[Fe]) -> Vec:
        return self._product(a, b)

    def is_abelian(self) -> bool:
        return all(not any(v) for row in self.tensor for v in row)


def verify_lie(L: LieAlgebra2) -> AxiomReport:
    """Check the four bracket laws; multilinearity makes basis tuples enough.

    The laws: d is a bracket derivation; [x,y] + [y,x] = [dy,dx]; the
    twisted Jacobi law [x,[y,z]] + [y,[x,z]] + [dy,[dx,z]] = [[x,y],z];
    and [x,x] = 0 for x killed by d.  The last is not bilinear, but on
    Ker(d) the map x -> [x,x] is additive (its cross terms cancel by
    antisymmetry since the d-correction dies) and scales by squares, so a
    kernel basis decides it.

    The report is memoised on L, as :meth:`AssocAlgebra2.verify` does, so
    callers share it and must not mutate it.
    """
    if L._report is not None:
        return L._report
    rep = AxiomReport("lie2")
    n, ctx = L.n, L.ctx
    T, terms = L.tensor, L.terms
    cols = L._columns()
    dterms = L._d_terms()
    L._d_squared(rep, dterms)
    U = L._times(dterms)
    for i in range(n):
        for j in range(n):
            lhs, rhs = L._leibniz_sides(dterms, cols, i, j)
            if lhs != rhs:
                rep.record("bracket_derivation", (i, j), lhs, rhs)
            # [e_i,e_j] + [e_j,e_i] + [d e_j, d e_i]
            anti = _contract(ctx, vec_xor(T[i][j], T[j][i]), dterms[j], U[i])
            if any(anti):
                rep.record("twisted_antisymmetry", (i, j), anti, tuple([0] * n))
    # [d e_j, [d e_i, e_k]] = sum_m W[i][k]^m W[j][m]
    W = L._right_times(dterms, cols)
    for i in range(n):
        ti, Wi = terms[i], W[i]
        for j in range(n):
            tij, tj, Wj = ti[j], terms[j], W[j]
            for k in range(n):
                # [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]] + [d e_j,[d e_i,e_k]] = [[e_i,e_j],e_k]
                lhs = _contract(ctx, [0] * n, tj[k], ti)
                _contract(ctx, lhs, ti[k], tj)
                _contract(ctx, lhs, Wi[k], Wj)
                rhs = _contract(ctx, [0] * n, tij, cols[k])
                if lhs != rhs:
                    rep.record("twisted_jacobi", (i, j, k), lhs, rhs)
    for x in L.ker_d().rows:
        q = L.bracket(x, x)
        if any(q):
            rep.record("alternating_on_kernel", (tuple(x),), q, tuple([0] * n))
    rep.notes.append(
        "alternating law checked on a kernel basis only: there x -> [x,x] "
        "is additive by antisymmetry and scales by c^2"
    )
    L._report = rep
    return rep


def jacobi_seven_term_check(L: LieAlgebra2) -> AxiomReport:
    """The Jacobi law in its fully braided seven-term form.

    [[x,y],z] + [[z,x],y] + [[dz,dx],y] + [[dz,x],dy]
              + [[y,z],x] + [[y,dz],dx] + [[dy,z],dx] = 0

    Equivalent to the twisted Jacobi law given the first two axioms; the
    test suite exercises both directions of that equivalence.

    On a basis triple each term is a contraction, as in :func:`verify_lie`:
    with U[i][a] = [e_a, d e_i] and W[i][k] = [d e_i, e_k], the inner
    brackets [dz,dx], [dz,x], [y,dz] and [dy,z] are term lists and the
    outer bracket contracts them with a column of the tensor or of U.
    """
    rep = AxiomReport("jacobi7")
    n, ctx, T = L.n, L.ctx, L.terms
    cols = L._columns()
    dterms = L._d_terms()
    U = L._times(dterms)
    W = L._right_times(dterms, cols)
    # DD[k][i] = terms of [d e_k, d e_i]
    DD = [[_nonzero(_contract(ctx, [0] * n, dk, Ui)) for Ui in U] for dk in dterms]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = _contract(ctx, [0] * n, T[i][j], cols[k])
                _contract(ctx, total, T[k][i], cols[j])
                _contract(ctx, total, DD[k][i], cols[j])
                _contract(ctx, total, W[k][i], U[j])
                _contract(ctx, total, T[j][k], cols[i])
                _contract(ctx, total, U[k][j], U[i])
                _contract(ctx, total, W[j][k], U[i])
                if any(total):
                    rep.record("jacobi_seven_term", (i, j, k), total, tuple([0] * n))
    return rep


def commutator_lie(a: AssocAlgebra2) -> LieAlgebra2:
    """The braided commutator bracket [x,y] = xy + yx + d(y)d(x).

    On a twisted-commutative algebra this is identically zero; matrix
    algebras give nonabelian output.  The result always satisfies the
    bracket laws; a failure means the input was not associative and is
    reported as :class:`TheoremViolation`.
    """
    n, ctx, T = a.n, a.ctx, a.tensor
    dterms = a._d_terms()
    U = a._times(dterms)  # d(e_j) d(e_i) = sum_m D_mj U[i][m]
    tensor = [[_contract(ctx, vec_xor(T[i][j], T[j][i]), dterms[j], U[i]) for j in range(n)] for i in range(n)]
    out = LieAlgebra2(ctx, tensor, a.dmat)
    rep = verify_lie(out)
    if not rep.passed:
        raise TheoremViolation(
            f"commutator bracket fails the Lie laws: {rep.failures[0]}"
        )
    return out


def abelian_lie(ctx: FieldCtx, n: int, dmat=None) -> LieAlgebra2:
    """Zero bracket on n coordinates, with an optional differential."""
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    if dmat is None:
        dmat = Matrix.zeros(ctx, n, n)
    return LieAlgebra2(ctx, tensor, dmat)


def gl_object(n: int, dV: Matrix) -> AssocAlgebra2:
    """The n x n matrix algebra with d(X) = dV X + X dV.

    ``dV`` must square to zero; then d does too, because the cross terms
    dV X dV appear twice and cancel.  The basis is the identity matrix
    followed by the elementary matrices other than the corner unit E_00,
    so the unit sits at index 0 as everywhere else.
    """
    ctx = dV.ctx
    if dV.nrows != n or dV.ncols != n:
        raise ShapeMismatch("differential matrix must be n x n")
    if not dV.mul(dV).is_zero():
        raise BadDifferential("dV must square to zero")
    dim = n * n

    def flat(m: Matrix) -> Vec:
        return [x for row in m.rows for x in row]

    basis_mats = [Matrix.identity(ctx, n)]
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0:
                continue
            e = Matrix.zeros(ctx, n, n).rows
            e[i][j] = 1
            basis_mats.append(Matrix(ctx, e, n))
    solver = Subspace(ctx, dim, [flat(m) for m in basis_mats])
    tensor = [
        [solver.coords(flat(x.mul(y))) for y in basis_mats] for x in basis_mats
    ]
    dcols = [
        solver.coords(flat(dV.mul(x).add(x.mul(dV)))) for x in basis_mats
    ]
    return AssocAlgebra2(ctx, tensor, Matrix.from_cols(ctx, dcols, dim), 0)
