"""Finite-dimensional associative algebras with a differential, over GF(2^k).

An algebra is a structure tensor ``tensor[i][j]`` (coordinates of e_i e_j),
a differential matrix ``dmat`` (column j holds d(e_j)), and the index of
the basis vector equal to 1 (index 0 by convention everywhere in this
package).  :class:`StructureConstants` holds the tensor and d, shared with
the brackets of :mod:`dalg.lie`.  :class:`AssocAlgebra2` checks
associativity, the unit laws and that d is a square-zero derivation;
:class:`DAlgebra` additionally demands the twisted commutation law

    a b = b a + d(b) d(a)

which is the commutativity constraint of the ambient symmetric tensor
category in characteristic 2.

Every law checked here is multilinear in its arguments (the one
exception, the [x,x] = 0 law for Lie objects, is handled in
:mod:`dalg.lie` with its own justification), so basis tuples decide the
law on the whole algebra.  The unit and derivation laws are checked on
every basis tuple.  When all of them hold, associativity at (i, j, k) is
checked with the middle index j in a generating set J only (Light's
test); if that finds a failure, or another law failed, every (i, j, k) is
checked, so reports list every failing tuple.  The middle nucleus
N = {g : (x g) z = x (g z) for all x, z} is a subspace closed under
products (for g, h in N, (x (g h)) z = ((x g) h) z = x ((g h) z)), it
holds 1 by the unit laws, and it is closed under d because d is a
derivation (apply d to (x g) z = x (g z)).  J is
:meth:`AssocAlgebra2.generators`: the e_j with d(e_j) != 0 are tried
first, then the rest, each in basis order, and e_j joins J when it lies
outside the span of 1 and the chosen e_g closed under d and under left
multiplication by those e_g (:meth:`AssocAlgebra2.closure`).  That span
ends as A; once every e_j with j in J lies in N, so does A.  Nothing is
sampled.  The span is one :class:`~dalg.linalg.Subspace`: each image is
added as it is computed and only the rows the span accepts are mapped
again, and when e_j joins J, left multiplication by e_j is applied to the
span so far and every map to e_j, so nothing is eliminated twice.

The twisted law and morphisms are scanned on J too.  Once the unit,
associativity and derivation laws hold, Z = {x : x y = y x + d(y) d(x)
for all y} holds 1; for x in Z the law at d(y) gives x d(y) = d(y) x, so
Z is closed under products, and applying d to the law shows it is closed
under d.  So :class:`DAlgebra` checks the law for x = e_i, i in J.  For a
linear f: A -> B with f(1) = 1 and f d = d f between algebras that
passed, M = {x : f(x y) = f(x) f(y) for all y} is a subalgebra holding 1
and closed under d (d(x) y = d(x y) + x d(y), then Leibniz in B), so
:func:`verify_morphism` checks the rows i in J of the source.  Both rerun
the full scan on any failure.

``verify`` memoises its report and ``generators`` its J on the instance;
the tensor and d must not change after construction, so neither goes
stale.  Callers share the report and must not mutate it.
:func:`verify_morphism` starts no ``verify``: it reads J only when both
endpoints already hold a passing report.  Passing reports are passed on
by :func:`embed_algebra` (an injective ring map keeps every law),
:func:`dalg.dim7.make_D` (the family proof), :func:`subalgebra` (a span
closed under products and d keeps the multilinear laws; the unit laws
and d(1) = 0 are checked) and :func:`direct_product_many` (every law
holds blockwise, and products and d across factors vanish).

In an algebra that satisfies the axioms the same span is the
d-subalgebra J generates: it holds every word in the e_g and d(e_g),
because d(g) w = d(g w) + g d(w).  So :func:`dalg.polyd.present` and the
CLI's generator choice use it too, and :func:`dalg.ideals.close` closes
under left multiplication by every e_i.

On a basis tuple each side of a law is a contraction of the structure
constants T (and of the columns D of d): associativity at (i, j, k) reads
sum_m T_ij^m T_mk = sum_m T_jk^m T_im, and d(e_j) d(e_i) = sum_a D_aj
(e_a d(e_i)).  The checks evaluate these sums over ``terms``, the nonzero
entries of the tensor collected once at construction, instead of
multiplying basis vectors.  They are the same vectors the products would
give on the same tuples, so basis tuples still decide every law, and each
report names the same witnesses in the same order.  The cost follows the
number of nonzero constants, with no vectors built for basis elements.

:func:`change_basis`, :func:`subalgebra`, :func:`quotient`, :func:`homology`
and :func:`dalg.pbw.ordered_for_straightening` build an algebra on a new
basis b_j = sum_k B_jk e_k by one contraction,
:meth:`StructureConstants.transport`: with U[j][m] the terms of e_m b_j,
b_i b_j = sum_m B_im U[j][m] and d(b_j) = sum_k B_jk d(e_k).  A coordinate
map from the caller reads each vector into the new basis, every product
before any d column, so :func:`subalgebra` reports a product leaving its
span before a d image.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .errors import (
    DimensionMismatch,
    Inconsistent,
    NotApplicable,
    NotDIdeal,
    ShapeMismatch,
)
from .gf2k import Fe, FieldCtx
from .linalg import CoordSolver, Matrix, Subspace, Vec, nullspace_rows

Tensor = list  # tensor[i][j] is the coordinate vector of e_i * e_j


def vec_xor(a: Sequence[Fe], b: Sequence[Fe]) -> Vec:
    return [x ^ y for x, y in zip(a, b)]


def _nonzero(v: Sequence[Fe]) -> list:
    return [(m, x) for m, x in enumerate(v) if x]


def _contract(ctx: FieldCtx, out: Vec, coeffs, rows) -> Vec:
    """Add sum of c rows[m] over the (m, c) in coeffs to out; rows are term lists."""
    for m, c in coeffs:
        ctx.addmul(out, c, rows[m])
    return out


@dataclass
class AxiomFailure:
    axiom: str
    witness: tuple
    lhs: tuple
    rhs: tuple

    def __str__(self) -> str:
        w = ",".join(map(str, self.witness))
        return f"{self.axiom} fails at ({w}): {self.lhs} != {self.rhs}"


@dataclass
class AxiomReport:
    kind: str
    failures: list[AxiomFailure] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, axiom: str, witness: tuple, lhs: Sequence[Fe], rhs: Sequence[Fe]) -> None:
        self.failures.append(AxiomFailure(axiom, witness, tuple(lhs), tuple(rhs)))

    def __str__(self) -> str:
        if self.passed:
            return f"{self.kind}: all axioms hold"
        lines = [f"{self.kind}: {len(self.failures)} failure(s)"]
        lines += [f"  {f}" for f in self.failures]
        return "\n".join(lines)


class StructureConstants:
    """A bilinear product given by structure constants, plus a differential.

    Parameters
    ----------
    ctx : FieldCtx
    tensor : n x n grid of coordinate vectors, tensor[i][j] = e_i e_j
    dmat : Matrix or rows, column j holding d(e_j)

    ``terms[i][j]`` lists the nonzero (m, c) of e_i e_j.  It is built once
    here, so the tensor and d must not be edited after construction.
    ``_report`` holds the memoised axiom report of the subclass's check
    (:meth:`AssocAlgebra2.verify`, :func:`dalg.lie.verify_lie`).
    """

    def __init__(self, ctx: FieldCtx, tensor: Tensor, dmat):
        n = len(tensor)
        for row in tensor:
            if len(row) != n or any(len(v) != n for v in row):
                raise ShapeMismatch("structure tensor must be n x n x n")
        if not isinstance(dmat, Matrix):
            dmat = Matrix(ctx, dmat, n)
        if dmat.nrows != n or dmat.ncols != n:
            raise ShapeMismatch("differential matrix must be n x n")
        self.ctx = ctx
        self.n = n
        self.tensor = [[list(v) for v in row] for row in tensor]
        self.terms = [[_nonzero(v) for v in row] for row in self.tensor]
        self.dmat = dmat
        self._report: AxiomReport | None = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, k={self.ctx.k})"

    def _product(self, a: Sequence[Fe], b: Sequence[Fe]) -> Vec:
        mul, addmul = self.ctx.mul, self.ctx.addmul
        out = [0] * self.n
        bs = _nonzero(b)
        for i, ai in enumerate(a):
            if not ai:
                continue
            ti = self.terms[i]
            for j, bj in bs:
                if ti[j]:
                    addmul(out, mul(ai, bj), ti[j])
        return out

    # -- contractions shared by the law checks --------------------------------

    def _columns(self) -> list:
        """cols[k][m] = terms of e_m e_k."""
        return list(zip(*self.terms))

    def _d_terms(self) -> list:
        """Column j of d as a term list."""
        return [_nonzero(self.dmat.col(j)) for j in range(self.n)]

    def _times(self, vterms) -> list:
        """U[i][a] = terms of e_a v_i, so u v_i = sum_a u_a U[i][a]; v_i given as terms."""
        n, ctx = self.n, self.ctx
        return [[_nonzero(_contract(ctx, [0] * n, vi, row)) for row in self.terms] for vi in vterms]

    def _right_times(self, vterms, cols) -> list:
        """W[i][k] = terms of v_i e_k, v_i given as terms (d(e_i) in the laws)."""
        n, ctx = self.n, self.ctx
        return [[_nonzero(_contract(ctx, [0] * n, vi, col)) for col in cols] for vi in vterms]

    def _leibniz_sides(self, dterms, cols, i: int, j: int) -> tuple[Vec, Vec]:
        """d(e_i e_j) and d(e_i) e_j + e_i d(e_j)."""
        n, ctx, terms = self.n, self.ctx, self.terms
        lhs = _contract(ctx, [0] * n, terms[i][j], dterms)
        rhs = _contract(ctx, [0] * n, dterms[i], cols[j])
        return lhs, _contract(ctx, rhs, dterms[j], terms[i])

    def transport(self, basis: Sequence[Sequence[Fe]], coords) -> tuple[list, list]:
        """(tensor, dcols) with tensor[i][j] = coords(b_i b_j), then dcols[j] =
        coords(d(b_j)), for b the rows of ``basis``; see the module docstring."""
        n, ctx = self.n, self.ctx
        bterms = [_nonzero(b) for b in basis]
        U = self._times(bterms)
        tensor = [[coords(_contract(ctx, [0] * n, bi, Uj)) for Uj in U] for bi in bterms]
        dterms = self._d_terms()
        return tensor, [coords(_contract(ctx, [0] * n, bj, dterms)) for bj in bterms]

    def d(self, a: Sequence[Fe]) -> Vec:
        return self.dmat.mul_vec(a)

    def basis_vec(self, i: int) -> Vec:
        v = [0] * self.n
        v[i] = 1
        return v

    def zero_vec(self) -> Vec:
        return [0] * self.n

    def rand_vec(self, rng) -> Vec:
        return [self.ctx.rand(rng) for _ in range(self.n)]

    def ker_d(self) -> Subspace:
        return Subspace(self.ctx, self.n, nullspace_rows(self.ctx, self.dmat.rows, self.n))

    def im_d(self) -> Subspace:
        return Subspace(self.ctx, self.n, [self.dmat.col(j) for j in range(self.n)])


class AssocAlgebra2(StructureConstants):
    """Associative unital algebra with a square-zero derivation.

    ``unit_idx`` is the index of the basis vector equal to 1.
    """

    kind = "assoc2"

    def __init__(self, ctx: FieldCtx, tensor: Tensor, dmat, unit_idx: int = 0):
        super().__init__(ctx, tensor, dmat)
        if not 0 <= unit_idx < self.n:
            raise ShapeMismatch("unit index out of range")
        self.unit_idx = unit_idx
        self._gens: list | None = None

    def unit_vec(self) -> Vec:
        return self.basis_vec(self.unit_idx)

    def mul(self, a: Sequence[Fe], b: Sequence[Fe]) -> Vec:
        return self._product(a, b)

    # -- verification -------------------------------------------------------

    def verify(self) -> AxiomReport:
        """The axiom report, computed once and memoised; see the module
        docstring.  The same report object is returned on every call, so
        callers must not mutate it."""
        if self._report is None:
            rep = AxiomReport(self.kind)
            self._verify_assoc(rep)
            self._report = rep
        return self._report

    def _verify_assoc(self, rep: AxiomReport) -> list:
        """Unit, associativity and derivation laws; returns d's term lists.

        The cheap laws run first; when they all hold, associativity is
        scanned with the middle index in :meth:`generators` only.
        """
        n = self.n
        T = self.tensor
        cols = self._columns()
        u = self.unit_idx
        for i in range(n):
            lhs = T[u][i]
            e = self.basis_vec(i)
            if lhs != e:
                rep.record("left_unit", (i,), lhs, e)
            rhs = T[i][u]
            if rhs != e:
                rep.record("right_unit", (i,), rhs, e)
        derivation = AxiomReport(rep.kind)
        dd = self.dmat.mul(self.dmat)
        if not dd.is_zero():
            derivation.record("d_squared", (), tuple(map(tuple, dd.rows)), ((),))
        dterms = self._d_terms()
        for i in range(n):
            for j in range(n):
                lhs, rhs = self._leibniz_sides(dterms, cols, i, j)
                if lhs != rhs:
                    derivation.record("leibniz", (i, j), lhs, rhs)
        du = self.dmat.col(u)
        if any(du):
            derivation.record("unit_differential", (u,), du, tuple([0] * n))
        everywhere = range(n)
        middle = everywhere if rep.failures or derivation.failures else self.generators()
        found = self._assoc_failures(cols, middle)
        if found and len(middle) < n:
            found = self._assoc_failures(cols, everywhere)
        rep.failures += found + derivation.failures
        return dterms

    def _assoc_failures(self, cols, middle) -> list:
        """(e_i e_j) e_k = e_i (e_j e_k) for every i, k and j in middle."""
        n, ctx, terms = self.n, self.ctx, self.terms
        out = AxiomReport(self.kind)
        for i in range(n):
            ti = terms[i]
            for j in middle:
                tij, tj = ti[j], terms[j]
                for k in range(n):
                    if not tij and not tj[k]:
                        continue  # both sides are zero
                    left = _contract(ctx, [0] * n, tij, cols[k])
                    right = _contract(ctx, [0] * n, tj[k], ti)
                    if left != right:
                        out.record("associativity", (i, j, k), left, right)
        return out.failures

    # -- generated spans ----------------------------------------------------

    def closure(self, vectors: Sequence[Sequence[Fe]], left: Sequence[Sequence[Fe]]) -> Subspace:
        """Smallest span holding ``vectors`` that d and u -> g u, for each g
        in ``left``, map into itself.

        Both maps read term lists: d(u) = sum_a u_a d(e_a) and g u =
        sum_a u_a (g e_a).
        """
        n, ctx = self.n, self.ctx
        cols = self._columns()
        maps = [self._d_terms()] + [
            [_nonzero(_contract(ctx, [0] * n, _nonzero(g), col)) for col in cols] for g in left
        ]
        span = Subspace(ctx, n)
        self._grow(span, vectors, maps)
        return span

    def _grow(self, span: Subspace, vectors, maps) -> None:
        """Add vectors to span, then the image under each map of every row
        it accepts, until it accepts none; the accepted rows span what was
        added, so mapping each once closes the span."""
        n, ctx = self.n, self.ctx
        new = [r for r in map(span.add, vectors) if r is not None]
        while new:
            images = [_contract(ctx, [0] * n, u, m) for u in map(_nonzero, new) for m in maps]
            new = [r for r in map(span.add, images) if r is not None]

    def generators(self) -> list:
        """Indices J of basis vectors that generate A with 1, under d and left
        multiplication by the e_j, j in J; see the module docstring.

        Basis vectors with d(e_j) != 0 are tried first so their d images
        come along; e_j joins J when the span so far misses it.  J is
        memoised; each call returns a fresh list.
        """
        if self._gens is not None:
            return list(self._gens)
        n, ctx = self.n, self.ctx
        gens: list = []
        maps = [self._d_terms()]
        span = Subspace(ctx, n)
        self._grow(span, [self.unit_vec()], maps)
        for j in sorted(range(n), key=lambda j: not any(self.dmat.col(j))):
            if span.dim == n:
                break
            e = self.basis_vec(j)
            if not span.contains(e):
                gens.append(j)
                maps.append(self.terms[j])  # u -> e_j u = sum_a u_a (e_j e_a)
                images = [_contract(ctx, [0] * n, _nonzero(u), self.terms[j]) for u in span.rows]
                self._grow(span, [e] + images, maps)
        self._gens = gens
        return list(gens)

    # -- derived subspaces --------------------------------------------------

    def center(self) -> Subspace:
        # solve x e_i = e_i x for all i: stack (L_i - R_i) and take the kernel
        rows = []
        for i in range(self.n):
            li = self._left_mult_rows(i)
            ri = self._right_mult_rows(i)
            rows.extend(vec_xor(a, b) for a, b in zip(li, ri))
        return Subspace(self.ctx, self.n, nullspace_rows(self.ctx, rows, self.n))

    def _left_mult_rows(self, i: int) -> list[Vec]:
        # matrix of x -> e_i x, rows indexed by output coordinate
        return [[self.tensor[i][j][m] for j in range(self.n)] for m in range(self.n)]

    def _right_mult_rows(self, i: int) -> list[Vec]:
        return [[self.tensor[j][i][m] for j in range(self.n)] for m in range(self.n)]

    def is_commutative(self) -> tuple[int, int] | None:
        """None when commutative, else the first noncommuting basis pair."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.tensor[i][j] != self.tensor[j][i]:
                    return (i, j)
        return None


class DAlgebra(AssocAlgebra2):
    """Associative algebra satisfying the twisted commutation law."""

    kind = "dalgebra"

    def verify(self) -> AxiomReport:
        """The associative laws, then the twisted law on the rows in
        :meth:`generators` when those passed; memoised as in
        :meth:`AssocAlgebra2.verify`, see the module docstring."""
        if self._report is None:
            rep = AxiomReport(self.kind)
            dterms = self._verify_assoc(rep)
            everywhere = range(self.n)
            rows = everywhere if rep.failures else self.generators()
            found = self._twisted_failures(dterms, rows)
            if found and len(rows) < self.n:
                found = self._twisted_failures(dterms, everywhere)
            rep.failures += found
            self._report = rep
        return self._report

    def _twisted_failures(self, dterms, rows) -> list:
        """e_i e_j = e_j e_i + d(e_j) d(e_i) for every j and i in rows."""
        n, ctx, T = self.n, self.ctx, self.tensor
        out = AxiomReport(self.kind)
        # U[i][a] = terms of e_a d(e_i), so d(e_j) d(e_i) = sum_a D_aj U[i][a]
        for i, Ui in zip(rows, self._times([dterms[i] for i in rows])):
            for j in range(n):
                rhs = _contract(ctx, list(T[j][i]), dterms[j], Ui)
                if T[i][j] != rhs:
                    out.record("d_commutativity", (i, j), T[i][j], rhs)
        return out.failures


@dataclass
class Morphism:
    """Linear map between algebras, columns holding images of basis vectors."""

    source: AssocAlgebra2
    target: AssocAlgebra2
    mat: Matrix

    def apply(self, v: Sequence[Fe]) -> Vec:
        return self.mat.mul_vec(v)

    def __repr__(self) -> str:
        return f"Morphism({self.source!r} -> {self.target!r})"


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    if inner.target is not outer.source and inner.target.n != outer.source.n:
        raise DimensionMismatch("morphisms do not chain")
    return Morphism(inner.source, outer.target, outer.mat.mul(inner.mat))


def invert(m: Morphism) -> Morphism:
    return Morphism(m.target, m.source, m.mat.inverse())


def _passed(a: AssocAlgebra2) -> bool:
    """True when a holds a memoised report that passed; starts no check."""
    return a._report is not None and a._report.passed


def _multiplicative_failures(m: Morphism, fterms, rows) -> list:
    """f(e_i e_j) = f(e_i) f(e_j) for every j and i in rows."""
    src, tgt = m.source, m.target
    ctx, n = tgt.ctx, tgt.n
    out = AxiomReport("morphism")
    # W[b] = terms of f(e_i) e_b, so f(e_i) f(e_j) = sum_b F_bj W[b]
    cols = tgt._columns()
    for i, W in zip(rows, tgt._right_times([fterms[i] for i in rows], cols)):
        for j in range(src.n):
            lhs = _contract(ctx, [0] * n, src.terms[i][j], fterms)
            rhs = _contract(ctx, [0] * n, fterms[j], W)
            if lhs != rhs:
                out.record("multiplicative", (i, j), lhs, rhs)
    return out.failures


def verify_morphism(m: Morphism, require_iso: bool = False) -> AxiomReport:
    """Check unitality, multiplicativity, d-equivariance (and bijectivity).

    Multiplicativity is checked on the rows in the source's generators
    when f is unital and d-equivariant and both endpoints hold a passing
    memoised report, on every row otherwise or after a failure; see the
    module docstring.
    """
    rep = AxiomReport("morphism")
    src, tgt = m.source, m.target
    if m.mat.ncols != src.n or m.mat.nrows != tgt.n:
        raise ShapeMismatch("morphism matrix shape disagrees with its algebras")
    if src.ctx is not tgt.ctx:
        raise DimensionMismatch("morphism endpoints live over different fields")
    img_unit = m.apply(src.unit_vec())
    unital = img_unit == tgt.unit_vec()
    if not unital:
        rep.record("unit", (), img_unit, tgt.unit_vec())
    lhs_mat = m.mat.mul(src.dmat)
    rhs_mat = tgt.dmat.mul(m.mat)
    equivariant = lhs_mat == rhs_mat
    fterms = [_nonzero(m.mat.col(j)) for j in range(src.n)]
    everywhere = range(src.n)
    reduced = unital and equivariant and _passed(src) and _passed(tgt)
    rows = src.generators() if reduced else everywhere
    found = _multiplicative_failures(m, fterms, rows)
    if found and len(rows) < src.n:
        found = _multiplicative_failures(m, fterms, everywhere)
    rep.failures += found
    if not equivariant:
        rep.record("d_equivariant", (), tuple(map(tuple, lhs_mat.rows)), tuple(map(tuple, rhs_mat.rows)))
    if require_iso:
        if src.n != tgt.n or m.mat.rank() != src.n:
            rep.record("bijective", (), (m.mat.rank(),), (src.n,))
    return rep


def lemma_suite(a: DAlgebra) -> AxiomReport:
    """Consequences of the axioms, checked on concrete data.

    Verified here: d(x)^2 = 0 on the basis (enough, since squares of
    elements of the image of d reduce to basis squares by the commutation
    law), Im(d) inside Ker(d), Im(d) central, dim Im(d) < dim Ker(d), and
    for every noncommuting basis pair (a, b) the independence of
    {d(a), d(b), d(a)d(b)} together with dim Im(d) >= 3.
    """
    rep = AxiomReport("lemma_suite")
    n = a.n
    zero = [0] * n
    for i in range(n):
        di = a.dmat.col(i)
        sq = a.mul(di, di)
        if any(sq):
            rep.record("d_square_zero", (i,), sq, zero)
    im = a.im_d()
    ker = a.ker_d()
    for r in im.rows:
        if not ker.contains(r):
            rep.record("im_inside_ker", (), r, zero)
    cen = a.center()
    for r in im.rows:
        if not cen.contains(r):
            rep.record("im_central", (), r, zero)
    if not im.dim < ker.dim:
        rep.record("im_smaller_than_ker", (), (im.dim,), (ker.dim,))
    witness = a.is_commutative()
    if witness is not None:
        for i in range(n):
            di = a.dmat.col(i)
            for j in range(i + 1, n):
                if a.tensor[i][j] == a.tensor[j][i]:
                    continue
                dj = a.dmat.col(j)
                prod = a.mul(di, dj)
                sp = Subspace(a.ctx, n, [di, dj, prod])
                if sp.dim != 3:
                    rep.record("noncomm_triple_independent", (i, j), (sp.dim,), (3,))
        if im.dim < 3:
            rep.record("noncomm_im_dim", witness, (im.dim,), (3,))
    return rep


def small_dim_commutativity_check(a: DAlgebra) -> AxiomReport:
    """dim Im(d) <= 2 forces commutativity, as does dim A <= 6."""
    rep = AxiomReport("small_dim_commutativity")
    witness = a.is_commutative()
    if witness is None:
        rep.notes.append("commutative")
        return rep
    im_dim = a.im_d().dim
    if im_dim <= 2:
        rep.record("im_le_2_commutative", witness, (im_dim,), ())
    if a.n <= 6:
        rep.record("dim_le_6_commutative", witness, (a.n,), ())
    rep.notes.append(f"noncommutative with dim Im(d) = {im_dim}, dim = {a.n}")
    return rep


def defect(a: AssocAlgebra2) -> int:
    """dim Ker(d) - dim Im(d)."""
    return a.ker_d().dim - a.im_d().dim


def homology(a: DAlgebra) -> tuple[DAlgebra, Matrix]:
    """Ker(d)/Im(d) as a commutative algebra with zero differential.

    Returns (H, proj) where proj maps Ker(d) coordinates (in the ambient
    basis) to H coordinates.  Chosen coset representatives sit on H as the
    attribute ``coset_reps`` (one ambient vector per H basis element, the
    class of 1 first).
    """
    # one span grows from Im(d): the unit, Ker(d) rows outside it (the
    # representatives), then standard vectors completing it to all of A,
    # so the projection is linear everywhere and restricts to the coset
    # map on Ker(d)
    span = a.im_d()
    off = span.dim
    unit = a.unit_vec()
    if span.add(unit) is None:
        raise NotApplicable("unit is a boundary; homology has no unit")
    reps = [unit] + [list(r) for r in a.ker_d().rows if span.add(r) is not None]
    h = len(reps)
    for i in range(a.n):
        span.add(a.basis_vec(i))

    def project(v: Sequence[Fe]) -> Vec:
        return span.coords(v)[off : off + h]

    # the representatives lie in Ker(d), so the d columns come out zero
    tensor, dcols = a.transport(reps, project)
    halg = DAlgebra(a.ctx, tensor, Matrix.from_cols(a.ctx, dcols), unit_idx=0)
    halg.coset_reps = reps
    proj_cols = [project(a.basis_vec(j)) for j in range(a.n)]
    return halg, Matrix.from_cols(a.ctx, proj_cols, h)


def change_basis(a: AssocAlgebra2, new_basis: Sequence[Sequence[Fe]]):
    """Rewrite a on the given basis (rows as ambient coordinate vectors).

    Returns (B, phi) with phi the isomorphism from B back to a.
    """
    if len(new_basis) != a.n:
        raise DimensionMismatch("change of basis needs exactly n vectors")
    solver = CoordSolver(a.ctx, new_basis)
    tensor, dcols = a.transport(new_basis, solver.coords)
    unit_idx = _standard_index(solver.coords(a.unit_vec()))
    if unit_idx is None:
        raise NotApplicable("unit is not a basis vector in the proposed basis")
    out = type(a)(a.ctx, tensor, Matrix.from_cols(a.ctx, dcols), unit_idx)
    return out, Morphism(out, a, Matrix.from_cols(a.ctx, [list(v) for v in new_basis]))


def _standard_index(v: Sequence[Fe]) -> int | None:
    nz = _nonzero(v)
    if len(nz) == 1 and nz[0][1] == 1:
        return nz[0][0]
    return None


def subalgebra(a: AssocAlgebra2, vectors: Sequence[Sequence[Fe]], unit: Sequence[Fe] | None = None):
    """Algebra structure on the span of vectors (must contain 1, be closed).

    Returns (S, incl) with S's unit at index 0; ``unit`` (default a's) may
    be an idempotent e, for the corner algebra on a span e*a.  Raises
    :class:`NotApplicable` when the span misses the unit, else when it is
    not closed under multiplication, else under d, else when row and
    column 0 of S's tensor show the unit fails to act as identity.  S holds
    a's passing report if a holds one, S has a's class and d(unit) = 0.
    """
    return _subalgebra(a, vectors, unit)[:2]


def _subalgebra(a: AssocAlgebra2, vectors, unit) -> tuple:
    """:func:`subalgebra`'s (S, incl), then the coordinate map onto S's basis."""
    span = Subspace(a.ctx, a.n, vectors)
    unit = list(unit) if unit is not None else a.unit_vec()
    if not span.contains(unit):
        raise NotApplicable("subalgebra span does not contain the unit")
    solver = Subspace(a.ctx, a.n, [unit])
    basis = [unit] + [r for r in span.rows if solver.add(r) is not None]
    # transport reads every product, then every d column
    laws = iter(["multiplication"] * len(basis) ** 2 + ["d"] * len(basis))

    def coords(v: Sequence[Fe]) -> Vec:
        law = next(laws)
        try:
            return solver.coords(v)
        except Inconsistent:
            raise NotApplicable(f"span not closed under {law}") from None

    tensor, dcols = a.transport(basis, coords)
    if any(_standard_index(t[0]) != i or t[0] != tensor[0][i] for i, t in enumerate(tensor)):
        raise NotApplicable("proposed unit does not act as identity on the span")
    cls = type(a) if isinstance(a, DAlgebra) else AssocAlgebra2
    sub = cls(a.ctx, tensor, Matrix.from_cols(a.ctx, dcols), 0)
    if _passed(a) and cls is type(a) and not any(dcols[0]):
        sub._report = a._report
    return sub, Morphism(sub, a, Matrix.from_cols(a.ctx, basis)), solver.coords


def is_d_ideal(a: AssocAlgebra2, space: Subspace) -> bool:
    """Closed under d and under multiplication by the algebra on both sides."""
    if space.ambient != a.n or space.ctx is not a.ctx:
        raise ShapeMismatch("subspace does not live in the algebra")
    for r in space.rows:
        if not space.contains(a.d(r)):
            return False
        for i in range(a.n):
            e = a.basis_vec(i)
            if not space.contains(a.mul(e, r)):
                return False
            if not space.contains(a.mul(r, e)):
                return False
    return True


def quotient(a: DAlgebra, ideal_space: Subspace):
    """Quotient by a d-ideal; returns (Q, proj).

    The ideal is revalidated here.  Coset representatives are the unit
    followed by standard basis vectors chosen greedily; the unit of the
    quotient therefore sits at index 0.
    """
    if not is_d_ideal(a, ideal_space):
        raise NotDIdeal("subspace is not a d-ideal")
    span = ideal_space.copy()
    off = span.dim
    unit = a.unit_vec()
    if span.add(unit) is None:
        raise NotApplicable("ideal contains 1; the quotient has no unit")
    reps = [unit] + [e for e in map(a.basis_vec, range(a.n)) if span.add(e) is not None]

    def project(v: Sequence[Fe]) -> Vec:
        return span.coords(v)[off:]

    tensor, dcols = a.transport(reps, project)
    q = type(a)(a.ctx, tensor, Matrix.from_cols(a.ctx, dcols), 0)
    proj = Morphism(a, q, Matrix.from_cols(a.ctx, [project(a.basis_vec(j)) for j in range(a.n)]))
    return q, proj


def direct_product_many(algs: Sequence[DAlgebra]):
    """Componentwise product on the basis 1 (the sum of the factor units
    u_g), the first factor's basis without u_0, then the others' bases, as
    placed by :func:`_product_coords`.  Returns (P, projs), one projection
    per factor; P holds a passing report when each factor holds one of P's kind."""
    if not algs:
        raise NotApplicable("product of no factors")
    ctx = algs[0].ctx
    if any(f.ctx is not ctx for f in algs):
        raise DimensionMismatch("product factors live over different fields")
    # the (factor, index) pairs summing to each basis vector of P
    parts = [[(g, f.unit_idx) for g, f in enumerate(algs)]]
    parts += [[(g, i)] for g, f in enumerate(algs) for i in range(f.n) if g or i != algs[0].unit_idx]
    tensor = [
        [_product_coords(algs, ((g, algs[g].tensor[i][j]) for g, i in p for h, j in q if g == h))
         for q in parts]
        for p in parts
    ]
    dcols = [_product_coords(algs, ((g, algs[g].dmat.col(i)) for g, i in p)) for p in parts]
    prod = type(algs[0])(ctx, tensor, Matrix.from_cols(ctx, dcols), 0)
    if all(_passed(f) and f.kind == prod.kind for f in algs):
        prod._report = algs[0]._report
    sel = [[[int((g, i) in p) for i in range(f.n)] for p in parts] for g, f in enumerate(algs)]
    return prod, [Morphism(prod, f, Matrix.from_cols(ctx, cols)) for f, cols in zip(algs, sel)]


def _product_coords(algs: Sequence[AssocAlgebra2], pieces) -> Vec:
    """Coordinates in :func:`direct_product_many`'s basis of the sum of v
    in factor g over the (g, v) in pieces.  u_0 = 1 + the other u_g, so a
    u_0-coordinate c goes to index 0 and is added at each other u_g."""
    blocks = [[0] * f.n for f in algs]
    for g, v in pieces:
        blocks[g] = vec_xor(blocks[g], v)
    u0 = algs[0].unit_idx
    out = [blocks[0][u0]] + [x for i, x in enumerate(blocks[0]) if i != u0]
    for f, v in zip(algs[1:], blocks[1:]):
        out += [x ^ out[0] if i == f.unit_idx else x for i, x in enumerate(v)]
    return out


def direct_product(a: DAlgebra, b: DAlgebra):
    """Two-factor product; returns (P, proj_a, proj_b)."""
    prod, projs = direct_product_many([a, b])
    return prod, projs[0], projs[1]


def embed_algebra(a: AssocAlgebra2, big_ctx: FieldCtx, embed) -> AssocAlgebra2:
    """Same structure constants pushed through a field embedding, holding
    a's passing report when a holds one; see the module docstring."""
    tensor = [[[embed(x) for x in v] for v in row] for row in a.tensor]
    drows = [[embed(x) for x in r] for r in a.dmat.rows]
    out = type(a)(big_ctx, tensor, Matrix(big_ctx, drows, a.n), a.unit_idx)
    if _passed(a):
        out._report = a._report
    return out
