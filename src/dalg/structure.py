"""Structure theory: nilradicals, idempotents, characters, decomposition.

The kernel of d is a central commutative subalgebra, and everything here
runs through it: its primitive idempotents cut the algebra into local
factors, the characters factor through them, and their kernels are the
maximal ideals.  The nilradical, the idempotents and the characters all
come from one kind of column, the Frobenius powers v^(2^t) of a basis,
2^t at least its dimension: e_i^(2^t) for the nilradical, and for the
characters the powers of the canonical basis of Ker(d).  The defect
(dim Ker - dim Im) bounds the number of factors, and defect-1 algebras
carry a rigid normal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AssocAlgebra2,
    DAlgebra,
    Morphism,
    _contract,
    _nonzero,
    _product_coords,
    _subalgebra,
    defect,
    direct_product_many,
    verify_morphism,
)
from .errors import (
    NonSplit,
    NotCommutative,
    TheoremViolation,
    WrongDefect,
)
from .gf2k import Fe, FieldCtx, fe_sqrt
from .ideals import DIdeal, close, ideal_intersect, nilpotency_index
from .linalg import CoordSolver, Matrix, Subspace, solve_lex_least
from .unipoly import UniPoly, poly_roots, squarefree_part

__all__ = [
    "nilradical",
    "primitive_idempotents",
    "Character",
    "characters",
    "maximal_ideals",
    "jacobson_radical",
    "is_local",
    "Decomposition",
    "decompose",
    "Defect1Basis",
    "defect_one_basis",
]


def _frobenius_powers(a: AssocAlgebra2, vecs: list) -> tuple:
    """(t, [v^q for v in vecs]) for q = 2^t, the least with q >= len(vecs)."""
    t = (len(vecs) - 1).bit_length()
    out = []
    for v in vecs:
        for _ in range(t):
            v = a.mul(v, v)
        out.append(v)
    return t, out


def _root(ctx: FieldCtx, c: Fe, t: int) -> Fe:
    """The 2^t-th root of c; the Frobenius is a bijection of GF(2^k)."""
    for _ in range(t):
        c = ctx.sqrt(c)
    return c


def nilradical(a: AssocAlgebra2) -> Subspace:
    """Nilpotent elements of a commutative algebra, as a subspace.

    In characteristic 2 squaring is additive, so for q = 2^t the element
    x = sum v_i e_i has x^q = sum v_i^q e_i^q.  A nilpotent x in an
    n-dimensional unital algebra has x^n = 0, because the ideals
    A > xA > x^2 A > ... strictly decrease until they reach 0; so once
    2^t >= n, x is nilpotent exactly when x^q = 0.  The nilradical is
    therefore the coordinate-wise q-th root of the kernel of the n x n
    matrix whose columns are e_i^q, taken over GF(2^k) itself.  The
    Frobenius is a field automorphism, so that root is again a subspace.
    """
    if a.is_commutative() is not None:
        raise NotCommutative("nilradical computation needs a commutative algebra")
    ctx = a.ctx
    t, cols = _frobenius_powers(a, [a.basis_vec(i) for i in range(a.n)])
    vecs = [[_root(ctx, c, t) for c in w] for w in Matrix.from_cols(ctx, cols, a.n).nullspace()]
    return Subspace(ctx, a.n, vecs)


def _hex(ctx: FieldCtx, v) -> str:
    return " ".join(ctx.to_hex(c) for c in v)


def _multiple(ctx: FieldCtx, e, s):
    """The c with s = c e, or None; e must be nonzero."""
    p = next(i for i, x in enumerate(e) if x)
    c = ctx.div(s[p], e[p])
    return c if [ctx.mul(c, x) for x in e] == s else None


def _times(a: DAlgebra, e) -> Matrix:
    """The map x -> x e as a matrix: one product by e then costs n^2 field
    multiplications, where a dense structure-constant product costs n^3."""
    return Matrix.from_cols(a.ctx, [a.mul(a.basis_vec(i), e) for i in range(a.n)], a.n)


def _split_idempotents(a: DAlgebra, t: int, cols: list) -> list:
    """Primitive idempotents e, each with the scalars c where g^q e = c e.

    cols holds g^q, q = 2^t >= dim B, for a basis g of a commutative
    subalgebra B holding the idempotents (a itself, or Ker(d)).  On B,
    x -> x^q is a ring map that kills the nilradical, so 1 and the columns
    span a copy of the semisimple quotient, and an idempotent e has e^q = e.
    e is primitive when its corner in that copy is F e; then g^q e is
    lam(g)^q e for the character lam through e.  Otherwise the first
    element s of the corner's canonical basis (in the coordinates of 1 and
    the independent columns) that is no multiple of e cuts it: s is the
    q-th power of a semisimple x, so its minimal polynomial has the degree
    of x's and the roots r^q for x's roots r.  Lagrange interpolation at
    them cuts e into smaller idempotents, queued in the order of the r.
    Raises :class:`NonSplit` when the polynomial has too few roots in the
    field (a residue field is a proper extension).
    """
    ctx = a.ctx
    unit = a.unit_vec()
    solver = Subspace(ctx, a.n, [unit])
    basis = [unit] + [c for c in cols if solver.add(c) is not None]
    span = Matrix.from_cols(ctx, basis, a.n)
    queue = [unit]
    out = []
    while queue:
        e = queue.pop()
        times_e = _times(a, e)
        corner = Subspace(ctx, len(basis), [solver.coords(times_e.mul_vec(b)) for b in basis])
        if corner.dim == 1:
            out.append((e, [_multiple(ctx, e, times_e.mul_vec(f)) for f in cols]))
            continue
        rows = [span.mul_vec(r) for r in corner.rows]
        s = next((x for x in rows if _multiple(ctx, e, x) is None), e)
        powers = [e, s]
        while True:
            null = Matrix.from_cols(ctx, powers, a.n).nullspace()
            if null:
                break
            powers.append(a.mul(powers[-1], s))
        mu = UniPoly(ctx, null[0]).monic()
        if squarefree_part(mu).degree != mu.degree:
            raise TheoremViolation(
                f"minimal polynomial of [{_hex(ctx, s)}] in the corner of "
                f"[{_hex(ctx, e)}] has a repeated root"
            )
        roots = poly_roots(mu)
        if len(roots) < mu.degree:
            raise NonSplit(
                f"minimal polynomial of degree {mu.degree} has only "
                f"{len(roots)} roots; extend the field",
                suggested_k=2 * ctx.k,
            )
        for r in sorted(roots, key=lambda r: _root(ctx, r, t)):
            num = UniPoly.one(ctx)
            for s2 in roots:
                if s2 != r:
                    num = num * UniPoly(ctx, (s2, 1))
            coeffs = num.scale(ctx.inv(num(r))).coeffs
            val = Matrix.from_cols(ctx, powers[: len(coeffs)], a.n).mul_vec(coeffs)
            if not any(val) or val == e:
                raise TheoremViolation(
                    f"splitting idempotent [{_hex(ctx, e)}] along "
                    f"[{_hex(ctx, s)}] yields no new piece"
                )
            queue.append(val)
        if len(out) + len(queue) > a.n:
            raise TheoremViolation(
                f"splitting idempotent [{_hex(ctx, e)}] along "
                f"[{_hex(ctx, s)}] gives more than {a.n} pieces"
            )
    out.sort()
    total = [0] * a.n
    for i, (e, _) in enumerate(out):
        if a.mul(e, e) != e or any(a.d(e)):
            raise TheoremViolation(f"split element [{_hex(ctx, e)}] is not a flat idempotent")
        total = [x ^ y for x, y in zip(total, e)]
        for f, _ in out[i + 1 :]:
            if any(a.mul(e, f)):
                raise TheoremViolation("primitive idempotents fail orthogonality")
    if total != unit:
        raise TheoremViolation("primitive idempotents do not sum to 1")
    return out


def primitive_idempotents(a: DAlgebra) -> list:
    """Primitive idempotents of a commutative algebra, sorted by coordinates,
    split out of the powers e_i^(2^t) by :func:`_split_idempotents`."""
    if a.is_commutative() is not None:
        raise NotCommutative("primitive idempotents need a commutative algebra")
    t, cols = _frobenius_powers(a, [a.basis_vec(i) for i in range(a.n)])
    return [e for e, _ in _split_idempotents(a, t, cols)]


@dataclass
class Character:
    """An algebra map onto the base field, as a coefficient row.

    ``idempotent`` is the primitive idempotent of Ker(d) the character
    factors through, written in ambient coordinates.
    """

    ctx: FieldCtx
    functional: list
    idempotent: list

    def of(self, v) -> Fe:
        mul = self.ctx.mul
        out = 0
        for c, x in zip(self.functional, v):
            if c and x:
                out ^= mul(c, x)
        return out


def characters(a: DAlgebra) -> list:
    """All algebra maps a -> F, one per primitive idempotent of Ker(d).

    Ker(d) holds every idempotent (e = e^2 gives d(e) = 2 e d(e) = 0).
    :func:`_split_idempotents` on the powers k^q of its canonical basis k
    gives e and lam(k)^q for the character lam through e.  x in Ker(d) is
    sum x[p] k over the pivots p, and every square lies in Ker(d), so
    lam(e_j) is the square root of lam(e_j^2).  The list is sorted by
    coefficient row; its length is the number of local factors.
    """
    ctx = a.ctx
    ker = a.ker_d()
    t, cols = _frobenius_powers(a, ker.rows)
    squares = Matrix(ctx, [a.tensor[j][j] for j in range(a.n)], a.n)
    out = []
    for e, scalars in _split_idempotents(a, t, cols):
        on_ker = [0] * a.n
        for p, c in zip(ker.pivots, scalars):
            on_ker[p] = _root(ctx, c, t)
        functional = [ctx.sqrt(c) for c in squares.mul_vec(on_ker)]
        lam = Character(ctx, functional, e)
        if lam.of(a.unit_vec()) != 1:
            raise TheoremViolation("character misses 1 at the unit")
        for i in range(a.n):
            if lam.of(a.dmat.col(i)):
                raise TheoremViolation("character fails to kill Im(d)")
            li = functional[i]
            for j in range(a.n):
                if lam.of(a.tensor[i][j]) != ctx.mul(li, functional[j]):
                    raise TheoremViolation("character fails multiplicativity")
        out.append(lam)
    out.sort(key=lambda c: tuple(c.functional))
    return out


def maximal_ideals(a: DAlgebra) -> list:
    """Kernels of the characters; aligned with :func:`characters` order."""
    out = []
    for lam in characters(a):
        kernel = Matrix(a.ctx, [list(lam.functional)], a.n).nullspace()
        ideal = close(a, kernel)
        if ideal.dim != a.n - 1:
            raise TheoremViolation(f"character kernel has dimension {ideal.dim}, not {a.n - 1}")
        out.append(ideal)
    return out


def jacobson_radical(a: DAlgebra) -> DIdeal:
    """Intersection of the maximal ideals; always nilpotent here."""
    ideals = maximal_ideals(a)
    rad = ideals[0]
    for i in ideals[1:]:
        rad = ideal_intersect(rad, i)
    if not rad.is_zero() and nilpotency_index(rad) is None:
        raise TheoremViolation("radical fails to be nilpotent")
    return rad


def is_local(a: DAlgebra) -> bool:
    return len(characters(a)) == 1


@dataclass
class Decomposition:
    """A verified splitting into local factors.

    ``iso`` maps the algebra onto the direct product of the factors;
    ``projections`` are the factor maps from the original algebra.
    """

    idempotents: list
    factors: list
    projections: list
    product: DAlgebra
    iso: Morphism


def decompose(a: DAlgebra) -> Decomposition:
    """Split along the primitive idempotents of Ker(d) into local factors,
    the corners e a, with the isomorphism onto their product placed in
    closed form.  Verifies, in order, that isomorphism (multiplicativity on
    the rows in J = ``a.generators()`` when a passes, as its factors and
    their product then do), the factor count against the defect, defect
    additivity and the locality of every factor.
    """
    ctx = a.ctx
    idems = [c.idempotent for c in characters(a)]
    cols = a._columns()
    factors, fprojs = [], []
    for e in idems:
        eterms = _nonzero(e)
        rows = [_contract(ctx, [0] * a.n, eterms, col) for col in cols]
        f, _, coords = _subalgebra(a, rows, e)
        factors.append(f)
        fprojs.append(Morphism(a, f, Matrix.from_cols(ctx, [coords(r) for r in rows])))
    prod, _ = direct_product_many(factors)
    iso_cols = [_product_coords(factors, enumerate(m.mat.col(j) for m in fprojs)) for j in range(a.n)]
    iso = Morphism(a, prod, Matrix.from_cols(ctx, iso_cols))
    rep = verify_morphism(iso, require_iso=True)
    if not rep.passed:
        raise TheoremViolation(f"product splitting fails to verify: {rep.failures[:1]}")
    df = defect(a)
    if len(factors) > df:
        raise TheoremViolation(f"more local factors than the defect allows: {len(factors)} > {df}")
    if sum(defect(f) for f in factors) != df:
        raise TheoremViolation("defect fails to add up over the factors")
    for i, f in enumerate(factors):
        if not is_local(f):
            raise TheoremViolation(f"a factor is not local: factor {i} of dimension {f.n}")
    return Decomposition(idems, factors, fprojs, prod, iso)


@dataclass
class Defect1Basis:
    """Basis 1, v_1..v_f, w_1..w_f with v_i spanning Im(d), d(w_i) = v_i,
    v_i^2 = 0 and w_i^4 = 0."""

    one: list
    vs: list
    ws: list

    def rows(self) -> list:
        return [self.one] + self.vs + self.ws


def defect_one_basis(a: DAlgebra) -> Defect1Basis:
    """The rigid normal basis of a defect-1 algebra.

    The w_i are the lexicographically least d-preimages of the canonical
    Im(d) basis, shifted by a square root of the unit coefficient of
    their squares so that w_i^2 lands in Im(d).
    """
    ctx = a.ctx
    df = defect(a)
    if df != 1:
        raise WrongDefect(f"defect is {df}, need 1")
    im = a.im_d()
    f = im.dim
    unit = a.unit_vec()
    vs = [list(r) for r in im.rows]
    ksolver = CoordSolver(ctx, [unit] + vs)
    ws = []
    for v in vs:
        z = solve_lex_least(ctx, a.dmat, v)
        a0 = ksolver.coords(a.mul(z, z))[0]
        s = fe_sqrt(ctx, a0)
        w = [zc ^ ctx.mul(s, uc) for zc, uc in zip(z, unit)]
        if a.d(w) != v:
            raise TheoremViolation("adjusted preimage lost its d image")
        wsq = a.mul(w, w)
        if ksolver.coords(wsq)[0]:
            raise TheoremViolation("square of adjusted preimage keeps a unit part")
        if any(a.mul(wsq, wsq)):
            raise TheoremViolation("fourth power of adjusted preimage survives")
        ws.append(w)
    for v in vs:
        if any(a.mul(v, v)):
            raise TheoremViolation("a boundary fails to square to zero")
    basis = Defect1Basis(list(unit), vs, ws)
    if Subspace(ctx, a.n, basis.rows()).dim != a.n:
        raise TheoremViolation("normal basis candidates are dependent")
    if a.n != 2 * f + 1:
        raise TheoremViolation("defect-1 dimension is not 2 dim Im(d) + 1")
    return basis
