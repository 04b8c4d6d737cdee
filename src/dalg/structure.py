"""Structure theory: nilradicals, idempotents, characters, decomposition.

The kernel of d is a central commutative subalgebra, and everything here
runs through it: its primitive idempotents cut the algebra into local
factors, its corner residues give the characters, and their kernels are
the maximal ideals.  The defect (dim Ker - dim Im) bounds the number of
factors, and defect-1 algebras carry a rigid normal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AssocAlgebra2,
    DAlgebra,
    Morphism,
    defect,
    direct_product_many,
    quotient,
    subalgebra,
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
from .linalg import CoordSolver, Matrix, Subspace, solve, solve_lex_least
from .linalg import min_poly
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
    t = (a.n - 1).bit_length()
    cols = []
    for i in range(a.n):
        v = a.basis_vec(i)
        for _ in range(t):
            v = a.mul(v, v)
        cols.append(v)
    vecs = []
    for w in Matrix.from_cols(ctx, cols, a.n).nullspace():
        for _ in range(t):
            w = [ctx.sqrt(c) for c in w]
        vecs.append(w)
    return Subspace(ctx, a.n, vecs)


def _corner_rows(a: AssocAlgebra2, e) -> list:
    return [a.mul(e, a.basis_vec(i)) for i in range(a.n)]


def _split_semisimple(a: DAlgebra) -> list:
    """Primitive idempotents of a semisimple commutative algebra.

    Splits corners along eigenspaces of an element whose minimal
    polynomial has degree at least 2; Lagrange interpolation at its roots
    produces the cutting idempotents.  Raises :class:`NonSplit` when a
    minimal polynomial has too few roots in the field.
    """
    ctx = a.ctx
    queue = [a.unit_vec()]
    out = []
    while queue:
        e = queue.pop()
        sp = Subspace(ctx, a.n, _corner_rows(a, e))
        if sp.dim == 1:
            out.append(e)
            continue
        solver = CoordSolver(ctx, sp.rows)
        pick = None
        for b in sp.rows:
            mat = Matrix.from_cols(
                ctx, [solver.coords(a.mul(b, r)) for r in sp.rows]
            )
            mu = min_poly(mat)
            if mu.degree >= 2:
                pick = (b, mu)
                break
        if pick is None:
            raise TheoremViolation("corner of dimension > 1 with only scalar elements")
        b, mu = pick
        if squarefree_part(mu).degree != mu.degree:
            raise TheoremViolation(
                "semisimple quotient contains an element with a repeated eigenvalue"
            )
        roots = poly_roots(mu)
        if len(roots) < mu.degree:
            raise NonSplit(
                f"minimal polynomial of degree {mu.degree} has only "
                f"{len(roots)} roots; extend the field",
                suggested_k=2 * ctx.k,
            )
        for r in roots:
            num = UniPoly.one(ctx)
            den = 1
            for s2 in roots:
                if s2 != r:
                    num = num * UniPoly(ctx, (s2, 1))
                    den = ctx.mul(den, r ^ s2)
            ell = num.scale(ctx.inv(den))
            val = [0] * a.n
            power = e
            for c in ell.coeffs:
                if c:
                    val = [x ^ ctx.mul(c, y) for x, y in zip(val, power)]
                power = a.mul(power, b)
            queue.append(val)
    return out


def primitive_idempotents(a: DAlgebra) -> list:
    """Primitive idempotents of a commutative algebra, radical included.

    Idempotents of the semisimple quotient lift through the nilradical by
    repeated squaring (their residues are 0/1-valued, which the Frobenius
    fixes).  The result is deterministic: sorted by coordinate vector.
    """
    ctx = a.ctx
    rad = nilradical(a)
    if rad.dim:
        ss, proj = quotient(a, rad)
    else:
        ss, proj = a, None
    idems = _split_semisimple(ss)
    if proj is not None:
        lifted = []
        for eb in idems:
            x = solve(ctx, proj.mat, eb)
            for _ in range(a.n + 2):
                if a.mul(x, x) == x:
                    break
                x = a.mul(x, x)
            else:
                raise TheoremViolation("idempotent lift failed to converge")
            lifted.append(x)
        idems = lifted
    idems.sort()
    unit = a.unit_vec()
    total = [0] * a.n
    for i, e in enumerate(idems):
        if a.mul(e, e) != e or any(a.d(e)):
            raise TheoremViolation("lifted element is not a flat idempotent")
        total = [x ^ y for x, y in zip(total, e)]
        for f in idems[i + 1 :]:
            if any(a.mul(e, f)):
                raise TheoremViolation("primitive idempotents fail orthogonality")
    if total != unit:
        raise TheoremViolation("primitive idempotents do not sum to 1")
    return idems


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
    """All algebra maps a -> F, built from Ker(d) corner residues.

    Every character kills Im(d) and is determined on Ker(d); the value at
    a general x is the square root of the character of x^2, which lands
    back in the kernel.  The list is sorted by coefficient row and its
    length equals the number of local factors.
    """
    ctx = a.ctx
    kalg, incl = subalgebra(a, a.ker_d().rows)
    ksolver = CoordSolver(ctx, [incl.mat.col(t) for t in range(kalg.n)])
    idems = primitive_idempotents(kalg)
    out = []
    for e in idems:
        corner, cincl = subalgebra(kalg, _corner_rows(kalg, e), unit=e)
        crad = nilradical(corner)
        if crad.dim:
            cq, cproj = quotient(corner, crad)
        else:
            cq, cproj = corner, None
        if cq.n != 1:
            hx = " ".join(ctx.to_hex(c) for c in incl.apply(e))
            raise TheoremViolation(f"corner residue of idempotent [{hx}] has dimension {cq.n}")
        csolver = CoordSolver(ctx, [cincl.mat.col(t) for t in range(corner.n)])

        def lam_k(u, _e=e, _cs=csolver, _cp=cproj):
            w = kalg.mul(u, _e)
            cc = _cs.coords(w)
            if _cp is not None:
                cc = _cp.apply(cc)
            return cc[0]

        functional = []
        for j in range(a.n):
            ej = a.basis_vec(j)
            sq = ksolver.coords(a.mul(ej, ej))
            functional.append(fe_sqrt(ctx, lam_k(sq)))
        lam = Character(ctx, functional, incl.apply(e))
        if lam.of(a.unit_vec()) != 1:
            raise TheoremViolation("character misses 1 at the unit")
        for i in range(a.n):
            if lam.of(a.dmat.col(i)):
                raise TheoremViolation("character fails to kill Im(d)")
            li = lam.of(a.basis_vec(i))
            for j in range(a.n):
                prod = a.mul(a.basis_vec(i), a.basis_vec(j))
                if lam.of(prod) != ctx.mul(li, lam.of(a.basis_vec(j))):
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
    """Split along the primitive idempotents of Ker(d) into local factors.

    Verifies the factor count against the defect, defect additivity, the
    locality of every factor and the product isomorphism.
    """
    ctx = a.ctx
    idems = [c.idempotent for c in characters(a)]
    factors = []
    fprojs = []
    for e in idems:
        f, fincl = subalgebra(a, _corner_rows(a, e), unit=e)
        fsolver = CoordSolver(ctx, [fincl.mat.col(t) for t in range(f.n)])
        cols = [fsolver.coords(a.mul(e, a.basis_vec(j))) for j in range(a.n)]
        factors.append(f)
        fprojs.append(Morphism(a, f, Matrix.from_cols(ctx, cols)))
    prod, pprojs = direct_product_many(factors)
    stack_p = Matrix(ctx, [row for m in pprojs for row in m.mat.rows], prod.n)
    stack_f = Matrix(ctx, [row for m in fprojs for row in m.mat.rows], a.n)
    iso = Morphism(a, prod, stack_p.inverse().mul(stack_f))
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
