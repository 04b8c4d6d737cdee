"""The 7-dimensional noncommutative family and its classification.

Noncommutativity forces dim >= 7, and at dimension 7 every example is a
member of the three-parameter family

    D(h, k, p) = P(2, 0) / [x1^2 + h xi1 xi2,  x2^2 + k xi1 xi2,
                            x1 x2 + p xi1 xi2, xi1 x1,  xi2 x2,
                            xi1 x2 + xi2 x1]

on the basis 1, xi1, xi2, x1, x2, xi1 xi2, xi1 x2.  :func:`classify7`
finds the parameters of a given algebra together with an isomorphism from
the matching D, and :func:`normalize7` walks any member down to D(0, 0, 0),
extending the field once when the quadratic k t^2 + t + h has no roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .algebra import (
    AxiomReport,
    DAlgebra,
    Morphism,
    compose,
    embed_algebra,
    invert,
    verify_morphism,
)
from .errors import NeedsExtension, NotApplicable, TheoremViolation
from .gf2k import Fe, FieldCtx, fe_sqrt, field, field_extend, quad_roots
from .linalg import CoordSolver, Matrix, Subspace
from .polyd import PAlgebra, Presentation, quotient_to_dalgebra

__all__ = [
    "make_D",
    "classify7",
    "reduce_to_q",
    "kill_q",
    "normalize7",
    "CanonicalForm7",
    "Normal7Result",
]

# make_D's cache, oldest first; hits move to the end, the oldest beyond
# _MAKE_CACHE_SIZE entries is dropped
_make_cache: dict = {}
_MAKE_CACHE_SIZE = 16


def _quotient_D(ctx: FieldCtx, h: Fe, k: Fe, p: Fe) -> DAlgebra:
    # D(h, k, p) from its presentation; basis 1, xi1, xi2, x1, x2, xi1 xi2, xi1 x2
    pa = PAlgebra(ctx, 2, 0)
    x1, x2, xi1, xi2 = pa.x(1), pa.x(2), pa.xi(1), pa.xi(2)
    xx = xi1 * xi2
    rels = [
        x1 * x1 + xx.scale(h),
        x2 * x2 + xx.scale(k),
        x1 * x2 + xx.scale(p),
        xi1 * x1,
        xi2 * x2,
        xi1 * x2 + xi2 * x1,
    ]
    alg = quotient_to_dalgebra(Presentation(pa, rels, 4))
    if alg.n != 7:
        raise TheoremViolation(f"D({h},{k},{p}) came out {alg.n}-dimensional")
    return alg


def _member(ctx: FieldCtx, base: DAlgebra, parts: tuple, h: Fe, k: Fe, p: Fe) -> DAlgebra:
    """T0 + h Th + k Tk + p Tp over ctx with the d and labels of base; unverified."""
    tensor = [[list(v) for v in row] for row in base.tensor]
    for c, part in zip((h, k, p), parts):
        for i, j, m in part:
            tensor[i][j][m] ^= c
    alg = DAlgebra(ctx, tensor, Matrix(ctx, base.dmat.rows), 0)
    alg.basis_labels = base.basis_labels
    return alg


def _prove_family(base: DAlgebra, parts: tuple) -> AxiomReport:
    """Verify the 10 members D(t_a, t_b, t_c) over GF(4) with a + b + c <= 2,
    for the nodes t_0, t_1, t_2 = 0, 1, w (w^2 = w + 1, the element 2).

    Returns the passing report; raises :class:`TheoremViolation` on the
    first member that fails.  See :func:`_family_parts` for why these
    points decide every member over every field.
    """
    gf4 = field(2)
    for h, k, p in product((0, 1, 2), repeat=3):
        if h + k + p > 2:  # the node indices equal the encodings 0, 1, 2
            continue
        rep = _member(gf4, base, parts, h, k, p).verify()
        if not rep.passed:
            raise TheoremViolation(f"D({h},{k},{p}) over GF(4) fails axioms: {rep.failures[:1]}")
    return rep


@lru_cache(maxsize=None)
def _family_parts() -> tuple[DAlgebra, tuple, AxiomReport]:
    """D(0, 0, 0) over GF(2), the entries each of h, k, p adds to, and the
    report that proves every member.

    The structure constants of D(h, k, p) are T0 + h Th + k Tk + p Tp with
    0/1 tensors T, and d does not depend on the parameters, so these four
    quotients give every member over every field.

    Every law is linear or bilinear in the tensor with d fixed, so each
    entry of each law's residual is a polynomial P in (h, k, p) of total
    degree at most 2 with GF(2) coefficients.  Write P over the Newton
    products N_a(h) N_b(k) N_c(p), a + b + c <= 2, with N_0 = 1, N_1 = t
    and N_2 = t (t + 1): N_a vanishes at the nodes before t_a and not at
    t_a.  At (t_a, t_b, t_c) only the products with indices at most
    (a, b, c) survive, so if P vanishes at the 10 points of
    :func:`_prove_family` its coefficients vanish one by one in order of
    a + b + c, and P = 0.  Passing there proves the laws for every member
    over every GF(2^k).
    """
    gf2 = field(1)
    base = _quotient_D(gf2, 0, 0, 0)
    parts = []
    for triple in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        t = _quotient_D(gf2, *triple).tensor
        parts.append(tuple(
            (i, j, m)
            for i, row in enumerate(t)
            for j, vec in enumerate(row)
            for m, x in enumerate(vec)
            if x != base.tensor[i][j][m]
        ))
    parts = tuple(parts)
    return base, parts, _prove_family(base, parts)


def make_D(ctx: FieldCtx, h: Fe, k: Fe, p: Fe) -> DAlgebra:
    """The family member D(h, k, p), verified, cached per field and triple.

    Built as T0 + h Th + k Tk + p Tp from :func:`_family_parts`, whose
    proof on 10 members over GF(4) gives every member its passing report,
    so no member is scanned on its own.  The cache keeps the 16 most recently used, so
    one normalization sees the same D(0, 0, 0) object (and its memoised
    generators) throughout while a long run does not grow it.
    """
    key = (id(ctx), h, k, p)
    hit = _make_cache.pop(key, None)
    if hit is not None:
        _make_cache[key] = hit
        return hit[1]
    for c in (h, k, p):
        ctx.check(c)
    base, parts, proof = _family_parts()
    alg = _member(ctx, base, parts, h, k, p)
    alg._report = proof
    _make_cache[key] = (ctx, alg)
    if len(_make_cache) > _MAKE_CACHE_SIZE:
        del _make_cache[next(iter(_make_cache))]
    return alg


@dataclass
class CanonicalForm7:
    """Parameters of a 7-dimensional noncommutative algebra.

    ``morphism`` is a verified isomorphism D(h, k, p) -> A; ``witness`` is
    the noncommuting basis pair the construction started from; ``coeffs``
    keeps the raw structure coefficients read off along the way.
    """

    h: Fe
    k: Fe
    p: Fe
    morphism: Morphism
    witness: tuple[int, int]
    coeffs: dict


def _expect(ctx, coords, allowed: dict[int, Fe | None], what: str) -> dict[int, Fe]:
    got = {}
    for i, c in enumerate(coords):
        req = allowed.get(i)
        if i in allowed:
            if req is not None and c != req:
                raise TheoremViolation(
                    f"{what}: coordinate {i} is {ctx.to_hex(c)}, expected {ctx.to_hex(req)}"
                )
            got[i] = c
        elif c:
            raise TheoremViolation(f"{what}: unexpected support at coordinate {i}")
    return got


def classify7(a: DAlgebra) -> CanonicalForm7:
    """Extract (h, k, p) with a verified isomorphism D(h, k, p) -> a.

    The input must be a 7-dimensional noncommutative d-algebra; anything
    the classification theorem promises but the input fails to deliver is
    reported as :class:`TheoremViolation`.
    """
    ctx = a.ctx
    if a.n != 7:
        raise NotApplicable("classification applies to dimension 7 only")
    rep = a.verify()
    if not rep.passed:
        raise NotApplicable(f"input fails the axioms: {rep.failures[:1]}")
    witness = a.is_commutative()
    if witness is None:
        raise NotApplicable("algebra is commutative; nothing to classify")
    i, j = witness
    z1, z2 = a.basis_vec(i), a.basis_vec(j)
    v1, v2 = a.d(z1), a.d(z2)
    v3 = a.mul(v1, v2)
    one = a.unit_vec()

    im = a.im_d()
    if im.dim != 3 or Subspace(ctx, a.n, [v1, v2, v3]).dim != 3:
        raise TheoremViolation("d images of a noncommuting pair must span a 3-dimensional Im(d)")
    ker = a.ker_d()
    if ker.dim != 4 or not all(ker.contains(v) for v in (one, v1, v2, v3)):
        raise TheoremViolation("Ker(d) must be spanned by 1 and the d images")

    ker_solver = CoordSolver(ctx, [one, v1, v2, v3])
    ws = []
    for z in (z1, z2):
        a0 = ker_solver.coords(a.mul(z, z))[0]
        s = fe_sqrt(ctx, a0)
        ws.append([zc ^ ctx.mul(s, oc) for zc, oc in zip(z, one)])
    w1, w2 = ws
    w3 = a.mul(v1, w2)

    basis = [one, v1, v2, v3, w1, w2, w3]
    solver = Subspace(ctx, a.n, basis)
    if solver.dim != 7:
        raise TheoremViolation("1, d images and adjusted pair fail to form a basis")

    def at(u, v, allowed, what):
        return _expect(ctx, solver.coords(a.mul(u, v)), allowed, what)

    a3 = at(v1, w1, {3: None}, "v1 w1")[3]
    b3 = at(v2, w2, {3: None}, "v2 w2")[3]
    g3 = at(v2, w1, {3: None, 6: 1}, "v2 w1")[3]
    at(v1, w2, {6: 1}, "v1 w2")
    h3 = at(w1, w1, {3: None}, "w1 w1")[3]
    k3 = at(w2, w2, {3: None}, "w2 w2")[3]
    got = at(w1, w2, {3: None, 6: g3}, "w1 w2")
    p3 = got[3]

    h, k = h3, k3
    p = p3 ^ ctx.mul(a3, b3)
    dd = make_D(ctx, h, k, p)

    u1 = [wc ^ ctx.mul(g3, vc) ^ ctx.mul(a3, uc) for wc, vc, uc in zip(w1, v1, v2)]
    u2 = [wc ^ ctx.mul(b3, vc) for wc, vc in zip(w2, v1)]
    cols = [one, v1, v2, u1, u2, v3, a.mul(v1, u2)]
    phi = Morphism(dd, a, Matrix.from_cols(ctx, cols))
    mrep = verify_morphism(phi, require_iso=True)
    if not mrep.passed:
        raise TheoremViolation(f"canonical map fails to verify: {mrep.failures[:1]}")
    return CanonicalForm7(
        h, k, p, phi, witness,
        {"a3": a3, "b3": b3, "g3": g3, "h3": h3, "k3": k3, "p3": p3},
    )


def _morphism_by_images(src: DAlgebra, tgt: DAlgebra, cols, what: str) -> Morphism:
    m = Morphism(src, tgt, Matrix.from_cols(tgt.ctx, cols))
    rep = verify_morphism(m, require_iso=True)
    if not rep.passed:
        raise TheoremViolation(f"{what} fails to verify: {rep.failures[:1]}")
    return m


def reduce_to_q(ctx: FieldCtx, h: Fe, k: Fe, p: Fe) -> tuple[Fe, Morphism]:
    """An isomorphism D(0, 0, q) -> D(h, k, p).

    With k nonzero, q = alpha k for a root alpha of k t^2 + t + h; the two
    x generators move to sqrt(p) d(u) + u over the eigenvector changes
    u = x1 + root x2.  A rootless quadratic raises :class:`NeedsExtension`
    with the doubled degree.  With k = 0 but h nonzero the roles of the
    generators swap first, trading (h, 0, p) for (0, h, p + 1).
    """
    tgt = make_D(ctx, h, k, p)
    if not h and not k:
        n = tgt.n
        ident = Matrix.identity(ctx, n)
        return p, Morphism(tgt, tgt, ident)
    if not k:
        # swap x1 <-> x2: an isomorphism D(0, h, p + 1) -> D(h, 0, p)
        mid = make_D(ctx, 0, h, p ^ 1)
        e = tgt.basis_vec
        swap_cols = [
            tgt.unit_vec(), e(2), e(1), e(4), e(3),
            tgt.mul(e(2), e(1)), tgt.mul(e(2), e(3)),
        ]
        sigma = _morphism_by_images(mid, tgt, swap_cols, "generator swap")
        q, psi = reduce_to_q(ctx, 0, h, p ^ 1)
        return q, compose(sigma, psi)
    alpha, beta = quad_roots(ctx, k, 1, h)
    q = ctx.mul(alpha, k)
    src = make_D(ctx, 0, 0, q)
    e = tgt.basis_vec
    sp = fe_sqrt(ctx, p)
    cols = []
    us = []
    for root in (alpha, beta):
        u = [ac ^ ctx.mul(root, bc) for ac, bc in zip(e(3), e(4))]
        us.append((u, tgt.d(u)))
    x_imgs = [
        [ctx.mul(sp, dc) ^ uc for uc, dc in zip(u, du)] for u, du in us
    ]
    cols = [
        tgt.unit_vec(), us[0][1], us[1][1], x_imgs[0], x_imgs[1],
        tgt.mul(us[0][1], us[1][1]), tgt.mul(us[0][1], x_imgs[1]),
    ]
    return q, _morphism_by_images(src, tgt, cols, "diagonalizing map")


def kill_q(ctx: FieldCtx, q: Fe) -> Morphism:
    """An isomorphism D(0, 0, 0) -> D(0, 0, q) via x_i -> sqrt(q) xi_i + x_i."""
    src = make_D(ctx, 0, 0, 0)
    tgt = make_D(ctx, 0, 0, q)
    e = tgt.basis_vec
    sq = fe_sqrt(ctx, q)
    x1 = [ctx.mul(sq, ac) ^ bc for ac, bc in zip(e(1), e(3))]
    x2 = [ctx.mul(sq, ac) ^ bc for ac, bc in zip(e(2), e(4))]
    cols = [tgt.unit_vec(), e(1), e(2), x1, x2, tgt.mul(e(1), e(2)), tgt.mul(e(1), x2)]
    return _morphism_by_images(src, tgt, cols, "parameter-killing map")


@dataclass
class Normal7Result:
    """Outcome of walking an algebra down to the canonical model.

    ``algebra`` is the input, base-changed to the doubled field when
    ``extended`` is set; ``morphism`` is a verified isomorphism from it
    onto ``canonical`` = D(0, 0, 0).
    """

    algebra: DAlgebra
    canonical: DAlgebra
    morphism: Morphism
    h: Fe
    k: Fe
    p: Fe
    q: Fe
    extended: bool
    classified: CanonicalForm7


def normalize7(a: DAlgebra, allow_extend: bool = True) -> Normal7Result:
    """Normalize a 7-dimensional noncommutative algebra onto D(0, 0, 0).

    At most one field doubling is ever needed: a quadratic without roots
    splits over the degree-2 extension.
    """
    ctx = a.ctx
    c7 = classify7(a)
    try:
        q, m2 = reduce_to_q(ctx, c7.h, c7.k, c7.p)
    except NeedsExtension:
        if not allow_extend:
            raise
        big, emb = field_extend(ctx)
        res = normalize7(embed_algebra(a, big, emb), allow_extend=False)
        res.extended = True
        return res
    m3 = kill_q(ctx, q)
    down = compose(c7.morphism, compose(m2, m3))
    up = invert(down)
    rep = verify_morphism(up, require_iso=True)
    if not rep.passed:
        raise TheoremViolation(f"normalization chain fails to verify: {rep.failures[:1]}")
    return Normal7Result(
        algebra=a,
        canonical=make_D(ctx, 0, 0, 0),
        morphism=up,
        h=c7.h, k=c7.k, p=c7.p, q=q,
        extended=False,
        classified=c7,
    )
