"""Builders for small reference algebras shared across the test suite."""

from __future__ import annotations

import random

from dalg import CoordSolver, DAlgebra, Inconsistent, Matrix, Morphism, Subspace, field
from dalg.algebra import AxiomReport, _contract, _nonzero
from dalg.linalg import rref_rows
from dalg.gf2k import FieldCtx
from dalg.pbw import ConfluenceReport, StraightenCtx, TElem, _add_into, _relations, standard_words


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


def commutative_tensor(a: DAlgebra, b: DAlgebra) -> DAlgebra:
    """The untwisted tensor product of commutative a and b: basis
    e_i (x) f_j at index i * b.n + j, d = d (x) 1 + 1 (x) d.

    It is commutative and passes the unit, associativity and derivation
    laws; the twisted law fails wherever d(u) d(v) != 0, e.g. at
    (x (x) 1, 1 (x) x) for ``tiny_d_algebra``, where d(x) d(x) = w (x) w.
    """
    ctx, nb = a.ctx, b.n
    n = a.n * nb
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    drows = [[0] * n for _ in range(n)]
    for i1 in range(a.n):
        for j1 in range(nb):
            for i2 in range(a.n):
                for j2 in range(nb):
                    v = tensor[i1 * nb + j1][i2 * nb + j2]
                    for m1, c1 in enumerate(a.tensor[i1][i2]):
                        for m2, c2 in enumerate(b.tensor[j1][j2]):
                            v[m1 * nb + m2] ^= ctx.mul(c1, c2)
            for m in range(a.n):
                drows[m * nb + j1][i1 * nb + j1] ^= a.dmat.rows[m][i1]
            for m in range(nb):
                drows[i1 * nb + m][i1 * nb + j1] ^= b.dmat.rows[m][j1]
    return DAlgebra(ctx, tensor, Matrix(ctx, drows, n), a.unit_idx * nb + b.unit_idx)


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
            return change_basis(a, rows)[0]


def rebuilt(a: DAlgebra) -> DAlgebra:
    """A copy of a built from its tensor and d alone, holding no report, so
    that its ``verify`` scans every law instead of reading one passed on."""
    return type(a)(a.ctx, a.tensor, a.dmat, a.unit_idx)


def unit_moved(a: DAlgebra, idx: int) -> DAlgebra:
    """a on its standard basis reordered so that the unit sits at index idx."""
    from dalg import change_basis

    order = [i for i in range(a.n) if i != a.unit_idx]
    order.insert(idx, a.unit_idx)
    return change_basis(a, [a.basis_vec(i) for i in order])[0]


def blockwise_product(algs) -> tuple:
    """(P, projs) as the product was built before its closed form: the
    blockwise tensor and d, rebased by a coordinate solve onto 1 (the sum
    of the factor units), then the first factor's basis without its unit,
    then the other factors' bases; each projection is a block selection
    times the change of basis."""
    ctx = algs[0].ctx
    n = sum(f.n for f in algs)
    offs = [sum(f.n for f in algs[:g]) for g in range(len(algs))]
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    drows = [[0] * n for _ in range(n)]
    for f, off in zip(algs, offs):
        for i in range(f.n):
            for j in range(f.n):
                tensor[off + i][off + j][off : off + f.n] = f.tensor[i][j]
                drows[off + i][off + j] = f.dmat.rows[i][j]
    blockwise = type(algs[0])(ctx, tensor, Matrix(ctx, drows, n), offs[0] + algs[0].unit_idx)
    ua = [0] * n
    for f, off in zip(algs, offs):
        ua[off + f.unit_idx] = 1
    basis = [ua]
    for g, (f, off) in enumerate(zip(algs, offs)):
        basis += [blockwise.basis_vec(off + i) for i in range(f.n) if g or i != f.unit_idx]
    solver = CoordSolver(ctx, basis)
    ptensor, dcols = blockwise.transport(basis, solver.coords)
    unit = _nonzero(solver.coords(ua))
    assert len(unit) == 1 and unit[0][1] == 1
    prod = type(algs[0])(ctx, ptensor, Matrix.from_cols(ctx, dcols), unit[0][0])
    phi = Matrix.from_cols(ctx, basis)
    projs = []
    for f, off in zip(algs, offs):
        block = Matrix(ctx, [[1 if off + i == j else 0 for j in range(n)] for i in range(f.n)], n)
        projs.append(Morphism(prod, f, block.mul(phi)))
    return prod, projs


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


# -- batch echelon oracles: spans, coordinates, closures and J rebuilt -------


def batch_subspace(ctx: FieldCtx, ambient: int, vectors) -> Subspace:
    """The span's canonical rows by one batch :func:`rref_rows` over every
    vector; the oracle for the incremental :meth:`Subspace.add`.  It holds
    no accepted vectors, so it has no ``coords``."""
    red, pivots = rref_rows(ctx, [list(v) for v in vectors])
    out = Subspace(ctx, ambient)
    out.rows, out.pivots = red[: len(pivots)], pivots
    return out


class TransformSolver:
    """Coordinates on independent vectors by one augmented elimination that
    carries an identity tag along: red = T @ basis, so coords = cs @ T."""

    def __init__(self, ctx: FieldCtx, basis):
        self.ctx, self.m = ctx, len(basis)
        self.n = len(basis[0]) if basis else 0
        aug = [list(v) + [int(i == j) for j in range(self.m)] for i, v in enumerate(basis)]
        red, pivots = rref_rows(ctx, aug)
        if len(pivots) != self.m or any(p >= self.n for p in pivots):
            raise Inconsistent("basis vectors are dependent")
        self.red = [r[: self.n] for r in red[: self.m]]
        self.transform = [r[self.n :] for r in red[: self.m]]
        self.pivots = pivots

    def coords(self, v):
        mul = self.ctx.mul
        out, cs = list(v), [0] * self.m
        for i, (row, p) in enumerate(zip(self.red, self.pivots)):
            f = out[p]
            if f:
                out = [x ^ mul(f, y) if y else x for x, y in zip(out, row)]
                cs[i] = f
        if any(out):
            raise Inconsistent("vector outside the span of the basis")
        res = [0] * self.m
        for c, t in zip(cs, self.transform):
            if c:
                res = [x ^ mul(c, y) if y else x for x, y in zip(res, t)]
        return res


def rebuild_extend_basis(sub: Subspace, candidates) -> list:
    """Candidates outside the span so far, the span rebuilt per pick."""
    span = batch_subspace(sub.ctx, sub.ambient, sub.rows)
    added = []
    for v in candidates:
        if not span.contains(v):
            added.append(list(v))
            span = batch_subspace(span.ctx, span.ambient, span.rows + [list(v)])
    return added


def restart_closure(a: DAlgebra, vectors, left) -> Subspace:
    """Closure under d and u -> g u for g in left, the whole span
    re-eliminated every round."""
    n, ctx = a.n, a.ctx
    cols = a._columns()
    maps = [a._d_terms()] + [
        [_nonzero(_contract(ctx, [0] * n, _nonzero(g), col)) for col in cols] for g in left
    ]
    span = batch_subspace(ctx, n, vectors)
    new = span.rows
    while new:
        images = [_contract(ctx, [0] * n, u, m) for u in map(_nonzero, new) for m in maps]
        new = batch_subspace(ctx, n, [span.reduce(w) for w in images]).rows
        span = batch_subspace(ctx, n, span.rows + new)
    return span


def restart_generators(a: DAlgebra) -> list:
    """J with the closure restarted from scratch after each pick."""
    gens: list = []
    span = restart_closure(a, [a.unit_vec()], [])
    for j in sorted(range(a.n), key=lambda j: not any(a.dmat.col(j))):
        if span.dim == a.n:
            break
        e = a.basis_vec(j)
        if not span.contains(e):
            gens.append(j)
            span = restart_closure(a, span.rows + [e], [a.basis_vec(g) for g in gens])
    return gens


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


# -- PBW oracles: the sandwich scan and the rewrite-site / preimage fuzz -------


def scan_pbw(sctx, bound: int):
    """Straighten every sandwiched relation u R(i,j) w up to the bound.

    u and w run over the standard words; straightening is linear, so the
    normal form of u R(i,j) w is the sum of c N(u x w) over the term list
    of R(i,j).  The oracle for what :func:`dalg.pbw.verify_pbw` reads off
    the diamond-lemma proof: the same report where the proof holds.
    """
    n = sctx.L.n
    rep = AxiomReport("pbw")
    mul = sctx.ctx.mul
    rel = _relations(sctx)
    checked = 0
    shells = list(standard_words(n, sctx.kk, max(bound - 2, 0)))
    for u in shells:
        for w in shells:
            if len(u) + 2 + len(w) > bound:
                continue
            for i in range(n):
                for j in range(n):
                    acc: dict = {}
                    for x, c in rel[i][j]:
                        for sw, sc in sctx._straighten(u + x + w).items():
                            _add_into(acc, sw, mul(c, sc))
                    checked += 1
                    if acc:
                        rep.record("relation_straightens_to_zero", (u, i, j, w), tuple(sorted(acc.items())), ())
    for i in range(n):
        if sctx.straighten((i,)) != TElem.from_word((i,)):
            rep.record("degree_one_standard", (i,), (), ())
    rep.notes.append(f"checked {checked} sandwiched relations at bound {bound}")
    return rep


class SiteCtx(StraightenCtx):
    """Rewrites at the site ``pick(word, count)`` chooses among the
    descents (or, in a sorted word, the prefix squares), with the given
    d-preimages in place of the lexicographically least ones."""

    def __init__(self, L, pick=None, preimages=None):
        super().__init__(L)
        self.pick = pick or (lambda word, count: 0)
        if preimages is not None:
            assert len(preimages) == self.kk
            assert all(L.d(w) == L.basis_vec(i) for i, w in enumerate(preimages))
            self.preimages = [list(w) for w in preimages]
            self._square_brackets = [_nonzero(L.bracket(w, w)) for w in self.preimages]

    def _straighten_step(self, word):
        pairs = list(zip(word, word[1:]))
        sites = [j for j, (a, b) in enumerate(pairs) if a > b]
        if not sites:
            sites = [j for j, (a, b) in enumerate(pairs) if a == b < self.kk]
            if not sites:
                return None
        return self._one_step(word, sites[self.pick(word, len(sites))])


def rightmost(word, count: int) -> int:
    return count - 1


def scattered(salt: int):
    """A site picker hashing the word with salt, so each word has its own site."""

    def pick(word, count: int) -> int:
        h = salt & 0xFFFFFFFF
        for letter in word:
            h = (h * 1000003 ^ (letter + 1)) & 0xFFFFFFFF
        return h % count

    return pick


def fuzz_confluence(sctx, trials: int, max_len: int, seed: int):
    """Straighten seeded random words at other sites and with other preimages.

    For each word the rightmost and the scattered site must give the
    leftmost normal form of sctx, and so must a context whose preimages
    are shifted by kernel vectors (still valid preimages).  The oracle for
    :func:`dalg.pbw.confluence_test`: the same report where the proof holds.
    """
    L = sctx.L
    rng = random.Random(seed)
    rep = ConfluenceReport(seed=seed, trials=trials, max_len=max_len)
    others = [SiteCtx(L, rightmost), SiteCtx(L, scattered(seed))]
    alt = None
    if sctx.kk:
        kernel = L.ker_d().rows
        shifted = [[a ^ b for a, b in zip(w, kernel[i % len(kernel)])] for i, w in enumerate(sctx.preimages)]
        alt = SiteCtx(L, preimages=shifted)
    else:
        rep.notes.append("d = 0: no preimages to vary")
    for _ in range(trials):
        word = tuple(rng.randrange(L.n) for _ in range(rng.randrange(max_len + 1)))
        base = sctx.straighten(word)
        rep.words_checked += 1
        if any(other.straighten(word) != base for other in others):
            rep.strategy_mismatches.append(word)
        if alt is not None and alt.straighten(word) != base:
            rep.preimage_mismatches.append(word)
    return rep
