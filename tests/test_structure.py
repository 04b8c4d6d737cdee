import itertools
import random

import pytest

from dalg import (
    Matrix,
    NonSplit,
    NotCommutative,
    Subspace,
    TheoremViolation,
    WrongDefect,
    change_basis,
    direct_product,
    direct_product_many,
    embed_algebra,
    field,
    field_extend,
    is_coprime,
    verify_morphism,
)
from dalg import structure
from dalg.algebra import quotient, subalgebra
from dalg.dim7 import make_D
from dalg.linalg import CoordSolver, min_poly, solve
from dalg.unipoly import UniPoly, poly_roots, squarefree_part
from dalg.structure import (
    characters,
    decompose,
    defect_one_basis,
    is_local,
    jacobson_radical,
    maximal_ideals,
    nilradical,
)
from dalg.algebra import defect

from helpers import (
    corpus_small,
    extension_field_algebra,
    field_as_algebra,
    gf4_over_gf2_algebra,
    rand_vec,
    tiny_d_algebra,
    truncated_poly_algebra,
)

rng = random.Random(0xD1A6)


def all_vectors(ctx, n):
    return itertools.product(range(1 << ctx.k), repeat=n)


def is_nilpotent(a, v):
    # x nilpotent iff some 2^j-th power vanishes; squaring n times is enough
    x = list(v)
    for _ in range(a.n + 1):
        if not any(x):
            return True
        x = a.mul(x, x)
    return not any(x)


# ---------------------------------------------------------------- nilradical


def test_nilradical_matches_bruteforce_small():
    # exhaustive oracle: every vector, tested for nilpotency by squaring
    for ctx, m in [(field(1), 3), (field(2), 3), (field(1), 4)]:
        a = truncated_poly_algebra(ctx, m)
        rad = nilradical(a)
        for v in all_vectors(ctx, a.n):
            assert rad.contains(list(v)) == is_nilpotent(a, v)


def test_nilradical_bruteforce_on_product():
    ctx = field(2)
    a, _, _ = direct_product(
        truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 2)
    )
    rad = nilradical(a)
    assert rad.dim == 2
    for v in all_vectors(ctx, a.n):
        assert rad.contains(list(v)) == is_nilpotent(a, v)


def test_nilradical_dims():
    ctx = field(8)
    assert nilradical(field_as_algebra(ctx)).dim == 0
    for m in range(2, 6):
        assert nilradical(truncated_poly_algebra(ctx, m)).dim == m - 1


def test_nilradical_of_semisimple_extension_is_zero():
    assert nilradical(gf4_over_gf2_algebra()).dim == 0


def test_nilradical_rejects_noncommutative():
    with pytest.raises(NotCommutative):
        nilradical(make_D(field(2), 0, 0, 0))


def nilradical_gf2_powers(a):
    """The former nilradical, kept as an oracle for the closed form.

    Squaring is additive in characteristic 2 and scalar-twisted by the
    Frobenius, so it is linear over GF(2) on the bit representation; the
    nilradical is the stabilized kernel of its iterates.
    """
    if a.is_commutative() is not None:
        raise NotCommutative("nilradical computation needs a commutative algebra")
    ctx = a.ctx
    kk = ctx.k
    n = a.n
    g1 = field(1)
    cols = []
    for i in range(n):
        for t in range(kk):
            v = [0] * n
            v[i] = 1 << t
            sq = a.mul(v, v)
            cols.append([c >> u & 1 for c in sq for u in range(kk)])
    s = Matrix.from_cols(g1, cols, n * kk)
    m = s
    kernel = m.nullspace()
    while True:
        m = m.mul(s)
        nxt = m.nullspace()
        if len(nxt) == len(kernel):
            break
        kernel = nxt
    vecs = []
    for bits in kernel:
        v = [0] * n
        for i in range(n):
            c = 0
            for t in range(kk):
                if bits[i * kk + t]:
                    c |= 1 << t
            v[i] = c
        vecs.append(v)
    sp = Subspace(ctx, n, vecs)
    if sp.dim * kk != len(kernel):
        raise TheoremViolation("nilpotent elements fail to form a subspace over the field")
    return sp


def test_nilradical_matches_gf2_oracle_on_corpus():
    compared = 0
    for a in corpus_small():
        if a.is_commutative() is not None:
            continue
        assert nilradical(a).rows == nilradical_gf2_powers(a).rows
        compared += 1
    assert compared >= 40


def _product_cases(k, seed):
    r = random.Random(seed)
    ctx = field(k)

    def member():
        return make_D(ctx, ctx.rand(r), ctx.rand(r), ctx.rand(r))

    for factors in ([member(), tiny_d_algebra(ctx)], [member(), member(), member()]):
        sparse, _ = direct_product_many(factors)
        yield sparse
        while True:
            rows = [sparse.unit_vec()] + [rand_vec(sparse, r) for _ in range(sparse.n - 1)]
            if Subspace(ctx, sparse.n, rows).dim == sparse.n:
                break
        dense, _ = change_basis(sparse, rows)
        yield dense


def idempotents(a):
    """The primitive idempotents, sorted: on a d-algebra they all lie in
    Ker(d), so they are those the characters factor through."""
    return sorted(c.idempotent for c in characters(a))


def former_decompose_nilradical_inputs(a, factors):
    """The algebras decompose used to pass to nilradical, in its order.

    For a and then each local factor: the Ker(d) subalgebra, then the
    corner of that subalgebra at each of its primitive idempotents.
    """
    out = []
    for alg in [a] + factors:
        kalg, _ = subalgebra(alg, alg.ker_d().rows)
        out.append(kalg)
        for e in idempotents(kalg):
            out.append(subalgebra(kalg, _corner_rows(kalg, e), unit=e)[0])
    return out


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_nilradical_matches_gf2_oracle_inside_decompose(k):
    # decompose no longer computes a nilradical; the algebras it used to
    # hand to nilradical (Ker(d), its corners, each factor's Ker(d) and
    # corner) must still get the GF(2) matrix-power answer
    seen = []
    for a in _product_cases(k, 0x5EED + k):
        dec = structure.decompose(a)
        assert len(dec.factors) in (2, 3)
        for b in former_decompose_nilradical_inputs(a, dec.factors):
            assert nilradical(b).rows == nilradical_gf2_powers(b).rows
            seen.append(b.n)
    assert len(seen) >= 30 and max(seen) == 12


@pytest.mark.parametrize("m", [7, 8, 9, 16, 17])
def test_nilradical_of_truncated_poly_needs_every_doubling(m):
    # t has nilpotency index exactly m = n, so x^(2^t) with 2^t just below
    # n would leave t outside the kernel
    a = truncated_poly_algebra(field(16), m)
    rad = nilradical(a)
    assert rad == Subspace(a.ctx, m, [a.basis_vec(i) for i in range(1, m)])


# The former path to idempotents and characters, kept as an oracle: split
# the semisimple quotient by minimal polynomials of corner elements, lift
# through the nilradical by squaring, and read each character off a corner
# residue of the Ker(d) subalgebra.


def _corner_rows(a, e) -> list:
    return [a.mul(e, a.basis_vec(i)) for i in range(a.n)]


def _split_semisimple(a) -> list:
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


def quotient_lift_idempotents(a) -> list:
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


def corner_residue_characters(a) -> list:
    """All algebra maps a -> F, built from Ker(d) corner residues.

    Every character kills Im(d) and is determined on Ker(d); the value at
    a general x is the square root of the character of x^2, which lands
    back in the kernel.  The list is sorted by coefficient row and its
    length equals the number of local factors.
    """
    ctx = a.ctx
    kalg, incl = subalgebra(a, a.ker_d().rows)
    ksolver = CoordSolver(ctx, [incl.mat.col(t) for t in range(kalg.n)])
    idems = quotient_lift_idempotents(kalg)
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
            functional.append(ctx.sqrt(lam_k(sq)))
        lam = structure.Character(ctx, functional, incl.apply(e))
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


def split_cases():
    # the small corpus (GF(4) over GF(2) among them), sparse and dense
    # products of local factors, and F[t]/(t^m) up to one past 2^4
    yield from corpus_small()
    for k in (1, 2, 4, 8, 16):
        yield from _product_cases(k, 0x0AC1E + k)
    for m in range(1, 18):
        yield truncated_poly_algebra(field(16), m)


def nonsplit_cases():
    # a quadratic or cubic extension field over GF(2^k), alone or times
    # local factors, in its own basis and in a random one keeping the unit
    r = random.Random(0x5E7)
    for k in (1, 2, 3, 4, 8):
        ctx = field(k)
        for m in (2, 3):
            ext = extension_field_algebra(ctx, m, r)
            for others in (
                [],
                [truncated_poly_algebra(ctx, 2)],
                [tiny_d_algebra(ctx), truncated_poly_algebra(ctx, 3)],
                [make_D(ctx, ctx.rand(r), ctx.rand(r), ctx.rand(r))],
            ):
                a = direct_product_many([ext] + others)[0] if others else ext
                yield a
                while True:
                    rows = [a.unit_vec()] + [rand_vec(a, r) for _ in range(a.n - 1)]
                    if Subspace(ctx, a.n, rows).dim == a.n:
                        break
                yield change_basis(a, rows)[0]
    yield conjugate_values_case()


def conjugate_values_case():
    # GF(4) x GF(8) over GF(2) on the basis 1, b, ... where b takes the
    # conjugate values w and w^2 = w + 1 on the two factors: b splits the
    # unit into both extension fields, and the order of the two pieces
    # decides which residue field the NonSplit message names
    ctx = field(2)
    r = random.Random(0xC0)
    p, projs = direct_product_many(
        [extension_field_algebra(ctx, 2, r), extension_field_algebra(ctx, 3, r)]
    )
    stack = Matrix(ctx, [row for m in projs for row in m.mat.rows], p.n)
    f2 = stack.inverse().mul_vec([0, 0, 1, 0, 0])
    rows = [p.unit_vec(), [ctx.mul(2, u) ^ f for u, f in zip(p.unit_vec(), f2)]]
    for i in range(p.n):
        if Subspace(ctx, p.n, rows + [p.basis_vec(i)]).dim > len(rows):
            rows.append(p.basis_vec(i))
    return change_basis(p, rows)[0]


def _pairs(chars):
    return [(c.functional, c.idempotent) for c in chars]


def test_split_matches_quotient_lift_oracle():
    compared = 0
    for a in split_cases():
        try:
            want = _pairs(corner_residue_characters(a))
        except NonSplit as exc:
            with pytest.raises(NonSplit) as got:
                characters(a)
            assert (str(got.value), got.value.suggested_k) == (str(exc), exc.suggested_k)
            continue
        assert _pairs(characters(a)) == want
        if a.is_commutative() is None:
            assert idempotents(a) == quotient_lift_idempotents(a)
        compared += 1
    assert compared >= 120


def test_nonsplit_matches_quotient_lift_oracle():
    # characters raises what the former entry point raised, word for word
    count = 0
    for a in nonsplit_cases():
        with pytest.raises(NonSplit) as got:
            characters(a)
        with pytest.raises(NonSplit) as want:
            corner_residue_characters(a)
        assert (str(got.value), got.value.suggested_k) == (
            str(want.value),
            want.value.suggested_k,
        )
        assert got.value.suggested_k == 2 * a.ctx.k
        count += 1
    assert count >= 40


# ---------------------------------------------------- primitive idempotents


def test_idempotents_of_local_algebra():
    a = truncated_poly_algebra(field(4), 4)
    assert idempotents(a) == [a.unit_vec()]


def test_idempotents_of_product_lift_through_radical():
    ctx = field(4)
    a, pa, pb = direct_product(
        truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3)
    )
    idems = idempotents(a)
    assert len(idems) == 2
    total = [0] * a.n
    for e in idems:
        assert a.mul(e, e) == e
        assert not any(a.d(e))
        total = [x ^ y for x, y in zip(total, e)]
    assert total == a.unit_vec()
    assert not any(a.mul(idems[0], idems[1]))
    # each idempotent projects to (1, 0) or (0, 1) across the two factors
    marks = {
        (any(pa.apply(e)), any(pb.apply(e))) for e in idems
    }
    assert marks == {(True, False), (False, True)}


def test_idempotents_of_triple_product():
    ctx = field(2)
    f = field_as_algebra(ctx)
    ab, _, _ = direct_product(f, f)
    abc, _, _ = direct_product(ab, truncated_poly_algebra(ctx, 2))
    idems = idempotents(abc)
    assert len(idems) == 3
    assert all(not any(abc.mul(e, f)) for e, f in itertools.combinations(idems, 2))


def test_idempotents_nonsplit_then_extend():
    a = gf4_over_gf2_algebra()
    with pytest.raises(NonSplit) as info:
        idempotents(a)
    assert info.value.suggested_k == 2
    big, emb = field_extend(a.ctx)
    a2 = embed_algebra(a, big, emb)
    idems = idempotents(a2)
    assert len(idems) == 2
    for e in idems:
        assert a2.mul(e, e) == e


# ----------------------------------------------------------------- characters


def bruteforce_characters(a):
    # every functional over a small field, filtered by the algebra-map laws
    ctx = a.ctx
    found = []
    for lam in itertools.product(range(1 << ctx.k), repeat=a.n):
        def ev(v):
            out = 0
            for c, x in zip(lam, v):
                if c and x:
                    out ^= ctx.mul(c, x)
            return out

        if ev(a.unit_vec()) != 1:
            continue
        ok = True
        for i in range(a.n):
            for j in range(a.n):
                p = a.mul(a.basis_vec(i), a.basis_vec(j))
                if ev(p) != ctx.mul(ev(a.basis_vec(i)), ev(a.basis_vec(j))):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(list(lam))
    return sorted(found)


def test_characters_match_bruteforce():
    ctx = field(1)
    cases = [
        truncated_poly_algebra(ctx, 3),
        tiny_d_algebra(ctx),
        direct_product(
            field_as_algebra(ctx), truncated_poly_algebra(ctx, 2)
        )[0],
    ]
    cases += [a for a in corpus_small() if 1 << (a.ctx.k * a.n) <= 4096]
    assert len(cases) >= 40
    for a in cases:
        want = bruteforce_characters(a)
        if not want:
            # a residue field is bigger than F (GF(4) over GF(2))
            with pytest.raises(NonSplit):
                characters(a)
            continue
        got = sorted(c.functional for c in characters(a))
        assert got == want


def test_characters_of_product_split_by_factor():
    ctx = field(8)
    a, pa, pb = direct_product(
        truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3)
    )
    chars = characters(a)
    assert len(chars) == 2
    for lam in chars:
        # factors through exactly one of the two factor residues
        vals = []
        for _ in range(20):
            v = [rng.randrange(1 << ctx.k) for _ in range(a.n)]
            va, vb = pa.apply(v), pb.apply(v)
            vals.append((lam.of(v), va[0], vb[0]))
        assert all(x == y for x, y, _ in vals) or all(x == z for x, _, z in vals)


def test_characters_multiplicative_fuzz():
    ctx = field(4)
    a, _, _ = direct_product(tiny_d_algebra(ctx), truncated_poly_algebra(ctx, 2))
    for lam in characters(a):
        assert lam.of(a.unit_vec()) == 1
        for _ in range(40):
            u = [rng.randrange(16) for _ in range(a.n)]
            v = [rng.randrange(16) for _ in range(a.n)]
            assert lam.of(a.mul(u, v)) == ctx.mul(lam.of(u), lam.of(v))
            assert lam.of(a.d(u)) == 0


def test_characters_on_dim7_member():
    a = make_D(field(3), 1, 0, 1)
    chars = characters(a)
    assert len(chars) == 1
    # the unique character is the coefficient of 1
    assert chars[0].functional == [1, 0, 0, 0, 0, 0, 0]
    assert chars[0].idempotent == a.unit_vec()


def test_characters_deterministic():
    a, _, _ = direct_product(
        truncated_poly_algebra(field(4), 2), tiny_d_algebra(field(4))
    )
    one = [c.functional for c in characters(a)]
    two = [c.functional for c in characters(a)]
    assert one == two
    assert one == sorted(one)


# --------------------------------------------- maximal ideals and the radical


def test_maximal_ideals_of_product():
    ctx = field(4)
    a, _, _ = direct_product(
        truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3)
    )
    ideals = maximal_ideals(a)
    assert [i.dim for i in ideals] == [a.n - 1, a.n - 1]
    assert is_coprime(ideals[0], ideals[1])


def test_radical_of_local_algebra_is_nilradical():
    a = truncated_poly_algebra(field(8), 4)
    rad = jacobson_radical(a)
    assert rad.space == nilradical(a)
    assert rad.dim == 3


def test_radical_of_semisimple_is_zero():
    ctx = field(2)
    f = field_as_algebra(ctx)
    a, _, _ = direct_product(f, f)
    assert jacobson_radical(a).is_zero()


def test_radical_of_dim7_member():
    a = make_D(field(2), 0, 0, 1)
    rad = jacobson_radical(a)
    # everything except the unit line is nilpotent here
    assert rad.dim == 6
    assert not rad.contains(a.unit_vec())


def test_is_local():
    ctx = field(4)
    assert is_local(truncated_poly_algebra(ctx, 3))
    assert is_local(make_D(ctx, 0, 0, 0))
    a, _, _ = direct_product(field_as_algebra(ctx), field_as_algebra(ctx))
    assert not is_local(a)


# ------------------------------------------------------------------ decompose


def test_decompose_product_of_locals():
    ctx = field(4)
    a, _, _ = direct_product(
        truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3)
    )
    dec = decompose(a)
    assert sorted(f.n for f in dec.factors) == [2, 3]
    assert verify_morphism(dec.iso, require_iso=True).passed
    for proj in dec.projections:
        assert verify_morphism(proj).passed
    assert sum(defect(f) for f in dec.factors) == defect(a)


def test_decompose_mixed_with_dim7_factor():
    ctx = field(2)
    a, _, _ = direct_product(make_D(ctx, 0, 0, 0), truncated_poly_algebra(ctx, 3))
    dec = decompose(a)
    assert sorted(f.n for f in dec.factors) == [3, 7]
    assert all(is_local(f) for f in dec.factors)
    # the dim-7 factor keeps its noncommutative pair
    seven = next(f for f in dec.factors if f.n == 7)
    assert seven.is_commutative() is not None


def test_decompose_local_is_identity_shaped():
    a = truncated_poly_algebra(field(2), 3)
    dec = decompose(a)
    assert len(dec.factors) == 1
    assert dec.factors[0].n == a.n


def test_decompose_triple():
    ctx = field(4)
    f = field_as_algebra(ctx)
    ab, _, _ = direct_product(f, truncated_poly_algebra(ctx, 2))
    abc, _, _ = direct_product(ab, tiny_d_algebra(ctx))
    dec = decompose(abc)
    assert sorted(f.n for f in dec.factors) == [1, 2, 3]
    for f, fproj in zip(dec.factors, dec.projections):
        u = [rng.randrange(16) for _ in range(abc.n)]
        v = [rng.randrange(16) for _ in range(abc.n)]
        assert fproj.apply(abc.mul(u, v)) == f.mul(fproj.apply(u), fproj.apply(v))


def test_decompose_names_the_factor_that_is_not_local(monkeypatch):
    ctx = field(4)
    a, _, _ = direct_product(truncated_poly_algebra(ctx, 2), tiny_d_algebra(ctx))
    monkeypatch.setattr(structure, "is_local", lambda f: False)
    with pytest.raises(TheoremViolation) as exc:
        decompose(a)
    assert str(exc.value) == "a factor is not local: factor 0 of dimension 2"


@pytest.mark.parametrize(
    "wrong_roots, message",
    [
        (
            lambda p: (poly_roots(p)[0],) * p.degree,
            "splitting idempotent [0x1 0x0 0x0 0x0 0x0 0x0] along "
            "[0x0 0x0 0x1 0x0 0x0 0x0] yields no new piece",
        ),
        (
            lambda p: tuple(sorted(r ^ 2 for r in poly_roots(p))),
            "splitting idempotent [0x9 0x0 0x3 0x0 0x0 0x0] along "
            "[0x1 0x0 0x0 0x0 0x0 0x0] gives more than 6 pieces",
        ),
    ],
)
def test_decompose_names_the_split_that_goes_wrong(wrong_roots, message, monkeypatch):
    # roots that do not annihilate the element give pieces that are not
    # idempotents; the split must stop and name e and s, not loop or crash
    ctx = field(4)
    a, _ = direct_product_many(
        [truncated_poly_algebra(ctx, 2), tiny_d_algebra(ctx), field_as_algebra(ctx)]
    )
    monkeypatch.setattr(structure, "poly_roots", wrong_roots)
    with pytest.raises(TheoremViolation) as exc:
        decompose(a)
    assert str(exc.value) == message


def test_decompose_names_both_counts_when_the_defect_is_exceeded(monkeypatch):
    ctx = field(4)
    a, _, _ = direct_product(truncated_poly_algebra(ctx, 2), tiny_d_algebra(ctx))
    monkeypatch.setattr(structure, "defect", lambda f: 1)
    with pytest.raises(TheoremViolation) as exc:
        decompose(a)
    assert str(exc.value) == "more local factors than the defect allows: 2 > 1"


def three_local_factors():
    # the split of 1 takes two steps here, each along an element whose
    # minimal polynomial has degree 2
    ctx = field(4)
    return direct_product_many(
        [truncated_poly_algebra(ctx, 2), tiny_d_algebra(ctx), field_as_algebra(ctx)]
    )[0]


def test_split_names_two_idempotents_that_fail_orthogonality(monkeypatch):
    # distinct vectors are forged to multiply to the first one; on this
    # input the split multiplies only equal vectors (squares), so only the
    # final check sees the forgery
    a = three_local_factors()
    real = a.mul
    monkeypatch.setattr(a, "mul", lambda x, y: real(x, y) if x == y else list(x))
    with pytest.raises(TheoremViolation) as exc:
        characters(a)
    assert str(exc.value) == (
        "primitive idempotents [0x0 0x0 0x0 0x0 0x0 0x1] and "
        "[0x0 0x0 0x1 0x0 0x0 0x0] fail orthogonality"
    )


def test_split_names_the_sum_that_is_not_1(monkeypatch):
    # a repeated last root queues its piece twice, and the forged product
    # lets the twin pass for orthogonal to its copy, so two pieces cancel
    a = three_local_factors()
    monkeypatch.setattr(structure, "poly_roots", lambda p: poly_roots(p) + poly_roots(p)[-1:])
    real = a.mul
    monkeypatch.setattr(a, "mul", lambda x, y: [0] * a.n if x is not y and x == y else real(x, y))
    with pytest.raises(TheoremViolation) as exc:
        characters(a)
    assert str(exc.value) == "primitive idempotents sum to [0x1 0x0 0x1 0x0 0x0 0x1], not to 1"


def test_characters_name_the_idempotent_of_a_forged_character(monkeypatch):
    # every scalar the split reads off a primitive corner is off by 1
    multiple = structure._multiple
    monkeypatch.setattr(
        structure, "_multiple", lambda ctx, e, s: None if (c := multiple(ctx, e, s)) is None else c ^ 1
    )
    with pytest.raises(TheoremViolation) as exc:
        characters(three_local_factors())
    assert str(exc.value) == (
        "character through [0x0 0x0 0x0 0x0 0x0 0x1] fails: unit fails at (): (0,) != (1,)"
    )


def test_decompose_names_the_defects_that_fail_to_add_up(monkeypatch):
    a = three_local_factors()
    defect_of = structure.defect
    monkeypatch.setattr(structure, "defect", lambda b: defect_of(b) + (b is not a))
    with pytest.raises(TheoremViolation) as exc:
        decompose(a)
    assert str(exc.value) == "defect fails to add up over the factors: 3 + 2 + 2 != 4"


# ---------------------------------------------------------- defect-1 basis


def test_defect_one_basis_tiny():
    a = tiny_d_algebra(field(4))
    b = defect_one_basis(a)
    assert b.one == a.unit_vec()
    assert b.vs == [a.basis_vec(1)]
    assert b.ws == [a.basis_vec(2)]


def test_defect_one_basis_of_dim7_is_monomial():
    a = make_D(field(2), 0, 0, 0)
    b = defect_one_basis(a)
    assert b.one == a.unit_vec()
    assert b.vs == [a.basis_vec(1), a.basis_vec(2), a.basis_vec(5)]
    assert b.ws == [a.basis_vec(3), a.basis_vec(4), a.basis_vec(6)]


def test_defect_one_basis_properties():
    ctx = field(4)
    for h, k, p in [(0, 0, 0), (1, 0, 1), (2, 3, 1)]:
        a = make_D(ctx, h, k, p)
        b = defect_one_basis(a)
        im = a.im_d()
        for v, w in zip(b.vs, b.ws):
            assert a.d(w) == v
            assert not any(a.mul(v, v))
            assert im.contains(a.mul(w, w))
            w2 = a.mul(w, w)
            assert not any(a.mul(w2, w2))


def test_defect_one_basis_after_change_of_basis():
    from dalg import change_basis

    ctx = field(2)
    a = make_D(ctx, 1, 1, 0)
    n = a.n
    while True:
        rows = [a.unit_vec()] + [
            [rng.randrange(1 << ctx.k) for _ in range(n)] for _ in range(n - 1)
        ]
        from dalg import Subspace

        if Subspace(ctx, n, rows).dim == n:
            break
    b2, phi = change_basis(a, rows)
    b = defect_one_basis(b2)
    im = b2.im_d()
    for v, w in zip(b.vs, b.ws):
        assert b2.d(w) == v
        assert im.contains(b2.mul(w, w))


def test_defect_one_basis_deterministic():
    a = make_D(field(4), 1, 2, 3)
    one = defect_one_basis(a)
    two = defect_one_basis(a)
    assert one.rows() == two.rows()


def test_defect_one_basis_wrong_defect():
    with pytest.raises(WrongDefect):
        defect_one_basis(truncated_poly_algebra(field(2), 3))
    a, _, _ = direct_product(
        tiny_d_algebra(field(2)), tiny_d_algebra(field(2))
    )
    with pytest.raises(WrongDefect):
        defect_one_basis(a)
