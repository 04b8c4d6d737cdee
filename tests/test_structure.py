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
from dalg.dim7 import make_D
from dalg.structure import (
    characters,
    decompose,
    defect_one_basis,
    is_local,
    jacobson_radical,
    maximal_ideals,
    nilradical,
    primitive_idempotents,
)
from dalg.algebra import defect

from helpers import (
    corpus_small,
    field_as_algebra,
    gf4_over_gf2_algebra,
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
            rows = [sparse.unit_vec()] + [sparse.rand_vec(r) for _ in range(sparse.n - 1)]
            if Subspace(ctx, sparse.n, rows).dim == sparse.n:
                break
        dense, _ = change_basis(sparse, rows, unit=sparse.unit_vec())
        yield dense


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_nilradical_matches_gf2_oracle_inside_decompose(k, monkeypatch):
    # every nilradical decompose asks for (Ker(d), its corners, each
    # factor's locality check) must equal the GF(2) matrix-power answer
    seen = []

    def both(a):
        got = nilradical(a)
        assert got.rows == nilradical_gf2_powers(a).rows
        seen.append(a.n)
        return got

    monkeypatch.setattr(structure, "nilradical", both)
    for a in _product_cases(k, 0x5EED + k):
        dec = structure.decompose(a)
        assert len(dec.factors) in (2, 3)
    assert len(seen) >= 30 and max(seen) == 12


@pytest.mark.parametrize("m", [7, 8, 9, 16, 17])
def test_nilradical_of_truncated_poly_needs_every_doubling(m):
    # t has nilpotency index exactly m = n, so x^(2^t) with 2^t just below
    # n would leave t outside the kernel
    a = truncated_poly_algebra(field(16), m)
    rad = nilradical(a)
    assert rad == Subspace(a.ctx, m, [a.basis_vec(i) for i in range(1, m)])


# ---------------------------------------------------- primitive idempotents


def test_idempotents_of_local_algebra():
    a = truncated_poly_algebra(field(4), 4)
    assert primitive_idempotents(a) == [a.unit_vec()]


def test_idempotents_of_product_lift_through_radical():
    ctx = field(4)
    a, pa, pb = direct_product(
        truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3)
    )
    idems = primitive_idempotents(a)
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
    idems = primitive_idempotents(abc)
    assert len(idems) == 3
    assert idems == sorted(idems)


def test_idempotents_nonsplit_then_extend():
    a = gf4_over_gf2_algebra()
    with pytest.raises(NonSplit) as info:
        primitive_idempotents(a)
    assert info.value.suggested_k == 2
    big, emb = field_extend(a.ctx)
    a2 = embed_algebra(a, big, emb)
    idems = primitive_idempotents(a2)
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
    for a in cases:
        got = sorted(c.functional for c in characters(a))
        assert got == bruteforce_characters(a)


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


def test_decompose_names_both_counts_when_the_defect_is_exceeded(monkeypatch):
    ctx = field(4)
    a, _, _ = direct_product(truncated_poly_algebra(ctx, 2), tiny_d_algebra(ctx))
    monkeypatch.setattr(structure, "defect", lambda f: 1)
    with pytest.raises(TheoremViolation) as exc:
        decompose(a)
    assert str(exc.value) == "more local factors than the defect allows: 2 > 1"


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
