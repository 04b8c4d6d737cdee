import random
import re

import pytest

from dalg import (
    AssocAlgebra2,
    DAlgebra,
    Matrix,
    Morphism,
    NeedsExtension,
    NotApplicable,
    Subspace,
    TheoremViolation,
    change_basis,
    defect,
    embed_algebra,
    field,
    field_extend,
    homology,
    lemma_suite,
    verify_morphism,
)
from dalg import dim7
from dalg.algebra import vec_xor
from dalg.dim7 import _quotient_D, classify7, kill_q, make_D, normalize7, reduce_to_q

from helpers import rand_vec, square_corrupted, truncated_poly_algebra
from test_contraction import dense_verify


def test_make_D_shape_and_cache():
    ctx = field(8)
    d = make_D(ctx, 0, 0, 0)
    assert d.n == 7
    assert d is make_D(ctx, 0, 0, 0)
    assert d.verify().passed
    assert lemma_suite(d).passed
    assert d.is_commutative() is not None
    assert d.im_d().dim == 3
    assert d.ker_d().dim == 4
    assert defect(d) == 1
    assert homology(d)[0].n == 1


def test_make_D_frozen_table():
    ctx = field(4)
    h, k, p = 0x2, 0x3, 0x1
    d = make_D(ctx, h, k, p)
    one, xi1, xi2, x1, x2, xx, w = (d.basis_vec(i) for i in range(7))

    def scaled(c, v):
        return [ctx.mul(c, t) for t in v]

    assert d.mul(x1, x1) == scaled(h, xx)
    assert d.mul(x2, x2) == scaled(k, xx)
    assert d.mul(x1, x2) == scaled(p, xx)
    # the swap picks up the xi pair
    assert d.mul(x2, x1) == scaled(p ^ 1, xx)
    assert d.mul(xi1, x1) == [0] * 7
    assert d.mul(xi2, x2) == [0] * 7
    assert d.mul(xi1, x2) == w
    assert d.mul(xi2, x1) == w
    assert d.mul(x1, xi1) == [0] * 7
    assert d.d(x1) == xi1
    assert d.d(x2) == xi2
    assert d.d(w) == xx


@pytest.mark.parametrize("k", [1, 2, 8, 16])
def test_make_D_matches_presentation_quotient(k):
    ctx = field(k)
    rng = random.Random(k)
    triples = {(0, 0, 0), (1, 1, 1)}
    while len(triples) < 8:
        # each parameter zero half of the time
        triples.add(tuple(ctx.rand_nonzero(rng) if rng.random() < 0.5 else 0 for _ in range(3)))
    for h, kk, p in sorted(triples):
        want = _quotient_D(ctx, h, kk, p)
        got = make_D(ctx, h, kk, p)
        assert got.tensor == want.tensor
        assert got.dmat.rows == want.dmat.rows
        assert got.basis_labels == want.basis_labels


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
def test_make_D_members_carry_the_family_proof(k):
    # no member is scanned on its own; a fresh copy of each passes both scans
    ctx = field(k)
    rng = random.Random(900 + k)
    for _ in range(6):
        d = make_D(ctx, ctx.rand(rng), ctx.rand(rng), ctx.rand(rng))
        memo = d._report
        assert memo is not None and d.verify() is memo
        copy = DAlgebra(ctx, d.tensor, d.dmat.rows, d.unit_idx)
        assert dense_verify(copy).passed
        assert str(memo) == str(copy.verify())


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
def test_make_D_members_carry_their_generators(k):
    # every member holds J = [3, 4] (x1, x2) unscanned; a fresh copy computes it
    ctx = field(k)
    rng = random.Random(950 + k)
    triples = [(0, 0, 0)] + [(ctx.rand(rng), ctx.rand(rng), ctx.rand(rng)) for _ in range(8)]
    for h, kk, p in triples:
        d = make_D(ctx, h, kk, p)
        assert d._gens == [3, 4]
        fresh = DAlgebra(ctx, d.tensor, d.dmat.rows, d.unit_idx)
        assert fresh.generators() == [3, 4]


def test_family_proof_points_are_unisolvent():
    # every nonzero polynomial of total degree <= 2 in (h, k, p) over GF(2)
    # is nonzero at one of the points _prove_family verifies
    ctx = field(2)
    exps = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]
    points = exps  # t_0, t_1, t_2 = 0, 1, w are the elements 0, 1, 2 of GF(4)
    assert len(points) == 10

    def mono(e, x):
        out = 1
        for xi, ei in zip(x, e):
            out = ctx.mul(out, ctx.pow(xi, ei) if ei else 1)
        return out

    table = [[mono(e, x) for e in exps] for x in points]
    for bits in range(1, 1 << len(exps)):
        values = [0] * len(points)
        for s, e in enumerate(exps):
            if bits >> s & 1:
                values = [v ^ row[s] for v, row in zip(values, table)]
        assert any(values), bits


def test_family_proof_rejects_a_flipped_entry():
    base, parts, proof = dim7._family_parts()
    assert proof.passed
    n = base.n
    # x1^2 and x2^2 at xi1 xi2 (coordinate 5) may take any parameter: flips
    # there give another family of d-algebras
    squares = {(3, 3, 5), (4, 4, 5)}
    rng = random.Random(61)
    for w, part in enumerate(parts):
        flips = set(part) | {(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(6)}
        for entry in sorted(flips | squares):
            flipped = list(parts)
            flipped[w] = tuple(sorted(set(part) ^ {entry}))
            if entry in squares:
                assert dim7._prove_family(base, tuple(flipped)).passed
                continue
            with pytest.raises(TheoremViolation, match=r"over GF\(4\) fails axioms"):
                dim7._prove_family(base, tuple(flipped))


def test_family_proof_reaches_the_degree_two_points():
    # d = 0 families on 1, e1, e2, e3 whose laws fail only at points with
    # a + b + c = 2: residual h (h + 1) at D(w, 0, 0), residual h k at D(1, 1, 0)
    gf2 = field(1)

    def base(square):
        t = [[[int(0 in (i, j) and m == i + j) for m in range(4)] for j in range(4)] for i in range(4)]
        t[1][1][2] = square
        a = DAlgebra(gf2, t, Matrix.zeros(gf2, 4, 4), 0)
        a.basis_labels = None
        return a

    cases = [
        (base(1), (((1, 1, 2), (2, 2, 3)), (), ()), "D(2,0,0)"),  # e1^2 = (1 + h) e2, e2^2 = h e3
        (base(0), (((1, 1, 2),), ((2, 2, 3),), ()), "D(1,1,0)"),  # e1^2 = h e2, e2^2 = k e3
    ]
    for b, parts, member in cases:
        with pytest.raises(TheoremViolation, match=re.escape(f"{member} over GF(4) fails axioms")):
            dim7._prove_family(b, parts)


def test_classify_family_member_recovers_parameters():
    ctx = field(4)
    rng = random.Random(29)
    for _ in range(8):
        h, k, p = (ctx.rand(rng) for _ in range(3))
        c = classify7(make_D(ctx, h, k, p))
        assert (c.h, c.k, c.p) == (h, k, p)
        assert c.witness == (3, 4)
        assert verify_morphism(c.morphism, require_iso=True).passed


def test_classify_after_random_rebase():
    ctx = field(4)
    rng = random.Random(31)
    for _ in range(10):
        h, k, p = (ctx.rand(rng) for _ in range(3))
        d = make_D(ctx, h, k, p)
        basis = _random_unit_basis(d, rng)
        b, _ = change_basis(d, basis)
        assert b.verify().passed
        c = classify7(b)
        assert verify_morphism(c.morphism, require_iso=True).passed


def _random_unit_basis(a, rng):
    basis = [a.unit_vec()]
    span = Subspace(a.ctx, a.n, basis)
    while len(basis) < a.n:
        v = rand_vec(a, rng)
        if not span.contains(v):
            basis.append(v)
            span = Subspace(a.ctx, a.n, basis)
    return basis


def test_classify_rejects_commutative_and_wrong_dim():
    ctx = field(4)
    with pytest.raises(NotApplicable):
        classify7(truncated_poly_algebra(ctx, 7))
    with pytest.raises(NotApplicable):
        classify7(truncated_poly_algebra(ctx, 5))


def test_classify_names_the_failing_law():
    # the message carries the failure's own text, not a list repr
    bad = square_corrupted(make_D(field(4), 1, 2, 3), 1, 0, 1)
    with pytest.raises(NotApplicable, match=r"^input fails the axioms: \w+ fails at \(") as info:
        classify7(bad)
    assert "AxiomFailure" not in str(info.value)


def test_reduce_to_q_solvable():
    ctx = field(2)
    # k=1, h=0: t^2 + t splits with roots 0 and 1, so q = 0 * 1 = 0
    q, m = reduce_to_q(ctx, 0, 1, 1)
    assert q == 0
    assert m.source is make_D(ctx, 0, 0, 0)
    assert m.target is make_D(ctx, 0, 1, 1)
    assert verify_morphism(m, require_iso=True).passed


def test_reduce_to_q_needs_extension():
    ctx = field(1)
    # t^2 + t + 1 has no roots in GF(2)
    with pytest.raises(NeedsExtension) as exc:
        reduce_to_q(ctx, 1, 1, 0)
    assert exc.value.suggested_k == 2


def test_reduce_to_q_swap_case():
    ctx = field(8)
    rng = random.Random(37)
    for _ in range(6):
        h = ctx.rand_nonzero(rng)
        p = ctx.rand(rng)
        try:
            q, m = reduce_to_q(ctx, h, 0, p)
        except NeedsExtension:
            continue
        assert m.source is make_D(ctx, 0, 0, q)
        assert m.target is make_D(ctx, h, 0, p)
        assert verify_morphism(m, require_iso=True).passed


def test_kill_q():
    ctx = field(8)
    rng = random.Random(41)
    for _ in range(5):
        q = ctx.rand(rng)
        m = kill_q(ctx, q)
        assert m.source is make_D(ctx, 0, 0, 0)
        assert m.target is make_D(ctx, 0, 0, q)
        assert verify_morphism(m, require_iso=True).passed


def test_normalize_random_members():
    ctx = field(4)
    rng = random.Random(43)
    hits = {"plain": 0, "extended": 0}
    for _ in range(12):
        h, k, p = (ctx.rand(rng) for _ in range(3))
        d = make_D(ctx, h, k, p)
        basis = _random_unit_basis(d, rng)
        b, _ = change_basis(d, basis)
        res = normalize7(b)
        hits["extended" if res.extended else "plain"] += 1
        assert verify_morphism(res.morphism, require_iso=True).passed
        assert res.canonical is make_D(res.algebra.ctx, 0, 0, 0)
        assert res.morphism.apply(res.algebra.unit_vec()) == res.canonical.unit_vec()
        if res.extended:
            assert res.algebra.ctx.k == 2 * ctx.k
    assert hits["plain"] and hits["extended"]


def test_make_D_cache_is_bounded_and_keeps_canonical_identity():
    from dalg import dim7

    ctx = field(8)
    rng = random.Random(47)
    triples = set()
    while len(triples) < 3 * dim7._MAKE_CACHE_SIZE:
        triples.add(tuple(ctx.rand_nonzero(rng) for _ in range(3)))
    canon = make_D(ctx, 0, 0, 0)
    for h, k, p in sorted(triples):
        # a hit refreshes the entry, so a model used every time stays cached
        assert make_D(ctx, 0, 0, 0) is canon
        d = make_D(ctx, h, k, p)
        res = normalize7(change_basis(d, _random_unit_basis(d, rng))[0])
        assert res.morphism.target is res.canonical
        assert len(dim7._make_cache) <= dim7._MAKE_CACHE_SIZE


def test_normalize_tiny_field_extends():
    ctx = field(1)
    res = normalize7(make_D(ctx, 1, 1, 0))
    assert res.extended
    assert res.algebra.ctx.k == 2
    assert verify_morphism(res.morphism, require_iso=True).passed


def _extended_inputs(ctx, rng, count):
    """Rebased family members whose normalization needs the field doubling."""
    out = []
    while len(out) < count:
        h, k, p = ctx.rand(rng), ctx.rand_nonzero(rng), ctx.rand(rng)
        try:
            reduce_to_q(ctx, h, k, p)
            continue
        except NeedsExtension:
            pass
        d = make_D(ctx, h, k, p)
        out.append(change_basis(d, _random_unit_basis(d, rng))[0])
    return out


@pytest.mark.parametrize("k", [1, 4, 8])
def test_doubling_reuses_the_classification(k, monkeypatch):
    # the embedded algebra is never classified again: its form is the
    # embedded one, equal to what a fresh classification finds
    ctx = field(k)
    rng = random.Random(53 + k)
    scans = []
    is_commutative = DAlgebra.is_commutative
    monkeypatch.setattr(DAlgebra, "is_commutative", lambda a: scans.append(a) or is_commutative(a))
    for b in _extended_inputs(ctx, rng, 4):
        scans.clear()
        res = normalize7(b)
        assert res.extended and res.algebra.ctx.k == 2 * k
        assert scans == [b]
        seeded = res.classified
        assert seeded.morphism.target is res.algebra
        assert verify_morphism(seeded.morphism, require_iso=True).passed
        assert verify_morphism(res.morphism, require_iso=True).passed
        res.algebra._canonical7 = None
        fresh = classify7(res.algebra)
        assert fresh is not seeded
        assert (fresh.h, fresh.k, fresh.p) == (seeded.h, seeded.k, seeded.p) == (res.h, res.k, res.p)
        assert fresh.coeffs == seeded.coeffs
        assert fresh.witness == seeded.witness
        assert fresh.morphism.mat == seeded.morphism.mat
        assert fresh.morphism.source is seeded.morphism.source


def test_embed_algebra_passes_J_on(monkeypatch):
    ctx = field(4)
    rng = random.Random(59)
    grown = []
    grow = AssocAlgebra2._grow
    monkeypatch.setattr(AssocAlgebra2, "_grow", lambda a, *args: grown.append(a) or grow(a, *args))
    for b in _extended_inputs(ctx, rng, 4):
        assert b.verify().passed
        J = b.generators()
        big, emb = field_extend(ctx)
        e = embed_algebra(b, big, emb)
        assert e.verify() is b.verify()
        grown.clear()
        assert e.generators() == J
        res = normalize7(b)
        assert res.algebra.generators() == J
        assert verify_morphism(res.morphism, require_iso=True).passed
        assert not [a for a in grown if a is e or a is res.algebra]
        # a fresh copy over the big field computes the same J
        fresh = DAlgebra(big, e.tensor, e.dmat.rows, e.unit_idx)
        assert fresh.generators() == J
        assert [a for a in grown if a is fresh]


def _corrupted(m):
    # xi1 goes to its image plus 1, which squares to 1 where xi1^2 = 0
    cols = [m.mat.col(j) for j in range(m.source.n)]
    cols[1] = vec_xor(cols[1], m.target.unit_vec())
    bad = Morphism(m.source, m.target, Matrix.from_cols(m.mat.ctx, cols))
    assert not verify_morphism(bad, require_iso=True).passed
    return bad


def _corrupt_swap(monkeypatch):
    swap = dim7._swap
    monkeypatch.setattr(dim7, "_swap", lambda *args: _corrupted(swap(*args)))


def _corrupt_diagonalize(monkeypatch):
    diagonalize = dim7._diagonalize

    def corrupt(*args):
        q, m = diagonalize(*args)
        return q, _corrupted(m)

    monkeypatch.setattr(dim7, "_diagonalize", corrupt)


def _corrupt_kill(monkeypatch):
    kill = dim7.kill_q
    monkeypatch.setattr(dim7, "kill_q", lambda *args: _corrupted(kill(*args)))


@pytest.mark.parametrize("what, corrupt, uses", [
    ("generator swap", _corrupt_swap, lambda c: c.h and not c.k),
    ("diagonalizing map", _corrupt_diagonalize, lambda c: c.h or c.k),
    ("parameter-killing map", _corrupt_kill, lambda c: True),
])
def test_corrupted_step_is_named(what, corrupt, uses, monkeypatch):
    # the steps are checked through the composite; a corrupted one still
    # names itself, ahead of the composite
    ctx = field(4)
    rng = random.Random(67)
    inputs = []
    for h, k, p in [(0, 0, 0), (0x3, 0, 0x5), (0x1, 0, 0), (0xf, 0, 0x2), (0x2, 0x3, 0x7), (0x3, 0x3, 0xb)]:
        d = make_D(ctx, h, k, p)
        inputs += [d, change_basis(d, _random_unit_basis(d, rng))[0]]
    inputs = [a for a in inputs if uses(classify7(a))]
    assert len(inputs) >= 3
    corrupt(monkeypatch)
    for a in inputs:
        with pytest.raises(TheoremViolation, match="^" + re.escape(f"{what} fails to verify: ") + r"\w+ fails at \("):
            normalize7(a)
