"""Field layer: modulus table, arithmetic, square roots, quadratics, extension."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from dalg import DegreeLimit, NeedsExtension, NotApplicable, UniPoly, field, field_extend, quad_roots
from dalg.gf2k import MAX_K, _MODULUS, _extension_root

from helpers import field_trace


def scan_quad_roots(ctx, a, b, c):
    """The sorted roots of a t^2 + b t + c, by trying every element."""
    return tuple(
        t for t in range(ctx.order) if ctx.mul(a, ctx.sq(t)) ^ ctx.mul(b, t) ^ c == 0
    )


def test_modulus_table_covers_supported_degrees():
    assert sorted(_MODULUS) == list(range(1, MAX_K + 1))
    for k, m in _MODULUS.items():
        assert m.bit_length() == k + 1  # degree exactly k


def test_modulus_table_entries_are_primitive():
    # ord(x) = 2^k - 1 certifies irreducibility and primitivity at once:
    # the powers of x then exhaust every nonzero residue.
    for k in range(1, MAX_K + 1):
        ctx = field(k)
        n = ctx.order - 1
        first_period = ctx._exp[:n]
        assert len(set(first_period)) == n
        assert all(v != 0 for v in first_period)


def test_field_is_interned():
    assert field(8) is field(8)
    assert field(3) is not field(4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_field_axioms_exhaustive(k):
    ctx = field(k)
    els = list(ctx.elements())
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, a) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in els:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in els:
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_gf4_multiplication_table():
    # modulus t^2 + t + 1: with g the class of t, g^2 = g + 1
    ctx = field(2)
    g = 0x2
    assert ctx.mul(g, g) == 0x3
    assert ctx.mul(g, 0x3) == 0x1
    assert ctx.mul(0x3, 0x3) == g
    assert ctx.inv(g) == 0x3


def test_sqrt_exhaustive_small_fields():
    for k in (1, 2, 3, 4):
        ctx = field(k)
        for a in ctx.elements():
            r = ctx.sqrt(a)
            assert ctx.mul(r, r) == a


def test_sqrt_gf4_frozen_values():
    ctx = field(2)
    assert ctx.sqrt(0x3) == 0x2  # g^2 = g + 1 so sqrt(g + 1) = g
    assert ctx.sqrt(0x2) == 0x3


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_mul_commutes_and_distributes_gf256(a, b):
    ctx = field(8)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    for c in (0x1, 0x53, 0xFF):
        assert ctx.mul(c, ctx.add(a, b)) == ctx.add(ctx.mul(c, a), ctx.mul(c, b))


@given(st.integers(min_value=1, max_value=255))
def test_inverse_and_pow_gf256(a):
    ctx = field(8)
    assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.pow(a, ctx.order - 1) == 1
    assert ctx.pow(a, 0) == 1
    assert ctx.sq(ctx.sqrt(a)) == a


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(8).inv(0)


def test_hex_roundtrip():
    ctx = field(8)
    for a in (0, 1, 0x53, 0xFF):
        assert ctx.from_hex(ctx.to_hex(a)) == a
    with pytest.raises(NotApplicable):
        ctx.from_hex("0x100")


def test_quad_roots_requires_a_or_b():
    with pytest.raises(NotApplicable):
        quad_roots(field(4), 0, 0, 0x5)


def test_quad_roots_linear_and_square_cases():
    ctx = field(8)
    # b t + c = 0 has the single root c/b
    assert quad_roots(ctx, 0, 0x7, 0x15) == (ctx.div(0x15, 0x7),)
    # a t^2 + c = 0 has the single root sqrt(c/a)
    (r,) = quad_roots(ctx, 0x3, 0, 0x9)
    assert ctx.mul(0x3, ctx.sq(r)) == 0x9


def test_quad_roots_exhaustive_gf16_matches_scan_oracle():
    # every shape: linear (a = 0), one double root (b = 0) and genuine quadratics
    ctx = field(4)
    for a in range(ctx.order):
        for b in range(ctx.order):
            if a == 0 and b == 0:
                continue
            for c in range(ctx.order):
                oracle = scan_quad_roots(ctx, a, b, c)
                if oracle:
                    assert quad_roots(ctx, a, b, c) == oracle
                    assert len(oracle) == (2 if a and b else 1)
                else:
                    with pytest.raises(NeedsExtension) as ei:
                        quad_roots(ctx, a, b, c)
                    assert ei.value.suggested_k == 8


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_quad_roots_matches_scan_oracle_on_random_quadratics(k):
    ctx = field(k)
    rng = random.Random(k)
    rootless = 0
    for _ in range(150):
        a, b, c = ctx.rand_nonzero(rng), ctx.rand_nonzero(rng), ctx.rand(rng)
        oracle = scan_quad_roots(ctx, a, b, c)
        if oracle:
            assert quad_roots(ctx, a, b, c) == oracle
        else:
            rootless += 1
            with pytest.raises(NeedsExtension) as ei:
                quad_roots(ctx, a, b, c)
            assert ei.value.suggested_k == 2 * k
    assert 40 < rootless < 110  # about half the quadratics split


def test_quad_roots_recovers_planted_roots():
    ctx = field(8)
    rng = random.Random(20260822)
    for _ in range(200):
        r = ctx.rand(rng)
        s = ctx.rand(rng)
        if r == s:
            continue
        b = ctx.add(r, s)
        c = ctx.mul(r, s)
        assert quad_roots(ctx, 1, b, c) == tuple(sorted((r, s)))


def test_quad_roots_gf65536_planted_roots_and_trace_criterion():
    ctx = field(16)
    rng = random.Random(16)
    for _ in range(200):
        a, r, s = ctx.rand_nonzero(rng), ctx.rand(rng), ctx.rand(rng)
        if r == s:
            continue
        # a (t - r)(t - s)
        b, c = ctx.mul(a, r ^ s), ctx.mul(a, ctx.mul(r, s))
        assert quad_roots(ctx, a, b, c) == tuple(sorted((r, s)))
    for _ in range(200):
        a, b, c = ctx.rand_nonzero(rng), ctx.rand_nonzero(rng), ctx.rand(rng)
        if field_trace(ctx, ctx.div(ctx.mul(a, c), ctx.sq(b))):
            with pytest.raises(NeedsExtension):
                quad_roots(ctx, a, b, c)
        else:
            roots = quad_roots(ctx, a, b, c)
            assert len(roots) == 2 and roots[0] < roots[1]
            for t in roots:
                assert ctx.mul(a, ctx.sq(t)) ^ ctx.mul(b, t) ^ c == 0


def test_quad_roots_no_root_names_its_witness():
    with pytest.raises(NeedsExtension) as ei:
        quad_roots(field(4), 0x3, 0x5, 0xA)
    assert str(ei.value) == "0x3 t^2 + 0x5 t + 0xa has no root in GF(2^4): Tr(ac/b^2) = 1"


@pytest.mark.parametrize("k", range(1, 9))
def test_extension_root_matches_full_scan_of_the_big_field(k):
    small, big = field(k), field(2 * k)
    scan = [
        cand
        for cand in range(big.order)
        if not UniPoly(big, [(small.modulus >> i) & 1 for i in range(k + 1)])(cand)
    ]
    assert len(scan) == k  # the modulus splits into distinct roots
    assert _extension_root(k) == scan[0]


def test_field_extend_is_a_field_homomorphism():
    small = field(2)
    big, embed = field_extend(small)
    assert big is field(4)
    assert embed(0) == 0 and embed(1) == 1
    seen = set()
    for a in small.elements():
        seen.add(embed(a))
        for b in small.elements():
            assert embed(small.mul(a, b)) == big.mul(embed(a), embed(b))
            assert embed(small.add(a, b)) == big.add(embed(a), embed(b))
    assert len(seen) == small.order  # injective


def test_field_extend_generator_image_satisfies_modulus():
    small = field(2)
    big, embed = field_extend(small)
    g = embed(0x2)
    # image of the generator still satisfies g^2 = g + 1
    assert big.mul(g, g) == big.add(g, 1)


def test_field_extend_gf256_deterministic_and_cached():
    big1, emb1 = field_extend(field(8))
    big2, emb2 = field_extend(field(8))
    assert big1 is big2 is field(16)
    for a in (0, 1, 2, 0x80, 0xFF):
        assert emb1(a) == emb2(a)


def test_field_extend_degree_limit():
    with pytest.raises(DegreeLimit):
        field_extend(field(16))
    with pytest.raises(DegreeLimit):
        field(17)
    with pytest.raises(DegreeLimit):
        field(0)
