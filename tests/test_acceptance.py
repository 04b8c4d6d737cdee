"""End-to-end checks of the package's headline guarantees.

One test per guarantee; each prints a single pass/fail line and uses
exact equality throughout (no tolerances).  The slow ones carry a
wall-clock budget asserted inside the test.
"""

import random
import time
from contextlib import contextmanager

from dalg import (
    Matrix,
    NeedsExtension,
    PAlgebra,
    StraightenCtx,
    Subspace,
    abelian_lie,
    close,
    commutator_lie,
    confluence_test,
    decompose,
    defect,
    defect_one_basis,
    direct_product,
    enumerate_monomials,
    field,
    gl_object,
    ideal_intersect,
    ideal_product,
    is_coprime,
    is_local,
    jacobson_radical,
    maximal_ideals,
    nilpotency_index,
    normalize7,
    parse_presentation,
    quad_roots,
    quotient_to_dalgebra,
    standard_count,
    verify_morphism,
    verify_pbw,
)
from dalg.dim7 import make_D
from dalg.polyd import mono_degree

from helpers import corpus_small, rand_vec, random_dim7, truncated_poly_algebra
from test_pbw import EnvOracle, axiom4_violator, jordan_lie
from test_polyd import WordOracle, mono_to_word, rand_elem

CANONICAL_SOURCE = (
    "P(2,0) / [x1^2, x2^2, x1*x2, xi1*x1, xi2*x2, xi1*x2 + xi2*x1] @ deg 4"
)


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        word = "pass" if ok else "FAIL"
        print(f"criterion {num} ({label}): {word} [{elapsed:.2f}s]")


def test_criterion_01_canonical_model_suite():
    with criterion(1, "canonical 7-dimensional model", budget=1.0):
        ctx = field(1)
        a = quotient_to_dalgebra(parse_presentation(CANONICAL_SOURCE, ctx))
        assert a.n == 7
        assert a.verify().passed

        model = make_D(ctx, 0, 0, 0)
        assert a.tensor == model.tensor
        assert a.dmat.rows == model.dmat.rows

        labels = a.basis_labels
        x1 = labels.index(((), 0, (1, 0)))
        x2 = labels.index(((), 0, (0, 1)))
        xi1xi2 = labels.index(((), 3, (0, 0)))
        assert a.is_commutative() == (x1, x2)
        assert a.mul(a.basis_vec(x2), a.basis_vec(x1)) == a.basis_vec(xi1xi2)

        assert a.im_d().dim == 3
        assert a.ker_d().dim == 4
        assert defect(a) == 1
        assert is_local(a)
        ideals = maximal_ideals(a)
        assert len(ideals) == 1
        assert ideals[0].dim == 6


def test_criterion_02_classification_over_gf256():
    with criterion(2, "classification of the 7-dimensional family", budget=30.0):
        ctx = field(8)
        rng = random.Random(20260822)
        for _ in range(100):
            h, k, p = ctx.rand(rng), ctx.rand(rng), ctx.rand(rng)
            a = make_D(ctx, h, k, p)
            assert a.n == 7
            assert a.verify().passed
            res = normalize7(a)
            target = make_D(res.algebra.ctx, 0, 0, 0)
            assert res.canonical.tensor == target.tensor
            assert res.canonical.dmat.rows == target.dmat.rows
            assert verify_morphism(res.morphism, require_iso=True).passed
            # at most one quadratic extension on the way down
            assert res.algebra.ctx.k == (16 if res.extended else 8)


def test_criterion_03_small_dimensions_commute():
    with criterion(3, "no noncommutative algebra below dimension 7"):
        algs = corpus_small()
        assert len(algs) >= 50
        assert all(a.n <= 6 for a in algs)
        bad = [a for a in algs if a.is_commutative() is not None]
        assert bad == []

        # the noncommutative examples we can build all carry dim Im(d) >= 3,
        # witnessed by an independent triple d(a), d(b), d(a)d(b)
        rng = random.Random(7)
        for _ in range(10):
            a = random_dim7(rng)
            pair = a.is_commutative()
            assert pair is not None
            da = a.d(a.basis_vec(pair[0]))
            db = a.d(a.basis_vec(pair[1]))
            triple = [da, db, a.mul(da, db)]
            assert Subspace(a.ctx, a.n, triple).dim == 3
            assert a.im_d().dim >= 3


def test_criterion_04_decomposition_into_local_factors():
    with criterion(4, "splitting off local factors"):
        ctx = field(1)
        a, _, _ = direct_product(make_D(ctx, 0, 0, 0), truncated_poly_algebra(ctx, 3))
        dec = decompose(a)
        assert len(dec.factors) == 2
        assert sorted(defect(f) for f in dec.factors) == [1, 3]
        assert defect(a) == 4

        e0, e1 = dec.idempotents
        assert a.mul(e0, e0) == e0 and a.mul(e1, e1) == e1
        assert a.mul(e0, e1) == [0] * a.n
        assert a.mul(e1, e0) == [0] * a.n
        assert [x ^ y for x, y in zip(e0, e1)] == a.unit_vec()
        assert a.d(e0) == [0] * a.n and a.d(e1) == [0] * a.n
        assert verify_morphism(dec.iso, require_iso=True).passed

        for f in dec.factors:
            assert is_local(f)
            rad = jacobson_radical(f)
            steps = nilpotency_index(rad)
            assert steps is not None and steps <= 7


def test_criterion_05_ideal_arithmetic_laws():
    with criterion(5, "ideal product, intersection, closure laws"):
        rng = random.Random(99)
        algs = [a for a in corpus_small() if a.n >= 2]

        def check_closed(a, ideal):
            for v in ideal.space.rows:
                assert ideal.space.contains(a.d(v))
                for i in range(a.n):
                    e = a.basis_vec(i)
                    assert ideal.space.contains(a.mul(e, v))
                    assert ideal.space.contains(a.mul(v, e))

        coprime_pairs = 0
        for _ in range(200):
            a = rng.choice(algs)
            i = close(a, [rand_vec(a, rng)])
            j = close(a, [rand_vec(a, rng)])
            ij = ideal_product(i, j)
            ji = ideal_product(j, i)
            assert ij.space.rows == ji.space.rows
            if is_coprime(i, j):
                coprime_pairs += 1
                assert ij.space.rows == ideal_intersect(i, j).space.rows
            for ideal in (i, j, ij):
                check_closed(a, ideal)
        assert coprime_pairs > 0


def test_criterion_06_defect_one_normal_basis():
    with criterion(6, "rigid basis for defect-1 algebras"):
        rng = random.Random(12)
        for _ in range(20):
            a = random_dim7(rng)
            assert defect(a) == 1
            basis = defect_one_basis(a)
            n = a.n
            assert Subspace(a.ctx, n, basis.rows()).dim == n
            assert Subspace(a.ctx, n, basis.vs).rows == a.im_d().rows
            for v in basis.vs:
                assert a.mul(v, v) == [0] * a.n
            for v, w in zip(basis.vs, basis.ws):
                assert a.d(w) == v
                w2 = a.mul(w, w)
                assert a.mul(w2, w2) == [0] * a.n


def test_criterion_07_polynomial_products_match_word_oracle():
    with criterion(7, "polynomial algebra vs free-word oracle"):
        oracle = WordOracle(4)
        pa = PAlgebra(field(2), 2, 2)
        monos = enumerate_monomials(pa, 4)
        rng = random.Random(41)

        checked = 0
        while checked < 500:
            m1, m2 = rng.choice(monos), rng.choice(monos)
            if mono_degree(m1) + mono_degree(m2) > 4:
                continue
            checked += 1
            got = 0
            for m in pa.mono_mul(m1, m2):
                got ^= oracle.word_bit(mono_to_word(m))
            want = oracle.word_bit(mono_to_word(m1) + mono_to_word(m2))
            assert oracle.reduce(got ^ want) == 0

        for _ in range(200):
            e1 = rand_elem(pa, rng)
            e2 = rand_elem(pa, rng)
            e3 = rand_elem(pa, rng)
            assert (e1 * e2) * e3 == e1 * (e2 * e3)
            assert e1 * e2 == e2 * e1 + e2.d() * e1.d()


def test_criterion_08_pbw_standard_words():
    with criterion(8, "standard words span enveloping quotients", budget=60.0):
        ctx = field(1)

        rank1 = Matrix(ctx, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 4)
        flat = abelian_lie(ctx, 4, rank1)
        jordan = jordan_lie(ctx)
        for lie, kernel_rank in ((flat, 1), (jordan, 2)):
            sctx = StraightenCtx(lie)
            assert verify_pbw(sctx, 4).passed
            for bound in range(5):
                want = EnvOracle(lie, bound).quotient_dim()
                assert standard_count(lie.n, kernel_rank, bound) == want

        # a broken alternating law must be caught, not straightened around
        broken = axiom4_violator(ctx)
        assert not verify_pbw(StraightenCtx(broken), 4).passed


def test_criterion_09_confluence_is_deterministic():
    with criterion(9, "straightening strategies agree"):
        ctx = field(1)
        lie = jordan_lie(ctx)
        first = confluence_test(StraightenCtx(lie), trials=1000, max_len=6, seed=2718)
        assert first.passed
        assert first.words_checked == 1000
        assert first.strategy_mismatches == []
        assert first.preimage_mismatches == []
        again = confluence_test(StraightenCtx(lie), trials=1000, max_len=6, seed=2718)
        assert str(first) == str(again)


def test_criterion_10_field_square_roots_and_quadratics():
    with criterion(10, "field layer roots"):
        for k in range(1, 5):
            ctx = field(k)
            for a in range(1 << k):
                r = ctx.sqrt(a)
                assert ctx.mul(r, r) == a

        rng = random.Random(271828)
        for _ in range(10_000):
            ctx = field(rng.randrange(1, 17))
            a = ctx.rand(rng)
            r = ctx.sqrt(a)
            assert ctx.mul(r, r) == a

        for k in (1, 2, 3):
            ctx = field(k)
            size = 1 << k
            for b in range(size):
                for c in range(size):
                    brute = [
                        x
                        for x in range(size)
                        if ctx.mul(x, x) ^ ctx.mul(b, x) ^ c == 0
                    ]
                    try:
                        roots = quad_roots(ctx, 1, b, c)
                    except NeedsExtension:
                        assert brute == []
                    else:
                        assert list(roots) == brute
