import itertools
import random

import pytest

from dalg import (
    DalgError,
    DegreeOverflow,
    Morphism,
    NotClosedAtBound,
    NotGenerating,
    PAlgebra,
    PElem,
    Presentation,
    RelationsNotDClosed,
    enumerate_monomials,
    field,
    lemma_suite,
    mono_degree,
    mono_label,
    monomial_count,
    parse_presentation,
    polyd,
    present,
    quotient_to_dalgebra,
    verify_morphism,
)
from dalg.linalg import Matrix
from helpers import two_sided_relation_span


def rand_elem(pa, rng, nterms=3, maxdeg=3):
    out = pa.zero()
    monos = enumerate_monomials(pa, maxdeg)
    for _ in range(nterms):
        m = rng.choice(monos)
        out = out + PElem(pa, {m: pa.ctx.rand_nonzero(rng)})
    return out


def test_generator_products():
    pa = PAlgebra(field(8), 2, 0)
    x1, x2 = pa.x(1), pa.x(2)
    xi1, xi2 = pa.xi(1), pa.xi(2)
    assert (x1 * x1).terms == {((), 0, (2, 0)): 1}
    # swapping a descent pays a xi pair
    assert (x2 * x1).terms == {((), 0, (1, 1)): 1, ((), 3, (0, 0)): 1}
    assert (x1 * x2).terms == {((), 0, (1, 1)): 1}
    assert (xi1 * xi1).is_zero()
    assert xi1 * x1 == x1 * xi1
    assert (xi1 * xi2) + (xi2 * xi1) == pa.zero()


def test_y_generators_central():
    pa = PAlgebra(field(4), 1, 2)
    y1, y2, x1 = pa.y(1), pa.y(2), pa.x(1)
    assert y1 * x1 == x1 * y1
    assert y1 * y2 == y2 * y1
    assert (y1 * y1).terms == {((2, 0), 0, (0,)): 1}
    assert y1.d().is_zero()


def test_d_leibniz_and_square_zero():
    rng = random.Random(7)
    pa = PAlgebra(field(8), 3, 1)
    for _ in range(60):
        u = rand_elem(pa, rng)
        v = rand_elem(pa, rng)
        assert (u * v).d() == u.d() * v + u * v.d()
        assert u.d().d().is_zero()


def test_twisted_commutativity_in_free_algebra():
    # ab = ba + d(b) d(a) holds identically, not only on generators
    rng = random.Random(19)
    pa = PAlgebra(field(8), 2, 1)
    for _ in range(40):
        u = rand_elem(pa, rng)
        v = rand_elem(pa, rng)
        assert u * v == v * u + v.d() * u.d()


def test_mono_mul_associative():
    rng = random.Random(3)
    pa = PAlgebra(field(4), 3, 0)
    monos = enumerate_monomials(pa, 2)
    for _ in range(120):
        a = PElem(pa, {rng.choice(monos): 1})
        b = PElem(pa, {rng.choice(monos): 1})
        c = PElem(pa, {rng.choice(monos): 1})
        assert (a * b) * c == a * (b * c)


def test_mono_label():
    assert mono_label(((0, 2), 1, (3, 0))) == "y2^2 xi1 x1^3"
    assert mono_label(((0, 0), 0, (0, 0))) == "1"


def test_monomial_count_matches_enumeration():
    ctx = field(1)
    for r, s, bound in itertools.product(range(4), range(3), range(6)):
        assert monomial_count(r, s, bound) == len(enumerate_monomials(PAlgebra(ctx, r, s), bound))


def test_enumerate_monomials_order():
    pa = PAlgebra(field(2), 2, 0)
    labels = [mono_label(m) for m in enumerate_monomials(pa, 2)]
    assert labels == ["1", "xi1", "xi2", "x1", "x2", "xi1 xi2", "xi1 x1", "xi1 x2", "xi2 x1", "xi2 x2", "x1^2", "x1 x2", "x2^2"]


# -- free-word oracle ----------------------------------------------------
# The normal form claims a basis for the quotient of the free associative
# algebra by the exchange relations.  Rebuild that quotient from plain
# words with GF(2) bitmask rows and compare dimension and products.

LETTERS = 6  # y1 y2 xi1 xi2 x1 x2
Y1, Y2, XI1, XI2, X1, X2 = range(6)
DWORD = {X1: XI1, X2: XI2}


def _words(maxlen):
    out = []
    for ln in range(maxlen + 1):
        out += list(itertools.product(range(LETTERS), repeat=ln))
    return out


def _relations():
    rels = []
    for a in range(LETTERS):
        for b in range(LETTERS):
            t = {}
            for w in ((a, b), (b, a)):
                t[w] = t.get(w, 0) ^ 1
            if a in DWORD and b in DWORD:
                w = (DWORD[b], DWORD[a])
                t[w] = t.get(w, 0) ^ 1
            t = {w: c for w, c in t.items() if c}
            if t and t not in rels:
                rels.append(t)
    return rels


class WordOracle:
    def __init__(self, bound=4):
        self.bound = bound
        self.words = _words(bound)
        self.index = {w: i for i, w in enumerate(self.words)}
        small = {ln: _words(ln) for ln in range(bound + 1)}
        rows = set()
        for rel in _relations():
            rdeg = max(len(w) for w in rel)
            for u in small[bound - rdeg]:
                for v in small[bound - rdeg - len(u)]:
                    row = 0
                    for w in rel:
                        row ^= 1 << self.index[u + w + v]
                    rows.add(row)
        # row echelon by top bit; enough for membership via reduce()
        self.pivots = {}
        for row in rows:
            row = self.reduce(row)
            if row:
                self.pivots[row.bit_length() - 1] = row

    def reduce(self, row):
        while row:
            p = row.bit_length() - 1
            piv = self.pivots.get(p)
            if piv is None:
                return row
            row ^= piv
        return row

    def rank(self):
        return len(self.pivots)

    def word_bit(self, w):
        return 1 << self.index[w]


def mono_to_word(m):
    y, xi, x = m
    w = ()
    for j, e in enumerate(y):
        w += ((Y1, Y2)[j],) * e
    for i in range(2):
        if xi >> i & 1:
            w += ((XI1, XI2)[i],)
    for i, e in enumerate(x):
        w += ((X1, X2)[i],) * e
    return w


@pytest.fixture(scope="module")
def oracle():
    return WordOracle(4)


def test_normal_form_dimension_matches_word_quotient(oracle):
    pa = PAlgebra(field(2), 2, 2)
    monos = enumerate_monomials(pa, 4)
    assert len(oracle.words) - oracle.rank() == len(monos)


def test_normal_monomials_independent_in_word_quotient(oracle):
    pa = PAlgebra(field(2), 2, 2)
    span = {}
    for m in enumerate_monomials(pa, 4):
        row = oracle.reduce(oracle.word_bit(mono_to_word(m)))
        assert row, f"monomial {mono_label(m)} dies in the word quotient"
        while row:
            p = row.bit_length() - 1
            if p in span:
                row ^= span[p]
            else:
                span[p] = row
                break
        assert row, f"monomial {mono_label(m)} is dependent in the word quotient"


def test_products_match_word_quotient(oracle):
    rng = random.Random(41)
    pa = PAlgebra(field(2), 2, 2)
    monos = enumerate_monomials(pa, 4)
    pairs = 0
    while pairs < 500:
        m1, m2 = rng.choice(monos), rng.choice(monos)
        if mono_degree(m1) + mono_degree(m2) > 4:
            continue
        pairs += 1
        got = 0
        for m in pa.mono_mul(m1, m2):
            got ^= oracle.word_bit(mono_to_word(m))
        want = oracle.word_bit(mono_to_word(m1) + mono_to_word(m2))
        assert oracle.reduce(got ^ want) == 0


# -- bounded quotients ---------------------------------------------------


def test_quotient_square_zero_line():
    ctx = field(8)
    pa = PAlgebra(ctx, 1, 0)
    x = pa.x(1)
    q = quotient_to_dalgebra(Presentation(pa, [x * x], 4))
    assert q.n == 4
    assert [mono_label(m) for m in q.basis_labels] == ["1", "xi1", "x1", "xi1 x1"]
    assert q.verify().passed
    assert lemma_suite(q).passed
    # d(x) = xi in quotient coordinates
    assert q.d(q.basis_vec(2)) == q.basis_vec(1)


def test_quotient_skips_zero_relations():
    pa = PAlgebra(field(1), 1, 0)
    zero, x2 = pa.xi(1) * pa.xi(1), pa.x(1) * pa.x(1)
    assert zero.is_zero()
    got = quotient_to_dalgebra(Presentation(pa, [zero, x2], 4))
    want = quotient_to_dalgebra(Presentation(pa, [x2], 4))
    assert got.basis_labels == want.basis_labels
    assert got.tensor == want.tensor and got.dmat == want.dmat


def test_quotient_not_closed_at_small_bound():
    ctx = field(4)
    pa = PAlgebra(ctx, 1, 0)
    x = pa.x(1)
    with pytest.raises(NotClosedAtBound):
        quotient_to_dalgebra(Presentation(pa, [x * x], 2))


@pytest.mark.parametrize("k", [1, 8])
def test_quotient_that_fails_the_axioms_asks_for_a_larger_bound(k):
    # at bound 2, xi1 x1 + xi1 times x1 would be cut off, and e_x e_x e_xi
    # comes out non-associative; at bound 3 it reduces x1 xi1 to zero
    pa = PAlgebra(field(k), 1, 0)
    rels = [pa.x(1) * pa.x(1), pa.xi(1) * pa.x(1) + pa.xi(1)]
    msg = r"^the quotient at bound 2 fails associativity at \(1,2,2\); raise the bound$"
    with pytest.raises(NotClosedAtBound, match=msg):
        quotient_to_dalgebra(Presentation(pa, rels, 2))
    q = quotient_to_dalgebra(Presentation(pa, rels, 3))
    assert q.n == 2 and q.verify().passed


def test_quotient_requires_d_closed_relations():
    ctx = field(4)
    pa = PAlgebra(ctx, 1, 0)
    with pytest.raises(RelationsNotDClosed):
        quotient_to_dalgebra(Presentation(pa, [pa.x(1)], 2))


def test_relation_degree_over_bound_rejected():
    ctx = field(4)
    pa = PAlgebra(ctx, 1, 0)
    x = pa.x(1)
    with pytest.raises(DegreeOverflow):
        Presentation(pa, [x * x * x], 2)


def test_quotient_seven_dim_family_seed():
    ctx = field(8)
    pa = PAlgebra(ctx, 2, 0)
    x1, x2, xi1, xi2 = pa.x(1), pa.x(2), pa.xi(1), pa.xi(2)
    rels = [x1 * x1, x2 * x2, x1 * x2, xi1 * x1, xi2 * x2, xi1 * x2 + xi2 * x1]
    q = quotient_to_dalgebra(Presentation(pa, rels, 4))
    assert q.n == 7
    assert [mono_label(m) for m in q.basis_labels] == ["1", "xi1", "xi2", "x1", "x2", "xi1 xi2", "xi1 x2"]
    assert q.verify().passed
    assert lemma_suite(q).passed
    assert q.is_commutative() is not None
    assert q.im_d().dim == 3
    assert q.ker_d().dim == 4


def test_truncated_polynomial_quotient_matches_helper():
    from helpers import truncated_poly_algebra

    ctx = field(4)
    pa = PAlgebra(ctx, 0, 1)
    y = pa.y(1)
    q = quotient_to_dalgebra(Presentation(pa, [y.pow(3)], 4))
    assert q.n == 3
    ref = truncated_poly_algebra(ctx, 3)
    assert q.tensor == ref.tensor
    assert q.dmat.rows == ref.dmat.rows


def test_present_roundtrip():
    ctx = field(8)
    pa = PAlgebra(ctx, 1, 0)
    x = pa.x(1)
    a = quotient_to_dalgebra(Presentation(pa, [x * x], 4))
    gens = [a.basis_vec(2)]
    pres = present(a, gens, 4)
    b = quotient_to_dalgebra(pres)
    assert b.n == a.n
    # basis labels evaluate in a to an isomorphism
    xs = [g for g in gens if any(a.d(g))]
    cols = []
    for m in b.basis_labels:
        y, xi, xexp = m
        v = a.unit_vec()
        if xi:
            v = a.mul(v, a.d(xs[0]))
        for _ in range(xexp[0]):
            v = a.mul(v, xs[0])
        cols.append(v)
    phi = Morphism(b, a, Matrix.from_cols(ctx, cols))
    assert verify_morphism(phi, require_iso=True).passed


def test_present_rejects_nongenerators():
    ctx = field(4)
    pa = PAlgebra(ctx, 2, 0)
    x1, x2, xi1, xi2 = pa.x(1), pa.x(2), pa.xi(1), pa.xi(2)
    rels = [x1 * x1, x2 * x2, x1 * x2, xi1 * x1, xi2 * x2, xi1 * x2 + xi2 * x1]
    q = quotient_to_dalgebra(Presentation(pa, rels, 4))
    with pytest.raises(NotGenerating):
        present(q, [q.basis_vec(3)], 4)


# -- one-sided relation span against the two-sided oracle ----------------
# quotient_to_dalgebra spans m rel and m xi_i d(rel); the oracle spans
# every u rel v.  The spans must agree row for row, and so must what the
# quotient makes of them: the algebra, or the refusal and its message.

D_RELS = "x1^2 + {h} xi1 xi2, x2^2 + {k} xi1 xi2, x1 x2 + {p} xi1 xi2, xi1 x1, xi2 x2, xi1 x2 + xi2 x1"
Y_RELS = "y1^2, y1 x1, y1 x2, y1 xi1, y1 xi2"
RANK3_RELS = (
    "x1^2, x2^2, x3^2, x1 x2, x1 x3, x2 x3, xi1 x1, xi2 x2, xi3 x3,"
    " xi1 x2 + xi2 x1, xi1 x3 + xi3 x1, xi2 x3 + xi3 x2"
)


def cli_sources():
    """The benchmark's presentation sources, the square-zero line, the
    relation xi1 x1 + xi1 on both sides of its smallest working bound, and
    two relation sets that are not d-closed."""
    rng = random.Random(1402)
    out = []
    for k in (1, 8):
        ctx = field(k)
        for bound in (3, 4, 5):
            h, kk, p = (hex(ctx.rand(rng)) for _ in range(3))
            out.append((f"P(2,0) / [{D_RELS.format(h=h, k=kk, p=p)}] @ deg {bound}", k))
        h, kk, p = (hex(ctx.rand(rng)) for _ in range(3))
        out.append((f"P(2,1) / [{D_RELS.format(h=h, k=kk, p=p)}, {Y_RELS}] @ deg 4", k))
    out += [(f"P(3,0) / [{RANK3_RELS}] @ deg {bound}", 1) for bound in (4, 5, 6)]
    out += [(f"P(1,0) / [x1^2] @ deg {bound}", k) for bound, k in ((2, 4), (4, 8))]
    out += [(f"P(1,0) / [x1^2, xi1 x1 + xi1] @ deg {bound}", k) for bound in (2, 3) for k in (1, 8)]
    # not d-closed, with room for the m xi_i d(rel) rows to matter
    out += [("P(3,0) / [x1^2, x2^2, x3^2, x1 x2, x1 x3, x2 x3] @ deg 5", 1), ("P(2,1) / [x1 x2, y1 x1] @ deg 4", 4)]
    return out


def random_presentation(rng, ctx):
    """One to four random relations of one to three terms on r <= 2, s <= 1
    at bounds 2-4, each followed by its d half of the time.  Half the
    presentations also kill every monomial of degree (bound + 2) // 2, so
    products of what is left stay inside the bound."""
    r, s, bound = rng.randint(1, 2), rng.randint(0, 1), rng.randint(2, 4)
    pa = PAlgebra(ctx, r, s)
    monos = enumerate_monomials(pa, bound)
    top = (bound + 2) // 2
    rels = [PElem(pa, {m: 1}) for m in monos if mono_degree(m) == top] if rng.random() < 0.5 else []
    for _ in range(rng.randint(1, 4)):
        rel = pa.zero()
        for _ in range(rng.randint(1, 3)):
            rel = rel + PElem(pa, {rng.choice(monos[1:]): ctx.rand_nonzero(rng)})
        rels.append(rel)
        if rng.random() < 0.5:
            rels.append(rel.d())
    return Presentation(pa, rels, bound)


def outcome(pres):
    try:
        q = quotient_to_dalgebra(pres)
    except DalgError as e:
        return type(e), str(e)
    return q.tensor, q.dmat.rows, q.basis_labels


def run_quotient(pres, oracle_span=None):
    """The outcome of quotient_to_dalgebra and the relation spans it built;
    with oracle_span given, that span stands in for the one it builds."""
    built, real = [], polyd.Subspace

    def spy(ctx, ambient, rows):
        built.append(real(ctx, ambient, rows))
        return built[-1] if oracle_span is None else oracle_span

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyd, "Subspace", spy)
        got = outcome(pres)
    return got, built


def assert_matches_oracle(pres):
    oracle = two_sided_relation_span(pres)
    got, (built,) = run_quotient(pres)
    assert (built.rows, built.pivots) == (oracle.rows, oracle.pivots)
    want, _ = run_quotient(pres, oracle)
    assert got == want
    return got


@pytest.mark.parametrize("src,k", cli_sources())
def test_one_sided_span_matches_two_sided_on_cli_sources(src, k):
    assert_matches_oracle(parse_presentation(src, field(k)))


def test_one_sided_span_matches_two_sided_on_random_presentations():
    rng = random.Random(0x5EED)
    kinds = {}
    for k in (1, 2, 4):
        for _ in range(22):
            got = assert_matches_oracle(random_presentation(rng, field(k)))
            kind = got[0].__name__ if isinstance(got[0], type) else "quotient"
            kinds[kind] = kinds.get(kind, 0) + 1
    # the quotients and both ways to refuse one are exercised
    assert set(kinds) == {"quotient", "RelationsNotDClosed", "NotClosedAtBound"}, kinds
    assert min(kinds.values()) >= 10, kinds
