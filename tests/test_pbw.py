import itertools
import random

import pytest

from dalg import IndexOutOfRange, Matrix, NotApplicable, field
from dalg.lie import LieAlgebra2, abelian_lie, commutator_lie, gl_object
from dalg.pbw import (
    ConfluenceReport,
    StraightenCtx,
    TElem,
    confluence_test,
    ordered_for_straightening,
    prove_pbw,
    sandwich_count,
    standard_count,
    standard_words,
    verify_pbw,
)

from helpers import SiteCtx, rand_vec, scan_pbw

rng = random.Random(0x9B3)


def jordan_lie(ctx):
    return commutator_lie(gl_object(2, Matrix(ctx, [[0, 1], [0, 0]])))


def lineal_lie(ctx):
    # abelian two-dimensional algebra with d(e1) = e0
    return abelian_lie(ctx, 2, Matrix(ctx, [[0, 1], [0, 0]]))


def axiom4_violator(ctx):
    tensor = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    tensor[0][0] = [0, 1]
    return LieAlgebra2(ctx, tensor, Matrix.zeros(ctx, 2, 2))


# ------------------------------------------------------------- word basics


def test_standard_words_membership():
    # standard: nondecreasing, each prefix letter (index < kk) at most once
    ctx = field(2)
    s = StraightenCtx(jordan_lie(ctx))
    assert s.kk == 2
    std = set(standard_words(4, s.kk, 5))
    assert () in std
    assert (0, 1, 2, 2, 3) in std
    assert (1, 0) not in std
    assert (0, 0, 2) not in std
    assert (2, 2) in std


def test_telem_arithmetic():
    a = TElem.from_word((1, 2), 3)
    b = TElem.from_word((1, 2), 3)
    assert (a + b).is_zero()
    c = a + TElem.from_word((0,), 1)
    assert c.terms == {(1, 2): 3, (0,): 1}
    assert TElem().is_zero()
    assert TElem({(): 0}).is_zero()


# ----------------------------------------------------------- straightening


def test_classical_sorting_when_abelian_d_zero():
    ctx = field(4)
    L = abelian_lie(ctx, 3)
    s = StraightenCtx(L)
    assert s.kk == 0
    assert s.straighten((2, 1, 0)) == TElem.from_word((0, 1, 2))
    assert s.straighten((1, 0, 1)) == TElem.from_word((0, 1, 1))


def test_square_of_prefix_letter_dies_when_bracket_abelian():
    ctx = field(2)
    s = StraightenCtx(lineal_lie(ctx))
    assert s.kk == 1
    assert s.straighten((0, 0)).is_zero()
    assert s.straighten((0, 0, 1)).is_zero()


def test_gl2_square_rule_hits_the_identity_word():
    # the preimage of the identity coordinate is E21 and [E21, E21] = I,
    # so the word (0, 0) collapses to the single letter 0
    ctx = field(2)
    s = StraightenCtx(jordan_lie(ctx))
    assert s.preimages[0] == [0, 0, 1, 0]
    assert s.preimages[1] == [0, 0, 0, 1]
    assert s.straighten((0, 0)) == TElem.from_word((0,))


def test_straighten_output_is_standard_fuzz():
    ctx = field(2)
    s = StraightenCtx(jordan_lie(ctx))
    for _ in range(150):
        w = tuple(rng.randrange(4) for _ in range(rng.randrange(6)))
        out = s.straighten(w)
        std = set(standard_words(4, s.kk, len(w)))
        for t in out.terms:
            assert t in std


def test_straighten_idempotent_fuzz():
    ctx = field(2)
    s = StraightenCtx(jordan_lie(ctx))
    for _ in range(60):
        w = tuple(rng.randrange(4) for _ in range(rng.randrange(6)))
        out = s.straighten(w)
        assert s.straighten_elem(out) == out


def test_straighten_long_word_needs_no_recursion():
    # 1500 chained rewrites move the single 0 to the front
    s = StraightenCtx(lineal_lie(field(1)))
    word = (1,) * 1500 + (0,) + (1,) * 1499
    assert len(word) == 3000
    assert s.straighten(word) == TElem.from_word((0,) + (1,) * 2999)


def test_straighten_rejects_bad_letters():
    s = StraightenCtx(abelian_lie(field(2), 2))
    with pytest.raises(IndexOutOfRange):
        s.straighten((0, 5))


def test_ctx_rejects_non_prefix_bases():
    ctx = field(2)
    # d(e0) = e1 puts the image outside the leading block
    L = abelian_lie(ctx, 2, Matrix(ctx, [[0, 0], [1, 0]]))
    with pytest.raises(NotApplicable):
        StraightenCtx(L)


# ---------------------------------------------------- oracle: quotient rank


class EnvOracle:
    """Exact quotient of the free word span by sandwiched relations, GF(2).

    Rows are bitmasks over an enumeration of all words of degree <= bound;
    insertion keeps a row-echelon set, so membership and rank are cheap.
    """

    def __init__(self, L, bound):
        assert L.ctx.k == 1
        self.L = L
        self.bound = bound
        self.words = []
        for ln in range(bound + 1):
            self.words.extend(itertools.product(range(L.n), repeat=ln))
        self.index = {w: i for i, w in enumerate(self.words)}
        self.rows = {}
        for total in range(max(bound - 1, 0)):
            for u in itertools.product(range(L.n), repeat=total):
                for cut in range(total + 1):
                    head, tail = u[:cut], u[cut:]
                    for i in range(L.n):
                        for j in range(L.n):
                            self.insert(self.relation_mask(head, i, j, tail))

    def relation_mask(self, head, i, j, tail):
        L = self.L
        mask = 0
        mask ^= 1 << self.index[head + (i, j) + tail]
        mask ^= 1 << self.index[head + (j, i) + tail]
        di, dj = L.dmat.col(i), L.dmat.col(j)
        for a, ca in enumerate(dj):
            for b, cb in enumerate(di):
                if ca and cb:
                    mask ^= 1 << self.index[head + (a, b) + tail]
        for m, cm in enumerate(L.tensor[i][j]):
            if cm:
                mask ^= 1 << self.index[head + (m,) + tail]
        return mask

    def insert(self, mask):
        mask = self.reduce(mask)
        if mask:
            self.rows[mask.bit_length() - 1] = mask

    def reduce(self, mask):
        while mask:
            row = self.rows.get(mask.bit_length() - 1)
            if row is None:
                return mask
            mask ^= row
        return 0

    def mask_of(self, telem):
        mask = 0
        for w, c in telem.terms.items():
            assert c == 1
            mask ^= 1 << self.index[w]
        return mask

    def quotient_dim(self):
        return len(self.words) - len(self.rows)


def test_quotient_dims_match_standard_counts():
    ctx = field(1)
    L = jordan_lie(ctx)
    expected = [1, 5, 13, 25, 41]
    for bound in range(5):
        oracle = EnvOracle(L, bound)
        assert oracle.quotient_dim() == standard_count(4, 2, bound)
        assert oracle.quotient_dim() == expected[bound]


def test_straighten_agrees_with_oracle():
    ctx = field(1)
    L = jordan_lie(ctx)
    s = StraightenCtx(L)
    oracle = EnvOracle(L, 4)
    words = [
        w
        for ln in range(5)
        for w in itertools.product(range(4), repeat=ln)
    ]
    std = set(standard_words(4, s.kk, 4))
    for w in words:
        out = s.straighten(w)
        assert all(t in std for t in out.terms)
        # w and its normal form agree modulo the relation span
        diff = (1 << oracle.index[w]) ^ oracle.mask_of(out)
        assert oracle.reduce(diff) == 0


def test_standard_words_independent_in_oracle():
    ctx = field(1)
    oracle = EnvOracle(jordan_lie(ctx), 4)
    seen = 0
    for w in standard_words(4, 2, 4):
        mask = oracle.reduce(1 << oracle.index[w])
        assert mask, f"standard word {w} died in the quotient"
        oracle.insert(mask)
        seen += 1
    assert seen == 41


# ------------------------------------------------------------ U arithmetic


def include(v):
    """The degree-1 element of U with the coordinates of v."""
    return TElem({(i,): c for i, c in enumerate(v) if c})


def u_mul(s, a, b):
    """The product in U: concatenate every pair of words, then straighten."""
    mul = s.ctx.mul
    words = TElem()
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            words = words + TElem.from_word(wa + wb, mul(ca, cb))
    return s.straighten_elem(words)


def test_u_mul_realizes_the_bracket():
    # xy + yx + (dy)(dx) = [x,y] inside the quotient
    ctx = field(4)
    L = jordan_lie(ctx)
    s = StraightenCtx(L)
    for _ in range(40):
        x = rand_vec(L, rng)
        y = rand_vec(L, rng)
        lhs = (
            u_mul(s, include(x), include(y))
            + u_mul(s, include(y), include(x))
            + u_mul(s, include(L.d(y)), include(L.d(x)))
        )
        assert lhs == include(L.bracket(x, y))


def test_u_mul_associative_fuzz():
    ctx = field(2)
    L = jordan_lie(ctx)
    s = StraightenCtx(L)
    for _ in range(100):
        a = include(rand_vec(L, rng)) + TElem.from_word((), rng.randrange(4))
        b = include(rand_vec(L, rng))
        c = include(rand_vec(L, rng))
        left = u_mul(s, u_mul(s, a, b), c)
        right = u_mul(s, a, u_mul(s, b, c))
        assert left == right


# ----------------------------------------------------------- standard count


def test_standard_count_examples():
    assert standard_count(3, 1, 0) == 1
    assert standard_count(2, 2, 2) == 4
    assert standard_count(4, 2, 4) == 41


def test_standard_count_matches_enumeration():
    for m, kk, deg in [(2, 2, 3), (3, 1, 4), (4, 2, 4), (3, 0, 3), (2, 0, 5)]:
        words = list(standard_words(m, kk, deg))
        assert len(words) == len(set(words))
        assert standard_count(m, kk, deg) == len(words)
        assert all(len(w) <= deg for w in words)
    # deeper than the recursion limit
    assert sum(1 for _ in standard_words(1, 0, 3000)) == standard_count(1, 0, 3000) == 3001


def test_sandwich_count_matches_the_scan():
    ctx = field(1)
    for n in (1, 2, 3):
        for kk in (0, 1):
            if kk >= n:
                continue
            d = Matrix.zeros(ctx, n, n)
            if kk:
                d = Matrix(ctx, [[int(i == 0 and j == 1) for j in range(n)] for i in range(n)])
            s = StraightenCtx(abelian_lie(ctx, n, d))
            assert s.kk == kk
            for bound in range(6):
                note = scan_pbw(s, bound).notes[-1]
                assert note == f"checked {sandwich_count(n, kk, bound)} sandwiched relations at bound {bound}"


def test_sandwich_count_closed_form_values():
    assert sandwich_count(4, 2, 1) == sandwich_count(3, 0, -5) == 0
    assert sandwich_count(4, 2, 2) == 16
    assert sandwich_count(2, 1, 400) == 1270420
    # beyond any enumeration: n^2 times the sum over |u| of
    # (standard words of degree |u|) x (standard words of degree <= top - |u|)
    for n, kk, bound in [(2, 1, 3000), (9, 4, 40), (5, 0, 30)]:
        top = bound - 2
        exact = [standard_count(n, kk, a) - (standard_count(n, kk, a - 1) if a else 0) for a in range(top + 1)]
        pairs = sum(exact[a] * standard_count(n, kk, top - a) for a in range(top + 1))
        assert sandwich_count(n, kk, bound) == n * n * pairs


# -------------------------------------------------------------- verify_pbw


def test_verify_pbw_abelian():
    ctx = field(2)
    s = StraightenCtx(abelian_lie(ctx, 3))
    assert verify_pbw(s, 3).passed


def test_verify_pbw_gl2():
    ctx = field(2)
    s = StraightenCtx(jordan_lie(ctx))
    rep = verify_pbw(s, 4)
    assert rep.passed
    assert rep.notes


def test_prove_pbw_on_passing_and_failing_algebras():
    ctx = field(2)
    assert prove_pbw(StraightenCtx(jordan_lie(ctx)))
    assert prove_pbw(StraightenCtx(abelian_lie(ctx, 3)))
    assert prove_pbw(StraightenCtx(lineal_lie(ctx)))
    gl3 = commutator_lie(gl_object(3, Matrix(ctx, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])))
    assert prove_pbw(ordered_for_straightening(gl3)[0])
    assert not prove_pbw(StraightenCtx(axiom4_violator(ctx)))
    # d(e0) = e0: the prefix letter is not killed by d, so no order applies
    assert not prove_pbw(StraightenCtx(abelian_lie(ctx, 1, Matrix(ctx, [[1]]))))


def test_failing_proof_names_its_first_witness():
    ctx = field(2)
    # d(e0) = e0: the prefix check comes before any straightening
    s = StraightenCtx(abelian_lie(ctx, 1, Matrix(ctx, [[1]])))
    assert [str(f) for f in verify_pbw(s, 4).failures] == ["d_kills_prefix fails at (0): (1,) != (0,)"]
    with pytest.raises(NotApplicable, match=r"proof holds; d_kills_prefix fails at \(0\)"):
        confluence_test(s, trials=3, max_len=4, seed=0)
    # [e0, e0] = e1: R(0,0) straightens to e1, whatever the bound
    s = StraightenCtx(axiom4_violator(ctx))
    for bound in (0, 2, 400):
        rep = verify_pbw(s, bound)
        assert [str(f) for f in rep.failures] == ["relation_straightens_to_zero fails at ((),0,0,()): (((1,), 1),) != ()"]
        assert not rep.notes


def test_verify_pbw_fails_without_alternating_law():
    ctx = field(2)
    s = StraightenCtx(axiom4_violator(ctx))
    rep = verify_pbw(s, 2)
    assert not rep.passed
    assert any(f.axiom == "relation_straightens_to_zero" for f in rep.failures)


# -------------------------------------------------------------- confluence


def test_confluence_gl2():
    ctx = field(2)
    s = StraightenCtx(jordan_lie(ctx))
    rep = confluence_test(s, trials=1000, max_len=6, seed=7)
    assert rep.passed
    assert rep.words_checked == 1000
    assert not rep.strategy_mismatches
    assert not rep.preimage_mismatches


def test_confluence_deterministic():
    ctx = field(2)
    s1 = StraightenCtx(jordan_lie(ctx))
    s2 = StraightenCtx(jordan_lie(ctx))
    a = str(confluence_test(s1, trials=50, max_len=5, seed=123))
    b = str(confluence_test(s2, trials=50, max_len=5, seed=123))
    assert a == b


def test_preimage_choice_is_irrelevant():
    ctx = field(2)
    L = jordan_lie(ctx)
    base = StraightenCtx(L)
    # shift both preimages by kernel vectors: E21 + I and E22 + E12
    alt = SiteCtx(L, preimages=[[1, 0, 1, 0], [0, 1, 0, 1]])
    for _ in range(80):
        w = tuple(rng.randrange(4) for _ in range(rng.randrange(6)))
        assert base.straighten(w) == alt.straighten(w)


def test_confluence_from_the_proof_on_long_words():
    s = StraightenCtx(lineal_lie(field(1)))
    rep = confluence_test(s, trials=2, max_len=3000, seed=0)
    assert rep.passed and rep.words_checked == 2
    # nothing was straightened beyond the proof's words of length <= 3
    assert max(map(len, s._memo)) <= 3


@pytest.mark.parametrize("trials", [0, 5])
@pytest.mark.parametrize("build", [jordan_lie, lineal_lie])
def test_confluence_refuses_negative_max_len(build, trials):
    s = StraightenCtx(build(field(1)))
    with pytest.raises(NotApplicable, match="max_len must be at least 0, got -1"):
        confluence_test(s, trials=trials, max_len=-1, seed=0)


def test_confluence_on_d_free_lie():
    ctx = field(2)
    s = StraightenCtx(abelian_lie(ctx, 3))
    rep = confluence_test(s, trials=100, max_len=5, seed=3)
    assert rep.passed
    assert any("d = 0" in note for note in rep.notes)
