"""Tensor words over a twisted Lie algebra and their normal forms.

Words multiply by concatenation; the enveloping algebra divides out the
relation xy + yx + d(y)d(x) + [x,y] = 0.  Fixing an ordered basis whose
prefix spans Im(d), every word rewrites to a combination of standard
words: nondecreasing index sequences in which each prefix index appears
at most once.  The rewrite at an out-of-order adjacent pair (i, j),

    ... i j ...  ->  ... j i ...  +  ... d(j) d(i) ...  +  ... [i,j] ...

preserves degree while trimming either the inversion count, the count of
letters with nonzero d, or the degree itself, so it terminates; a square
of a prefix letter rewrites through a chosen d-preimage w as v v -> [w,w],
dropping degree.  Whether the surviving standard words are independent is
exactly what :func:`verify_pbw` checks, and the alternating law [x,x] = 0
on Ker(d) is precisely what makes the check pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from math import comb
from typing import Iterable, Sequence

from .algebra import AxiomReport, _nonzero
from .errors import DegreeOverflow, IndexOutOfRange, NotApplicable
from .gf2k import Fe
from .lie import LieAlgebra2
from .linalg import Matrix, Subspace, extend_basis, solve_lex_least

__all__ = [
    "Word",
    "TElem",
    "StraightenCtx",
    "word_defect",
    "ordered_for_straightening",
    "standard_words",
    "standard_count",
    "verify_pbw",
    "confluence_test",
    "ConfluenceReport",
]

Word = tuple


def word_defect(w: Word) -> int:
    """Number of out-of-order pairs (not necessarily adjacent)."""
    return sum(
        1
        for a in range(len(w))
        for b in range(a + 1, len(w))
        if w[a] > w[b]
    )


class TElem:
    """A combination of tensor words with nonzero field coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {tuple(w): c for w, c in dict(terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "TElem":
        return cls()

    @classmethod
    def from_word(cls, w: Sequence[int], coeff: Fe = 1) -> "TElem":
        return cls({tuple(w): coeff})

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TElem):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "TElem") -> "TElem":
        out = dict(self.terms)
        for w, c in other.terms.items():
            r = out.get(w, 0) ^ c
            if r:
                out[w] = r
            else:
                out.pop(w, None)
        return TElem(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "TElem(0)"
        bits = []
        for w in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[w]
            label = ".".join(str(i) for i in w) if w else "()"
            bits.append(f"{c:x} {label}")
        return f"TElem({' + '.join(bits)})"


def _add_into(acc: dict, w: Word, c: Fe) -> None:
    r = acc.get(w, 0) ^ c
    if r:
        acc[w] = r
    else:
        acc.pop(w, None)


class StraightenCtx:
    """Rewriting context: ordered basis data, preimages, per-strategy memos.

    The Lie basis must already have its Im(d) span sitting in the first
    ``kk`` positions (so d of anything expands over d-killed letters, which
    is what makes the rewrite terminate).  ``preimages[i]`` is a vector
    with d(preimages[i]) = e_i; by default the lexicographically least
    solution, and any other choice gives the same normal forms.
    """

    def __init__(self, L: LieAlgebra2, preimages: Sequence[Sequence[Fe]] | None = None):
        ctx = L.ctx
        im = L.im_d()
        kk = im.dim
        prefix = Subspace(ctx, L.n, [L.basis_vec(i) for i in range(kk)])
        if prefix != im:
            raise NotApplicable(
                "the first dim Im(d) basis vectors must span Im(d)"
            )
        dterms = L._d_terms()
        if any(m >= kk for col in dterms for m, _ in col):
            raise NotApplicable("a d-image leaks outside the prefix block")
        if preimages is None:
            preimages = [
                solve_lex_least(ctx, L.dmat, L.basis_vec(i)) for i in range(kk)
            ]
        else:
            preimages = [list(p) for p in preimages]
            if len(preimages) != kk:
                raise NotApplicable("need one d-preimage per prefix vector")
        for i, w in enumerate(preimages):
            if L.d(w) != L.basis_vec(i):
                raise NotApplicable(f"preimage {i} has the wrong d-image")
        self.L = L
        self.ctx = ctx
        self.kk = kk
        self.preimages = preimages
        # term lists: d(e_j), and [w, w] for the preimage w of e_i
        self._dterms = dterms
        self._square_brackets = [_nonzero(L.bracket(w, w)) for w in preimages]
        self._memos: dict = {}

    # -- word predicates ----------------------------------------------------

    def k_degree(self, w: Word) -> int:
        dterms = self._dterms
        return sum(1 for i in w if dterms[i])

    def is_standard(self, w: Word) -> bool:
        for a, b in zip(w, w[1:]):
            if a > b:
                return False
            if a == b and a < self.kk:
                return False
        return True

    # -- straightening ------------------------------------------------------

    def straighten(self, w: Sequence[int], strategy="leftmost") -> TElem:
        word = tuple(w)
        for i in word:
            if not 0 <= i < self.L.n:
                raise IndexOutOfRange(f"letter {i} outside basis range")
        return TElem(self._straighten(word, self._strategy_key(strategy)))

    def straighten_elem(self, t: TElem, strategy="leftmost") -> TElem:
        key = self._strategy_key(strategy)
        acc: dict = {}
        for w, c in t.terms.items():
            self._accumulate(acc, c, w, key)
        return TElem(acc)

    def _accumulate(self, acc: dict, c: Fe, word: Word, key) -> None:
        """Add c times the normal form of word into acc."""
        mul = self.ctx.mul
        for sw, sc in self._straighten(word, key).items():
            _add_into(acc, sw, mul(c, sc))

    def _strategy_key(self, strategy):
        if strategy in ("leftmost", "rightmost"):
            return strategy
        if (
            isinstance(strategy, tuple)
            and len(strategy) == 2
            and strategy[0] == "random"
        ):
            return ("random", int(strategy[1]))
        raise NotApplicable(f"unknown strategy {strategy!r}")

    def _pick(self, key, word: Word, npos: int) -> int:
        if key == "leftmost":
            return 0
        if key == "rightmost":
            return npos - 1
        h = key[1] & 0xFFFFFFFF
        for letter in word:
            h = (h * 1000003 ^ (letter + 1)) & 0xFFFFFFFF
        return h % npos

    def _straighten(self, word: Word, key) -> dict:
        memo = self._memos.setdefault(key, {})
        hit = memo.get(word)
        if hit is not None:
            return hit
        result = self._straighten_step(word, key)
        memo[word] = result
        return result

    def _straighten_step(self, word: Word, key) -> dict:
        mul = self.ctx.mul
        descents = [
            j for j in range(len(word) - 1) if word[j] > word[j + 1]
        ]
        if descents:
            j = descents[self._pick(key, word, len(descents))]
            hi, lo = word[j], word[j + 1]
            head, tail = word[:j], word[j + 2 :]
            acc = dict(self._straighten(head + (lo, hi) + tail, key))
            dhi = self._dterms[hi]
            for a, ca in self._dterms[lo]:
                for b, cb in dhi:
                    c = mul(ca, cb)
                    for sw, sc in self._straighten(head + (a, b) + tail, key).items():
                        _add_into(acc, sw, mul(c, sc))
            for m, cm in self.L.terms[hi][lo]:
                for sw, sc in self._straighten(head + (m,) + tail, key).items():
                    _add_into(acc, sw, mul(cm, sc))
            return acc
        squares = [
            j
            for j in range(len(word) - 1)
            if word[j] == word[j + 1] and word[j] < self.kk
        ]
        if squares:
            j = squares[self._pick(key, word, len(squares))]
            head, tail = word[:j], word[j + 2 :]
            acc = {}
            for m, cm in self._square_brackets[word[j]]:
                for sw, sc in self._straighten(head + (m,) + tail, key).items():
                    _add_into(acc, sw, mul(cm, sc))
            return acc
        return {word: 1}

    # -- enveloping-algebra arithmetic --------------------------------------

    def u_mul(self, a: TElem, b: TElem, bound: int, strategy="leftmost") -> TElem:
        if a.degree + b.degree > bound:
            raise DegreeOverflow(
                f"product degree {a.degree + b.degree} exceeds bound {bound}"
            )
        mul = self.ctx.mul
        key = self._strategy_key(strategy)
        acc: dict = {}
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                self._accumulate(acc, mul(ca, cb), wa + wb, key)
        return TElem(acc)

    def u_one(self) -> TElem:
        return TElem.from_word(())

    def include(self, v: Sequence[Fe]) -> TElem:
        """The degree-1 element with the coordinates of v."""
        return TElem({(i,): c for i, c in enumerate(v) if c})


def ordered_for_straightening(L: LieAlgebra2) -> tuple[StraightenCtx, bool]:
    """A straightening context for L, reordering the basis if necessary.

    When the leading basis vectors of L already span Im(d) the context is
    built on L directly.  Otherwise the bracket and differential are
    transported to a new basis (Im(d) rows first, completed by standard
    vectors) and the context is built there; the flag reports whether
    that happened.  Normal forms then refer to the reordered basis.
    """
    ctx = L.ctx
    im = L.im_d()
    kk = im.dim
    prefix = Subspace(ctx, L.n, [L.basis_vec(i) for i in range(kk)])
    if prefix.rows == im.rows:
        return StraightenCtx(L), False
    basis = [list(r) for r in im.rows]
    basis += extend_basis(im, [L.basis_vec(i) for i in range(L.n)])
    pinv = Matrix.from_cols(ctx, basis, nrows=L.n).inverse()
    tensor = [
        [pinv.mul_vec(L.bracket(basis[i], basis[j])) for j in range(L.n)]
        for i in range(L.n)
    ]
    dcols = [pinv.mul_vec(L.d(basis[j])) for j in range(L.n)]
    moved = LieAlgebra2(ctx, tensor, Matrix.from_cols(ctx, dcols, nrows=L.n))
    return StraightenCtx(moved), True


def standard_words(m: int, kk: int, deg: int) -> Iterable[Word]:
    """All standard words on m letters, degree at most deg, in order."""

    def rec(prefix, lowest):
        yield tuple(prefix)
        if len(prefix) >= deg:
            return
        for i in range(lowest, m):
            if i < kk and prefix and prefix[-1] == i:
                continue
            prefix.append(i)
            yield from rec(prefix, i)
            prefix.pop()

    yield from rec([], 0)


def standard_count(m: int, kk: int, deg: int) -> int:
    """Number of standard words of degree <= deg.

    Closed form: choose a subset of the prefix letters and a multiset of
    the rest; cross-checked against the enumeration in the tests.
    """
    free = m - kk
    total = 0
    for s in range(kk + 1):
        ways = comb(kk, s)
        room = deg - s
        if room < 0:
            continue
        if free == 0:
            total += ways
        else:
            # multisets of size <= room from `free` letters
            total += ways * comb(room + free, free)
    return total


def verify_pbw(sctx: StraightenCtx, bound: int) -> AxiomReport:
    """Independence of standard words at the given degree bound.

    Every product of a standard word, a defining relation, and a standard
    word must straighten to zero: those products span the part of the
    relation ideal the rewriting ever touches, so straightening killing
    them means no combination of standard words dies in the quotient.
    Also confirms the degree-1 words stay independent (the algebra embeds).

    The relation (i j) + (j i) + d(j) d(i) + [i,j] is expanded once per
    call into ``rel[i][j]``, its nonzero (middle word, coefficient) pairs;
    i = j cancels there as it would in the sum.  Straightening is linear,
    so the normal form of u rel w is the sum of c N(u x w) over those
    pairs, accumulated straight from the leftmost memo without building
    the relation as a :class:`TElem`.
    """
    L = sctx.L
    rep = AxiomReport("pbw")
    n = L.n
    mul = sctx.ctx.mul
    straighten = sctx._straighten
    dterms = sctx._dterms
    rel = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            r: dict = {}
            _add_into(r, (i, j), 1)
            _add_into(r, (j, i), 1)
            for a, ca in dterms[j]:
                for b, cb in dterms[i]:
                    _add_into(r, (a, b), mul(ca, cb))
            for m, c in L.terms[i][j]:
                _add_into(r, (m,), c)
            rel[i][j] = list(r.items())
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
                        for sw, sc in straighten(u + x + w, "leftmost").items():
                            _add_into(acc, sw, mul(c, sc))
                    checked += 1
                    if acc:
                        rep.record(
                            "relation_straightens_to_zero",
                            (u, i, j, w),
                            tuple(sorted(acc.items())),
                            (),
                        )
    for i in range(n):
        if sctx.straighten((i,)) != TElem.from_word((i,)):
            rep.record("degree_one_standard", (i,), (), ())
    rep.notes.append(f"checked {checked} sandwiched relations at bound {bound}")
    return rep


@dataclass
class ConfluenceReport:
    """Deterministic record of a strategy/preimage agreement run."""

    seed: int
    trials: int
    max_len: int
    words_checked: int = 0
    strategy_mismatches: list = dc_field(default_factory=list)
    preimage_mismatches: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.strategy_mismatches and not self.preimage_mismatches

    def __str__(self) -> str:
        lines = [
            f"confluence seed={self.seed} trials={self.trials} max_len={self.max_len}",
            f"words checked: {self.words_checked}",
            f"strategy mismatches: {len(self.strategy_mismatches)}",
            f"preimage mismatches: {len(self.preimage_mismatches)}",
        ]
        for w in self.strategy_mismatches[:10]:
            lines.append(f"  strategy disagreement on {w}")
        for w in self.preimage_mismatches[:10]:
            lines.append(f"  preimage disagreement on {w}")
        lines.extend(self.notes)
        return "\n".join(lines)


def confluence_test(
    sctx: StraightenCtx, trials: int, max_len: int, seed: int
) -> ConfluenceReport:
    """Fuzz normal forms across descent strategies and preimage choices.

    For each random word the leftmost, rightmost and seeded-random
    strategies must produce the same element, and so must a context whose
    preimages are shifted by kernel vectors (still valid preimages).
    """
    L = sctx.L
    rng = random.Random(seed)
    rep = ConfluenceReport(seed=seed, trials=trials, max_len=max_len)
    alt = None
    if sctx.kk:
        kernel = L.ker_d().rows
        shifted = [
            [a ^ b for a, b in zip(w, kernel[i % len(kernel)])]
            for i, w in enumerate(sctx.preimages)
        ]
        alt = StraightenCtx(L, preimages=shifted)
    else:
        rep.notes.append("d = 0: no preimages to vary")
    for t in range(trials):
        length = rng.randrange(max_len + 1)
        word = tuple(rng.randrange(L.n) for _ in range(length))
        base = sctx.straighten(word)
        rep.words_checked += 1
        if (
            sctx.straighten(word, "rightmost") != base
            or sctx.straighten(word, ("random", seed ^ t)) != base
        ):
            rep.strategy_mismatches.append(word)
        if alt is not None and alt.straighten(word) != base:
            rep.preimage_mismatches.append(word)
    return rep
