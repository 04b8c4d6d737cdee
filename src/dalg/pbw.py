"""Tensor words over a twisted Lie algebra and their normal forms.

Words multiply by concatenation; the enveloping algebra divides out the
relation R(x,y) = xy + yx + d(y)d(x) + [x,y].  Fixing an ordered basis
whose prefix of ``kk`` letters spans Im(d), every word rewrites to a
combination of standard words: nondecreasing index sequences in which
each prefix index appears at most once.  There is one rule per
left-hand side ab with a > b, or a == b < kk:

    ... a b ...  ->  ... b a ...  +  ... d(b) d(a) ...  +  ... [a,b] ...
    ... v v ...  ->  ... [w,w] ...      (w a chosen d-preimage of v)

Each rule differs from its left-hand side by a member of the relation
ideal I (for v v this is R(w,w), characteristic 2), and each lowers the
order that compares degree first, then the number of letters with
nonzero d (d(b) d(a) has none, since Im(d) lies in Ker(d)), then the
inversions among rearrangements of the same letters.  That order is
compatible with concatenation and well-founded, so rewriting terminates.
Products in U concatenate words and straighten them (``straighten_elem``).

Bergman's diamond lemma ("The diamond lemma for ring theory", Adv. Math.
29, 1978) turns two finite checks into the PBW theorem in every degree,
which is what :func:`prove_pbw` runs:

(a) relations: each of the n^2 relations R(i,j), i = j included,
    straightens to 0, so I lies in the span of the rules;
(b) overlaps: each word xyz whose xy and yz are both left-hand sides
    (all have length 2, so there are no inclusions) straightens to the
    same normal form after one rewrite at either position.

Then standard words are a basis of U, every order of rewriting and
every valid choice of preimages gives the same normal form, and every
sandwiched relation u R(i,j) w straightens to zero.  :func:`verify_pbw`
and :func:`confluence_test` answer from this proof alone; the N in
"checked N sandwiched relations" is :func:`sandwich_count`, the
relations up to the bound that the proof covers.  Where a check fails,
:func:`verify_pbw` reports it as its witness and :func:`confluence_test`
refuses.  The lemma runs both ways, so a failing check on a verified
twisted Lie algebra (all that ``dalg.formats.loads`` returns) would
contradict the PBW theorem; only unverified library input gets there.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb
from typing import Iterable, Sequence

from .algebra import AxiomFailure, AxiomReport, _nonzero
from .errors import IndexOutOfRange, NotApplicable
from .gf2k import Fe
from .lie import LieAlgebra2
from .linalg import Matrix, Subspace, solve_lex_least

__all__ = [
    "Word",
    "TElem",
    "StraightenCtx",
    "ordered_for_straightening",
    "standard_words",
    "standard_count",
    "sandwich_count",
    "prove_pbw",
    "verify_pbw",
    "confluence_test",
    "ConfluenceReport",
]

Word = tuple


class TElem:
    """A combination of tensor words with nonzero field coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {tuple(w): c for w, c in dict(terms or {}).items() if c}

    @classmethod
    def from_word(cls, w: Sequence[int], coeff: Fe = 1) -> "TElem":
        return cls({tuple(w): coeff})

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
    """Rewriting context: ordered basis data, preimages and the memo.

    The Lie basis must already have its Im(d) span sitting in the first
    ``kk`` positions (so d of anything expands over those letters, which
    is what makes the rewrite terminate).  ``preimages[i]`` is the
    lexicographically least w with d(w) = e_i; where :func:`prove_pbw`
    holds, any other choice gives the same normal forms.
    """

    def __init__(self, L: LieAlgebra2):
        ctx = L.ctx
        im = L.im_d()
        kk = im.dim
        # span(e_0..e_{kk-1}) in canonical form is those vectors themselves
        if im.rows != [L.basis_vec(i) for i in range(kk)]:
            raise NotApplicable(
                "the first dim Im(d) basis vectors must span Im(d)"
            )
        self.L = L
        self.ctx = ctx
        self.kk = kk
        self.preimages = [
            solve_lex_least(ctx, L.dmat, L.basis_vec(i)) for i in range(kk)
        ]
        # term lists: d(e_j), and [w, w] for the preimage w of e_i
        self._dterms = L._d_terms()
        self._square_brackets = [_nonzero(L.bracket(w, w)) for w in self.preimages]
        self._memo: dict = {}

    # -- straightening ------------------------------------------------------

    def straighten(self, w: Sequence[int]) -> TElem:
        word = tuple(w)
        for i in word:
            if not 0 <= i < self.L.n:
                raise IndexOutOfRange(f"letter {i} outside basis range")
        return TElem(self._straighten(word))

    def straighten_elem(self, t: TElem) -> TElem:
        mul = self.ctx.mul
        acc: dict = {}
        for w, c in t.terms.items():
            for sw, sc in self._straighten(w).items():
                _add_into(acc, sw, mul(c, sc))
        return TElem(acc)

    def _straighten(self, word: Word) -> dict:
        """Normal form of word, filling the memo bottom-up.

        An explicit stack replaces recursion, so the number of rewrites
        along a chain is bounded by memory rather than by the recursion
        limit.  A word leaves the stack once every word its rewrite step
        produced has a memoised normal form.
        """
        memo = self._memo
        hit = memo.get(word)
        if hit is not None:
            return hit
        mul = self.ctx.mul
        stack = [(word, self._straighten_step(word))]
        while stack:
            w, step = stack[-1]
            if w in memo:
                stack.pop()
            elif step is None:
                memo[w] = {w: 1}
                stack.pop()
            else:
                todo = [t for t, _ in step if t not in memo]
                if todo:
                    stack.extend((t, self._straighten_step(t)) for t in todo)
                    continue
                acc: dict = {}
                for t, c in step:
                    for sw, sc in memo[t].items():
                        _add_into(acc, sw, mul(c, sc))
                memo[w] = acc
                stack.pop()
        return memo[word]

    def _straighten_step(self, word: Word):
        """The rewrite at the leftmost site of word, or None if standard.

        Descents go first; squares of prefix letters only once the word
        is sorted.
        """
        last = len(word) - 1
        for j in range(last):
            if word[j] > word[j + 1]:
                return self._one_step(word, j)
        for j in range(last):
            if word[j] == word[j + 1] < self.kk:
                return self._one_step(word, j)
        return None

    def _one_step(self, word: Word, j: int) -> list:
        """The rule for the left-hand side word[j:j+2], applied in place.

        Returns (word, coefficient) pairs: a b (a > b) becomes b a +
        d(b) d(a) + [a,b], and v v (v < kk) becomes [w,w] for v's
        preimage w.
        """
        a, b = word[j], word[j + 1]
        head, tail = word[:j], word[j + 2 :]
        if a == b:
            return [(head + (m,) + tail, c) for m, c in self._square_brackets[a]]
        mul = self.ctx.mul
        out = [(head + (b, a) + tail, 1)]
        da = self._dterms[a]
        for x, cx in self._dterms[b]:
            for y, cy in da:
                out.append((head + (x, y) + tail, mul(cx, cy)))
        out.extend((head + (m,) + tail, c) for m, c in self.L.terms[a][b])
        return out


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
    if im.rows == [L.basis_vec(i) for i in range(kk)]:
        return StraightenCtx(L), False
    span = Subspace(ctx, L.n, im.rows)
    basis = [list(r) for r in im.rows]
    basis += [e for e in map(L.basis_vec, range(L.n)) if span.add(e) is not None]
    tensor, dcols = L.transport(basis, span.coords)
    moved = LieAlgebra2(ctx, tensor, Matrix.from_cols(ctx, dcols, nrows=L.n))
    return StraightenCtx(moved), True


def standard_words(m: int, kk: int, deg: int) -> Iterable[Word]:
    """All standard words on m letters, degree at most deg, in order.

    Depth-first from an explicit stack, each word before its extensions,
    so deg is not bounded by the recursion limit.
    """
    stack = [()]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < deg:
            last = w[-1] if w else 0
            stack.extend(
                w + (i,)
                for i in range(m - 1, last - 1, -1)
                if not (i < kk and w and i == last)
            )


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


def sandwich_count(n: int, kk: int, bound: int) -> int:
    """How many relations u R(i,j) w, u and w standard, fit in this bound.

    n^2 for each pair of standard words with |u| + |w| <= bound - 2, and
    none below bound 2.  Such a pair is one standard word on two copies
    of the alphabet (2 kk prefix letters among 2 n), so they number
    ``standard_count(2 n, 2 kk, bound - 2)``.
    """
    if bound < 2:
        return 0
    return n * n * standard_count(2 * n, 2 * kk, bound - 2)


def _relations(sctx: StraightenCtx) -> list:
    """rel[i][j]: the nonzero (word, coefficient) pairs of R(i,j).

    R(i,j) = (i j) + (j i) + d(j) d(i) + [i,j]; for i = j the first two
    cancel as they would in the sum.
    """
    L = sctx.L
    n = L.n
    mul = sctx.ctx.mul
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
    return rel


def _sorted(t: TElem) -> tuple:
    return tuple(sorted(t.terms.items()))


def _pbw_witness(sctx: StraightenCtx) -> AxiomFailure | None:
    """The first failing check of the diamond lemma, or None if all hold.

    In this order: a prefix letter with nonzero d, which must come first
    because without it the order that makes rewriting terminate is not
    available; a relation R(i,j) whose normal form is nonzero, named as
    the sandwiched relation ((), i, j, ()); an overlap xyz whose two
    one-step rewrites have different normal forms.
    """
    kk, n = sctx.kk, sctx.L.n
    for i in range(kk):
        if sctx._dterms[i]:
            return AxiomFailure(
                "d_kills_prefix", (i,), tuple(sctx.L.dmat.col(i)), (0,) * n
            )
    normal_form = sctx.straighten_elem
    for i, row in enumerate(_relations(sctx)):
        for j, terms in enumerate(row):
            out = normal_form(TElem(terms))
            if not out.is_zero():
                return AxiomFailure(
                    "relation_straightens_to_zero", ((), i, j, ()), _sorted(out), ()
                )
    lhs = [[a > b or a == b < kk for b in range(n)] for a in range(n)]
    for x in range(n):
        for y in range(n):
            if not lhs[x][y]:
                continue
            for z in range(n):
                if lhs[y][z]:
                    w = (x, y, z)
                    left = normal_form(TElem(sctx._one_step(w, 0)))
                    right = normal_form(TElem(sctx._one_step(w, 1)))
                    if left != right:
                        return AxiomFailure(
                            "overlap_resolves", w, _sorted(left), _sorted(right)
                        )
    return None


def prove_pbw(sctx: StraightenCtx) -> bool:
    """Whether the diamond lemma's checks on sctx's rewrite rules all hold,
    which proves the PBW theorem in every degree (see the module docstring)."""
    return _pbw_witness(sctx) is None


def verify_pbw(sctx: StraightenCtx, bound: int) -> AxiomReport:
    """Independence of standard words at the given degree bound.

    Every product of a standard word, a defining relation, and a standard
    word must straighten to zero: those products span the part of the
    relation ideal the rewriting ever touches, so straightening killing
    them means no combination of standard words dies in the quotient.

    The diamond-lemma proof settles every sandwiched relation at once, so
    the bound only sets the :func:`sandwich_count` in the note.  Where the
    proof fails, the report fails at its witness and has no note.
    """
    rep = AxiomReport("pbw")
    witness = _pbw_witness(sctx)
    if witness is not None:
        rep.failures.append(witness)
        return rep
    count = sandwich_count(sctx.L.n, sctx.kk, bound)
    rep.notes.append(f"checked {count} sandwiched relations at bound {bound}")
    return rep


@dataclass
class ConfluenceReport:
    """What :func:`confluence_test` vouches for: ``words_checked`` words
    whose normal form is the same for every rewrite order and preimage
    choice.  The mismatch lists belong to the report's format; the proof
    leaves them empty."""

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
    """Normal forms agree across rewrite orders and preimage choices.

    When the diamond-lemma proof holds, standard words are a basis of U,
    so any complete rewrite of a word ends in its one standard
    representative modulo the relation ideal.  That covers every order
    of rewriting, and also a context with other valid preimages: its
    rules lie in the same ideal (v v + [w',w'] = R(w',w')) and leave the
    same words irreducible.  The report counts ``trials`` words without
    straightening any.  Where the proof fails, and for a negative
    ``max_len``, :class:`NotApplicable` is raised.
    """
    if max_len < 0:
        raise NotApplicable(f"max_len must be at least 0, got {max_len}")
    witness = _pbw_witness(sctx)
    if witness is not None:
        raise NotApplicable(
            f"confluence is decided only where the diamond-lemma proof holds; {witness}"
        )
    rep = ConfluenceReport(seed, trials, max_len, words_checked=max(trials, 0))
    if not sctx.kk:
        rep.notes.append("d = 0: no preimages to vary")
    return rep
