"""Free commutative d-algebras on x/y generators and their bounded quotients.

The free algebra has generators x_1..x_r (with dx_i written xi_i) and
central generators y_1..y_s with dy_j = 0.  The defining exchange rule
x_j x_i = x_i x_j + xi_i xi_j for i < j, together with xi_i^2 = 0 and the
centrality of the xi_i and y_j, gives a normal form: every element is a
combination of monomials y^a xi^eps x^b with the three blocks in order and
indices ascending.  Structure coefficients live in the prime field, so
straightening is pure parity bookkeeping.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

from .algebra import DAlgebra
from .errors import (
    DegreeOverflow,
    IndexOutOfRange,
    NotApplicable,
    NotClosedAtBound,
    NotGenerating,
    RelationsNotDClosed,
)
from .gf2k import Fe, FieldCtx
# rref_rows is not called here; perfbench/test_perfbench.py checks that its
# tracer rebinds this module's name for it, so the name stays bound
from .linalg import Matrix, Subspace, nullspace_rows, rref_rows  # noqa: F401

__all__ = [
    "PMono",
    "PAlgebra",
    "PElem",
    "mono_degree",
    "mono_label",
    "mono_sort_key",
    "Presentation",
    "enumerate_monomials",
    "monomial_count",
    "quotient_to_dalgebra",
    "present",
]

# (y exponents, xi bitmask, x exponents); blocks print in that order
PMono = tuple[tuple[int, ...], int, tuple[int, ...]]


def mono_degree(m: PMono) -> int:
    y, xi, x = m
    return sum(y) + xi.bit_count() + sum(x)


def mono_sort_key(m: PMono):
    """Degree first, then y-heavy before xi-heavy before x-heavy.

    Within a block, lower indices come first (y1 before y2, x1 before x2),
    which makes quotient bases read in the order one would write them.
    """
    y, xi, x = m
    return (
        mono_degree(m),
        tuple(-e for e in y),
        -xi.bit_count(),
        xi,
        tuple(-e for e in x),
    )


def mono_label(m: PMono) -> str:
    y, xi, x = m
    parts = []
    for j, e in enumerate(y):
        if e:
            parts.append(f"y{j + 1}" + (f"^{e}" if e > 1 else ""))
    for i in range(xi.bit_length()):
        if xi >> i & 1:
            parts.append(f"xi{i + 1}")
    for i, e in enumerate(x):
        if e:
            parts.append(f"x{i + 1}" + (f"^{e}" if e > 1 else ""))
    return " ".join(parts) if parts else "1"


class PAlgebra:
    """Context for the free algebra on r x-generators and s y-generators.

    Holds the straightening memos; monomials are plain tuples so the same
    tables serve every element built over this context.
    """

    def __init__(self, ctx: FieldCtx, r: int, s: int = 0):
        if r < 0 or s < 0:
            raise IndexOutOfRange("generator counts must be non-negative")
        self.ctx = ctx
        self.r = r
        self.s = s
        self._sort_memo: dict[tuple[int, ...], dict] = {}
        self._mul_memo: dict[tuple[PMono, PMono], dict] = {}

    # -- construction -------------------------------------------------

    def one_mono(self) -> PMono:
        return ((0,) * self.s, 0, (0,) * self.r)

    def zero(self) -> "PElem":
        return PElem(self, {})

    def one(self) -> "PElem":
        return PElem(self, {self.one_mono(): 1})

    def const(self, c: Fe) -> "PElem":
        return PElem(self, {self.one_mono(): c} if c else {})

    def x(self, i: int) -> "PElem":
        if not 1 <= i <= self.r:
            raise IndexOutOfRange(f"x{i} out of range 1..{self.r}")
        ex = tuple(1 if t == i - 1 else 0 for t in range(self.r))
        return PElem(self, {((0,) * self.s, 0, ex): 1})

    def xi(self, i: int) -> "PElem":
        if not 1 <= i <= self.r:
            raise IndexOutOfRange(f"xi{i} out of range 1..{self.r}")
        return PElem(self, {((0,) * self.s, 1 << (i - 1), (0,) * self.r): 1})

    def y(self, j: int) -> "PElem":
        if not 1 <= j <= self.s:
            raise IndexOutOfRange(f"y{j} out of range 1..{self.s}")
        ey = tuple(1 if t == j - 1 else 0 for t in range(self.s))
        return PElem(self, {(ey, 0, (0,) * self.r): 1})

    def from_terms(self, terms: dict[PMono, Fe]) -> "PElem":
        return PElem(self, {m: c for m, c in terms.items() if c})

    # -- straightening -------------------------------------------------

    def _sort_xword(self, word: tuple[int, ...]) -> dict:
        """Normal form of a product of x-letters.

        Returns {(extra xi mask, x exponents): 1} keeping parity-odd terms
        only.  Each swap across the leftmost descent spawns a shorter word
        times a xi pair, so recursion terminates on (length, inversions).
        """
        hit = self._sort_memo.get(word)
        if hit is not None:
            return hit
        j = next((j for j in range(len(word) - 1) if word[j] > word[j + 1]), None)
        if j is None:
            exps = [0] * self.r
            for a in word:
                exps[a] += 1
            out = {(0, tuple(exps)): 1}
            self._sort_memo[word] = out
            return out
        a, b = word[j], word[j + 1]
        acc: dict = {}
        for k2 in self._sort_xword(word[:j] + (b, a) + word[j + 2 :]):
            acc[k2] = acc.get(k2, 0) ^ 1
        corr = (1 << a) | (1 << b)
        for (mask, exps) in self._sort_xword(word[:j] + word[j + 2 :]):
            if mask & corr:
                continue
            k2 = (mask | corr, exps)
            acc[k2] = acc.get(k2, 0) ^ 1
        out = {k2: 1 for k2, p in acc.items() if p}
        self._sort_memo[word] = out
        return out

    def mono_mul(self, m1: PMono, m2: PMono) -> dict:
        """Product of normal monomials as {normal monomial: 1} parities."""
        key = (m1, m2)
        hit = self._mul_memo.get(key)
        if hit is not None:
            return hit
        y1, xi1, x1 = m1
        y2, xi2, x2 = m2
        if xi1 & xi2:
            out: dict = {}
        else:
            y = tuple(a + b for a, b in zip(y1, y2))
            base = xi1 | xi2
            word = _letters(x1) + _letters(x2)
            out = {}
            for (extra, exps) in self._sort_xword(word):
                if extra & base:
                    continue
                out[(y, base | extra, exps)] = 1
        self._mul_memo[key] = out
        return out

    def mono_d(self, m: PMono) -> dict:
        """d of a normal monomial as {normal monomial: 1} parities."""
        y, xi, x = m
        out = {}
        for i, e in enumerate(x):
            if e & 1 and not xi >> i & 1:
                ex = x[:i] + (e - 1,) + x[i + 1 :]
                out[(y, xi | 1 << i, ex)] = 1
        return out


def _letters(exps: tuple[int, ...]) -> tuple[int, ...]:
    w: tuple[int, ...] = ()
    for i, e in enumerate(exps):
        w += (i,) * e
    return w


class PElem:
    """Element of a free algebra: finitely many monomials with coefficients."""

    __slots__ = ("pa", "terms")

    def __init__(self, pa: PAlgebra, terms: dict[PMono, Fe]):
        self.pa = pa
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PElem):
            return NotImplemented
        return self.pa is other.pa and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.pa), frozenset(self.terms.items())))

    def __add__(self, other: "PElem") -> "PElem":
        if self.pa is not other.pa:
            raise NotApplicable("elements of different free algebras")
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) ^ c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return PElem(self.pa, out)

    __sub__ = __add__

    def scale(self, c: Fe) -> "PElem":
        if not c:
            return PElem(self.pa, {})
        mul = self.pa.ctx.mul
        return PElem(self.pa, {m: mul(c, v) for m, v in self.terms.items()})

    def __mul__(self, other: "PElem") -> "PElem":
        if self.pa is not other.pa:
            raise NotApplicable("elements of different free algebras")
        ctx = self.pa.ctx
        out: dict[PMono, Fe] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = ctx.mul(c1, c2)
                for m in self.pa.mono_mul(m1, m2):
                    v = out.get(m, 0) ^ c
                    if v:
                        out[m] = v
                    else:
                        out.pop(m, None)
        return PElem(self.pa, out)

    def pow(self, e: int) -> "PElem":
        out = self.pa.one()
        for _ in range(e):
            out = out * self
        return out

    def d(self) -> "PElem":
        out: dict[PMono, Fe] = {}
        for m, c in self.terms.items():
            for m2 in self.pa.mono_d(m):
                v = out.get(m2, 0) ^ c
                if v:
                    out[m2] = v
                else:
                    out.pop(m2, None)
        return PElem(self.pa, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (mono_degree(m), m)):
            c = self.terms[m]
            lab = mono_label(m)
            if c == 1:
                parts.append(lab)
            elif lab == "1":
                parts.append(self.pa.ctx.to_hex(c))
            else:
                parts.append(f"{self.pa.ctx.to_hex(c)} {lab}")
        return " + ".join(parts)


@dataclass
class Presentation:
    """Generators-and-relations data for a bounded-degree quotient."""

    pa: PAlgebra
    relations: list[PElem] = field(default_factory=list)
    bound: int = 4

    def __post_init__(self):
        for rel in self.relations:
            if rel.pa is not self.pa:
                raise NotApplicable("relation from a different free algebra")
            if rel.degree() > self.bound:
                raise DegreeOverflow("relation degree exceeds the bound")


def _tuples_bounded(length: int, total: int) -> Iterable[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _tuples_bounded(length - 1, total - first):
            yield (first,) + rest


# enumerate_monomials refuses a free algebra with more normal monomials than
# this.  They index the columns of a quotient's relation span, which has up
# to 1 + r rows per relation and monomial, so its elimination grows with the
# cube of their number; the largest count a shipped input or benchmark
# workload reaches is 501.
MAX_MONOMIALS = 4096


def monomial_count(r: int, s: int, bound: int) -> int:
    """Number of normal monomials of degree at most bound, without listing them.

    p of the r xi's leave bound - p for r + s exponents, and stars and bars
    counts those: sum over p of C(r, p) C(bound - p + r + s, r + s).
    """
    return sum(comb(r, p) * comb(bound - p + r + s, r + s) for p in range(min(r, bound) + 1))


def enumerate_monomials(pa: PAlgebra, bound: int) -> list[PMono]:
    """All normal monomials of degree at most bound, degree-sorted, 1 first.

    Raises :class:`NotApplicable` when there would be more than
    ``MAX_MONOMIALS`` of them.
    """
    count = monomial_count(pa.r, pa.s, bound)
    if count > MAX_MONOMIALS:
        raise NotApplicable(
            f"P({pa.r},{pa.s}) has {count} normal monomials of degree at most {bound},"
            f" more than the {MAX_MONOMIALS} this package enumerates; lower the bound"
        )
    out = []
    for y in _tuples_bounded(pa.s, bound):
        left_y = bound - sum(y)
        for mask in range(1 << pa.r):
            pc = mask.bit_count()
            if pc > left_y:
                continue
            for x in _tuples_bounded(pa.r, left_y - pc):
                out.append((y, mask, x))
    out.sort(key=mono_sort_key)
    return out


def quotient_to_dalgebra(pres: Presentation) -> DAlgebra:
    """The quotient by the ideal of the relations, truncated at the bound.

    The relation span is that of every u * rel * v inside the bound, built
    one-sided: rel * v = v * rel + d(v) d(rel), and each term of d(v) is a
    monomial times a central xi_i, so it is the span of m * rel and of
    m * xi_i * d(rel) for the monomials m that fit; conversely
    xi_i d(rel) = x_i rel + rel x_i.  Coset representatives are the
    monomials missing from the span's pivot set.  Products of
    representatives must stay inside the bound and reduce into the
    representative span, and the result must pass :meth:`DAlgebra.verify`
    (a relation multiple cut off by the bound can leave it
    non-associative), else the bound is too small and
    :class:`NotClosedAtBound` is raised.  Relations whose d does not reduce
    to zero raise :class:`RelationsNotDClosed`.

    The result carries ``basis_labels`` (one monomial per basis vector) and
    ``presentation``.
    """
    pa, bound = pres.pa, pres.bound
    ctx = pa.ctx
    monos = enumerate_monomials(pa, bound)
    nm = len(monos)
    degs = [mono_degree(m) for m in monos]
    # monos is degree-sorted, so monos[:upto[e]] are those of degree <= e
    upto = [bisect_right(degs, e) for e in range(bound + 1)]
    # elimination runs on reversed columns so each relation rewrites its
    # largest monomial in terms of smaller ones; coset representatives are
    # then the smallest monomials and the unit survives at index 0
    rev = {m: nm - 1 - i for i, m in enumerate(monos)}

    def coords(el: PElem, who: str) -> list[Fe]:
        v = [0] * nm
        for m, c in el.terms.items():
            j = rev.get(m)
            if j is None:
                raise NotClosedAtBound(
                    f"{who} has degree beyond the bound {bound}; raise the bound"
                )
            v[j] = c
        return v

    rows: set[tuple[Fe, ...]] = set()
    for rel in pres.relations:
        if rel.is_zero():
            continue  # degree -1 would index past upto, and spans nothing
        room = bound - rel.degree()
        drel = rel.d()
        lefts = [(rel, room)]
        if drel and room:
            lefts += [(pa.xi(i) * drel, room - 1) for i in range(1, pa.r + 1)]
        for el, r in lefts:
            for m in monos[: upto[r]]:
                rows.add(tuple(coords(PElem(pa, {m: 1}) * el, "relation multiple")))
    span = Subspace(ctx, nm, rows)

    for rel in pres.relations:
        if not span.contains(coords(rel.d(), "d of a relation")):
            raise RelationsNotDClosed(f"d of relation {rel!r} is not in the relation span")

    pivots = set(span.pivots)
    basis = [m for m in monos if rev[m] not in pivots]
    if not basis or basis[0] != pa.one_mono():
        raise NotApplicable("relations collapse the unit monomial; no bounded quotient")

    def coset_coords(el: PElem, who: str) -> list[Fe]:
        v = span.reduce(coords(el, who))
        return [v[rev[m]] for m in basis]

    tensor = []
    for mi in basis:
        ei = PElem(pa, {mi: 1})
        row = []
        for mj in basis:
            prod = ei * PElem(pa, {mj: 1})
            row.append(coset_coords(prod, f"product {mono_label(mi)} * {mono_label(mj)}"))
        tensor.append(row)
    dcols = [coset_coords(PElem(pa, {m: 1}).d(), "d image") for m in basis]
    alg = DAlgebra(ctx, tensor, Matrix.from_cols(ctx, dcols), 0)
    failures = alg.verify().failures
    if failures:
        f = failures[0]
        raise NotClosedAtBound(
            f"the quotient at bound {bound} fails {f.axiom} at"
            f" ({','.join(map(str, f.witness))}); raise the bound"
        )
    alg.basis_labels = basis
    alg.presentation = pres
    return alg


def present(a: DAlgebra, gens: Sequence[Sequence[Fe]], bound: int) -> Presentation:
    """Recover a presentation of a from the given generators.

    Generators with nonzero d become x's (their d images the xi's), the
    rest y's.  Raises :class:`NotGenerating` when the generators fail to
    generate a as an algebra.  The relations returned are a basis of the
    linear relations among evaluated normal monomials of degree at most
    bound, so quotienting the free algebra at the same bound recovers a
    when the bound is large enough to see all products.
    """
    ctx = a.ctx
    xs = [list(g) for g in gens if any(a.d(g))]
    ys = [list(g) for g in gens if not any(a.d(g))]
    pa = PAlgebra(ctx, len(xs), len(ys))

    span = a.closure([a.unit_vec(), *gens], gens)
    if span.dim < a.n:
        raise NotGenerating(f"generators span a proper subalgebra of dimension {span.dim}")

    monos = enumerate_monomials(pa, bound)

    # a monomial's value is the product of its letters in y, xi, x order, left
    # to right; monos is degree-sorted, so its prefix is already evaluated
    letters = ys + [a.d(g) for g in xs] + xs
    vals = {(): a.unit_vec()}
    cols = []
    for y, xi, x in monos:
        w = _letters(y) + tuple(pa.s + i for i in range(pa.r) if xi >> i & 1)
        w += tuple(pa.s + pa.r + i for i in _letters(x))
        if w:
            vals[w] = a.mul(vals[w[:-1]], letters[w[-1]])
        cols.append(vals[w])
    mat_rows = [[cols[j][i] for j in range(len(monos))] for i in range(a.n)]
    kernel = nullspace_rows(ctx, mat_rows, len(monos))
    rels = [PElem(pa, {m: c for m, c in zip(monos, coeffs) if c}) for coeffs in kernel]
    return Presentation(pa, rels, bound)
