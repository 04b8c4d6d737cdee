"""Two-sided d-closed ideals of a finite-dimensional d-algebra.

An ideal here is a subspace closed under d and under multiplication by the
whole algebra.  Because Im(d) is central and products differ from their
swaps by elements of Im(d)*Im(d), a subspace closed on the left and under
d is automatically closed on the right; :func:`close` recomputes the right
closure anyway and treats a failure as evidence of a broken input algebra.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import AssocAlgebra2
from .errors import AmbientMismatch, NotApplicable, TheoremViolation
from .gf2k import Fe
from .linalg import Subspace, span_closure

__all__ = [
    "DIdeal",
    "close",
    "ideal_sum",
    "ideal_intersect",
    "ideal_product",
    "ideal_power",
    "is_coprime",
    "nilpotency_index",
]


class DIdeal:
    """A d-closed two-sided ideal, stored as a canonical subspace."""

    __slots__ = ("ambient", "space")

    def __init__(self, ambient: AssocAlgebra2, space: Subspace):
        if space.ambient != ambient.n or space.ctx is not ambient.ctx:
            raise AmbientMismatch("subspace does not live in the algebra")
        self.ambient = ambient
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def is_whole(self) -> bool:
        return self.space.dim == self.ambient.n

    def contains(self, v: Sequence[Fe]) -> bool:
        return self.space.contains(v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DIdeal):
            return NotImplemented
        return self.ambient is other.ambient and self.space == other.space

    def __hash__(self):
        return hash((id(self.ambient), tuple(tuple(r) for r in self.space.rows)))

    def __repr__(self) -> str:
        return f"DIdeal(dim={self.dim} of {self.ambient.n})"


def _same_ambient(i: DIdeal, j: DIdeal) -> AssocAlgebra2:
    if i.ambient is not j.ambient:
        raise AmbientMismatch("ideals belong to different algebras")
    return i.ambient


def close(a: AssocAlgebra2, gens: Sequence[Sequence[Fe]]) -> DIdeal:
    """Smallest d-closed two-sided ideal containing the generators.

    Grows the span by d-images and left multiples until it stabilizes,
    then checks right multiples landed inside; by centrality of Im(d) the
    right check cannot fail for a genuine d-algebra, so a failure raises
    :class:`TheoremViolation` rather than growing further.
    """

    def grow(rows):
        new = []
        for r in rows:
            new.append(a.d(r))
            new += [a.mul(a.basis_vec(i), r) for i in range(a.n)]
        return new

    span = span_closure(a.ctx, a.n, gens, grow)
    for r in span.rows:
        for i in range(a.n):
            if not span.contains(a.mul(r, a.basis_vec(i))):
                raise TheoremViolation(
                    "left-and-d-closed span is not right closed; "
                    "the ambient algebra violates twisted commutativity"
                )
    return DIdeal(a, span)


def ideal_sum(i: DIdeal, j: DIdeal) -> DIdeal:
    a = _same_ambient(i, j)
    return DIdeal(a, Subspace(a.ctx, a.n, list(i.space.rows) + list(j.space.rows)))


def ideal_intersect(i: DIdeal, j: DIdeal) -> DIdeal:
    from .linalg import subspace_intersect

    a = _same_ambient(i, j)
    return DIdeal(a, subspace_intersect(i.space, j.space))


def ideal_product(i: DIdeal, j: DIdeal) -> DIdeal:
    """Span of pairwise products of basis vectors; an ideal again."""
    a = _same_ambient(i, j)
    prods = [a.mul(u, v) for u in i.space.rows for v in j.space.rows]
    return close(a, prods)


def ideal_power(i: DIdeal, m: int) -> DIdeal:
    if m < 1:
        raise NotApplicable("ideal powers start at 1")
    out = i
    for _ in range(m - 1):
        out = ideal_product(i, out)
    return out


def is_coprime(i: DIdeal, j: DIdeal) -> bool:
    return ideal_sum(i, j).is_whole()


def nilpotency_index(i: DIdeal) -> int | None:
    """Least m with I^m = 0, or None when the powers stabilize nonzero.

    Power dimensions are weakly decreasing; equal consecutive dimensions
    mean the chain is stuck (I^(m+1) is inside I^m), so the walk always
    terminates within dim-of-I steps.
    """
    if i.is_zero():
        return 1
    cur = i
    m = 1
    while m <= i.dim + 1:
        nxt = ideal_product(i, cur)
        if nxt.is_zero():
            return m + 1
        if nxt.dim == cur.dim:
            return None
        cur = nxt
        m += 1
    return None
