"""Univariate polynomials over GF(2^k).

Coefficients are stored little-endian (``coeffs[i]`` multiplies t^i) with
no trailing zeros, so the zero polynomial is the empty tuple and the
leading coefficient of anything else is nonzero.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotApplicable
from .gf2k import Fe, FieldCtx


class UniPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable[Fe]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, (1,))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, (0, 1))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(format(c, "#x"))
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == 1 else f"{format(c, '#x')}*{t}")
        return " + ".join(terms)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return UniPoly(self.ctx, out)

    __sub__ = __add__

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero(self.ctx)
        mul = self.ctx.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= mul(a, b)
        return UniPoly(self.ctx, out)

    def scale(self, c: Fe) -> "UniPoly":
        mul = self.ctx.mul
        return UniPoly(self.ctx, [mul(c, a) for a in self.coeffs])

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return self if lead == 1 else self.scale(self.ctx.inv(lead))

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(ctx), self
        quo = [0] * (dq + 1)
        inv_lead = ctx.inv(other.coeffs[-1])
        mul = ctx.mul
        for shift in range(dq, -1, -1):
            c = rem[shift + other.degree]
            if not c:
                continue
            f = mul(c, inv_lead)
            quo[shift] = f
            for i, b in enumerate(other.coeffs):
                if b:
                    rem[shift + i] ^= mul(f, b)
        return UniPoly(ctx, quo), UniPoly(ctx, rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __call__(self, t: Fe) -> Fe:
        acc = 0
        mul = self.ctx.mul
        for c in reversed(self.coeffs):
            acc = mul(acc, t) ^ c
        return acc

    def deriv(self) -> "UniPoly":
        # formal derivative; in characteristic 2 only odd-degree terms survive
        return UniPoly(
            self.ctx,
            [self.coeffs[i] if i & 1 else 0 for i in range(1, len(self.coeffs))],
        )


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_roots(p: UniPoly) -> tuple[Fe, ...]:
    """Distinct roots in the coefficient field, by exhaustive scan."""
    if p.is_zero():
        raise NotApplicable("zero polynomial has every element as a root")
    return tuple(t for t in range(p.ctx.order) if p(t) == 0)


def _poly_even_sqrt(p: UniPoly) -> UniPoly:
    # precondition: p' = 0, so only even-degree terms occur and p = q^2
    sqrt = p.ctx.sqrt
    return UniPoly(p.ctx, [sqrt(c) for c in p.coeffs[::2]])


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of p (p nonzero)."""
    if p.is_zero():
        raise NotApplicable("squarefree part of the zero polynomial")
    p = p.monic()
    if p.degree <= 0:
        return UniPoly.one(p.ctx)
    d = p.deriv()
    if d.is_zero():
        return squarefree_part(_poly_even_sqrt(p))
    g = poly_gcd(p, d)
    if g.degree == 0:
        return p
    w = p // g
    r = squarefree_part(g)
    return ((w * r) // poly_gcd(w, r)).monic()
