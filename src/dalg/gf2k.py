"""Arithmetic in the binary fields GF(2^k) for 1 <= k <= 16.

Field elements are plain Python ints holding the k-bit coefficient vector
of a polynomial in the generator x, so 0b101 in GF(8) means x^2 + 1.
All operations go through a :class:`FieldCtx`, which fixes the modulus and
owns the log/exp tables.  One modulus is shipped per degree:

    k= 1: x + 1                     k= 9: x^9 + x^4 + 1
    k= 2: x^2 + x + 1               k=10: x^10 + x^3 + 1
    k= 3: x^3 + x + 1               k=11: x^11 + x^2 + 1
    k= 4: x^4 + x + 1               k=12: x^12 + x^6 + x^4 + x + 1
    k= 5: x^5 + x^2 + 1             k=13: x^13 + x^4 + x^3 + x + 1
    k= 6: x^6 + x + 1               k=14: x^14 + x^10 + x^6 + x + 1
    k= 7: x^7 + x^3 + 1             k=15: x^15 + x + 1
    k= 8: x^8 + x^4 + x^3 + x^2 + 1 k=16: x^16 + x^12 + x^3 + x + 1

Every entry is primitive (the class of x generates the multiplicative
group), which is what makes the discrete-log tables work; primitivity is
asserted by the test suite.

Nothing here scans the field.  Both root searches, for the roots of a
quadratic (:func:`quad_roots`) and for the image of the generator under
:func:`field_extend`, go through :func:`dalg.unipoly.poly_roots`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

from .errors import DegreeLimit, NeedsExtension, NotApplicable

MAX_K = 16

_MODULUS: dict[int, int] = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}

# A field element is just an int; the alias marks intent in signatures.
Fe = int


class FieldCtx:
    """Fixed field GF(2^k) with table-driven arithmetic.

    Instances are immutable and interned: ``field(k)`` always returns the
    same object, so identity comparison is a valid same-field check.

    Attributes
    ----------
    k : int
        Extension degree over GF(2).
    modulus : int
        Bit pattern of the irreducible modulus (degree k).
    order : int
        Number of field elements, 2^k.
    """

    __slots__ = ("k", "modulus", "order", "_exp", "_log")

    def __init__(self, k: int):
        if not 1 <= k <= MAX_K:
            raise DegreeLimit(f"field degree {k} outside supported range 1..{MAX_K}")
        self.k = k
        self.modulus = _MODULUS[k]
        self.order = 1 << k
        # exp holds two periods of x^i so products skip the modular reduction
        # of log sums; log[0] stays unused.
        n = self.order - 1
        exp = [0] * n
        log = [0] * self.order
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v <<= 1
            if v & self.order:
                v ^= self.modulus
        self._exp = exp * 2
        self._log = log

    def __repr__(self) -> str:
        return f"FieldCtx(k={self.k})"

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Fe, b: Fe) -> Fe:
        return a ^ b

    sub = add  # characteristic 2

    def mul(self, a: Fe, b: Fe) -> Fe:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def addmul(self, out: list, c: Fe, terms) -> None:
        """out[p] ^= c r for every (p, r) in terms.

        The one inner loop of every structure-constant contraction.
        Preconditions: c is nonzero and every r is nonzero; a zero would
        read the unused ``log[0]`` and add a wrong product.
        """
        exp, log = self._exp, self._log
        lc = log[c]
        for p, r in terms:
            out[p] ^= exp[lc + log[r]]

    def inv(self, a: Fe) -> Fe:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^%d)" % self.k)
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def div(self, a: Fe, b: Fe) -> Fe:
        return self.mul(a, self.inv(b))

    def pow(self, a: Fe, e: int) -> Fe:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] * e) % n]

    def sq(self, a: Fe) -> Fe:
        if a == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] * 2) % n]

    def sqrt(self, a: Fe) -> Fe:
        """The unique square root; squaring is a bijection in char 2."""
        if a == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] << (self.k - 1)) % n]

    # -- enumeration / io ---------------------------------------------------

    def elements(self) -> Iterator[Fe]:
        return iter(range(self.order))

    def rand(self, rng) -> Fe:
        return rng.randrange(self.order)

    def rand_nonzero(self, rng) -> Fe:
        return rng.randrange(1, self.order)

    def check(self, a: Fe) -> Fe:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise NotApplicable(f"{a!r} is not an element of GF(2^{self.k})")
        return a

    def to_hex(self, a: Fe) -> str:
        return format(a, "#x")

    def from_hex(self, s: str) -> Fe:
        v = int(s, 16)
        if not 0 <= v < self.order:
            raise NotApplicable(f"{s} out of range for GF(2^{self.k})")
        return v


@lru_cache(maxsize=None)
def field(k: int) -> FieldCtx:
    """Interned context for GF(2^k)."""
    return FieldCtx(k)


def quad_roots(ctx: FieldCtx, a: Fe, b: Fe, c: Fe) -> tuple[Fe, ...]:
    """Roots in GF(2^k) of a t^2 + b t + c, with a and b not both zero.

    Returns the sorted tuple of distinct roots, found by
    :func:`dalg.unipoly.poly_roots`.  A linear polynomial (a = 0) and a
    square (b = 0, one double root) always have one.  A genuine quadratic
    has two roots or none, and none exactly when Tr(ac/b^2) = 1 (Lidl &
    Niederreiter, Finite Fields, 3.4); :class:`NeedsExtension` is raised
    then.
    """
    from .unipoly import UniPoly, poly_roots

    if a == 0 and b == 0:
        raise NotApplicable("quad_roots requires a or b nonzero")
    roots = poly_roots(UniPoly(ctx, (c, b, a)))
    if not roots:
        raise NeedsExtension(
            f"{ctx.to_hex(a)} t^2 + {ctx.to_hex(b)} t + {ctx.to_hex(c)} has no "
            f"root in GF(2^{ctx.k}): Tr(ac/b^2) = 1",
            suggested_k=2 * ctx.k,
        )
    return roots


@lru_cache(maxsize=None)
def _extension_root(k: int) -> int:
    """Smallest root of the GF(2^k) modulus inside GF(2^(2k)).

    The modulus is irreducible of degree k, so it splits into k distinct
    roots in GF(2^(2k)), which contains GF(2^k); :func:`dalg.unipoly.poly_roots`
    finds them.  Its coefficients are bits, the same ints in either field.
    """
    from .unipoly import UniPoly, poly_roots

    m = _MODULUS[k]
    return poly_roots(UniPoly(field(2 * k), [(m >> i) & 1 for i in range(k + 1)]))[0]


def field_extend(ctx: FieldCtx) -> tuple[FieldCtx, Callable[[Fe], Fe]]:
    """Double the field degree and return (new ctx, embedding).

    The embedding sends the generator of GF(2^k) to the smallest root of
    its modulus in GF(2^(2k)), as :func:`dalg.unipoly.poly_roots` finds it
    (once per k); it is a field homomorphism, injective, and
    deterministic.  Raises :class:`DegreeLimit` past k = 8.
    """
    if 2 * ctx.k > MAX_K:
        raise DegreeLimit(f"cannot extend GF(2^{ctx.k}) within degree {MAX_K}")
    big = field(2 * ctx.k)
    root = _extension_root(ctx.k)
    powers = [1] * ctx.k
    for i in range(1, ctx.k):
        powers[i] = big.mul(powers[i - 1], root)

    def embed(a: Fe) -> Fe:
        acc = 0
        i = 0
        while a:
            if a & 1:
                acc ^= powers[i]
            a >>= 1
            i += 1
        return acc

    return big, embed
