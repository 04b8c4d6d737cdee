"""Parser for the presentation source language.

A presentation is written

    P(r,s) / [rel, rel, ...] @ deg N

where each relation is a sum of terms, a term is a product of factors
written with ``*`` or plain juxtaposition, and a factor is a generator
``x<i>``, ``xi<i>``, ``y<j>``, or a hex coefficient (``0x`` prefix
optional), optionally raised with ``^``.  Generator indices, the ranks
r and s, the bound, and exponents are decimal; coefficients are hex.
Examples:

    P(2,0) / [x1^2, x2^2, x1*x2, xi1*x1, xi2*x2, xi1*x2 + xi2*x1] @ deg 4
    P(0,1) / [y1^2] @ deg 2

Whitespace and newlines are free.  Syntax errors carry the line and
column of the offending character; generator indices outside 1..r or
1..s raise IndexOutOfRange.  ``to_source`` renders a presentation back
to this language so printing and parsing invert each other.
"""

from __future__ import annotations

import re

from .errors import DslSyntaxError, IndexOutOfRange, NotApplicable
from .gf2k import FieldCtx
from .polyd import PAlgebra, PElem, Presentation

__all__ = ["parse_presentation", "to_source"]

_TOKEN_RE = re.compile(r"[0-9A-Za-z]+|[()\[\],/@^*+]")
_GEN_RE = re.compile(r"(xi|x|y)([0-9]+)\Z")
_HEX_RE = re.compile(r"(0[xX][0-9a-fA-F]+|[0-9a-fA-F]+)\Z")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _linecol(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return line, col


def _lex(text: str) -> list[_Token]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            line, col = _linecol(text, i)
            raise DslSyntaxError(
                f"unexpected character {ch!r}", pos=i, line=line, col=col
            )
        word = m.group()
        if len(word) == 1 and not word.isalnum():
            toks.append(_Token(word, word, i))
        elif word == "P":
            toks.append(_Token("P", word, i))
        elif word == "deg":
            toks.append(_Token("deg", word, i))
        else:
            gm = _GEN_RE.match(word)
            if gm:
                toks.append(_Token("gen", word, i))
            elif _HEX_RE.match(word):
                toks.append(_Token("num", word, i))
            else:
                line, col = _linecol(text, i)
                raise DslSyntaxError(
                    f"unexpected token {word!r}", pos=i, line=line, col=col
                )
        i = m.end()
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, ctx: FieldCtx):
        self.text = text
        self.ctx = ctx
        self.toks = _lex(text)
        self.i = 0

    def _err(self, msg: str, tok: _Token):
        line, col = _linecol(self.text, tok.pos)
        raise DslSyntaxError(msg, pos=tok.pos, line=line, col=col)

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self, kind: str, what: str | None = None) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != kind:
            shown = tok.text if tok.kind != "end" else "end of input"
            self._err(f"expected {what or kind!r}, found {shown!r}", tok)
        self.i += 1
        return tok

    def decimal(self, what: str) -> int:
        tok = self.take("num", what)
        if not tok.text.isdigit():
            self._err(f"{what} must be a decimal integer", tok)
        return int(tok.text)

    def coefficient(self, pa: PAlgebra, tok: _Token) -> PElem:
        try:
            c = self.ctx.from_hex(tok.text)
        except NotApplicable:
            self._err(
                f"coefficient {tok.text!r} outside GF(2^{self.ctx.k})", tok
            )
        return pa.const(c)

    def generator(self, pa: PAlgebra, tok: _Token) -> PElem:
        kind, idx = _GEN_RE.match(tok.text).groups()
        i = int(idx)
        try:
            if kind == "x":
                return pa.x(i)
            if kind == "xi":
                return pa.xi(i)
            return pa.y(i)
        except IndexOutOfRange as e:
            line, col = _linecol(self.text, tok.pos)
            raise IndexOutOfRange(f"{e} (line {line}, column {col})") from None

    def factor(self, pa: PAlgebra) -> PElem:
        tok = self.peek()
        if tok.kind == "gen":
            self.i += 1
            base = self.generator(pa, tok)
        elif tok.kind == "num":
            self.i += 1
            base = self.coefficient(pa, tok)
        else:
            shown = tok.text if tok.kind != "end" else "end of input"
            self._err(f"expected a generator or coefficient, found {shown!r}", tok)
        if self.peek().kind == "^":
            self.i += 1
            e = self.decimal("exponent")
            base = base.pow(e)
        return base

    def term(self, pa: PAlgebra) -> PElem:
        out = self.factor(pa)
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.i += 1
                out = out * self.factor(pa)
            elif tok.kind in ("gen", "num"):
                out = out * self.factor(pa)
            else:
                return out

    def relation(self, pa: PAlgebra) -> PElem:
        out = self.term(pa)
        while self.peek().kind == "+":
            self.i += 1
            out = out + self.term(pa)
        return out

    def presentation(self) -> Presentation:
        self.take("P", "'P'")
        self.take("(", "'('")
        r = self.decimal("rank r")
        self.take(",", "','")
        s = self.decimal("rank s")
        self.take(")", "')'")
        pa = PAlgebra(self.ctx, r, s)
        self.take("/", "'/'")
        self.take("[", "'['")
        relations = []
        if self.peek().kind != "]":
            relations.append(self.relation(pa))
            while self.peek().kind == ",":
                self.i += 1
                relations.append(self.relation(pa))
        self.take("]", "']' or ','")
        self.take("@", "'@'")
        self.take("deg", "'deg'")
        bound = self.decimal("degree bound")
        tok = self.peek()
        if tok.kind != "end":
            self._err(f"unexpected trailing input {tok.text!r}", tok)
        return Presentation(pa, relations, bound)


def parse_presentation(text: str, ctx: FieldCtx) -> Presentation:
    """Parse presentation source over GF(2^k) given by ``ctx``."""
    return _Parser(text, ctx).presentation()


def to_source(pres: Presentation) -> str:
    """Render a presentation in the source language.

    Elements print through their repr, which writes monomials as
    juxtaposed generators with hex coefficients, so the output parses
    back to an equal presentation.
    """
    rels = ", ".join(repr(rel) for rel in pres.relations)
    return f"P({pres.pa.r},{pres.pa.s}) / [{rels}] @ deg {pres.bound}"
