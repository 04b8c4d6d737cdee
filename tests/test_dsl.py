import random

import pytest
from hypothesis import given, settings, strategies as st

from dalg import (
    DAlgebra,
    DalgError,
    DslSyntaxError,
    IndexOutOfRange,
    PAlgebra,
    PElem,
    Presentation,
    field,
    parse_presentation,
    quotient_to_dalgebra,
    to_source,
)
from dalg.dim7 import make_D

D_SOURCE = "P(2,0) / [x1^2, x2^2, x1*x2, xi1*x1, xi2*x2, xi1*x2 + xi2*x1] @ deg 4"


def test_canonical_seven_dim_presentation():
    pres = parse_presentation(D_SOURCE, field(1))
    assert (pres.pa.r, pres.pa.s, pres.bound) == (2, 0, 4)
    assert len(pres.relations) == 6
    a = quotient_to_dalgebra(pres)
    model = make_D(field(1), 0, 0, 0)
    assert a.n == 7
    assert a.tensor == model.tensor and a.dmat.rows == model.dmat.rows


def test_dual_numbers():
    a = quotient_to_dalgebra(parse_presentation("P(0,1) / [y1^2] @ deg 2", field(2)))
    assert a.n == 2
    assert a.dmat.is_zero()
    t = a.basis_vec(1)
    assert a.mul(t, t) == [0] * a.n


def test_juxtaposition_equals_star_and_whitespace_is_free():
    ctx = field(1)
    flat = parse_presentation("P(2,0)/[x1 x2 + xi1 xi2] @ deg 2", ctx)
    starred = parse_presentation("P( 2 , 0 )\n/ [\n  x1 * x2 + xi1 * xi2\n] @ deg 2", ctx)
    assert flat.relations[0].terms == starred.relations[0].terms


def test_hex_coefficients():
    ctx = field(3)
    pres = parse_presentation("P(1,0) / [3 x1 + 0x5 xi1] @ deg 1", ctx)
    (rel,) = pres.relations
    pa = pres.pa
    assert rel == pa.x(1).scale(3) + pa.xi(1).scale(5)


def test_coefficient_power_and_generator_power():
    ctx = field(2)
    pres = parse_presentation("P(1,0) / [2^2 x1, x1^3] @ deg 3", ctx)
    pa = pres.pa
    # 0b10 squared in GF(4) with t^2 = t + 1 is t + 1 = 0b11
    assert pres.relations[0] == pa.x(1).scale(3)
    assert pres.relations[1] == pa.x(1) * pa.x(1) * pa.x(1)
    # powers square, so exponents up to 10^9 cost a few dozen products
    for e in (10, 999_999_999, 10**9):
        src = f"P(1,1) / [2^{e} x1^{e} y1^{e}, xi1^{e} + 3^{e}, x1^{e} xi1] @ deg {2 * e + 1}"
        pres = parse_presentation(src, ctx)
        pa = pres.pa
        assert pres.relations[0].terms == {((e,), 0, (e,)): ctx.pow(2, e)}
        assert pres.relations[1] == pa.const(ctx.pow(3, e))
        assert pres.relations[2].terms == {((0,), 1, (e,)): 1}


def test_squared_xi_collapses_to_zero():
    pres = parse_presentation("P(1,0) / [xi1^2] @ deg 2", field(1))
    assert pres.relations[0].is_zero()


def test_empty_relation_list():
    pres = parse_presentation("P(1,1) / [] @ deg 2", field(1))
    assert pres.relations == [] and pres.bound == 2


@pytest.mark.parametrize(
    "src,line,col",
    [
        ("P(2/", 1, 4),
        ("P(2,0) / [x1^2 @ deg 4", 1, 16),
        ("P(2,0) / [x1 &] @ deg 2", 1, 14),
        ("P(2,0) /\n[x1 ^ q] @ deg 2", 2, 7),
        ("Q(2,0) / [] @ deg 2", 1, 1),
        ("P(2,0) / [] @ deg 2 extra", 1, 21),
        ("P(2,0) / [+ x1] @ deg 2", 1, 11),
        ("P(2,0) / [x1] @ deg", 1, 20),
    ],
)
def test_syntax_errors_carry_line_and_column(src, line, col):
    with pytest.raises(DslSyntaxError) as exc:
        parse_presentation(src, field(1))
    assert (exc.value.line, exc.value.col) == (line, col)
    assert f"line {line}, column {col}" in str(exc.value)


def test_decimal_contexts_reject_hex():
    with pytest.raises(DslSyntaxError, match="decimal"):
        parse_presentation("P(0x2,0) / [] @ deg 2", field(1))
    with pytest.raises(DslSyntaxError, match="decimal"):
        parse_presentation("P(2,0) / [x1^0xa] @ deg 20", field(1))


def test_generator_index_out_of_range():
    with pytest.raises(IndexOutOfRange, match=r"x3 out of range.*line 1, column 11"):
        parse_presentation("P(2,0) / [x3] @ deg 2", field(1))
    with pytest.raises(IndexOutOfRange, match="y1 out of range"):
        parse_presentation("P(1,0) / [y1] @ deg 2", field(1))


def test_line_and_column_are_computed_only_on_failure(monkeypatch):
    from dalg import dsl

    calls = []
    real = dsl._linecol

    def spy(text, pos):
        calls.append(pos)
        return real(text, pos)

    monkeypatch.setattr(dsl, "_linecol", spy)
    pres = parse_presentation("P(2,1) / [x1 x2 + xi1 y1,\n x1^2] @ deg 3", field(1))
    assert len(pres.relations) == 2 and calls == []
    with pytest.raises(IndexOutOfRange, match=r"^x3 out of range 1..2 \(line 2, column 3\)$"):
        parse_presentation("P(2,0) / [x1,\n  x3] @ deg 2", field(1))
    assert len(calls) == 1


def test_coefficient_outside_field():
    with pytest.raises(DslSyntaxError, match=r"outside GF\(2\^1\)"):
        parse_presentation("P(1,0) / [2 x1] @ deg 1", field(1))


def test_print_parse_round_trip_on_canonical_source():
    ctx = field(1)
    pres = parse_presentation(D_SOURCE, ctx)
    src = to_source(pres)
    again = parse_presentation(src, ctx)
    assert (again.pa.r, again.pa.s, again.bound) == (pres.pa.r, pres.pa.s, pres.bound)
    assert [r.terms for r in again.relations] == [r.terms for r in pres.relations]
    assert to_source(again) == src


def random_pelem(rng, pa, max_deg):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        y = tuple(rng.randrange(2) for _ in range(pa.s))
        xi = rng.randrange(1 << pa.r)
        x = tuple(rng.randrange(2) for _ in range(pa.r))
        c = rng.randrange(1, 1 << pa.ctx.k)
        terms[(y, xi, x)] = c
    return PElem(pa, terms)


def test_print_parse_round_trip_fuzz():
    rng = random.Random(777)
    for _ in range(40):
        ctx = field(rng.choice([1, 2, 4]))
        pa = PAlgebra(ctx, rng.randrange(3), rng.randrange(3))
        rels = [random_pelem(rng, pa, 3) for _ in range(rng.randrange(3))]
        bound = max([r.degree() for r in rels if r.terms], default=0) + rng.randrange(2)
        pres = Presentation(pa, rels, bound)
        src = to_source(pres)
        again = parse_presentation(src, ctx)
        assert [r.terms for r in again.relations] == [r.terms for r in pres.relations]
        assert to_source(again) == src


@st.composite
def small_sources(draw):
    """Source text for P(r,s) with r <= 2, s <= 1 at bound <= 4 over
    GF(2^k), k in {1, 2, 4}: up to 5 relations of up to 3 terms, each term
    a coefficient (0 included) times one or two generators, squared or not
    (a bare coefficient when r = s = 0)."""
    k = draw(st.sampled_from([1, 2, 4]))
    r, s, bound = draw(st.integers(0, 2)), draw(st.integers(0, 1)), draw(st.integers(0, 4))
    gens = [f"{g}{i}" for g in ("x", "xi") for i in range(1, r + 1)] + [f"y{j}" for j in range(1, s + 1)]
    rels = []
    for _ in range(draw(st.integers(0, 5))):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            parts = [format(draw(st.integers(0, (1 << k) - 1)), "#x")]
            for _ in range(draw(st.integers(1, 2)) if gens else 0):
                g, e = draw(st.sampled_from(gens)), draw(st.integers(1, 2))
                parts.append(g if e == 1 else f"{g}^{e}")
            terms.append(" ".join(parts))
        rels.append(" + ".join(terms))
    return f"P({r},{s}) / [{', '.join(rels)}] @ deg {bound}", k


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_sources())
def test_small_presentations_quotient_or_refuse(case):
    # a verified d-algebra or a package error; no other way to end
    src, k = case
    try:
        a = quotient_to_dalgebra(parse_presentation(src, field(k)))
    except DalgError:
        return
    assert isinstance(a, DAlgebra)
    assert a.verify().passed, src
