"""Products in closed form, and the reports subalgebras and products pass on.

``direct_product_many`` places the factors' constants on its basis without
a solve; ``blockwise_product`` in the helpers is the blockwise tensor and
coordinate solve it replaced, and both must give the same algebra and
projections.  A report passed on by ``subalgebra`` or ``direct_product_many``
must be one a full scan of the same constants would give.
"""

from __future__ import annotations

import random

import pytest

from dalg import (
    AssocAlgebra2,
    DAlgebra,
    Matrix,
    algebra,
    characters,
    decompose,
    direct_product_many,
    dumps,
    field,
    loads,
    make_D,
    subalgebra,
)
from dalg.algebra import AxiomReport

from helpers import (
    blockwise_product,
    dense_rebase,
    rebuilt,
    square_corrupted,
    tiny_d_algebra,
    truncated_poly_algebra,
    unit_moved,
)


def product_corpus():
    rng = random.Random(0xB10C)
    for k in (1, 8, 16):
        ctx = field(k)
        t2, t3, tiny = truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3), tiny_d_algebra(ctx)
        dense = [dense_rebase(tiny, rng), dense_rebase(t3, rng)]
        moved = [unit_moved(t3, 2), unit_moved(tiny, 1), unit_moved(dense[0], 2)]
        yield [t2, tiny]
        yield [tiny, t3, t2]
        yield dense
        yield [dense[1], t2, dense[0]]
        yield moved[:2]
        yield [moved[0], tiny, moved[2]]
        yield [t2, moved[1], moved[0]]
        yield [dense_rebase(direct_product_many([tiny, t2])[0], rng), moved[2]]


def test_product_matches_the_blockwise_oracle():
    cases = moved = 0
    for algs in product_corpus():
        prod, projs = direct_product_many(algs)
        want, want_projs = blockwise_product(algs)
        assert type(prod) is type(want)
        assert prod.tensor == want.tensor
        assert prod.dmat == want.dmat
        assert prod.unit_idx == want.unit_idx == 0
        assert [m.mat for m in projs] == [m.mat for m in want_projs]
        assert all(m.source is prod and m.target is f for m, f in zip(projs, algs))
        cases += 1
        moved += any(f.unit_idx for f in algs)
    assert cases == 24 and moved == 12


def passing_inputs():
    """Products as ``loads`` returns them: verified, in sparse and dense bases."""
    rng = random.Random(0x9A55)
    for k in (1, 8):
        ctx = field(k)
        t2, t3, tiny = truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3), tiny_d_algebra(ctx)
        for factors in ([t2, tiny], [make_D(ctx, 1, 0, 1), t3], [tiny, t3, t2]):
            p = direct_product_many(factors)[0]
            yield loads(dumps(p))
            yield loads(dumps(dense_rebase(p, rng)))


def test_passed_on_reports_are_true():
    checked = 0
    for a in passing_inputs():
        assert a._report is not None and a._report.passed
        dec = decompose(a)
        for b in dec.factors + [dec.product]:
            assert b._report is a._report
            fresh = rebuilt(b)
            assert fresh._report is None and fresh.verify().passed
            checked += 1
    assert checked == 40


def test_no_report_is_passed_on_from_an_unproven_source():
    ctx = field(8)
    t2, t3 = truncated_poly_algebra(ctx, 2), truncated_poly_algebra(ctx, 3)
    assert t2.verify().passed
    everything = [t3.basis_vec(i) for i in range(3)]
    # never verified
    assert t3._report is None
    assert subalgebra(t3, everything)[0]._report is None
    assert direct_product_many([t2, t3])[0]._report is None
    assert direct_product_many([t3, t2])[0]._report is None
    # verified, and failing
    bad = square_corrupted(t3, 1, 0, 1)
    assert not bad.verify().passed
    assert subalgebra(bad, everything)[0]._report is None
    assert direct_product_many([t2, bad])[0]._report is None
    # passing, but of another kind than the product's
    assoc = AssocAlgebra2(ctx, t3.tensor, t3.dmat)
    assert assoc.verify().passed
    assert direct_product_many([t2, assoc])[0]._report is None
    # d of the proposed unit is not zero: only a report that is not true
    # allows that, since an idempotent unit of a d-closed span has d(e) = 0
    # by Leibniz; the guard still holds the report back
    for d_of_unit in (0, 1):
        forged = DAlgebra(ctx, tiny_d_algebra(ctx).tensor, Matrix(ctx, [[0, 0, 0], [d_of_unit, 0, 1], [0, 0, 0]]))
        forged._report = AxiomReport(forged.kind)
        sub, _ = subalgebra(forged, [forged.basis_vec(i) for i in range(3)])
        assert (sub._report is None) == bool(d_of_unit)
        assert rebuilt(forged).verify().passed == (not d_of_unit)


@pytest.fixture
def multiplicative_rows(monkeypatch):
    """Records len(rows) of every multiplicativity scan: under "character"
    the scans of maps onto the 1-dimensional F, under "other" the rest."""
    sizes = {"character": [], "other": []}
    scan = algebra._multiplicative_failures

    def spy(m, fterms, rows):
        sizes["character" if m.target.n == 1 else "other"].append(len(rows))
        return scan(m, fterms, rows)

    monkeypatch.setattr(algebra, "_multiplicative_failures", spy)
    return sizes


def test_decompose_checks_the_isomorphism_on_generators(multiplicative_rows):
    scans = multiplicative_rows["other"]
    for a in passing_inputs():
        scans.clear()
        decompose(a)
        assert scans == [len(a.generators())] and len(a.generators()) < a.n
        # with no report on the source, every row is scanned
        scans.clear()
        decompose(rebuilt(a))
        assert scans == [a.n]


def test_characters_check_each_character_on_generators(multiplicative_rows):
    scans = multiplicative_rows["character"]
    for a in passing_inputs():
        scans.clear()
        count = len(characters(a))
        assert scans == [len(a.generators())] * count and count > 1
        # with no report on the input, every row is scanned
        scans.clear()
        characters(rebuilt(a))
        assert scans == [a.n] * count
