import random

import pytest
from hypothesis import given, settings, strategies as st

from dalg import (
    AssocAlgebra2,
    AxiomsFailed,
    DAlgebra,
    DalgError,
    FormatError,
    LieAlgebra2,
    Matrix,
    Subspace,
    abelian_lie,
    change_basis,
    commutator_lie,
    direct_product,
    dumps,
    field,
    gl_object,
    loads,
    verify_lie,
)
from dalg.dim7 import make_D
from helpers import rand_vec, tiny_d_algebra, truncated_poly_algebra


def same_algebra(a, b):
    return (
        a.ctx is b.ctx
        and a.n == b.n
        and a.tensor == b.tensor
        and a.dmat.rows == b.dmat.rows
        and getattr(a, "unit_idx", None) == getattr(b, "unit_idx", None)
    )


def test_round_trip_d_algebra():
    a = make_D(field(3), 1, 2, 3)
    b = loads(dumps(a))
    assert isinstance(b, DAlgebra)
    assert same_algebra(a, b)
    assert dumps(b) == dumps(a)


def test_round_trip_lie():
    g = gl_object(2, Matrix(field(1), [[0, 1], [0, 0]]))
    L = commutator_lie(g)
    M = loads(dumps(L))
    assert isinstance(M, LieAlgebra2)
    assert same_algebra(L, M)


def test_round_trip_assoc2_kind():
    a = truncated_poly_algebra(field(2), 3)
    text = dumps(a).replace("kind: dalgebra", "kind: assoc2")
    b = loads(text)
    assert isinstance(b, AssocAlgebra2) and not isinstance(b, DAlgebra)
    assert dumps(b) == text


def test_comments_blanks_and_order_are_free():
    a = tiny_d_algebra(field(2))
    lines = dumps(a).splitlines()
    random.Random(5).shuffle(lines)
    text = "# header comment\n\n" + "\n".join(f"{l}  # note" for l in lines)
    assert same_algebra(a, loads(text))


def random_valid_algebra(rng):
    k = rng.choice([1, 2, 3, 4, 8])
    ctx = field(k)
    base = rng.choice(
        [
            make_D(ctx, ctx.rand(rng), ctx.rand(rng), ctx.rand(rng)),
            truncated_poly_algebra(ctx, rng.randrange(1, 5)),
            tiny_d_algebra(ctx),
            direct_product(tiny_d_algebra(ctx), truncated_poly_algebra(ctx, 2))[0],
        ]
    )
    # random change of basis keeping the unit on a standard vector
    n = base.n
    while True:
        rows = [base.unit_vec()] + [rand_vec(base, rng) for _ in range(n - 1)]
        if Subspace(ctx, n, rows).dim == n:
            break
    moved, _ = change_basis(base, rows)
    return moved


def test_print_then_parse_is_identity_on_random_algebras():
    rng = random.Random(20240817)
    for _ in range(100):
        a = random_valid_algebra(rng)
        text = dumps(a)
        b = loads(text)
        assert same_algebra(a, b)
        assert dumps(b) == text


@pytest.mark.parametrize(
    "mangle,needle",
    [
        (lambda t: t.replace("kind: dalgebra", "kind: sheaf"), "unknown kind"),
        (lambda t: t.replace("field: 1\n", ""), "missing 'field'"),
        (lambda t: t.replace("n: 3\n", ""), "missing 'n'"),
        (lambda t: t.replace("unit: 0\n", ""), "missing 'unit'"),
        (lambda t: t.replace("unit: 0", "unit: 9"), "unit index out of range"),
        (lambda t: t.replace("n: 3", "n: x"), "must be an integer"),
        (lambda t: t.replace("t 0 0: 1 0 0", "t 0 0: 1 0"), "expected 3 scalars"),
        (lambda t: t.replace("t 0 0: 1 0 0", "t 0 0: 1 0 zz"), "bad hex scalar"),
        (lambda t: t.replace("t 0 0: 1 0 0", "t 0 0: 1 0 7"), "outside GF(2^1)"),
        (lambda t: t.replace("t 2 2:", "t 2 9:"), "index out of range"),
        (lambda t: t + "t 0 0: 0 0 0\n", "duplicate entry t 0 0"),
        (lambda t: t + "d 1: 0 0 0\n", "duplicate entry d 1"),
        (lambda t: t.replace("t 1 2: 0 0 0\n", ""), "missing tensor entry t 1 2"),
        (lambda t: t.replace("d 2: 0 1 0\n", ""), "missing differential entry d 2"),
        (lambda t: t + "volume: 9\n", "unknown key"),
        (lambda t: t.replace("t 0 0", "t 0 0 0"), "unknown key"),
        (lambda t: "just words\n" + t, "expected 'key: value'"),
        (lambda t: t + ": 0 1 0\n", "unknown key ''"),
        # the n x n grid would take gigabytes: the first gap is found before it
        (lambda t: "kind: dalgebra\nfield: 1\nn: 100000000\nunit: 0\n", "missing tensor entry t 0 0"),
    ],
)
def test_malformed_inputs(mangle, needle):
    text = dumps(tiny_d_algebra(field(1)))
    with pytest.raises(FormatError) as exc:
        loads(mangle(text))
    assert needle in str(exc.value)


def test_lie_file_rejects_unit_line():
    text = dumps(abelian_lie(field(1), 2))
    with pytest.raises(FormatError, match="no unit"):
        loads("unit: 0\n" + text)


def test_axiom_violating_file_carries_report():
    text = dumps(make_D(field(1), 0, 0, 0))
    bad = text.replace("t 1 1: 0 0 0 0 0 0 0", "t 1 1: 0 0 0 1 0 0 0")
    with pytest.raises(AxiomsFailed) as exc:
        loads(bad)
    report = exc.value.report
    assert not report.passed
    assert {f.axiom for f in report.failures} >= {"associativity", "leibniz"}


def test_lie_axiom_violation_detected_on_load():
    # a bracket with [e0, e0] = e1 on a d = 0 algebra breaks the alternating law
    good = dumps(abelian_lie(field(1), 2))
    bad = good.replace("t 0 0: 0 0", "t 0 0: 0 1")
    with pytest.raises(AxiomsFailed) as exc:
        loads(bad)
    assert any(f.axiom == "alternating_on_kernel" for f in exc.value.report.failures)


def test_dumps_rejects_foreign_objects():
    with pytest.raises(FormatError):
        dumps(object())


def seed_texts(k):
    """Valid files of every kind over GF(2^k), the seeds the fuzzer edits."""
    ctx = field(k)
    tiny = dumps(tiny_d_algebra(ctx))
    return [
        tiny,
        dumps(truncated_poly_algebra(ctx, 2)),
        tiny.replace("kind: dalgebra", "kind: assoc2"),
        dumps(abelian_lie(ctx, 2, dmat=[[0, 1], [0, 0]])),
    ]


TOKENS = ["t", "d", "kind", "field", "n", "unit", ":", "#", "dalgebra", "assoc2", "lie2"]
TOKENS += ["-1", "0", "1", "2", "3", "7", "17", "ff", "1_0", "0x1", ""]


@st.composite
def edited_texts(draw):
    """A valid file with up to four edits: a line dropped, repeated or
    swapped with another, one scalar or token replaced, or a key-value line
    of tokens inserted."""
    lines = draw(st.sampled_from(seed_texts(draw(st.sampled_from([1, 2, 4]))))).splitlines()
    token = st.one_of(st.sampled_from(TOKENS), st.text("0123456789abcdef :#", max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "repeat", "swap", "scalar", "scalar", "scalar", "token", "insert"]))
        i = draw(st.integers(0, len(lines)))
        if op == "insert":
            key, body = (" ".join(draw(st.lists(token, max_size=n))) for n in (3, 4))
            lines.insert(i, f"{key}: {body}")
            continue
        if not lines:
            continue
        i %= len(lines)
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split(" ")
            if op == "scalar":
                # after the key, so the file mostly stays well formed
                first = next((w + 1 for w, word in enumerate(words) if word.endswith(":")), 0)
                words[draw(st.integers(min(first, len(words) - 1), len(words) - 1))] = format(
                    draw(st.integers(0, 3)), "x"
                )
            else:
                words[draw(st.integers(0, len(words) - 1))] = draw(token)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edited_texts())
def test_loads_verifies_or_refuses(text):
    # a verified object or a package error; no other way to end
    try:
        obj = loads(text)
    except DalgError:
        return
    report = verify_lie(obj) if isinstance(obj, LieAlgebra2) else obj.verify()
    assert report.passed, text
