import io
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dalg import (
    AssocAlgebra2,
    LieAlgebra2,
    Matrix,
    TheoremViolation,
    abelian_lie,
    commutator_lie,
    direct_product,
    direct_product_many,
    dumps,
    field,
    gl_object,
)
from dalg import cli, dim7, lie
from dalg.algebra import AxiomReport
from dalg.formats import loads
from dalg.cli import main
from dalg.dim7 import make_D, normalize7
from helpers import (
    commutative_tensor,
    dense_assoc_corrupt_gf16,
    dense_rebase,
    gf4_over_gf2_algebra,
    tiny_d_algebra,
    truncated_poly_algebra,
)

D_SOURCE = "P(2,0) / [x1^2, x2^2, x1*x2, xi1*x1, xi2*x2, xi1*x2 + xi2*x1] @ deg 4"
RANK3_DEG5 = (
    "P(3,0) / [x1^2, x2^2, x3^2, x1 x2, x1 x3, x2 x3, xi1 x1, xi2 x2, xi3 x3,"
    " xi1 x2 + xi2 x1, xi1 x3 + xi3 x1, xi2 x3 + xi3 x2] @ deg 5"
)
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    return code, capsys.readouterr().out


def kv(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("  "):
            continue
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def jordan_lie_text():
    g = gl_object(2, Matrix(field(1), [[0, 1], [0, 0]]))
    return dumps(commutator_lie(g))


def test_check_passes_on_model_file(tmp_path, capsys):
    path = tmp_path / "d.alg"
    path.write_text(dumps(make_D(field(1), 0, 0, 0)))
    code, text = run(capsys, ["check", str(path)])
    assert code == 0
    got = kv(text)
    assert got["axioms"] == "pass" and got["lemmas"] == "pass" and got["exit"] == "0"


def test_check_dsl_from_stdin(capsys, monkeypatch):
    code, text = run(capsys, ["check", "-"], D_SOURCE, monkeypatch)
    assert code == 0
    assert kv(text)["n"] == "7"


def test_check_lie_file(capsys, monkeypatch):
    code, text = run(capsys, ["check"], jordan_lie_text(), monkeypatch)
    assert code == 0
    got = kv(text)
    assert got["kind"] == "lie2" and got["jacobi7"] == "pass"


def test_corrupt_file_exits_3(capsys, monkeypatch):
    bad = dumps(make_D(field(1), 0, 0, 0)).replace(
        "t 1 1: 0 0 0 0 0 0 0", "t 1 1: 0 0 0 1 0 0 0"
    )
    code, text = run(capsys, ["check", "-"], bad, monkeypatch)
    assert code == 3
    assert kv(text)["axioms"] == "fail"


def test_malformed_dsl_exits_2(capsys, monkeypatch):
    for argv, source, hint in (
        (["check", "-"], "P(2/", "line 1, column 4"),
        (["invariants", "-"], "P(1,0) / [] @ deg 2", "raise the bound"),
    ):
        code, text = run(capsys, argv, source, monkeypatch)
        assert code == 2
        got = kv(text)
        assert got["error"] == "input" and hint in got["message"]


@pytest.mark.parametrize("command", ["invariants", "decompose", "check", "present"])
def test_quotient_failing_its_axioms_exits_2_until_the_bound_is_raised(command, capsys, monkeypatch):
    source = "P(1,0) / [x1^2, xi1 x1 + xi1] @ deg {}"
    code, text = run(capsys, [command, "-"], source.format(2), monkeypatch)
    assert code == 2
    got = kv(text)
    assert got["error"] == "input" and got["exit"] == "2"
    assert got["message"] == "the quotient at bound 2 fails associativity at (1,2,2); raise the bound"
    code, text = run(capsys, [command, "-"], source.format(3), monkeypatch)
    assert code == 0 and kv(text)["exit"] == "0"


@pytest.mark.parametrize(
    "command, source, message",
    [
        ("decompose", jordan_lie_text, "decompose expects a d-algebra"),
        ("classify7", jordan_lie_text, "classify7 expects a d-algebra"),
        ("present", jordan_lie_text, "present expects a d-algebra"),
        ("pbw-verify", lambda: dumps(make_D(field(1), 0, 0, 0)), "pbw-verify expects a Lie algebra"),
        ("confluence", lambda: dumps(make_D(field(1), 0, 0, 0)), "confluence expects a Lie algebra"),
    ],
)
def test_wrong_kind_of_input_exits_2(command, source, message, capsys, monkeypatch):
    code, text = run(capsys, [command, "-"], source(), monkeypatch)
    assert code == 2
    got = kv(text)
    assert got["error"] == "input" and got["message"] == message and got["exit"] == "2"


def test_huge_n_header_exits_2(capsys, monkeypatch):
    header = "kind: dalgebra\nfield: 1\nn: 100000000\nunit: 0\n"
    code, text = run(capsys, ["check", "-"], header, monkeypatch)
    assert code == 2
    got = kv(text)
    assert got["error"] == "input" and got["message"] == "missing tensor entry t 0 0"


@pytest.mark.parametrize(
    "source, estimate",
    [("P(1,0) / [] @ deg 100000", "200001"), ("P(30,30) / [] @ deg 12", "896455251259204")],
)
def test_oversized_presentation_exits_2_at_once(source, estimate, capsys, monkeypatch):
    start = time.perf_counter()
    code, text = run(capsys, ["invariants", "-"], source, monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    got = kv(text)
    assert got["error"] == "input" and f" has {estimate} normal monomials " in got["message"]


def test_missing_file_exits_2(capsys):
    code, text = run(capsys, ["check", "/nonexistent/place.alg"])
    assert code == 2
    assert kv(text)["error"] == "input"


def test_invariants_on_model(capsys, monkeypatch):
    code, text = run(capsys, ["invariants", "-"], D_SOURCE, monkeypatch)
    assert code == 0
    got = kv(text)
    assert got["dim ker d"] == "4"
    assert got["dim im d"] == "3"
    assert got["dim center"] == "5"
    assert got["defect"] == "1"
    assert got["commutative"] == "no"
    assert got["local"] == "yes"


def test_invariants_needing_extension_exit_5(capsys, monkeypatch):
    code, text = run(capsys, ["invariants", "-"], dumps(gf4_over_gf2_algebra()), monkeypatch)
    assert code == 5
    got = kv(text)
    assert got["local"] == "undecided in this field"
    assert got["suggested field"] == "2"


def test_decompose_product(capsys, monkeypatch):
    ctx = field(2)
    p, _, _ = direct_product(make_D(ctx, 0, 0, 0), truncated_poly_algebra(ctx, 3))
    code, text = run(capsys, ["decompose", "-"], dumps(p), monkeypatch)
    assert code == 0
    got = kv(text)
    assert got["factors"] == "2"
    dims = {got["factor 0 dim"], got["factor 1 dim"]}
    defects = {got["factor 0 defect"], got["factor 1 defect"]}
    assert dims == {"7", "3"} and defects == {"1", "3"}


def test_classify7_matches_library(capsys, monkeypatch):
    ctx = field(2)
    a = make_D(ctx, 2, 3, 1)
    res = normalize7(a)
    code, text = run(capsys, ["classify7", "-"], dumps(a), monkeypatch)
    assert code == 0
    got = kv(text)
    hx = res.algebra.ctx.to_hex
    assert got["h"] == hx(res.h) and got["k"] == hx(res.k) and got["p"] == hx(res.p)
    assert got["q"] == hx(res.q)
    assert got["extended"] == ("yes" if res.extended else "no")
    assert got["isomorphism"] == "verified"


def test_classify7_extension_is_automatic_and_reported(capsys, monkeypatch):
    # over GF(2) the parameters (1, 1, 0) force the one allowed doubling
    ctx = field(1)
    a = make_D(ctx, 1, 1, 0)
    res = normalize7(a)
    code, text = run(capsys, ["classify7", "-"], dumps(a), monkeypatch)
    assert code == 0
    got = kv(text)
    assert got["extended"] == ("yes" if res.extended else "no")
    assert got["field"] == str(res.algebra.ctx.k)


def test_classify7_rejects_commutative_input(capsys, monkeypatch):
    code, text = run(capsys, ["classify7", "-"], dumps(truncated_poly_algebra(field(1), 3)), monkeypatch)
    assert code == 2
    assert kv(text)["error"] == "input"


def test_theorem_violation_exit_code(capsys, monkeypatch):
    def boom(a):
        raise TheoremViolation("forced for the exit-code contract")

    monkeypatch.setattr("dalg.cli.normalize7", boom)
    code, text = run(capsys, ["classify7", "-"], D_SOURCE, monkeypatch)
    assert code == 4
    assert kv(text)["error"] == "theorem-violation"


def test_present_round_trips_through_the_dsl(capsys, monkeypatch):
    from dalg import parse_presentation, quotient_to_dalgebra

    code, text = run(capsys, ["present", "-"], D_SOURCE, monkeypatch)
    assert code == 0
    got = kv(text)
    assert (got["rank r"], got["rank s"]) == ("2", "0")
    again = quotient_to_dalgebra(parse_presentation(got["source"], field(1)))
    assert again.n == 7 and again.verify().passed


def d_times_t2_text():
    ctx = field(1)
    p, _, _ = direct_product(make_D(ctx, 0, 0, 0), truncated_poly_algebra(ctx, 2))
    return dumps(p)


def d_t3_tiny_gf16_text():
    ctx = field(16)
    p, _ = direct_product_many(
        [make_D(ctx, 0x1D, 0x7, 0x3A5), truncated_poly_algebra(ctx, 3), tiny_d_algebra(ctx)]
    )
    return dumps(p)


def gf4_times_t2_text():
    # GF(4) as an algebra over GF(2) is a field the base field cannot split
    gf4, t2 = gf4_over_gf2_algebra(), truncated_poly_algebra(field(1), 2)
    return dumps(direct_product(gf4, t2)[0])


def d_t3_dense_gf16_text():
    # two local factors, hidden behind a random basis that keeps the unit
    ctx = field(16)
    p, _, _ = direct_product(make_D(ctx, 0x1D, 0x7, 0x3A5), truncated_poly_algebra(ctx, 3))
    return dumps(dense_rebase(p, random.Random(0x1D7)))


def t3_corrupt_text():
    # t * t^2 = 1 in F[t]/(t^3): five associativity and two d_commutativity failures
    text = dumps(truncated_poly_algebra(field(2), 3))
    return text.replace("t 1 2: 0 0 0", "t 1 2: 1 0 0")


def dim7_gf4_text():
    # a member over GF(4) in a random basis; its normalization doubles the field
    rng = random.Random(1)
    ctx = field(4)
    return dumps(dense_rebase(make_D(ctx, ctx.rand(rng), ctx.rand(rng), ctx.rand(rng)), rng))


def commutative_tensor_dense_text():
    # commutative with d != 0 in a dense basis: fails the twisted law alone, 56 times
    t = tiny_d_algebra(field(8))
    return dumps(dense_rebase(commutative_tensor(t, t), random.Random(0xDC)))


def gl3_e01_text():
    # d = [E01, -]; its image is not leading, so both commands reorder the basis
    e01 = Matrix(field(8), [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    return dumps(commutator_lie(gl_object(3, e01)))


@pytest.mark.parametrize(
    "golden, argv, source",
    [
        ("present_d_t2", ["present", "-"], d_times_t2_text),
        ("invariants_rank3_deg5", ["invariants", "-"], lambda: RANK3_DEG5),
        ("check_d_not_closed", ["check", "-"], lambda: "P(1,0) / [x1^3 + xi1 x1] @ deg 5"),
        ("decompose_d_t3_tiny_gf16", ["decompose", "-"], d_t3_tiny_gf16_text),
        ("check_t3_corrupt", ["check", "-"], t3_corrupt_text),
        ("pbw_verify_gl3_e01", ["pbw-verify", "-", "--bound", "4"], gl3_e01_text),
        (
            "confluence_gl3_e01",
            ["confluence", "-", "--trials", "60", "--seed", "11", "--bound", "8"],
            gl3_e01_text,
        ),
        ("decompose_gf4_t2_nonsplit", ["decompose", "-"], gf4_times_t2_text),
        ("invariants_d_t3_dense_gf16", ["invariants", "-"], d_t3_dense_gf16_text),
        ("check_dense_assoc_corrupt_gf16", ["check", "-"], lambda: dumps(dense_assoc_corrupt_gf16())),
        ("present_d_t3_dense_gf16", ["present", "-", "--bound", "4"], d_t3_dense_gf16_text),
        ("check_d_source", ["check", "-"], lambda: D_SOURCE),
        ("classify7_gf4_extends", ["classify7", "-"], dim7_gf4_text),
        ("check_commutative_tensor_dense", ["check", "-"], commutative_tensor_dense_text),
    ],
)
def test_report_matches_golden(golden, argv, source, capsys, monkeypatch):
    # recorded once; reports, relation order and messages must not drift
    _, text = run(capsys, argv, source(), monkeypatch)
    assert text == (GOLDEN / f"{golden}.txt").read_text()


def test_each_algebra_is_scanned_once(capsys, monkeypatch):
    scans = []
    scan = AssocAlgebra2._verify_assoc

    def spy(self, rep):
        scans.append(self)
        return scan(self, rep)

    dim7._family_parts()  # the family proof, once per process
    monkeypatch.setattr(AssocAlgebra2, "_verify_assoc", spy)
    # the quotient is verified where it is built; check reports that run
    _, text = run(capsys, ["check", "-"], D_SOURCE, monkeypatch)
    assert text == (GOLDEN / "check_d_source.txt").read_text()
    assert len(scans) == 1
    # loads verifies; classify7, make_D and the morphism checks scan nothing
    a = loads(dim7_gf4_text())
    scans.clear()
    res = normalize7(a)
    assert res.extended and scans == []
    _, text = run(capsys, ["classify7", "-"], dim7_gf4_text(), monkeypatch)
    assert text == (GOLDEN / "classify7_gf4_extends.txt").read_text()
    assert len(scans) == 1


def test_check_on_a_lie_file_scans_the_laws_once(capsys, monkeypatch):
    # loads verifies and cmd_check reports the same memoised report
    source = jordan_lie_text()
    scans = []

    def spy(kind):
        scans.append(kind)
        return AxiomReport(kind)

    monkeypatch.setattr(lie, "AxiomReport", spy)
    _, text = run(capsys, ["check", "-"], source, monkeypatch)
    assert scans == ["lie2", "jacobi7"]
    assert text.splitlines() == [
        "command: check",
        "kind: lie2",
        "field: 1",
        "n: 4",
        "axioms: pass",
        "  alternating law checked on a kernel basis only: there x -> [x,x] is additive by antisymmetry and scales by c^2",
        "jacobi7: pass",
        "exit: 0",
    ]


def test_one_parser_prints_what_fresh_processes_print(tmp_path, capsys):
    lie_path = tmp_path / "jordan.lie"
    lie_path.write_text(jordan_lie_text())
    dsl_path = tmp_path / "d.dsl"
    dsl_path.write_text(D_SOURCE)
    runs = [
        ["check", str(lie_path), "--format", "kv"],
        ["invariants", str(dsl_path)],
        ["confluence", str(lie_path), "--trials", "5", "--format", "human"],
        ["pbw-verify", str(lie_path), "--bound", "3", "--format", "kv"],
    ]
    assert cli.build_parser() is cli.build_parser()
    for argv in runs:
        code = main(argv)
        proc = subprocess.run([sys.executable, "-m", "dalg.cli", *argv], capture_output=True, text=True)
        assert (code, capsys.readouterr().out) == (proc.returncode, proc.stdout)


def test_pbw_verify_and_counts(capsys, monkeypatch):
    code, text = run(capsys, ["pbw-verify", "-", "--bound", "4"], jordan_lie_text(), monkeypatch)
    assert code == 0
    got = kv(text)
    assert got["independence"] == "pass"
    assert got["standard words"] == "41"
    assert got["reordered"] == "no"


def test_pbw_verify_reorders_when_image_is_not_leading(capsys, monkeypatch):
    flipped = abelian_lie(field(1), 2, dmat=[[0, 0], [1, 0]])
    code, text = run(capsys, ["pbw-verify", "-", "--bound", "2"], dumps(flipped), monkeypatch)
    assert code == 0
    assert kv(text)["reordered"] == "yes"


def lineal_lie_text():
    # the 2-dim abelian lie2 with d(e1) = e0
    return dumps(abelian_lie(field(1), 2, dmat=[[0, 1], [0, 0]]))


def test_pbw_verify_at_bound_400_answers_from_the_proof(capsys, monkeypatch):
    start = time.perf_counter()
    code, text = run(capsys, ["pbw-verify", "-", "--bound", "400"], lineal_lie_text(), monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "  checked 1270420 sandwiched relations at bound 400" in text.splitlines()


def test_confluence_on_3000_letter_words_exits_0(tmp_path):
    path = tmp_path / "lineal.lie"
    path.write_text(lineal_lie_text())
    proc = subprocess.run(
        [sys.executable, "-m", "dalg.cli", "confluence", str(path), "--bound", "3000", "--trials", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "confluence: pass" in proc.stdout.splitlines()


def test_pbw_verify_fails_at_the_witness_with_exit_3(capsys, monkeypatch):
    # [e0, e0] = e1 breaks the alternating law, so the proof fails at the
    # relation R(0,0) whatever the bound; loads rejects such a bracket, so
    # the algebra is handed to the command past the loader
    ctx = field(1)
    bad = LieAlgebra2(ctx, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]], Matrix.zeros(ctx, 2, 2))
    monkeypatch.setattr(cli, "_load_object", lambda text, args: bad)
    start = time.perf_counter()
    code, text = run(capsys, ["pbw-verify", "-", "--bound", "400"], "", monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert text.splitlines()[-4:] == [
        "independence: fail",
        "independence failure 0: relation_straightens_to_zero",
        "  relation_straightens_to_zero fails at ((),0,0,()): (((1,), 1),) != ()",
        "exit: 3",
    ]


def _cli_source(command):
    return lineal_lie_text() if command in ("pbw-verify", "confluence") else D_SOURCE


@pytest.mark.parametrize("flag, value", [("--bound", "-1"), ("--trials", "-3")])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_negative_bound_or_trials_exits_2(command, flag, value, capsys, monkeypatch):
    code, text = run(capsys, [command, "-", flag, value], _cli_source(command), monkeypatch)
    assert code == 2
    got = kv(text)
    assert got["error"] == "input"
    assert got["message"] == f"{flag} must be at least 0, got {value}"
    assert got["exit"] == "2"


@pytest.mark.parametrize(
    "command, flag",
    [("confluence", "--bound"), ("confluence", "--trials"), ("pbw-verify", "--bound"), ("present", "--bound")],
)
def test_zero_bound_and_trials_are_accepted(command, flag, capsys, monkeypatch):
    code, text = run(capsys, [command, "-", flag, "0"], _cli_source(command), monkeypatch)
    assert code == 0
    assert "error" not in kv(text)


def test_confluence_deterministic_output(capsys, monkeypatch):
    argv = ["confluence", "-", "--trials", "60", "--seed", "11"]
    code1, text1 = run(capsys, argv, jordan_lie_text(), monkeypatch)
    code2, text2 = run(capsys, argv, jordan_lie_text(), monkeypatch)
    assert code1 == code2 == 0
    assert text1 == text2
    got = kv(text1)
    assert got["confluence"] == "pass" and got["words checked"] == "60"


def test_kv_format_suppresses_detail_lines(capsys, monkeypatch):
    bad = dumps(make_D(field(1), 0, 0, 0)).replace(
        "t 1 1: 0 0 0 0 0 0 0", "t 1 1: 0 0 0 1 0 0 0"
    )
    code, text = run(capsys, ["check", "-", "--format", "kv"], bad, monkeypatch)
    assert code == 3
    assert not any(line.startswith("  ") for line in text.splitlines())
    code, text = run(capsys, ["check", "-", "--format", "human"], bad, monkeypatch)
    assert any(line.startswith("  ") for line in text.splitlines())


def test_module_entry_point(tmp_path):
    path = tmp_path / "d.alg"
    path.write_text(dumps(make_D(field(1), 1, 0, 1)))
    proc = subprocess.run(
        [sys.executable, "-m", "dalg.cli", "check", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "axioms: pass" in proc.stdout
