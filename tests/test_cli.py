import io
import subprocess
import sys
from pathlib import Path

import pytest

from dalg import (
    Matrix,
    TheoremViolation,
    abelian_lie,
    commutator_lie,
    direct_product,
    dumps,
    field,
    gl_object,
)
from dalg.cli import main
from dalg.dim7 import make_D, normalize7
from helpers import gf4_over_gf2_algebra, truncated_poly_algebra

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


@pytest.mark.parametrize(
    "golden, argv, source",
    [
        ("present_d_t2", ["present", "-"], d_times_t2_text),
        ("invariants_rank3_deg5", ["invariants", "-"], lambda: RANK3_DEG5),
        ("check_d_not_closed", ["check", "-"], lambda: "P(1,0) / [x1^3 + xi1 x1] @ deg 5"),
    ],
)
def test_report_matches_golden(golden, argv, source, capsys, monkeypatch):
    # recorded once; reports, relation order and messages must not drift
    _, text = run(capsys, argv, source(), monkeypatch)
    assert text == (GOLDEN / f"{golden}.txt").read_text()


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
