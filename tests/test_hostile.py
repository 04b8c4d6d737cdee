"""Hostile inputs end in a documented exit code.

Each case runs ``python -m dalg.cli`` in a child process whose address space
is limited to 512 MB (``RLIMIT_AS``, set in the child only) under a 10 s
timeout.  It must exit 0, 2, 3, 4 or 5, print the report's ``exit:`` line
and write no traceback; where a message is given, the report must carry it.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import dalg

SRC = str(Path(dalg.__file__).resolve().parent.parent)
LIMIT = 512 << 20

# the 2-dim abelian lie2 over GF(2) with d(e1) = e0
LINEAL = "kind: lie2\nfield: 1\nn: 2\nt 0 0: 0 0\nt 0 1: 0 0\nt 1 0: 0 0\nt 1 1: 0 0\nd 0: 0 0\nd 1: 1 0\n"
BIG = 999_999_999


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))


def _overflow(degree, bound=2):
    return f"message: relation 1 has degree {degree}, above the bound {bound}"


CASES = {
    "x1^10000": (["invariants"], "P(1,0) / [x1^10000] @ deg 2", _overflow(10000)),
    "x1^100000": (["invariants"], "P(1,0) / [x1^100000] @ deg 2", _overflow(100000)),
    "x1^999999999": (["invariants"], f"P(1,0) / [x1^{BIG}] @ deg 2", _overflow(BIG)),
    "coefficient power": (
        ["invariants", "--field", "8"],
        f"P(1,0) / [3^{BIG} x1] @ deg 2",
        "message: d of relation 0x55 x1 is not in the relation span",
    ),
    "xi power": (["invariants"], f"P(1,0) / [xi1^{BIG}] @ deg 2", None),
    "y power": (["invariants"], f"P(0,1) / [y1^{BIG}] @ deg 2", _overflow(BIG)),
    "20000 x1 factors": (
        ["invariants"],
        "P(1,0) / [" + " ".join(["x1"] * 20000) + "] @ deg 2",
        _overflow(20000),
    ),
    "10000 x2 x1 pairs": (
        ["invariants"],
        "P(2,0) / [" + " ".join(["x2 x1"] * 10000) + "] @ deg 2",
        _overflow(20000),
    ),
    "40000 x1 terms": (["invariants"], "P(1,0) / [" + " + ".join(["x1"] * 40000) + "] @ deg 2", None),
    "confluence bound": (["confluence", "--bound", str(BIG)], LINEAL, None),
    "confluence trials": (["confluence", "--trials", str(BIG)], LINEAL, None),
    "pbw-verify bound": (["pbw-verify", "--bound", str(BIG)], LINEAL, None),
    "pbw-verify trials": (["pbw-verify", "--trials", str(BIG)], LINEAL, None),
    "n header": (
        ["check"],
        "kind: dalgebra\nfield: 1\nn: 100000000\nunit: 0\n",
        "message: missing tensor entry t 0 0",
    ),
    "field 99": (
        ["check"],
        LINEAL.replace("field: 1", "field: 99"),
        "message: field degree 99 outside supported range 1..16",
    ),
    "rank with relation": (
        ["invariants"],
        "P(100000000,0) / [x1] @ deg 1",
        "message: P(100000000,0) has more generators than the 4096 normal monomials"
        " this package enumerates",
    ),
    "y rank with relation": (["invariants"], "P(0,100000000) / [y1] @ deg 1", None),
    "rank at bound 0": (["invariants"], "P(5000,0) / [] @ deg 0", None),
    "40 x's at bound 1": (
        ["invariants"],
        "P(40,0) / [] @ deg 1",
        "message: product xi1 * xi2 has degree beyond the bound 1; raise the bound",
    ),
    "huge bound": (
        ["invariants"],
        f"P(1,0) / [x1^2] @ deg {BIG}",
        f"message: P(1,0) has {2 * BIG + 1} normal monomials of degree at most {BIG},"
        " more than the 4096 this package enumerates; lower the bound",
    ),
    "x1^200 at deg 402": (
        ["invariants"],
        "P(1,0) / [x1^200] @ deg 402",
        "message: the quotient has dimension 400, so 64000000 structure constants,"
        " more than the 8388608 this package stores; lower the bound",
    ),
    "not d-closed at deg 2047": (
        ["invariants"],
        "P(1,0) / [x1^3 + xi1] @ deg 2047",
        "message: d of relation xi1 + x1^3 is not in the relation span",
    ),
    "x1^1000 at deg 2047": (
        ["invariants"],
        "P(1,0) / [x1^1000] @ deg 2047",
        "message: the quotient has dimension 2000, so 8000000000 structure constants,"
        " more than the 8388608 this package stores; lower the bound",
    ),
    "index out of range": (
        ["invariants"],
        "P(2,0) / [x3] @ deg 2",
        "message: x3 out of range 1..2 (line 1, column 11)",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_hostile_input_ends_in_documented_exit(name):
    argv, text, message = CASES[name]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "dalg.cli", argv[0], "-", *argv[1:]],
        input=text,
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode in (0, 2, 3, 4, 5), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert f"exit: {proc.returncode}" in lines
    if message is not None:
        assert message in lines
