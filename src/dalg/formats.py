"""Reading and writing algebras as plain text.

The format is line oriented and key-value shaped so files diff cleanly
and can be produced by hand or by other tools:

    kind: dalgebra
    field: 3
    n: 7
    unit: 0
    t 0 0: 1 0 0 0 0 0 0
    ...
    d 0: 0 0 0 0 0 0 0
    ...

``field`` is the bit width k of GF(2^k).  A ``t i j`` line lists the
coordinates of the product e_i e_j (the bracket [e_i, e_j] for kind
``lie2``), a ``d j`` line the coordinates of d(e_j).  Scalars are
lowercase hex.  ``unit`` names the basis index of 1 and is omitted for
``lie2``, which has no unit.  Blank lines and ``#`` comments are
ignored; entry order is free but every slot must appear exactly once.

Loading always verifies: a file that parses but breaks the axioms of
its declared kind raises :class:`AxiomsFailed` with the report attached,
so a saved file is trustworthy by construction.
"""

from __future__ import annotations

from .algebra import AssocAlgebra2, DAlgebra
from .errors import AxiomsFailed, FormatError
from .gf2k import field
from .lie import LieAlgebra2, verify_lie
from .linalg import Matrix

KINDS = ("assoc2", "dalgebra", "lie2")


def _fmt_vec(v):
    return " ".join(format(c, "x") for c in v)


def dumps(obj) -> str:
    """Serialize an algebra or Lie algebra to format text."""
    kind = getattr(obj, "kind", None)
    if kind not in KINDS:
        raise FormatError(f"cannot serialize object of kind {kind!r}")
    lines = [f"kind: {kind}", f"field: {obj.ctx.k}", f"n: {obj.n}"]
    if kind != "lie2":
        lines.append(f"unit: {obj.unit_idx}")
    for i in range(obj.n):
        for j in range(obj.n):
            lines.append(f"t {i} {j}: {_fmt_vec(obj.tensor[i][j])}")
    for j in range(obj.n):
        lines.append(f"d {j}: {_fmt_vec(obj.dmat.col(j))}")
    return "\n".join(lines) + "\n"


def _parse_scalars(body, n, ctx, lineno):
    toks = body.split()
    if len(toks) != n:
        raise FormatError(f"line {lineno}: expected {n} scalars, got {len(toks)}")
    out = []
    for t in toks:
        try:
            c = int(t, 16)
        except ValueError:
            raise FormatError(f"line {lineno}: bad hex scalar {t!r}") from None
        if not 0 <= c < (1 << ctx.k):
            raise FormatError(f"line {lineno}: scalar {t} outside GF(2^{ctx.k})")
        out.append(c)
    return out


def _parse_int(s, what, lineno):
    try:
        return int(s)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} must be an integer, got {s!r}") from None


def loads(text: str):
    """Parse format text, construct the algebra, and verify its axioms.

    Returns an :class:`AssocAlgebra2`, :class:`DAlgebra`, or
    :class:`LieAlgebra2` according to the ``kind`` line.  Malformed text
    raises :class:`FormatError`; a well-formed file whose structure
    constants break the axioms raises :class:`AxiomsFailed`.
    """
    header = {}
    t_lines = []
    d_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"line {lineno}: expected 'key: value'")
        key, body = line.split(":", 1)
        key = key.strip()
        body = body.strip()
        parts = key.split()
        if len(parts) == 3 and parts[0] == "t":
            t_lines.append((lineno, parts[1], parts[2], body))
        elif len(parts) == 2 and parts[0] == "d":
            d_lines.append((lineno, parts[1], body))
        elif len(parts) == 1 and parts[0] in ("kind", "field", "n", "unit"):
            if parts[0] in header:
                raise FormatError(f"line {lineno}: duplicate {parts[0]} line")
            header[parts[0]] = (lineno, body)
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")

    for req in ("kind", "field", "n"):
        if req not in header:
            raise FormatError(f"missing {req!r} line")
    kind = header["kind"][1]
    if kind not in KINDS:
        raise FormatError(f"line {header['kind'][0]}: unknown kind {kind!r}")
    k = _parse_int(header["field"][1], "field", header["field"][0])
    n = _parse_int(header["n"][1], "n", header["n"][0])
    if n <= 0:
        raise FormatError(f"line {header['n'][0]}: n must be positive")
    ctx = field(k)

    if kind == "lie2":
        if "unit" in header:
            raise FormatError(f"line {header['unit'][0]}: lie2 files have no unit")
        unit_idx = None
    else:
        if "unit" not in header:
            raise FormatError("missing 'unit' line")
        unit_idx = _parse_int(header["unit"][1], "unit", header["unit"][0])
        if not 0 <= unit_idx < n:
            raise FormatError(f"line {header['unit'][0]}: unit index out of range")

    # the grids are built only once every slot is present, and the scans for
    # a gap stop within len(entries) + 1 steps: both are bounded by the input
    entries = {}
    for lineno, si, sj, body in t_lines:
        i = _parse_int(si, "tensor index", lineno)
        j = _parse_int(sj, "tensor index", lineno)
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"line {lineno}: tensor index out of range")
        if (i, j) in entries:
            raise FormatError(f"line {lineno}: duplicate entry t {i} {j}")
        entries[i, j] = _parse_scalars(body, n, ctx, lineno)
    gap = next(((i, j) for i in range(n) for j in range(n) if (i, j) not in entries), None)
    if gap is not None:
        raise FormatError(f"missing tensor entry t {gap[0]} {gap[1]}")
    tensor = [[entries[i, j] for j in range(n)] for i in range(n)]

    dentries = {}
    for lineno, sj, body in d_lines:
        j = _parse_int(sj, "differential index", lineno)
        if not 0 <= j < n:
            raise FormatError(f"line {lineno}: differential index out of range")
        if j in dentries:
            raise FormatError(f"line {lineno}: duplicate entry d {j}")
        dentries[j] = _parse_scalars(body, n, ctx, lineno)
    gap = next((j for j in range(n) if j not in dentries), None)
    if gap is not None:
        raise FormatError(f"missing differential entry d {gap}")
    dcols = [dentries[j] for j in range(n)]
    dmat = Matrix.from_cols(ctx, dcols, nrows=n)

    if kind == "lie2":
        obj = LieAlgebra2(ctx, tensor, dmat)
        report = verify_lie(obj)
    else:
        cls = DAlgebra if kind == "dalgebra" else AssocAlgebra2
        obj = cls(ctx, tensor, dmat, unit_idx=unit_idx)
        report = obj.verify()
    if not report.passed:
        raise AxiomsFailed(
            f"{kind} axioms failed: {len(report.failures)} failure(s)", report
        )
    return obj
