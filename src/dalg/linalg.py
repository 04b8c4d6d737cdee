"""Exact dense linear algebra over GF(2^k).

Vectors are lists of field elements (ints); a :class:`Matrix` wraps a
row-major grid together with its field context.  Everything here is
deterministic and allocation-happy rather than clever: dimensions in this
package stay small (tens, not thousands).

Matrices are treated as immutable once constructed; all operations return
fresh objects.  A :class:`Subspace` is the one dense incremental echelon:
every span, closure and coordinate map is grown by :meth:`Subspace.add`
except the wide, sparse relation span of a presentation quotient, which a
:class:`SparseEchelon` holds.  No one adds to a Subspace after handing it
out or comparing it; :func:`extend_basis` grows a copy.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .errors import Inconsistent, ShapeMismatch
from .gf2k import Fe, FieldCtx
from .unipoly import UniPoly

Vec = list


class Matrix:
    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx: FieldCtx, rows: Iterable[Sequence[Fe]], ncols: int | None = None):
        rs = [list(r) for r in rows]
        if rs:
            ncols = len(rs[0])
            for r in rs:
                if len(r) != ncols:
                    raise ShapeMismatch("ragged rows")
        elif ncols is None:
            raise ShapeMismatch("empty matrix needs an explicit column count")
        self.ctx = ctx
        self.nrows = len(rs)
        self.ncols = ncols
        self.rows = rs

    @classmethod
    def zeros(cls, ctx: FieldCtx, nrows: int, ncols: int) -> "Matrix":
        return cls(ctx, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_cols(cls, ctx: FieldCtx, cols: Sequence[Sequence[Fe]], nrows: int | None = None) -> "Matrix":
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ShapeMismatch("empty matrix needs an explicit row count")
        return cls(ctx, [[col[i] for col in cols] for i in range(nrows)], len(cols))

    def col(self, j: int) -> Vec:
        return [r[j] for r in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ctx is other.ctx
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((id(self.ctx), self.ncols, tuple(map(tuple, self.rows))))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format(x, "x") for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def transpose(self) -> "Matrix":
        return Matrix(
            self.ctx,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix addition shape mismatch")
        return Matrix(
            self.ctx,
            [[a ^ b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeMismatch("matrix product shape mismatch")
        mul = self.ctx.mul
        out = []
        bt = other.transpose().rows
        for ra in self.rows:
            out.append(
                [
                    _dot(mul, ra, cb)
                    for cb in bt
                ]
            )
        return Matrix(self.ctx, out, other.ncols)

    def mul_vec(self, v: Sequence[Fe]) -> Vec:
        if self.ncols != len(v):
            raise ShapeMismatch("matrix-vector shape mismatch")
        mul = self.ctx.mul
        return [_dot(mul, r, v) for r in self.rows]

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows, pivots = rref_rows(self.ctx, self.rows)
        return Matrix(self.ctx, rows, self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[Vec]:
        return nullspace_rows(self.ctx, self.rows, self.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ShapeMismatch("only square matrices invert")
        n = self.nrows
        aug = [r[:] + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        red, pivots = rref_rows(self.ctx, aug)
        if list(pivots) != list(range(n)):
            raise Inconsistent("matrix is singular")
        return Matrix(self.ctx, [r[n:] for r in red[:n]], n)

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)


def _dot(mul, a: Sequence[Fe], b: Sequence[Fe]) -> Fe:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc ^= mul(x, y)
    return acc


def rref_rows(ctx: FieldCtx, rows: Sequence[Sequence[Fe]]) -> tuple[list[Vec], tuple[int, ...]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    Zero rows are kept (trailing) so the shape is preserved.
    """
    mul = ctx.mul
    inv = ctx.inv
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        if pv != 1:
            f = inv(pv)
            mat[r] = [mul(f, x) if x else 0 for x in mat[r]]
        prow = mat[r]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x ^ mul(f, y) if y else x for x, y in zip(mat[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, tuple(pivots)


def nullspace_rows(ctx: FieldCtx, rows: Sequence[Sequence[Fe]], ncols: int) -> list[Vec]:
    """Basis of the right kernel, one vector per free column."""
    red, pivots = rref_rows(ctx, rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [0] * ncols
        v[j] = 1
        for i, p in enumerate(pivots):
            v[p] = red[i][j]
        basis.append(v)
    return basis


def solve(ctx: FieldCtx, mat: Matrix, b: Sequence[Fe]) -> Vec:
    """One solution x of mat @ x = b with free variables set to zero.

    Raises :class:`Inconsistent` when no solution exists.
    """
    if mat.nrows != len(b):
        raise ShapeMismatch("right-hand side length mismatch")
    aug = [r[:] + [bv] for r, bv in zip(mat.rows, b)]
    red, pivots = rref_rows(ctx, aug)
    n = mat.ncols
    if n in pivots:
        raise Inconsistent("linear system has no solution")
    x = [0] * n
    for i, p in enumerate(pivots):
        x[p] = red[i][n]
    return x


def solve_lex_least(ctx: FieldCtx, mat: Matrix, b: Sequence[Fe]) -> Vec:
    """The lexicographically least solution x of mat @ x = b.

    Obtained by clearing the particular solution at every pivot column of
    the kernel's RREF; zeros there pin down the lex-least coset member.
    """
    return Subspace(ctx, mat.ncols, mat.nullspace()).reduce(solve(ctx, mat, b))


class Subspace:
    """Row space of a set of vectors, held in canonical RREF and grown by
    :meth:`add`.

    ``rows`` and ``pivots`` are the reduced row echelon form of everything
    added so far, so equality is a straight comparison of rows and
    membership runs by elimination against the pivot rows.  The accepted
    vectors (those :meth:`add` did not find in the span) are kept in the
    order they came, and :meth:`coords` reads coordinates on them.
    """

    __slots__ = ("ctx", "ambient", "rows", "pivots", "_accepted", "_coord_rows")

    def __init__(self, ctx: FieldCtx, ambient: int, vectors: Iterable[Sequence[Fe]] = ()):
        self.ctx = ctx
        self.ambient = ambient
        self.rows: list[Vec] = []
        self.pivots: tuple[int, ...] = ()
        self._accepted: list[Vec] = []
        self._coord_rows: list[Vec] | None = None
        for v in vectors:
            self.add(v)

    def add(self, v: Sequence[Fe]) -> Vec | None:
        """Put v in the span; returns its normalised residual, the new
        pivot row as it was inserted, or None when v already lies in the
        span.  Rows are replaced, never edited, so a returned row keeps its
        entries while the span grows."""
        if len(v) != self.ambient:
            raise ShapeMismatch("vector length differs from ambient dimension")
        r = self.reduce(v)
        for p, x in enumerate(r):
            if x:
                break
        else:
            return None
        mul = self.ctx.mul
        if r[p] != 1:
            f = self.ctx.inv(r[p])
            r = [mul(f, x) if x else 0 for x in r]
        rows = self.rows
        for i, row in enumerate(rows):
            f = row[p]
            if f:
                rows[i] = [x ^ mul(f, y) if y else x for x, y in zip(row, r)]
        at = bisect_left(self.pivots, p)
        rows.insert(at, r)
        self.pivots = self.pivots[:at] + (p,) + self.pivots[at:]
        self._accepted.append(list(v))
        self._coord_rows = None
        return r

    def copy(self) -> "Subspace":
        out = Subspace(self.ctx, self.ambient)
        out.rows = list(self.rows)
        out.pivots = self.pivots
        out._accepted = list(self._accepted)
        return out

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ctx is other.ctx
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.ctx), self.ambient, tuple(map(tuple, self.rows))))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.ambient})"

    def reduce(self, v: Sequence[Fe]) -> Vec:
        """Residual of v after eliminating every pivot coordinate."""
        mul = self.ctx.mul
        out = list(v)
        for row, p in zip(self.rows, self.pivots):
            f = out[p]
            if f:
                out = [x ^ mul(f, y) if y else x for x, y in zip(out, row)]
        return out

    def contains(self, v: Sequence[Fe]) -> bool:
        return not any(self.reduce(v))

    def is_zero(self) -> bool:
        return not self.rows

    def coords(self, v: Sequence[Fe]) -> Vec:
        """c with v = sum c_j a_j over the accepted vectors a_j, in the order
        they were accepted; raises :class:`Inconsistent` for v outside.

        v's entries at the pivots are its coordinates on the RREF rows, and
        v lies in the span when those coordinates give v back.  With P[j][i]
        the entry of a_j at pivot i, a_j = sum_i P[j][i] row_i, so c is
        those entries times the inverse of P.  Each RREF row is joined with
        its row of the inverse, once per state of the span, so one pass
        gives both the check and c."""
        n = self.ambient
        if self._coord_rows is None:
            m = self.dim
            pick = [[a[p] for p in self.pivots] + [int(i == j) for j in range(m)]
                    for i, a in enumerate(self._accepted)]
            inverse = Subspace(self.ctx, 2 * m, pick).rows
            self._coord_rows = [r + t[m:] for r, t in zip(self.rows, inverse)]
        mul = self.ctx.mul
        out = [0] * (n + self.dim)
        for p, row in zip(self.pivots, self._coord_rows):
            f = v[p]
            if f:
                out = [x ^ mul(f, y) if y else x for x, y in zip(out, row)]
        # a CoordSolver of no vectors has ambient 0; v's entries past it must vanish
        if out[:n] != list(v[:n]) or any(v[n:]):
            raise Inconsistent("vector outside the span of the basis")
        return out[n:]


class SparseEchelon:
    """Row space of sparse vectors ({column: coefficient} dicts) in the
    canonical RREF that :class:`Subspace` keeps for their dense forms.

    ``rows`` maps each pivot, the smallest column of its row, to the row,
    which is 0 at every other pivot: reducing a vector subtracts the rows
    at the pivots it touches and never cascades.  ``_at`` maps each other
    column to the pivots whose rows are nonzero there, the rows a new pivot
    is eliminated from.
    """

    __slots__ = ("ctx", "rows", "_at")

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.rows: dict[int, dict] = {}
        self._at: dict[int, set] = {}

    def _axpy(self, out: dict, f: Fe, row: dict) -> None:
        mul = self.ctx.mul
        for c, y in row.items():
            x = out.get(c, 0) ^ mul(f, y)
            if x:
                out[c] = x
            else:
                del out[c]

    def reduce(self, v: dict) -> dict:
        """Residual of v after eliminating every pivot coordinate."""
        out = dict(v)
        for p in [c for c in v if c in self.rows]:
            self._axpy(out, v[p], self.rows[p])
        return out

    def add(self, v: dict) -> bool:
        """Put v in the span; False when it already lies there."""
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        if r[p] != 1:
            f = self.ctx.inv(r[p])
            r = {c: self.ctx.mul(f, x) for c, x in r.items()}
        rest, at = r.keys() - {p}, self._at
        for c in rest:
            at.setdefault(c, set()).add(p)
        for q in at.pop(p, ()):
            row = self.rows[q]
            self._axpy(row, row[p], r)
            for c in rest:
                (at[c].add if c in row else at[c].discard)(q)
        self.rows[p] = r
        return True


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: rows [u|u] for u in a and [w|0] for w in b; the rows of
    the echelon form whose left half is zero (pivot at n or beyond) carry
    the intersection in the right half."""
    if a.ctx is not b.ctx or a.ambient != b.ambient:
        raise ShapeMismatch("subspace intersection needs a common ambient space")
    n = a.ambient
    both = Subspace(a.ctx, 2 * n, [r + r for r in a.rows] + [r + [0] * n for r in b.rows])
    return Subspace(a.ctx, n, [r[n:] for r, p in zip(both.rows, both.pivots) if p >= n])


def extend_basis(sub: Subspace, candidates: Iterable[Sequence[Fe]]) -> list[Vec]:
    """The candidates that a copy of sub accepts, in order: they extend sub
    to span(sub + candidates).  sub itself is left as it was."""
    span = sub.copy()
    return [list(v) for v in candidates if span.add(v) is not None]


class CoordSolver(Subspace):
    """A :class:`Subspace` of vectors b_0..b_{m-1} that must be independent;
    ``coords(v)`` are the c with v = sum c_i b_i."""

    __slots__ = ()

    def __init__(self, ctx: FieldCtx, basis: Sequence[Sequence[Fe]]):
        super().__init__(ctx, len(basis[0]) if basis else 0, basis)
        if self.dim != len(basis):
            raise Inconsistent("basis vectors are dependent")

    # perfbench/tracer.py times coords by this class's name, so the class
    # stays until the tracer reads its targets from the library, which
    # deletes it (ROADMAP item 1)
    coords = Subspace.coords


def min_poly(mat: Matrix) -> UniPoly:
    """Minimal polynomial of a square matrix.

    Flattened powers I, A, A^2, ... are added to one :class:`Subspace`
    until one lies in the span of the earlier ones; its coordinates on
    them give the (monic) minimal polynomial.
    """
    if mat.nrows != mat.ncols:
        raise ShapeMismatch("minimal polynomial needs a square matrix")
    ctx = mat.ctx
    span = Subspace(ctx, mat.nrows * mat.ncols)
    power = Matrix.identity(ctx, mat.nrows)
    while True:
        flat = [x for r in power.rows for x in r]
        if span.add(flat) is None:
            return UniPoly(ctx, span.coords(flat) + [1])
        power = power.mul(mat)
