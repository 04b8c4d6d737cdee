"""Exact dense linear algebra over GF(2^k).

Vectors are lists of field elements (ints); a :class:`Matrix` wraps a
row-major grid together with its field context.  Everything here is
deterministic and allocation-happy rather than clever: dimensions in this
package stay small (tens, not thousands).

Matrices are treated as immutable once constructed; all operations return
fresh objects.
"""

from __future__ import annotations

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
    """Row space of a set of vectors, held in canonical RREF.

    Canonical form makes equality a straight comparison of rows and lets
    membership run by elimination against the pivot rows.
    """

    __slots__ = ("ctx", "ambient", "rows", "pivots")

    def __init__(self, ctx: FieldCtx, ambient: int, vectors: Iterable[Sequence[Fe]] = ()):
        red, pivots = rref_rows(ctx, [list(v) for v in vectors])
        self.ctx = ctx
        self.ambient = ambient
        self.rows = [r for r in red[: len(pivots)]]
        self.pivots = pivots
        for r in self.rows:
            if len(r) != ambient:
                raise ShapeMismatch("vector length differs from ambient dimension")

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

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def is_zero(self) -> bool:
        return not self.rows


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ctx is not b.ctx or a.ambient != b.ambient:
        raise ShapeMismatch("subspace sum needs a common ambient space")
    return Subspace(a.ctx, a.ambient, a.rows + b.rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: rows [u|u] for u in a and [w|0] for w in b; the rows of
    the echelon form whose left half is zero carry the intersection in the
    right half."""
    if a.ctx is not b.ctx or a.ambient != b.ambient:
        raise ShapeMismatch("subspace intersection needs a common ambient space")
    n = a.ambient
    block = [r + r for r in a.rows] + [r + [0] * n for r in b.rows]
    red, pivots = rref_rows(a.ctx, block)
    out = []
    for row in red:
        left, right = row[:n], row[n:]
        if any(left):
            continue
        if any(right):
            out.append(right)
    return Subspace(a.ctx, n, out)


def subspace_quotient_reps(sub: Subspace, within: Subspace | None = None) -> list[Vec]:
    """Vectors completing ``sub`` to a basis of ``within`` (default: ambient).

    The returned vectors are coset representatives for the quotient; they
    are chosen greedily from the basis of ``within`` in order, so the
    result is deterministic.
    """
    n = sub.ambient
    if within is None:
        candidates = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        if not within.contains_space(sub):
            raise ShapeMismatch("quotient needs sub contained in within")
        candidates = [r[:] for r in within.rows]
    return extend_basis(sub, candidates)


def extend_basis(sub: Subspace, candidates: Iterable[Sequence[Fe]]) -> list[Vec]:
    """Subset of candidates that extends sub to span(sub + candidates)."""
    span = Subspace(sub.ctx, sub.ambient, sub.rows)
    added = []
    for v in candidates:
        if not span.contains(v):
            added.append(list(v))
            span = Subspace(span.ctx, span.ambient, span.rows + [list(v)])
    return added


class CoordSolver:
    """Repeated coordinate extraction against a fixed independent family.

    Given independent vectors b_0..b_{m-1}, ``coords(v)`` returns c with
    v = sum c_i b_i, raising :class:`Inconsistent` for v outside the span.
    """

    __slots__ = ("ctx", "n", "m", "_red", "_pivots", "_transform")

    def __init__(self, ctx: FieldCtx, basis: Sequence[Sequence[Fe]]):
        self.ctx = ctx
        self.m = len(basis)
        self.n = len(basis[0]) if basis else 0
        # carry an identity tag along the elimination: red = transform @ basis
        aug = [list(v) + [1 if i == j else 0 for j in range(self.m)] for i, v in enumerate(basis)]
        red, pivots = rref_rows(ctx, aug)
        if len(pivots) != self.m or any(p >= self.n for p in pivots):
            raise Inconsistent("basis vectors are dependent")
        self._red = [r[: self.n] for r in red[: self.m]]
        self._transform = [r[self.n :] for r in red[: self.m]]
        self._pivots = pivots

    def coords(self, v: Sequence[Fe]) -> Vec:
        mul = self.ctx.mul
        out = list(v)
        cs = [0] * self.m
        for i, (row, p) in enumerate(zip(self._red, self._pivots)):
            f = out[p]
            if f:
                out = [x ^ mul(f, y) if y else x for x, y in zip(out, row)]
                cs[i] = f
        if any(out):
            raise Inconsistent("vector outside the span of the basis")
        # cs are coordinates against the reduced rows; map back through the
        # recorded transform (red = T @ basis implies coords = cs @ T)
        res = [0] * self.m
        for i, c in enumerate(cs):
            if c:
                ti = self._transform[i]
                for j in range(self.m):
                    if ti[j]:
                        res[j] ^= mul(c, ti[j])
        return res


def min_poly(mat: Matrix) -> UniPoly:
    """Minimal polynomial of a square matrix.

    Flattened powers I, A, A^2, ... are fed into an incremental
    elimination that tracks the expressing combination; the first linear
    dependence gives the (monic) minimal polynomial.
    """
    if mat.nrows != mat.ncols:
        raise ShapeMismatch("minimal polynomial needs a square matrix")
    ctx = mat.ctx
    n = mat.nrows
    mul = ctx.mul
    reduced: list[tuple[Vec, Vec, int]] = []  # (vector, combo, pivot)
    power = Matrix.identity(ctx, n)
    for j in range(n * n + 2):
        flat = [x for r in power.rows for x in r]
        combo = [0] * (j + 1)
        combo[j] = 1
        for vec, cmb, p in reduced:
            f = flat[p]
            if f:
                flat = [x ^ mul(f, y) if y else x for x, y in zip(flat, vec)]
                for i, c in enumerate(cmb):
                    if c:
                        combo[i] ^= mul(f, c)
        p = next((i for i, x in enumerate(flat) if x), None)
        if p is None:
            return UniPoly(ctx, combo).monic()
        f = ctx.inv(flat[p])
        flat = [mul(f, x) if x else 0 for x in flat]
        combo = [mul(f, c) if c else 0 for c in combo]
        reduced.append((flat, combo, p))
        power = power.mul(mat)
    raise AssertionError("powers of an n x n matrix must become dependent")
