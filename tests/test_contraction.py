"""The law checks as structure-constant contractions, against dense loops.

``dense_verify``, ``dense_verify_morphism``, ``dense_verify_lie`` and
``dense_jacobi_seven_term_check`` are the basis-vector loops the library used before its checks became sparse
contractions, kept verbatim (methods turned into functions of ``self``).
Every report must print the same: the same failures, witnesses and
vectors, in the same order.
"""

from __future__ import annotations

import random

import pytest

from dalg import (
    AssocAlgebra2,
    DAlgebra,
    LieAlgebra2,
    Matrix,
    Morphism,
    Subspace,
    change_basis,
    commutator_lie,
    decompose,
    direct_product_many,
    field,
    gl_object,
    jacobi_seven_term_check,
    lemma_suite,
    normalize7,
    verify_lie,
    verify_morphism,
)
from dalg import algebra
from dalg.algebra import AxiomReport, vec_xor
from dalg.linalg import nullspace_rows
from dalg.errors import DimensionMismatch, ShapeMismatch
from dalg.dim7 import make_D

from helpers import (
    commutative_tensor,
    corpus_small,
    dense_rebase,
    rand_vec,
    random_dim7,
    rebuilt,
    square_corrupted,
    stacked_center,
    tiny_d_algebra,
    truncated_poly_algebra,
    unital_gf2_dim3,
)


# -- the dense loops ----------------------------------------------------------


def dense_verify_assoc(self, rep: AxiomReport) -> None:
    n = self.n
    T = self.tensor
    u = self.unit_idx
    for i in range(n):
        lhs = T[u][i]
        e = self.basis_vec(i)
        if lhs != e:
            rep.record("left_unit", (i,), lhs, e)
        rhs = T[i][u]
        if rhs != e:
            rep.record("right_unit", (i,), rhs, e)
    for i in range(n):
        for j in range(n):
            tij = T[i][j]
            for k in range(n):
                left = self.mul(tij, self.basis_vec(k))
                right = self.mul(self.basis_vec(i), T[j][k])
                if left != right:
                    rep.record("associativity", (i, j, k), left, right)
    dd = self.dmat.mul(self.dmat)
    if not dd.is_zero():
        rep.record("d_squared", (), tuple(map(tuple, dd.rows)), ((),))
    for i in range(n):
        for j in range(n):
            lhs = self.d(T[i][j])
            rhs = vec_xor(
                self.mul(self.dmat.col(i), self.basis_vec(j)),
                self.mul(self.basis_vec(i), self.dmat.col(j)),
            )
            if lhs != rhs:
                rep.record("leibniz", (i, j), lhs, rhs)
    du = self.dmat.col(u)
    if any(du):
        rep.record("unit_differential", (u,), du, tuple([0] * n))


def dense_verify(self) -> AxiomReport:
    rep = AxiomReport(self.kind)
    dense_verify_assoc(self, rep)
    if not isinstance(self, DAlgebra):
        return rep
    n = self.n
    for i in range(n):
        di = self.dmat.col(i)
        for j in range(n):
            # e_i e_j = e_j e_i + d(e_j) d(e_i)
            rhs = vec_xor(self.tensor[j][i], self.mul(self.dmat.col(j), di))
            if self.tensor[i][j] != rhs:
                rep.record("d_commutativity", (i, j), self.tensor[i][j], rhs)
    return rep


def dense_verify_morphism(m: Morphism, require_iso: bool = False) -> AxiomReport:
    rep = AxiomReport("morphism")
    src, tgt = m.source, m.target
    if m.mat.ncols != src.n or m.mat.nrows != tgt.n:
        raise ShapeMismatch("morphism matrix shape disagrees with its algebras")
    if src.ctx is not tgt.ctx:
        raise DimensionMismatch("morphism endpoints live over different fields")
    img_unit = m.apply(src.unit_vec())
    if img_unit != tgt.unit_vec():
        rep.record("unit", (), img_unit, tgt.unit_vec())
    for i in range(src.n):
        fi = m.mat.col(i)
        for j in range(src.n):
            lhs = m.apply(src.tensor[i][j])
            rhs = tgt.mul(fi, m.mat.col(j))
            if lhs != rhs:
                rep.record("multiplicative", (i, j), lhs, rhs)
    lhs_mat = m.mat.mul(src.dmat)
    rhs_mat = tgt.dmat.mul(m.mat)
    if lhs_mat != rhs_mat:
        rep.record("d_equivariant", (), tuple(map(tuple, lhs_mat.rows)), tuple(map(tuple, rhs_mat.rows)))
    if require_iso:
        if src.n != tgt.n or m.mat.rank() != src.n:
            rep.record("bijective", (), (m.mat.rank(),), (src.n,))
    return rep


def dense_verify_lie(L: LieAlgebra2) -> AxiomReport:
    rep = AxiomReport("lie2")
    n = L.n
    T = L.tensor
    dd = L.dmat.mul(L.dmat)
    if not dd.is_zero():
        rep.record("d_squared", (), tuple(map(tuple, dd.rows)), ((),))
    for i in range(n):
        di = L.dmat.col(i)
        for j in range(n):
            dj = L.dmat.col(j)
            lhs = L.d(T[i][j])
            rhs = vec_xor(L.bracket(di, L.basis_vec(j)), L.bracket(L.basis_vec(i), dj))
            if lhs != rhs:
                rep.record("bracket_derivation", (i, j), lhs, rhs)
            twist = L.bracket(dj, di)
            anti = vec_xor(vec_xor(T[i][j], T[j][i]), twist)
            if any(anti):
                rep.record("twisted_antisymmetry", (i, j), anti, tuple([0] * n))
    for i in range(n):
        ei = L.basis_vec(i)
        di = L.dmat.col(i)
        for j in range(n):
            ej = L.basis_vec(j)
            dj = L.dmat.col(j)
            for k in range(n):
                ek = L.basis_vec(k)
                lhs = vec_xor(
                    vec_xor(L.bracket(ei, T[j][k]), L.bracket(ej, L.bracket(ei, ek))),
                    L.bracket(dj, L.bracket(di, ek)),
                )
                rhs = L.bracket(T[i][j], ek)
                if lhs != rhs:
                    rep.record("twisted_jacobi", (i, j, k), lhs, rhs)
    for x in L.ker_d().rows:
        q = L.bracket(x, x)
        if any(q):
            rep.record("alternating_on_kernel", (tuple(x),), q, tuple([0] * n))
    rep.notes.append(
        "alternating law checked on a kernel basis only: there x -> [x,x] "
        "is additive by antisymmetry and scales by c^2"
    )
    return rep


def dense_jacobi_seven_term_check(L: LieAlgebra2) -> AxiomReport:
    rep = AxiomReport("jacobi7")
    n = L.n
    br = L.bracket
    for i in range(n):
        x, dx = L.basis_vec(i), L.dmat.col(i)
        for j in range(n):
            y, dy = L.basis_vec(j), L.dmat.col(j)
            for k in range(n):
                z, dz = L.basis_vec(k), L.dmat.col(k)
                total = [0] * n
                for t in (
                    br(br(x, y), z),
                    br(br(z, x), y),
                    br(br(dz, dx), y),
                    br(br(dz, x), dy),
                    br(br(y, z), x),
                    br(br(y, dz), dx),
                    br(br(dy, z), dx),
                ):
                    total = vec_xor(total, t)
                if any(total):
                    rep.record("jacobi_seven_term", (i, j, k), total, tuple([0] * n))
    return rep


# -- inputs ---------------------------------------------------------------------

KS = (1, 2, 4, 8, 16)


def perturbed(a, rng, tensor_edits, d_edits):
    """A copy of a built through its constructor, with random entries changed."""
    ctx = a.ctx
    tensor = [[list(v) for v in row] for row in a.tensor]
    drows = [list(r) for r in a.dmat.rows]
    for _ in range(tensor_edits):
        tensor[rng.randrange(a.n)][rng.randrange(a.n)][rng.randrange(a.n)] = ctx.rand(rng)
    for _ in range(d_edits):
        drows[rng.randrange(a.n)][rng.randrange(a.n)] = ctx.rand(rng)
    if isinstance(a, LieAlgebra2):
        return LieAlgebra2(ctx, tensor, drows)
    return type(a)(ctx, tensor, drows, a.unit_idx)


def variants(a, rng):
    # unchanged (mostly passing), tensor only, d only, both
    yield a
    yield perturbed(a, rng, 1, 0)
    yield perturbed(a, rng, 0, 1)
    yield perturbed(a, rng, 2, 1)


def product_algebras(ctx):
    t2 = truncated_poly_algebra(ctx, 2)
    tiny = tiny_d_algebra(ctx)
    d = make_D(ctx, 0, 1, ctx.order - 1)
    return [
        rebuilt(direct_product_many([t2, tiny])[0]),
        rebuilt(direct_product_many([d, t2])[0]),
        rebuilt(direct_product_many([tiny, truncated_poly_algebra(ctx, 3), t2])[0]),
    ]


def algebra_inputs(k):
    ctx = field(k)
    rng = random.Random(100 + k)
    out = [a for a in corpus_small() if a.ctx is ctx]
    out += [make_D(ctx, ctx.rand(rng), ctx.rand(rng), ctx.rand(rng)) for _ in range(3)]
    out.append(make_D(ctx, 0, 0, 0))
    out += product_algebras(ctx)
    return out


def dense_products(k):
    """Products of local factors in a random basis, as decompose meets them: n = 10, 12, 14."""
    if k not in (1, 8, 16):
        return []
    ctx = field(k)
    rng = random.Random(400 + k)
    d = make_D(ctx, ctx.rand(rng), ctx.rand(rng), ctx.rand(rng))
    factors = [
        [d, truncated_poly_algebra(ctx, 3)],
        [d, tiny_d_algebra(ctx), truncated_poly_algebra(ctx, 2)],
        [d, truncated_poly_algebra(ctx, 3), truncated_poly_algebra(ctx, 4)],
    ]
    return [dense_rebase(direct_product_many(fs)[0], rng) for fs in factors]


def assoc_only_corruptions(k):
    """d = 0 algebras, sparse and dense, with one entry of some e_i e_i, i > 0, changed."""
    ctx = field(k)
    rng = random.Random(600 + k)
    t = [truncated_poly_algebra(ctx, m) for m in (2, 3, 4)]
    bases = [t[2], direct_product_many(t)[0], dense_rebase(direct_product_many(t[1:])[0], rng)]
    out = []
    for a in bases:
        for _ in range(3):
            out.append(square_corrupted(a, rng.randrange(1, a.n), rng.randrange(a.n), ctx.rand_nonzero(rng)))
    return out


@pytest.fixture
def middle_sizes(monkeypatch):
    """Records len(middle) of every associativity scan."""
    sizes = []
    scan = AssocAlgebra2._assoc_failures

    def spy(self, cols, middle):
        sizes.append(len(middle))
        return scan(self, cols, middle)

    monkeypatch.setattr(AssocAlgebra2, "_assoc_failures", spy)
    return sizes


@pytest.fixture
def twisted_rows(monkeypatch):
    """Records len(rows) of every twisted-commutativity scan."""
    sizes = []
    scan = DAlgebra._twisted_failures

    def spy(self, dterms, rows):
        sizes.append(len(rows))
        return scan(self, dterms, rows)

    monkeypatch.setattr(DAlgebra, "_twisted_failures", spy)
    return sizes


@pytest.fixture
def multiplicative_rows(monkeypatch):
    """Records len(rows) of every multiplicativity scan of verify_morphism."""
    sizes = []
    scan = algebra._multiplicative_failures

    def spy(m, fterms, rows):
        sizes.append(len(rows))
        return scan(m, fterms, rows)

    monkeypatch.setattr(algebra, "_multiplicative_failures", spy)
    return sizes


# -- the comparisons ------------------------------------------------------------


@pytest.mark.parametrize("k", KS)
def test_verify_matches_dense_loops(k, middle_sizes):
    rng = random.Random(k)
    failing = passing = 0
    cases = [v for a in algebra_inputs(k) for v in variants(a, rng)]
    # the dense loops are slow at n = 14, so these take one edit of each kind
    cases += [v for a in dense_products(k) for v in (a, perturbed(a, rng, 1, 1))]
    for v in cases:
        got = v.verify()
        assert str(got) == str(dense_verify(v))
        if got.passed:
            passing += 1
        else:
            failing += 1
    assert failing > 10 and passing > 3
    # the reduced scan, not the fallback, meets these corruptions first
    broken = 0
    for v in assoc_only_corruptions(k):
        middle_sizes.clear()
        got = v.verify()
        assert str(got) == str(dense_verify(v))
        assert middle_sizes[0] < v.n
        assert {f.axiom for f in got.failures} <= {"associativity"}
        broken += not got.passed
    assert broken >= 6


def every_d(a):
    """a with each d on GF(2)^3 that has d(1) = 0."""
    ctx = a.ctx
    for bits in range(1 << 6):
        cols = [[0, 0, 0]] + [[bits >> (3 * c + m) & 1 for m in range(3)] for c in range(2)]
        yield type(a)(ctx, a.tensor, Matrix.from_cols(ctx, cols, 3))


def test_verify_matches_dense_loops_on_every_gf2_dim3_algebra(middle_sizes):
    ctx = field(1)
    associative, one_failure = [], []
    for a in unital_gf2_dim3():
        middle_sizes.clear()
        got = a.verify()
        assert str(got) == str(dense_verify(a))
        assert middle_sizes[0] < a.n
        if len(got.failures) <= 1:
            (one_failure if got.failures else associative).append(a)
    assert (len(associative), len(one_failure)) == (76, 32)
    # every d with d(1) = 0, derivation or not, square-zero or not; on the
    # algebras with one failing triple, a d that is not a derivation would
    # let a reduced scan miss it
    for a in associative + one_failure:
        for v in every_d(a):
            assert str(v.verify()) == str(dense_verify(v))


def test_twisted_law_matches_dense_loops_on_every_gf2_dim3_d_algebra(twisted_rows):
    # the twisted scan is reduced exactly when the associative laws pass,
    # which needs an associative tensor; every d is tried on those
    reduced = 0
    candidates = []
    for a in unital_gf2_dim3(DAlgebra):
        got = a.verify()
        assert str(got) == str(dense_verify(a))
        if not {f.axiom for f in got.failures} - {"d_commutativity"}:
            candidates.append(a)
    assert len(candidates) == 76
    for a in candidates:
        for v in every_d(a):
            twisted_rows.clear()
            got = v.verify()
            assert str(got) == str(dense_verify(v))
            if not {f.axiom for f in got.failures} - {"d_commutativity"}:
                assert twisted_rows[0] < v.n
                reduced += 1
    assert reduced > 100


@pytest.mark.parametrize("k", KS)
def test_twisted_law_falls_back_on_commutative_algebras_with_d(k, twisted_rows):
    # commutative, associative, d a square-zero derivation: only the twisted
    # law fails, so the reduced scan finds it and the full scan reports it
    ctx = field(k)
    rng = random.Random(700 + k)
    tiny, t2 = tiny_d_algebra(ctx), truncated_poly_algebra(ctx, 2)
    square = commutative_tensor(tiny, tiny)
    for a in (square, dense_rebase(square, rng), commutative_tensor(tiny, commutative_tensor(tiny, t2))):
        twisted_rows.clear()
        got = a.verify()
        assert str(got) == str(dense_verify(a))
        assert got.failures and {f.axiom for f in got.failures} == {"d_commutativity"}
        assert twisted_rows == [len(a.generators()), a.n] and twisted_rows[0] < a.n


def random_morphism(src, tgt, rng):
    ctx = src.ctx
    cols = [tgt.unit_vec()] + [rand_vec(tgt, rng) for _ in range(src.n - 1)]
    if rng.random() < 0.3:
        cols[0] = rand_vec(tgt, rng)
    return Morphism(src, tgt, Matrix.from_cols(ctx, cols, tgt.n))


@pytest.mark.parametrize("k", KS)
def test_verify_morphism_matches_dense_loops(k):
    rng = random.Random(200 + k)
    ctx = field(k)
    algs = algebra_inputs(k)
    failing = passing = 0
    cases = []
    # verified isomorphisms: random changes of basis, and their inverses
    for a in algs:
        # a onto itself with d = 0: unital and multiplicative, and
        # d-equivariant only when d is already 0
        flat = type(a)(ctx, a.tensor, Matrix.zeros(ctx, a.n, a.n), a.unit_idx)
        cases.append(Morphism(a, flat, Matrix.identity(ctx, a.n)))
        rows = [a.unit_vec()] + [rand_vec(a, rng) for _ in range(a.n - 1)]
        if Subspace(ctx, a.n, rows).dim != a.n:
            continue
        b, phi = change_basis(a, rows)
        cases += [phi, Morphism(a, b, phi.mat.inverse())]
        # the same map into a perturbed target, and into a with d = 0
        cases.append(Morphism(b, perturbed(a, rng, 1, 1), phi.mat))
        cases.append(Morphism(b, flat, phi.mat))
    # random linear maps, between equal and unequal dimensions
    for _ in range(40):
        src, tgt = rng.choice(algs), rng.choice(algs)
        cases.append(random_morphism(src, tgt, rng))
    only_d = 0
    for m in cases:
        for iso in (False, True):
            got = verify_morphism(m, require_iso=iso)
            assert str(got) == str(dense_verify_morphism(m, require_iso=iso))
            if got.passed:
                passing += 1
            else:
                failing += 1
        only_d += [f.axiom for f in got.failures] == ["d_equivariant"]
    assert failing > 10 and passing > 10 and only_d > 5


def random_combination(ctx, rows, n, rng):
    out = [0] * n
    for row in rows:
        c = ctx.rand(rng)
        out = [x ^ ctx.mul(c, y) for x, y in zip(out, row)]
    return out


def unital_equivariant_perturbation(m: Morphism, rng) -> Morphism:
    """m + v lambda with v in Ker(d) of the target and lambda vanishing on 1
    and on Im(d) of the source: unital and d-equivariant whenever m is, and
    seldom multiplicative."""
    src, tgt = m.source, m.target
    ctx = src.ctx
    lams = nullspace_rows(ctx, [src.dmat.col(j) for j in range(src.n)] + [src.unit_vec()], src.n)
    lam = random_combination(ctx, lams, src.n, rng)
    v = random_combination(ctx, tgt.ker_d().rows, tgt.n, rng)
    rows = [[x ^ ctx.mul(vr, lc) for x, lc in zip(r, lam)] for r, vr in zip(m.mat.rows, v)]
    return Morphism(src, tgt, Matrix(ctx, rows, src.n))


def is_equivariant(m: Morphism) -> bool:
    return m.mat.mul(m.source.dmat) == m.target.dmat.mul(m.mat)


@pytest.mark.parametrize("k", KS)
def test_verify_morphism_on_generators_matches_dense_loops(k, multiplicative_rows):
    rng = random.Random(800 + k)
    ctx = field(k)
    cases = []  # (morphism, whether the scan may read the rows in J only)
    unverified = []
    for a in algebra_inputs(k):
        rows = [a.unit_vec()] + [rand_vec(a, rng) for _ in range(a.n - 1)]
        if Subspace(ctx, a.n, rows).dim != a.n:
            continue
        fresh, phi_fresh = change_basis(a, rows)
        b, phi = change_basis(a, rows)
        assert a.verify().passed and b.verify().passed
        # both endpoints hold a passing report, and the map is unital and equivariant
        cases += [(phi, True), (Morphism(a, b, phi.mat.inverse()), True)]
        cases.append((unital_equivariant_perturbation(phi, rng), True))
        # a source with no report yet
        cases.append((phi_fresh, False))
        unverified.append(fresh)
        broken = perturbed(a, rng, 1, 1)
        if not broken.verify().passed:
            cases.append((Morphism(b, broken, phi.mat), False))
        wild = random_morphism(b, a, rng)
        if not is_equivariant(wild):
            cases.append((wild, False))
        if a.n > 1:
            cols = [phi.mat.col(j) for j in range(a.n)]
            cols[0] = vec_xor(cols[0], a.basis_vec(a.n - 1))
            cases.append((Morphism(b, a, Matrix.from_cols(ctx, cols, a.n)), False))
    kinds = {reduced: 0 for reduced in (True, False)}
    fell_back = 0
    for m, reduced in cases:
        kinds[reduced] += 1
        for iso in (False, True):
            multiplicative_rows.clear()
            got = verify_morphism(m, require_iso=iso)
            assert str(got) == str(dense_verify_morphism(m, require_iso=iso))
            n = m.source.n
            if not reduced:
                assert multiplicative_rows == [n]
            elif any(f.axiom == "multiplicative" for f in got.failures):
                assert multiplicative_rows == [len(m.source.generators()), n]
                fell_back += 1
            else:
                assert multiplicative_rows == [len(m.source.generators())]
    assert kinds[True] > 20 and kinds[False] > 20 and fell_back > 4
    # verify_morphism starts no verify of its own
    assert all(fresh._report is None for fresh in unverified)


def lie_inputs(k):
    ctx = field(k)
    return [
        commutator_lie(gl_object(2, Matrix(ctx, [[0, 1], [0, 0]]))),
        commutator_lie(gl_object(2, Matrix.zeros(ctx, 2, 2))),
        commutator_lie(gl_object(3, Matrix(ctx, [[0, 0, 1], [0, 0, 0], [0, 0, 0]]))),
        LieAlgebra2(ctx, [[[0] * 3 for _ in range(3)] for _ in range(3)], [[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    ]


@pytest.mark.parametrize("k", KS)
def test_verify_lie_matches_dense_loops(k):
    rng = random.Random(300 + k)
    failing = passing = 0
    for L in lie_inputs(k):
        for v in variants(L, rng):
            got, want = verify_lie(v), dense_verify_lie(v)
            assert str(got) == str(want) and got.notes == want.notes
            if got.passed:
                passing += 1
            else:
                failing += 1
    assert failing > 5 and passing > 2


@pytest.mark.parametrize("k", (1, 2, 4, 8))
def test_jacobi_seven_term_matches_dense_loop(k):
    rng = random.Random(500 + k)
    failing = passing = 0
    for L in lie_inputs(k):
        for v in variants(L, rng):
            got = jacobi_seven_term_check(v)
            assert str(got) == str(dense_jacobi_seven_term_check(v))
            if got.passed:
                passing += 1
            else:
                failing += 1
    assert failing > 3 and passing > 3


# -- term lists stay in step with the tensor --------------------------------------


def test_center_matches_the_stacked_oracle():
    e01 = Matrix(field(8), [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    gl3 = gl_object(3, e01)
    assert type(gl3) is AssocAlgebra2 and gl3.center() == stacked_center(gl3) and gl3.center().dim == 1
    for k in KS:
        ctx = field(k)
        rng = random.Random(900 + k)
        for _ in range(3):
            d = make_D(ctx, ctx.rand(rng), ctx.rand(rng), ctx.rand(rng))
            assert d.center() == stacked_center(d) and d.center().dim == 5
        for a in dense_products(k):
            assert a.center() == stacked_center(a)


def nonzero_terms(a):
    return [[[(m, x) for m, x in enumerate(v) if x] for v in row] for row in a.tensor]


def snapshot(a):
    return [[list(v) for v in row] for row in a.tensor], [list(r) for r in a.dmat.rows]


def test_library_leaves_tensor_and_terms_consistent():
    rng = random.Random(5)
    ctx = field(8)
    # the last corpus entry, GF(4) over GF(2), does not split
    inputs = corpus_small()[:-1:5]
    inputs += product_algebras(ctx)
    for a in inputs:
        before = snapshot(a)
        dec = decompose(a)
        lemma_suite(a)
        touched = [a, dec.iso.source, dec.iso.target] + list(dec.factors)
        assert snapshot(a) == before
        for b in touched:
            assert b.terms == nonzero_terms(b)
    for _ in range(4):
        a = random_dim7(rng)
        before = snapshot(a)
        res = normalize7(a)
        lemma_suite(a)
        assert snapshot(a) == before
        for b in (a, res.algebra, res.canonical, res.morphism.source, res.morphism.target):
            assert b.terms == nonzero_terms(b)
