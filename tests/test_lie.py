import random

import pytest

from dalg import BadDifferential, Matrix, field
from dalg.dim7 import make_D
from dalg.lie import (
    LieAlgebra2,
    abelian_lie,
    commutator_lie,
    gl_object,
    jacobi_seven_term_check,
    verify_lie,
)

from helpers import rand_vec, tiny_d_algebra, truncated_poly_algebra

rng = random.Random(0x11E)


def jordan_gl2(ctx):
    n2 = Matrix(ctx, [[0, 1], [0, 0]])
    return gl_object(2, n2)


def ad_matrix(L, x):
    """ad_x as a matrix: column j is [x, e_j]."""
    return Matrix.from_cols(L.ctx, [L.bracket(x, L.basis_vec(j)) for j in range(L.n)], L.n)


# ------------------------------------------------------------------- basics


def test_bracket_of_zero():
    L = abelian_lie(field(4), 3)
    x = [1, 2, 3]
    assert L.bracket(x, [0] * L.n) == [0] * L.n
    assert L.bracket([0] * L.n, x) == [0] * L.n


def test_abelian_passes_with_any_square_zero_d():
    ctx = field(2)
    dmat = Matrix(ctx, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    L = abelian_lie(ctx, 3, dmat)
    assert verify_lie(L).passed
    assert jacobi_seven_term_check(L).passed


def test_ad_matrix_columns():
    ctx = field(4)
    A = jordan_gl2(ctx)
    L = commutator_lie(A)
    x = rand_vec(L, rng)
    ad = ad_matrix(L, x)
    for j in range(L.n):
        # column j is the braided commutator x e_j + e_j x + d(e_j) d(x) in A
        e = A.basis_vec(j)
        want = [p ^ q ^ r for p, q, r in zip(A.mul(x, e), A.mul(e, x), A.mul(A.d(e), A.d(x)))]
        assert ad.col(j) == want


# -------------------------------------------------------------- gl_object


def test_gl_object_classical_when_dv_zero():
    ctx = field(2)
    A = gl_object(2, Matrix.zeros(ctx, 2, 2))
    assert A.n == 4
    assert A.verify().passed
    assert A.dmat.is_zero()


def test_gl_object_jordan_differential():
    ctx = field(2)
    A = jordan_gl2(ctx)
    assert A.verify().passed
    # basis order: identity, E12, E21, E22
    assert A.d(A.basis_vec(0)) == [0, 0, 0, 0]
    assert A.d(A.basis_vec(1)) == [0, 0, 0, 0]
    assert A.d(A.basis_vec(2)) == [1, 0, 0, 0]
    assert A.d(A.basis_vec(3)) == [0, 1, 0, 0]
    assert A.dmat.mul(A.dmat).is_zero()


def test_gl_object_rejects_bad_differential():
    ctx = field(2)
    with pytest.raises(BadDifferential):
        gl_object(2, Matrix.identity(ctx, 2))


def test_gl_object_products_match_matrix_products():
    ctx = field(8)
    A = jordan_gl2(ctx)
    # E21 * E12 = E22, via coordinates
    e21, e12 = A.basis_vec(2), A.basis_vec(1)
    assert A.mul(e21, e12) == A.basis_vec(3)
    # E12 * E21 = E11 = I + E22
    prod = A.mul(e12, e21)
    assert prod == [1, 0, 0, 1]


# --------------------------------------------------------- commutator_lie


def test_commutator_of_d_algebras_is_abelian():
    for a in (
        tiny_d_algebra(field(4)),
        truncated_poly_algebra(field(2), 3),
        make_D(field(2), 0, 0, 0),
        make_D(field(4), 1, 2, 3),
    ):
        L = commutator_lie(a)
        assert L.is_abelian()
        assert verify_lie(L).passed


def test_commutator_of_gl2_is_nonabelian_and_passes():
    ctx = field(4)
    L = commutator_lie(jordan_gl2(ctx))
    assert not L.is_abelian()
    assert verify_lie(L).passed
    assert jacobi_seven_term_check(L).passed


def test_commutator_bracket_formula():
    ctx = field(4)
    A = jordan_gl2(ctx)
    L = commutator_lie(A)
    for _ in range(30):
        x = rand_vec(A, rng)
        y = rand_vec(A, rng)
        expected = [
            p ^ q ^ r
            for p, q, r in zip(
                A.mul(x, y), A.mul(y, x), A.mul(A.d(y), A.d(x))
            )
        ]
        assert L.bracket(x, y) == expected


def test_ad_identity_on_random_pairs():
    # ad_x ad_y + ad_y ad_x + ad_dy ad_dx = ad_[x,y]
    ctx = field(4)
    L = commutator_lie(jordan_gl2(ctx))
    for _ in range(25):
        x = rand_vec(L, rng)
        y = rand_vec(L, rng)
        lhs = (
            ad_matrix(L, x)
            .mul(ad_matrix(L, y))
            .add(ad_matrix(L, y).mul(ad_matrix(L, x)))
            .add(ad_matrix(L, L.d(y)).mul(ad_matrix(L, L.d(x))))
        )
        assert lhs == ad_matrix(L, L.bracket(x, y))


def test_classical_jacobi_on_kernel_pairs():
    # for x, y in Ker(d) the twist dies and the classical ad law remains
    ctx = field(2)
    L = commutator_lie(jordan_gl2(ctx))
    kernel = L.ker_d().rows
    for x in kernel:
        for y in kernel:
            lhs = ad_matrix(L, x).mul(ad_matrix(L, y)).add(
                ad_matrix(L, y).mul(ad_matrix(L, x))
            )
            assert lhs == ad_matrix(L, L.bracket(x, y))


# ------------------------------------------------- axiom failures, witnesses


def axiom4_violator(ctx):
    # [a,a] = b with d = 0: passes the bilinear laws, fails the alternating one
    n = 2
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    tensor[0][0] = [0, 1]
    return LieAlgebra2(ctx, tensor, Matrix.zeros(ctx, n, n))


def test_axiom4_violator_fails_only_alternating():
    L = axiom4_violator(field(2))
    rep = verify_lie(L)
    assert not rep.passed
    names = {f.axiom for f in rep.failures}
    assert names == {"alternating_on_kernel"}
    assert jacobi_seven_term_check(L).passed


def test_seven_term_equivalence_fuzz():
    # with d = 0 and a symmetric tensor, axioms 1-2 hold; the two Jacobi
    # checkers must then agree on every random bracket
    ctx = field(1)
    n = 3
    agreements = {True: 0, False: 0}
    heisenberg = [[[0] * n for _ in range(n)] for _ in range(n)]
    heisenberg[0][1] = [0, 0, 1]
    heisenberg[1][0] = [0, 0, 1]
    seeds = [
        [[[0] * n for _ in range(n)] for _ in range(n)],
        heisenberg,
    ]
    for trial in range(60):
        if trial < len(seeds):
            tensor = seeds[trial]
        else:
            tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = [rng.randrange(2) for _ in range(n)]
                    tensor[i][j] = list(v)
                    tensor[j][i] = list(v)
        L = LieAlgebra2(ctx, tensor, Matrix.zeros(ctx, n, n))
        jac3 = all(f.axiom != "twisted_jacobi" for f in verify_lie(L).failures)
        jac7 = jacobi_seven_term_check(L).passed
        assert jac3 == jac7
        agreements[jac7] += 1
    assert agreements[False] > 0
    assert agreements[True] > 0


def test_seven_term_equivalence_with_nonzero_d():
    # gl2-commutator has Im(d) on coordinates 0,1 and the d-free block on
    # 2,3; perturbing the d-free block by kernel vectors keeps axioms 1-2
    # (deltas cancel in pairs and die under d) while scrambling Jacobi
    ctx = field(2)
    L = commutator_lie(jordan_gl2(ctx))
    assert verify_lie(L).passed
    broke = 0
    for _ in range(30):
        tensor = [[list(v) for v in row] for row in L.tensor]
        i = 2 + rng.randrange(2)
        j = 2 + rng.randrange(2)
        m = rng.randrange(2)
        tensor[i][j][m] ^= 1
        if i != j:
            tensor[j][i][m] ^= 1
        P = LieAlgebra2(ctx, tensor, L.dmat)
        rep = verify_lie(P)
        assert all(f.axiom != "twisted_antisymmetry" for f in rep.failures)
        assert all(f.axiom != "bracket_derivation" for f in rep.failures)
        jac3 = all(f.axiom != "twisted_jacobi" for f in rep.failures)
        assert jac3 == jacobi_seven_term_check(P).passed
        broke += not jac3
    assert broke > 0


def test_derivation_failure_detected():
    ctx = field(2)
    L = commutator_lie(jordan_gl2(ctx))
    tensor = [[list(v) for v in row] for row in L.tensor]
    tensor[2][3][0] ^= 1
    broken = LieAlgebra2(ctx, tensor, L.dmat)
    rep = verify_lie(broken)
    assert not rep.passed
