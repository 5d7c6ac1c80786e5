"""Vectors, matrices, Gauss-Jordan reduction and the Hankel locator read-off.

Structural results (determinants, null spaces) are checked against small
independent oracles: permutation-expansion determinants and direct
substitution.
"""

import itertools
import random

import pytest

from alternant.galois import extension, prime_field
from alternant.linalg import (
    MalformedSyndromeStructure,
    Mat,
    SingularSystem,
    Vec,
    expand,
    gauss_jordan,
    gj_locator,
    hankel_matrix,
    null_space,
    rank,
    solve_square,
    vandermonde,
)

Z2 = prime_field(2)
Z5 = prime_field(5)
Z13 = prime_field(13)
F25, gen25 = extension(Z5, [3, 0, 1], gen_label="x")
F32, gen32 = extension(Z2, [1, 0, 1, 0, 0, 1])


def _rand_mat(F, nr, nc, rng):
    return Mat(F, [[rng.randrange(F.q) for _ in range(nc)] for _ in range(nr)])


def _det_permutation(M):
    """Leibniz determinant; independent of the elimination code."""
    F = M.field
    n = M.nrows
    assert M.ncols == n
    total = F.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = F.one
        for i in range(n):
            term = term * M.row(i)[perm[i]]
        total = total + (-term if inversions % 2 else term)
    return total


# -- vectors ------------------------------------------------------------------

def test_vec_basics():
    v = Vec.of(Z13, [0, 5, 0, 7])
    assert len(v) == 4
    assert v[1] == Z13.element(5)
    assert v.weight() == 2
    assert v.support() == (1, 3)
    assert not v.is_zero
    assert Vec(Z13, (0, 0)).is_zero
    assert v[1:3] == Vec(Z13, (5, 0))
    assert list(v)[3] == Z13.element(7)
    assert str(v) == "[0, 5, 0, 7]"
    assert repr(v) == "Vec[Z13][0, 5, 0, 7]"


def test_vec_of_parses_tokens():
    v = Vec.of(F32, ["a**3", "0", "1", [1, 1]])
    assert v[0] == gen32 ** 3
    assert v[3] == gen32 + 1
    w = Vec.of(F32, v)
    assert w is v
    with pytest.raises(TypeError):
        Vec.of(Z13, Vec(Z5, (1, 2)))


def test_vec_arithmetic():
    a = Vec(Z13, (1, 2, 3))
    b = Vec(Z13, (12, 5, 0))
    assert a + b == Vec(Z13, (0, 7, 3))
    assert a - b == Vec(Z13, (2, 10, 3))
    with pytest.raises(ValueError):
        a + Vec(Z13, (1, 2))
    with pytest.raises(TypeError):
        a + Vec(Z5, (1, 2, 3))
    with pytest.raises(ValueError):
        Vec(Z13, ())


def test_vec_mat_product():
    M = Mat.of(Z13, [[1, 2], [3, 4], [5, 6]])
    v = Vec(Z13, (1, 1, 1))
    assert v @ M == Vec(Z13, (9, 12))
    assert M @ Vec(Z13, (1, 1)) == Vec(Z13, (3, 7, 11))
    with pytest.raises(ValueError):
        Vec(Z13, (1, 1)) @ M


def test_row_and_column_products_agree():
    rng = random.Random(3)
    for _ in range(25):
        M = _rand_mat(Z13, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        v = Vec(Z13, [rng.randrange(13) for _ in range(M.ncols)])
        assert M @ v == v @ M.transpose()


# -- matrices -----------------------------------------------------------------

def test_mat_basics():
    M = Mat.of(Z13, [[1, 2, 3], [4, 5, 6]])
    assert M.shape == (2, 3)
    assert M.row(0) == Vec(Z13, (1, 2, 3))
    assert M.transpose().transpose() == M
    assert Mat.of(Z13, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) @ M.transpose() == M.transpose()
    with pytest.raises(ValueError):
        Mat(Z13, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat(Z13, [], ncols=None)
    empty = Mat(Z13, [], ncols=4)
    assert empty.shape == (0, 4)


def test_mat_refusals():
    with pytest.raises(ValueError, match="ncols disagrees"):
        Mat(Z13, [[1, 2]], ncols=3)
    with pytest.raises(ValueError, match="at least one column"):
        Mat(Z13, [[], []])
    with pytest.raises(ValueError, match="at least one column"):
        Mat(Z13, [], ncols=0)
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.of(Z13, [[1, 2], [3, 4], [5, 6]]) @ Vec(Z13, (1, 1, 1))


def test_mat_display_and_hash():
    M = Mat.of(Z13, [[1, 12], [10, 3]])
    assert str(M) == "[[ 1 12]\n [10  3]]"
    assert repr(M) == "Mat[Z13 2x2]\n[[ 1 12]\n [10  3]]"
    assert str(Mat(Z13, [], ncols=3)) == "[[]] (0x3)"
    assert repr(Mat(Z13, [], ncols=3)) == "Mat[Z13 0x3]\n[[]] (0x3)"
    assert str(Mat.of(F32, [["a", 1, 0]])) == "[[a 1 0]]"
    assert hash(M) == hash(Mat.of(Z13, [[1, -1], [10, 3]]))
    assert len({M, Mat.of(Z13, [[1, -1], [10, 3]]), M.transpose()}) == 2


def test_mat_product_associative():
    rng = random.Random(9)
    for _ in range(20):
        A = _rand_mat(F25, 2, 3, rng)
        B = _rand_mat(F25, 3, 2, rng)
        C = _rand_mat(F25, 2, 4, rng)
        assert (A @ B) @ C == A @ (B @ C)
    with pytest.raises(ValueError):
        _rand_mat(Z13, 2, 3, rng) @ _rand_mat(Z13, 2, 3, rng)


# -- structured constructors --------------------------------------------------

def test_vandermonde_entries():
    a = Vec.of(Z13, [2, 5, 6])
    V = vandermonde(4, a)
    assert V.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert V.row(i)[j] == a[j] ** i
    with pytest.raises(ValueError):
        vandermonde(0, a)


def test_vandermonde_determinant_oracle():
    rng = random.Random(21)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            codes = rng.sample(range(1, 13), n)
            a = Vec(Z13, codes)
            V = vandermonde(n, a)
            expected = Z13.one
            for i in range(n):
                for j in range(i + 1, n):
                    expected = expected * (a[j] - a[i])
            assert _det_permutation(V) == expected
            assert rank(V) == n
    # a repeated evaluation point collapses two columns
    assert rank(vandermonde(3, Vec(Z13, (2, 2, 7)))) == 2


def test_hankel_matrix():
    S = hankel_matrix(Vec(Z13, (5, 7, 7, 3)), 2)
    assert S == Mat.of(Z13, [[5, 7, 7], [7, 7, 3]])
    S1 = hankel_matrix(Vec(Z13, (9, 1, 3, 9)), 2)
    assert S1 == Mat.of(Z13, [[9, 1, 3], [1, 3, 9]])
    long = hankel_matrix(Vec(Z13, (1, 2, 3, 4, 5, 6, 7)), 3)
    assert long.rows == ((1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6))
    with pytest.raises(ValueError):
        hankel_matrix(Vec(Z13, (1, 2, 3)), 2)
    with pytest.raises(ValueError):
        hankel_matrix(Vec(Z13, (1, 2)), 0)


# -- gauss-jordan -------------------------------------------------------------

def test_gauss_jordan_known_reduction():
    res = gauss_jordan(Mat.of(Z13, [[9, 1, 3], [1, 3, 9]]))
    assert res.rank == 1
    assert res.pivots == (0,)
    assert res.rref == Mat.of(Z13, [[1, 3, 9], [0, 0, 0]])


def test_gauss_jordan_properties():
    rng = random.Random(17)
    for F in (Z13, F32):
        for _ in range(30):
            M = _rand_mat(F, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            res = gauss_jordan(M)
            # idempotent, pivot columns ascending, transpose has equal rank
            assert gauss_jordan(res.rref).rref == res.rref
            assert list(res.pivots) == sorted(res.pivots)
            assert res.rank == rank(M.transpose())
            # zero rows sink to the bottom
            seen_zero = False
            for row in res.rref.rows:
                if any(row):
                    assert not seen_zero
                else:
                    seen_zero = True
            # row space is preserved: every original row reduces to zero
            # against the rref basis
            stacked = Mat(F, res.rref.rows + M.rows, ncols=M.ncols)
            assert rank(stacked) == res.rank


def test_rank_edges():
    assert rank(Mat.of(Z13, [[0, 0], [0, 0]])) == 0
    assert rank(Mat.of(Z13, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == 4
    assert rank(Mat(Z13, [], ncols=3)) == 0


# -- locator read-off ---------------------------------------------------------

def test_gj_locator_single_error():
    S = Mat.of(Z13, [[9, 1, 3], [1, 3, 9]])
    assert gj_locator(S) == Vec(Z13, (3,))


def test_gj_locator_two_errors():
    S = Mat.of(Z13, [[5, 7, 7], [7, 7, 3]])
    assert gj_locator(S) == Vec(Z13, (11, 8))


def test_gj_locator_full_rank_nullvector():
    # 3x4 syndrome Hankel over F32, written as powers of the generator
    logs = [[22, 13, 14, 26], [13, 14, 26, 19], [14, 26, 19, 28]]
    S = Mat.of(F32, [[f"a**{k}" for k in row] for row in logs])
    v = gj_locator(S)
    assert len(v) == 3
    # [I | v] reduction means (-v, 1) spans the null space
    probe = Vec(F32, tuple((-x).code for x in v) + (1,))
    assert (S @ probe).is_zero


def test_gj_locator_malformed():
    with pytest.raises(MalformedSyndromeStructure):
        gj_locator(Mat.of(Z13, [[0, 0, 0], [0, 0, 0]]))
    with pytest.raises(MalformedSyndromeStructure):
        gj_locator(Mat.of(Z13, [[0, 1, 0], [0, 0, 1]]))
    with pytest.raises(MalformedSyndromeStructure):
        gj_locator(Mat.of(Z13, [[1]]))


# -- subfield expansion -------------------------------------------------------

def test_expand_identity_when_same_field():
    M = Mat.of(Z13, [[1, 2], [3, 4]])
    assert expand(M, Z13) is M


def test_expand_single_entry():
    M = Mat(F25, [[gen25.code]])
    assert expand(M, Z5) == Mat.of(Z5, [[0], [1]])
    assert expand(Mat.of(F25, [["[3, 2]"]]), Z5) == Mat.of(Z5, [[3], [2]])


def test_expand_shape_and_kernel():
    rng = random.Random(2)
    M = _rand_mat(F32, 3, 7, rng)
    E = expand(M, Z2)
    assert E.shape == (15, 7)
    # a base-field vector is annihilated by M iff it is annihilated by E
    for _ in range(50):
        v = Vec(Z2, [rng.randrange(2) for _ in range(7)])
        assert (M @ Vec(F32, v.codes)).is_zero == (E @ v).is_zero
    with pytest.raises(TypeError):
        expand(M, Z13)


# -- null space ---------------------------------------------------------------

def test_null_space_properties():
    rng = random.Random(31)
    for F in (Z13, F25):
        for _ in range(25):
            M = _rand_mat(F, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            N = null_space(M)
            assert N.nrows == M.ncols - rank(M)
            for i in range(N.nrows):
                assert (M @ N.row(i)).is_zero
            if N.nrows:
                assert rank(N) == N.nrows


def test_null_space_full_column_rank():
    N = null_space(Mat.of(Z13, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert N.shape == (0, 3)


# -- square solve -------------------------------------------------------------

def test_solve_square_reference():
    A = Mat.of(Z13, [[3, 5], [9, 12]])
    b = Vec(Z13, (5, 7))
    assert solve_square(A, b) == Vec(Z13, (3, 7))


def test_solve_square_random():
    rng = random.Random(41)
    solved = 0
    while solved < 20:
        n = rng.randrange(1, 5)
        A = _rand_mat(F25, n, n, rng)
        b = Vec(F25, [rng.randrange(25) for _ in range(n)])
        if rank(A) < n:
            with pytest.raises(SingularSystem):
                solve_square(A, b)
            continue
        x = solve_square(A, b)
        assert A @ x == b
        solved += 1


def test_solve_square_shape_errors():
    with pytest.raises(ValueError):
        solve_square(Mat.of(Z13, [[1, 2]]), Vec(Z13, (1,)))
    with pytest.raises(ValueError):
        solve_square(Mat.of(Z13, [[1, 0], [0, 1]]), Vec(Z13, (1, 2, 3)))
    with pytest.raises(SingularSystem):
        solve_square(Mat.of(Z13, [[1, 2], [2, 4]]), Vec(Z13, (1, 1)))
