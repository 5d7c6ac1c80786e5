"""gauss_jordan, gj_locator and solve_square against the loops they replaced.

gj_locator and solve_square run one forward elimination to row echelon
form and back-substitute the one column they read; gauss_jordan runs the
same pass over extension fields and then clears above each pivot from the
bottom up.  Over an odd Z_p gauss_jordan works on packed rows instead, one
slot per column, reduced mod p only when a row becomes the pivot row and at
the end; FIELDS has a prime field at each slot width, 8, 16, 32 and 64 bits.
The _reference functions below are the full Gauss-Jordan loop all three ran
before, kept here verbatim.  Every path takes the same pivots and the
reduced form is unique, so the whole GJResult, every locator and every
solution must match, and so must the class and message of every exception.
null_space, handed either reduction, must give the basis it finds by
eliminating the matrix itself.
"""

import random
from pathlib import Path

import pytest

from alternant.codespec import load_code
from alternant.demo import DEMO_NAMES, demo_code
from alternant.galois import extension, get_irreducible_polynomial, prime_field
from alternant.linalg import (
    GJResult, MalformedSyndromeStructure, Mat, SingularSystem, Vec,
    _SLOT_BYTES, _slot_type, gauss_jordan, gj_locator, hankel_matrix, null_space, solve_square,
)
from alternant.pgz import random_error_vector

BENCH_CODES = Path(__file__).resolve().parents[1] / "perfbench" / "codes"


def _gauss_jordan_reference(M):
    """Reduced row echelon form: each pivot clears its column above and below at once."""
    F = M.field
    nrows, ncols = M.nrows, M.ncols
    pivots = []
    a = [list(r) for r in M.rows]
    exp, log, addc, negc, n = F.exp, F.log, F.addc, F.negc, F.q - 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        lead = n - log[prow[c]]
        logs = [(log[v] + lead) % n if v else -1 for v in prow[c + 1:]]
        prow[c], prow[c + 1:] = 1, [exp[k] if k >= 0 else 0 for k in logs]
        for i in range(nrows):
            row = a[i]
            if i != r and row[c]:
                lf = log[negc(row[c])]
                row[c], row[c + 1:] = 0, map(addc, row[c + 1:],
                                             [exp[lf + k] if k >= 0 else 0 for k in logs])
        pivots.append(c)
        r += 1
    return GJResult(r, Mat(F, a, ncols=ncols), tuple(pivots))


def _gj_locator_reference(S):
    res = _gauss_jordan_reference(S)
    l = res.rank
    if l == 0:
        raise MalformedSyndromeStructure(
            "syndrome Hankel matrix reduced to rank 0")
    if res.pivots != tuple(range(l)):
        raise MalformedSyndromeStructure(
            f"pivot columns {res.pivots} deviate from (0..{l - 1})")
    if l >= S.ncols:
        raise MalformedSyndromeStructure(
            f"rank {l} leaves no locator column in a {S.nrows}x{S.ncols} matrix")
    return Vec(S.field, (res.rref.rows[i][l] for i in range(l)))


def _solve_square_reference(A, b):
    n = A.nrows
    aug = Mat(A.field, (row + (bc,) for row, bc in zip(A.rows, b.codes)), ncols=n + 1)
    res = _gauss_jordan_reference(aug)
    if res.rank != n or res.pivots != tuple(range(n)):
        raise SingularSystem(f"{n}x{n} system is singular")
    return Vec(A.field, (res.rref.rows[i][n] for i in range(n)))


def _outcome(f, *args):
    """f's result, or the class and message of what it raised."""
    try:
        return f(*args)
    except (MalformedSyndromeStructure, SingularSystem) as exc:
        return type(exc), str(exc)


def _field(p, m):
    K = prime_field(p)
    return K if m == 1 else extension(K, get_irreducible_polynomial(K, m))[0]


FIELDS = [_field(p, m) for p, m in ((3, 1), (5, 1), (13, 1), (257, 1), (65521, 1),
                                    (2, 2), (3, 2), (5, 2))]
FIELDS += [load_code(BENCH_CODES / f"{name}.json").ext_field for name in ("bch255", "rs64")]


def _combination(F, rows, ncols, rng):
    """A random linear combination of rows (the zero row when there are none)."""
    out = [0] * ncols
    for row in rows:
        f = rng.randrange(F.q)
        out = [F.addc(x, F.mulc(f, y)) for x, y in zip(out, row)]
    return out


def _matrices(F):
    """(label, matrix) pairs over F, seeded: every shape that stresses pivoting."""
    rng = random.Random(F.q)

    def rand(nrows, ncols, zeros=0.0):
        return [[0 if rng.random() < zeros else rng.randrange(1, F.q) for _ in range(ncols)]
                for _ in range(nrows)]

    yield "zero 4x6", Mat(F, [[0] * 6] * 4)
    yield "zero 0x5", Mat(F, [], ncols=5)
    yield "one row 1x1", Mat(F, [[rng.randrange(1, F.q)]])
    yield "one row, last column only", Mat(F, [[0] * 6 + [rng.randrange(1, F.q)]])
    for trial in range(3):
        yield f"wide {trial}", Mat(F, rand(rng.randrange(2, 6), rng.randrange(7, 14), 0.2))
        yield f"tall {trial}", Mat(F, rand(rng.randrange(7, 14), rng.randrange(2, 6), 0.2))
        yield f"square {trial}", Mat(F, rand(*[rng.randrange(2, 9)] * 2))
        yield f"sparse {trial}", Mat(F, rand(rng.randrange(3, 10), rng.randrange(3, 10), 0.7))
    for trial in range(4):
        ncols = rng.randrange(3, 12)
        basis = rand(rng.randrange(1, 4), ncols, 0.3)
        rows = [_combination(F, basis, ncols, rng) for _ in range(rng.randrange(4, 10))]
        if trial % 2:  # a pivot-free column on the left and one in the middle
            rows = [[0] + row[:ncols // 2] + [0] + row[ncols // 2:] for row in rows]
        yield f"rank deficient {trial}", Mat(F, rows)


@pytest.mark.parametrize("M", [pytest.param(M, id=f"{F.name} {label}")
                               for F in FIELDS for label, M in _matrices(F)])
def test_gauss_jordan_matches_reference(M):
    assert gauss_jordan(M) == _gauss_jordan_reference(M)


@pytest.mark.parametrize("M", [pytest.param(M, id=f"{F.name} {label}")
                               for F in FIELDS for label, M in _matrices(F)])
def test_null_space_reads_a_given_reduction(M):
    """Handed a reduction, null_space gives the basis it finds by eliminating M itself."""
    N = null_space(M)
    assert null_space(gauss_jordan(M)) == N == null_space(_gauss_jordan_reference(M))
    assert N.nrows == M.ncols - gauss_jordan(M).rank
    if M.nrows:  # every basis row is in the kernel
        assert all((M @ N.row(i)).is_zero for i in range(N.nrows))


@pytest.mark.parametrize("p, size, width", [
    (3, 63, 8), (3, 64, 16), (5, 15, 8), (5, 16, 16), (65521, 1, 32), (65521, 2, 64),
])
def test_slot_width_boundaries(p, size, width):
    """Around each step of the slot width, on matrices whose min(nrows, ncols) is size.

    The width holds the largest lazy sum, (p - 1) + size (p - 1)^2.  In the
    staircase, rows e_i + (p - 1) e_(size-1) for i < size - 1 above
    (1, ..., 1, p - 1), the last row takes every pivot's row operation at the
    largest factor, so its last slot reaches (p - 1) + (size - 1) (p - 1)^2
    before it is read back.
    """
    F, rng = prime_field(p), random.Random(size * p)
    assert 8 * _SLOT_BYTES[_slot_type(p - 1 + size * (p - 1) ** 2)] == width
    staircase = [[int(j == i) for j in range(size - 1)] + [p - 1] for i in range(size - 1)]
    staircase.append([1] * (size - 1) + [p - 1])
    full_rank = None
    while full_rank is None or _gauss_jordan_reference(full_rank).rank < size:
        full_rank = Mat(F, [[rng.randrange(p) for _ in range(size + 3)] for _ in range(size)])
    for M in (Mat(F, staircase), full_rank, full_rank.transpose()):
        assert gauss_jordan(M) == _gauss_jordan_reference(M)


def _codes():
    for name in DEMO_NAMES:
        yield demo_code(name)
    for path in sorted(BENCH_CODES.glob("*.json")):
        yield load_code(path)


@pytest.mark.parametrize("C", list(_codes()), ids=lambda C: C.describe())
def test_gj_locator_matches_reference_on_code_hankels(C):
    rng = random.Random(C.n)
    for w in range(C.t + 2):
        for _ in range(4):
            S = hankel_matrix(C.syndrome(random_error_vector(C.base_field, C.n, w, rng)), C.t)
            assert _outcome(gj_locator, S) == _outcome(_gj_locator_reference, S)


Z13 = prime_field(13)


@pytest.mark.parametrize("rows", [
    [[0, 0, 0], [0, 0, 0]],  # rank 0
    [[0, 1, 0], [0, 0, 1]],  # pivots (1, 2)
    [[1]],  # no locator column
    [[1, 0], [0, 1]],
    [[0, 1, 0, 0], [0, 0, 0, 1]],  # every pivot column is named
    [[1, 2, 3, 4], [2, 4, 6, 9], [3, 6, 9, 1]],  # pivots (0, 3)
    [[9, 1, 3], [1, 3, 9]],  # one error
    [[5, 7, 7], [7, 7, 3]],  # two errors
], ids=str)
def test_gj_locator_matches_reference_on_fixtures(rows):
    S = Mat.of(Z13, rows)
    assert _outcome(gj_locator, S) == _outcome(_gj_locator_reference, S)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_solve_square_matches_reference(F):
    rng = random.Random(F.q + 1)
    singular = 0
    for trial in range(40):
        n = rng.randrange(1, 8)
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:  # one row depends on the others
            rows[0] = _combination(F, rows[1:], n, rng)
            k = rng.randrange(n)
            rows = rows[k:] + rows[:k]
        A, b = Mat(F, rows), Vec(F, [rng.randrange(F.q) for _ in range(n)])
        got = _outcome(solve_square, A, b)
        assert got == _outcome(_solve_square_reference, A, b)
        singular += isinstance(got, tuple)
    assert singular >= 5


def _sparse_pivot_rows(F, nrows, ncols, rng):
    """Rows whose pivot rows are mostly zero, in shuffled order: full rank, pivots 0..nrows-1.

    Row i starts at column i and has at most two more nonzero entries to its
    right; a third of the rows then get a multiple of an earlier row added,
    so that pivots have entries below them to clear.
    """
    rows = []
    for i in range(nrows):
        row = [0] * ncols
        row[i] = rng.randrange(1, F.q)
        for j in rng.sample(range(i + 1, ncols), min(rng.randrange(3), ncols - i - 1)):
            row[j] = rng.randrange(1, F.q)
        rows.append(row)
    for i in rng.sample(range(1, nrows), (nrows - 1) // 3 + 1) if nrows > 1 else ():
        f, j = rng.randrange(1, F.q), rng.randrange(i)
        rows[i] = [F.addc(x, F.mulc(f, y)) for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("F", [_field(2, 5), FIELDS[-2], FIELDS[-1], _field(5, 2),
                               _field(3, 4), Z13], ids=lambda F: F.name)
def test_sparse_pivot_rows_match_reference(F):
    """Row operations that touch only the pivot row's few nonzero columns."""
    rng = random.Random(F.q + 2)
    for trial in range(12):
        n = rng.randrange(1, 9)
        M = Mat(F, _sparse_pivot_rows(F, n, n + 1 + trial % 3 * 4, rng))
        assert gauss_jordan(M) == _gauss_jordan_reference(M)
        assert gauss_jordan(M.transpose()) == _gauss_jordan_reference(M.transpose())
        assert _outcome(gj_locator, M) == _outcome(_gj_locator_reference, M)
        A = Mat(F, _sparse_pivot_rows(F, n, n, rng))
        b = Vec(F, [rng.randrange(F.q) for _ in range(n)])
        assert _outcome(solve_square, A, b) == _outcome(_solve_square_reference, A, b)
