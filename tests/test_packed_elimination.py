"""Gauss-Jordan on packed rows against the generic loop it replaced.

_gauss_jordan_reference is the elimination on rows of codes, one field
operation per entry.  Over every prime field gauss_jordan packs each row
into one int: over Z2 it reduces with XOR, over an odd Z_p with row
operations whose slots are taken mod p only when read.  The reduced form is
unique, so the whole GJResult must match the reference on seeded random
matrices over Z2 of every shape that stresses pivoting (the odd-p shapes are
in test_elimination_kernel.py).  Dimension, generator matrix and encodings
built on it must match the reference on every demo code and on the
benchmark's codes, over Z2, Z3, Z5, Z13, Z31 and extension fields.
"""

import random
from pathlib import Path

import pytest

from alternant.codespec import load_code
from alternant.demo import DEMO_NAMES, demo_code
from alternant.galois import prime_field
from alternant.linalg import GJResult, Mat, Vec, gauss_jordan

Z2 = prime_field(2)
BENCH_CODES = Path(__file__).resolve().parents[1] / "perfbench" / "codes"


def _gauss_jordan_reference(M):
    """Reduced row echelon form, first nonzero at or below the current row as pivot."""
    F = M.field
    a = [list(r) for r in M.rows]
    nrows, ncols = M.nrows, M.ncols
    mulc, subc, invc = F.mulc, F.subc, F.invc
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = invc(a[r][c])
        if inv != 1:
            a[r] = [mulc(inv, v) for v in a[r]]
        prow = a[r]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [subc(v, mulc(f, pv)) for v, pv in zip(a[i], prow)]
        pivots.append(c)
        r += 1
    return GJResult(r, Mat(F, a, ncols=ncols), tuple(pivots))


def _bits(rng, n, density=0.5):
    return [int(rng.random() < density) for _ in range(n)]


def _matrices():
    """(label, matrix) pairs over Z2, seeded."""
    rng = random.Random(2)
    yield "zero 5x7", Mat(Z2, [[0] * 7] * 5)
    yield "zero 0x4", Mat(Z2, [], ncols=4)
    yield "one row 1x1", Mat(Z2, [[1]])
    yield "one zero row", Mat(Z2, [[0] * 9])
    yield "one row, last column only", Mat(Z2, [[0] * 8 + [1]])
    for n in (1, 6, 33, 70):
        yield f"one row 1x{n}", Mat(Z2, [_bits(rng, n)])
    for trial in range(6):
        nrows, ncols = rng.randrange(4, 20), rng.randrange(4, 40)
        rows = [_bits(rng, ncols, rng.random()) for _ in range(nrows)]
        rows[rng.randrange(nrows)] = [0] * ncols
        rows.append(list(rows[rng.randrange(nrows)]))  # a duplicate
        rows.insert(0, list(rows[-1]))  # and one above the original
        rng.shuffle(rows)
        yield f"duplicate and zero rows {trial}", Mat(Z2, rows)
    for trial in range(6):
        ncols = rng.randrange(8, 50)
        basis = [_bits(rng, ncols) for _ in range(3)]
        rows = []
        for _ in range(rng.randrange(5, 25)):  # each row a random combination of the basis
            row = [0] * ncols
            for b in basis:
                if rng.random() < 0.5:
                    row = [x ^ y for x, y in zip(row, b)]
            rows.append(row)
        yield f"rank deficient {trial}", Mat(Z2, rows)


def _full_rank(nrows, ncols, rng):
    """A random Z2 matrix of rank min(nrows, ncols), drawn again until it has it."""
    while True:
        M = Mat(Z2, [_bits(rng, ncols) for _ in range(nrows)])
        if _gauss_jordan_reference(M).rank == min(nrows, ncols):
            return M


@pytest.mark.parametrize("M", [pytest.param(M, id=label) for label, M in _matrices()])
def test_packed_elimination_matches_reference(M):
    assert gauss_jordan(M) == _gauss_jordan_reference(M)


@pytest.mark.parametrize("nrows, ncols", [(1, 1), (5, 5), (8, 40), (20, 64), (40, 8), (70, 33)],
                         ids=str)
def test_packed_elimination_matches_reference_at_full_rank(nrows, ncols):
    M = _full_rank(nrows, ncols, random.Random(nrows * 100 + ncols))
    res = gauss_jordan(M)
    assert res == _gauss_jordan_reference(M)
    assert res.rank == min(nrows, ncols)


def _reference_code(C):
    """k and G of C from the reference elimination of H expanded over the base field."""
    F, K, n = C.ext_field, C.base_field, C.n
    rows = C.H.rows if K == F else [c for row in C.H.rows for c in zip(*map(F.coords_code, row))]
    res = _gauss_jordan_reference(Mat(K, rows, ncols=n))
    G = []
    for f in (j for j in range(n) if j not in res.pivots):
        x = [0] * n
        x[f] = 1
        for i, pc in enumerate(res.pivots):
            x[pc] = K.negc(res.rref.rows[i][f])
        G.append(x)
    return n - res.rank, Mat(K, G, ncols=n)


def _codes():
    for name in DEMO_NAMES:
        yield demo_code(name)
    for path in sorted(BENCH_CODES.glob("*.json")):
        yield load_code(path)


@pytest.mark.parametrize("C", list(_codes()), ids=lambda C: C.describe())
def test_code_dimension_generator_and_encode_match_reference(C):
    k, G = _reference_code(C)
    assert C.k == k
    assert C.generator_matrix() == G
    K, rng = C.base_field, random.Random(C.n)
    for _ in range(3):
        msg = [rng.randrange(K.q) for _ in range(k)]
        expect = [0] * C.n
        for m, row in zip(msg, G.rows):
            if m:
                expect = [K.addc(e, K.mulc(m, g)) for e, g in zip(expect, row)]
        assert list(C.encode(Vec(K, msg)).codes) == expect
