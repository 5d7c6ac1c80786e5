"""The packed LinearMap against the plain loop of field operations it replaced.

_dot is the loop Field.dot ran: a sum of products of paired codes, one field
operation at a time.  Syndromes, encodings and matrix products are checked
against it on every demo code, on random codes and matrices over prime
fields and over extensions of characteristic 2 and 3 of up to 256 elements
and beyond, and on inputs whose every coordinate is p - 1,
where the packed slot sums are widest.  The zero-column readout is checked
against it at every slot width, on matrices whose columns cancel on purpose.
A map called on some rows alone (at) must equal the dense call on the word
that is zero in every other row, and a syndrome on some positions alone the
syndrome of the scattered word.  Over an odd p the packed rows must equal
those packed by the per-entry coordinate reader they were built with before.
"""

import random
from array import array

import pytest

from alternant.codes import CodeError, bch, goppa, grs, rs
from alternant.demo import DEMO_NAMES, demo_code
from alternant.galois import extension, prime_field
from alternant.linalg import LinearMap, Mat, Vec, _pack_slots, _slot_type
from alternant.pgz import random_error_vector

Z2 = prime_field(2)
Z3 = prime_field(3)
Z257 = prime_field(257)
Z65521 = prime_field(65521)  # the largest prime below 2^16
F25, _ = extension(prime_field(5), [3, 0, 1])
F32, _ = extension(Z2, [1, 0, 1, 0, 0, 1])
F512, x512 = extension(Z2, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1])  # X of order 73
F243, _ = extension(Z3, [1, 2, 0, 0, 0, 1])
F729, _ = extension(Z3, [2, 1, 0, 0, 0, 0, 1])

FIELDS = [Z2, Z3, Z257, Z65521, F25, F32, F512, F243, F729]


def _dot(F, xs, ys):
    """Sum of the products of paired codes, one field operation at a time."""
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = F.addc(acc, F.mulc(x, y))
    return acc


def _times(xs, A):
    """x @ A, column by column."""
    return [_dot(A.field, xs, col) for col in zip(*A.rows)]


def _inputs(K, n, rng):
    """Random words over K, a sparse one, and the word whose coordinates are all p - 1."""
    words = [[rng.randrange(K.q) for _ in range(n)] for _ in range(4)]
    sparse = [0] * n
    sparse[rng.randrange(n)] = rng.randrange(1, K.q)
    return words + [sparse, [K.q - 1] * n]


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_map_matches_reference_loop(F):
    rng = random.Random(F.q)
    for K in dict.fromkeys((F, F.prime_subfield())):
        for nrows, ncols in ((1, 1), (3, 5), (17, 2), (40, 7)):
            A = Mat(F, [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)])
            full = Mat(F, [[F.q - 1] * ncols for _ in range(nrows)])
            for M in (A, full):
                times = LinearMap(M, K)
                for x in _inputs(K, nrows, rng):
                    assert times(x) == _times(x, M)


@pytest.mark.parametrize("F", [Z257, F512, F729], ids=lambda F: F.name)
def test_matrix_products_match_reference_loop(F):
    rng = random.Random(7)
    A = Mat(F, [[rng.randrange(F.q) for _ in range(4)] for _ in range(3)])
    B = Mat(F, [[rng.randrange(F.q) for _ in range(5)] for _ in range(4)])
    v = Vec(F, [F.q - 1] * 3)
    assert A @ B == Mat(F, [_times(row, B) for row in A.rows])
    assert v @ A == Vec(F, _times(v.codes, A))
    assert B @ Vec(F, v.codes + (1, 2)) == Vec(F, _times(v.codes + (1, 2), B.transpose()))


def _with_zero_columns(F, K, nrows, ncols, rng):
    """A random matrix, an input x over K, and every third column of x @ A made zero.

    Column 0 is zero throughout; the others are zeroed through their last
    entry, so their slot sums cancel without being empty.
    """
    x = [rng.randrange(K.q) for _ in range(nrows - 1)] + [rng.randrange(1, K.q)]
    cols = []
    for j in range(ncols):
        col = [rng.randrange(F.q) for _ in range(nrows)]
        if j % 3 == 0:
            col = [0] * nrows if j == 0 else col
            rest = _dot(F, x[:-1], col[:-1])
            col[-1] = F.mulc(F.negc(rest), F.invc(x[-1]))
        cols.append(col)
    return Mat(F, zip(*cols)), x


@pytest.mark.parametrize("F, K, nrows, width", [
    (F729, Z3, 12, 8),
    (F25, F25, 10, 16),
    (Z3, Z3, 70, 16),
    (Z257, Z257, 9, 32),
    (F243, F243, 12, 8),
    (Z65521, Z65521, 3, 64),
    (F729, F729, 14, 16),
], ids=str)
def test_zero_readout_matches_reference_loop_at_every_slot_width(F, K, nrows, width):
    rng = random.Random(nrows * F.q)
    A, x = _with_zero_columns(F, K, nrows, 13, rng)
    times = LinearMap(A, K)
    assert array(times._typecode).itemsize * 8 == width
    for y in (x, [0] * nrows, *_inputs(K, nrows, rng)):
        out = _times(y, A)
        assert times(y) == out
        assert times.zeros(y) == [j for j, c in enumerate(out) if c == 0]
    assert {0, 3, 6, 9, 12} <= set(times.zeros(x))


@pytest.mark.parametrize("F", [Z2, F32, F512, extension(Z2, [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1,
                                                          0, 0, 0, 1])[0]],
                         ids=lambda F: F.name)
def test_zero_readout_matches_reference_loop_in_characteristic_2(F):
    rng = random.Random(F.q)
    for K in dict.fromkeys((F, Z2)):
        A, x = _with_zero_columns(F, K, 6, 40, rng)
        times = LinearMap(A, K)
        for y in (x, [0] * 6, *_inputs(K, 6, rng)):
            out = _times(y, A)
            assert times.zeros(y) == [j for j, c in enumerate(out) if c == 0]
        assert set(range(0, 40, 3)) <= set(times.zeros(x))


@pytest.mark.parametrize("F", [
    extension(Z2, [1, 1, 1])[0],
    extension(Z2, [1, 0, 1, 1, 1, 0, 0, 0, 1])[0],
    extension(Z2, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])[0],
    F512,  # x^9 + x + 1: X has order 73
    extension(Z2, [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1])[0],
], ids=lambda F: F.name + "-" + "".join(map(str, F.modulus_codes)))
def test_times_x_rows_match_reference_loop(F):
    """Over F itself, x @ A sums row i times X^b wherever bit b of x_i is set.

    With every entry of x equal to q - 1 every copy times X^b enters the sum,
    and entries with the top coordinate set make the multiply by X reduce.
    """
    rng = random.Random(F.q + sum(F.modulus_codes))
    top = [rng.randrange(F.q // 2, F.q) for _ in range(9)]
    for A in (Mat(F, [[rng.randrange(F.q) for _ in range(9)] for _ in range(6)]),
              Mat(F, [top] * 6), Mat(F, [[F.q - 1] * 9] * 6)):
        times = LinearMap(A, F)
        for x in ([F.q - 1] * 6, *_inputs(F, 6, rng)):
            assert times(x) == _times(x, A)


F65536 = extension(Z2, [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1])[0]


@pytest.mark.parametrize("F, K, nrows, width", [
    (F729, Z3, 12, 8),
    (F25, F25, 10, 16),
    (F729, F729, 14, 16),
    (Z257, Z257, 9, 32),
    (Z65521, Z65521, 3, 64),
    (F32, Z2, 8, None),
    (F32, F32, 8, None),
    (F512, Z2, 11, None),
    (F65536, F65536, 6, None),
], ids=str)
def test_map_on_some_rows_matches_the_zero_filled_word(F, K, nrows, width):
    """x's entries in the rows at alone, against the dense call and the reference loop.

    at is empty, the first row, the last row, three rows out of order, and
    every row; the entries are random and all q - 1, the widest slot sums.
    """
    rng = random.Random(nrows * F.q + K.q)
    A = Mat(F, [[rng.randrange(F.q) for _ in range(7)] for _ in range(nrows)])
    times = LinearMap(A, K)
    if width:
        assert array(times._typecode).itemsize * 8 == width
    for at in ([], [0], [nrows - 1], rng.sample(range(nrows), 3), list(range(nrows))):
        for x in ([rng.randrange(1, K.q) for _ in at], [K.q - 1] * len(at)):
            full = [0] * nrows
            for i, v in zip(at, x):
                full[i] = v
            assert times(x, at) == times(full) == _times(full, A)


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_syndrome_on_some_positions_matches_the_scattered_word(name):
    C = demo_code(name)
    K, rng = C.base_field, random.Random(C.n)
    for w in range(1, C.t + 2):
        for _ in range(5):
            e = random_error_vector(K, C.n, w, rng)
            at = e.support()
            assert C.syndrome(Vec(K, [e.codes[i] for i in at]), at=at) == C.syndrome(e)
    last = [0] * (C.n - 1) + [K.q - 1]
    assert C.syndrome(Vec(K, [K.q - 1]), at=[C.n - 1]) == C.syndrome(Vec(K, last))
    for values, at in (([1, 1], [0]), ([1, 1], [2, 2]), ([1], [C.n]), ([1], [-1])):
        with pytest.raises(CodeError):
            C.syndrome(values, at=at)


def _odd_rows_reference(A, K):
    """LinearMap's packed rows over an odd p, packed as before: coords_code once per entry."""
    F, p = A.field, A.field.p
    typecode = _slot_type(A.nrows * K.m * (p - 1) ** 2)

    def pack(row):
        return _pack_slots([g for c in row for g in F.coords_code(c)], typecode)
    return [[pack([F.mulc(p ** b, c) for c in row]) for row in A.rows] for b in range(K.m)]


F81, _ = extension(Z3, [2, 0, 0, 1, 1])
F19683, _ = extension(Z3, [1, 0, 1, 2, 0, 0, 0, 0, 0, 1])


@pytest.mark.parametrize("F", [F25, F81, F243, F19683], ids=lambda F: F.name)
def test_odd_packed_rows_match_the_coords_code_packing(F):
    rng = random.Random(F.q + 3)
    for K in (F, F.prime_subfield()):
        for nrows, ncols in ((1, 1), (5, 9), (30, 4)):
            for A in (Mat(F, [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)]),
                      Mat(F, [[F.q - 1] * ncols] * nrows)):
                assert LinearMap(A, K)._rows == _odd_rows_reference(A, K)


def test_map_rejects_a_foreign_input_field():
    A = Mat(F32, [[1, 2]])
    with pytest.raises(TypeError):
        LinearMap(A, Z3)
    with pytest.raises(TypeError):
        LinearMap(A, F25)


def _random_codes():
    rng = random.Random(11)
    yield rs(Vec(Z257, rng.sample(range(1, 257), 30)), 20)
    yield rs(Vec(Z65521, rng.sample(range(1, 65521), 12)), 5)
    yield bch(x512, 9)
    F = F729
    a = Vec(F, rng.sample(range(1, F.q), 24))
    yield grs(Vec(F, [rng.randrange(1, F.q) for _ in range(24)]), a, 16)
    g = F.poly([1, 0, 1, 1])
    yield goppa(g, Vec(F, [c for c in a.codes if g.at(c)]))
    yield bch(F243.first_primitive(), 5)


@pytest.mark.parametrize("C", [*(demo_code(name) for name in DEMO_NAMES), *_random_codes()],
                         ids=lambda C: C.describe())
def test_syndrome_and_encode_match_reference_loop(C):
    rng = random.Random(C.n)
    K, G = C.base_field, C.generator_matrix()
    for y in _inputs(K, C.n, rng):
        assert list(C.syndrome(Vec(K, y)).codes) == [_dot(C.ext_field, y, row) for row in C.H.rows]
    for msg in _inputs(K, C.k, rng):
        c = C.encode(Vec(K, msg))
        assert list(c.codes) == _times(msg, G)
        assert C.is_codeword(c)
