"""Alternant code constructions: control matrices, dimensions, bounds.

Control matrix entries are re-derived from the defining formula in each
test, so a regression in the Vandermonde plumbing cannot hide behind the
constructor.
"""

import random

import pytest

from alternant import codes
from alternant.codes import AlternantCode, CodeError, bch, goppa, grs, prs, rs
from alternant.demo import DEMO_NAMES, demo_code
from alternant.galois import extension, prime_field
from alternant.linalg import Mat, Vec, expand, gauss_jordan, null_space, rank, vandermonde
from alternant.oracle import brute_force_decode, min_distance

Z2 = prime_field(2)
Z7 = prime_field(7)
Z13 = prime_field(13)
F8, gen8 = extension(Z2, [1, 1, 0, 1])
F32, gen32 = extension(Z2, [1, 0, 1, 0, 0, 1])


def _control_entries_match(C):
    for i in range(C.r):
        for j in range(C.n):
            assert C.H.row(i)[j] == C.h[j] * C.alpha[j] ** i


# -- the defining matrix ------------------------------------------------------

@pytest.mark.parametrize("name", DEMO_NAMES)
def test_control_matrix_formula(name):
    _control_entries_match(demo_code(name))


def test_prs13_control_matrix_golden():
    C = demo_code("prs13")
    assert C.H == Mat.of(Z13, [
        [1, 2, 4, 8, 3, 6, 12, 11, 9, 5, 10, 7],
        [1, 4, 3, 12, 9, 10, 1, 4, 3, 12, 9, 10],
        [1, 8, 12, 5, 1, 8, 12, 5, 1, 8, 12, 5],
        [1, 3, 9, 1, 3, 9, 1, 3, 9, 1, 3, 9],
    ])


def test_prs_multiplier_equals_support():
    # over the full multiplicative group the RS multiplier formula
    # collapses to h = alpha (Wilson's theorem)
    for F, k in ((Z13, 8), (Z7, 3)):
        C = prs(F, k)
        assert C.h == C.alpha
        assert C.alpha[0] == F.one


def test_rs_multiplier_formula():
    a = Vec.of(Z13, [2, 5, 6, 9])
    C = rs(a, 2)
    for i in range(4):
        prod = Z13.one
        for j in range(4):
            if j != i:
                prod = prod * (a[j] - a[i])
        assert C.h[i] == 1 / prod
    assert C.r == 2 and C.kind == "RS"


def test_grs_with_rs_multiplier_matches_rs():
    a = Vec.of(Z13, [1, 3, 4, 9, 10, 12])
    R = rs(a, 3)
    G = grs(R.h, a, 3)
    assert G.H == R.H
    assert G.k == R.k == 3
    assert G.kind == "GRS"


def test_bch_over_prime_field_matches_prs_code():
    # the BCH multiplier alpha^l with l = 1 and the RS product-formula
    # multiplier collapse to the same vector on a full multiplicative group,
    # so the two constructions agree entry for entry
    B = bch(Z13.element(2), 5)
    P = prs(Z13, 8)
    assert B.alpha == P.alpha
    assert B.n == P.n == 12 and B.r == P.r == 4
    assert B.H == P.H
    assert B.k == P.k == 8


def test_bch_support_and_length():
    C = bch(gen32, 7)
    assert C.n == 31  # multiplicative order of the generator
    assert C.alpha[0] == F32.one
    assert C.alpha[5] == gen32 ** 5
    assert C.h == C.alpha  # l = 1
    D = bch(gen32, 5, l=0)
    assert all(hc == F32.one for hc in D.h)


def test_goppa_multipliers_are_reciprocal_values():
    C = demo_code("goppa19")
    F = C.ext_field
    g = F.poly([1, 1, 0, 1, 0, 0, 1])  # the goppa19 polynomial
    for i in range(C.n):
        assert C.h[i] * g(C.alpha[i]) == F.one


def test_toy_binary_goppa():
    g = F8.poly([1, 1, 1])
    support = Vec(F8, [c for c in range(1, 8)])
    C = goppa(g, support)
    assert (C.n, C.r, C.k) == (7, 2, 1)
    assert C.d_bound == 5  # binary and squarefree: 2r + 1
    assert rank(expand(C.H, Z2)) == 6


def test_distance_bound_never_exceeds_singleton():
    """Three support points: 2r + 1 = 5, but dimension 0 caps d at n - k + 1 = 4."""
    C = goppa(F8.poly([1, 1, 1]), Vec(F8, [1, 2, 3]))
    assert (C.n, C.r, C.k) == (3, 2, 0)
    assert C.d_bound == 4 == min_distance(C)  # min_distance: n + 1 for dimension 0


def test_goppa_bound_requires_binary():
    # same squarefree degree-2 polynomial shape over a 5^2 field keeps r+1
    C = demo_code("goppa19")
    assert C.d_bound == C.r + 1 == 7


# -- dimensions and bounds ----------------------------------------------------

def test_demo_dimensions():
    expected = {
        "prs13": (12, 8, 4), "prs31": (30, 20, 10), "bch31": (31, 16, 6),
        "grs32": (31, 25, 6), "bch121": (121, 86, 10), "goppa19": (19, 7, 6),
        "goppa76": (76, 44, 10),
    }
    for name, (n, k, r) in expected.items():
        C = demo_code(name)
        assert (C.n, C.k, C.r) == (n, k, r), name


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_dimension_bounds(name):
    C = demo_code(name)
    assert C.n - C.r >= C.k >= C.n - C.r * C.m


def test_distance_fields():
    P = demo_code("prs13")
    assert P.d_exact == 5 and P.d_bound == 5
    B = demo_code("bch31")
    assert B.d_exact is None and B.d_bound == 7
    G = demo_code("grs32")
    assert G.d_exact == 7


def test_describe():
    assert demo_code("prs13").describe() == "PRS[n=12, r=4] over Z13"
    assert demo_code("bch31").describe() == "BCH[n=31, r=6] over Z2 via F32"
    assert demo_code("goppa19").describe() == "Goppa[n=19, r=6] over Z5 via F25"


# -- encode / syndrome --------------------------------------------------------

@pytest.mark.parametrize("name", ["prs13", "bch31", "goppa19"])
def test_generator_rows_are_codewords(name):
    C = demo_code(name)
    G = C.generator_matrix()
    assert G.shape == (C.k, C.n)
    assert rank(G) == C.k
    for i in range(G.nrows):
        assert C.syndrome(G.row(i)).is_zero
        assert C.is_codeword(G.row(i))
    assert C.generator_matrix() is G  # cached


@pytest.mark.parametrize("make", [
    lambda: bch(gen32, 7),
    lambda: goppa(F32.poly([1, 0, 1, 1]), Vec(F32, range(1, 32))),
    lambda: prs(Z13, 5),
], ids=["bch31", "goppa31", "prs13"])
def test_dimension_and_generator_share_one_elimination(make, monkeypatch):
    """k's one gauss_jordan result is handed to null_space itself: G is read off it."""
    C = make()
    reductions, kernels = [], []
    monkeypatch.setattr(codes, "gauss_jordan",
                        lambda M: reductions.append(gauss_jordan(M)) or reductions[-1])
    monkeypatch.setattr(codes, "null_space", lambda M: kernels.append(M) or null_space(M))
    assert C.k == C.generator_matrix().nrows
    assert len(reductions) == len(kernels) == 1
    assert kernels[0] is reductions[0]
    assert C.generator_matrix() == null_space(expand(C.H, C.base_field))


def test_encode_round_trip():
    rng = random.Random(8)
    for name in ("prs13", "bch31", "goppa19"):
        C = demo_code(name)
        K = C.base_field
        for _ in range(10):
            msg = [rng.randrange(K.q) for _ in range(C.k)]
            c = C.encode(msg)
            assert len(c) == C.n
            assert C.syndrome(c).is_zero
        with pytest.raises(CodeError):
            C.encode([0] * (C.k + 1))


def test_vandermonde_rows_span_prs():
    # monomial evaluations generate the primitive RS code
    C = demo_code("prs13")
    V = vandermonde(C.k, C.alpha)
    for i in range(C.k):
        assert C.is_codeword(V.row(i))
    stacked = Mat(Z13, C.generator_matrix().rows + V.rows, ncols=C.n)
    assert rank(stacked) == C.k


def test_syndrome_golden():
    C = demo_code("prs13")
    y = Vec(Z13, (0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0))
    assert C.syndrome(y) == Vec(Z13, (9, 1, 3, 9))
    B = demo_code("bch31")
    e = [0] * 31
    e[5] = e[19] = e[28] = 1
    s = B.syndrome(Vec(Z2, e))
    expect = ["a**22", "a**13", "a**14", "a**26", "a**19", "a**28"]
    assert s == Vec.of(F32, expect)


def test_syndrome_linearity():
    rng = random.Random(14)
    C = demo_code("goppa19")
    K = C.base_field
    for _ in range(20):
        x = Vec(K, [rng.randrange(5) for _ in range(19)])
        y = Vec(K, [rng.randrange(5) for _ in range(19)])
        assert C.syndrome(x + y) == C.syndrome(x) + C.syndrome(y)


def test_syndrome_rejects_extension_vector():
    C = demo_code("bch31")
    y = Vec(F32, [0] * 30 + [gen32.code])
    with pytest.raises(TypeError):
        C.syndrome(y)
    # membership is a base-field notion, so the same vector is not accepted
    assert not C.is_codeword(y)


def test_is_codeword_rejects_garbage():
    C = demo_code("prs13")
    assert not C.is_codeword([1] + [0] * 11)
    assert not C.is_codeword([0] * 5)
    assert C.is_codeword([0] * 12)


def test_a_string_is_not_a_word():
    # read one element token per character, "0" * 12 would be the zero codeword
    C = demo_code("prs13")
    assert not C.is_codeword("0" * 12)
    for call in (lambda: Vec.of(Z13, "123"), lambda: C.syndrome("0" * 12),
                 lambda: C.encode("12345678"), lambda: brute_force_decode(C, "0" * 12, 1)):
        with pytest.raises(TypeError, match="a string is not a vector over Z13"):
            call()


# -- construction errors ------------------------------------------------------

def test_alternant_validation():
    a = Vec.of(Z13, [1, 2, 3, 4])
    h = Vec.of(Z13, [1, 1, 1, 1])
    with pytest.raises(CodeError) as ei:
        AlternantCode(h, Vec.of(Z13, [1, 2, 0, 4]), 2, Z13)
    assert "alpha[2] is zero" in str(ei.value)
    with pytest.raises(CodeError) as ei:
        AlternantCode(h, Vec.of(Z13, [1, 2, 3, 2]), 2, Z13)
    assert "alpha[3] repeats alpha[1]" in str(ei.value)
    with pytest.raises(CodeError):
        AlternantCode(Vec.of(Z13, [1, 0, 1, 1]), a, 2, Z13)  # zero multiplier
    with pytest.raises(CodeError):
        AlternantCode(Vec.of(Z13, [1, 1, 1]), a, 2, Z13)  # length mismatch
    with pytest.raises(CodeError):
        AlternantCode(h, a, 4, Z13)  # r must stay below n
    with pytest.raises(CodeError):
        AlternantCode(h, a, 0, Z13)
    with pytest.raises(CodeError):
        AlternantCode(h, a, 2, Z7)  # unrelated base field
    with pytest.raises(CodeError):
        AlternantCode(Vec.of(Z7, [1, 1, 1, 1]), a, 2, Z13)  # mixed fields


def test_rs_validation():
    a = Vec.of(Z13, [1, 2, 3, 4])
    with pytest.raises(CodeError):
        rs(a, 0)
    with pytest.raises(CodeError):
        rs(a, 4)
    with pytest.raises(CodeError) as ei:
        rs(Vec(Z13, (1, 2, 1)), 1)
    assert "coincide" in str(ei.value)


def test_prs_validation():
    with pytest.raises(CodeError):
        prs(Z2, 1)  # q - 1 = 1 is too short
    with pytest.raises(CodeError):
        prs(Z13, 12)


def test_bch_validation():
    with pytest.raises(CodeError):
        bch(F32.zero, 3)
    with pytest.raises(CodeError):
        bch(F32.one, 3)  # order 1
    with pytest.raises(CodeError):
        bch(gen32, 1)
    with pytest.raises(CodeError):
        bch(gen32, 32)  # r = 31 is not < n
    with pytest.raises(CodeError):
        bch(gen32, 5, l=-1)


def test_goppa_validation():
    with pytest.raises(CodeError):
        goppa(F32.poly([1, 1, 1]), Vec(F8, (1, 2, 3)))  # wrong field
    with pytest.raises(CodeError):
        goppa(F8.poly([1]), Vec(F8, (1, 2, 3)))  # constant polynomial


def test_goppa_root_in_support():
    # X - gen8 (= X + gen8 in characteristic 2) vanishes at support entry 1
    g = F8.poly([gen8, 1])
    with pytest.raises(CodeError) as ei:
        goppa(g, Vec(F8, (1, gen8.code, 3)))
    assert "support entry 1" in str(ei.value)


def test_zero_dimension_code():
    # expanded control matrix has full column rank: dimension 0
    F4, _ = extension(Z2, [1, 1, 1])
    support = Vec(F4, (1, 2, 3))
    C = AlternantCode(Vec(F4, (1, 1, 1)), support, 2, Z2)
    assert C.k == 0
    with pytest.raises(CodeError) as ei:
        C.generator_matrix()
    assert "dimension 0" in str(ei.value)
