"""Property-based differential test of the two decoders.

Random GRS codes (base field = support field) and AC codes (base field =
prime subfield) over Z5..Z13, F4..F49, F81, F243 and F512 (n < 25 on the
last three) get a planted codeword plus an error of every weight 0..n.  The
planted error is the oracle at weight <= t; above it the decoders are
checked against the Corrected guarantee and against each other.  The same
check runs on two code families: Goppa codes over F8..F27, whose g is
squarefree or has a squared factor, so that both distance bounds (2r + 1
for a binary squarefree g, r + 1 otherwise) are drawn, and BCH codes over
F16..F64 with any first root exponent l and a support element alpha of any
order, primitive or not.  On codes with at most 256 codewords the bound is
checked against the exact minimum distance.  Element tokens are checked to
read back as the element they print, on fields up to 2^20.
"""

import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from alternant.codes import AlternantCode, bch, goppa, grs
from alternant.galois import (
    FieldElement, Poly, extension, get_irreducible_polynomial, prime_field,
)
from alternant.linalg import Vec
from alternant.oracle import min_distance
from alternant.pgz import Status, pgz, pgzm, random_error_vector


def _field(p, m):
    K = prime_field(p)
    return K if m == 1 else extension(K, get_irreducible_polynomial(K, m))[0]


FIELDS = [_field(p, m) for p, m in (
    (5, 1), (7, 1), (11, 1), (13, 1),
    (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2),
    (3, 4), (3, 5), (2, 9),
)]
N_LARGE = 25  # n stays below this on F81, F243 and F512, to keep the test short


@st.composite
def codes(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.sampled_from(range(3, F.q if F.q < 50 else N_LARGE)))
    alpha = Vec(F, draw(st.permutations(range(1, F.q)))[:n])
    h = Vec(F, draw(st.lists(st.integers(1, F.q - 1), min_size=n, max_size=n)))
    r = draw(st.sampled_from(range(1, n)))
    if draw(st.booleans()):
        return grs(h, alpha, n - r)
    return AlternantCode(h, alpha, r, F.prime_subfield())


GOPPA_FIELDS = [_field(p, m) for p, m in ((2, 3), (3, 2), (2, 4), (5, 2), (3, 3))]
BCH_FIELDS = [_field(p, m) for p, m in ((2, 4), (5, 2), (3, 3), (7, 2), (2, 6))]


@st.composite
def goppa_codes(draw):
    F = draw(st.sampled_from(GOPPA_FIELDS))
    r = draw(st.integers(1, 4))
    g = Poly(F, draw(st.lists(st.integers(0, F.q - 1), min_size=r, max_size=r)) + [1])
    if r >= 2 and draw(st.booleans()):  # a squared linear factor
        root = Poly(F, (F.negc(draw(st.integers(0, F.q - 1))), 1))
        g = root * root * Poly(F, g.codes[2:])
    points = [c for c in range(1, F.q) if g.at(c)]
    assume(len(points) > r)
    n = draw(st.integers(max(r + 1, len(points) // 2), len(points)))
    return goppa(g, Vec(F, draw(st.permutations(points))[:n]))


@st.composite
def bch_codes(draw):
    F = draw(st.sampled_from(BCH_FIELDS))
    alpha = FieldElement(F, F.exp[draw(st.integers(1, F.q - 2))])  # order (q-1)/gcd(k, q-1)
    n = (F.q - 1) // math.gcd(F.log[alpha.code], F.q - 1)
    if n < 3:
        alpha, n = F.first_primitive(), F.q - 1
    return bch(alpha, draw(st.integers(2, min(n - 1, 9))), draw(st.integers(0, n - 1)))


def _check_decoders(C, seed):
    """Both decoders on a planted codeword plus an error of every weight 0..n."""
    assert C.d_bound <= C.n - C.k + 1  # Singleton
    rng = random.Random(seed)
    K = C.base_field
    c = (C.encode(Vec(K, [rng.randrange(K.q) for _ in range(C.k)])) if C.k
         else Vec(K, [0] * C.n))
    for w in range(C.n + 1):
        e = random_error_vector(K, C.n, w, rng)
        y = c + e
        a, b = pgz(y, C), pgzm(y, C)
        assert a.status is b.status
        assert a.positions == b.positions and a.values == b.values
        if w <= C.t:
            assert a.status is (Status.NO_ERROR if w == 0 else Status.CORRECTED)
            assert a.corrected == b.corrected == c
            assert a.positions == e.support()
            assert a.values == tuple(e[i] for i in e.support())
        if a.status is Status.CORRECTED:
            assert C.is_codeword(a.corrected)
            assert (y - a.corrected).weight() <= C.t


@settings(derandomize=True, deadline=None, max_examples=300)
@given(C=codes(), seed=st.integers(0, 2**32))
def test_decoders_agree_and_keep_the_guarantee(C, seed):
    _check_decoders(C, seed)


F8, F16 = GOPPA_FIELDS[0], BCH_FIELDS[0]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(C=goppa_codes(), seed=st.integers(0, 2**32))
@example(C=goppa(F8.poly([1, 1, 1]), Vec(F8, range(1, 8))), seed=0)  # squarefree: 2r + 1
@example(C=goppa(F8.poly([1, 0, 1]), Vec(F8, range(2, 8))), seed=0)  # (x + 1)^2: r + 1
def test_goppa_codes_keep_the_guarantee_and_the_distance_bound(C, seed):
    _check_decoders(C, seed)
    if C.k and C.base_field.q ** C.k <= 256:
        assert min_distance(C) >= C.d_bound


@settings(derandomize=True, deadline=None, max_examples=100)
@given(C=bch_codes(), seed=st.integers(0, 2**32))
@example(C=bch(FieldElement(F16, F16.exp[3]), 3, l=2), seed=0)  # alpha of order 5
def test_bch_codes_keep_the_guarantee_and_the_distance_bound(C, seed):
    _check_decoders(C, seed)
    if C.k and C.base_field.q ** C.k <= 256:
        assert min_distance(C) >= C.d_bound


@pytest.mark.parametrize("p, m", [
    (65521, 1), (2, 9), (3, 5), (13, 3), (31, 2), (3, 7), (7, 4), (257, 2), (2, 20), (5, 8),
], ids=str)
def test_element_tokens_read_back(p, m):
    F = _field(p, m)
    rng = random.Random(F.q)
    for code in [0, 1, p - 1, F.q - 1, *rng.sample(range(F.q), 200)]:
        x = FieldElement(F, code)
        assert F.element(str(x)) == x
