"""Property-based differential test of the two decoders.

Random GRS codes (base field = support field) and AC codes (base field =
prime subfield) over Z5..Z13, F4..F49, F81, F243 and F512 (n < 25 on the
last three) get a planted codeword plus an error of every weight 0..n.  The
planted error is the oracle at weight <= t; above it the decoders are
checked against the Corrected guarantee and against each other.  Element
tokens are checked to read back as the element they print, on fields up
to 2^20.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from alternant.codes import AlternantCode, grs
from alternant.galois import FieldElement, extension, get_irreducible_polynomial, prime_field
from alternant.linalg import Vec
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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(C=codes(), seed=st.integers(0, 2**32))
def test_decoders_agree_and_keep_the_guarantee(C, seed):
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


@pytest.mark.parametrize("p, m", [
    (65521, 1), (2, 9), (3, 5), (13, 3), (31, 2), (3, 7), (7, 4), (257, 2), (2, 20), (5, 8),
], ids=str)
def test_element_tokens_read_back(p, m):
    F = _field(p, m)
    rng = random.Random(F.q)
    for code in [0, 1, p - 1, F.q - 1, *rng.sample(range(F.q), 200)]:
        x = FieldElement(F, code)
        assert F.element(str(x)) == x
