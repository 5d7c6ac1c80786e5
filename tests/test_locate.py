"""Root search on the packed evaluation map against the Horner loop it replaced.

_horner_roots is the loop locate ran before: one Horner evaluation of L per
support entry.  locate is checked against it on every demo code and on random
supports over prime fields and over extensions of characteristic 2, 3 and 5
(Z65521 needs 64-bit slots), with genuine locators, random polynomials, the
zero polynomial (every entry is a root), nonzero constants (none is),
degrees at or above the support length, and a degree above every earlier
call on the same support, so the cached map has to grow.
"""

import random

import pytest

from alternant.demo import DEMO_NAMES, demo_code
from alternant.galois import Poly, extension, get_irreducible_polynomial, prime_field
from alternant.linalg import Vec, evaluation_map
from alternant.pgz import locate

Z2, Z3 = prime_field(2), prime_field(3)
FIELDS = [
    prime_field(13),
    prime_field(65521),
    extension(Z2, [1, 0, 1, 0, 0, 1])[0],
    extension(Z2, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1])[0],
    extension(Z2, [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1])[0],
    extension(prime_field(5), [3, 0, 1])[0],
    extension(Z3, get_irreducible_polynomial(Z3, 4))[0],
    extension(Z3, [1, 2, 0, 0, 0, 1])[0],
    extension(Z3, [2, 1, 0, 0, 0, 0, 1])[0],
]


def _horner_roots(L, alphas):
    """Positions of L's roots among alphas, one Horner evaluation per entry."""
    F = L.field
    roots = []
    for i, x in enumerate(alphas.codes):
        acc = 0
        for c in reversed(L.codes):
            acc = F.addc(F.mulc(acc, x), c)
        if acc == 0:
            roots.append(i)
    return tuple(roots)


def _locator(alphas, positions):
    """The product of z - alphas[j] over the given positions."""
    F = alphas.field
    L = Poly(F, [1])
    for j in positions:
        L = L * Poly(F, [F.negc(alphas.codes[j]), 1])
    return L


def _polys(alphas, rng, degrees):
    """Genuine locators and random polynomials of the given degrees, zero and constants."""
    F, n = alphas.field, len(alphas)
    for d in degrees:
        yield _locator(alphas, rng.sample(range(n), min(d, n)))
        yield Poly(F, [rng.randrange(F.q) for _ in range(d)] + [rng.randrange(1, F.q)])
    yield Poly(F, [])
    yield Poly(F, [1])
    yield Poly(F, [F.q - 1])


def _check(L, alphas):
    positions, values = locate(L, alphas)
    assert positions == _horner_roots(L, alphas)
    assert values == tuple(alphas[i] for i in positions)


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_codes_match_horner(name):
    C = demo_code(name)
    rng = random.Random(C.n)
    for L in _polys(C.alpha, rng, [1, 2, C.t, C.t, C.t + 1, 2 * C.t + 3]):
        _check(L, C.alpha)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_random_supports_match_horner(F):
    rng = random.Random(F.q)
    for n in (1, 2, 7, min(F.q - 1, 40)):
        alphas = Vec(F, rng.sample(range(1, F.q), n))
        for L in _polys(alphas, rng, [1, 2, 3, 5, n, n + 2]):
            _check(L, alphas)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_a_longer_polynomial_grows_the_cached_map(F):
    rng = random.Random(F.q + 1)
    alphas = Vec(F, rng.sample(range(1, F.q), min(F.q - 1, 12)))
    for d in (2, 9, 3, len(alphas) + 4, 1):
        for L in _polys(alphas, rng, [d]):
            _check(L, alphas)
        assert evaluation_map(alphas, 1).nrows >= d + 1


def test_a_genuine_locator_of_every_position_finds_every_position():
    C = demo_code("goppa19")
    L = _locator(C.alpha, range(C.n))
    assert L.degree == C.n
    assert locate(L, C.alpha)[0] == tuple(range(C.n))
