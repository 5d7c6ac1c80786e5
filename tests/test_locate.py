"""Root search on the packed Vandermonde map against the Horner loop it replaced.

_horner_roots is the loop locate ran before: one Horner evaluation of L per
support entry.  locate is checked against it on every demo code and on random
supports over prime fields and over extensions of characteristic 2, 3 and 5
(Z65521 needs 64-bit slots), with genuine locators, random polynomials, the
zero polynomial (every entry is a root), nonzero constants (none is),
degrees at or above the support length, and degrees above and below earlier
calls on the same support.  A code's support carries its own map for
locators of degree <= t: locate on it must agree with locate on a bare copy
of the support, for those locators and for longer polynomials, which must
leave that map as it was; and codes built on one support keep their own.
"""

import random
from pathlib import Path

import pytest

from alternant.codes import AlternantCode
from alternant.codespec import load_code
from alternant.demo import DEMO_NAMES, demo_code
from alternant.galois import Poly, extension, get_irreducible_polynomial, prime_field
from alternant.linalg import LinearMap, Vec, vandermonde
from alternant.pgz import locate

BENCH_CODES = Path(__file__).resolve().parents[1] / "perfbench" / "codes"

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
def test_longer_and_shorter_polynomials_on_one_support_match_horner(F):
    rng = random.Random(F.q + 1)
    alphas = Vec(F, rng.sample(range(1, F.q), min(F.q - 1, 12)))
    for d in (2, 9, 3, len(alphas) + 4, 1):
        for L in _polys(alphas, rng, [d]):
            _check(L, alphas)


def _code(name):
    return demo_code(name) if name in DEMO_NAMES else load_code(BENCH_CODES / f"{name}.json")


@pytest.mark.parametrize("name", DEMO_NAMES + ("bch255", "bch511", "rs64"))
def test_a_code_support_finds_the_roots_a_bare_support_does(name):
    C = _code(name)
    F, M = C.ext_field, C.alpha.root_map
    assert M.nrows == C.t + 1
    assert M._rows == LinearMap(vandermonde(C.t + 1, C.alpha), F)._rows
    bare, rng = Vec(F, C.alpha.codes), random.Random(name)
    locators = [_locator(bare, rng.sample(range(C.n), d)) for d in range(C.t + 1)]
    longer = [Poly(F, [rng.randrange(F.q) for _ in range(d)] + [rng.randrange(1, F.q)])
              for d in range(C.t + 1, C.t + 4)]
    for L in locators + longer + locators:
        assert locate(L, C.alpha) == locate(L, bare)
    for L in locators:
        assert len(locate(L, C.alpha)[0]) == L.degree
    assert C.alpha.root_map is M and M.nrows == C.t + 1
    assert not hasattr(bare, "root_map")


def test_codes_on_one_support_keep_their_own_maps():
    F = extension(Z2, [1, 0, 1, 0, 0, 1])[0]
    alphas = Vec(F, range(1, 20))
    h = Vec(F, [1] * 19)
    narrow, wide = AlternantCode(h, alphas, 4, Z2), AlternantCode(h, alphas, 9, Z2)
    assert type(alphas) is Vec and alphas.codes == tuple(range(1, 20))
    assert not hasattr(alphas, "root_map")
    assert narrow.alpha == wide.alpha == alphas
    assert narrow.alpha is not wide.alpha and narrow.alpha.root_map is not wide.alpha.root_map
    assert (narrow.alpha.root_map.nrows, wide.alpha.root_map.nrows) == (3, 5)
    L = _locator(alphas, [0, 5, 11, 18])
    for C in (narrow, wide):
        assert locate(L, C.alpha)[0] == (0, 5, 11, 18)
    assert narrow.alpha.root_map.nrows == 3


def test_a_genuine_locator_of_every_position_finds_every_position():
    C = demo_code("goppa19")
    L = _locator(C.alpha, range(C.n))
    assert L.degree == C.n
    assert locate(L, C.alpha)[0] == tuple(range(C.n))
