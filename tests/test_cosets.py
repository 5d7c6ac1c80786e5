"""Every coset of small codes, decoded by both decoders: an exhaustive certificate.

pgz and pgzm run every stage in pgz._decode_syndrome, which takes the
syndrome C.syndrome(y) and no word; _decode reads y otherwise only to check
it and to form the corrected word y - e.  The words supported on the pivot
columns of gauss_jordan(expand(H, K)) have every syndrome exactly once, one
word per coset, so decoding all q^(n-k) of them covers every one of the q^n
received words.  A bounded-distance decoder answers NoError or Corrected on
exactly the cosets whose leader has weight <= t; since d >= 2t + 1 those
leaders are unique, and there are N_t = sum_{w <= t} C(n, w) (q - 1)^w of
them.  So certify asserts, on every coset:
  - every Corrected word is a codeword within t of its input;
  - pgz and pgzm agree on status, positions, values and the corrected word
    (not on FailureReason, which differs on some failure cosets of r = 3
    codes);
  - where a locator was read off the Hankel matrix, that matrix's reduction
    has its pivots in columns 0..l-1;
and, over all cosets, that NoError and Corrected together number N_t: every
correctable error is corrected and nothing else is.  certify also folds both
full reports of every coset, FailureReason and message included, into one
sha256, which DIGESTS pins per code.

CODES covers every constructor on codes of at most 4,096 cosets, and a
seeded sweep adds small random AC, BCH and degree-2 Goppa codes.  Run as a
script, the module certifies the named demo codes in full, for example

    PYTHONPATH=src python tests/test_cosets.py bch31 prs13
"""

import hashlib
import math
import random
import sys
from itertools import product

import pytest

from alternant.codes import AlternantCode, bch, goppa, grs, prs, rs
from alternant.demo import demo_code
from alternant.galois import (
    FieldElement, Poly, element_order, extension, get_irreducible_polynomial, prime_field,
)
from alternant.linalg import Vec, expand, gauss_jordan
from alternant.pgz import Status, pgz, pgzm
from test_decode_reports import _record


def certify(C) -> tuple[int, int, str]:
    """Decode every coset of C with pgz and pgzm; (cosets, NoError + Corrected, digest)."""
    K, n, t = C.base_field, C.n, C.t
    pivots = gauss_jordan(expand(C.H, K)).pivots
    assert len(pivots) == n - C.k
    decoded, digest = 0, hashlib.sha256()
    for values in product(range(K.q), repeat=len(pivots)):
        codes = [0] * n
        for j, v in zip(pivots, values):
            codes[j] = v
        y = Vec(K, codes)
        a, b = pgz(y, C), pgzm(y, C)
        assert (a.status, a.positions, a.values, a.corrected) == \
            (b.status, b.positions, b.values, b.corrected), y
        if a.status is Status.CORRECTED:
            assert C.is_codeword(a.corrected) and (y - a.corrected).weight() <= t, y
        for rep in (a, b):
            if rep.l:
                assert gauss_jordan(rep.hankel).pivots == tuple(range(rep.l)), y
            digest.update(repr(_record(rep)).encode())
        decoded += a.ok
    assert decoded == sum(math.comb(n, w) * (K.q - 1) ** w for w in range(t + 1))
    return K.q ** len(pivots), decoded, digest.hexdigest()


def _field(p, m):
    K = prime_field(p)
    return K if m == 1 else extension(K, get_irreducible_polynomial(K, m))[0]


Z7, F8, F9, F16, F25, F27, F64 = (_field(p, m) for p, m in (
    (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6)))


def _alternant(F, n, r, K, seed):
    """A seeded AC code over K: n distinct nonzero support entries, nonzero multipliers."""
    rng = random.Random(seed)
    alpha = Vec(F, rng.sample(range(1, F.q), n))
    return AlternantCode(Vec(F, [rng.randrange(1, F.q) for _ in range(n)]), alpha, r, K)


def _goppa(F, g):
    """The Goppa code of g on every nonzero point where g does not vanish."""
    g = Poly(F, g)
    return goppa(g, Vec(F, [c for c in range(1, F.q) if g.at(c)]))


a16 = F16.exp[1]
CODES = {  # id: code, each with at most 4,096 cosets
    "rs Z7 t=2": lambda: rs(Vec(Z7, range(1, 7)), 2),
    "grs F9": lambda: grs(Vec(F9, [1, 2, 5, 7, 3, 8, 4, 6]), Vec(F9, range(1, 9)), 5),
    "prs F8 t=2": lambda: prs(F8, 3),
    "bch F16 l=0": lambda: bch(F16.first_primitive(), 5, l=0),
    "bch F9 l=0": lambda: bch(F9.first_primitive(), 5, l=0),
    "bch F64 alpha of order 21": lambda: bch(FieldElement(F64, F64.exp[3]), 5),
    "bch F27 alpha of order 13, l=2": lambda: bch(FieldElement(F27, F27.exp[2]), 3, l=2),
    "goppa F16 squarefree": lambda: _goppa(F16, [a16, 1, 1]),
    "goppa F16 squared": lambda: _goppa(F16, [F16.mulc(a16, a16), 0, 1]),  # (X + a)^2
    "goppa F9 squared": lambda: _goppa(F9, [1, 2, 1]),  # (X + 1)^2
    "goppa F8 k=0": lambda: goppa(F8.poly([1, 1, 1]), Vec(F8, [1, 2, 3])),
    "AC F8 K=F": lambda: _alternant(F8, 7, 3, F8, 1),
    "AC F25 K=Z5": lambda: _alternant(F25, 12, 2, F25.prime_subfield(), 2),
    "AC F16 K=Z2 t=2": lambda: _alternant(F16, 10, 4, F16.prime_subfield(), 3),
}


DIGESTS = {  # id or demo code name: sha256 over both reports of every coset
    "rs Z7 t=2": "af0bcfef351caec78c29f1d03c6d4e120f63fa993ccd8aa8fb1f0fda6fe0ed15",
    "grs F9": "b3356f5a733b25d60e01d3ab2879cc5c06b5c930eac5e1f1bb77dc49bffab8e7",
    "prs F8 t=2": "2c979a36ec038897d422d5914d146e1aeebf1d3311a07ba3fa2342b31b35f449",
    "bch F16 l=0": "135e1e543645499d29b83c399e8849247b7d7eb045bbed48ab6df73ca8ab846b",
    "bch F9 l=0": "0813e788dde1f347def14dfb39807e733add98bef60a894a7a50ef21b89af584",
    "bch F64 alpha of order 21": "a5cdd790daa8f9c153153083202419858623e5daed4c5a35d919ff7361db8c73",
    "bch F27 alpha of order 13, l=2": "8347239be8a425da5e5f081c76b9a9ab0bdd7181edcfbc7a2e9f6a2fc373533c",
    "goppa F16 squarefree": "ccb3e8a10852f694181c61609e92538c8564e740317e16e19f5ae3f3b9f1f944",
    "goppa F16 squared": "bf0a56f0e62ad79d339cdb84f63381bf383539e2ddd9f5afd1385cea6be0d6c9",
    "goppa F9 squared": "c32686aa873e040716a7c7071e211461555afe290a42c0384405e5d8a8d05897",
    "goppa F8 k=0": "1eb270f3401a03fcb90488ed2aa90e4c84bf8728d01a0a2b91577fa2d4dceb97",
    "AC F8 K=F": "34329d6cec3f4a8dcc54158163e6ad529b256ab29c872d47d1af6ea217f98c6b",
    "AC F25 K=Z5": "a653cca9a024567260326364dce4976714d654220345850ef17fa75755318acc",
    "AC F16 K=Z2 t=2": "b122b90d6c0bccbc11cd430e6662be085c39bcb49ae70103e0c9a85d28be1779",
    "bch31": "64fddece70a895be91423ed7adb5620cf48a406d030ee8ab9c926e319f3624e1",
    "prs13": "5d6b1daf90064cf4a726e08f47eee7b6a01abeaf417c01cb306d1872522e744a",
}


@pytest.mark.parametrize("name, make", CODES.items(), ids=CODES.keys())
def test_every_coset(name, make):
    cosets, _, digest = certify(make())
    assert cosets <= 4096
    assert digest == DIGESTS[name]


SWEEP, SWEEP_COSETS = 120, 512  # seeded random codes, a third per family; cosets each, at most
SWEEP_FIELDS = [_field(p, m) for p, m in (
    (5, 1), (7, 1), (11, 1), (13, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2))]


def _sweep_code(seed):
    """A seeded code of at most SWEEP_COSETS cosets from family seed % 3: an AC code with
    K = Z_p, a BCH code with l in {0, 1, 2} and alpha of any order, or a Goppa code
    of degree 2 on a random part of its support."""
    rng = random.Random(seed)
    while True:
        F = rng.choice(SWEEP_FIELDS)
        if seed % 3 == 0:
            n = rng.randrange(3, F.q)
            C = _alternant(F, n, rng.randrange(1, n), F.prime_subfield(), rng.randrange(1 << 30))
        elif seed % 3 == 1:
            alpha = FieldElement(F, F.exp[rng.randrange(1, F.q - 1)])
            C = bch(alpha, rng.randrange(2, element_order(alpha) + 1), l=rng.randrange(3))
        else:
            g = Poly(F, (rng.randrange(F.q), rng.randrange(F.q), rng.randrange(1, F.q)))
            points = [c for c in range(1, F.q) if g.at(c)]
            if len(points) < 3:
                continue
            C = goppa(g, Vec(F, rng.sample(points, rng.randrange(3, len(points) + 1))))
        if C.base_field.q ** (C.n - C.k) <= SWEEP_COSETS:
            return C


@pytest.mark.parametrize("seed", range(SWEEP))
def test_random_small_code(seed):
    certify(_sweep_code(seed))


if __name__ == "__main__":
    for name in sys.argv[1:]:
        cosets, decoded, digest = certify(demo_code(name))
        print(f"{name}: {cosets} cosets, {decoded} decoded = N_t, reports {digest}")
        assert name not in DIGESTS or digest == DIGESTS[name], f"{name}: reports changed"
