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
correctable error is corrected and nothing else is.

CODES covers every constructor on codes of at most 4,096 cosets.  Run as a
script, the module certifies the named demo codes in full, for example

    PYTHONPATH=src python tests/test_cosets.py bch31 prs13
"""

import math
import random
import sys
from itertools import product

import pytest

from alternant.codes import AlternantCode, bch, goppa, grs, prs, rs
from alternant.demo import demo_code
from alternant.galois import FieldElement, Poly, extension, get_irreducible_polynomial, prime_field
from alternant.linalg import Vec, expand, gauss_jordan
from alternant.pgz import Status, pgz, pgzm


def certify(C) -> tuple[int, int]:
    """Decode every coset of C with pgz and pgzm; (cosets, NoError + Corrected)."""
    K, n, t = C.base_field, C.n, C.t
    pivots = gauss_jordan(expand(C.H, K)).pivots
    assert len(pivots) == n - C.k
    decoded = 0
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
        decoded += a.ok
    assert decoded == sum(math.comb(n, w) * (K.q - 1) ** w for w in range(t + 1))
    return K.q ** len(pivots), decoded


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


@pytest.mark.parametrize("make", CODES.values(), ids=CODES.keys())
def test_every_coset(make):
    cosets, _ = certify(make())
    assert cosets <= 4096


if __name__ == "__main__":
    for name in sys.argv[1:]:
        cosets, decoded = certify(demo_code(name))
        print(f"{name}: {cosets} cosets, {decoded} decoded = N_t")
