"""Brute-force oracles: exhaustive decoding, exact distance, rank structure.

The oracles themselves are meant to be trusted by being simple; these tests
pin their behavior on small cases with hand-checkable answers and make sure
the budget guard refuses instead of silently running forever.
"""

import dataclasses
import random
from itertools import combinations

import pytest

from alternant.codes import AlternantCode, goppa, grs, prs, rs
from alternant.demo import demo_code
from alternant.galois import extension, prime_field
from alternant.linalg import Vec
from alternant.oracle import (
    AMBIGUOUS,
    NOT_FOUND,
    BudgetExceeded,
    OracleBudget,
    brute_force_decode,
    min_distance,
    predicted_decode_checks,
    verify_structure,
)
from alternant.pgz import Status, pgz, pgzm, random_error_vector

Z2 = prime_field(2)
Z7 = prime_field(7)
Z11 = prime_field(11)
Z13 = prime_field(13)
F8, gen8 = extension(Z2, [1, 1, 0, 1])


def test_predicted_decode_checks():
    # 12*12 single-error patterns plus C(12,2)*12^2 double-error patterns
    assert predicted_decode_checks(12, 13, 2) == 144 + 66 * 144
    assert predicted_decode_checks(12, 13, 0) == 0
    assert predicted_decode_checks(5, 2, 5) == sum(
        __import__("math").comb(5, w) for w in range(1, 6))


def test_brute_force_finds_planted_errors():
    rng = random.Random(23)
    C = demo_code("prs13")
    for w in (1, 2):
        for _ in range(5):
            e = random_error_vector(Z13, 12, w, rng)
            found = brute_force_decode(C, e, C.t)
            assert found == e
            rep = pgz(e, C)
            assert rep.status is Status.CORRECTED
            assert e - rep.corrected == found


def test_brute_force_zero_syndrome():
    C = demo_code("prs13")
    c = C.encode([1, 0, 2, 0, 3, 0, 4, 0])
    found = brute_force_decode(C, c, 2)
    assert isinstance(found, Vec) and found.is_zero


def test_brute_force_ambiguous():
    # [6, 3, 4] code containing the weight-4 word (6, 3, 1, 0, 0, 1):
    # the received word below is distance 2 from two different codewords
    C = rs(Z7.vec([1, 2, 3, 4, 5, 6]), 3)
    w4 = Vec(Z7, (6, 3, 1, 0, 0, 1))
    assert C.is_codeword(w4) and w4.weight() == 4
    y = Vec(Z7, (6, 3, 0, 0, 0, 0))
    assert brute_force_decode(C, y, 2) is AMBIGUOUS


def test_brute_force_not_found():
    C = demo_code("prs13")
    y = Vec(Z13, (1, 1, 1) + (0,) * 9)
    assert brute_force_decode(C, y, 1) is NOT_FOUND
    # no pattern of weight <= t = 2 reaches a codeword either
    assert brute_force_decode(C, y, 2) is NOT_FOUND


def test_brute_force_validation():
    C = demo_code("prs13")
    with pytest.raises(ValueError):
        brute_force_decode(C, [0] * 5, 1)
    with pytest.raises(ValueError):
        brute_force_decode(C, [0] * 12, -1)


def test_brute_force_budget_refusal():
    C = demo_code("prs13")
    y = [0] * 12
    y[0] = 1
    with pytest.raises(BudgetExceeded) as ei:
        brute_force_decode(C, y, 2, OracleBudget(max_checks=100))
    msg = str(ei.value)
    assert "9648" in msg and "max_checks=100" in msg


def test_brute_force_wall_clock_refusal():
    C = demo_code("prs13")
    y = [0] * 12
    y[0] = 1
    with pytest.raises(BudgetExceeded) as ei:
        brute_force_decode(C, y, 2, OracleBudget(max_seconds=1e-9))
    assert "wall clock" in str(ei.value)


def test_min_distance_small_prs():
    C = prs(Z7, 3)
    assert min_distance(C) == 4
    assert C.d_exact == 4


def test_min_distance_toy_goppa():
    C = goppa(F8.poly([1, 1, 1]), Vec(F8, range(1, 8)))
    d = min_distance(C)
    assert d == 6
    assert d >= C.d_bound == 5


@pytest.mark.parametrize("C, d", [
    (prs(F8, 4), 4),
    (prs(extension(prime_field(3), [1, 0, 1])[0], 3), 6),
], ids=["prs(F8,4)", "prs(F9,3)"])
def test_min_distance_over_extension_base(C, d):
    # messages over an extension base are codes, not bare integers
    assert min_distance(C) == d == C.n - C.k + 1


def test_min_distance_of_zero_dimension_code():
    F4, _ = extension(Z2, [1, 1, 1])
    C = AlternantCode(Vec(F4, (1, 1, 1)), Vec(F4, (1, 2, 3)), 2, Z2)
    assert C.k == 0
    assert min_distance(C) == C.n + 1


def test_min_distance_budget_refusal():
    C = demo_code("prs13")  # 13^8 codewords is far beyond the default cap
    with pytest.raises(BudgetExceeded):
        min_distance(C)


def test_brute_force_agrees_with_decoders():
    rng = random.Random(55)
    C = demo_code("goppa19")
    for w in (1, 2, 3):
        for _ in range(3):
            e = random_error_vector(C.base_field, C.n, w, rng)
            found = brute_force_decode(C, e, C.t)
            assert found == e
            for decode in (pgz, pgzm):
                rep = decode(e, C)
                assert rep.status is Status.CORRECTED
                assert e - rep.corrected == found


def _brute_force_reference(C, y, t_max):
    """brute_force_decode without the lookup: every error of a pattern enumerated."""
    K, F = C.base_field, C.ext_field
    target = C.syndrome(Vec.of(K, y)).codes
    if not any(target):
        return Vec(K, [0] * C.n)
    contrib = [[None] + [tuple(F.mulc(v, hc) for hc in col) for v in range(1, K.q)]
               for col in zip(*C.H.rows)]
    for w in range(1, t_max + 1):
        found = []
        for pos in combinations(range(C.n), w):
            vals = [0] * w

            def walk(depth, acc):
                if len(found) > 1:
                    return
                if depth == w:
                    if acc == target:
                        found.append((pos, tuple(vals)))
                    return
                for v in range(1, K.q):
                    vals[depth] = v
                    walk(depth + 1, tuple(map(F.addc, acc, contrib[pos[depth]][v])))

            walk(0, (0,) * C.r)
            if len(found) > 1:
                return AMBIGUOUS
        if found:
            codes = [0] * C.n
            for p, v in zip(*found[0]):
                codes[p] = v
            return Vec(K, codes)
    return NOT_FOUND


def _seeded_codes():
    rng = random.Random(9)
    F16 = extension(Z2, [1, 1, 0, 0, 1])[0]
    F9 = extension(prime_field(3), [1, 0, 1])[0]

    def distinct(F, n):
        return Vec(F, rng.sample(range(1, F.q), n))

    def nonzero(F, n):
        return Vec(F, [rng.randrange(1, F.q) for _ in range(n)])

    yield "grs-F8", grs(nonzero(F8, 7), distinct(F8, 7), 3)
    yield "grs-Z11", grs(nonzero(Z11, 9), distinct(Z11, 9), 5)
    yield "ac-Z2-F16", AlternantCode(nonzero(F16, 15), distinct(F16, 15), 2, Z2)
    yield "ac-Z3-F9", AlternantCode(nonzero(F9, 8), distinct(F9, 8), 2, F9.prime_subfield())


@pytest.mark.parametrize("name,C", [
    *(pytest.param(n, demo_code(n), id=n) for n in ("prs13", "bch31", "goppa19")),
    *(pytest.param(n, C, id=n) for n, C in _seeded_codes())])
def test_brute_force_matches_reference(name, C):
    rng = random.Random(name)
    K = C.base_field
    for w in range(C.t + 2):
        for _ in range(2):
            msg = Vec(K, [rng.randrange(K.q) for _ in range(C.k)])
            y = C.encode(msg) + random_error_vector(K, C.n, w, rng)
            for t_max in range(1, C.t + 2):
                if name == "goppa19" and w > C.t and t_max > C.t:
                    continue  # the reference enumerates 1.1 million patterns: seconds per word
                assert brute_force_decode(C, y, t_max) == _brute_force_reference(C, y, t_max)


def test_brute_force_shared_single_syndrome():
    # r = 1 and h all ones: every single error over Z2 has syndrome 1
    C = AlternantCode(Vec(F8, [1] * 7), Vec(F8, range(1, 8)), 1, Z2)
    y = Vec(Z2, (1,) + (0,) * 6)
    assert brute_force_decode(C, y, 1) is AMBIGUOUS
    assert _brute_force_reference(C, y, 1) is AMBIGUOUS


# -- syndrome matrix factorization --------------------------------------------

def _corrected_report(name, w, seed):
    C = demo_code(name)
    e = random_error_vector(C.base_field, C.n, w, seed)
    rep = pgz(e, C)
    assert rep.status is Status.CORRECTED
    return C, rep


@pytest.mark.parametrize("name,w", [("prs13", 2), ("bch31", 3), ("goppa19", 3),
                                    ("grs32", 3), ("bch121", 4)])
def test_verify_structure_positive(name, w):
    C, rep = _corrected_report(name, w, 5)
    assert verify_structure(rep.hankel, rep, C)
    rep_m = pgzm(random_error_vector(C.base_field, C.n, w, 5), C)
    assert verify_structure(rep_m.hankel, rep_m, C)


def test_verify_structure_negative():
    C, rep = _corrected_report("prs13", 2, 5)
    v0 = rep.values[0]
    tampered = dataclasses.replace(rep, values=(v0 + Z13.one,) + rep.values[1:])
    assert not verify_structure(tampered.hankel, tampered, C)
    shifted = dataclasses.replace(rep, locators=rep.locators[:-1])
    assert not verify_structure(shifted.hankel, shifted, C)
    no_word = dataclasses.replace(rep, corrected=None)
    assert not verify_structure(no_word.hankel, no_word, C)
    empty = dataclasses.replace(rep, positions=())
    assert not verify_structure(empty.hankel, empty, C)
