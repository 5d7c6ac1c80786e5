"""Decoder pipeline: syndromes, locator extraction, Forney values, reports.

Reference values are small enough to check by hand; randomized trials use
fixed seeds and verify decoder output against the error that was planted,
which is an oracle the decoder never sees.
"""

import random

import pytest

from alternant.codes import bch
from alternant.demo import demo_code
from alternant.galois import Poly, extension, prime_field
from alternant.linalg import Mat, Vec
from alternant.pgz import (
    DecodeReport,
    FailureReason,
    Status,
    alt_error_evaluator,
    error_evaluator,
    forney,
    forney_alt,
    locate,
    pgz,
    pgzm,
    random_error_vector,
)

Z2 = prime_field(2)
Z5 = prime_field(5)
Z13 = prime_field(13)
F32, gen32 = extension(Z2, [1, 0, 1, 0, 0, 1])


def _single(n, pos, val):
    codes = [0] * n
    codes[pos] = val
    return codes


# -- evaluator and value formulas ---------------------------------------------

def test_error_evaluator_reference():
    # one error: reciprocal locator 1 + 10z, syndrome 9 + z + 3z^2 + 9z^3
    E = error_evaluator(Z13.poly([9, 1, 3, 9]), Z13.poly([1, 10]), 4)
    assert E == Z13.poly([9])
    # two errors: reciprocal locator 1 + 5z + 2z^2, syndrome 5 + 7z + 7z^2 + 3z^3
    E2 = error_evaluator(Z13.poly([5, 7, 7, 3]), Z13.poly([1, 5, 2]), 4)
    assert E2 == Z13.poly([5, 6])


def test_forney_reference():
    C = demo_code("prs13")
    e = forney(4, C, Z13.poly([9]), Z13.poly([1, 10]).derivative())
    assert e == Z13.element(3)


def test_alt_evaluator_and_forney_alt_reference():
    C = demo_code("prs13")
    s = Vec(Z13, (9, 1, 3, 9))
    L = Z13.poly([10, 1])
    E_star = alt_error_evaluator(s, L)
    assert E_star == Z13.poly([12])
    assert forney_alt(4, C, E_star, L) == Z13.element(3)


def test_forney_variants_agree_on_random_decodes():
    rng = random.Random(77)
    for name in ("prs31", "bch31", "goppa19"):
        C = demo_code(name)
        for _ in range(15):
            w = rng.randrange(1, C.t + 1)
            e = random_error_vector(C.base_field, C.n, w, rng)
            rep = pgz(e, C)
            assert rep.status is Status.CORRECTED
            E_star = alt_error_evaluator(rep.syndrome, rep.locator_poly)
            for m, v in zip(rep.positions, rep.values):
                alt = forney_alt(m, C, E_star, rep.locator_poly)
                assert alt.code == v.code


def test_locate():
    C = demo_code("prs13")
    L = Z13.poly([2, 5, 1])  # (z - 3)(z - 5)
    positions, locators = locate(L, C.alpha)
    assert positions == (4, 9)
    assert locators == (Z13.element(3), Z13.element(5))
    none_pos, none_loc = locate(Z13.poly([1]), C.alpha)
    assert none_pos == () and none_loc == ()


# -- golden single- and two-error decodes -------------------------------------

def test_single_error_golden():
    C = demo_code("prs13")
    rep = pgz(_single(12, 4, 3), C)
    assert rep.status is Status.CORRECTED
    assert rep.syndrome == Vec(Z13, (9, 1, 3, 9))
    assert rep.hankel == Mat.of(Z13, [[9, 1, 3], [1, 3, 9]])
    assert rep.l == 1
    assert rep.locator_poly == Z13.poly([10, 1])
    assert rep.evaluator_poly == Z13.poly([9])
    assert rep.positions == (4,)
    assert rep.locators == (Z13.element(3),)
    assert rep.values == (Z13.element(3),)
    assert rep.corrected.is_zero
    assert rep.render() == [
        "PGZ: Error positions [4], error values [3] :: Vector[Z13]",
        "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] :: Vector[Z13]",
    ]


def test_two_error_golden():
    C = demo_code("prs13")
    y = [0] * 12
    y[4], y[9] = 3, 7
    rep = pgz(y, C)
    assert rep.status is Status.CORRECTED
    assert rep.syndrome == Vec(Z13, (5, 7, 7, 3))
    assert rep.hankel == Mat.of(Z13, [[5, 7, 7], [7, 7, 3]])
    assert rep.l == 2
    assert rep.locator_poly == Z13.poly([2, 5, 1])
    assert rep.evaluator_poly == Z13.poly([5, 6])
    assert rep.positions == (4, 9)
    assert rep.values == (Z13.element(3), Z13.element(7))
    assert rep.corrected.is_zero


def test_pgzm_two_error_golden():
    C = demo_code("prs13")
    y = [0] * 12
    y[4], y[9] = 3, 7
    rep = pgzm(y, C)
    assert rep.status is Status.CORRECTED
    assert rep.positions == (4, 9)
    assert rep.values == (Z13.element(3), Z13.element(7))
    assert rep.evaluator_poly is None
    assert rep.locator_poly == Z13.poly([2, 5, 1])


def test_single_error_oracle():
    # planted single errors must come back exactly, for every demo code
    rng = random.Random(19)
    for name in ("prs13", "prs31", "bch31", "grs32", "bch121", "goppa19", "goppa76"):
        C = demo_code(name)
        K = C.base_field
        for _ in range(5):
            pos = rng.randrange(C.n)
            val = rng.randrange(1, K.q)
            y = Vec(K, _single(C.n, pos, val))  # raw codes, no token parsing
            for decode in (pgz, pgzm):
                rep = decode(y, C)
                assert rep.status is Status.CORRECTED, name
                assert rep.l == 1
                assert rep.positions == (pos,)
                assert rep.values == (y[pos],)
                assert rep.locators == (C.alpha[pos],)
                assert rep.corrected.is_zero


def test_decoders_agree_and_fix_planted_errors():
    rng = random.Random(4)
    for name in ("prs13", "bch31", "goppa19"):
        C = demo_code(name)
        K = C.base_field
        G = C.generator_matrix()
        for _ in range(10):
            msg = [rng.randrange(K.q) for _ in range(C.k)]
            c = C.encode(msg)
            w = rng.randrange(1, C.t + 1)
            e = random_error_vector(K, C.n, w, rng)
            y = c + e
            a = pgz(y, C)
            b = pgzm(y, C)
            assert a.status is Status.CORRECTED and b.status is Status.CORRECTED
            assert a.corrected == c and b.corrected == c
            assert a.positions == b.positions == e.support()
            assert a.values == b.values == tuple(e[i] for i in e.support())
            assert a.l == b.l == w


# -- no-error and failure paths -----------------------------------------------

def test_no_error_path():
    C = demo_code("prs13")
    rep = pgz([0] * 12, C)
    assert rep.status is Status.NO_ERROR
    assert rep.ok
    assert rep.corrected.is_zero
    assert rep.render() == [
        "PGZ: Input is a code vector",
        "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] :: Vector[Z13]",
    ]
    c = C.encode([1, 2, 3, 4, 5, 6, 7, 8])
    rep2 = pgzm(c, C)
    assert rep2.status is Status.NO_ERROR
    assert rep2.message == "PGZm: Input is a code vector"
    assert rep2.corrected == c


def _assert_partial_trace(rep, hankel, l, locator_poly, positions, locators):
    """A failure report holds the stages that finished and nothing after them."""
    assert rep.hankel == hankel
    assert rep.l == l
    assert rep.locator_poly == locator_poly
    assert rep.positions == positions
    assert rep.locators == locators
    assert rep.values == ()
    assert rep.evaluator_poly is None and rep.corrected is None


def test_defective_location_fixture():
    C = demo_code("prs13")
    e = random_error_vector(Z13, 12, 3, 1)  # weight t + 1
    rep = pgz(e, C)
    assert rep.status is Status.FAILURE
    assert rep.reason is FailureReason.DEFECTIVE_ERROR_LOCATION
    assert rep.message == "PGZ: Defective error location"
    assert rep.corrected is None
    assert not rep.ok
    assert rep.render() == ["PGZ: Defective error location"]
    assert pgzm(e, C).message == "PGZm: Defective error location"
    # L = z^2 + 2z + 3 has no root among the support
    for decode in (pgz, pgzm):
        _assert_partial_trace(decode(e, C), Mat(Z13, [[6, 5, 11], [5, 11, 2]]),
                              2, Z13.poly([3, 2, 1]), (), ())


def test_malformed_structure_fixture():
    C = demo_code("prs13")
    e = random_error_vector(Z13, 12, 3, 26)
    rep = pgz(e, C)
    assert rep.status is Status.FAILURE
    assert rep.reason is FailureReason.MALFORMED_SYNDROME_STRUCTURE
    assert rep.message == "PGZ: Malformed syndrome structure"
    for decode in (pgz, pgzm):
        _assert_partial_trace(decode(e, C), Mat(Z13, [[11, 4, 5], [4, 5, 1]]),
                              0, None, (), ())


def test_value_not_in_base_field_fixture():
    C = demo_code("goppa19")
    e = random_error_vector(Z5, 19, 4, 1)
    assert e.codes == (0, 0, 4, 4, 4, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    for decode in (pgz, pgzm):
        rep = decode(e, C)
        assert rep.status is Status.FAILURE
        assert rep.reason is FailureReason.VALUE_NOT_IN_BASE_FIELD
        # identical wording for both decoders, PGZ prefix included
        assert rep.message == "PGZ: error value not in base field"
        F = C.ext_field
        _assert_partial_trace(
            rep, Mat(F, [[1, 3, 19, 12], [3, 19, 12, 15], [19, 12, 15, 22]]),
            3, Poly(F, (23, 9, 2, 1)), (0, 7, 10), tuple(Vec(F, (1, 12, 15))))


def test_rank_zero_hankel_fixture():
    # y sits in the larger code with one fewer control row, so the first
    # 2t syndrome entries vanish while the syndrome itself does not
    C = bch(gen32, 6)
    y = Vec(Z2, (1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1) + (0,) * 20)
    s = C.syndrome(y)
    assert not s.is_zero and all(c == 0 for c in s.codes[:4])
    for decode, prefix in ((pgz, "PGZ"), (pgzm, "PGZm")):
        rep = decode(y, C)
        assert rep.status is Status.FAILURE
        assert rep.reason is FailureReason.MALFORMED_SYNDROME_STRUCTURE
        assert rep.message == f"{prefix}: Malformed syndrome structure"
        _assert_partial_trace(rep, Mat(F32, [[0, 0, 0], [0, 0, 0]]), 0, None, (), ())


def test_beyond_capacity_never_returns_noncodeword():
    rng = random.Random(100)
    for name in ("prs13", "goppa19"):
        C = demo_code(name)
        K = C.base_field
        for _ in range(40):
            e = random_error_vector(K, C.n, C.t + 1, rng)
            for decode in (pgz, pgzm):
                rep = decode(e, C)  # must not raise
                if rep.status is Status.CORRECTED:
                    assert C.is_codeword(rep.corrected)
                    assert (e - rep.corrected).weight() <= C.t


# -- argument validation ------------------------------------------------------

def test_argument_type_errors():
    C = demo_code("prs13")
    with pytest.raises(TypeError) as ei:
        pgz(17, C)
    assert str(ei.value) == "PGZ: Argument is not a vector"
    with pytest.raises(TypeError) as ei:
        pgzm("000000000000", C)
    assert str(ei.value) == "PGZm: Argument is not a vector"
    with pytest.raises(TypeError) as ei:
        pgz(Vec(Z5, (1, 2, 3)), C)
    assert str(ei.value) == "PGZ: Argument is a vector over Z5, not Z13"
    with pytest.raises(TypeError) as ei:
        pgz(["bogus"] + [0] * 11, C)
    assert "PGZ: Argument is not a vector over Z13" in str(ei.value)


def test_argument_length_error():
    C = demo_code("prs13")
    with pytest.raises(ValueError) as ei:
        pgz([0] * 5, C)
    assert str(ei.value) == "PGZ: Vector argument has wrong length (5, expected 12)"


# -- error vector sampler -----------------------------------------------------

def test_random_error_vector():
    e1 = random_error_vector(Z13, 12, 3, 42)
    e2 = random_error_vector(Z13, 12, 3, random.Random(42))
    assert e1 == e2
    assert e1.weight() == 3
    assert all(c for c in (e1[i].code for i in e1.support()))
    assert random_error_vector(Z13, 12, 0, 0).is_zero
    assert random_error_vector(Z2, 5, 5, 0).codes == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        random_error_vector(Z13, 12, 13, 0)
    # a shared generator advances across calls
    rng = random.Random(7)
    assert random_error_vector(Z13, 12, 2, rng) != random_error_vector(Z13, 12, 2, rng)


def test_enums_and_report_flags():
    assert Status.NO_ERROR.value == "NoError"
    assert Status.CORRECTED.value == "Corrected"
    assert Status.FAILURE.value == "Failure"
    assert FailureReason.DEFECTIVE_ERROR_LOCATION.value == "DefectiveErrorLocation"
    assert FailureReason.VALUE_NOT_IN_BASE_FIELD.value == "ValueNotInBaseField"
    assert FailureReason.MALFORMED_SYNDROME_STRUCTURE.value == "MalformedSyndromeStructure"
    rep = DecodeReport("PGZ", Status.FAILURE, Vec(Z13, (1,)), message="x")
    assert not rep.ok and rep.render() == ["x"]
