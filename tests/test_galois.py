"""Field, element and polynomial arithmetic.

Exhaustive checks where the field is small enough to enumerate, seeded
random sampling elsewhere.  Irreducibility results are cross-checked with a
Frobenius-based test that shares no code with the library's trial division.
"""

import json
import os
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

import alternant

from alternant.codespec import CodeSpecError, load_code, parse_code
from alternant.galois import (
    NEG_INF,
    Field,
    Poly,
    element_order,
    extension,
    get_irreducible_polynomial,
    poly_gcd,
    prime_field,
    pull,
)
from alternant.linalg import LinearMap, Mat

Z2 = prime_field(2)
Z3 = prime_field(3)
Z5 = prime_field(5)
Z13 = prime_field(13)
F25, gen25 = extension(Z5, [3, 0, 1], gen_label="x")
F32, gen32 = extension(Z2, [1, 0, 1, 0, 0, 1])
F243, gen243 = extension(Z3, [1, 2, 0, 0, 0, 1])

# Fields of more than 256 elements; in F512-x73 and F2187-x1093 the generator
# X is not primitive (its order is in the id), so exp/log walk another element.
F512_MODULUS = [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]  # x^9 + x^4 + 1, X primitive
LARGE = [
    pytest.param(extension(Z2, F512_MODULUS)[0], id="F512"),
    pytest.param(extension(Z2, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1])[0], id="F512-x73"),
    pytest.param(extension(Z3, [2, 1, 0, 0, 0, 0, 1])[0], id="F729"),
    pytest.param(extension(Z3, [2, 0, 1, 0, 0, 0, 0, 1])[0], id="F2187-x1093"),
    pytest.param(prime_field(257), id="Z257"),
]


# -- prime fields -------------------------------------------------------------

def test_prime_field_basics():
    assert Z13.q == 13 and Z13.m == 1
    assert [e.code for e in Z13.elements()] == list(range(13))
    assert Z2.q == 2
    assert prime_field(13) is Z13  # cached


def test_z2_operators_are_mod_2_arithmetic():
    for a in (0, 1):
        assert Z2.negc(a) == -a % 2
        for b in (0, 1):
            assert Z2.addc(a, b) == (a + b) % 2
            assert Z2.subc(a, b) == (a - b) % 2
            assert Z2.mulc(a, b) == a * b % 2


def test_composite_rejected_with_factor():
    with pytest.raises(ValueError) as ei:
        prime_field(4)
    assert "2" in str(ei.value)
    with pytest.raises(ValueError) as ei:
        prime_field(91)
    assert "7" in str(ei.value)
    with pytest.raises(ValueError):
        prime_field(1)


def test_characteristic_cap():
    # 65537 is prime but beyond the supported characteristic
    with pytest.raises(ValueError):
        prime_field(65537)


# -- field axioms -------------------------------------------------------------

@pytest.mark.parametrize("F", [Z13, F25, F32], ids=lambda f: f.name)
def test_field_axioms_exhaustive(F):
    q = F.q
    add, mul = F.addc, F.mulc
    for a in range(q):
        for b in range(q):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in range(q):
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a in range(q):
        assert add(a, F.negc(a)) == 0
        assert mul(a, 1) == a
        if a:
            assert mul(a, F.invc(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.invc(0)


@pytest.mark.parametrize("F", [F25, F32, F243, *LARGE], ids=lambda f: f.name)
def test_frobenius(F):
    rng = random.Random(5)
    p = F.p
    for _ in range(200):
        x = F.element([rng.randrange(p) for _ in range(F.m)])
        y = F.element([rng.randrange(p) for _ in range(F.m)])
        assert (x + y) ** p == x ** p + y ** p


def _reference(F):
    """Ring operations on codes by coordinate polynomials over Z_p, reduced % F.modulus."""
    p, m = F.p, F.m
    if m == 1:
        return (lambda a, b: (a + b) % p), (lambda a, b: a * b % p)
    Zp, f = prime_field(p), F.modulus

    def poly(code):
        return Zp.poly([code // p ** i % p for i in range(m)])

    def code(g):
        return sum(c * p ** i for i, c in enumerate(g.codes))

    return (lambda a, b: code(poly(a) + poly(b))), (lambda a, b: code(poly(a) * poly(b) % f))


SMALL = [pytest.param(F, id=F.name) for F in (
    Z2, Z3, Z13, extension(Z2, [1, 1, 1])[0], extension(Z3, [1, 0, 1])[0], F25, F32,
    extension(Z3, get_irreducible_polynomial(Z3, 4))[0], F243,
    extension(Z2, get_irreducible_polynomial(Z2, 8))[0])]


@pytest.mark.parametrize("F", SMALL + LARGE)
def test_arithmetic_matches_coordinate_reference(F):
    add, mul = _reference(F)
    rng = random.Random(2024)
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.addc(a, b) == add(a, b)
        assert F.mulc(a, b) == mul(a, b)
        assert add(F.negc(b), b) == 0
        assert add(F.subc(a, b), b) == a
        assert F.subc(0, b) == F.negc(b)
        if a:
            assert mul(a, F.invc(a)) == 1
        e = rng.randrange(-2 * F.q, 2 * F.q)
        ref, base, k = 1, a, abs(e)  # a^|e| by square and multiply
        while k:
            ref, base, k = mul(ref, base) if k & 1 else ref, mul(base, base), k >> 1
        if e >= 0:
            assert F.powc(a, e) == ref
        elif a:
            assert mul(F.powc(a, e), ref) == 1
    with pytest.raises(ZeroDivisionError):
        F.powc(0, -1)
    xs = [0] + [rng.randrange(F.q) for _ in range(20)]
    ys = [rng.randrange(F.q) for _ in range(20)] + [0]
    ref = 0
    for x, y in zip(xs, ys):
        ref = add(ref, mul(x, y))
    assert LinearMap(Mat(F, [[y] for y in ys]), F)(xs) == [ref]


def test_field_with_low_order_generator_builds_fast():
    # X^2 + X + 1 over Z1019: X has order 3, so the tables walk the first
    # primitive b, whose times-b table comes from b X^k; one digit-list
    # product per coset representative of <X> took 3.6 s here
    t0 = time.perf_counter()
    F = Field(1019, (1, 1, 1))
    assert time.perf_counter() - t0 < 2.0
    n = F.q - 1
    assert set(F.exp[:n]) == set(range(1, F.q))
    assert array("i", map(F.log.__getitem__, F.exp[:n])) == array("i", range(n))
    add, mul = _reference(F)
    rng = random.Random(1019)
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.mulc(a, b) == mul(a, b)
        assert F.addc(a, b) == add(a, b)


def _reference_power(mul, a, e):
    r = 1
    while e:
        r, a, e = mul(r, a) if e & 1 else r, mul(a, a), e >> 1
    return r


def _assert_exp_base(F, mul):
    """b, the first code of reference order q - 1, is the exp base; exp is doubled, log inverts it."""
    n = F.q - 1
    primes = [f for f in range(2, n + 1) if n % f == 0 and all(f % d for d in range(2, f))]
    b = next(c for c in range(1, F.q) if _reference_power(mul, c, n) == 1
             and all(_reference_power(mul, c, n // f) != 1 for f in primes))
    assert F.first_primitive().code == F.exp[1] == b
    assert len(F.exp) == 2 * n and F.exp[n:] == F.exp[:n]
    assert array("i", map(F.log.__getitem__, F.exp[:n])) == array("i", range(n))
    return b


@pytest.mark.parametrize("F", SMALL + LARGE)
def test_exp_base_is_the_first_primitive_element(F):
    _, mul = _reference(F)
    b, x = _assert_exp_base(F, mul), 1
    for k in range(F.q - 1):  # exp[k] == b^k, walked with the reference product
        assert F.exp[k] == x
        x = mul(x, b)


def test_exp_base_of_rs64_field():
    codes = Path(__file__).resolve().parents[1] / "perfbench" / "codes"
    F = load_code(codes / "rs64.json").ext_field
    assert F.q == 1 << 16
    _, mul = _reference(F)
    assert _assert_exp_base(F, mul) == F.p  # the generator of rs64's modulus is primitive
    rng = random.Random(65536)
    for k in (rng.randrange(2 * (F.q - 1)) for _ in range(40)):
        assert F.exp[k] == _reference_power(mul, F.p, k)


def test_printing_does_not_depend_on_call_history():
    # a fresh interpreter, so no field built earlier in this process can help
    code = ("from alternant.galois import extension, prime_field\n"
            f"F, a = extension(prime_field(2), {F512_MODULUS})\n"
            "print(a ** 5)\n")
    env = dict(os.environ)
    src = str(Path(alternant.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "a**5\n"


# -- element order ------------------------------------------------------------

def test_element_order_examples():
    assert element_order(Z13.element(2)) == 12
    assert element_order(Z13.element(1)) == 1
    assert element_order(gen243) == 242
    assert element_order(gen243 * gen243) == 121
    with pytest.raises(ZeroDivisionError):
        element_order(Z13.element(0))


@pytest.mark.parametrize("F", [Z13, F25, F243], ids=lambda f: f.name)
def test_element_order_divides_group_order(F):
    for code in range(1, F.q):
        x = F.element(code) if F.m == 1 else _elem(F, code)
        n = element_order(x)
        assert (F.q - 1) % n == 0
        assert x ** n == F.one
        # minimality: no proper divisor of n works
        for d in range(1, n):
            if n % d == 0:
                assert x ** d != F.one


def _elem(F, code):
    # build from the raw canonical code without going through the parser
    from alternant.galois import FieldElement
    return FieldElement(F, code)


# -- irreducibility and extensions -------------------------------------------

def _powmod(base, e, mod):
    acc = base.field.poly([1])
    b = base % mod
    while e:
        if e & 1:
            acc = (acc * b) % mod
        b = (b * b) % mod
        e >>= 1
    return acc


def _irreducible_frobenius(f):
    """Rabin's criterion: X^(p^m) = X mod f, and X^(p^(m/r)) - X coprime
    to f for every prime divisor r of m."""
    K = f.field
    m, p = f.degree, K.q
    X = K.poly([0, 1])
    if _powmod(X, p ** m, f) != X % f:
        return False
    for r in range(2, m + 1):
        if m % r == 0 and _is_prime(r):
            h = _powmod(X, p ** (m // r), f) - X
            if poly_gcd(h, f).degree > 0:
                return False
    return True


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_first_irreducible_over_z2():
    assert get_irreducible_polynomial(Z2, 2) == Z2.poly([1, 1, 1])


@pytest.mark.parametrize("m,expected", [(4, [2, 1, 0, 0, 1]), (5, [1, 2, 0, 0, 0, 1])])
def test_first_irreducible_over_z3(m, expected):
    f = get_irreducible_polynomial(Z3, m)
    assert f == Z3.poly(expected)
    assert _irreducible_frobenius(f)
    # every earlier candidate in the canonical scan really is reducible
    idx = sum(c * 3 ** i for i, c in enumerate(expected[:-1]))
    for j in range(idx):
        coeffs = []
        v = j
        for _ in range(m):
            coeffs.append(v % 3)
            v //= 3
        cand = Z3.poly(coeffs + [1])
        assert not _irreducible_frobenius(cand), cand


def test_extension_examples():
    a = gen32
    assert a ** 5 == a * a + 1
    x = gen25
    assert x * x == F25.element(2)
    assert F32.q == 32 and F32.m == 5
    assert F243.name == "F243"


def test_generator_label_is_part_of_field_identity():
    Fa, a = extension(Z2, [1, 1, 0, 1], "a")
    Fb, b = extension(Z2, [1, 1, 0, 1], "b")
    assert Fa is extension(Z2, [1, 1, 0, 1], "a")[0]
    assert Fa != Fb and len({Fa, Fb}) == 2
    with pytest.raises(TypeError, match="mixed fields"):
        a + b
    with pytest.raises(TypeError):
        Fa.element(b)


def test_generator_label_must_be_an_identifier():
    # a label that is not an identifier would print elements that read back
    # as other elements, or not at all
    for label in ("1", "[x]", " a", "a,b", "x**2", "a::b", "", 5):
        with pytest.raises(ValueError, match="not an identifier"):
            extension(Z2, [1, 1, 0, 1], gen_label=label)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError) as ei:
        extension(Z2, [1, 0, 1])  # X^2 + 1 = (X+1)^2
    assert "divisible by [1, 1]" in str(ei.value)


def test_extension_preconditions():
    with pytest.raises(ValueError):
        extension(F25, [1, 0, 1])  # towers unsupported
    with pytest.raises(ValueError):
        extension(Z5, [3, 1])  # degree must be >= 2
    with pytest.raises(ValueError):
        extension(Z5, [3, 0, 2])  # not monic


def test_order_cap_checked_before_irreducibility():
    # 3^13 is over the cap; must fail fast even for a reducible candidate
    with pytest.raises(ValueError) as ei:
        extension(Z3, [1] + [0] * 12 + [1])
    assert "cap" in str(ei.value).lower() or "exceed" in str(ei.value).lower()


def test_get_irreducible_preconditions():
    with pytest.raises(ValueError):
        get_irreducible_polynomial(F25, 2)
    with pytest.raises(ValueError):
        get_irreducible_polynomial(Z3, 0)
    # over the field-size cap: refused before any trial division
    with pytest.raises(ValueError, match="exceeds the cap"):
        get_irreducible_polynomial(Z2, 40)
    with pytest.raises(ValueError, match="exceeds the cap"):
        get_irreducible_polynomial(Z3, 10 ** 9)


# -- subfield projection ------------------------------------------------------

def test_pull():
    assert pull(F25.element(3), Z5) == Z5.element(3)
    assert pull(gen25, Z5) is None
    assert pull(gen32 ** 5, Z2) is None  # a^5 = a^2 + 1 has a nonzero a^2 part
    assert pull(gen32 ** 0, Z2) == Z2.one
    assert pull(Z5.element(2), Z5) == Z5.element(2)
    with pytest.raises(TypeError):
        pull(gen25, Z3)


# -- element syntax -----------------------------------------------------------

def test_element_parsing():
    assert Z13.element("11").code == 11
    assert Z13.element(-1).code == 12
    assert F25.element("x").code == F25.p
    assert F25.element("[3, 1]").code == 3 + 1 * 5
    assert F32.element("a**5") == gen32 ** 5
    assert F32.element("a^5") == gen32 ** 5
    assert F25.element([2]) == F25.element(2)
    assert F25.element(-2) == -F25.element(2)


def test_element_parsing_errors():
    with pytest.raises(ValueError):
        F25.element(7)  # ambiguous bare integer beyond the prime subfield
    with pytest.raises(ValueError):
        F25.element("y**2")
    with pytest.raises(ValueError):
        F25.element("[1, 2, 3]")
    with pytest.raises(TypeError):
        Z13.element(True)
    with pytest.raises(TypeError):
        F25.element(2.5)


@pytest.mark.parametrize("coords", [[True, 2], ["1", 2], [0.5, 1.7], (2, False)], ids=repr)
def test_coordinate_lists_take_only_integers(coords):
    # each coordinate obeys the rule for a bare scalar: an int that is not a bool
    with pytest.raises(TypeError, match="coordinates must be integers"):
        F25.element(coords)
    desc = {"kind": "BCH", "field": {"p": 3, "m": 2}, "alpha": list(coords), "d": 3}
    with pytest.raises(CodeSpecError, match="alpha: coordinates must be integers"):
        parse_code(json.dumps(desc))


@pytest.mark.parametrize("F", [Z13, F25, F32, *LARGE], ids=lambda f: f.name)
def test_format_roundtrip(F):
    for code in range(F.q):
        s = F.format_code(code)
        assert F.element(s).code == code


def test_extension_display_styles():
    # primitive generator: power notation
    assert str(gen32 ** 5) == "a**5"
    assert str(F32.one) == "1"
    assert str(F32.zero) == "0"
    # F25's generator has order 8, not 24: coordinates instead
    assert str(gen25) == "[0, 1]"


# -- polynomials --------------------------------------------------------------

def test_poly_basic_shape():
    f = Z13.poly([2, 5, 1])
    assert f.degree == 2
    assert Z13.poly([]).degree == NEG_INF
    assert Z13.poly([0, 0, 0]).is_zero
    assert Z13.poly([7, 0, 0]) == Z13.poly([7])  # trailing zeros dropped


def test_poly_arithmetic_random():
    rng = random.Random(11)
    for F in (Z13, F25):
        for _ in range(100):
            f = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(9))])
            d = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
            if d.is_zero:
                continue
            q, r = divmod(f, d)
            assert q * d + r == f
            assert r.degree < d.degree
            x = _elem(F, rng.randrange(F.q))
            assert (f * d)(x) == f(x) * d(x)
            assert (f + d)(x) == f(x) + d(x)
    with pytest.raises(ZeroDivisionError):
        divmod(Z13.poly([1, 1]), Z13.poly([]))
    for F in (Z13, F25, F32):
        for _ in range(5):
            f = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(9))])
            assert all(f.at(x.code) == f(x).code for x in F.elements())


def test_locator_reference_values():
    L = Z13.poly([2, 5, 1])              # z^2 + 5z + 2
    Lt = L.reciprocal()
    assert Lt == Z13.poly([1, 5, 2])     # 2z^2 + 5z + 1
    assert Lt.derivative() == Z13.poly([5, 4])
    assert L(Z13.element(3)).is_zero and L(Z13.element(5)).is_zero
    sigma = Z13.poly([5, 7, 7, 3])
    assert (Lt * sigma).truncated(4) == Z13.poly([5, 6])


def test_reciprocal_and_truncate_edge_cases():
    one = Z13.poly([1])
    assert (one * Z13.poly([3, 1])).truncated(1) == Z13.poly([3])
    assert Z13.poly([10, 1]).reciprocal() == Z13.poly([1, 10])
    assert Z13.poly([4]).truncated(0).is_zero


def test_poly_power_and_monic():
    f = Z5.poly([4, 1]) ** 3
    assert f == Z5.poly([4, 1]) * Z5.poly([4, 1]) * Z5.poly([4, 1])
    g = Z5.poly([2, 4])
    assert g.monic() == Z5.poly([3, 1])


def test_poly_gcd_common_root():
    A = Z13.poly([10, 1]) * Z13.poly([8, 1])   # (z-3)(z-5)
    B = Z13.poly([10, 1]) * Z13.poly([12, 1])  # (z-3)(z-1)
    g = poly_gcd(A, B)
    assert g.monic() == Z13.poly([10, 1])


def test_goppa_polynomial_root_census():
    # T^6 + T^3 + T + 1 over F25: exactly 19 nonzero non-roots
    g = F25.poly([1, 1, 0, 1, 0, 0, 1])
    nonroots = [t for t in F25.elements() if t.code != 0 and not g(t).is_zero]
    assert len(nonroots) == 19
    roots = [t for t in F25.elements() if g(t).is_zero]
    assert len(roots) == 5  # four simple roots and one double root


def test_poly_display():
    f = Z13.poly([2, 5, 1])
    assert str(f) == "[2, 5, 1]"


def test_poly_operators_against_plain_arithmetic():
    f, d = Z13.poly([2, 5, 1]), Z13.poly([10, 1])  # (z - 3)(z - 5) and z - 3
    assert 3 - f == Z13.poly([(3 - 2) % 13, -5 % 13, -1 % 13])
    for s in (3, Z13.element(3)):
        assert f * s == s * f == Z13.poly([3 * c % 13 for c in (2, 5, 1)])
    assert f // d == Z13.poly([8, 1])  # z - 5
    assert Z13.poly([1, 2]) // f == Z13.poly([])
    assert repr(f) == "Poly[Z13][2, 5, 1]"
    assert hash(Z13.poly([7, 0, 0])) == hash(Z13.poly([7]))
    assert len({f, Z13.poly([2, 5, 1, 0]), d}) == 2
    _, mul = _reference(F25)
    g = Poly(F25, (1, 7, 0, 13))
    for s in (gen25, F25.element("[2, 3]")):
        assert (g * s).codes == tuple(mul(c, s.code) for c in g.codes)


def test_poly_degenerate_cases():
    zero = Z13.poly([])
    assert poly_gcd(zero, zero).is_zero
    assert poly_gcd(Z13.poly([4, 2]), zero) == Z13.poly([2, 1])
    with pytest.raises(TypeError, match="different fields"):
        poly_gcd(Z13.poly([1, 1]), Z5.poly([1, 1]))
    with pytest.raises(ZeroDivisionError):
        zero.monic()
    with pytest.raises(ValueError, match="negative"):
        Z13.poly([1, 1]) ** -1


@pytest.mark.parametrize("K", [Z2, Z3, Z5], ids=lambda f: f.name)
def test_poly_pow_mod_is_power_then_remainder(K):
    rng = random.Random(K.p)
    p = K.p

    def rand_poly(lo, hi):  # degree lo..hi, nonzero leading coefficient
        return Poly(K, [rng.randrange(p) for _ in range(rng.randrange(lo, hi + 1))]
                    + [rng.randrange(1, p)])

    cases = []
    for _ in range(60):
        f = rand_poly(0, 4)  # degrees 0..4: a constant f reduces everything to 0
        g = rand_poly(0, 9) if rng.randrange(4) else Poly(K, ())
        cases.append((g, rng.randrange(20), f))
    f1 = rand_poly(1, 1)
    cases += [
        (rand_poly(2, 6), 0, rand_poly(1, 3)),          # e = 0
        (rand_poly(6, 9), 7, rand_poly(1, 3)),          # deg g >= deg f
        (f1 * rand_poly(0, 3), 5, f1),                  # g = 0 mod f
        (rand_poly(0, 5), 11, f1),                      # f of degree 1
        (rand_poly(0, 5), 3, Poly(K, (1,))),            # f a unit: everything is 0
    ]
    for g, e, f in cases:
        assert pow(g, e, f) == (g ** e) % f, (g, e, f)
    assert pow(f1 * rand_poly(0, 3), 5, f1).is_zero
    assert pow(rand_poly(2, 6), 0, rand_poly(1, 3)) == Poly(K, (1,))
    with pytest.raises(ValueError, match="negative"):
        pow(rand_poly(1, 3), -1, rand_poly(1, 3))


# -- element operators and field protocol -------------------------------------

@pytest.mark.parametrize("F", [Z13, F25, F32, F243], ids=lambda f: f.name)
def test_element_division_and_reflected_subtraction(F):
    add, mul = _reference(F)
    rng = random.Random(37)
    for _ in range(100):
        a, b, k = rng.randrange(F.q), rng.randrange(1, F.q), rng.randrange(F.p)
        x, y = _elem(F, a), _elem(F, b)
        assert mul((x / y).code, b) == a
        assert mul((k / y).code, b) == k
        assert add((k - y).code, b) == k
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero
    with pytest.raises(ZeroDivisionError):
        1 / F.zero


def test_element_equality_hash_and_display():
    assert Z13.element(3) == 16 and Z13.element(3) != 4
    assert F25.element(2) == 2 and F25.element(2) == -3
    assert not (gen25 == 5)  # 5 is ambiguous in F25, even though gen25 has code 5
    assert not (gen25 == 7)
    assert gen25 != "x"
    assert not F25.zero and F25.one and gen25
    assert hash(F25.element([1, 1])) == hash(gen25 + 1)
    assert len(set(F25.elements())) == 25
    assert len({F25.element(3), F25.element(-2), F25.element("3")}) == 1
    assert repr(gen32 ** 5) == "F32(a**5)"
    assert repr(gen25) == "F25([0, 1])"
    assert repr(Z13.element(-1)) == "Z13(12)"


def test_field_protocol():
    assert F25.q == 25 and Z13.q == 13
    with pytest.raises(ValueError, match="no generator"):
        Z13.gen
    with pytest.raises(ValueError, match="no modulus"):
        Z13.modulus
    assert F25.modulus == Z5.poly([3, 0, 1])
