"""Exact arithmetic in small finite fields and their polynomial rings.

A field is either a prime field Z_p or a single extension F_{p^m} given by a
monic irreducible modulus over Z_p (deeper towers are rejected).  Elements
are numbered canonically: the coordinate vector (constant coordinate first)
read as a base-p integer.  Enumeration therefore always starts
0, 1, ..., p-1 and, for extensions, continues with the generator itself.

Internally every element is carried as its canonical integer code, which
makes the prime-subfield embedding the identity on codes.  Every field
builds exp/log tables of its first primitive element b (the generator when
that is primitive), all from one times-table builder; they carry inversion
and powers.  Before the tables exist, an extension finds b and its
multiples b X^k with Poly arithmetic modulo the modulus.  The rest of the
arithmetic is chosen once, by the shape of the field: a prime field adds
and multiplies integers mod p; an extension multiplies through exp/log and
adds by XOR of codes in characteristic 2 and by Zech logarithms in odd
characteristic.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import and_, pos, xor
from typing import Iterable, Iterator

NEG_INF = float("-inf")  # degree of the zero polynomial

_ORDER_CAP = 1 << 20      # largest supported field size
_PRIME_CAP = 1 << 16      # largest supported characteristic

_FIELDS: dict = {}        # structural cache so repeated constructions share tables


def _smallest_factor(n: int) -> int:
    """Smallest prime factor of n >= 2."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _base_p(v: int, p: int, m: int) -> list[int]:
    """The m lowest base-p digits of v, least significant first."""
    out = []
    for _ in range(m):
        v, d = divmod(v, p)
        out.append(d)
    return out


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    while n > 1:
        f = _smallest_factor(n)
        out.append(f)
        while n % f == 0:
            n //= f
    return out


class Field:
    """A prime field Z_p or an extension F_{p^m}.

    Do not call directly; use prime_field() or extension().  Arithmetic on
    raw integer codes is exposed through addc/subc/negc/mulc/invc/powc;
    FieldElement wraps a code for operator syntax.  Instances are immutable
    once built and safe to share.

    exp[k] is the code of g^k for the first primitive element g in canonical
    order, the generator when it is primitive, for 0 <= k < 2(q-1), so
    exp[log[a] + log[b]] needs no reduction; log inverts it on nonzero codes
    (log[0] is meaningless).  Both are arrays of 4-byte integers: 12 MB at
    q = 2^20.  Every field fills them by walking g's table from _times_table;
    an extension finds g and each g X^k by Poly arithmetic mod its modulus.
    """

    __slots__ = (
        "p", "m", "q", "modulus_codes", "gen_label", "name",
        "exp", "log", "addc", "subc", "negc", "mulc",
        "zero", "one",
    )

    def __init__(self, p: int, modulus_codes: tuple[int, ...] | None = None,
                 gen_label: str = "a"):
        self.p = p
        self.modulus_codes = modulus_codes
        self.m = 1 if modulus_codes is None else len(modulus_codes) - 1
        self.q = p ** self.m
        self.gen_label = gen_label
        self.name = f"Z{p}" if self.m == 1 else f"F{self.q}"
        self.exp, self.log = self._power_tables()
        self.addc, self.subc, self.negc, self.mulc = self._arithmetic()
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    # -- construction helpers -------------------------------------------------

    def _power_tables(self) -> tuple[array, array]:
        """exp/log of b, the first primitive element in canonical order.

        A prime field tests candidates with pow mod p.  An extension reads
        each candidate code as a Poly over Z_p and tests it with pow mod the
        modulus f, starting at the generator: the constants have order
        dividing p - 1 < q - 1, so b is the generator whenever that is
        primitive.  The columns b X^k mod f of b's times-table are Poly
        products in Z_p[X]/(f) as well.  The walk 1, b, b^2, ... along the
        times-b table is the exp table: one table step per entry.
        """
        p, m, q, n = self.p, self.m, self.q, self.q - 1
        primes = _prime_factors(n)
        if m == 1:
            cols = [next(c for c in range(1, p) if all(pow(c, n // r, p) != 1 for r in primes))]
        else:
            K = prime_field(p)
            f, x = Poly(K, self.modulus_codes), Poly(K, (0, 1))
            g = next(g for g in (Poly(K, self.coords_code(c)) for c in range(p, q))
                     if all(pow(g, n // r, f).codes != (1,) for r in primes))
            cols = [self._encode((g * x ** k % f).codes) for k in range(m)]
        step = self._times_table(cols)
        exp, log = array("i", bytes(4 * n)), array("i", bytes(4 * q))
        c = 1
        for k in range(n):
            exp[k], log[c] = c, k
            c = step[c]
        return exp * 2, log

    def _times_table(self, cols: list[int]) -> array:
        """Code of b*c for every code c, given the codes cols[k] of b X^k.

        b*c = sum of c_k b X^k is Z_p-linear in the digits c_k of c, so the
        table grows one digit of c at a time: by XOR for p = 2, and for odd p
        as one unreduced linear form per digit of b*c, reduced once at the end.
        """
        p = self.p
        if p == 2:
            table = array("i", [0])
            for v in cols:
                table += array("i", map(xor, table, repeat(v)))
            return table
        digits = [self.coords_code(v) for v in cols]
        table = [0] * self.q
        for j in range(self.m):
            form, w = [0], p ** j
            for u in digits:
                form = [f + du for du in [d * u[j] for d in range(p)] for f in form]
            table = [t + f % p * w for t, f in zip(table, form)]
        return array("i", table)

    def _arithmetic(self) -> tuple:
        """addc, subc, negc and mulc on codes, chosen here once by the field's shape."""
        p, exp, log = self.p, self.exp, self.log
        if self.m == 1 and p > 2:
            return ((lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p),
                    (lambda a: -a % p), (lambda a, b: a * b % p))

        def mulc(a: int, b: int) -> int:
            return exp[log[a] + log[b]] if a and b else 0

        if p == 2:  # a code's bits are its coordinates: + and - are XOR, -a is a
            return xor, xor, pos, and_ if self.m == 1 else mulc
        # a + b = a (1 + g^(log b - log a)); zech[k] = log(1 + g^k), or 0 where 1 + g^k
        # = 0, periodic in q - 1: one period, doubled so every log difference indexes it
        log1 = log[1:] + log[:1]  # log(1 + c): 1 + c bumps the constant digit,
        log1[p - 1::p] = log[::p]  # wrapping p - 1 to 0
        zech = array("i", map(log1.__getitem__, exp[:self.q - 1])) * 2
        half = (self.q - 1) // 2  # -1 = g^half

        def addc(a: int, b: int) -> int:
            if not a or not b:
                return a or b
            la = log[a]
            z = zech[log[b] - la]
            return exp[la + z] if z else 0

        def subc(a: int, b: int) -> int:
            if not b:
                return a
            lb = log[b] + half  # log(-b)
            if not a:
                return exp[lb]
            la = log[a]
            z = zech[lb - la]
            return exp[la + z] if z else 0

        def negc(a: int) -> int:
            return exp[log[a] + half] if a else 0

        return addc, subc, negc, mulc

    def coords_code(self, code: int) -> list[int]:
        """Coordinates of a code over the prime subfield, constant first."""
        return _base_p(code, self.p, self.m)

    def _encode(self, digits: Iterable[int]) -> int:
        code = 0
        for d in reversed(list(digits)):
            code = code * self.p + d
        return code

    # -- integer-code arithmetic ----------------------------------------------

    def invc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return self.exp[self.q - 1 - self.log[a]]

    def powc(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError(f"division by zero in {self.name}")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

    # -- element-level API ----------------------------------------------------

    def element(self, spec) -> "FieldElement":
        """Parse an element from an int, coordinate list, string, or element.

        Strings follow the external syntax: a decimal integer (prime-subfield
        value), the generator label, "label^k" or "label**k", or an ascending
        coordinate list "[c0, c1, ...]".
        """
        if isinstance(spec, FieldElement):
            if spec.field != self:
                raise TypeError(f"element of {spec.field.name} is not in {self.name}")
            return spec
        if isinstance(spec, bool):
            raise TypeError("booleans are not field elements")
        if isinstance(spec, int):
            if self.m == 1:
                return FieldElement(self, spec % self.p)
            if -self.p < spec < self.p:
                return FieldElement(self, spec % self.p)
            raise ValueError(
                f"bare integer {spec} is ambiguous in {self.name}; "
                f"use a coordinate list or a power of {self.gen_label}")
        if isinstance(spec, (list, tuple)):
            if len(spec) > self.m:
                raise ValueError(f"{len(spec)} coordinates exceed degree {self.m}")
            coords = [int(c) % self.p for c in spec]
            coords += [0] * (self.m - len(coords))
            return FieldElement(self, self._encode(coords))
        if isinstance(spec, str):
            return self._parse_str(spec.strip())
        raise TypeError(f"cannot interpret {spec!r} as an element of {self.name}")

    def _parse_str(self, s: str) -> "FieldElement":
        if not s:
            raise ValueError("empty element token")
        if s.startswith("[") and s.endswith("]"):
            inner = s[1:-1].strip()
            parts = [t.strip() for t in inner.split(",")] if inner else []
            try:
                coords = [int(t) for t in parts]
            except ValueError:
                raise ValueError(f"bad coordinate list {s!r}") from None
            return self.element(coords)
        try:
            return self.element(int(s))
        except ValueError:
            pass
        if self.m == 1:
            raise ValueError(f"bad element token {s!r} for {self.name}")
        label = self.gen_label
        if s == label:
            return FieldElement(self, self.p)
        for sep in ("**", "^"):
            if s.startswith(label + sep):
                try:
                    k = int(s[len(label) + len(sep):])
                except ValueError:
                    raise ValueError(f"bad exponent in {s!r}") from None
                return FieldElement(self, self.powc(self.p, k))
        raise ValueError(f"bad element token {s!r} for {self.name}")

    def format_code(self, code: int) -> str:
        if self.m == 1 or code < self.p:
            return str(code)
        if self.exp[1] == self.p:  # the generator is the exp base, so it is primitive
            k = self.log_code(code)
            return self.gen_label if k == 1 else f"{self.gen_label}**{k}"
        return "[" + ", ".join(str(c) for c in self.coords_code(code)) + "]"

    def log_code(self, code: int) -> int:
        """Discrete log of a nonzero code relative to the exp-table base."""
        if code == 0:
            raise ZeroDivisionError(f"zero has no discrete log in {self.name}")
        return self.log[code]

    @property
    def gen(self) -> "FieldElement":
        if self.m == 1:
            raise ValueError(f"{self.name} is a prime field and has no generator")
        return FieldElement(self, self.p)

    @property
    def modulus(self) -> "Poly":
        if self.modulus_codes is None:
            raise ValueError(f"{self.name} has no modulus")
        prime = prime_field(self.p)
        return Poly(prime, self.modulus_codes)

    def elements(self) -> Iterator["FieldElement"]:
        """All elements in canonical order."""
        for c in range(self.q):
            yield FieldElement(self, c)

    def prime_subfield(self) -> "Field":
        return self if self.m == 1 else prime_field(self.p)

    def first_primitive(self) -> "FieldElement":
        """First primitive element in canonical enumeration order: the exp base."""
        return FieldElement(self, self.exp[1])

    def poly(self, coeffs) -> "Poly":
        """Polynomial from an ascending coefficient list (ints/strings/elements)."""
        codes = tuple(self.element(c).code for c in coeffs)
        return Poly(self, codes)

    def vec(self, items) -> "Vec":
        from .linalg import Vec
        return Vec.of(self, items)

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p == other.p and self.modulus_codes == other.modulus_codes
                and self.gen_label == other.gen_label)

    def __hash__(self):
        return hash((self.p, self.modulus_codes, self.gen_label))

    def __repr__(self):
        return self.name

    def __len__(self):
        return self.q

    def __iter__(self):
        return self.elements()


class FieldElement:
    """An element of a Field, identified by its canonical integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    @property
    def coords(self) -> tuple[int, ...]:
        """Coordinates over the prime subfield, constant coordinate first."""
        return tuple(self.field.coords_code(self.code))

    @property
    def is_zero(self) -> bool:
        return self.code == 0

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise TypeError(
                    f"mixed fields: {self.field.name} and {other.field.name}")
            return other.code
        if isinstance(other, int):
            return self.field.element(other).code
        return None

    def __add__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.addc(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.subc(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.subc(c, self.code))

    def __neg__(self):
        return FieldElement(self.field, self.field.negc(self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mulc(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mulc(self.code, self.field.invc(c)))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mulc(c, self.field.invc(self.code)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.powc(self.code, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.invc(self.code))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.code == other.code
        if isinstance(other, int):
            try:
                return self.code == self.field.element(other).code
            except ValueError:
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.modulus_codes, self.code))

    def __bool__(self):
        return self.code != 0

    def __str__(self):
        return self.field.format_code(self.code)

    def __repr__(self):
        return f"{self.field.name}({self.field.format_code(self.code)})"


# -- field constructors -------------------------------------------------------

def prime_field(p: int) -> Field:
    """The prime field Z_p.  p must be a prime with 2 <= p <= 2^16."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p={p!r} is not a prime (need an integer >= 2)")
    if p > _PRIME_CAP:
        raise ValueError(f"p={p} exceeds the characteristic cap {_PRIME_CAP}")
    f = _smallest_factor(p)
    if f != p:
        raise ValueError(f"p={p} is not prime ({f} divides {p})")
    key = (p, None, None)
    if key not in _FIELDS:
        _FIELDS[key] = Field(p)
    return _FIELDS[key]


def extension(K: Field, modulus, gen_label: str = "a") -> tuple[Field, FieldElement]:
    """Extension of a prime field by a monic irreducible modulus.

    modulus is a Poly over K or an ascending coefficient list.  Returns the
    new field together with its generator (the class of X).  Towers beyond a
    single extension are rejected.
    """
    if not isinstance(gen_label, str) or not gen_label.isidentifier():
        raise ValueError(f"generator label {gen_label!r} is not an identifier")
    if K.m != 1:
        raise ValueError(
            f"cannot extend {K.name}: only single extensions of prime fields are supported")
    f = modulus if isinstance(modulus, Poly) else K.poly(modulus)
    if f.field != K:
        raise TypeError(f"modulus is over {f.field.name}, not {K.name}")
    m = f.degree
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must have degree >= 2, got {f}")
    if f.codes[-1] != 1:
        raise ValueError(f"modulus {f} is not monic")
    if K.p ** m > _ORDER_CAP:
        raise ValueError(
            f"field size {K.p}^{m} exceeds the cap 2^20")
    key = (K.p, f.codes, gen_label)
    if key not in _FIELDS:  # a field already built has had its modulus tested
        if (factor := _find_monic_factor(f)) is not None:
            raise ValueError(f"modulus {f} is reducible: divisible by {factor}")
        _FIELDS[key] = Field(K.p, f.codes, gen_label=gen_label)
    F = _FIELDS[key]
    return F, F.gen


def get_irreducible_polynomial(K: Field, m: int) -> "Poly":
    """First monic irreducible of degree m over the prime field K.

    Candidates are scanned in the canonical order of _monic.  A degree whose
    field would exceed 2^20 elements is refused before any search.
    """
    if K.m != 1:
        raise ValueError(f"{K.name} is not a prime field")
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    if m == 1:
        return K.poly([0, 1])
    p = K.p
    if m >= _ORDER_CAP.bit_length() or p ** m > _ORDER_CAP:  # p^m >= 2^m, so p ** m stays small
        raise ValueError(f"field size {p}^{m} exceeds the cap 2^20")
    for f in _monic(K, m):
        if _find_monic_factor(f) is None:
            return f
    raise AssertionError(f"no irreducible of degree {m} over {K.name}")


def _monic(K: Field, d: int) -> Iterator["Poly"]:
    """Monic polynomials of degree d over the prime field K in canonical order:
    the lower coefficient tuple (c_0, ..., c_{d-1}) read as a base-p integer, ascending."""
    return (Poly(K, (*_base_p(idx, K.p, d), 1)) for idx in range(K.p ** d))


def _find_monic_factor(f: "Poly"):
    """A monic factor of degree 1..deg(f)//2, or None if f is irreducible.

    Trial division; divisor candidates are scanned in canonical order.
    """
    for d in range(1, f.degree // 2 + 1):
        for g in _monic(f.field, d):
            if (f % g).is_zero:
                return g
    return None


def element_order(x: FieldElement) -> int:
    """Multiplicative order of a nonzero field element."""
    if x.code == 0:
        raise ZeroDivisionError("zero has no multiplicative order")
    n = x.field.q - 1
    return n // math.gcd(x.field.log[x.code], n)


def pull(x: FieldElement, K: Field) -> FieldElement | None:
    """x as an element of the prime subfield K, or None if it does not lie there.

    A None result is an ordinary value (decoders turn it into a decode
    failure), not an error.
    """
    F = x.field
    if F == K:
        return x
    if K.m != 1 or K.p != F.p:
        raise TypeError(f"{K.name} is not the prime subfield of {F.name}")
    if x.code < F.p:
        return FieldElement(K, x.code)
    return None


class Poly:
    """Dense univariate polynomial over a Field, ascending coefficients.

    Immutable; the zero polynomial has degree NEG_INF.  Construct via
    Field.poly([...]) or the arithmetic operators.
    """

    __slots__ = ("field", "codes")

    def __init__(self, field: Field, codes: Iterable[int]):
        codes = tuple(codes)
        while codes and codes[-1] == 0:
            codes = codes[:-1]
        self.field = field
        self.codes = codes

    @property
    def degree(self):
        return len(self.codes) - 1 if self.codes else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.codes

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise TypeError(
                    f"mixed fields: {self.field.name} and {other.field.name}")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly(self.field, (self.field.element(other).code,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        F = self.field
        a, b = self.codes, o.codes
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.addc(out[i], c)
        return Poly(F, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return Poly(F, (F.negc(c) for c in self.codes))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            F = self.field
            s = F.element(other).code
            return Poly(F, (F.mulc(s, c) for c in self.codes))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        F = self.field
        a, b = self.codes, o.codes
        if not a or not b:
            return Poly(F, ())
        out = [0] * (len(a) + len(b) - 1)
        exp, log, addc = F.exp, F.log, F.addc
        logs_b = [(j, log[y]) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for j, ly in logs_b:
                    out[i + j] = addc(out[i + j], exp[lx + ly])
        return Poly(F, out)

    __rmul__ = __mul__

    def __pow__(self, e: int, mod: "Poly | None" = None):
        """self ** e; pow(self, e, mod) reduces mod mod after each product, as int's does."""
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        r, b = Poly(self.field, (1,)), self
        while e:
            if e & 1:
                r = r * b if mod is None else r * b % mod
            b = b * b if mod is None else b * b % mod
            e >>= 1
        return r if mod is None else r % mod

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.codes)
        dq = len(rem) - len(o.codes)
        if dq < 0:
            return Poly(F, ()), self
        quo = [0] * (dq + 1)
        lead_inv = F.invc(o.codes[-1])
        mulc, subc = F.mulc, F.subc
        for k in range(dq, -1, -1):
            c = mulc(rem[k + len(o.codes) - 1], lead_inv)
            quo[k] = c
            if c:
                for i, oc in enumerate(o.codes):
                    rem[k + i] = subc(rem[k + i], mulc(c, oc))
        return Poly(F, quo), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def at(self, x: int) -> int:
        """Code of the value at the element with code x, by Horner's rule."""
        if not x:
            return self.codes[0] if self.codes else 0
        F = self.field
        exp, log, addc, lx = F.exp, F.log, F.addc, F.log[x]
        acc = 0
        for c in reversed(self.codes):
            acc = addc(exp[log[acc] + lx], c) if acc else c
        return acc

    def __call__(self, x) -> FieldElement:
        """Value at x, which may be anything Field.element accepts."""
        return FieldElement(self.field, self.at(self.field.element(x).code))

    def derivative(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.codes)):
            scalar = i % F.p
            out.append(F.mulc(scalar, self.codes[i]) if scalar else 0)
        return Poly(F, out)

    def truncated(self, r: int) -> "Poly":
        """The polynomial modulo z^r (terms of degree >= r dropped)."""
        return Poly(self.field, self.codes[:r])

    def reciprocal(self) -> "Poly":
        """Coefficients reversed: z^deg * f(1/z)."""
        return Poly(self.field, tuple(reversed(self.codes)))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroDivisionError("the zero polynomial cannot be made monic")
        F = self.field
        inv = F.invc(self.codes[-1])
        return Poly(F, (F.mulc(inv, c) for c in self.codes))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.modulus_codes, self.codes))

    def __str__(self):
        return "[" + ", ".join(self.field.format_code(c) for c in self.codes) + "]"

    def __repr__(self):
        return f"Poly[{self.field.name}]{self}"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    if f.field != g.field:
        raise TypeError("gcd of polynomials over different fields")
    while not g.is_zero:
        f, g = g, f % g
    if f.is_zero:
        return f
    return f.monic()
