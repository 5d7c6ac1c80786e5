"""Alternant codes and their classical specializations.

An alternant code is determined by a multiplier vector h, a support vector
alpha (distinct, nonzero entries of an extension field), a redundancy r, and
a base field K.  Its control matrix is the r x n Vandermonde-type matrix
H[i][j] = h_j * alpha_j^i; the code is every K-vector x with x @ H^T = 0.

Specializations provided: Reed-Solomon (rs), generalized RS (grs), primitive
RS (prs), BCH (bch) and classical Goppa (goppa) codes.
"""

from __future__ import annotations

from .galois import Field, FieldElement, Poly, element_order, poly_gcd
from .linalg import (
    GJResult, LinearMap, Mat, Vec, expand, gauss_jordan, null_space, vandermonde,
)


class CodeError(ValueError):
    """Raised for invalid code constructions or arguments."""


class _Support(Vec):
    """A code's own copy of its support, holding the map pgz.locate finds roots with."""

    __slots__ = ("root_map",)


class AlternantCode:
    """A_K(h, alpha, r): kernel of H^T over the base field K.

    h and alpha live in an extension field; K is either that field itself or
    its prime subfield.  The dimension and generator matrix are computed on
    first use and cached (instances are otherwise immutable; a duplicate
    lazy computation under concurrency is benign).
    """

    def __init__(self, h: Vec, alpha: Vec, r: int, base_field: Field,
                 kind: str = "AC", d_bound: int | None = None):
        if h.field != alpha.field:
            raise CodeError(
                f"h is over {h.field.name} but alpha is over {alpha.field.name}")
        F = alpha.field
        if not (base_field == F or (base_field.m == 1 and base_field.p == F.p)):
            raise CodeError(
                f"base field {base_field.name} is neither {F.name} nor its prime subfield")
        n = len(alpha)
        if len(h) != n:
            raise CodeError(f"h has length {len(h)}, alpha has length {n}")
        if not isinstance(r, int) or not 1 <= r < n:
            raise CodeError(f"need 1 <= r < n={n}, got r={r}")
        seen = {}
        for i, c in enumerate(alpha.codes):
            if c == 0:
                raise CodeError(f"alpha[{i}] is zero")
            if c in seen:
                raise CodeError(f"alpha[{i}] repeats alpha[{seen[c]}]")
            seen[c] = i
        for i, c in enumerate(h.codes):
            if c == 0:
                raise CodeError(f"h[{i}] is zero")
        self.h = h
        self.alpha = alpha = _Support(F, alpha.codes)
        self.r = r
        self.n = n
        self.base_field = base_field
        self.ext_field = F
        self.kind = kind
        self._d_bound = d_bound  # a family's own bound, when above r + 1
        self.m = 1 if base_field == F else F.m
        self.t = r // 2
        mulc = F.mulc
        V = vandermonde(r, alpha)
        self.H = Mat(F, ((mulc(v, hc) for v, hc in zip(row, h.codes))
                         for row in V.rows), ncols=n)
        self._syndrome_map = LinearMap(self.H.transpose(), base_field)
        alpha.root_map = LinearMap(Mat(F, V.rows[:self.t + 1]), F)  # locators of degree <= t
        self._k: int | None = None
        self._reduced: GJResult | None = None  # k's elimination, which G is read off
        self._G: Mat | None = None
        self._encode_map: LinearMap | None = None

    # -- parameters -----------------------------------------------------------

    @property
    def k(self) -> int:
        """Dimension over K: n minus the rank of the expanded H, whose reduction G is read off."""
        if self._k is None:
            self._reduced = gauss_jordan(expand(self.H, self.base_field))
            self._k = self.n - self._reduced.rank
        return self._k

    @property
    def d_bound(self) -> int:
        """Guaranteed lower bound on the minimum distance, never above Singleton's n - k + 1."""
        return min(self._d_bound or self.r + 1, self.n - self.k + 1)

    @property
    def d_exact(self) -> int | None:
        """Exact minimum distance when known (MDS kinds), else None."""
        return self.n - self.k + 1 if self.kind in ("RS", "GRS", "PRS") else None

    def generator_matrix(self) -> Mat:
        """k x n matrix over K whose rows form a deterministic basis."""
        if self._G is None:
            if self.k == 0:
                raise CodeError(f"{self.describe()} has dimension 0")
            G, self._reduced = null_space(self._reduced), None  # k's reduction: one pass
            assert G.nrows == self.k
            self._encode_map = LinearMap(G, self.base_field)  # before _G: whoever sees _G finds it
            self._G = G
        return self._G

    def describe(self) -> str:
        K = self.base_field
        via = "" if self.ext_field == K else f" via {self.ext_field.name}"
        return f"{self.kind}[n={self.n}, r={self.r}] over {K.name}{via}"

    def __repr__(self):
        return self.describe()

    # -- operations -----------------------------------------------------------

    def syndrome(self, y, at=None) -> Vec:
        """y @ H^T for a received word y over K; with at (distinct positions), for the word
        holding the entries y at those positions and 0 elsewhere, from those columns of H."""
        y = Vec.of(self.base_field, y)
        if at is None:
            if len(y) != self.n:
                raise CodeError(f"vector length {len(y)} != n={self.n}")
        elif len(y) != len(at) or len(set(at)) < len(at) or min(at) < 0 or max(at) >= self.n:
            raise CodeError(f"{len(y)} entries for positions {tuple(at)} in 0..{self.n - 1}")
        return Vec(self.ext_field, self._syndrome_map(y.codes, at))

    def encode(self, message) -> Vec:
        """message (length k over K) times the generator matrix."""
        K = self.base_field
        self.generator_matrix()  # builds _encode_map on first use
        msg = Vec.of(K, message)
        if len(msg) != self.k:
            raise CodeError(f"message length {len(msg)} != k={self.k}")
        return Vec(K, self._encode_map(msg.codes))

    def is_codeword(self, x) -> bool:
        try:
            return self.syndrome(x).is_zero
        except (TypeError, ValueError):  # a CodeError is a ValueError
            return False


# -- specializations ----------------------------------------------------------

def rs(a: Vec, k: int, kind: str = "RS") -> AlternantCode:
    """Reed-Solomon code on support a with dimension k.

    The multiplier h_i = 1 / prod_{j != i} (a_j - a_i) makes the rows of the
    k x n Vandermonde matrix on a a generator of the code.
    """
    F = a.field
    n = len(a)
    if not 1 <= k < n:
        raise CodeError(f"need 1 <= k < n={n}, got k={k}")
    mulc, subc, invc = F.mulc, F.subc, F.invc
    h = []
    for i, ai in enumerate(a.codes):
        prod = 1
        for j, aj in enumerate(a.codes):
            if j != i:
                d = subc(aj, ai)
                if d == 0:
                    raise CodeError(f"support entries {i} and {j} coincide")
                prod = mulc(prod, d)
        h.append(invc(prod))
    return AlternantCode(Vec(F, h), a, n - k, F, kind=kind)


def grs(h: Vec, a: Vec, k: int) -> AlternantCode:
    """Generalized Reed-Solomon code: alternant with r = n - k over a's field."""
    n = len(a)
    if not 1 <= k < n:
        raise CodeError(f"need 1 <= k < n={n}, got k={k}")
    return AlternantCode(h, a, n - k, a.field, kind="GRS")


def prs(F: Field, k: int) -> AlternantCode:
    """Primitive Reed-Solomon code of length q-1 over F.

    The support is (1, g, g^2, ..., g^(q-2)) for the first primitive element
    g in canonical enumeration order.
    """
    n = F.q - 1
    if n < 2:
        raise CodeError(f"{F.name} is too small for a primitive RS code")
    if not 1 <= k < n:
        raise CodeError(f"need 1 <= k < q-1={n}, got k={k}")
    return rs(Vec(F, F.exp[:n]), k, kind="PRS")


def bch(alpha: FieldElement, d: int, l: int = 1) -> AlternantCode:
    """BCH code with designed distance d and first root exponent l.

    Support is (1, alpha, ..., alpha^(n-1)) with n the order of alpha;
    multipliers are (1, alpha^l, ..., alpha^((n-1)l)); r = d - 1.  The base
    field is the prime subfield of alpha's field.
    """
    if alpha.is_zero:
        raise CodeError("alpha must be nonzero")
    F = alpha.field
    n = element_order(alpha)
    if n < 2:
        raise CodeError(f"alpha has order {n}; need at least 2")
    if not isinstance(d, int) or d < 2:
        raise CodeError(f"designed distance must be an integer >= 2, got {d}")
    if d - 1 >= n:
        raise CodeError(f"designed distance {d} needs r={d - 1} < n={n}")
    if not isinstance(l, int) or l < 0:
        raise CodeError(f"first root exponent must be a nonnegative integer, got {l}")
    powc = F.powc
    ac = alpha.code
    avec = [powc(ac, i) for i in range(n)]
    h = [powc(ac, (i * l) % n) for i in range(n)]
    return AlternantCode(Vec(F, h), Vec(F, avec), d - 1, F.prime_subfield(), kind="BCH")


def goppa(g: Poly, a: Vec) -> AlternantCode:
    """Classical Goppa code with Goppa polynomial g and support a.

    h_i = 1/g(a_i); r = deg g; base field is the prime subfield.  For binary
    codes with squarefree g the distance bound improves to 2 deg(g) + 1.
    """
    F = a.field
    if g.field != F:
        raise CodeError(f"g is over {g.field.name} but the support is over {F.name}")
    r = g.degree
    if not isinstance(r, int) or r < 1:
        raise CodeError(f"Goppa polynomial must have degree >= 1, got {g}")
    h = []
    for i, c in enumerate(a.codes):
        v = g.at(c)
        if v == 0:
            raise CodeError(f"g vanishes at support entry {i} ({F.format_code(c)})")
        h.append(F.invc(v))
    d_bound = None
    if F.p == 2:
        gp = g.derivative()
        if not gp.is_zero and poly_gcd(g, gp).degree == 0:
            d_bound = 2 * r + 1
    return AlternantCode(Vec(F, h), a, r, F.prime_subfield(), kind="Goppa", d_bound=d_bound)
