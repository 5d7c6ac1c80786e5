"""Peterson-Gorenstein-Zierler decoding of alternant codes.

pgz and pgzm run one pipeline and differ only in the value stage:

  1. s = y @ H^T; an all-zero syndrome means y is already a codeword.
  2. S = the t x (t+1) Hankel matrix of s_0..s_{2t-1}; its rank l is the
     number of errors.  One forward elimination gives l and the pivot
     columns, and a back-substitution of column l gives the locator
     coefficients, the column Gauss-Jordan reduction would leave there
     (gj_locator).
  3. L(z) = z^l + a_1 z^(l-1) + ... + a_l; its roots among the support
     entries give the error positions, all found in one packed product of
     L's coefficients and the Vandermonde matrix on the support (locate).
  4. The error values: pgz takes the error-evaluator polynomial and
     Forney's formula, pgzm solves the l x l linear system in them.
  5. The correction is checked against H: the error's own syndrome, summed
     over its l columns of H alone, must equal s, which holds exactly when
     y minus the error has syndrome zero, so a Corrected result is always a
     genuine codeword within distance t of the input.

Past a nonzero syndrome the decoder holds one report, born a Failure, and
fills in hankel, l, locator_poly, positions and locators as each stage
finishes.  A failing check stops the pipeline there: the report names the
reason and keeps the stages before it.  Values, the evaluator polynomial
and the corrected word are filled in only once the final check passes.
Forney's single points are evaluated on raw integer codes (Poly.at);
FieldElements are built only for what the report holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .galois import Field, FieldElement, Poly, pull
from .linalg import (
    LinearMap, Mat, MalformedSyndromeStructure, SingularSystem, Vec,
    gj_locator, hankel_matrix, solve_square, vandermonde,
)
from .codes import AlternantCode


class Status(Enum):
    NO_ERROR = "NoError"
    CORRECTED = "Corrected"
    FAILURE = "Failure"


class FailureReason(Enum):
    DEFECTIVE_ERROR_LOCATION = "DefectiveErrorLocation"
    VALUE_NOT_IN_BASE_FIELD = "ValueNotInBaseField"
    MALFORMED_SYNDROME_STRUCTURE = "MalformedSyndromeStructure"


@dataclass
class DecodeReport:
    """Everything a decoder run produced, successful or not.

    positions are 0-based indices into the support, ascending; values are
    the error values over the base field; corrected is the repaired word
    (None on Failure).
    """

    algorithm: str
    status: Status
    syndrome: Vec
    reason: FailureReason | None = None
    message: str = ""
    l: int = 0
    positions: tuple[int, ...] = ()
    locators: tuple[FieldElement, ...] = ()
    values: tuple[FieldElement, ...] = ()
    locator_poly: Poly | None = None
    evaluator_poly: Poly | None = None
    hankel: Mat | None = None
    corrected: Vec | None = None

    @property
    def ok(self) -> bool:
        return self.status is not Status.FAILURE

    def render(self) -> list[str]:
        """Output lines in the fixed report format."""
        if self.status is Status.FAILURE:
            return [self.message]
        tail = f" :: Vector[{self.corrected.field.name}]"
        if self.status is Status.NO_ERROR:
            return [self.message, str(self.corrected) + tail]
        pos = "[" + ", ".join(str(p) for p in self.positions) + "]"
        val = "[" + ", ".join(str(v) for v in self.values) + "]"
        head = (f"{self.algorithm}: Error positions {pos}, "
                f"error values {val}{tail}")
        return [head, str(self.corrected) + tail]


def error_evaluator(sigma: Poly, locator_reciprocal: Poly, r: int) -> Poly:
    """E(z) = reciprocal-locator times syndrome polynomial, modulo z^r."""
    return (locator_reciprocal * sigma).truncated(r)


def forney(m: int, C: AlternantCode, E: Poly, reciprocal_derivative: Poly) -> FieldElement:
    """Error value at support index m from the evaluator polynomial.

    e_m = - alpha_m E(1/alpha_m) / (h_m * Lrec'(1/alpha_m)), where
    reciprocal_derivative is Lrec', the derivative of the reciprocal locator.
    """
    F = C.ext_field
    am = C.alpha.codes[m]
    x = F.invc(am)
    num = F.mulc(am, E.at(x))
    den = F.mulc(C.h.codes[m], reciprocal_derivative.at(x))
    return FieldElement(F, F.negc(F.mulc(num, F.invc(den))))


def forney_alt(m: int, C: AlternantCode, E_star: Poly, locator: Poly) -> FieldElement:
    """Error value via the reversed-syndrome evaluator and the plain locator.

    e_m = - E*(alpha_m) / (h_m * alpha_m^r * L'(alpha_m)).
    """
    F = C.ext_field
    am = C.alpha.codes[m]
    num = E_star.at(am)
    den = F.mulc(C.h.codes[m], F.mulc(F.powc(am, C.r), locator.derivative().at(am)))
    return FieldElement(F, F.negc(F.mulc(num, F.invc(den))))


def alt_error_evaluator(s: Vec, locator: Poly) -> Poly:
    """E*(z) = L(z) * (s_0 z^(r-1) + s_1 z^(r-2) + ... + s_{r-1}), mod z^r."""
    F = s.field
    sigma_rev = Poly(F, tuple(reversed(s.codes)))
    return (locator * sigma_rev).truncated(len(s))


def locate(L: Poly, alphas: Vec) -> tuple[tuple[int, ...], tuple[FieldElement, ...]]:
    """Positions (ascending) and values of L's roots among the support entries.

    A Chien search for any support: the roots are the zero columns of L's
    coefficients times the Vandermonde matrix on alphas.  A code's support
    holds its first t+1 rows (root_map); any other call builds rows and drops them.
    """
    rows, M = len(L.codes) or 1, getattr(alphas, "root_map", None)
    if M is None or M.nrows < rows:
        M = LinearMap(vandermonde(rows, alphas), alphas.field)
    positions = tuple(M.zeros(L.codes))
    return positions, tuple(alphas[i] for i in positions)


def random_error_vector(K: Field, n: int, w: int, rng) -> Vec:
    """Uniform weight-w error vector over K; deterministic under a seed.

    rng is a random.Random instance or an int seed; the global RNG is never
    touched.  Positions are w distinct uniform indices, values uniform
    nonzero elements.
    """
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} not in 0..{n}")
    codes = [0] * n
    for i in sorted(rng.sample(range(n), w)):
        codes[i] = rng.randrange(1, K.q)
    return Vec(K, codes)


def pgz(y, C: AlternantCode) -> DecodeReport:
    """Decode y with the Hankel/Gauss-Jordan locator and Forney values."""
    return _decode(y, C, "PGZ")


def pgzm(y, C: AlternantCode) -> DecodeReport:
    """Decode y, finishing with the l x l linear system in the error values."""
    return _decode(y, C, "PGZm")


def _decode(y, C: AlternantCode, alg: str) -> DecodeReport:
    if not isinstance(y, (Vec, list, tuple)):
        raise TypeError(f"{alg}: Argument is not a vector")
    K = C.base_field
    F = C.ext_field
    try:
        y = Vec.of(K, y) if not isinstance(y, Vec) else y
    except (ValueError, TypeError) as exc:
        raise TypeError(f"{alg}: Argument is not a vector over {K.name}: {exc}") from None
    if y.field != K:
        raise TypeError(f"{alg}: Argument is a vector over {y.field.name}, not {K.name}")
    if len(y) != C.n:
        raise ValueError(f"{alg}: Vector argument has wrong length "
                         f"({len(y)}, expected {C.n})")

    s = C.syndrome(y)
    if s.is_zero:
        return DecodeReport(alg, Status.NO_ERROR, s, message=f"{alg}: Input is a code vector",
                            corrected=y)

    rep = DecodeReport(alg, Status.FAILURE, s)
    if C.t == 0:
        return _fail(rep, FailureReason.DEFECTIVE_ERROR_LOCATION)
    rep.hankel = S = hankel_matrix(s, C.t)
    try:
        neg_rev = gj_locator(S)
    except MalformedSyndromeStructure:
        return _fail(rep, FailureReason.MALFORMED_SYNDROME_STRUCTURE)
    rep.l = l = len(neg_rev)
    # column l of the reduced Hankel matrix reads (-a_l, ..., -a_1); negating
    # gives the locator's ascending coefficients below the leading 1.
    rep.locator_poly = L = Poly(F, tuple(F.negc(c) for c in neg_rev.codes) + (1,))
    rep.positions, rep.locators = locate(L, C.alpha)
    positions = rep.positions
    if len(positions) < l:
        return _fail(rep, FailureReason.DEFECTIVE_ERROR_LOCATION)

    if alg == "PGZ":
        L_rec = L.reciprocal()
        E = error_evaluator(Poly(F, s.codes), L_rec, C.r)
        dL_rec = L_rec.derivative()
        ext_values = [forney(m, C, E, dL_rec) for m in positions]
    else:
        E = None
        # entry (i, j) is h_m eta^i for the j-th position m and its locator
        # eta = alpha_m: entry (i, m) of the control matrix H, so no arithmetic
        A = Mat(F, ([row[m] for m in positions] for row in C.H.rows[:l]))
        try:
            ext_values = solve_square(A, s[:l])
        except SingularSystem:
            return _fail(rep, FailureReason.MALFORMED_SYNDROME_STRUCTURE)

    values = [pull(v, K) for v in ext_values]
    if any(v is None for v in values):
        return _fail(rep, FailureReason.VALUE_NOT_IN_BASE_FIELD)
    if any(v.is_zero for v in values):
        return _fail(rep, FailureReason.MALFORMED_SYNDROME_STRUCTURE)

    if C.syndrome(Vec(K, [v.code for v in values]), at=positions) != s:
        return _fail(rep, FailureReason.MALFORMED_SYNDROME_STRUCTURE)
    corrected = list(y.codes)
    for m, v in zip(positions, values):
        corrected[m] = K.subc(corrected[m], v.code)

    rep.status = Status.CORRECTED
    rep.values, rep.evaluator_poly, rep.corrected = tuple(values), E, Vec(K, corrected)
    return rep


_MESSAGES = {
    FailureReason.DEFECTIVE_ERROR_LOCATION: "{alg}: Defective error location",
    FailureReason.MALFORMED_SYNDROME_STRUCTURE: "{alg}: Malformed syndrome structure",
    # both decoders deliberately share this exact text, PGZ prefix included
    FailureReason.VALUE_NOT_IN_BASE_FIELD: "PGZ: error value not in base field",
}


def _fail(rep: DecodeReport, reason: FailureReason) -> DecodeReport:
    rep.reason = reason
    rep.message = _MESSAGES[reason].format(alg=rep.algorithm)
    return rep
