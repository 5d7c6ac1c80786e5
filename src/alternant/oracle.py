"""Brute-force reference checks, independent of the algebraic decoders.

These enumerate error patterns or whole codes directly from the syndrome
definition, so they are slow but trustworthy.  The decoding oracle looks up
the last error of each pattern by the syndrome left for it, the collision
idea of Stern's information-set decoding (1988).  Every enumeration is
bounded by an explicit budget that is checked before any work starts;
refusing to run is an error, never a silent pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .linalg import Mat, Vec
from .codes import AlternantCode


class BudgetExceeded(RuntimeError):
    """The requested enumeration would exceed the oracle budget."""


@dataclass(frozen=True)
class OracleBudget:
    """Caps for oracle enumerations: candidate count and wall-clock seconds."""
    max_checks: int = 10_000_000
    max_seconds: float = 300.0


class _Sentinel:
    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


NOT_FOUND = _Sentinel("NOT_FOUND")
AMBIGUOUS = _Sentinel("AMBIGUOUS")


def predicted_decode_checks(n: int, q: int, t_max: int) -> int:
    """Number of candidate error patterns of weight 1..t_max."""
    return sum(comb(n, w) * (q - 1) ** w for w in range(1, t_max + 1))


def brute_force_decode(C: AlternantCode, y, t_max: int,
                       budget: OracleBudget | None = None):
    """Smallest-weight error pattern e with syndrome(y - e) = 0, by enumeration.

    Scans weights ascending.  Within weight w, the first w - 1 positions are
    scanned lexicographically and their values in canonical field order,
    each error's syndrome subtracted from y's; the last error is looked up
    by the syndrome that is left, in a table of all single errors, among
    the positions past the prefix.  Returns the unique minimal e as a Vec,
    AMBIGUOUS if several exist at the minimal weight, or NOT_FOUND if no
    pattern of weight <= t_max works.  The budget is enforced up front from
    the predicted candidate count of the full enumeration.
    """
    budget = budget or OracleBudget()
    K = C.base_field
    y = Vec.of(K, y)
    if len(y) != C.n:
        raise ValueError(f"vector length {len(y)} != n={C.n}")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    predicted = predicted_decode_checks(C.n, K.q, t_max)
    if predicted > budget.max_checks:
        raise BudgetExceeded(
            f"would enumerate {predicted} candidates > max_checks={budget.max_checks}")

    target = C.syndrome(y).codes
    if not any(target):
        return Vec(K, [0] * C.n)

    F = C.ext_field
    # the syndrome of value v alone at position i is v times column i of H;
    # singles maps each such syndrome to every (i, v) giving it, ascending
    # (with r = 1 several positions can share one).
    contrib = [[tuple(F.mulc(v, hc) for hc in col) for v in range(1, K.q)]
               for col in zip(*C.H.rows)]
    singles: dict[tuple, list] = {}
    for i, per_value in enumerate(contrib):
        for v, s in enumerate(per_value, 1):
            singles.setdefault(s, []).append((i, v))
    subc = F.subc
    deadline = time.monotonic() + budget.max_seconds

    for w in range(1, t_max + 1):
        found: list[tuple] = []
        for pos in combinations(range(C.n), w - 1):
            if time.monotonic() > deadline:
                raise BudgetExceeded(
                    f"wall clock exceeded max_seconds={budget.max_seconds}")
            last = pos[-1] if pos else -1

            def walk(depth: int, rest: tuple, vals: tuple) -> None:
                if len(found) > 1:
                    return
                if depth == w - 1:
                    found.extend((pos + (i,), vals + (v,))
                                 for i, v in singles.get(rest, ()) if i > last)
                    return
                for v, s in enumerate(contrib[pos[depth]], 1):
                    walk(depth + 1, tuple(map(subc, rest, s)), vals + (v,))

            walk(0, target, ())
            if len(found) > 1:
                return AMBIGUOUS
        if found:
            codes = [0] * C.n
            for p, v in zip(*found[0]):
                codes[p] = v
            return Vec(K, codes)
    return NOT_FOUND


def min_distance(C: AlternantCode, budget: OracleBudget | None = None) -> int:
    """Exact minimum distance by enumerating all q^k codewords."""
    budget = budget or OracleBudget()
    K = C.base_field
    k, q = C.k, K.q
    total = q ** k
    if total > budget.max_checks:
        raise BudgetExceeded(
            f"would enumerate {total} codewords > max_checks={budget.max_checks}")
    deadline = time.monotonic() + budget.max_seconds
    best = C.n + 1
    msgs = product(range(q), repeat=k)  # every message as codes, the zero one first
    next(msgs)
    for idx, msg in enumerate(msgs, 1):
        if idx % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded("wall clock exceeded oracle budget")
        wt = C.encode(Vec(K, msg)).weight()
        if 0 < wt < best:
            best = wt
    return best


def verify_structure(S: Mat, report, C: AlternantCode) -> bool:
    """Check S = V_t(eta) @ diag(h_m e_m) @ V_{t+1}(eta)^T for a decode result.

    V_j(eta) is the j x l matrix with entry (i, k) = eta_k^i.  This is the
    factorization that ties the Hankel rank to the error count; it must hold
    exactly for any genuine correction.
    """
    if report.corrected is None or not report.positions:
        return False
    F = C.ext_field
    t = C.t
    l = len(report.positions)
    if len(report.locators) != l or len(report.values) != l:
        return False
    etas = [e.code for e in report.locators]
    # base-field values embed into the extension with the same integer code
    diag = [F.mulc(C.h.codes[m], v.code)
            for m, v in zip(report.positions, report.values)]
    mulc, addc, powc = F.mulc, F.addc, F.powc
    rows = []
    for i in range(t):
        row = []
        for j in range(t + 1):
            acc = 0
            for k in range(l):
                acc = addc(acc, mulc(diag[k], powc(etas[k], i + j)))
            row.append(acc)
        rows.append(row)
    return Mat(F, rows) == S
