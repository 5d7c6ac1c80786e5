"""Brute-force reference checks, independent of the algebraic decoders.

These enumerate error patterns or whole codes directly from the syndrome
definition, so they are slow but trustworthy.  Every enumeration is bounded
by an explicit budget that is checked before any work starts; refusing to
run is an error, never a silent pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
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

    Scans weights ascending; within a weight, positions lexicographically and
    values in canonical field order.  Returns the unique minimal e as a Vec,
    AMBIGUOUS if several exist at the minimal weight, or NOT_FOUND if no
    pattern of weight <= t_max works.  The budget is enforced up front from
    the predicted candidate count.
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
    n, r, qm1 = C.n, C.r, K.q - 1
    # contribution of value v at position i is v times column i of H;
    # candidate syndromes are sums of w of these.
    contrib = []
    for i in range(n):
        col = [C.H.rows[j][i] for j in range(r)]
        contrib.append([None] + [tuple(F.mulc(v, hc) for hc in col)
                                 for v in range(1, K.q)])

    addv = F.addv
    zero = (0,) * r
    deadline = time.monotonic() + budget.max_seconds

    for w in range(1, t_max + 1):
        found: list[tuple] = []
        for pos in combinations(range(n), w):
            if time.monotonic() > deadline:
                raise BudgetExceeded(
                    f"wall clock exceeded max_seconds={budget.max_seconds}")
            vals = [0] * w

            def walk(depth: int, acc: tuple) -> None:
                if len(found) > 1:
                    return
                if depth == w:
                    if acc == target:
                        found.append((pos, tuple(vals)))
                    return
                per_value = contrib[pos[depth]]
                for v in range(1, qm1 + 1):
                    vals[depth] = v
                    walk(depth + 1, addv(acc, per_value[v]))

            walk(0, zero)
            if len(found) > 1:
                return AMBIGUOUS
        if found:
            pos, vv = found[0]
            codes = [0] * n
            for p, v in zip(pos, vv):
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
    msg = [0] * k
    for idx in range(1, total):
        i = 0
        while True:  # increment the message in canonical counting order
            msg[i] += 1
            if msg[i] < q:
                break
            msg[i] = 0
            i += 1
        if idx % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded("wall clock exceeded oracle budget")
        wt = C.encode(msg).weight()
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
