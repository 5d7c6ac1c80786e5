"""Every error of weight 1 and 2 on bch255 and bch511, and of weight 1 on rs64.

Each case plants an error and takes its syndrome from the error's own
columns of H, C.syndrome(values, at=positions), so no length-n word is
built.  That syndrome goes straight to pgz._decode_syndrome, the decoder
core that pgz and pgzm hand C.syndrome(y), once with each value stage.
Each case must come back Corrected with exactly the planted positions and
values.

The binary BCH codes get every pattern: 32,640 on bch255 (F256) and 130,816
on bch511 (F512, past the 256-element mark, where the root search folds
m = 9 bits by 1, 2, 4 and 1).  rs64 (F65536, K = F) gets every position
with 64 seeded nonzero values.  The coset certificate in test_cosets.py
stops at 4,096 cosets, so it reaches none of these codes.

    PYTHONPATH=src python tests/low_weight.py              # all three codes
    PYTHONPATH=src python tests/low_weight.py bch255 rs64  # some of them
"""

import random
import sys
import time
from itertools import chain, combinations
from pathlib import Path

from alternant.codespec import load_code
from alternant.linalg import Vec
from alternant.pgz import Status, _decode_syndrome

BENCH_CODES = Path(__file__).resolve().parents[1] / "perfbench" / "codes"


def errors(C, weights, samples: int, seed: int = 0):
    """(positions, values) of the planted errors: every support of each weight,
    with its one value pattern over Z2, else samples seeded nonzero patterns."""
    K, rng = C.base_field, random.Random(seed)
    for positions in chain.from_iterable(combinations(range(C.n), w) for w in weights):
        if K.q == 2:
            yield positions, (1,) * len(positions)
            continue
        for _ in range(samples):
            yield positions, tuple(rng.randrange(1, K.q) for _ in positions)


def exhaust(C, cases) -> tuple[int, list]:
    """Decode each case's sparse syndrome with both value stages; (cases, misses)."""
    K, done, misses = C.base_field, 0, []
    for positions, values in cases:
        s = C.syndrome(Vec(K, values), at=positions)
        for alg in ("PGZ", "PGZm"):
            rep = _decode_syndrome(s, C, alg)
            if (rep.status, rep.positions, tuple(v.code for v in rep.values)) != \
                    (Status.CORRECTED, positions, values):
                misses.append((alg, positions, values, rep.status, rep.reason))
        done += 1
    return done, misses


PLANS = {"bch255": ((1, 2), 1), "bch511": ((1, 2), 1), "rs64": ((1,), 64)}  # weights, samples


if __name__ == "__main__":
    failed = False
    for name in sys.argv[1:] or PLANS:
        C = load_code(BENCH_CODES / f"{name}.json")
        start = time.perf_counter()
        done, misses = exhaust(C, errors(C, *PLANS[name], seed=64))
        print(f"{name}: {done} errors, {len(misses)} missed by PGZ or PGZm, "
              f"{time.perf_counter() - start:.1f} s")
        for miss in misses[:5]:
            print("  missed:", *miss)
        failed |= bool(misses)
    sys.exit(1 if failed else 0)
