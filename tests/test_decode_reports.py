"""Full decode reports, pinned: every field of every report on a seeded word set.

Both decoders run on the seven demo codes and the three benchmark codes
(read from perfbench/codes, which this test only reads), at every weight
0..t+1 on one of four codewords drawn from the code.  Every DecodeReport
field goes into one sha256, so a change to the decode pipeline that alters
any report, Failure stages included, changes the digest.  The digest was taken
before the final check summed the error's l columns of H alone and before
the pivot row's nonzero entries drove the elimination.
"""

import hashlib
import random
from pathlib import Path

from alternant.codespec import load_code
from alternant.demo import DEMO_NAMES, demo_code
from alternant.linalg import Mat, Vec
from alternant.pgz import pgz, pgzm, random_error_vector

BENCH_CODES = Path(__file__).resolve().parents[1] / "perfbench" / "codes"
WORDS_PER_CODE = 384
DIGEST = "e181477aba20ecd7e05b28a39e7251529f9c559ad3f9e128db2da3364c0e8101"


def _record(rep):
    """Every DecodeReport field: an element as its field and code, a vector,
    polynomial or matrix as its field and codes, None where the report has none."""
    def codes(v):
        return None if v is None else (v.field.name, v.rows if isinstance(v, Mat) else v.codes)

    def elements(xs):
        return [(x.field.name, x.code) for x in xs]

    return (rep.status.value, rep.reason and rep.reason.value, rep.message, rep.l,
            rep.positions, elements(rep.locators), elements(rep.values),
            *map(codes, (rep.locator_poly, rep.evaluator_poly, rep.hankel, rep.syndrome,
                         rep.corrected)))


def _codes():
    yield from (demo_code(name) for name in DEMO_NAMES)
    yield from (load_code(BENCH_CODES / f"{name}.json") for name in ("bch255", "bch511", "rs64"))


def test_reports_match_the_pinned_digest():
    digest, decodes = hashlib.sha256(), 0
    for C in _codes():
        rng, K = random.Random(C.n), C.base_field
        words = [C.encode(Vec(K, [rng.randrange(K.q) for _ in range(C.k)])) for _ in range(4)]
        for i in range(WORDS_PER_CODE):
            y = words[i % 4] + random_error_vector(K, C.n, i % (C.t + 2), rng)
            for decode in (pgz, pgzm):
                rep = decode(y, C)
                digest.update(repr(_record(rep)).encode())
                decodes += 1
    assert decodes == 2 * 10 * WORDS_PER_CODE
    assert digest.hexdigest() == DIGEST
