"""Decode reports do not depend on what the process did before.

Two fresh interpreters decode the same seeded batch, weights 0..t+1 on
codewords of every demo code, and print one sha256 over every field of
every report, its rendered text included.  Child "first" decodes as the
first thing it does.  Child "after" first builds the demo codes' extension
fields under another generator label, the benchmark codes bch255, bch511
and rs64 (read from perfbench/codes, which this test only reads), and every
demo code in reverse order, and runs root searches of higher degree on
every demo support reversed and on the support itself.  That fills the
process-wide caches (galois._FIELDS and demo._CODES) with everything they
may hold; the digests must still agree.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

from test_decode_reports import _record

from alternant.codespec import load_code
from alternant.demo import DEMO_NAMES, demo_code
from alternant.galois import Poly, extension, prime_field
from alternant.linalg import Vec
from alternant.pgz import locate, pgz, pgzm, random_error_vector

ROOT = Path(__file__).resolve().parents[1]


def _digest() -> str:
    digest = hashlib.sha256()
    for name in DEMO_NAMES:
        C = demo_code(name)
        rng, K = random.Random(name), C.base_field
        words = [C.encode(Vec(K, [rng.randrange(K.q) for _ in range(C.k)])) for _ in range(2)]
        for i in range(8 * (C.t + 2)):
            y = words[i % 2] + random_error_vector(K, C.n, i % (C.t + 2), rng)
            for decode in (pgz, pgzm):
                rep = decode(y, C)
                digest.update(repr((_record(rep), rep.render())).encode())
    return digest.hexdigest()


def _build_everything_else():
    for name in DEMO_NAMES:  # each demo field under another label, before the demo codes
        spec = json.loads((resources.files("alternant") / "demo_codes" / f"{name}.json")
                          .read_text(encoding="utf-8"))["field"]
        if spec.get("modulus"):
            extension(prime_field(spec["p"]), spec["modulus"], gen_label="other")
    for name in ("bch255", "bch511", "rs64"):
        load_code(ROOT / "perfbench" / "codes" / f"{name}.json")
    for name in reversed(DEMO_NAMES):
        C = demo_code(name)
        for alphas in (C.alpha[::-1], C.alpha):
            locate(Poly(C.ext_field, [1] * (C.t + 3)), alphas)


def _child(order: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, __file__, order], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_reports_do_not_depend_on_call_history():
    first, after = _child("first"), _child("after")
    assert len(first) == 64
    assert first == after


if __name__ == "__main__":
    if sys.argv[1] == "after":
        _build_everything_else()
    print(_digest())
