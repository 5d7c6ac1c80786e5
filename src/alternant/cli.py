"""Command-line front end.

Subcommands: params, encode, corrupt, decode, demo, bench, selftest.
Codes are named either by a shipped demo name (prs13, prs31, bch31, grs32,
bch121, goppa19, goppa76) or by the path of a JSON description file; see
the codespec module for the file layout.

Vector streams are one vector per line: bracketed, comma-separated element
tokens, e.g. "[0, 0, 3, 0]" or "[a**5, 1, 0]".  A trailing ":: Vector[...]"
tag is accepted and ignored on input.  Blank lines and lines starting with
'#' are skipped.  Streams are read and answered a line at a time: a line that
does not parse, has the wrong length or holds bytes that are not UTF-8 ends
the run with exit 3 and its line number, after the answers to the lines
before it.

Exit codes: 0 success; 1 demo/selftest/bench mismatch; 2 decode failure;
3 bad description, arguments or input; 4 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import statistics
import sys
import time
from fractions import Fraction

from .galois import Field, prime_field
from .linalg import Vec
from .codes import AlternantCode, CodeError, prs
from .pgz import pgz, pgzm, random_error_vector
from .oracle import (OracleBudget, BudgetExceeded,
                     brute_force_decode, min_distance)
from .codespec import CodeSpecError, load_code
from . import demo as demo_mod

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DECODE_FAILURE = 2
EXIT_SPEC_ERROR = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    # usage problems are description errors for exit-code purposes; the
    # default argparse exit code 2 would collide with "decode failure"
    def error(self, message):
        self.exit(EXIT_SPEC_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _resolve_code(token: str) -> AlternantCode:
    if token in demo_mod.DEMO_NAMES:
        return demo_mod.demo_code(token)
    return load_code(token)


# -- vector stream I/O --------------------------------------------------------

def _split_top_level(inner: str) -> list[str]:
    """Split on commas that are not nested inside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced ']'")
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError("unbalanced '['")
    parts.append(inner[start:])
    return parts


def parse_vector_line(K: Field, line: str) -> Vec:
    s = line.strip()
    if "::" in s:
        s = s.split("::", 1)[0].strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected a bracketed vector, got {line!r}")
    inner = s[1:-1].strip()
    if not inner:
        return Vec(K, [])
    tokens = [t.strip() for t in _split_top_level(inner)]
    return Vec.of(K, tokens)


def _open(path: str, mode: str):
    if path != "-":
        return open(path, mode, encoding="utf-8")
    return contextlib.nullcontext(sys.stdin if mode == "r" else sys.stdout)


def _stream(args, K: Field, handle) -> None:
    """Pass each vector of --in to handle and print its answer to --out.

    handle returns None for a word with no answer.  A TypeError or ValueError
    from parsing or from handle becomes a CodeSpecError naming the line.
    Bytes that are not UTF-8 reach the parser escaped, so they fail there.
    """
    if "-" not in (args.infile, args.outfile) and os.path.isfile(args.outfile) \
            and os.path.samefile(args.infile, args.outfile):
        raise CodeSpecError(f"--out {args.outfile} is the --in file")
    with _open(args.infile, "r") as fin, _open(args.outfile, "w") as fout:
        if hasattr(fin, "reconfigure"):
            fin.reconfigure(errors="surrogateescape")
        for lineno, line in enumerate(fin, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            try:
                answer = handle(parse_vector_line(K, s))
            except (TypeError, ValueError) as ex:
                raise CodeSpecError(f"line {lineno}: {ex}") from None
            if answer is not None:
                print(answer, file=fout)


# -- subcommands --------------------------------------------------------------

def cmd_params(args) -> int:
    C = _resolve_code(args.code)
    K, F = C.base_field, C.ext_field
    print(f"{C.kind} code over {K.name}")
    print(f"[{C.n},{C.k},{C.d_bound}]")
    print(f"n={C.n} k={C.k} t={C.t} rate={Fraction(C.k, C.n)}")
    if C.d_exact is not None:
        print(f"r={C.r} d={C.d_exact} (exact: MDS)")
    else:
        print(f"r={C.r} d>={C.d_bound}")
    if F.m == 1:
        print(f"field: {K.name} ({K.q} elements)")
    else:
        mod = list(F.modulus.codes)
        print(f"base field: {K.name} ({K.q} elements)")
        print(f"extension field: {F.name} ({F.q} elements, degree {F.m}, "
              f"modulus {mod}, generator '{F.gen_label}')")
    return EXIT_OK


def cmd_encode(args) -> int:
    C = _resolve_code(args.code)

    def encode(msg):
        if len(msg) != C.k:
            raise CodeSpecError(f"message has {len(msg)} symbols, expected k={C.k}")
        return C.encode(msg)

    _stream(args, C.base_field, encode)
    return EXIT_OK


def cmd_corrupt(args) -> int:
    C = _resolve_code(args.code)
    K = C.base_field
    w = C.t if args.weight is None else args.weight
    if not 0 <= w <= C.n:
        raise CodeSpecError(f"weight {w} outside [0, {C.n}]")
    rng = random.Random(args.seed)

    def corrupt(word):
        if len(word) != C.n:
            raise CodeSpecError(f"word has {len(word)} symbols, expected n={C.n}")
        return word + random_error_vector(K, C.n, w, rng)

    _stream(args, K, corrupt)
    return EXIT_OK


def cmd_decode(args) -> int:
    C = _resolve_code(args.code)
    decoder = pgz if args.alg == "pgz" else pgzm
    failures = 0

    def decode(word):
        # a decoder rejecting its argument (wrong length or field) is an
        # input problem, which _stream reports; a failed decode is not
        nonlocal failures
        report = decoder(word, C)
        if report.ok:
            return "\n".join(report.render())
        failures += 1
        print(report.message, file=sys.stderr)

    _stream(args, C.base_field, decode)
    return EXIT_DECODE_FAILURE if failures else EXIT_OK


def cmd_demo(args) -> int:
    results = demo_mod.run_demo()
    width = max(len(r.name) for r in results)
    passed = 0
    for res in results:
        print(f"{res.name:<{width}}  {'PASS' if res.ok else 'FAIL'}")
        for diff in res.diffs:
            print(f"    {diff}")
        passed += res.ok
    print(f"{passed}/{len(results)} cases passed")
    return EXIT_OK if passed == len(results) else EXIT_MISMATCH


def _random_received(C: AlternantCode, w: int, rng: random.Random) -> tuple[Vec, Vec]:
    """A random codeword and that codeword plus a random weight-w error."""
    K = C.base_field
    C.generator_matrix()  # a dimension-0 code raises its CodeError here, not an empty Vec
    c = C.encode(Vec(K, [rng.randrange(K.q) for _ in range(C.k)]))
    return c, c + random_error_vector(K, C.n, w, rng)


def cmd_bench(args) -> int:
    C = _resolve_code(args.code)
    print(f"# {C.describe()} k={C.k} t={C.t} trials={args.trials} seed={args.seed}")
    print(f"{'weight':>6} {'alg':>5} {'trials':>6} {'mean_ms':>9} {'median_ms':>9}")
    rng = random.Random(args.seed)
    mismatches = paired = 0
    for w in range(1, C.t + 1):
        received = [_random_received(C, w, rng)[1] for _ in range(args.trials)]
        reports = {}
        for name, decoder in (("pgz", pgz), ("pgzm", pgzm)):
            times, reps = [], []
            for y in received:
                t0 = time.perf_counter()
                reps.append(decoder(y, C))
                times.append((time.perf_counter() - t0) * 1e3)
            reports[name] = reps
            print(f"{w:>6} {name:>5} {len(times):>6} "
                  f"{statistics.mean(times):>9.3f} "
                  f"{statistics.median(times):>9.3f}")
        for ra, rb in zip(reports["pgz"], reports["pgzm"]):
            paired += 1
            same = (ra.status is rb.status and ra.positions == rb.positions
                    and [v.code for v in ra.values] == [v.code for v in rb.values])
            mismatches += not same
    if mismatches:
        print(f"equivalence: FAIL ({mismatches}/{paired} paired trials differ)",
              file=sys.stderr)
        return EXIT_MISMATCH
    print(f"equivalence: OK ({paired} paired trials)")
    return EXIT_OK


def cmd_selftest(args) -> int:
    C = _resolve_code(args.code)
    budget = OracleBudget(max_checks=args.max_checks)
    rng = random.Random(args.seed)
    bad = 0
    for w in range(1, C.t + 1):
        agree = 0
        for _ in range(args.trials):
            c, y = _random_received(C, w, rng)
            report = pgz(y, C)
            e = brute_force_decode(C, y, C.t, budget)
            ok = (report.ok and isinstance(e, Vec)
                  and report.corrected == y - e and report.corrected == c)
            agree += ok
            bad += not ok
        print(f"weight {w}: {agree}/{args.trials} decoder/oracle agreements")
    d = min_distance(prs(prime_field(7), 3), budget)
    print(f"min_distance(PRS(Z7,3)) = {d} (expected 4)")
    bad += d != 4
    if bad:
        print(f"selftest: FAIL ({bad} mismatches)", file=sys.stderr)
        return EXIT_MISMATCH
    print("selftest: OK")
    return EXIT_OK


# -- argument wiring ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alternant",
                     description="Alternant code constructions and PGZ decoding "
                                 "over exact finite-field arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, code=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if code:
            p.add_argument("--code", required=True,
                           help="demo code name or path of a JSON description")
        return p

    add("params", cmd_params, "print code parameters")

    p = add("encode", cmd_encode, "encode message vectors (k symbols each)")
    p.add_argument("--in", dest="infile", default="-", help="input file, - for stdin")
    p.add_argument("--out", dest="outfile", default="-", help="output file, - for stdout")

    p = add("corrupt", cmd_corrupt, "add a random error of given weight to each word")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    p.add_argument("--weight", type=int, default=None,
                   help="error weight (default: the capacity t)")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", dest="outfile", default="-")

    p = add("decode", cmd_decode, "decode received words and print reports")
    p.add_argument("--alg", choices=("pgz", "pgzm"), default="pgz")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", dest="outfile", default="-")

    p = sub.add_parser("demo", help="replay the built-in worked examples")
    p.set_defaults(func=cmd_demo)

    p = add("bench", cmd_bench, "time both decoders at each weight up to t")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("selftest",
                       help="cross-check the decoder against brute-force search")
    p.set_defaults(func=cmd_selftest)
    p.add_argument("--code", default="prs13",
                   help="demo code name or description path (default prs13)")
    p.add_argument("--trials", type=_positive_int, default=25, help="trials per weight")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-checks", type=_positive_int, default=OracleBudget().max_checks,
                   help="oracle enumeration cap")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as ex:
        print(f"alternant: budget exceeded: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except (CodeSpecError, CodeError) as ex:
        print(f"alternant: {ex}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except BrokenPipeError:
        return EXIT_OK
    except OSError as ex:
        print(f"alternant: {ex}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
