"""The benchmark's workloads: seeded inputs, timed calls and a correctness
gate on every word.

Every workload is a closed loop with one caller and no threads; cli_stream
runs at most one child process at a time.  A received word is the encoding
of a seeded random message plus a seeded error, with every weight in range
getting the same share of words.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from time import perf_counter, perf_counter_ns

import speed
import tracing

from alternant import Status, Vec, random_error_vector
from alternant.demo import DEMO_NAMES, demo_code

galois = import_module("alternant.galois")
codespec = import_module("alternant.codespec")
pgzmod = import_module("alternant.pgz")
oracle = import_module("alternant.oracle")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT = 120
ALGS = ("pgz", "pgzm")
BLOCK_SECONDS = 0.25        # timed stretch between two machine-speed probes

CAVEATS = (
    "Shared, untuned machine: no CPU pinning, no cache dropping, no control "
    "over other tenants. Times are wall clock (perf_counter) of this "
    "benchmark's own processes. Machine speed wanders: on a 2-core Intel Xeon "
    "under Python 3.11, 300-word-per-code blocks of stream_small ran at "
    "3,000-6,200 pgz words/s both within one process and across processes, "
    "with process_time equal to wall time. Timed figures are therefore "
    "normalised by a machine-speed probe (speed.py); 'raw' holds them "
    "unnormalised and 'machine_slowdown' the slowdowns this run saw."
)


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple[str, ...]
    cycle: tuple[str, ...]      # order in which codes get words (or batches)
    record_cycles: int          # cycles every run completes, for the record
    latency_every: int = 1      # latency is sampled on one cycle in this many;
                                # a prime above t+2, so the sampled cycles do
                                # not alias with the weight order
    setup_repeats: int = 5      # fresh interpreters timed for setup_s
    oracle: bool = False        # brute-force decode words of weight 1..t
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("stream_small", DEMO_NAMES, DEMO_NAMES, record_cycles=20,
             latency_every=53,
             why="table-lookup fields, so per-stage Python work in pgz dominates"),
    # bch255 gets 3/5 of the words: the median sits inside the F256 cluster
    # and the tail inside the slow large-field clusters, not on a boundary.
    Workload("stream_large", ("bch255", "bch511", "rs64"),
             ("bch255", "bch511", "bch255", "rs64", "bch255"), record_cycles=4,
             setup_repeats=3,
             why="spans the 256-element table limit: coordinate arithmetic above it"),
    # goppa76 gets 2 of 3 batches so both latency percentiles fall inside
    # its cluster of per-word times.
    Workload("cli_stream", ("grs32", "goppa76"), ("grs32", "goppa76", "goppa76"),
             record_cycles=1, why="the text path: parsing, element tokens, rendering"),
    # Oracle cost is set by code and weight, so per-word times form tight
    # clusters.  Shares 2:1:7 put the median inside goppa19's weight-2
    # cluster and the tail inside its weight-3 cluster.
    Workload("oracle_selftest", ("prs13", "bch31", "goppa19"),
             ("goppa19", "prs13", "goppa19", "goppa19", "bch31",
              "goppa19", "prs13", "goppa19", "goppa19", "goppa19"), record_cycles=3,
             oracle=True, why="the only workload where the brute-force oracle works"),
)}

CLI_BATCH = {"grs32": 300, "goppa76": 150}

SWEEP_FIELDS = {
    "F32": (2, [1, 0, 1, 0, 0, 1]),
    "F243": (3, [1, 2, 0, 0, 0, 1]),
    "F256": (2, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    "F512": (2, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]),
    "F65536": (2, [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1]),
}


# -- codes and words ----------------------------------------------------------

def build_code(name: str):
    if name in DEMO_NAMES:
        return demo_code(name)
    return codespec.parse_code((HERE / "codes" / f"{name}.json").read_text(encoding="utf-8"))


def setup(workload: Workload) -> dict:
    """Build every code of the workload from its description, with k and G."""
    codes = {}
    for name in workload.codes:
        C = build_code(name)
        C.k
        C.generator_matrix()
        codes[name] = C
    return codes


def weight_range(workload: Workload, t: int) -> list[int]:
    """Error weights 0..t+1, so every decode outcome gets traffic; 1..t for
    the oracle, which is only unique (and affordable) up to t."""
    return list(range(1, t + 1)) if workload.oracle else list(range(t + 2))


def planted(workload: Workload, C, name: str, seed: int, k: int):
    """Message, error weight and error of word k of code `name`.

    Weights cycle through their range in a fixed order that steps by about
    0.618 of its length, so any prefix of a code's words has an even weight
    mix and runs of different lengths or seeds share it.  The seed sets the
    message and the error's positions and values.
    """
    weights = weight_range(workload, C.t)
    n = len(weights)
    step = next(g for g in range(max(1, round(n * 0.618)), n + 1) if math.gcd(g, n) == 1)
    w = weights[k * step % n]
    rng = random.Random(f"{seed}/{workload.name}/{name}/{k}")
    K = C.base_field
    msg = Vec(K, [rng.randrange(K.q) for _ in range(C.k)])
    return msg, w, random_error_vector(K, C.n, w, rng)


def check_decode(C, c, y, w, report) -> list[str]:
    """Violations of the decoder contract for one report."""
    bad = []
    if w <= C.t and report.corrected != c:
        bad.append(f"{report.algorithm}: weight {w} <= t but the planted codeword "
                   f"was not returned ({report.status.value})")
    if report.status is Status.CORRECTED:
        if not C.is_codeword(report.corrected):
            bad.append(f"{report.algorithm}: Corrected result is not a codeword")
        dist = sum(a != b for a, b in zip(report.corrected.codes, y.codes))
        if dist > C.t:
            bad.append(f"{report.algorithm}: Corrected result at distance {dist} > t")
    return bad


def same_result(a, b) -> bool:
    return (a.status is b.status and a.positions == b.positions
            and [v.code for v in a.values] == [v.code for v in b.values])


# -- one run's tallies --------------------------------------------------------

@dataclass
class Tally:
    """One run's counts, timings and determinism record.

    Timings collect in an open block; close_block(slowdown) folds the block
    in, divided by the machine slowdown measured around it (see speed.py).
    Raw seconds are kept beside the normalised ones.
    """
    record_words: int
    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)
    ops: dict = field(default_factory=dict)          # kind -> [count, seconds, raw seconds]
    latency_ms: list = field(default_factory=list)
    latency_by_code: dict = field(default_factory=dict)
    primary: list = field(default_factory=list)      # seconds per primary op, in order
    slowdowns: list = field(default_factory=list)    # one per block
    words_per_code: dict = field(default_factory=dict)
    record_counts: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)
    _digest: object = field(default_factory=hashlib.sha256)

    def op(self, kind: str, count: int, seconds: float, primary: bool = False,
           latency_of: str | None = None):
        """Time `count` operations of one kind.  The primary operation of a
        workload feeds the tracing overhead; latency_of names the code whose
        latency sample this is."""
        self._open.append((kind, count, seconds, primary, latency_of))

    def close_block(self, slowdown: float):
        for kind, count, seconds, primary, latency_of in self._open:
            acc = self.ops.setdefault(kind, [0, 0.0, 0.0])
            acc[0] += count
            acc[1] += seconds / slowdown
            acc[2] += seconds
            if primary:
                self.primary.append(seconds / count / slowdown)
            if latency_of is not None:
                ms = seconds / count / slowdown * 1e3
                self.latency_ms.append(ms)
                self.latency_by_code.setdefault(latency_of, []).append(ms)
        self._open.clear()
        self.slowdowns.append(slowdown)

    def rate(self, kind: str, raw: bool = False) -> float:
        count, seconds, raw_seconds = self.ops[kind]
        return count / (raw_seconds if raw else seconds)

    def word(self, index: int, name: str, k: int, w: int, report, bad: list[str]):
        """Count one word; words below record_words also enter the record.
        report is None when the word raised before it was decoded."""
        self.attempted += 1
        if bad:
            self.failed += 1
            self.violations.extend(f"{name} word {k} (weight {w}): {b}" for b in bad)
        if index >= self.record_words or report is None:
            return
        self.words_per_code[name] = self.words_per_code.get(name, 0) + 1
        key = report.reason.value if report.reason else report.status.value
        self.record_counts[key] = self.record_counts.get(key, 0) + 1
        corrected = report.corrected.codes if report.corrected is not None else None
        self._digest.update(
            f"{name}:{k}:{w}:{key}:{report.positions}:"
            f"{[v.code for v in report.values]}:{corrected}\n".encode())

    def record(self) -> dict:
        return {"words": min(self.attempted, self.record_words),
                "words_per_code": dict(sorted(self.words_per_code.items())),
                "counts": dict(sorted(self.record_counts.items())),
                "digest": self._digest.hexdigest()}


# -- in-process loop (stream_small, stream_large, oracle_selftest) ------------

def run_words(workload: Workload, codes: dict, seed: int, seconds: float,
              tracer: tracing.Tracer | None = None, record_only: bool = False) -> Tally:
    """Decode words in cycle order until `seconds` pass, at least the record."""
    tally = Tally(record_words=workload.record_cycles * len(workload.cycle))
    counters = dict.fromkeys(codes, 0)
    start = block_start = perf_counter()
    before = speed.probe()
    index = 0
    while index < tally.record_words or (
            not record_only and perf_counter() - start < seconds):
        name = workload.cycle[index % len(workload.cycle)]
        C, k = codes[name], counters[name]
        counters[name] += 1
        if tracer is not None:
            tracer.word = index
        msg, w, e = planted(workload, C, name, seed, k)
        sampled = index // len(workload.cycle) % workload.latency_every == 0
        report = None
        try:
            t0 = perf_counter_ns()
            c = C.encode(msg)
            tally.op("encode", 1, (perf_counter_ns() - t0) / 1e9)
            y = c + e
            bad = []
            if workload.oracle:
                t0 = perf_counter_ns()
                found = oracle.brute_force_decode(C, y, C.t)
                tally.op("oracle", 1, (perf_counter_ns() - t0) / 1e9,
                         primary=True, latency_of=name)
                if found != e:
                    bad.append("oracle result differs from the planted error")
            reports = {}
            for alg in ALGS:
                t0 = perf_counter_ns()
                reports[alg] = getattr(pgzmod, alg)(y, C)
                tally.op(alg, 1, (perf_counter_ns() - t0) / 1e9,
                         primary=not workload.oracle,
                         latency_of=name if sampled and not workload.oracle else None)
                bad += check_decode(C, c, y, w, reports[alg])
            if not same_result(reports["pgz"], reports["pgzm"]):
                bad.append("pgz and pgzm disagree")
            report = reports["pgz"]
        except Exception:
            report, bad = None, [traceback.format_exc()]
        tally.word(index, name, k, w, report, bad)
        index += 1
        if perf_counter() - block_start >= BLOCK_SECONDS:
            after = speed.probe()
            tally.close_block((before + after) / 2)
            before, block_start = after, perf_counter()
    tally.close_block((before + speed.probe()) / 2)
    return tally


# -- cli_stream ---------------------------------------------------------------

_HEAD = re.compile(r"^(\S+): Error positions \[([^\]]*)\], error values (\[.*\]) :: Vector\[\w+\]$")


def parse_vector(K, text: str) -> tuple[int, ...]:
    """Integer codes of a printed vector, each token read by Field.element."""
    s = text.split("::", 1)[0].strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"not a vector: {text!r}")
    tokens, depth, cur = [], 0, ""
    for ch in s[1:-1]:
        if ch == "," and depth == 0:
            tokens.append(cur)
            cur = ""
            continue
        depth += (ch == "[") - (ch == "]")
        cur += ch
    tokens.append(cur)
    return tuple(K.element(tok.strip()).code for tok in tokens)


def check_cli_decode(K, refs: list, out_lines: list[str], err_lines: list[str],
                     code: int) -> dict[int, str]:
    """Compare a CLI decode run with the in-process reports, word by word."""
    bad = {}
    lines = iter(out_lines)
    failures = 0
    for i, ref in enumerate(refs):
        if not ref.ok:
            failures += 1
            continue
        head, vec = next(lines, None), next(lines, None)
        if vec is None:
            bad[i] = "output ended early"
            break
        try:
            if parse_vector(K, vec) != ref.corrected.codes:
                bad[i] = "corrected word differs"
            elif ref.status is Status.NO_ERROR:
                if head != ref.message:
                    bad[i] = f"unexpected head line {head!r}"
            else:
                m = _HEAD.match(head)
                if (m is None or m.group(1) != ref.algorithm
                        or tuple(int(p) for p in m.group(2).split(",")) != ref.positions
                        or parse_vector(K, m.group(3)) != tuple(v.code for v in ref.values)):
                    bad[i] = f"unexpected head line {head!r}"
        except ValueError as ex:
            bad[i] = f"unparseable output: {ex}"
    if next(lines, None) is not None:
        bad[len(refs)] = "extra output lines"
    if len(err_lines) != failures:
        bad[len(refs) + 1] = f"{len(err_lines)} failure messages for {failures} failures"
    if code != (2 if failures else 0):
        bad[len(refs) + 2] = f"exit code {code} with {failures} failed words"
    return bad


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_cli_child(args: list[str], spans: Path | None) -> tuple[float, int, str, float]:
    """Run the CLI in a child interpreter through probe.py, which brackets
    it with machine-speed probes (and traces it when spans is a path).

    Returns the child's wall time less its probes, its exit code, its
    stderr and the machine slowdown it measured.
    """
    cal = OUT / "cli" / "speed.json"
    cal.parent.mkdir(parents=True, exist_ok=True)
    cal.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "probe.py"), "cli", str(cal),
            str(spans) if spans else "-", *args]
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    wall = perf_counter() - t0
    probed = json.loads(cal.read_text(encoding="utf-8"))
    return wall - probed["probe_s"], proc.returncode, proc.stderr, probed["slowdown"]


@dataclass
class CliWord:
    k: int
    w: int
    msg: Vec
    c: Vec
    y: Vec
    refs: dict          # algorithm -> in-process report
    bad: list


@dataclass
class Child:
    kind: str          # encode / pgz / pgzm
    words: int
    wall: float
    record: bool
    spans: list | None = None


def run_cli(workload: Workload, codes: dict, seed: int, seconds: float,
            traced: bool = False, record_only: bool = False) -> tuple[Tally, list[Child]]:
    """Whole batches in cycle order: encode, then decode with each algorithm."""
    work = OUT / "cli"
    work.mkdir(parents=True, exist_ok=True)
    record_batches = workload.record_cycles * len(workload.cycle)
    tally = Tally(record_words=sum(CLI_BATCH[workload.cycle[b % len(workload.cycle)]]
                                   for b in range(record_batches)))
    children: list[Child] = []
    counters = dict.fromkeys(codes, 0)
    start = perf_counter()
    batch = index = 0
    while batch < record_batches or (not record_only and perf_counter() - start < seconds):
        name = workload.cycle[batch % len(workload.cycle)]
        C, K = codes[name], codes[name].base_field
        size, k0 = CLI_BATCH[name], counters[name]
        counters[name] += size
        words = []
        for k in range(k0, k0 + size):
            msg, w, e = planted(workload, C, name, seed, k)
            c = C.encode(msg)
            y = c + e
            refs = {alg: getattr(pgzmod, alg)(y, C) for alg in ALGS}
            bad = check_decode(C, c, y, w, refs["pgz"]) + check_decode(C, c, y, w, refs["pgzm"])
            if not same_result(refs["pgz"], refs["pgzm"]):
                bad.append("pgz and pgzm disagree")
            words.append(CliWord(k, w, msg, c, y, refs, bad))
        msg_path, rcv_path, out_path = (work / f"{name}.{ext}" for ext in ("msg", "rcv", "out"))
        msg_path.write_text("".join(f"{x.msg}\n" for x in words), encoding="utf-8")
        rcv_path.write_text("".join(f"{x.y}\n" for x in words), encoding="utf-8")
        record = batch < record_batches
        runs = [("encode", ["encode", "--code", name, "--in", str(msg_path), "--out", str(out_path)])]
        runs += [(alg, ["decode", "--code", name, "--alg", alg, "--in", str(rcv_path),
                        "--out", str(out_path)]) for alg in ALGS]
        for kind, args in runs:
            spans_path = work / "spans.json" if traced else None
            out_path.unlink(missing_ok=True)
            wall, code, err, slowdown = run_cli_child(args, spans_path)
            out_lines = (out_path.read_text(encoding="utf-8").splitlines()
                         if out_path.exists() else [])
            err_lines = err.splitlines()
            if kind == "encode":
                bad = {} if code == 0 else {size: f"encode exit code {code}: {err[-500:]}"}
                for i, x in enumerate(words):
                    try:
                        if i >= len(out_lines) or parse_vector(K, out_lines[i]) != x.c.codes:
                            bad[i] = "encoded word differs"
                    except ValueError as ex:
                        bad[i] = f"unparseable output: {ex}"
            else:
                bad = check_cli_decode(K, [x.refs[kind] for x in words], out_lines,
                                       err_lines, code)
            decode = kind != "encode"
            tally.op(kind, size, wall, primary=decode, latency_of=name if decode else None)
            tally.close_block(slowdown)
            spans = None
            if traced:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
            children.append(Child(kind, size, wall, record, spans))
            for i, why in bad.items():
                words[min(i, size - 1)].bad.append(f"cli {kind} {name}: {why}")
        for x in words:
            tally.word(index, name, x.k, x.w, x.refs["pgz"], x.bad)
            index += 1
        batch += 1
    return tally, children


# -- set-up, memory and environment -------------------------------------------

def measure_setup(workload: Workload) -> tuple[float, list[float]]:
    """Median over fresh interpreters of the normalised set-up time, and the
    raw times.

    In-process workloads time import plus building every code with k and G
    inside the child; cli_stream times one `params` invocation per code.
    """
    times, raw = [], []
    for _ in range(workload.setup_repeats):
        if workload.name == "cli_stream":
            took = normalised = 0.0
            for name in workload.codes:
                wall, code, err, slowdown = run_cli_child(["params", "--code", name], None)
                if code != 0:
                    raise RuntimeError(f"params --code {name} exited {code}: {err}")
                took += wall
                normalised += wall / slowdown
            raw.append(took)
            times.append(normalised)
        else:
            proc = subprocess.run([sys.executable, str(HERE / "probe.py"), "setup", workload.name],
                                  cwd=ROOT, env=child_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr}")
            probed = json.loads(proc.stdout.splitlines()[-1])
            raw.append(probed["setup_s"])
            times.append(probed["setup_s"] / probed["slowdown"])
    return statistics.median(times), raw


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu or "unknown", "commit": git_commit(), "seed": seed,
            "caveats": CAVEATS}


# -- field operation sweep -----------------------------------------------------

def galois_sweep(seed: int, operands: int = 64, min_ns: int = 20_000_000) -> dict[str, float]:
    """ns per call of each field operation on seeded operands, per field."""
    out = {}
    for fname, (p, modulus) in SWEEP_FIELDS.items():
        F, _ = galois.extension(galois.prime_field(p), modulus)
        rng = random.Random(f"{seed}/sweep/{fname}")
        a = [rng.randrange(1, F.q) for _ in range(operands)]
        b = [rng.randrange(1, F.q) for _ in range(operands)]
        e = [rng.randrange(F.q - 1) for _ in range(operands)]
        tokens = [F.format_code(x) for x in a]
        ops = {
            "mulc": lambda: [F.mulc(x, y) for x, y in zip(a, b)],
            "addc": lambda: [F.addc(x, y) for x, y in zip(a, b)],
            "invc": lambda: [F.invc(x) for x in a],
            "powc": lambda: [F.powc(x, k) for x, k in zip(a, e)],
            "format": lambda: [F.format_code(x) for x in a],
            "element_parse": lambda: [F.element(tok) for tok in tokens],
        }
        for op, fn in ops.items():
            calls = took = 0
            while took < min_ns:
                t0 = perf_counter_ns()
                fn()
                took += perf_counter_ns() - t0
                calls += operands
            out[f"galois.{op}_ns.{fname}"] = took / calls
    return out
