"""Span tracing of alternant from outside the package.

The tracer replaces public functions with timing wrappers under the names
their callers look them up by (module globals, class attributes), so the
package itself is unchanged.  Each call becomes a span: name, start, end,
parent span, word id, an optional work count and an optional result tag.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter_ns

NAME, START, END, PARENT, WORD, COUNT, TAG = range(7)

# Decode span names; everything a decoder calls nests under one of them.
DECODES = ("decode.pgz", "decode.pgzm")

# Decode stages, as the child spans of a decode span that make them up.  The
# first syndrome call is the syndrome stage, the second the final check.
STAGES = {
    "hankel_gj": ("pgz.hankel_matrix", "pgz.gj_locator"),
    "locate": ("pgz.locate",),
    "values_forney": ("pgz.error_evaluator", "pgz.forney"),
    "values_solve": ("pgz.solve_square",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.word = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, *, count=None, tag=None,
             new_word: bool = False, first_per_object: bool = False):
        """Replace owner.attr by a wrapper that records a span per call.

        count(*args) gives a work count for the span, tag(result) a label.
        new_word starts a new word id at each call.  first_per_object records
        only the first call per first argument, for cached properties.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = orig.fget if isinstance(orig, property) else orig
        spans, stack, seen = self.spans, self._stack, set()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if first_per_object:
                if id(args[0]) in seen:
                    return fn(*args, **kwargs)
                seen.add(id(args[0]))
            if new_word:
                self.word += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self.word,
                    count(*args, **kwargs) if count else 0, ""]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if tag:
                span[TAG] = tag(result)
            return result

        setattr(owner, attr, property(traced) if isinstance(orig, property) else traced)
        self._undo.append((owner, attr, orig))

    def unwrap_all(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def decode_tag(report) -> str:
    return report.reason.value if report.reason else report.status.value


def oracle_tag(result) -> str:
    oracle = import_module("alternant.oracle")
    if result is oracle.NOT_FOUND:
        return "not_found"
    return "ambiguous" if result is oracle.AMBIGUOUS else "found"


def install(tracer: Tracer, decoder_owners=()):
    """Wrap every traced public function of alternant.

    decoder_owners are extra modules whose own pgz/pgzm bindings should be
    decode spans (the CLI imports the decoders by name).
    """
    # alternant/__init__.py rebinds the name alternant.pgz to the function,
    # so the module is reached through importlib.
    pgz = import_module("alternant.pgz")
    codes = import_module("alternant.codes")
    cli = import_module("alternant.cli")
    codespec = import_module("alternant.codespec")
    demo = import_module("alternant.demo")
    oracle = import_module("alternant.oracle")

    for attr in ("hankel_matrix", "gj_locator", "error_evaluator", "forney",
                 "solve_square", "pull"):
        tracer.wrap(pgz, attr, f"pgz.{attr}")
    tracer.wrap(pgz, "locate", "pgz.locate", count=lambda L, alphas: len(alphas))
    for owner in (pgz,) + tuple(decoder_owners):
        for attr in ("pgz", "pgzm"):
            tracer.wrap(owner, attr, f"decode.{attr}", tag=decode_tag,
                        new_word=owner is not pgz)
    Code = codes.AlternantCode
    tracer.wrap(Code, "syndrome", "codes.syndrome")
    tracer.wrap(Code, "encode", "codes.encode")
    tracer.wrap(Code, "k", "codes.k", first_per_object=True)
    tracer.wrap(Code, "generator_matrix", "codes.G", first_per_object=True)
    tracer.wrap(codes, "gauss_jordan", "linalg.gauss_jordan")
    tracer.wrap(codes, "null_space", "linalg.null_space")
    tracer.wrap(cli, "parse_vector_line", "cli.parse_vector_line")
    tracer.wrap(pgz.DecodeReport, "render", "cli.render")
    tracer.wrap(codespec, "parse_code", "codespec.parse_code")
    tracer.wrap(demo, "parse_code", "codespec.parse_code")
    tracer.wrap(codespec, "extension", "galois.extension")
    for attr in ("rs", "grs", "prs", "bch", "goppa"):
        tracer.wrap(codespec, attr, "codes.build")
    tracer.wrap(oracle, "brute_force_decode", "oracle.decode", tag=oracle_tag,
                count=lambda C, y, t_max, budget=None: oracle.predicted_decode_checks(
                    C.n, C.base_field.q, t_max))


@contextmanager
def installed(tracer: Tracer, decoder_owners=()):
    install(tracer, decoder_owners)
    try:
        yield tracer
    finally:
        tracer.unwrap_all()


def write_spans(path, spans):
    """Write spans as gzipped JSON lines."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# -- aggregation -------------------------------------------------------------

def children_of(spans) -> list[list[int]]:
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover (ns)."""
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s[START]
        for lo, hi in sorted((spans[k][START], spans[k][END]) for k in kids[i]):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def decode_stages(spans) -> dict[str, int]:
    """Total ns per decode stage over every decode span; the stages, self
    time included, add up to the decode spans' total duration."""
    kids = children_of(spans)
    selfs = self_times(spans)
    total = dict.fromkeys(("syndrome", "verify", *STAGES, "self"), 0)
    stage_of = {name: stage for stage, names in STAGES.items() for name in names}
    for i, s in enumerate(spans):
        if s[NAME] not in DECODES:
            continue
        syndromes = 0
        for k in kids[i]:
            name, took = spans[k][NAME], spans[k][END] - spans[k][START]
            if name == "codes.syndrome":
                total["verify" if syndromes else "syndrome"] += took
                syndromes += 1
            elif name == "pgz.pull":
                total["values_forney" if s[NAME] == "decode.pgz" else "values_solve"] += took
            else:
                total[stage_of.get(name, "self")] += took
        total["self"] += selfs[i]
    return total


def layer_metrics(spans, record_words: int) -> dict[str, float]:
    """Per-decode stage times and counts from the decode-phase spans.

    Times are means over every decode span; counts are exact and taken over
    the words with id below record_words, which every run decodes.
    """
    decodes = [i for i, s in enumerate(spans) if s[NAME] in DECODES]
    n = max(len(decodes), 1)
    out = {f"pgz.{k}_us": v / n / 1e3 for k, v in decode_stages(spans).items()}
    for name in ("hankel_matrix", "gj_locator", "solve_square"):
        took = sum(s[END] - s[START] for s in spans if s[NAME] == f"pgz.{name}")
        out[f"linalg.{name}_us"] = took / n / 1e3

    kids = children_of(spans)
    rec = [i for i in decodes if spans[i][WORD] < record_words]
    syn = loc = 0
    tags: dict[str, int] = {}
    for i in rec:
        tags[spans[i][TAG]] = tags.get(spans[i][TAG], 0) + 1
        for k in kids[i]:
            syn += spans[k][NAME] == "codes.syndrome"
            loc += spans[k][COUNT] if spans[k][NAME] == "pgz.locate" else 0
    out["codes.syndrome_calls_per_decode"] = syn / max(len(rec), 1)
    out["pgz.locate_points_per_decode"] = loc / max(len(rec), 1)
    for status in ("NoError", "Corrected"):
        out[f"pgz.status.{status}"] = tags.get(status, 0)
    reasons = ("DefectiveErrorLocation", "ValueNotInBaseField", "MalformedSyndromeStructure")
    out["pgz.status.Failure"] = sum(tags.get(r, 0) for r in reasons)
    for reason in reasons:
        out[f"pgz.reason.{reason}"] = tags.get(reason, 0)

    oracle = [s for s in spans if s[NAME] == "oracle.decode" and s[WORD] < record_words]
    out["oracle.candidates_per_word"] = (sum(s[COUNT] for s in oracle) / len(oracle)
                                         if oracle else 0)
    for result in ("found", "not_found", "ambiguous"):
        out[f"oracle.result.{result}"] = sum(s[TAG] == result for s in oracle)

    selfs = self_times(spans)
    encodes = [selfs[i] for i, s in enumerate(spans) if s[NAME] == "codes.encode"]
    out["codes.encode_us"] = sum(encodes) / max(len(encodes), 1) / 1e3
    return out


SETUP_LAYERS = {
    "galois.extension_ms": "galois.extension",
    "codespec.parse_code_ms": "codespec.parse_code",
    "codes.build_ms": "codes.build",
    "codes.k_ms": "codes.k",
    "codes.G_ms": "codes.G",
    "linalg.gauss_jordan_ms": "linalg.gauss_jordan",
    "linalg.null_space_ms": "linalg.null_space",
}


def setup_metrics(spans, per: int = 1) -> dict[str, float]:
    """Self time per set-up layer in ms, divided over `per` set-ups."""
    selfs = self_times(spans)
    out = {}
    for metric, name in SETUP_LAYERS.items():
        took = sum(selfs[i] for i, s in enumerate(spans) if s[NAME] == name)
        out[metric] = took / per / 1e6
    return out
