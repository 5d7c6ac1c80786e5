"""The two kinds of run: untraced end-to-end metrics and traced per-layer ones."""

from __future__ import annotations

import statistics

import stats
import tracing
import workloads as w


def rate(seconds: list[float]) -> float:
    return len(seconds) / sum(seconds)


def end_to_end(workload: w.Workload, seed: int, seconds: float):
    """(metrics, report, tally) of an untraced run; metrics map to (value, unit)."""
    setup_s, setup_runs = w.measure_setup(workload)
    codes = w.setup(workload)
    cli = workload.name == "cli_stream"
    if cli:
        tally, _ = w.run_cli(workload, codes, seed, seconds)
    else:
        tally = w.run_words(workload, codes, seed, seconds)
    tail, pct, n = stats.tail(tally.latency_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pgz_words_per_s": (tally.rate("pgz"), "1/s"),
        "pgzm_words_per_s": (tally.rate("pgzm"), "1/s"),
        "encode_words_per_s": (tally.rate("encode"), "1/s"),
        "decode_ms_p50": (statistics.median(tally.latency_ms), "ms"),
        "decode_ms_tail": (tail, "ms"),
        "peak_rss_mb": (w.peak_rss_mb(children=cli), "MB"),
    }
    report = {"decode_ms_tail": {"percentile": pct, "samples": n},
              "raw": {"setup_runs_s": setup_runs,
                      **{f"{kind}_words_per_s": tally.rate(kind, raw=True) for kind in tally.ops}}}
    return metrics, report, tally


def cli_spans(children: list[w.Child]) -> tuple[list, int]:
    """All children's spans in one list, and the record's decode-word count.

    Parent indices are shifted into the merged list; decode words are
    numbered across the decode children in run order, so the record
    (the first batches) holds the lowest word ids.
    """
    spans, words, record_words = [], 0, 0
    for child in children:
        offset = len(spans)
        for s in child.spans:
            if s[tracing.PARENT] >= 0:
                s[tracing.PARENT] += offset
            if child.kind != "encode":
                s[tracing.WORD] += words
            spans.append(s)
        if child.kind != "encode":
            words += child.words
            record_words += child.words if child.record else 0
    return spans, record_words


def cli_shares(children: list[w.Child]) -> dict[str, float]:
    """Shares of the CLI decode children's wall time by layer."""
    decoders = [c for c in children if c.kind != "encode"]
    wall = sum(c.wall for c in decoders)

    def took(names) -> float:
        return sum(s[tracing.END] - s[tracing.START] for c in decoders
                   for s in c.spans if s[tracing.NAME] in names) / 1e9

    return {"cli.parse_vector_line_share": took(("cli.parse_vector_line",)) / wall,
            "cli.render_share": took(("cli.render",)) / wall,
            "cli.overhead_share": 1 - took(tracing.DECODES) / wall}


def per_layer(workload: w.Workload, seed: int, seconds: float):
    """(metrics, report, tally) of a traced run.

    The set-up is traced in this fresh interpreter.  The record prefix then
    runs once untraced, for the tracing overhead, before the traced loop.
    """
    setup_tracer = tracing.Tracer()
    with tracing.installed(setup_tracer):
        codes = w.setup(workload)
    if workload.name == "cli_stream":
        base, _ = w.run_cli(workload, codes, seed, seconds, record_only=True)
        tally, children = w.run_cli(workload, codes, seed, seconds, traced=True)
        spans, record_words = cli_spans(children)
        layers = tracing.layer_metrics(spans, record_words)
        layers.update(tracing.setup_metrics(spans, per=len(children)))
        layers.update(cli_shares(children))
        spans += setup_tracer.spans
    else:
        base = w.run_words(workload, codes, seed, seconds, record_only=True)
        loop_tracer = tracing.Tracer()
        with tracing.installed(loop_tracer):
            tally = w.run_words(workload, codes, seed, seconds, tracer=loop_tracer)
        layers = tracing.layer_metrics(loop_tracer.spans, tally.record_words)
        layers.update(tracing.setup_metrics(setup_tracer.spans))
        layers.update(dict.fromkeys(("cli.parse_vector_line_share", "cli.render_share",
                                     "cli.overhead_share"), 0.0))
        spans = setup_tracer.spans + loop_tracer.spans
    layers["trace.overhead_words_per_s"] = (
        rate(tally.primary[:len(base.primary)]) - rate(base.primary))
    layers.update(w.galois_sweep(seed))

    w.OUT.mkdir(parents=True, exist_ok=True)
    path = w.OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracing.write_spans(path, spans)
    decodes = [s[tracing.END] - s[tracing.START] for s in spans if s[tracing.NAME] in tracing.DECODES]
    report = {"spans": str(path.relative_to(w.ROOT)), "spans_count": len(spans),
              "decode_span_us": sum(decodes) / max(len(decodes), 1) / 1e3,
              "untraced_record": base.record()}
    return {name: (value, unit_of(name)) for name, value in layers.items()}, report, tally


def unit_of(name: str) -> str:
    for marker, unit in (("_us", "us"), ("_ms", "ms"), ("_ns", "ns"), ("_share", "share"),
                         ("_per_s", "1/s")):
        if name.endswith(marker) or f"{marker}." in name:
            return unit
    return "count"


def run(workload: w.Workload, seed: int, seconds: float, traced: bool):
    """(metrics, report, tally) of one run; the report carries what every run
    records: environment, the determinism record, drift, per-code medians."""
    measure = per_layer if traced else end_to_end
    metrics, report, tally = measure(workload, seed, seconds)
    per_code = {name: statistics.median(ms) for name, ms in sorted(tally.latency_by_code.items())}
    report = {"workload": workload.name, "why": workload.why, "trace": int(traced),
              "seconds": seconds, "environment": w.environment(seed),
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_share": tally.failed / tally.attempted, **report,
              "record": tally.record(),
              "decode_ms_p50_per_code": per_code,
              "machine_slowdown": stats.drift(tally.slowdowns),
              "violations": tally.violations[:20]}
    if "bch511" in per_code:
        report["cliff_bch511_over_bch255"] = per_code["bch511"] / per_code["bch255"]
    return metrics, report, tally
