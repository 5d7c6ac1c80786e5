"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from collections import Counter
from importlib import import_module
from types import SimpleNamespace

import pytest

import speed
import stats
import tracing
import workloads
from tracing import END, NAME, PARENT, START

from alternant import element_order


# -- tail percentile -----------------------------------------------------------

def test_tail_has_ten_samples_beyond():
    xs = list(range(100, 0, -1))            # 1..100, unsorted
    value, pct, n = stats.tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in xs) == stats.TAIL_BEYOND


def test_tail_smallest_qualifying_sample_count():
    value, pct, n = stats.tail(range(11))
    assert (value, n) == (0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_blocks_are_normalised_by_the_slowdown_around_them():
    tally = workloads.Tally(record_words=0)
    tally.op("pgz", 1, 0.5, primary=True, latency_of="a")
    tally.op("pgz", 3, 1.5)
    tally.close_block(2.0)
    tally.op("pgz", 1, 0.25, primary=True, latency_of="b")
    tally.close_block(1.0)
    assert tally.rate("pgz") == 5 / 1.25
    assert tally.rate("pgz", raw=True) == 5 / 2.25
    assert tally.primary == [0.25, 0.25]
    assert tally.latency_ms == [250.0, 250.0]
    assert tally.latency_by_code == {"a": [250.0], "b": [250.0]}
    d = stats.drift(tally.slowdowns)
    assert d["median"] == 1.5 and d["range_share"] == pytest.approx(2 / 3)


def test_speed_probe_reads_near_one_on_an_idle_machine():
    assert 0.2 < speed.probe() < 20


# -- spans and self time ---------------------------------------------------------

def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, 0, ""]


def test_self_time_with_nested_spans():
    spans = [span("a", 0, 100),
             span("b", 10, 30, 0),
             span("c", 40, 70, 0),
             span("d", 50, 60, 2)]
    assert tracing.self_times(spans) == [50, 20, 20, 10]


def test_decode_stages_sum_to_the_decode_span():
    spans = [span("decode.pgz", 0, 1000),
             span("codes.syndrome", 10, 110, 0),
             span("pgz.hankel_matrix", 120, 140, 0),
             span("pgz.gj_locator", 140, 300, 0),
             span("pgz.locate", 300, 700, 0),
             span("pgz.error_evaluator", 700, 720, 0),
             span("pgz.forney", 720, 760, 0),
             span("pgz.pull", 760, 770, 0),
             span("codes.syndrome", 800, 900, 0)]
    stages = tracing.decode_stages(spans)
    assert stages == {"syndrome": 100, "verify": 100, "hankel_gj": 180, "locate": 400,
                      "values_forney": 70, "values_solve": 0, "self": 150}
    assert sum(stages.values()) == spans[0][END] - spans[0][START]


def test_tracer_nests_spans_and_restores_originals():
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    originals = (ns.inner, ns.outer)
    t = tracing.Tracer()
    t.wrap(ns, "inner", "inner")
    t.wrap(ns, "outer", "outer", tag=str)
    assert ns.outer(1) == 4
    t.unwrap_all()
    assert (ns.inner, ns.outer) == originals
    assert [s[NAME] for s in t.spans] == ["outer", "inner"]
    assert t.spans[1][PARENT] == 0 and t.spans[0][tracing.TAG] == "4"


def test_first_per_object_records_only_the_first_property_read():
    class Thing:
        @property
        def k(self):
            return 7

    t = tracing.Tracer()
    t.wrap(Thing, "k", "k", first_per_object=True)
    a, b = Thing(), Thing()
    assert (a.k, a.k, b.k) == (7, 7, 7)
    t.unwrap_all()
    assert isinstance(Thing.__dict__["k"], property)
    assert len(t.spans) == 2


def test_traced_decode_covers_every_stage():
    pgz = import_module("alternant.pgz")
    wl = workloads.WORKLOADS["stream_small"]
    C = workloads.build_code("bch121")
    originals = (pgz.pgz, pgz.pgzm, pgz.locate)
    t = tracing.Tracer()
    with tracing.installed(t):
        for k in range(3 * (C.t + 2)):
            msg, w, e = workloads.planted(wl, C, "bch121", 5, k)
            t.word = k
            y = C.encode(msg) + e
            pgz.pgz(y, C)
            pgz.pgzm(y, C)
    assert (pgz.pgz, pgz.pgzm, pgz.locate) == originals
    m = tracing.layer_metrics(t.spans, record_words=10 ** 9)
    for stage in ("syndrome", "hankel_gj", "locate", "values_forney", "values_solve",
                  "verify", "self"):
        assert m[f"pgz.{stage}_us"] > 0
    decodes = [s for s in t.spans if s[NAME] in tracing.DECODES]
    total = sum(s[END] - s[START] for s in decodes) / len(decodes) / 1e3
    stage_sum = sum(m[f"pgz.{s}_us"] for s in ("syndrome", "hankel_gj", "locate",
                                               "values_forney", "values_solve",
                                               "verify", "self"))
    assert stage_sum == pytest.approx(total)
    assert m["pgz.locate_points_per_decode"] > 0
    assert 1 <= m["codes.syndrome_calls_per_decode"] <= 2


# -- seeded words ----------------------------------------------------------------

def test_words_repeat_for_a_seed_and_change_with_it():
    wl = workloads.WORKLOADS["stream_small"]
    C = workloads.build_code("grs32")
    first = [workloads.planted(wl, C, "grs32", 1, k) for k in range(12)]
    again = [workloads.planted(wl, C, "grs32", 1, k) for k in range(12)]
    other = [workloads.planted(wl, C, "grs32", 2, k) for k in range(12)]
    assert first == again
    assert first != other
    for msg, w, e in first:
        assert len(msg) == C.k and e.weight() == w


@pytest.mark.parametrize("name, lo, hi", [("stream_small", 0, 1), ("oracle_selftest", 1, 0)])
def test_weight_mix_is_even_over_whole_blocks(name, lo, hi):
    wl = workloads.WORKLOADS[name]
    C = workloads.build_code("bch31")
    weights = list(range(lo, C.t + hi + 1))
    blocks = 4
    mix = Counter(workloads.planted(wl, C, "bch31", 9, k)[1]
                  for k in range(blocks * len(weights)))
    assert mix == {w: blocks for w in weights}


def test_stream_large_split():
    wl = workloads.WORKLOADS["stream_large"]
    share = Counter(wl.cycle)
    assert {name: n / len(wl.cycle) for name, n in share.items()} == {
        "bch255": 3 / 5, "bch511": 1 / 5, "rs64": 1 / 5}


def test_large_codes_are_the_described_ones():
    rs64 = workloads.build_code("rs64")
    assert (rs64.n, rs64.t, rs64.ext_field.q) == (64, 8, 65536)
    assert element_order(rs64.ext_field.gen) == 65535
    for name, q in (("bch255", 256), ("bch511", 512)):
        C = workloads.build_code(name)
        assert (C.n, C.t, C.ext_field.q, C.base_field.q) == (q - 1, 8, q, 2)


def test_a_decoder_exception_fails_only_that_word(monkeypatch):
    pgz = import_module("alternant.pgz")
    wl = workloads.WORKLOADS["stream_small"]
    codes = workloads.setup(wl)
    calls = iter(range(10 ** 6))
    real = pgz.pgzm

    def flaky(y, C):
        if next(calls) == 3:
            raise RuntimeError("boom")
        return real(y, C)

    monkeypatch.setattr(pgz, "pgzm", flaky)
    tally = workloads.run_words(wl, codes, 1, 0.0, record_only=True)
    assert tally.attempted == tally.record_words
    assert tally.failed == 1 and "boom" in tally.violations[0]
    assert sum(tally.record()["words_per_code"].values()) == tally.record_words - 1


# -- the CLI output check --------------------------------------------------------

def test_cli_check_accepts_real_output_and_catches_a_changed_word():
    pgz = import_module("alternant.pgz")
    wl = workloads.WORKLOADS["cli_stream"]
    C = workloads.build_code("grs32")
    K = C.base_field
    refs = []
    for k in range(C.t + 2):
        msg, w, e = workloads.planted(wl, C, "grs32", 3, k)
        refs.append(pgz.pgz(C.encode(msg) + e, C))
    out = [line for r in refs if r.ok for line in r.render()]
    err = [r.message for r in refs if not r.ok]
    code = 2 if err else 0
    check = workloads.check_cli_decode
    assert check(K, refs, out, err, code) == {}
    assert check(K, refs, out, err, 2 - code)
    i = next(i for i, line in enumerate(out) if line.startswith("["))
    vec = list(workloads.parse_vector(K, out[i]))
    vec[0] = K.addc(vec[0], 1)
    changed = list(out)
    changed[i] = "[" + ", ".join(K.format_code(c) for c in vec) + "]"
    assert check(K, refs, changed, err, code)
