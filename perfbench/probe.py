"""Child-process entry points of the benchmark.

    python3 perfbench/probe.py setup WORKLOAD
        Time import plus the workload's set-up in this fresh interpreter and
        print {"setup_s": ..., "slowdown": ...} as JSON.
    python3 perfbench/probe.py cli SPEED SPANS ARGS...
        Run alternant.cli with ARGS as __main__, as `python -m alternant.cli`
        does, bracketed by machine-speed probes whose result goes to the file
        SPEED.  With SPANS other than "-", run alternant.cli.main(ARGS) with
        the tracer installed and write its spans to the file SPANS.  Exits
        with the CLI's exit code.
"""

from __future__ import annotations

import json
import runpy
import sys
from importlib import import_module
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def setup(workload: str) -> int:
    import speed
    before = speed.probe()
    t0 = perf_counter()
    import alternant  # noqa: F401  (timed: import is part of set-up)
    imported = perf_counter() - t0
    import workloads
    t1 = perf_counter()
    workloads.setup(workloads.WORKLOADS[workload])
    took = imported + perf_counter() - t1
    print(json.dumps({"setup_s": took, "slowdown": (before + speed.probe()) / 2}))
    return 0


def cli(speed_path: str, spans_path: str, args: list[str]) -> int:
    import speed
    t0 = perf_counter()
    before = speed.probe()
    probe_s = perf_counter() - t0
    try:
        if spans_path == "-":
            sys.argv = ["alternant.cli", *args]
            try:
                runpy.run_module("alternant.cli", run_name="__main__", alter_sys=True)
            except SystemExit as done:
                return done.code or 0
            return 0
        import tracing
        tracer = tracing.Tracer()
        try:
            with tracing.installed(tracer, decoder_owners=(import_module("alternant.cli"),)):
                return import_module("alternant.cli").main(args)
        finally:
            Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    finally:
        t1 = perf_counter()
        after = speed.probe()
        probe_s += perf_counter() - t1
        Path(speed_path).write_text(json.dumps({"slowdown": (before + after) / 2,
                                                "probe_s": probe_s}), encoding="utf-8")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if argv[0] == "setup":
        return setup(argv[1])
    if argv[0] == "cli":
        return cli(argv[1], argv[2], argv[3:])
    raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
