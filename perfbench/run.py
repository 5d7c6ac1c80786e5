"""Run one workload of the alternant benchmark and print its metrics.

    python3 perfbench/run.py --workload stream_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 a separate traced run gives the per-layer
ones.  The lines before it are a report: environment, caveats, the tail
percentile and its sample count, raw figures, the machine slowdowns seen and
the determinism record.  The report is also written to perfbench/out/, with
the spans of a traced run.
Exit code 1 means some output was wrong, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("stream_small", "stream_large", "cli_stream", "oracle_selftest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "alternant" / "__init__.py").is_file():
        print(f"perfbench: no alternant package under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    workload = measure.w.WORKLOADS[args.workload]
    metrics, report, tally = measure.run(workload, args.seed, args.seconds, bool(args.trace))
    out = measure.w.OUT
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**report, "metrics": metrics}, indent=1) + "\n",
                    encoding="utf-8")
    for line in json.dumps(report, indent=1).splitlines():
        print("#", line)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
