"""Reduce perfbench run records to one committed BENCH_*.json file.

Usage (from the root of the repository):

    python3 scripts/bench_json.py OUT.json parent=DIR change=DIR

Each DIR holds the records that ``perfbench/run.py`` wrote to its
``perfbench/results/`` for one side (say, the parent commit and the change).
For every workload and side the output holds the median of each gated
metric over that side's runs, the seeds, the commits the records name, the
median speed-probe time and the worst ``fail_ratio``.  The ``--trace 1``
records add their seeds and the median of each per-layer ``*.p50_ms``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

GATED = ("setup_s", "items_per_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb")


def reduce(records: list[dict]) -> dict:
    return {
        "runs": len(records),
        "seeds": sorted(r["seed"] for r in records),
        "commits": sorted({r["git_commit"] for r in records}),
        "medians": {m: statistics.median(r["metrics"][m]["value"] for r in records)
                    for m in GATED},
        "probe_ms_median": statistics.median(r["wall_clock"]["probe_ms"]["value"]
                                             for r in records),
        "fail_ratio_max": max(r["fail_ratio"] for r in records),
    }


def reduce_traced(records: list[dict]) -> dict:
    layers = sorted({k for r in records for k in r["metrics"] if k.endswith(".p50_ms")})
    return {
        "traced_seeds": sorted(r["seed"] for r in records),
        "per_layer_p50_ms": {k: statistics.median(r["metrics"][k]["value"] for r in records
                                                  if k in r["metrics"]) for k in layers},
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or any("=" not in a for a in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    out: dict = {}
    for side, folder in (a.split("=", 1) for a in argv[1:]):
        for trace, reducer in ((0, reduce), (1, reduce_traced)):
            by_workload: dict[str, list[dict]] = {}
            for path in sorted(Path(folder).glob(f"*-trace{trace}-full.json")):
                record = json.loads(path.read_text())
                by_workload.setdefault(record["workload"], []).append(record)
            for name, records in by_workload.items():
                out.setdefault(name, {}).setdefault(side, {}).update(reducer(records))
    Path(argv[0]).write_text(json.dumps(dict(sorted(out.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
