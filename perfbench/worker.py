"""Run one benchmark workload in a fresh process; print the raw result as
one JSON line on stdout.

run.py starts this script for every measurement, with the BLAS thread count
already fixed in the environment.  ``--t0`` is the wall-clock time at which
run.py launched the process, so set-up time covers interpreter start,
imports, the workload's set-up and its warm-up items.

Modes:
  setup  set up and warm up, then report the set-up time;
  run    also run untraced items for --seconds and the end-of-run checks;
  trace  run the named workload for --seconds, alternating untraced and
         traced items, then PROBE_ITEMS traced items of every other
         workload, so each trace reports every layer.

In the timed loop the workload's speed probe (speedprobe.py) runs before
the first item and after every item; its time is not part of any item.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import speedprobe
import workloads
from tilings import ope
from tracing import ITEM, NullTracer, Tracer

WARMUP_ITEMS = 2
PROBE_ITEMS = 3
SPEED_PROBE_WARMUP = 3  # untimed speed probes before the first timed item
LOGGED_FAILURES = 3
UNTRACED = NullTracer()


class Loop:
    """Runs items of one workload and keeps their times and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.next_r = 0
        self.failed = 0
        self.ope_errors = 0
        self.times: dict[bool, list[float]] = {False: [], True: []}  # traced? -> item seconds
        self.scaled: dict[bool, list[float]] = {False: [], True: []}  # the same at reference speed
        self.probes: list[float] = []  # speed probe seconds, one before each timed item and one after
        self.wall_s: float | None = None  # wall time of the timed items and probes

    def item(self, tr) -> float:
        r = self.next_r
        self.next_r += 1
        if tr.enabled:
            tr.item = r
        t = time.perf_counter()
        try:
            with tr.span(ITEM):
                self.wl.item(r, tr)
        except Exception as exc:  # a raising item is a failed item; the run goes on
            self.failed += 1
            if isinstance(exc, (ope.KernelConditionError, ope.ConstructionError)):
                self.ope_errors += 1
            if self.failed <= LOGGED_FAILURES:
                print(f"{self.wl.name} item {r} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t

    def run_for(self, seconds: float, tracer) -> None:
        """Run timed items for `seconds`; with a tracer, every second item is
        traced, so that traced and untraced items share the same conditions.
        The speed probe runs before the first item and after every item."""
        kind = self.wl.PROBE
        for _ in range(SPEED_PROBE_WARMUP):
            speedprobe.probe(kind)
        self.probes = [speedprobe.probe(kind)]
        order, raw = [], []
        start = time.perf_counter()
        while time.perf_counter() < start + seconds:
            traced = tracer is not None and len(raw) % 2 == 1
            raw.append(self.item(tracer if traced else UNTRACED))
            order.append(traced)
            self.probes.append(speedprobe.probe(kind))
        self.wall_s = time.perf_counter() - start
        for traced, t, s in zip(order, raw, speedprobe.scaled_times(raw, self.probes)):
            self.times[traced].append(t)
            self.scaled[traced].append(float(s))


def environment() -> dict:
    def first_line(path, prefix=""):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if idx.startswith("index") and first_line(f"{base}/{idx}/type") != "Instruction":
            caches[f"L{first_line(f'{base}/{idx}/level')}"] = first_line(f"{base}/{idx}/size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "cache_per_core": caches,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    names = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    if args.mode != "trace":
        names = names[:1]
    out: dict = {"workload": args.workload, "mode": args.mode, "loops": {}}
    attempted = failed = 0
    for i, name in enumerate(names):
        tracer = Tracer() if args.mode == "trace" else None
        loop = Loop(workloads.WORKLOADS[name](args.seed, args.tiny, tracer or UNTRACED))
        for _ in range(WARMUP_ITEMS):
            loop.item(UNTRACED)
        if i == 0:
            out["setup_s"] = time.time() - args.t0
        if args.mode != "setup" and i == 0:
            loop.run_for(args.seconds, tracer)
        elif args.mode == "trace":
            for _ in range(PROBE_ITEMS):
                loop.times[True].append(loop.item(tracer))
        checks = loop.wl.final_checks() if args.mode != "setup" else {}
        attempted += loop.next_r + len(checks)
        failed += loop.failed + sum(v is not None for v in checks.values())
        rec = {"items": loop.next_r, "failed_items": loop.failed, "ope_errors": loop.ope_errors,
               "checks": checks, "times": {"untraced": loop.times[False], "traced": loop.times[True]},
               "scaled": {"untraced": loop.scaled[False], "traced": loop.scaled[True]},
               "probes": loop.probes, "wall_s": loop.wall_s}
        if tracer is not None:
            summary = tracer.summary()
            rec.update(summary=summary, counts=tracer.counts,
                       derived=loop.wl.derived(summary, tracer.counts), spans=tracer.spans)
        out["loops"][name] = rec
    out.update(attempted=attempted, failed=failed,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               env=environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
