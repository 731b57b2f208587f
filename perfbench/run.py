"""Benchmark of the tilings library: four workloads, end-to-end and per-layer.

Usage (from the root of the repository):

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload dpp --seed 3 --seconds 25 --trace 0

Each workload runs in fresh processes (see worker.py), one closed-loop
client running items back to back.  The BLAS thread count is fixed at launch
to the CPUs this process may use.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics:

    setup_s      s     launch to the first timed item (median of SETUP_RUNS
                       launches; imports, set-up and warm-up included)
    items_per_s  1/s   timed items over their summed time
    item_p50_ms  ms    median item time
    item_p90_ms  ms    90th percentile item time
    peak_rss_mb  MB    ru_maxrss of the measuring process

Item and set-up times are wall times rescaled to a reference host speed,
measured by a fixed probe computation run between items (see speedprobe.py
and end_to_end below): the host's speed switches between states in phases
of seconds, and unscaled medians of runs of the same code differ by 10-30%.
The unscaled ``wall_*`` figures and the probe's median time ``probe_ms`` are
printed beside them, with ``fail_ratio`` (failed items and failed end-of-run
checks over attempted).

With ``--trace 1`` one process runs the workload with every second item
traced, then a few traced items of every other workload; the last line holds
the per-layer metrics ``<module>.<function>[.<size>]`` with ``.calls`` (per
item), ``.p50_ms`` and ``.share`` (self time over item time), computed
counts, ``trace.items_per_s_gap``, the tracing overhead, and
``host.probe_ms``, the speed probe's median time in that run.  Every run
also writes its full record (environment, checks, spans) to
``perfbench/results/``.  The command exits non-zero, without a result, when
the library is missing or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speedprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("aztec", "dpp", "growth", "hexagon")
SETUP_RUNS = 3
DEADLINE_S = 170  # the whole command must end well within 180 s
BLAS_THREADS = len(os.sched_getaffinity(0))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def launch(args, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.size == "tiny":
        cmd.append("--tiny")
    t0 = time.time()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(runs: list[dict]) -> dict:
    """The gated metrics, with times at reference speed (see speedprobe.py).

    Item times are scaled item by item.  The set-up launches have no probes
    of their own; they ran seconds before the main run, and the host's state
    drifts over minutes, so set-up time is scaled by the main run's median
    probe.
    """
    main = runs[-1]
    loop = main["loops"][main["workload"]]
    scaled = np.array(loop["scaled"]["untraced"]) * 1e3
    speed = speedprobe.REF_S / float(np.median(loop["probes"]))
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in runs) * speed, "s"),
        "items_per_s": (scaled.size / (scaled.sum() / 1e3), "1/s"),
        "item_p50_ms": (float(np.percentile(scaled, 50)), "ms"),
        "item_p90_ms": (float(np.percentile(scaled, 90)), "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def wall_clock(runs: list[dict]) -> dict:
    """The same metrics in unscaled wall time, and the probe's median."""
    main = runs[-1]
    loop = main["loops"][main["workload"]]
    times = np.array(loop["times"]["untraced"]) * 1e3
    return {
        "wall_setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "wall_items_per_s": (times.size / (times.sum() / 1e3), "1/s"),
        "wall_item_p50_ms": (float(np.percentile(times, 50)), "ms"),
        "wall_item_p90_ms": (float(np.percentile(times, 90)), "ms"),
        "probe_ms": (float(np.median(loop["probes"])) * 1e3, "ms"),
    }


def per_layer(main: dict) -> dict:
    out = {}
    errors = 0
    for loop in main["loops"].values():
        errors += loop["ope_errors"]
        for name, row in loop["summary"].items():
            if name == "item":
                continue
            out[f"{name}.p50_ms"] = (row["p50_ms"], "ms")
            if "share" in row:
                out[f"{name}.calls"] = (row["calls_per_item"], "1/item")
                out[f"{name}.share"] = (row["share"], "1")
        out.update({k: tuple(v) for k, v in loop["derived"].items()})
    times = main["loops"][main["workload"]]["times"]
    untraced = len(times["untraced"]) / sum(times["untraced"])
    traced = len(times["traced"]) / sum(times["traced"])
    out["trace.items_per_s_gap"] = (100 * (untraced - traced) / untraced, "%")
    out["host.probe_ms"] = (float(np.median(main["loops"][main["workload"]]["probes"])) * 1e3, "ms")
    out["ope.errors"] = (errors, "count")
    return out


def run_workload(args) -> tuple[dict, dict]:
    """Measure one workload; return (metrics, record)."""
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        runs = [launch(args, "trace", deadline)]
        metrics = per_layer(runs[0])
    else:
        runs = [launch(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
        runs.append(launch(args, "run", deadline))
        metrics = end_to_end(runs)
    main = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    loop = main["loops"][args.workload]
    items = len(loop["times"]["untraced"]) + len(loop["times"]["traced"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_commit": git_commit(),
        "env": main["env"], "timed_items": items,
        "timed_items_beyond_p90": int(0.1 * len(loop["times"]["untraced"])),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "setup_s_runs": [r["setup_s"] for r in runs],
        "wall_clock": {} if args.trace else {k: {"value": v, "unit": u}
                                              for k, (v, u) in wall_clock(runs).items()},
        "checks": {name: lp["checks"] for name, lp in main["loops"].items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "computed": {
            "ope.sample_dpp.k2000": {
                "N": 500, "K": 2000, "flop": "3 N^2 (K+1)", "bytes": "12 N^2 (K+1)",
                "flop_per_byte": 0.25,
                "roofline_ratio": "omitted: phi (8 MB) lies between L2 and L3 (300 MiB), so "
                                  "no bandwidth run with arrays 4x the LLC (1.2 GB) is made",
            },
        } if args.trace else {},
        "loops": {name: {k: v for k, v in lp.items() if k not in ("times", "scaled", "probes")}
                  for name, lp in main["loops"].items()},
    }
    return metrics, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every problem, for the benchmark's own tests")
    args = ap.parse_args()
    if not (ROOT / "src" / "tilings" / "__init__.py").is_file():
        print(f"error: no tilings package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for name in names:
        args.workload = name
        try:
            metrics, record = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
        path.write_text(json.dumps(record, indent=1))
        shown = dict(metrics, **{k: (m["value"], m["unit"]) for k, m in record["wall_clock"].items()})
        for key, (value, unit) in shown.items():
            print(f"{name:8s} {key:48s} {value:14.6g} {unit}")
        print(f"{name:8s} {'fail_ratio':48s} {record['fail_ratio']:14.6g} 1")
        print(f"{name:8s} {'timed_items':48s} {record['timed_items']:14d} count")
        env = dict(record["env"], git_commit=record["git_commit"], seed=args.seed)
        print(f"# {name} env: {json.dumps(env)}")
        results[name] = (metrics, record)

    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {(f"{name}.{k}" if prefix else k): {"value": v, "unit": u}
                    for name, (m, _) in results.items() for k, (v, u) in m.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
