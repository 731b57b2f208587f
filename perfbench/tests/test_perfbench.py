"""Tests of the benchmark itself: tiny-size smoke runs of all four workloads,
and checks that wrong library outputs count as failures.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import speedprobe  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tilings import aztec, ope, shuffling  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "1",
                           "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def assert_result(proc, names):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"} and UNIT.fullmatch(metric["unit"]), name
        assert isinstance(metric["value"], (int, float)), name


def test_all_workloads_report_every_end_to_end_metric():
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert_result(bench("--trace", "0"), {f"{w}.{n}" for w in workloads.WORKLOADS for n in names})


def test_one_workload_reports_every_end_to_end_metric():
    assert_result(bench("--workload", "growth", "--trace", "0"),
                  {m["name"] for m in SPEC["end_to_end"]})


def test_trace_reports_every_layer():
    assert_result(bench("--workload", "hexagon", "--trace", "1"),
                  {m["name"] for m in SPEC["per_layer"]})


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = bench("--workload", "aztec", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def failed_items(name, count=3):
    loop = worker.Loop(workloads.WORKLOADS[name](5, True, worker.UNTRACED))
    for _ in range(count):
        loop.item(worker.UNTRACED)
    return loop.failed


def test_clean_items_pass():
    for name in workloads.WORKLOADS:
        assert failed_items(name) == 0, name


def test_moved_domino_is_a_failure(monkeypatch):
    sample = shuffling.sample_aztec

    def moved(measure, rng):
        t = sample(measure, rng)
        d = t.dominoes[0]
        return aztec.Tiling(t.order, (aztec.Domino(d.x + 1, d.y, d.horizontal),) + t.dominoes[1:])

    monkeypatch.setattr(shuffling, "sample_aztec", moved)
    assert failed_items("aztec") == 3


def test_repeated_dpp_site_is_a_failure(monkeypatch):
    sample = ope.sample_dpp

    def repeated(kernel, rng):
        sites = sample(kernel, rng)
        sites[1] = sites[0]
        return sites

    monkeypatch.setattr(ope, "sample_dpp", repeated)
    assert failed_items("dpp") == 3


def test_histogram_check_rejects_a_biased_sample():
    law = {0: 0.5, 1: 0.5}
    assert workloads.histogram_check(Counter({0: 520, 1: 480}), law) is None
    assert workloads.histogram_check(Counter({0: 700, 1: 300}), law) is not None
    assert workloads.histogram_check(Counter({0: 10, 2: 1}), law) is not None


def test_scaling_follows_the_nearby_probes():
    ref = speedprobe.REF_S
    times = [0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    # the host runs at reference speed, then at half speed
    probes = [ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    scaled = speedprobe.scaled_times(times, probes)
    assert scaled[0] == pytest.approx(0.1) and scaled[-1] == pytest.approx(0.05)
    assert np.all(np.diff(scaled) <= 0)
    with pytest.raises(ValueError):
        speedprobe.scaled_times(times, probes[:-1])


@pytest.mark.parametrize("kind", sorted(speedprobe.KINDS))
def test_probe_takes_a_few_milliseconds(kind):
    assert 1e-4 < speedprobe.probe(kind) < 0.1


def test_every_workload_names_a_probe_kind():
    for wl in workloads.WORKLOADS.values():
        assert wl.PROBE in speedprobe.KINDS, wl.name
