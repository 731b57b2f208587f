"""scripts/bench_json.py on synthetic perfbench records."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def record(workload: str, seed: int, scale: float, commit: str = "abc", fail: float = 0.0,
           layers: dict | None = None) -> dict:
    metrics = {m: {"value": scale * (i + 1)} for i, m in enumerate(bench_json.GATED)}
    metrics.update({k: {"value": v} for k, v in (layers or {}).items()})
    return {"workload": workload, "seed": seed, "git_commit": commit, "metrics": metrics,
            "wall_clock": {"probe_ms": {"value": 2.0 * scale}}, "fail_ratio": fail}


def write(folder: Path, rec: dict, trace: int) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{rec['workload']}-seed{rec['seed']}-trace{trace}-full.json"
    path.write_text(json.dumps(rec))


def test_reduces_two_sides_traced_and_untraced(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, scale in ((3, 1.0), (1, 3.0), (2, 2.0)):
        write(parent, record("hexagon", seed, scale, fail=0.1 * seed), 0)
        write(change, record("hexagon", seed, 10 * scale, commit="def"), 0)
    write(parent, record("dpp", 7, 4.0), 0)
    write(parent, record("hexagon", 9, 1.0, layers={"a.p50_ms": 5.0, "a.calls": 1.0}), 1)
    write(parent, record("hexagon", 8, 1.0, layers={"a.p50_ms": 1.0, "b.p50_ms": 4.0}), 1)
    # a tiny run is not reduced
    (parent / "hexagon-seed5-trace0-tiny.json").write_text(json.dumps(record("hexagon", 5, 99.0)))
    out = tmp_path / "BENCH.json"
    assert bench_json.main([str(out), f"parent={parent}", f"change={change}"]) == 0
    got = json.loads(out.read_text())
    assert list(got) == ["dpp", "hexagon"]
    assert list(got["dpp"]) == ["parent"]
    p, c = got["hexagon"]["parent"], got["hexagon"]["change"]
    assert p["runs"] == 3 and p["seeds"] == [1, 2, 3] and p["commits"] == ["abc"]
    assert p["medians"] == {m: 2.0 * (i + 1) for i, m in enumerate(bench_json.GATED)}
    assert p["probe_ms_median"] == 4.0 and abs(p["fail_ratio_max"] - 0.3) < 1e-12
    assert p["traced_seeds"] == [8, 9]
    assert p["per_layer_p50_ms"] == {"a.p50_ms": 3.0, "b.p50_ms": 4.0}
    assert c["medians"]["setup_s"] == 20.0 and c["commits"] == ["def"]
    assert "per_layer_p50_ms" not in c


def test_bad_arguments_exit_2(tmp_path):
    for args in ([], [str(tmp_path / "out.json")], [str(tmp_path / "out.json"), "parent"]):
        assert bench_json.main(args) == 2
    proc = subprocess.run([sys.executable, str(SCRIPT), "out.json", "nodir"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 2 and "Usage" in proc.stderr
    assert not (tmp_path / "out.json").exists()
