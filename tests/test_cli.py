"""CLI contract: determinism, formats, errors."""

import hashlib
import json
import math
import re
import shlex
import sys
import tracemalloc
from pathlib import Path

import pytest

from tilings import cli, hexagon, ope, replica_rng
from tilings.cli import _build_parser, _config_from_args, run


def test_aztec_sample_byte_identical(tmp_path):
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    for out in (out1, out2):
        assert run(["aztec-sample", "--n", "2", "--q", "0.5", "--seed", "7",
                    "--replicas", "3", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert len(payload["tilings"]) == 3
    for t in payload["tilings"]:
        assert set(t) == {"order", "dominoes"}
        assert all(set(d) == {"x", "y", "orientation"} for d in t["dominoes"])


def test_replica_streams_do_not_depend_on_count(tmp_path):
    # replica r must produce the same tiling whether 2 or 5 replicas run
    o2 = tmp_path / "a.json"
    o5 = tmp_path / "b.json"
    run(["aztec-sample", "--n", "3", "--q", "0.4", "--seed", "9",
         "--replicas", "2", "--out", str(o2)])
    run(["aztec-sample", "--n", "3", "--q", "0.4", "--seed", "9",
         "--replicas", "5", "--out", str(o5)])
    t2 = json.loads(o2.read_text())["tilings"]
    t5 = json.loads(o5.read_text())["tilings"]
    assert t5[:2] == t2


def test_hexagon_count_output(capsys):
    assert run(["hexagon-count", "--a", "2", "--b", "2", "--c", "2"]) == 0
    assert capsys.readouterr().out.strip() == "20"
    # N(6,6,6), cross-checked against the LGV binomial determinant
    assert run(["hexagon-count", "--a", "6", "--b", "6", "--c", "6"]) == 0
    assert capsys.readouterr().out.strip() == "1478619421136"


def test_hexagon_count_prints_counts_past_the_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(["hexagon-count", "--a", "128", "--b", "128", "--c", "128"]) == 0
    out = capsys.readouterr().out.strip()
    assert sys.get_int_max_str_digits() == limit
    count = hexagon.macmahon(128, 128, 128)
    assert len(out) == 5585 and out.isdigit()
    assert out[-30:] == str(count % 10**30).zfill(30)
    assert out[:30] == str(count // 10**5555)


def test_dimer_z_matches_enumeration(capsys):
    # 6-vertex cylinder at z = w = 1 has exactly 3 covers
    assert run(["dimer-z", "--M", "1", "--N", "1", "--z", "1", "--w", "1"]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - 3.0) < 1e-12


def test_csv_outputs_have_config_comment_and_header(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["growth-sim", "--M", "3", "--N", "3", "--q", "0.4",
                "--seed", "1", "--replicas", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    json.loads(lines[0].removeprefix("# config: "))
    assert lines[1] == "replica,G"
    assert len(lines) == 6


def test_growth_cdf_columns(tmp_path):
    out = tmp_path / "cdf.csv"
    assert run(["growth-cdf", "--M", "1", "--N", "1", "--q", "0.5",
                "--tmax", "3", "--mc-samples", "4000", "--seed", "3",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    for row in rows:
        t, exact, mc = row.split(",")
        closed = 1 - 0.5 ** (int(t) + 1)
        assert abs(float(exact) - closed) < 1e-12
        assert abs(float(mc) - closed) < 0.05


def test_growth_cdf_batches_give_the_one_batch_bytes(tmp_path, monkeypatch):
    # a bound of 100 table entries sweeps 5 samples of the 4 x 3 lattice (a
    # 5 x 4 bordered table each) per batch: 6 batches of 5 and a last one of
    # 4, against one batch of 34
    args = ["growth-cdf", "--M", "4", "--N", "3", "--q", "0.5", "--tmax", "20",
            "--mc-samples", "34", "--seed", "5", "--out"]
    assert run(args + [str(tmp_path / "one.csv")]) == 0
    sizes = []
    last_passage = cli._last_passage
    monkeypatch.setattr(cli, "_last_passage", lambda W: sizes.append(len(W)) or last_passage(W))
    monkeypatch.setattr(cli, "_TABLE_ENTRIES", 100)
    assert run(args + [str(tmp_path / "many.csv")]) == 0
    assert sizes == [5] * 6 + [4]
    one, many = ((tmp_path / f).read_bytes() for f in ("one.csv", "many.csv"))
    assert many == one
    assert len({line.split(b",")[2] for line in one.splitlines()[2:]}) > 3


def test_growth_cdf_holds_one_batch_of_tables_at_a_time(tmp_path, monkeypatch):
    # 2000 samples of a 16 x 16 lattice: their bordered tables take 4.6 MB
    # together, a batch of 10 of them 23 KB.  No batch's table may outlive
    # its sweep, as a view of it kept for the result would.  The traced run
    # is the second, so imports and caches filled on first use do not count.
    monkeypatch.setattr(cli, "_TABLE_ENTRIES", 17 * 17 * 10)
    args = ["growth-cdf", "--M", "16", "--N", "16", "--q", "0.5", "--tmax", "2",
            "--mc-samples", "2000", "--out", str(tmp_path / "cdf.csv")]
    assert run(args) == 0
    tracemalloc.start()
    try:
        assert run(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_variance_scan(tmp_path):
    out = tmp_path / "v.csv"
    assert run(["variance-scan", "--K", "200", "--t", "0.5", "--Lmin", "8",
                "--Lmax", "32", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "L,variance"
    Ls = [int(r.split(",")[0]) for r in rows[2:]]
    assert Ls == [8, 16, 32]


def test_ope_kernel_csv_is_dense(tmp_path):
    out = tmp_path / "k.csv"
    assert run(["ope-kernel", "--family", "krawtchouk", "--params", "K=6,p=0.5",
                "--N", "3", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2 + 7
    first = [float(v) for v in rows[2].split(",")]
    assert len(first) == 7


def test_schur_commands(tmp_path, capsys):
    assert run(["schur-prob", "--lam", "", "--a", "0.4,0.3", "--b", "0.4,0.3"]) == 0
    val = float(capsys.readouterr().out.strip())
    expected = 1.0
    for ai in (0.4, 0.3):
        for bk in (0.4, 0.3):
            expected *= 1 - ai * bk
    assert abs(val - expected) < 1e-12
    out = tmp_path / "shapes.csv"
    assert run(["schur-rsk", "--n", "2", "--a", "0.4,0.3", "--b", "0.4,0.3",
                "--seed", "5", "--replicas", "50", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert sum(int(r.split(",")[-1]) for r in rows) == 50


def test_hexagon_law_csv(tmp_path):
    out = tmp_path / "law.csv"
    assert run(["hexagon-law", "--a", "2", "--b", "2", "--c", "2", "--m", "2",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "holes,probability,exact"
    total = sum(float(r.split(",")[1]) for r in rows[2:])
    assert abs(total - 1.0) < 1e-12


def test_hexagon_sample_json(tmp_path):
    out = tmp_path / "s.json"
    assert run(["hexagon-sample", "--a", "2", "--b", "2", "--c", "2",
                "--seed", "3", "--replicas", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["hole_columns"]) == 2
    assert [len(h) for h in payload["hole_columns"][0]] == [0, 1, 2, 1, 0]


def test_dimer_free_energy_scan(tmp_path):
    out = tmp_path / "f.csv"
    assert run(["dimer-free-energy", "--M", "10", "--N", "10", "--z", "1.0",
                "--scan-w", "0.3:0.7:0.2", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert [r.split(",")[0] for r in rows] == ["0.3", "0.5", "0.7"]
    assert rows[1].split(",")[2] == "nan"  # critical point has no limit value


def test_scans_reject_steps_that_never_end(tmp_path, capsys):
    # a step <= 0 or a start L <= 0 would loop forever
    for scan in ("0.1:2.0:0", "0.1:2.0:-0.05", "2.0:0.1:-0.05"):
        assert run(["dimer-free-energy", "--M", "4", "--N", "4", "--z", "1.0",
                    "--scan-w", scan, "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid-input: scan-w step")
    for Lmin in ("0", "-4"):
        assert run(["variance-scan", "--K", "100", "--t", "0.5", "--Lmin", Lmin,
                    "--Lmax", "64", "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid-input: Lmin")


def test_variance_scan_past_the_support_is_invalid_input(tmp_path, capsys):
    # L = 128 > K would read sites -14..114 of 0..100
    assert run(["variance-scan", "--K", "100", "--t", "0.5", "--Lmin", "16",
                "--Lmax", "1024", "--out", str(tmp_path / "v.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid-input: site outside")


def test_failed_orthonormal_build_exits_2(capsys):
    # the Krawtchouk recurrence fails validation at K = 2000, p = 0.4, rank 1000
    assert run(["ope-sample", "--family", "krawtchouk", "--params", "K=2000,p=0.4",
                "--N", "1000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerical-failure: orthonormality residual")
    assert err.count("\n") == 1


def test_lis_check_json(capsys):
    assert run(["lis-check", "--alpha", "4", "--n", "6", "--draws", "3000",
                "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["fredholm"] - payload["montecarlo"]) < 0.03


def test_config_file_provides_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"a": 2, "b": 2, "c": 2}))
    assert run(["hexagon-count", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out.strip() == "20"
    # explicit flag overrides config
    assert run(["hexagon-count", "--config", str(cfgfile), "--c", "3"]) == 0
    assert capsys.readouterr().out.strip() == "50"


def test_explicit_flags_override_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"seed": 5, "replicas": 3}))
    out = tmp_path / "g.csv"
    # flags equal to the built-in defaults still win over the config file
    assert run(["growth-sim", "--M", "3", "--N", "3", "--q", "0.4", "--seed", "0",
                "--replicas", "1", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comment = json.loads(lines[0].removeprefix("# config: "))
    assert (comment["seed"], comment["replicas"]) == (0, 1)
    assert len(lines) == 3
    # without the flags, the config file supplies them
    assert run(["growth-sim", "--M", "3", "--N", "3", "--q", "0.4",
                "--config", str(cfgfile), "--out", str(out)]) == 0
    comment = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
    assert (comment["seed"], comment["replicas"]) == (5, 3)
    # --mode and --out come from the config file too
    cfgfile.write_text(json.dumps({"mode": "exact", "M": 1, "N": 1, "z": 1, "w": 1}))
    assert run(["dimer-z", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["dimer-z", "--config", str(cfgfile), "--mode", "float"]) == 0
    val = capsys.readouterr().out.strip()
    assert val != "3" and abs(float(val) - 3.0) < 1e-12
    cfgfile.write_text(json.dumps({"a": 2, "b": 2, "c": 2, "m": 2,
                                   "out": str(tmp_path / "law.csv")}))
    assert run(["hexagon-law", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "law.csv").exists()
    cfgfile.write_text(json.dumps({"mode": "rational", "M": 1, "N": 1, "z": 1, "w": 1}))
    assert run(["dimer-z", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.startswith("error: bad-mode: ")


def test_errors_are_machine_readable(capsys):
    assert run(["dimer-z", "--M", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert run(["hexagon-count", "--a", "0", "--b", "1", "--c", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_dimer_z_exact_mode(capsys):
    assert run(["dimer-z", "--M", "1", "--N", "1", "--z", "1", "--w", "1",
                "--mode", "exact"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_dimer_z_exact_mode_at_a_size_the_float_path_also_reaches(capsys):
    argv = ["dimer-z", "--M", "3", "--N", "20", "--z", "1", "--w", "1"]
    assert run(argv + ["--mode", "exact"]) == 0
    exact = int(capsys.readouterr().out)
    assert run(argv) == 0
    assert abs(float(capsys.readouterr().out) / exact - 1) < 1e-12


def test_hexagon_mcmc_replicas_are_independent_streams(tmp_path):
    # replica r is sample_hexagon on stream (seed, r), however many run
    spec = hexagon.HexagonSpec(3, 2, 2)
    for replicas in (2, 3):
        out = tmp_path / f"m{replicas}.json"
        assert run(["hexagon-sample", "--a", "3", "--b", "2", "--c", "2", "--seed", "4",
                    "--replicas", str(replicas), "--out", str(out)]) == 0
        got = json.loads(out.read_text())["hole_columns"]
        assert got == [
            hexagon.walks_to_hole_columns(hexagon.sample_hexagon(spec, replica_rng(4, r)))
            for r in range(replicas)
        ]


def test_hexagon_sample_bytes_are_pinned(capsys):
    # how walk families are stored must not change the bytes written
    assert run(["hexagon-sample", "--a", "4", "--b", "3", "--c", "3",
                "--seed", "5", "--replicas", "4"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "8fe716f672c6153c07fcc16789e74fe02b416918e93b550995f87c9685e59715"


def test_hexagon_sample_failed_check_exits_2(monkeypatch, capsys):
    # a draw that misses its certificate is a numerical failure, not a tiling
    step_rows = hexagon._step_rows

    def tampered(spec, m):
        rows = step_rows(spec, m).copy()
        rows[:, 1] *= 1.5
        return rows

    monkeypatch.setattr(hexagon, "_step_rows", tampered)
    assert run(["hexagon-sample", "--a", "3", "--b", "3", "--c", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numerical-failure: draw probability misses 1/N")
    assert captured.err.count("\n") == 1


def test_ope_sample_failed_certificate_exits_2(monkeypatch, tmp_path, capsys):
    # a draw whose hand-over misses its certificate writes no samples: here
    # the Christoffel-Darboux diagonal is off by 5e-7 at site 0
    cd_form = ope.ProjectionKernel._cd_form.func

    def tampered(kernel):
        G, d, a, logw = cd_form(kernel)
        d = d.copy()
        d[0] += 5e-7
        return G, d, a, logw

    monkeypatch.setattr(ope.ProjectionKernel, "_cd_form", property(tampered))
    out = tmp_path / "s.csv"
    assert run(["ope-sample", "--family", "krawtchouk", "--params", "K=200,p=0.5",
                "--N", "40", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numerical-failure: hand-over certificate")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_aztec_sample_stdout_is_pinned(capsys):
    # the tilings are written as the joined tiling_to_json strings, with the
    # bytes that json.dumps of the parsed tilings gave
    assert run(["aztec-sample", "--n", "4", "--q", "0.5", "--seed", "7",
                "--replicas", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "2f42de4f35b91ba3f75885b600aaaa8977ebdada8955af0d8cdd3e0d60d848c9"


def test_aztec_stats_csv_is_pinned(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["aztec-stats", "--n", "12", "--q", "0.4", "--r", "5", "--seed", "7",
                "--replicas", "4", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "89fbc1dda872ebb58cbba29f0b74e1ed0aeee6c49ac8899ceaf967a18e53ae18"


def test_schur_rsk_csv_is_pinned(tmp_path):
    out = tmp_path / "shapes.csv"
    assert run(["schur-rsk", "--n", "3", "--a", "0.4,0.3,0.2", "--b", "0.3,0.3,0.2",
                "--seed", "5", "--replicas", "200", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "f824284baadbced58bced4985aaa08bba40979c2eb21fe817929ca44bf297fac"


def test_config_values_match_flags(tmp_path, capsys):
    # the same values from flags and from --config give byte-identical output
    cfgfile = tmp_path / "c.json"
    flag_csv, cfg_csv = tmp_path / "flags.csv", tmp_path / "config.csv"
    assert run(["growth-sim", "--M", "3", "--N", "3", "--q", "0.4",
                "--out", str(flag_csv)]) == 0
    cfgfile.write_text(json.dumps({"M": 3, "N": 3, "q": 0.4}))
    assert run(["growth-sim", "--config", str(cfgfile), "--out", str(cfg_csv)]) == 0
    assert flag_csv.read_bytes() == cfg_csv.read_bytes()
    assert run(["dimer-z", "--M", "1", "--N", "1", "--z", "0.1", "--w", "1",
                "--mode", "exact"]) == 0
    from_flags = capsys.readouterr().out
    assert from_flags.strip() == "201/1000"
    cfgfile.write_text(json.dumps({"M": 1, "N": 1, "z": 0.1, "w": 1, "mode": "exact"}))
    assert run(["dimer-z", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out == from_flags


def test_replica_counts_below_one_are_invalid_input(tmp_path, capsys):
    for replicas in ("0", "-3"):
        out = tmp_path / "t.json"
        assert run(["aztec-sample", "--n", "2", "--q", "0.5", "--replicas", replicas,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid-input: replicas")
        assert not out.exists()


def test_lis_check_negative_draws_are_invalid_input(capsys):
    assert run(["lis-check", "--alpha", "4", "--n", "6", "--draws", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid-input: draws")


def test_growth_cdf_mc_samples_below_one_are_invalid_input(tmp_path, capsys):
    for mc in ("0", "-10"):
        out = tmp_path / "cdf.csv"
        assert run(["growth-cdf", "--M", "1", "--N", "1", "--q", "0.5", "--tmax", "3",
                    "--mc-samples", mc, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid-input: mc-samples")
        assert not out.exists()


def test_weight_parameters_the_family_does_not_take_are_invalid_input(tmp_path, capsys):
    out = tmp_path / "k.csv"
    for family, params in (("krawtchouk", "K=10,p=0.5,x=1"),
                           ("hahn", "N=10,alpha=1,beta=2,p=0.5")):
        assert run(["ope-kernel", "--family", family, "--params", params, "--N", "3",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid-input: the {family} weight takes no parameters")
        assert not out.exists()
    assert run(["ope-kernel", "--family", "krawtchouk", "--params", "K=10,p=0.5",
                "--N", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("params, message", [
    ("K=10,K=4,p=0.5", "params key 'K' is given twice"),
    ("K10,p=0.5", "params item 'K10' is not KEY=VALUE"),
    ("p=0.5", "the krawtchouk weight needs parameters ['K']"),
])
def test_malformed_weight_parameters_are_invalid_input(tmp_path, capsys, params, message):
    out = tmp_path / "k.csv"
    assert run(["ope-kernel", "--family", "krawtchouk", "--params", params, "--N", "2",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid-input: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ([1, 2], "config file must hold a JSON object, not [1, 2]"),
    ({"methd": "mcmc", "sede": 9}, "config key 'methd' is not a flag of hexagon-sample"),
    ({"method": "mcmc"}, "config key 'method' is not a flag of hexagon-sample"),
    ({"seed": 1.5}, "seed must be an integer, got '1.5'"),
    ({"replicas": "two"}, "replicas must be an integer, got 'two'"),
    ({"seed": None}, "config key 'seed' must be a string or a number, got null"),
    ({"c": [3]}, "config key 'c' must be a string or a number, got [3]"),
])
def test_config_file_is_checked(tmp_path, capsys, config, message):
    # a key no flag reads, or a value no flag could take, is not ignored
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "s.json"
    assert run(["hexagon-sample", "--a", "2", "--b", "2", "--c", "2",
                "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: invalid-input: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    (["hexagon-sample", "--a", "2", "--b", "2", "--c", "2", "--methd", "mcmc"],
     "error: invalid-input: unrecognized arguments: --methd mcmc"),
    (["hexagon-sample", "--a", "2", "--b", "2", "--c", "2", "--method", "mcmc"],
     "error: invalid-input: unrecognized arguments: --method mcmc"),
    (["growth-sim", "--M", "2", "--N", "2", "--q", "0.5", "--seed", "x"],
     "error: invalid-input: argument --seed: invalid int value: 'x'"),
    (["dimer-z", "--M", "1", "--N", "1", "--z", "1", "--w", "1", "--mode", "bogus"],
     "error: bad-mode: mode must be one of ('float', 'exact'), got 'bogus'"),
    # both dimer-z modes check their input alike
    *((["dimer-z", *shlex.split(args), "--mode", mode], f"error: invalid-input: {message}")
      for args, message in [("--M 0 --N 1 --z 1 --w 1", "M, N must be positive"),
                            ("--M -1 --N 1 --z 1 --w 1", "M, N must be positive"),
                            ("--M 1 --N 0 --z 1 --w 1", "M, N must be positive"),
                            ("--M 1 --N 1 --z -1 --w 1", "weights must be positive"),
                            ("--M 1 --N 1 --z 1 --w 0", "weights must be positive")]
      for mode in ("float", "exact")),
    # the README's dimer-free-energy size: Z itself is past the double range
    (["dimer-z", "--M", "200", "--N", "400", "--z", "1", "--w", "1"],
     "error: invalid-input: Z = exp(51681.75536020681) is outside the double range; "
     "log_partition_function gives log Z"),
])
def test_command_line_errors_are_one_line(capsys, argv, line):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["hexagon-count", "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tilings hexagon-count")


def test_empty_lattices_have_no_passage_time(tmp_path, capsys):
    # M N = 0 cells give G = 0, as lpp_cdf_exact has it; negative sizes stay errors
    out = tmp_path / "g.csv"
    for M, N in ((0, 3), (3, 0), (0, 0)):
        assert run(["growth-sim", "--M", str(M), "--N", str(N), "--q", "0.5",
                    "--replicas", "2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["replica,G", "0,0", "1,0"]
    assert run(["growth-cdf", "--M", "0", "--N", "2", "--q", "0.5", "--tmax", "2",
                "--mc-samples", "50", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2:] == ["0,1.0,1.0", "1,1.0,1.0", "2,1.0,1.0"]
    assert run(["growth-sim", "--M", "-1", "--N", "3", "--q", "0.5",
                "--out", str(tmp_path / "neg.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid-input: ")
    assert not (tmp_path / "neg.csv").exists()


def test_schur_rsk_of_order_zero_draws_the_empty_shape(tmp_path):
    out = tmp_path / "shapes.csv"
    assert run(["schur-rsk", "--n", "0", "--a", "", "--b", "", "--replicas", "3",
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["lambda,count", ",3"]


# the flags every command shares; each command takes only those it reads
GENERIC = {
    "aztec-sample": {"seed", "replicas", "out"},
    "aztec-stats": {"seed", "replicas", "out"},
    "ope-kernel": {"out"},
    "ope-sample": {"seed", "replicas", "out"},
    "variance-scan": {"out"},
    "growth-sim": {"seed", "replicas", "out"},
    "growth-cdf": {"seed", "out"},
    "lis-check": {"seed"},
    "schur-rsk": {"seed", "replicas", "out"},
    "schur-prob": set(),
    "hexagon-count": set(),
    "hexagon-law": {"out"},
    "hexagon-sample": {"seed", "replicas", "out"},
    "dimer-z": {"mode"},
    "dimer-corr": {"out"},
    "dimer-free-energy": {"out"},
}
GENERIC_VALUES = {"seed": "1", "replicas": "2", "out": "x.out", "mode": "exact"}
VALID = {
    "aztec-sample": "--n 2 --q 0.5",
    "aztec-stats": "--n 2 --q 0.5",
    "ope-kernel": "--family krawtchouk --params K=6,p=0.5 --N 3",
    "ope-sample": "--family krawtchouk --params K=6,p=0.5 --N 3",
    "variance-scan": "--K 20 --t 0.5 --Lmin 2 --Lmax 4",
    "growth-sim": "--M 2 --N 2 --q 0.5",
    "growth-cdf": "--M 2 --N 2 --q 0.5 --tmax 2 --mc-samples 10",
    "lis-check": "--alpha 1 --n 2",
    "schur-rsk": "--n 2 --a 0.4,0.3 --b 0.4,0.3",
    "schur-prob": "--lam 1 --a 0.4 --b 0.4",
    "hexagon-count": "--a 2 --b 2 --c 2",
    "hexagon-law": "--a 2 --b 2 --c 2 --m 1",
    "hexagon-sample": "--a 2 --b 2 --c 2",
    "dimer-z": "--M 1 --N 1 --z 1 --w 1",
    "dimer-corr": "--M 2 --N 4 --z 1 --w 0.7 --points 1",
    "dimer-free-energy": "--M 4 --N 4 --z 1 --scan-w 0.5:0.5:0.1",
}
UNREAD = [(command, flag) for command, flags in GENERIC.items()
          for flag in GENERIC_VALUES if flag not in flags]


def test_each_command_takes_the_generic_flags_it_reads():
    parser = _build_parser()
    for command, flags in GENERIC.items():
        argv = [command, *shlex.split(VALID[command])]
        for flag in flags:
            argv += [f"--{flag}", GENERIC_VALUES[flag]]
        cfg = _config_from_args(parser.parse_args(argv))
        applied = {f for f, v in GENERIC_VALUES.items() if str(getattr(cfg, f)) == v}
        assert applied == flags, command
    assert sum(map(len, GENERIC.values())) == 27 and len(UNREAD) == 37


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, flag", UNREAD)
def test_flags_a_command_does_not_read_are_invalid_input(tmp_path, monkeypatch, capsys,
                                                         command, flag, source):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [command, *shlex.split(VALID[command])]
    value = GENERIC_VALUES[flag]
    if source == "flag":
        argv += [f"--{flag}", value]
        line = f"error: invalid-input: unrecognized arguments: --{flag} {value}"
    else:
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({flag: value}))
        argv += ["--config", str(cfgfile)]
        line = f"error: invalid-input: config key {flag!r} is not a flag of {command}"
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert list(work.iterdir()) == []


def test_readme_command_lines_parse():
    # parse only: the README must not promise a flag the parser rejects
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```text\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(re.sub(r"\(add (--mode exact).*\)", r"\1", line))
             for line in block.splitlines() if line.strip()]
    assert {line[0] for line in lines} == set(GENERIC)
    parser = _build_parser()
    for line in lines:
        for argv in ([line[:-2], line] if line[-2:] == ["--mode", "exact"] else [line]):
            cfg = _config_from_args(parser.parse_args(argv))
            assert cfg.command == line[0]
