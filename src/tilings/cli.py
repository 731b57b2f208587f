"""Command-line harness.

One executable, one subcommand per experiment::

    tilings aztec-sample --n 2 --q 0.5 --seed 7 --replicas 3 --out t.json
    tilings hexagon-count --a 2 --b 2 --c 2
    tilings variance-scan --K 4000 --t 0.5 --Lmin 16 --Lmax 1024 --out var.csv

Every stochastic command takes --seed and --replicas; replica r draws from
an independent Philox stream keyed by (seed, r), so outputs are byte
identical across reruns.  CSV files carry one comment line recording the
resolved configuration and then a header row; JSON is used for structured
objects, with exact integers (tiling counts) rendered as decimal strings.
A JSON file passed via --config supplies defaults that explicit flags
override; its values are read as text, exactly like flags, and a key that
is no flag of the command is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import aztec, brickdimer, growth, hexagon, ope, schur, shuffling
from ._rng import replica_rng

__all__ = ["ExperimentConfig", "main", "run"]

_MODES = ("float", "exact")  # exact where supported
_TABLE_ENTRIES = 1 << 22  # int64 entries of the shape tables grown at once (32 MB)


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class ExperimentConfig:
    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    replicas: int = 1
    out: str | None = None
    mode: str = "float"

    def as_comment(self) -> str:
        payload = {
            "command": self.command,
            "mode": self.mode,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "replicas": self.replicas,
            "seed": self.seed,
        }
        return "# config: " + json.dumps(payload, sort_keys=True)


def _write_csv(cfg: ExperimentConfig, path: str, header: list[str],
               rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(cfg.as_comment() + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _map_replicas(cfg: ExperimentConfig, fn):
    """fn(replica_index, rng) -> row(s); ordered by replica index."""
    return [fn(r, replica_rng(cfg.seed, r)) for r in range(cfg.replicas)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_aztec_sample(cfg: ExperimentConfig) -> int:
    n, q = int(cfg.params["n"]), float(cfg.params["q"])
    measure = shuffling.AztecMeasure.from_q(n, q)
    results = _map_replicas(cfg, lambda r, rng: shuffling.sample_aztec(measure, rng))
    text = '{"tilings": [' + ", ".join(map(aztec.tiling_to_json, results)) + "]}"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_aztec_stats(cfg: ExperimentConfig) -> int:
    n, q = int(cfg.params["n"]), float(cfg.params["q"])
    r_level = int(cfg.params.get("r", max(n // 2, 1)))
    measure = shuffling.AztecMeasure.from_q(n, q)

    def one(r, rng):
        t = shuffling.sample_aztec(measure, rng)
        particles, _holes = aztec.zigzag_config(t, r_level)
        return [r, t.vertical_count(), len(particles), max(particles.positions)]

    rows = _map_replicas(cfg, one)
    _write_csv(cfg, cfg.out or "aztec_stats.csv",
               ["replica", "vertical_dominoes", "particles", "max_particle"], rows)
    return 0


# weight family -> its parameters: the window size (an integer), then floats
_FAMILIES = {"krawtchouk": ("K", "p"), "hahn": ("N", "alpha", "beta"),
             "associated-hahn": ("N", "alpha", "beta")}


def _parse_weight(cfg: ExperimentConfig) -> ope.DiscreteWeight:
    family = cfg.params["family"]
    if family not in _FAMILIES:
        raise CliError("bad-family", f"unknown weight family {family!r}")
    keys = _FAMILIES[family]
    p: dict[str, str] = {}
    for item in str(cfg.params["params"]).split(","):
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"params item {item!r} is not KEY=VALUE")
        if key in p:
            raise ValueError(f"params key {key!r} is given twice")
        p[key] = value
    if set(p) - set(keys):
        raise ValueError(f"the {family} weight takes no parameters "
                         f"{sorted(set(p) - set(keys))}; it takes {list(keys)}")
    if set(keys) - set(p):
        raise ValueError(f"the {family} weight needs parameters "
                         f"{[k for k in keys if k not in p]}; it takes {list(keys)}")
    size, *rest = (p[k] for k in keys)
    return getattr(ope.DiscreteWeight, family.replace("-", "_"))(int(size), *map(float, rest))


def _cmd_ope_kernel(cfg: ExperimentConfig) -> int:
    weight = _parse_weight(cfg)
    N = int(cfg.params["N"])
    kern = ope.cd_kernel(ope.build_orthonormal(weight, N))
    M = kern.matrix()
    rows = [[float(v) for v in row] for row in M]
    _write_csv(cfg, cfg.out or "kernel.csv",
               [f"c{j}" for j in range(M.shape[1])], rows)
    return 0


def _cmd_ope_sample(cfg: ExperimentConfig) -> int:
    weight = _parse_weight(cfg)
    N = int(cfg.params["N"])
    kern = ope.cd_kernel(ope.build_orthonormal(weight, N))
    rows = _map_replicas(
        cfg, lambda r, rng: [r, ";".join(map(str, ope.sample_dpp(kern, rng)))]
    )
    _write_csv(cfg, cfg.out or "ope_samples.csv", ["replica", "sites"], rows)
    return 0


def _cmd_variance_scan(cfg: ExperimentConfig) -> int:
    K = int(cfg.params["K"])
    t = float(cfg.params["t"])
    Lmin, Lmax = int(cfg.params["Lmin"]), int(cfg.params["Lmax"])
    if Lmin < 1:
        raise ValueError(f"Lmin must be positive, got {Lmin}")
    N = int(round(t * K))
    kern = ope.cd_kernel(ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(K, 0.5), N))
    rows = []
    L = Lmin
    while L <= Lmax:
        lo = (K - L) // 2
        rows.append([L, ope.number_variance(kern, np.arange(lo, lo + L + 1))])
        L *= 2
    _write_csv(cfg, cfg.out or "var.csv", ["L", "variance"], rows)
    return 0


def _cmd_growth_sim(cfg: ExperimentConfig) -> int:
    M, N, q = int(cfg.params["M"]), int(cfg.params["N"]), float(cfg.params["q"])

    def one(r, rng):
        W = growth.sample_geometric(q, (M, N), rng)
        return [r, int(growth.lpp_value(W)[-1, -1])]

    rows = _map_replicas(cfg, one)
    _write_csv(cfg, cfg.out or "g.csv", ["replica", "G"], rows)
    return 0


def _cmd_growth_cdf(cfg: ExperimentConfig) -> int:
    M, N, q = int(cfg.params["M"]), int(cfg.params["N"]), float(cfg.params["q"])
    tmax = int(cfg.params["tmax"])
    mc = int(cfg.params.get("mc-samples", 20000))
    if mc < 1:
        raise ValueError(f"mc-samples must be positive, got {mc}")
    rng = replica_rng(cfg.seed, 0)
    W = growth.sample_geometric(q, (mc, M, N), rng)
    g = growth.lpp_value(W)[:, -1, -1]
    rows = []
    for t in range(tmax + 1):
        rows.append([t, growth.lpp_cdf_exact(M, N, q, t), float((g <= t).mean())])
    _write_csv(cfg, cfg.out or "growth_cdf.csv", ["t", "exact", "montecarlo"], rows)
    return 0


def _cmd_lis_check(cfg: ExperimentConfig) -> int:
    alpha = float(cfg.params["alpha"])
    n = int(cfg.params["n"])
    draws = int(cfg.params.get("draws", 0))
    if draws < 0:
        raise ValueError(f"draws must be nonnegative, got {draws}")
    exact = growth.lis_cdf(alpha, n)
    line = {"alpha": alpha, "n": n, "fredholm": exact}
    if draws:
        rng = replica_rng(cfg.seed, 0)
        hits = sum(1 for _ in range(draws) if growth.lis_sample(alpha, rng) <= n)
        line["montecarlo"] = hits / draws
        line["draws"] = draws
    print(json.dumps(line, sort_keys=True))
    return 0


def _parse_vector(s: str) -> list[float]:
    return [float(v) for v in str(s).split(",") if v != ""]


def _cmd_schur_rsk(cfg: ExperimentConfig) -> int:
    n = int(cfg.params["n"])
    a = _parse_vector(cfg.params["a"])
    b = _parse_vector(cfg.params["b"])
    draws = _map_replicas(cfg, lambda r, rng: schur.sample_schur_matrix(n, a, b, rng))
    W = np.array(draws, dtype=np.int64).reshape(-1, n, n)
    # only the shapes are read, so batches of replicas share one growth
    batch = max(1, _TABLE_ENTRIES // ((n + 1) ** 2 * max(n, 1)))
    counts: Counter = Counter()
    for r in range(0, len(W), batch):
        counts.update(map(tuple, growth._shapes(W[r:r + batch], n)[:, n, n].tolist()))
    rows = [[",".join(map(str, lam)), counts[lam]] for lam in sorted(counts)]
    _write_csv(cfg, cfg.out or "shapes.csv", ["lambda", "count"], rows)
    return 0


def _cmd_schur_prob(cfg: ExperimentConfig) -> int:
    lam = tuple(int(v) for v in str(cfg.params["lam"]).split(",") if v != "")
    a = _parse_vector(cfg.params["a"])
    b = _parse_vector(cfg.params["b"])
    print(repr(schur.schur_measure_prob(lam, a, b)))
    return 0


def _cmd_hexagon_count(cfg: ExperimentConfig) -> int:
    a, b, c = (int(cfg.params[k]) for k in ("a", "b", "c"))
    count = hexagon.macmahon(a, b, c)
    limit = sys.get_int_max_str_digits()  # 4300 digits by default; N(128,128,128) has 5585
    sys.set_int_max_str_digits(0)
    try:
        print(str(count))
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _hex_spec(cfg: ExperimentConfig) -> hexagon.HexagonSpec:
    a, b, c = (int(cfg.params[k]) for k in ("a", "b", "c"))
    if a < b:
        a, b = b, a
    return hexagon.HexagonSpec(a, b, c)


def _cmd_hexagon_law(cfg: ExperimentConfig) -> int:
    spec = _hex_spec(cfg)
    m = int(cfg.params["m"])
    kind = cfg.params.get("kind", "holes")
    law = hexagon.column_law(spec, m, kind=kind)
    rows = [
        [";".join(map(str, key)), float(pr), f"{pr.numerator}/{pr.denominator}"]
        for key, pr in sorted(law.items())
    ]
    _write_csv(cfg, cfg.out or "law.csv", [kind, "probability", "exact"], rows)
    return 0


def _cmd_hexagon_sample(cfg: ExperimentConfig) -> int:
    spec = _hex_spec(cfg)
    fams = _map_replicas(cfg, lambda r, rng: hexagon.sample_hexagon(spec, rng))
    payload = [hexagon.walks_to_hole_columns(f) for f in fams]
    text = json.dumps({"hole_columns": payload}, sort_keys=True)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_dimer_z(cfg: ExperimentConfig) -> int:
    M, N = int(cfg.params["M"]), int(cfg.params["N"])
    if cfg.mode == "exact":
        from fractions import Fraction

        z = Fraction(cfg.params["z"])
        w = Fraction(cfg.params["w"])
        val = brickdimer.partition_function_exact(M, N, z, w)
        print(f"{val.numerator}/{val.denominator}" if val.denominator != 1
              else str(val.numerator))
        return 0
    spec = brickdimer.BrickLatticeSpec(
        M=M, N=N, z=float(cfg.params["z"]), w=float(cfg.params["w"]),
    )
    print(repr(brickdimer.partition_function(spec)))
    return 0


def _cmd_dimer_corr(cfg: ExperimentConfig) -> int:
    spec = brickdimer.BrickLatticeSpec(
        M=int(cfg.params["M"]), N=int(cfg.params["N"]),
        z=float(cfg.params["z"]), w=float(cfg.params["w"]),
    )
    pts = [int(v) for v in str(cfg.params["points"]).split(",")]
    rows = [[";".join(map(str, pts)), brickdimer.correlations(spec, pts)]]
    for p in pts:
        rows.append([str(p), brickdimer.correlations(spec, [p])])
    _write_csv(cfg, cfg.out or "r.csv", ["points", "correlation"], rows)
    return 0


def _cmd_dimer_free_energy(cfg: ExperimentConfig) -> int:
    M, N = int(cfg.params["M"]), int(cfg.params["N"])
    z = float(cfg.params["z"])
    lo, hi, step = (float(v) for v in str(cfg.params["scan-w"]).split(":"))
    if not step > 0:
        raise ValueError(f"scan-w step must be positive, got {step}")
    rows = []
    w = lo
    while w <= hi + 1e-12:
        spec = brickdimer.BrickLatticeSpec(M=M, N=N, z=z, w=w)
        f = brickdimer.free_energy(spec)
        try:
            flim = brickdimer.free_energy_limit(z, w)
        except ValueError:
            flim = float("nan")
        rows.append([round(w, 10), f, flim])
        w += step
    _write_csv(cfg, cfg.out or "f.csv", ["w", "free_energy", "limit"], rows)
    return 0


_COMMANDS = {
    "aztec-sample": (_cmd_aztec_sample, ["n", "q"]),
    "aztec-stats": (_cmd_aztec_stats, ["n", "q", "r"]),
    "ope-kernel": (_cmd_ope_kernel, ["family", "params", "N"]),
    "ope-sample": (_cmd_ope_sample, ["family", "params", "N"]),
    "variance-scan": (_cmd_variance_scan, ["K", "t", "Lmin", "Lmax"]),
    "growth-sim": (_cmd_growth_sim, ["M", "N", "q"]),
    "growth-cdf": (_cmd_growth_cdf, ["M", "N", "q", "tmax", "mc-samples"]),
    "lis-check": (_cmd_lis_check, ["alpha", "n", "draws"]),
    "schur-rsk": (_cmd_schur_rsk, ["n", "a", "b"]),
    "schur-prob": (_cmd_schur_prob, ["lam", "a", "b"]),
    "hexagon-count": (_cmd_hexagon_count, ["a", "b", "c"]),
    "hexagon-law": (_cmd_hexagon_law, ["a", "b", "c", "m", "kind"]),
    "hexagon-sample": (_cmd_hexagon_sample, ["a", "b", "c"]),
    "dimer-z": (_cmd_dimer_z, ["M", "N", "z", "w"]),
    "dimer-corr": (_cmd_dimer_corr, ["M", "N", "z", "w", "points"]),
    "dimer-free-energy": (_cmd_dimer_free_energy, ["M", "N", "z", "scan-w"]),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error: invalid-input:`` line, like
    every other error, in place of argparse's usage block; -h is unchanged."""

    def error(self, message):
        raise CliError("invalid-input", message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tilings", description="random tiling experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, params) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in params:
            p.add_argument(f"--{flag}", dest=flag, default=None)
        # None marks "not given on the command line", so --config fills it
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--replicas", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--mode", default=None)
        p.add_argument("--config", default=None)
    return parser


def _read_config(path: str, command: str, params: list[str]) -> dict:
    """The JSON object in ``path``: each key a flag of ``command`` (its own,
    or seed, replicas, out or mode), each value a string or a number."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file must hold a JSON object, not {json.dumps(config)}")
    for key, value in config.items():
        if key not in params and key not in ("seed", "replicas", "out", "mode"):
            raise ValueError(f"config key {key!r} is not a flag of {command}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r} must be a string or a number, "
                             f"got {json.dumps(value)}")
    return config


def _config_from_args(args: argparse.Namespace, params: list[str]) -> ExperimentConfig:
    overrides = _read_config(args.config, args.command, params) if args.config else {}

    # flags arrive as text, so config values are read as text too
    def pick(flag, default=None):
        v = getattr(args, flag)
        v = overrides.get(flag, default) if v is None else v
        return None if v is None else str(v)

    def integer(flag, default):
        v = pick(flag, default)
        try:
            return int(v)
        except ValueError:
            raise ValueError(f"{flag} must be an integer, got {v!r}") from None

    merged = {flag: v for flag in params if (v := pick(flag)) is not None}
    mode = pick("mode", "float")
    if mode not in _MODES:
        raise CliError("bad-mode", f"mode must be one of {_MODES}, got {mode!r}")
    replicas = integer("replicas", 1)
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    return ExperimentConfig(
        command=args.command,
        params=merged,
        seed=integer("seed", 0),
        replicas=replicas,
        out=pick("out"),
        mode=mode,
    )


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        fn, params = _COMMANDS[args.command]
        cfg = _config_from_args(args, params)
        missing = [p for p in params if p not in cfg.params
                   and p not in ("kind", "draws", "mc-samples", "r")]
        if missing:
            raise CliError("missing-flag", f"missing required flags: {missing}")
        return fn(cfg)
    except CliError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as e:
        print(f"error: invalid-input: {e}", file=sys.stderr)
        return 2
    except (ope.ConstructionError, ope.KernelConditionError) as e:
        print(f"error: numerical-failure: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
