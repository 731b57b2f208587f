"""Command-line harness.

One executable, one subcommand per experiment::

    tilings aztec-sample --n 2 --q 0.5 --seed 7 --replicas 3 --out t.json
    tilings hexagon-count --a 2 --b 2 --c 2
    tilings variance-scan --K 4000 --t 0.5 --Lmin 16 --Lmax 1024 --out var.csv

Each command takes only the flags it reads, declared once with their
defaults in ``_COMMANDS``; any other flag, or --config key, is an error.
The stochastic commands take --seed, and those that run replicas take
--replicas; replica r draws from an independent Philox stream keyed by
(seed, r), so outputs are byte identical across reruns.  CSV files carry
one comment line recording the resolved configuration and then a header
row; JSON is used for structured objects, with exact integers (tiling
counts) rendered as decimal strings.  A JSON file passed via --config
supplies defaults that explicit flags override; its values are read as
text, exactly like flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext
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

    def get(self, flag: str):
        """The flag's value as given, else its declared default."""
        return self.params.get(flag, _COMMANDS[self.command][1][flag])


def _write_csv(cfg: ExperimentConfig, header: list[str], rows: list[list]) -> None:
    with open(cfg.out, "w") as fh:
        fh.write(cfg.as_comment() + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_text(cfg: ExperimentConfig, text: str) -> None:
    """``text`` and a newline, to --out when given, else to stdout."""
    with open(cfg.out, "w") if cfg.out else nullcontext(sys.stdout) as fh:
        print(text, file=fh)


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
    _write_text(cfg, '{"tilings": [' + ", ".join(map(aztec.tiling_to_json, results)) + "]}")
    return 0


def _cmd_aztec_stats(cfg: ExperimentConfig) -> int:
    n, q = int(cfg.params["n"]), float(cfg.params["q"])
    level = cfg.get("r")  # declared without a default: half the order
    r_level = max(n // 2, 1) if level is None else int(level)
    measure = shuffling.AztecMeasure.from_q(n, q)

    def one(r, rng):
        t = shuffling.sample_aztec(measure, rng)
        particles, _holes = aztec.zigzag_config(t, r_level)
        return [r, t.vertical_count(), len(particles), max(particles.positions)]

    rows = _map_replicas(cfg, one)
    _write_csv(cfg, ["replica", "vertical_dominoes", "particles", "max_particle"], rows)
    return 0


# weight family -> its parameters: the window size (an integer), then floats
_FAMILIES = {"krawtchouk": ("K", "p"), "hahn": ("N", "alpha", "beta"),
             "associated-hahn": ("N", "alpha", "beta")}


def _kernel(cfg: ExperimentConfig) -> ope.ProjectionKernel:
    """The rank --N projection kernel of the --family weight with --params."""
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
    make = getattr(ope.DiscreteWeight, family.replace("-", "_"))
    weight = make(int(size), *map(float, rest))
    return ope.cd_kernel(ope.build_orthonormal(weight, int(cfg.params["N"])))


def _cmd_ope_kernel(cfg: ExperimentConfig) -> int:
    M = _kernel(cfg).matrix()
    rows = [[float(v) for v in row] for row in M]
    _write_csv(cfg, [f"c{j}" for j in range(M.shape[1])], rows)
    return 0


def _cmd_ope_sample(cfg: ExperimentConfig) -> int:
    kern = _kernel(cfg)
    rows = _map_replicas(
        cfg, lambda r, rng: [r, ";".join(map(str, ope.sample_dpp(kern, rng)))]
    )
    _write_csv(cfg, ["replica", "sites"], rows)
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
    _write_csv(cfg, ["L", "variance"], rows)
    return 0


def _last_passage(W: np.ndarray) -> np.ndarray:
    """G(M, N) of each M x N weight matrix: the far corner of the bordered
    table, so an empty lattice gives G = 0, as lpp_cdf_exact has it."""
    return growth._shapes(W, 1)[..., -1, -1, 0]


def _cmd_growth_sim(cfg: ExperimentConfig) -> int:
    M, N, q = int(cfg.params["M"]), int(cfg.params["N"]), float(cfg.params["q"])

    def one(r, rng):
        return [r, int(_last_passage(growth.sample_geometric(q, (M, N), rng)))]

    rows = _map_replicas(cfg, one)
    _write_csv(cfg, ["replica", "G"], rows)
    return 0


def _cmd_growth_cdf(cfg: ExperimentConfig) -> int:
    M, N, q = int(cfg.params["M"]), int(cfg.params["N"]), float(cfg.params["q"])
    tmax = int(cfg.params["tmax"])
    mc = int(cfg.get("mc-samples"))
    if mc < 1:
        raise ValueError(f"mc-samples must be positive, got {mc}")
    rng = replica_rng(cfg.seed, 0)
    # batches of samples bound the memory; consecutive draws from rng
    # concatenate, so the batches draw the same weights as one call would
    batch = max(1, _TABLE_ENTRIES // ((M + 1) * (N + 1)))
    g = np.empty(mc, dtype=np.int64)
    for r in range(0, mc, batch):
        W = growth.sample_geometric(q, (min(batch, mc - r), M, N), rng)
        g[r:r + len(W)] = _last_passage(W)
    rows = []
    for t in range(tmax + 1):
        rows.append([t, growth.lpp_cdf_exact(M, N, q, t), float((g <= t).mean())])
    _write_csv(cfg, ["t", "exact", "montecarlo"], rows)
    return 0


def _cmd_lis_check(cfg: ExperimentConfig) -> int:
    alpha = float(cfg.params["alpha"])
    n = int(cfg.params["n"])
    draws = int(cfg.get("draws"))
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
    W = np.array(draws, dtype=np.int64)
    # only the shapes are read, so batches of replicas share one growth
    batch = max(1, _TABLE_ENTRIES // ((n + 1) ** 2 * max(n, 1)))
    counts: Counter = Counter()
    for r in range(0, len(W), batch):
        counts.update(map(tuple, growth._shapes(W[r:r + batch], n)[:, n, n].tolist()))
    rows = [[",".join(map(str, lam)), counts[lam]] for lam in sorted(counts)]
    _write_csv(cfg, ["lambda", "count"], rows)
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
    kind = cfg.get("kind")
    law = hexagon.column_law(spec, m, kind=kind)
    rows = [
        [";".join(map(str, key)), float(pr), f"{pr.numerator}/{pr.denominator}"]
        for key, pr in sorted(law.items())
    ]
    _write_csv(cfg, [kind, "probability", "exact"], rows)
    return 0


def _cmd_hexagon_sample(cfg: ExperimentConfig) -> int:
    spec = _hex_spec(cfg)
    fams = _map_replicas(cfg, lambda r, rng: hexagon.sample_hexagon(spec, rng))
    payload = [hexagon.walks_to_hole_columns(f) for f in fams]
    _write_text(cfg, json.dumps({"hole_columns": payload}, sort_keys=True))
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
    _write_csv(cfg, ["points", "correlation"], rows)
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
    _write_csv(cfg, ["w", "free_energy", "limit"], rows)
    return 0


# each command's flags: its default (out None: stdout), or ... if it must be given
_COMMANDS = {
    "aztec-sample": (_cmd_aztec_sample, {"n": ..., "q": ..., "seed": 0, "replicas": 1,
                                         "out": None}),
    "aztec-stats": (_cmd_aztec_stats, {"n": ..., "q": ..., "r": None, "seed": 0,
                                       "replicas": 1, "out": "aztec_stats.csv"}),
    "ope-kernel": (_cmd_ope_kernel, {"family": ..., "params": ..., "N": ...,
                                     "out": "kernel.csv"}),
    "ope-sample": (_cmd_ope_sample, {"family": ..., "params": ..., "N": ..., "seed": 0,
                                     "replicas": 1, "out": "ope_samples.csv"}),
    "variance-scan": (_cmd_variance_scan, {"K": ..., "t": ..., "Lmin": ..., "Lmax": ...,
                                           "out": "var.csv"}),
    "growth-sim": (_cmd_growth_sim, {"M": ..., "N": ..., "q": ..., "seed": 0,
                                     "replicas": 1, "out": "g.csv"}),
    "growth-cdf": (_cmd_growth_cdf, {"M": ..., "N": ..., "q": ..., "tmax": ..., "seed": 0,
                                     "mc-samples": 20000, "out": "growth_cdf.csv"}),
    "lis-check": (_cmd_lis_check, {"alpha": ..., "n": ..., "draws": 0, "seed": 0}),
    "schur-rsk": (_cmd_schur_rsk, {"n": ..., "a": ..., "b": ..., "seed": 0,
                                   "replicas": 1, "out": "shapes.csv"}),
    "schur-prob": (_cmd_schur_prob, {"lam": ..., "a": ..., "b": ...}),
    "hexagon-count": (_cmd_hexagon_count, {"a": ..., "b": ..., "c": ...}),
    "hexagon-law": (_cmd_hexagon_law, {"a": ..., "b": ..., "c": ..., "m": ...,
                                       "kind": "holes", "out": "law.csv"}),
    "hexagon-sample": (_cmd_hexagon_sample, {"a": ..., "b": ..., "c": ..., "seed": 0,
                                             "replicas": 1, "out": None}),
    "dimer-z": (_cmd_dimer_z, {"M": ..., "N": ..., "z": ..., "w": ..., "mode": "float"}),
    "dimer-corr": (_cmd_dimer_corr, {"M": ..., "N": ..., "z": ..., "w": ...,
                                     "points": ..., "out": "r.csv"}),
    "dimer-free-energy": (_cmd_dimer_free_energy, {"M": ..., "N": ..., "z": ...,
                                                   "scan-w": ..., "out": "f.csv"}),
}
_SETTINGS = ("seed", "replicas", "out", "mode")  # ExperimentConfig fields, not params


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error: invalid-input:`` line, like
    every other error, in place of argparse's usage block; -h is unchanged."""

    def error(self, message):
        raise CliError("invalid-input", message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tilings", description="random tiling experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        # None marks "not given on the command line", so --config fills it
        for flag in flags:
            p.add_argument(f"--{flag}", dest=flag, default=None,
                           type=int if flag in ("seed", "replicas") else str)
        p.add_argument("--config", default=None)
    return parser


def _read_config(path: str, command: str, flags: dict) -> dict:
    """The JSON object in ``path``: each key a flag of ``command``, each value
    a string or a number."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file must hold a JSON object, not {json.dumps(config)}")
    for key, value in config.items():
        if key not in flags:
            raise ValueError(f"config key {key!r} is not a flag of {command}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r} must be a string or a number, "
                             f"got {json.dumps(value)}")
    return config


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    flags = _COMMANDS[args.command][1]
    overrides = _read_config(args.config, args.command, flags) if args.config else {}
    # flags arrive as text, so config values are read as text too; flags win
    given = {flag: str(v) for flag, v in overrides.items()}
    given.update((flag, str(v)) for flag in flags
                 if (v := getattr(args, flag)) is not None)
    settings = {f: given.get(f, flags[f]) for f in _SETTINGS if f in flags}
    if (mode := settings.get("mode", "float")) not in _MODES:
        raise CliError("bad-mode", f"mode must be one of {_MODES}, got {mode!r}")
    for flag in [f for f in ("replicas", "seed") if f in settings]:
        try:
            settings[flag] = int(settings[flag])
        except ValueError:
            raise ValueError(f"{flag} must be an integer, got {settings[flag]!r}") from None
    if settings.get("replicas", 1) < 1:
        raise ValueError(f"replicas must be positive, got {settings['replicas']}")
    missing = [f for f, default in flags.items() if default is ... and f not in given]
    if missing:
        raise CliError("missing-flag", f"missing required flags: {missing}")
    params = {flag: v for flag, v in given.items() if flag not in _SETTINGS}
    return ExperimentConfig(command=args.command, params=params, **settings)


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_config_from_args(args))
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
