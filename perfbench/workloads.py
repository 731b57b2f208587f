"""The four benchmark workloads and their correctness checks.

Each workload builds its inputs in ``__init__`` (set-up) from the benchmark
seed, and ``item(r, tr)`` runs one replica experiment drawing from
``replica_rng(seed, r)``.  An item raises when an output is wrong: either
the library raises, or one of the exact checks here raises
:class:`CheckFailed`.  ``final_checks`` runs the end-of-run statistical
checks; each has a false-alarm rate of at most ``FALSE_ALARM``.

Span names carry the problem size of the full workload (``.n48``,
``.k2000``, ...).  The ``tiny`` sizes, used by the benchmark's own tests,
shrink every problem but keep the names, so both sizes report the same
metric set.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from tilings import aztec, growth, hexagon, ope, replica_rng, schur, shuffling

FALSE_ALARM = 1e-6
SETUP_REPLICA = 2**63  # stream for set-up inputs; items use replicas 0, 1, ...


class CheckFailed(Exception):
    """An output of the library failed one of the benchmark's exact checks."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_dpp_sample(sites: np.ndarray, rank: int, K: int) -> None:
    """A projection-DPP sample: `rank` strictly increasing sites in 0..K."""
    s = np.asarray(sites)
    check(s.shape == (rank,), f"sample has {s.size} sites, rank is {rank}")
    check(bool(np.all(np.diff(s) > 0)), "sample sites are not strictly increasing")
    check(rank == 0 or (s[0] >= 0 and s[-1] <= K), f"sample leaves the window 0..{K}")


def histogram_check(counts: Counter, law: dict) -> str | None:
    """Compare observed counts with an exact law; None when they agree.

    Each outcome's count is tested by an exact two-sided binomial test at
    level FALSE_ALARM / len(law).  Exact binomial p-values are valid, so by
    the union bound the whole check raises a false alarm with probability at
    most FALSE_ALARM.  An outcome outside the law's support always fails.
    """
    from scipy.stats import binomtest  # imported here to keep it out of set-up time

    n = sum(counts.values())
    if n == 0:
        return "no samples"
    stray = [k for k in counts if k not in law]
    if stray:
        return f"outcomes outside the support: {stray[:3]}"
    level = FALSE_ALARM / len(law)
    for k, p in law.items():
        pv = binomtest(counts.get(k, 0), n, float(p)).pvalue
        if pv < level:
            return f"outcome {k}: {counts.get(k, 0)} of {n}, expected {float(p) * n:.1f} (p={pv:.2e})"
    return None


def krawtchouk_law(K: int, p: Fraction, N: int) -> dict:
    """Exact law of the N-point Krawtchouk ensemble on 0..K:
    P(h) proportional to prod_{i<j} (h_i - h_j)^2 prod_i C(K, h_i) p^h_i q^(K - h_i)."""
    q = 1 - p
    mass = {}
    for h in itertools.combinations(range(K + 1), N):
        m = Fraction(1)
        for i, j in itertools.combinations(range(N), 2):
            m *= (h[i] - h[j]) ** 2
        for x in h:
            m *= math.comb(K, x) * p**x * q ** (K - x)
        mass[h] = m
    total = sum(mass.values())
    return {h: m / total for h, m in mass.items()}


class Aztec:
    """One exact A_48 sample and its analysis, plus 64 exact A_4 samples."""

    name = "aztec"
    PROBE = "python"  # kind of speed probe, see speedprobe.py
    FULL = dict(n=48, level=24, small=4, batch=64)
    TINY = dict(n=8, level=4, small=2, batch=4)
    Q = 0.5

    def __init__(self, seed: int, tiny: bool, tr):
        size = self.TINY if tiny else self.FULL
        self.seed = seed
        self.n, self.level, self.batch = size["n"], size["level"], size["batch"]
        self.big = shuffling.AztecMeasure.from_q(self.n, self.Q)
        self.small = shuffling.AztecMeasure.from_q(size["small"], self.Q)
        self.pair_law = dict(enumerate(shuffling.vertical_count_law(size["small"], Fraction(1, 2))))
        self.pairs: Counter = Counter()

    def item(self, r: int, tr) -> None:
        rng = replica_rng(self.seed, r)
        with tr.span("shuffling.sample_aztec.n48"):
            t = shuffling.sample_aztec(self.big, rng)
        t.validate()
        with tr.span("aztec.zigzag_config"):
            particles, holes = aztec.zigzag_config(t, self.level)
        check(sorted(particles.positions + holes.positions) == list(range(self.n + 1)),
              "zig-zag particles and holes do not partition the level")
        with tr.span("aztec.height_function"):
            aztec.height_function(t)
        with tr.span("aztec.polar_regions"):
            labels = aztec.polar_regions(t)
        check(len(labels) == len(t.dominoes), "polar regions miss a domino")
        with tr.span("growth.aztec_partition"):
            lam = growth.aztec_partition(t)
        check(len(lam) == self.n + 1, f"partition has {len(lam)} parts")
        with tr.span("aztec.json_roundtrip"):
            back = aztec.tiling_from_json(aztec.tiling_to_json(t))
        check(back == t, "JSON round trip changed the tiling")
        pairs = []
        for _ in range(self.batch):
            with tr.span("shuffling.sample_aztec.n4"):
                v = shuffling.sample_aztec(self.small, rng).vertical_count()
            check(v % 2 == 0, f"odd number {v} of vertical dominoes")
            pairs.append(v // 2)
        self.pairs.update(pairs)

    def final_checks(self) -> dict:
        return {"aztec.vertical_pairs": histogram_check(self.pairs, self.pair_law)}

    def derived(self, summary: dict, counts: dict) -> dict:
        return {}


class Dpp:
    """Draws from two prebuilt Krawtchouk kernels: one K=2000, rank-500
    draw and 100 draws from the K=5, p=0.4, rank-3 kernel."""

    name = "dpp"
    PROBE = "blas"  # kind of speed probe, see speedprobe.py
    FULL = dict(K=2000, draws=100)
    TINY = dict(K=100, draws=10)
    P, FILL = 0.5, 0.25
    TINY_K, TINY_P, TINY_N = 5, Fraction(2, 5), 3
    # At K=2000 the mean of max/K over 200 draws sat 0.0048 below
    # edge_position(1/4, 1/2), with a per-draw sd of 0.0025.  The check
    # |mean - edge| < 0.01 then leaves a margin of 0.0052, which is over
    # 9 standard errors of the mean once 20 draws are in: far below the
    # 1e-6 false-alarm rate.  Other K have another bias, so the check runs
    # at K=2000 only.
    EDGE_K, EDGE_TOL, EDGE_MIN_DRAWS = 2000, 0.01, 20

    def __init__(self, seed: int, tiny: bool, tr):
        size = self.TINY if tiny else self.FULL
        self.seed = seed
        self.K, self.draws = size["K"], size["draws"]
        self.N = int(self.FILL * self.K)
        with tr.span("ope.build_orthonormal.k2000"):
            system = ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(self.K, self.P), self.N)
        self.kernel = ope.cd_kernel(system)
        self.tiny = ope.cd_kernel(ope.build_orthonormal(
            ope.DiscreteWeight.krawtchouk(self.TINY_K, float(self.TINY_P)), self.TINY_N))
        self.tiny_law = krawtchouk_law(self.TINY_K, self.TINY_P, self.TINY_N)
        self.maxima: list[float] = []
        self.configs: Counter = Counter()

    def item(self, r: int, tr) -> None:
        rng = replica_rng(self.seed, r)
        with tr.span("ope.sample_dpp.k2000"):
            sites = ope.sample_dpp(self.kernel, rng)
        check_dpp_sample(sites, self.N, self.K)
        configs = []
        for _ in range(self.draws):
            with tr.span("ope.sample_dpp.tiny"):
                s = ope.sample_dpp(self.tiny, rng)
            check_dpp_sample(s, self.TINY_N, self.TINY_K)
            configs.append(tuple(int(x) for x in s))
        self.maxima.append(sites[-1] / self.K)
        self.configs.update(configs)

    def final_checks(self) -> dict:
        out = {"ope.sample_dpp.tiny_law": histogram_check(self.configs, self.tiny_law)}
        if self.K == self.EDGE_K and len(self.maxima) >= self.EDGE_MIN_DRAWS:
            dev = abs(float(np.mean(self.maxima)) - ope.edge_position(self.FILL, self.P))
            out["ope.sample_dpp.edge"] = (
                None if dev < self.EDGE_TOL else f"|mean max/K - edge| = {dev:.4f}")
        return out

    def derived(self, summary: dict, counts: dict) -> dict:
        """Computed (not measured) work of one K=2000 draw: each of the N
        conditioning steps reads phi (N x (K+1)) and the rows chosen so far,
        3 N^2 (K+1) flops on 12 N^2 (K+1) bytes of doubles in total."""
        N, K = self.N, self.K
        gflop = 3 * N * N * (K + 1) / 1e9
        out = {"ope.sample_dpp.k2000.gflop": (gflop, "GFLOP"),
               "ope.sample_dpp.k2000.gbyte": (12 * N * N * (K + 1) / 1e9, "GB")}
        row = summary.get("ope.sample_dpp.k2000")
        if row:
            out["ope.sample_dpp.k2000.gflop_per_s"] = (gflop / (row["p50_ms"] / 1e3), "GFLOP/s")
        return out


class Growth:
    """Exact P[G(256,256) <= t_r] at q=1/2, one 256x256 LPP table and the
    RSK cascade round trip on its 16x16 corner."""

    name = "growth"
    PROBE = "python"  # kind of speed probe, see speedprobe.py
    FULL = dict(n=256, t_lo=1150, t_hi=1350, corner=16)
    TINY = dict(n=16, t_lo=60, t_hi=100, corner=4)
    Q = 0.5
    # Consecutive items step STRIDE grid points (coprime to the grid size),
    # so no threshold and no Krawtchouk system repeats within len(grid) items.
    STRIDE = 10
    PROBE_REPEATS = 3
    CDF_ROUNDING = 1e-12  # slack for rounding when comparing CDF values

    def __init__(self, seed: int, tiny: bool, tr):
        size = self.TINY if tiny else self.FULL
        self.seed = seed
        self.n, self.corner = size["n"], size["corner"]
        self.grid = list(range(size["t_lo"], size["t_hi"] + 1))
        self.start = int(replica_rng(seed, SETUP_REPLICA).integers(len(self.grid)))
        self.cdf: dict[int, float] = {}
        self.maxima: list[int] = []
        if tr.enabled:
            # Split one build at the grid's middle K into the recurrence
            # (validate=False) and the validation and polish it skips.
            t_mid = self.grid[len(self.grid) // 2]
            # An untimed build first keeps first-call costs out of the probes.
            weight = ope.DiscreteWeight.krawtchouk(t_mid + 2 * self.n - 1, self.Q)
            ope.build_orthonormal(weight, self.n)
            for _ in range(self.PROBE_REPEATS):
                with tr.span("ope.build_orthonormal.recurrence"):
                    ope.build_orthonormal(weight, self.n, validate=False)
                with tr.span("ope.build_orthonormal.validated"):
                    ope.build_orthonormal(weight, self.n, validate=True)

    def threshold(self, r: int) -> int:
        return self.grid[(self.start + self.STRIDE * r) % len(self.grid)]

    def item(self, r: int, tr) -> None:
        rng = replica_rng(self.seed, r)
        t = self.threshold(r)
        with tr.span("growth.lpp_cdf_exact"):
            F = growth.lpp_cdf_exact(self.n, self.n, self.Q, t)
        check(0.0 <= F <= 1.0, f"P[G <= {t}] = {F} outside [0, 1]")
        check(self.cdf.get(t, F) == F, f"P[G <= {t}] is not reproducible")
        below = max((v for s, v in self.cdf.items() if s < t), default=0.0)
        above = min((v for s, v in self.cdf.items() if s > t), default=1.0)
        check(below - self.CDF_ROUNDING <= F <= above + self.CDF_ROUNDING,
              f"P[G <= t] decreases along the grid at t={t}")
        with tr.span("growth.sample_geometric"):
            W = growth.sample_geometric(self.Q, (self.n, self.n), rng)
        with tr.span("growth.lpp_value.n256"):
            G = growth.lpp_value(W)
        c = self.corner
        Wc = W[:c, :c]
        with tr.span("schur.cascade_grow.n16"):
            res = schur.cascade_grow(Wc, check=False)
        trace = res.level1_trace
        check(all(trace[(i - j, i + j - 1)] == G[i - 1, j - 1]
                  for i in range(1, c + 1) for j in range(1, c + 1)),
              "level-1 cascade height differs from the LPP table")
        with tr.span("schur.cascade_invert.n16"):
            back = schur.cascade_invert(res, check=False)
        check(np.array_equal(back, Wc), "cascade_invert(cascade_grow(W)) != W")
        self.cdf[t] = F
        self.maxima.append(int(G[-1, -1]))

    def final_checks(self) -> dict:
        # every item's G(n,n) is one Bernoulli(P[G <= t]) trial per threshold t
        from scipy.stats import binomtest
        g = np.array(self.maxima)
        n = g.size
        level = FALSE_ALARM / max(len(self.cdf), 1)
        for t, F in sorted(self.cdf.items()):
            k = int((g <= t).sum())
            pv = binomtest(k, n, F).pvalue
            if pv < level:
                return {"growth.lpp_cdf": f"t={t}: {k} of {n} below, expected {F * n:.1f} (p={pv:.2e})"}
        return {"growth.lpp_cdf": None if n else "no samples"}

    def derived(self, summary: dict, counts: dict) -> dict:
        rec, full = summary.get("ope.build_orthonormal.recurrence"), summary.get("ope.build_orthonormal.validated")
        if not (rec and full):
            return {}
        return {"ope.build_orthonormal.validate.p50_ms": (full["p50_ms"] - rec["p50_ms"], "ms")}


class Hexagon:
    """100 Glauber sweeps of an a=b=c=128 lozenge chain from its burned-in
    state and a read of its column 84, plus one exact uniform (4,4,4) tiling."""

    name = "hexagon"
    PROBE = "python"  # kind of speed probe, see speedprobe.py
    FULL = dict(side=128, sweeps=100, column=84, burn_in=500)
    TINY = dict(side=8, sweeps=5, column=5, burn_in=10)
    # The set-up burn-in only moves the chain off its frozen start so that
    # sweeps flip lozenges; the chain is not mixed, and no statistical check
    # uses it.  The exact (4,4,4) samples carry the statistical check.  Every
    # item starts from the burned-in state: a chain carried on from item to
    # item keeps mixing, and its sweeps grew about 20% dearer over a run.
    EXACT, EXACT_COLUMN = hexagon.HexagonSpec(4, 4, 4), 4

    def __init__(self, seed: int, tiny: bool, tr):
        size = self.TINY if tiny else self.FULL
        self.seed = seed
        self.sweeps, self.column = size["sweeps"], size["column"]
        self.spec = hexagon.HexagonSpec(size["side"], size["side"], size["side"])
        self.chain = hexagon.LozengeChain(self.spec, replica_rng(seed, SETUP_REPLICA))
        self.chain.sweep(size["burn_in"])
        self.burned_in = self.chain.S.copy()
        self.holes_at_column = hexagon.column_bounds(self.spec, self.column)[3]
        law: dict[int, Fraction] = {}
        for holes, p in hexagon.column_law(self.EXACT, self.EXACT_COLUMN, "holes").items():
            law[holes[-1]] = law.get(holes[-1], 0) + p
        self.top_hole_law = law
        self.top_holes: Counter = Counter()

    def item(self, r: int, tr) -> None:
        rng = replica_rng(self.seed, r)
        chain = self.chain
        chain.S = self.burned_in.copy()
        chain.rng = rng
        if tr.enabled:
            # The last sweep runs alone so that the lozenges it flips can be
            # counted; the random stream is the same as for one call.
            with tr.span("hexagon.LozengeChain.sweep.x100"):
                chain.sweep(self.sweeps - 1)
                before = chain.S.copy()
                chain.sweep(1)
            spec = self.spec
            tr.count("hexagon.flips", np.count_nonzero(chain.S != before))
            tr.count("hexagon.proposals", spec.c * (spec.a + spec.b - 1))
        else:
            chain.sweep(self.sweeps)
        with tr.span("hexagon.LozengeChain.family"):
            fam = chain.family()
        fam.validate()
        check(len(fam.holes(self.column)) == self.holes_at_column,
              f"column {self.column} has the wrong number of holes")
        with tr.span("hexagon.sample_hexagon.exact444"):
            exact = hexagon.sample_hexagon(self.EXACT, rng)
        exact.validate()
        self.top_holes[exact.holes(self.EXACT_COLUMN)[-1]] += 1

    def final_checks(self) -> dict:
        return {"hexagon.top_hole": histogram_check(self.top_holes, self.top_hole_law)}

    def derived(self, summary: dict, counts: dict) -> dict:
        row = summary.get("hexagon.LozengeChain.sweep.x100")
        if not (row and counts.get("hexagon.proposals")):
            return {}
        return {"hexagon.LozengeChain.sweep.p50_ms": (row["p50_ms"] / self.sweeps, "ms"),
                "hexagon.flip_acceptance":
                (counts["hexagon.flips"] / counts["hexagon.proposals"], "1")}


WORKLOADS = {w.name: w for w in (Aztec, Dpp, Growth, Hexagon)}
