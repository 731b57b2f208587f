"""Acceptance suite.

One test per criterion, each at the stated size and tolerance, printing a
single PASS line with the measured quantities (run with -s to see them
live).  Everything stochastic is seeded; oracles are exact enumeration,
closed forms, or independent Monte Carlo.
"""

import itertools
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from tilings import ope
from tilings._rng import replica_rng
from tilings.aztec import zigzag_config
from tilings.brickdimer import (
    BrickLatticeSpec,
    correlations as dimer_correlations,
    cover_to_paths,
    enumerate_dimers,
    free_energy,
    free_energy_limit,
    kernel as dimer_kernel,
    partition_function,
)
from tilings.growth import _shapes, lis_cdf, lis_sample, lpp_cdf_exact, lpp_value, sample_geometric
from tilings.hexagon import (
    HexagonSpec,
    LozengeChain,
    arctic_boundary,
    column_bounds,
    column_law,
    ensemble_law_exact,
    enumerate_walks,
    lgv_count,
    macmahon,
    plane_partition_height,
    sample_hexagon,
)
from tilings.hexagon import _column_weight
from tilings.schur import cascade_grow, cascade_invert, schur_measure_prob, sample_schur_matrix
from tilings.shuffling import AztecMeasure, enumerate_tilings, sample_aztec, vertical_count_law


def _report(num: int, text: str) -> None:
    print(f"[PASS] acceptance {num}: {text}", file=sys.stderr)


def kraw_mass_sorted(h, N, K, p):
    p = Fraction(p)
    q = 1 - p
    Z = Fraction(math.factorial(N))
    for j in range(N):
        Z *= Fraction(math.factorial(j), math.factorial(K - j))
    Z *= Fraction(math.factorial(K)) ** N * (p * q) ** (N * (N - 1) // 2)
    d = 1
    for i in range(N):
        for j in range(i + 1, N):
            d *= h[i] - h[j]
    mass = Fraction(math.factorial(N)) * d * d
    for hj in h:
        mass *= Fraction(math.comb(K, hj)) * p**hj * q ** (K - hj)
    return mass / Z


def test_01_exact_tiling_counts():
    t0 = time.time()
    sizes = []
    for n in range(1, 6):
        sizes.append(len(enumerate_tilings(n)))
    assert sizes == [2, 8, 64, 1024, 32768]
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, f"counts {sizes} in {elapsed:.1f}s")


def test_02_zigzag_law_is_krawtchouk_exactly():
    t0 = time.time()
    for n in range(1, 5):
        for w in (Fraction(1), Fraction(2)):
            q = w * w / (1 + w * w)
            tilings = enumerate_tilings(n, w)
            total = sum(wt for _, wt in tilings)
            for r in range(1, n + 1):
                law: dict = {}
                for t, wt in tilings:
                    particles, _ = zigzag_config(t, r)
                    key = particles.positions
                    law[key] = law.get(key, Fraction(0)) + wt / total
                tv = Fraction(0)
                for h in itertools.combinations(range(n + 1), r):
                    tv += abs(law.get(h, Fraction(0)) - kraw_mass_sorted(h, r, n, q))
                assert tv == 0, (n, w, r)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(2, f"TV distance exactly 0 for n<=4, all r, w in {{1,2}} ({elapsed:.0f}s)")


def test_03_shuffling_law():
    rng = replica_rng(2024, 0)
    R = 100000
    counts: Counter = Counter()
    m = AztecMeasure.from_q(2, 0.5)
    counts.update(t.key() for t in sample_aztec(m, rng, size=R))
    assert len(counts) == 8
    chi = sum((o - R / 8) ** 2 / (R / 8) for o in counts.values())
    p_value = float(chi2_dist.sf(chi, 7))
    assert p_value > 1e-3

    m3 = AztecMeasure.from_q(3, 0.3)
    law = vertical_count_law(3, 0.3)
    obs = np.zeros(len(law))
    for t in sample_aztec(m3, rng, size=R):
        obs[t.vertical_count() // 2] += 1
    worst = 0.0
    for k, pr in enumerate(law):
        sd = math.sqrt(R * pr * (1 - pr))
        dev = abs(obs[k] - R * pr) / max(sd, 1.0)
        worst = max(worst, dev)
        assert dev <= 4.0, (k, dev)
    _report(3, f"n=2 uniform chi2 p={p_value:.3f}; n=3 q=0.3 worst bin {worst:.2f} sigma")


def test_04_kernel_algebra():
    s = ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(2000, 0.5), 1000)
    K = ope.cd_kernel(s)
    M = K.matrix()
    resid_k = float(np.abs(M @ M - M).max())
    trace_k = abs(K.trace() - 1000)
    assert resid_k < 1e-10 and trace_k < 1e-10

    sh = ope.build_orthonormal(ope.DiscreteWeight.hahn(500, 1, 1), 250)
    Kh = ope.cd_kernel(sh)
    Mh = Kh.matrix()
    resid_h = float(np.abs(Mh @ Mh - Mh).max())
    trace_h = abs(Kh.trace() - 250)
    assert resid_h < 1e-10 and trace_h < 1e-10
    _report(4, f"reproducing residuals {resid_k:.2e} (Krawtchouk K=2000) "
               f"{resid_h:.2e} (Hahn N=500); trace errors {trace_k:.1e}, {trace_h:.1e}")


def test_05_number_variance_scaling():
    t0 = time.time()
    K_win = 4000
    N = 2000
    s = ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(K_win, 0.5), N)
    kern = ope.cd_kernel(s)
    Ls = [16, 32, 64, 128, 256, 512, 1024]
    variances = []
    for L in Ls:
        lo = (K_win - L) // 2
        variances.append(ope.number_variance(kern, np.arange(lo, lo + L + 1)))
    slope = float(np.polyfit(np.log(Ls), variances, 1)[0])
    target = 1 / math.pi**2
    assert abs(slope - target) / target < 0.20
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(5, f"var-vs-logL slope {slope:.5f} vs 1/pi^2={target:.5f} "
               f"({100 * abs(slope - target) / target:.1f}% off, {elapsed:.0f}s)")


def test_06_lpp_cdf_identity():
    for q in (0.2, 0.5):
        for t in range(13):
            assert abs(lpp_cdf_exact(1, 1, q, t) - (1 - q ** (t + 1))) < 1e-12

    rng = replica_rng(2025, 0)
    R = 1_000_000
    worst = 0.0
    for q in (0.2, 0.5):
        W = sample_geometric(q, (R, 3, 3), rng)
        g = lpp_value(W)[:, -1, -1]
        for t in range(13):
            ex = lpp_cdf_exact(3, 3, q, t)
            sd = math.sqrt(max(ex * (1 - ex), 1e-12) / R)
            dev = abs(float((g <= t).mean()) - ex) / sd if sd > 0 else 0.0
            worst = max(worst, dev)
            assert dev <= 4.0, (q, t, dev)
    _report(6, f"M=N=1 closed form to 1e-12; M=N=3 MC worst dev {worst:.2f} sigma at 1e6 draws")


def test_07_schur_cascade():
    rng = replica_rng(2026, 0)
    failures = 0
    for _ in range(10000):
        W = rng.integers(0, 6, size=(5, 5))
        res = cascade_grow(W, check=False)
        if not (cascade_invert(res, check=False) == W).all():
            failures += 1
    assert failures == 0

    ok_lpp = 0
    for _ in range(200):
        W = rng.integers(0, 6, size=(5, 5))
        res = cascade_grow(W, check=False)
        G = lpp_value(W)
        ok_lpp += all(
            res.level1_trace[(M - N, M + N - 1)] == G[M - 1, N - 1]
            for M in range(1, 6)
            for N in range(1, 6)
        )
    assert ok_lpp == 200

    a = b = [0.4, 0.3]
    R = 100000
    W = np.stack([sample_schur_matrix(2, a, b, rng) for _ in range(R)])
    counts = Counter(map(tuple, _shapes(W, 2)[:, 2, 2].tolist()))
    chi = 0.0
    dof = 0
    pooled_e = pooled_o = 0.0
    for l1 in range(18):
        for l2 in range(l1 + 1):
            pr = schur_measure_prob((l1, l2), a, b)
            e, o = pr * R, counts.get((l1, l2), 0)
            if e >= 5:
                chi += (o - e) ** 2 / e
                dof += 1
            else:
                pooled_e += e
                pooled_o += o
    chi += (pooled_o - pooled_e) ** 2 / max(pooled_e, 1e-9)
    p_value = float(chi2_dist.sf(chi, dof))
    assert p_value > 1e-3
    _report(7, f"10^4 round trips exact; LPP identity everywhere; "
               f"shape chi2 p={p_value:.3f} at 1e5 samples")


def test_08_macmahon():
    for a in range(1, 4):
        for b in range(1, a + 1):
            for c in range(1, 4):
                assert macmahon(a, b, c) == len(enumerate_walks(HexagonSpec(a, b, c)))
    checked = 0
    for a in range(1, 7):
        for b in range(1, a + 1):
            for c in range(1, 7):
                spec = HexagonSpec(a, b, c)
                m = b  # one interior column suffices for the total
                _, _, gamma, _, _ = column_bounds(spec, m)
                total = 0
                for xs in itertools.combinations(range(gamma + 1), c):
                    refl = tuple(sorted(gamma - v for v in xs))
                    total += lgv_count(spec, m, xs) * lgv_count(spec, a + b - m, refl)
                assert total == macmahon(a, b, c), (a, b, c)
                checked += 1
    _report(8, f"enumeration match a,b,c<=3; LGV totals match on {checked} "
               f"triples up to 6 (N(2,2,2)={macmahon(2, 2, 2)})")


def test_09_column_laws_exact():
    for n in (1, 2, 3):
        spec = HexagonSpec(n, n, n)
        for m in range(2 * n + 1):
            for kind in ("holes", "particles"):
                lgv = column_law(spec, m, kind=kind)
                n_pts = column_bounds(spec, m)[3] if kind == "holes" else n
                hahn = ensemble_law_exact(_column_weight(spec, m, kind), n_pts)
                assert sum(lgv.values()) == 1
                keys = set(lgv) | set(hahn)
                for key in keys:
                    assert lgv.get(key, Fraction(0)) == hahn.get(key, Fraction(0)), (
                        n, m, kind, key,
                    )
    _report(9, "LGV-product law == Hahn (holes) == associated Hahn (particles), "
               "exact rationals, a=b=c<=3, all columns")


def test_10_brick_dimer():
    rng = replica_rng(2027, 0)
    worst_z = worst_r = 0.0
    for (M, N) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for _ in range(5):
            z = 0.5 + rng.random()
            w = 0.3 + rng.random()
            spec = BrickLatticeSpec(M=M, N=N, z=z, w=w)
            covers = enumerate_dimers(spec)
            Ze = sum(wt for _, wt in covers)
            worst_z = max(worst_z, abs(partition_function(spec) - Ze) / Ze)
            for ell in (1, 2):
                for pts in itertools.combinations(range(N + 1), ell):
                    incl = sum(
                        wt for cov, wt in covers
                        if set(2 * p for p in pts) <= set(cover_to_paths(cov, M, N)[0])
                    ) / Ze
                    worst_r = max(worst_r, abs(dimer_correlations(spec, pts) - incl))
    assert worst_z < 1e-10 and worst_r < 1e-10

    diffs = []
    for w in (0.3, 1.0):
        f_fin = free_energy(BrickLatticeSpec(M=200, N=400, z=1.0, w=w))
        diffs.append(abs(f_fin - free_energy_limit(1.0, w)))
    assert max(diffs) < 1e-2
    _report(10, f"Z err {worst_z:.1e}, correlation err {worst_r:.1e} vs enumeration; "
                f"free-energy branch diffs {diffs[0]:.1e}, {diffs[1]:.1e}")


def test_11_bulk_kernels():
    kern = ope.cd_kernel(ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(2000, 0.5), 1000))
    c = 1000
    worst_k = 0.0
    for u in range(0, 11):
        val = kern.block([c], [c + u])[0, 0]
        worst_k = max(worst_k, abs(val - ope.discrete_sine_kernel(u)))
    assert worst_k < 0.01

    spec = BrickLatticeSpec(M=400, N=800, z=1.0, w=1.0)
    K = dimer_kernel(spec)
    theta0 = (2 / math.pi) * math.acos(0.5)
    mid = spec.N // 2
    worst_b = 0.0
    for d in range(0, 9):
        target = theta0 if d == 0 else math.sin(math.pi * d * theta0) / (math.pi * d)
        worst_b = max(worst_b, abs(K[mid, mid + d] - target))
    assert worst_b < 0.01
    _report(11, f"Krawtchouk bulk vs sine kernel: worst {worst_k:.2e}; "
                f"brick-dimer bulk: worst {worst_b:.2e}")


def test_12_arctic_boundaries():
    # (a) Krawtchouk arctic edge via 200 exact DPP samples per filling
    # fraction.  For t > 1/2 the band outside the bulk is frozen full (the
    # largest particle saturates at the window edge; this is exactly where
    # the fluctuation scale rho is undefined), so the boundary observable is
    # the largest hole, whose scaled position is beta(t) = beta(1-t) by
    # particle-hole duality.  Either way the sampled ensemble has rank
    # min(N, K+1-N).
    K_win = 2000
    devs = {}
    for t in (0.25, 0.5, 0.75):
        N = int(t * K_win)
        rng = replica_rng(31400 + int(100 * t), 0)
        rank = N if N <= (K_win + 1) // 2 else K_win + 1 - N
        kern = ope.cd_kernel(
            ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(K_win, 0.5), rank)
        )
        maxima = np.empty(200)
        for r in range(200):
            sites = ope.sample_dpp(kern, rng)
            maxima[r] = sites.max()  # particles for t <= 1/2, holes beyond
        dev = abs(maxima.mean() / K_win - ope.edge_position(t, 0.5))
        devs[t] = dev
        assert dev < 0.01, (t, dev)

    # (b) hexagon inner boundary at lambda = 1, c = 128, tau = -0.3: the
    # chain starts from one exact uniform tiling, drawn from its own stream,
    # so it is stationary from the start and every sample is exactly uniform
    lam, c = 1.0, 128
    tau = -0.3
    m = round(c * (lam + 2 * tau / math.sqrt(3)))
    tau_m = math.sqrt(3) / 2 * (m / c - lam)
    spec = HexagonSpec(c, c, c)
    chain = LozengeChain(spec, replica_rng(7, 0))
    chain.S[...] = sample_hexagon(spec, chain.rng).S
    vol = plane_partition_height(chain.family()).sum() / (0.5 * c**3)
    assert 0.9 < vol < 1.1  # the bulk shape of a uniform tiling
    xs, tops = [], []
    for _ in range(200):
        chain.sweep(100)
        fam = chain.family()
        xs.append(-(m / c + 1) / 2 + max(fam.holes(m)) / c)
        tops.append(-(m / c + 1) / 2 + max(fam.particles(m)) / c)
    hex_dev = abs(float(np.mean(xs)) - arctic_boundary(lam, tau_m))
    assert hex_dev < 0.05
    # The largest hole sits at the window edge gamma with probability 0.998,
    # whatever the chain does; the top particle moves with it.  Its exact law
    # comes from the hole kernel K of column m: P[top particle <= s] = det K
    # on {s+1, ..., gamma}, which is 0 for s < gamma - L.  The chain's mean
    # must lie within 4 standard errors of the exact one, the error taken by
    # batch means over 10 batches of 20 consecutive samples.
    _, _, gamma, L, _ = column_bounds(spec, m)
    holes = ope.cd_kernel(ope.build_orthonormal(ope.DiscreteWeight.hahn(gamma, c - m, c - m), L))
    top_exact = gamma - sum(ope.correlation(holes, range(s + 1, gamma + 1))
                            for s in range(gamma - L, gamma))
    top_exact = -(m / c + 1) / 2 + top_exact / c
    top_se = float(np.std(np.reshape(tops, (10, 20)).mean(axis=1), ddof=1)) / math.sqrt(10)
    top_dev = abs(float(np.mean(tops)) - top_exact)
    assert top_dev < 4 * top_se, (np.mean(tops), top_exact, top_se)

    # (c) substituted Tracy-Widom property: var G(N,N) ~ N^(2/3)
    rng = replica_rng(2028, 0)
    sizes = [64, 128, 256, 512]
    reps, chunk = 300, 20  # one (chunk, n, n) draw reads the stream as chunk (n, n) draws
    logvar = []
    for n in sizes:
        vals = np.empty(reps)
        for r in range(0, reps, chunk):
            vals[r:r + chunk] = lpp_value(sample_geometric(0.5, (chunk, n, n), rng))[:, -1, -1]
        logvar.append(math.log(vals.var(ddof=1)))
    slope = float(np.polyfit(np.log(sizes), logvar, 1)[0])
    assert abs(slope - 2 / 3) < 0.15
    _report(12, f"edge devs {devs[0.25]:.4f}/{devs[0.5]:.4f}/{devs[0.75]:.4f} (<0.01); "
                f"hexagon boundary dev {hex_dev:.4f} (<0.05), top particle mean "
                f"{np.mean(tops):.4f} vs exact {top_exact:.4f} ({top_dev / top_se:.2f} "
                f"batch SE, <4); "
                f"G(N,N) variance exponent {slope:.3f} (2/3 +- 0.15)")


def test_13_poissonized_lis():
    rng = replica_rng(2029, 0)
    alpha, R = 4.0, 1_000_000
    draws = np.fromiter((lis_sample(alpha, rng) for _ in range(R)), dtype=np.int64,
                        count=R)
    worst = 0.0
    for n in range(13):
        ex = lis_cdf(alpha, n)
        sd = math.sqrt(max(ex * (1 - ex), 1e-12) / R)
        dev = abs(float((draws <= n).mean()) - ex) / sd if sd > 0 else 0.0
        worst = max(worst, dev)
        assert dev <= 4.0, (n, dev)
    _report(13, f"det(I-B) vs 1e6-draw MC, n=0..12: worst dev {worst:.2f} sigma")


def test_14_count_clt_property():
    rng = replica_rng(2030, 0)
    K_win = 1000
    kern = ope.cd_kernel(
        ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(K_win, 0.5), K_win // 2)
    )
    L = 250
    lo = (K_win - L) // 2
    I = np.arange(lo, lo + L + 1)
    draws = ope.sample_counts(kern, I, 10000, rng).astype(float)
    zs = (draws - draws.mean()) / draws.std()
    skew = float((zs**3).mean())
    kurt = float((zs**4).mean() - 3.0)
    assert abs(skew) < 0.2
    assert abs(kurt) < 0.3
    _report(14, f"normalized count over 1e4 samples: skew {skew:+.3f} (<0.2), "
                f"excess kurtosis {kurt:+.3f} (<0.3)")
