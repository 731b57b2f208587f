"""Brick-lattice dimer model vs. brute-force enumeration."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from tilings.brickdimer import (
    BrickLatticeSpec,
    brick_edges,
    correlations,
    cover_to_paths,
    enumerate_dimers,
    free_energy,
    free_energy_limit,
    kernel,
    partition_function,
    partition_polynomial,
    paths_to_cover,
)
from tilings.brickdimer import _phi_matrix, partition_function_exact


def phi(spec, s, t):
    """Oracle for the mode basis phi(s, t), one entry at a time; s is a
    height index and t a mode index, both in 0..N (mode t corresponds to
    frequency j = t + 1; the top mode carries an extra 1/sqrt(2), like the
    boundary weights of the analogous cosine transform)."""
    N = spec.N
    if not (0 <= s <= N and 0 <= t <= N):
        raise ValueError("indices must lie in 0..N")
    j = t + 1
    c = 0.5 if j == N + 1 else 1.0
    return math.sqrt(2.0 * c / (N + 1)) * math.sin(
        math.pi * j * (2 * s + 1) / (2 * N + 2)
    )


def mode_weights(spec):
    """Oracle eigenvalues lambda_j = cos(pi j/(2N+2))^(2M) of the 2M-step
    even-height walk, modes j = 1..N+1 (the last one vanishes)."""
    j = np.arange(1, spec.N + 2)
    return np.cos(np.pi * j / (2 * spec.N + 2)) ** (2 * spec.M)


def test_vertex_and_edge_structure():
    spec = BrickLatticeSpec(M=2, N=2)
    assert spec.num_vertices == 20
    edges = brick_edges(2, 2)
    degree = Counter()
    for (a, b, _k) in edges:
        degree[a] += 1
        degree[b] += 1
    assert max(degree.values()) == 3  # brick lattice is (sub)cubic


def test_phi_orthogonality_and_eigen_relation():
    for N in (1, 2, 5, 16, 64):
        spec = BrickLatticeSpec(M=3, N=N)
        P = np.array([[phi(spec, s, t) for t in range(N + 1)] for s in range(N + 1)])
        assert np.abs(_phi_matrix(spec) - P).max() < 1e-14
        assert np.abs(P @ P.T - np.eye(N + 1)).max() < 1e-10
        assert np.abs(P.T @ P - np.eye(N + 1)).max() < 1e-10
        T = np.zeros((2 * N + 1, 2 * N + 1))
        for k in range(2 * N + 1):
            if k > 0:
                T[k, k - 1] = 0.5
            if k < 2 * N:
                T[k, k + 1] = 0.5
        even = np.linalg.matrix_power(T, 2 * spec.M)[::2, ::2]
        lam = mode_weights(spec)
        assert np.abs(even @ P - P * lam).max() < 1e-10


def test_phi_value_n1():
    spec = BrickLatticeSpec(M=1, N=1)
    assert abs(phi(spec, 0, 0) - 1 / math.sqrt(2)) < 1e-15
    with pytest.raises(ValueError):
        phi(spec, 2, 0)


def test_partition_function_vs_enumeration():
    rng = np.random.default_rng(0)
    for (M, N) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for _ in range(5):
            z = 0.5 + rng.random()
            w = 0.3 + rng.random()
            spec = BrickLatticeSpec(M=M, N=N, z=z, w=w)
            Ze = sum(wt for _, wt in enumerate_dimers(spec))
            assert abs(partition_function(spec) - Ze) / Ze < 1e-12


def test_partition_function_small_polynomial():
    # 6-vertex cylinder: one all-horizontal cover and two with 2 verticals
    spec = BrickLatticeSpec(M=1, N=1, z=1.0, w=1.0)
    assert abs(partition_function(spec) - 3.0) < 1e-12
    z, w = 1.7, 0.6
    spec = BrickLatticeSpec(M=1, N=1, z=z, w=w)
    assert abs(partition_function(spec) - (z**3 + 2 * z * w * w)) < 1e-12


def test_w_to_zero_limit():
    spec = BrickLatticeSpec(M=2, N=2, z=1.3, w=1e-9)
    assert abs(partition_function(spec) - 1.3**10) / 1.3**10 < 1e-8


def test_correlations_vs_enumeration():
    rng = np.random.default_rng(1)
    for (M, N) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        z = 0.8 + rng.random()
        w = 0.4 + rng.random()
        spec = BrickLatticeSpec(M=M, N=N, z=z, w=w)
        covers = enumerate_dimers(spec)
        Ze = sum(wt for _, wt in covers)
        for ell in (1, 2):
            for pts in itertools.combinations(range(N + 1), ell):
                incl = (
                    sum(
                        wt
                        for cov, wt in covers
                        if set(2 * p for p in pts)
                        <= set(cover_to_paths(cov, M, N)[0])
                    )
                    / Ze
                )
                assert abs(correlations(spec, pts) - incl) < 1e-10


def test_expected_path_count_is_trace():
    for (M, N) in [(1, 1), (2, 1), (1, 2)]:
        spec = BrickLatticeSpec(M=M, N=N, z=1.0, w=0.7)
        covers = enumerate_dimers(spec)
        Ze = sum(wt for _, wt in covers)
        mean_L = (
            sum(wt * len(cover_to_paths(cov, M, N)[0]) for cov, wt in covers) / Ze
        )
        K = kernel(spec)
        assert abs(np.trace(K) - mean_L) < 1e-10
        assert abs(np.trace(K) - spec.mode_u().sum()) < 1e-12


def test_kernel_spectrum():
    spec = BrickLatticeSpec(M=3, N=12, z=1.0, w=0.8)
    ev = np.linalg.eigvalsh(kernel(spec))
    assert ev.min() > -1e-12
    assert ev.max() < 1.0


def test_correlation_input_validation():
    spec = BrickLatticeSpec(M=1, N=2)
    with pytest.raises(ValueError):
        correlations(spec, [0, 0])
    with pytest.raises(ValueError):
        correlations(spec, [5])


def test_cover_path_round_trip_and_vertical_counts():
    for (M, N) in [(1, 1), (2, 1), (1, 2)]:
        spec = BrickLatticeSpec(M=M, N=N)
        for cov, _wt in enumerate_dimers(spec):
            nv = sum(1 for e in cov if e[2] == "v")
            assert nv % (2 * M) == 0
            paths = cover_to_paths(cov, M, N)
            assert paths_to_cover(paths, M, N) == cov


def test_transfer_polynomial_matches_enumeration():
    for (M, N) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        GL = partition_polynomial(M, N)
        spec = BrickLatticeSpec(M=M, N=N)
        counts = Counter()
        for cov, _ in enumerate_dimers(spec):
            nv = sum(1 for e in cov if e[2] == "v")
            counts[nv // (2 * M)] += 1
        assert {k: v for k, v in GL.items() if v} == dict(counts)
        assert partition_function_exact(M, N, Fraction(1), Fraction(1)) == sum(
            counts.values()
        )


def partition_polynomial_by_sign_product(M, N):
    """Oracle: G_L by counting walk states, stepping every state by all 2^L
    sign vectors and filtering afterwards."""
    heights = {0: [2 * k for k in range(N + 1)], 1: [2 * k + 1 for k in range(N)]}
    counts = {}
    for L in range(0, N + 1):
        total = 0
        for s0 in itertools.combinations(heights[0], L):
            layer = {s0: 1}
            for t in range(2 * M):
                allowed = heights[(t + 1) % 2]
                lo, hi = (allowed[0], allowed[-1]) if allowed else (0, 0)
                nxt = {}
                for state, cnt in layer.items():
                    for signs in itertools.product((-1, 1), repeat=L):
                        cand = tuple(v + d for v, d in zip(state, signs))
                        if any(u >= v for u, v in zip(cand, cand[1:])):
                            continue
                        if cand and (cand[0] < lo or cand[-1] > hi):
                            continue
                        nxt[cand] = nxt.get(cand, 0) + cnt
                layer = nxt
            total += layer.get(s0, 0)
        counts[L] = total
    return counts


def test_partition_polynomial_matches_sign_product():
    for (M, N) in [(3, 4), (4, 5)]:
        assert partition_polynomial(M, N) == partition_polynomial_by_sign_product(M, N)


@pytest.mark.parametrize("M, N, z, w", [
    (3, 20, Fraction(1), Fraction(1)),
    (5, 30, Fraction(1, 2), Fraction(7, 10)),
    (20, 12, Fraction(1), Fraction(3, 5)),
])
def test_exact_partition_function_matches_spectral_product(M, N, z, w):
    exact = partition_function_exact(M, N, z, w)
    spectral = partition_function(BrickLatticeSpec(M=M, N=N, z=float(z), w=float(w)))
    assert abs(spectral / exact - 1) < 1e-12


def test_partition_polynomial_at_the_walk_count_boundary():
    # (1, 16): the largest N under the former guard (N+1) 2^(N+1) 2M <= 5e6
    GL = partition_polynomial(1, 16)
    assert sorted(GL) == list(range(17)) and GL[0] == 1
    assert abs(sum(GL.values()) / partition_function(BrickLatticeSpec(1, 16)) - 1) < 1e-12


def test_partition_polynomial_guard_refuses_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the guard let the work start")

    monkeypatch.setattr(np.linalg, "matrix_power", no_work)
    for M, N in [(1001, 9), (1, 56), (10**9, 10**6)]:
        with pytest.raises(ValueError, match="too large"):
            partition_polynomial(M, N)
    with pytest.raises(AssertionError, match="the guard let the work start"):
        partition_polynomial(1000, 9)  # (N+1)^4 M = 10^7 is admitted


def test_partition_function_outside_double_range_raises():
    spec = BrickLatticeSpec(M=200, N=400, z=1.0, w=1.0)
    with pytest.raises(ValueError, match="log_partition_function"):
        partition_function(spec)
    with pytest.raises(ValueError, match="log_partition_function"):
        partition_function(BrickLatticeSpec(M=200, N=400, z=0.01, w=0.001))
    assert math.isfinite(free_energy(spec))


def test_free_energy_frozen_branch():
    assert abs(free_energy_limit(1.0, 0.3) - 0.0) < 1e-14
    assert abs(free_energy_limit(2.0, 0.5) - 0.5 * math.log(2.0)) < 1e-14


# Clausen's Cl_2(pi/3) and Catalan's constant G = Cl_2(pi/2)
CL2_PI_3 = 1.01494160640965362502120255427
CATALAN = 0.915965594177219015054603514932


@pytest.mark.parametrize("w, exact", [
    (1.0, CL2_PI_3 / (2 * math.pi)),
    (1 / math.sqrt(2), -math.log(2) / 8 + CATALAN / (2 * math.pi)),
    (1 / math.sqrt(3), (math.pi / 6 * math.log(1 / math.sqrt(3)) + CL2_PI_3 / 3) / math.pi),
])
def test_free_energy_limit_closed_forms(w, exact):
    # integral_0^theta log(2r cos s) ds = theta log r + Cl_2(pi - 2 theta) / 2
    # with theta = arccos(1 / 2r): theta = pi/3, pi/4 and pi/6 here
    assert abs(free_energy_limit(1.0, w) - exact) <= 1e-15


def test_free_energy_limit_matches_finite_size():
    for w in (0.8, 1.0, 1.6):
        f_fin = free_energy(BrickLatticeSpec(M=200, N=400, z=1.0, w=w))
        assert abs(f_fin - free_energy_limit(1.0, w)) < 1e-2


def test_free_energy_critical_point_rejected():
    with pytest.raises(ValueError):
        free_energy_limit(1.0, 0.5)


def test_free_energy_monotone_in_w():
    fs = [free_energy(BrickLatticeSpec(M=8, N=8, z=1.0, w=w))
          for w in (0.2, 0.5, 1.0, 2.0)]
    assert all(a <= b + 1e-15 for a, b in zip(fs, fs[1:]))


def test_free_energy_integral_oracle():
    # independent quadrature of the mode integral at finite M, then M large
    z, w = 1.0, 1.0
    M = 300

    def integrand(s):
        return math.log1p((2 * w / z * math.cos(s)) ** (2 * M))

    val, _ = quad(integrand, 0, math.pi / 2, limit=400)
    approx = 0.5 * math.log(z) + val / (2 * math.pi * M)
    assert abs(free_energy_limit(z, w) - approx) < 5e-3


def test_bulk_sine_limit():
    spec = BrickLatticeSpec(M=400, N=800, z=1.0, w=1.0)
    K = kernel(spec)
    theta0 = (2 / math.pi) * math.acos(0.5)
    c = spec.N // 2
    for d in range(0, 9):
        target = theta0 if d == 0 else math.sin(math.pi * d * theta0) / (math.pi * d)
        assert abs(K[c, c + d] - target) < 0.01


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_dimers(BrickLatticeSpec(M=3, N=3))
