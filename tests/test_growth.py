"""Last-passage percolation, corner dynamics, LIS and the Bessel kernel."""

import itertools
import math
from collections import Counter
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv
from scipy.stats import chi2 as chi2_dist

from tilings import ope
from tilings.aztec import extract_dr_paths, zigzag_config
from tilings.growth import (
    _TAIL_TOL,
    _bessel_cut,
    _bessel_gram,
    _bessel_tail,
    _shapes,
    aztec_partition,
    bessel_kernel,
    corner_growth_step,
    corner_shape_from_lpp,
    lis_cdf,
    lis_length,
    lis_sample,
    lpp_cdf_exact,
    lpp_value,
    sample_geometric,
)
from tilings.ope import ConstructionError, DiscreteWeight, build_orthonormal
from tilings.shuffling import AztecMeasure, enumerate_tilings, sample_aztec

from test_ope import phi_table_oracle


def lpp_bruteforce(W: np.ndarray) -> int:
    """Independent oracle: maximize over every up/right path explicitly."""
    M, N = W.shape
    best = -1
    for downs in itertools.combinations(range(M + N - 2), M - 1):
        i = j = 0
        s = W[0, 0]
        for step in range(M + N - 2):
            if step in downs:
                i += 1
            else:
                j += 1
            s += W[i, j]
        best = max(best, s)
    return int(best)


def test_lpp_single_cell():
    assert lpp_value(np.array([[7]]))[0, 0] == 7


def test_lpp_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(40):
        W = rng.integers(0, 9, size=(4, 4))
        assert lpp_value(W)[-1, -1] == lpp_bruteforce(W)
    for shape in [(2, 6), (3, 5), (1, 7)]:
        W = rng.integers(0, 5, size=shape)
        assert lpp_value(W)[-1, -1] == lpp_bruteforce(W)
    # the bordered part-1 table of the shape kernel, at every corner
    for M, N in [(2, 6), (5, 3), (1, 7), (6, 1), (1, 1)]:
        W = rng.integers(0, 5, size=(M, N))
        S = _shapes(W, 1)
        assert S.shape == (M + 1, N + 1, 1) and not S[0].any() and not S[:, 0].any()
        assert all(S[i, j, 0] == lpp_bruteforce(W[:i, :j])
                   for i in range(1, M + 1) for j in range(1, N + 1))


def test_lpp_batched_equals_per_slice():
    rng = np.random.default_rng(12)
    for shape in [(6, 3, 3), (2, 3, 4, 5), (5, 1, 7), (4, 6, 1)]:
        W = rng.integers(0, 9, size=shape)
        G = lpp_value(W)
        assert G.shape == shape and G.dtype == np.int64
        flat = W.reshape(-1, *shape[-2:])
        expected = np.stack([lpp_value(w) for w in flat]).reshape(shape)
        assert (G == expected).all()


def test_lpp_rejects_bad_input():
    with pytest.raises(ValueError):
        lpp_value(np.arange(4))
    with pytest.raises(ValueError):
        lpp_value(np.array(3))
    W = np.ones((3, 2, 2), dtype=np.int64)
    W[2, 1, 0] = -1
    with pytest.raises(ValueError):
        lpp_value(W)
    for W in (np.array([[1.5]]), np.array([[1, 2], [3, 4.7]]), np.array([[1, 2], [3, 4.0]]),
              np.array([[2**62, 2**62]]), np.full((3, 2, 2), 2**60)):
        with pytest.raises(ValueError):
            lpp_value(W)


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 50))
@settings(max_examples=50, deadline=None)
def test_lpp_monotone(M, N, seed):
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 6, size=(M, N))
    G = lpp_value(W)
    assert (np.diff(G, axis=0) >= 0).all()
    assert (np.diff(G, axis=1) >= 0).all()


def test_geometric_sampler_mean():
    rng = np.random.default_rng(1)
    q = 0.4
    x = sample_geometric(q, 200000, rng)
    mean = q / (1 - q)
    assert abs(x.mean() - mean) < 4 * math.sqrt((q / (1 - q) ** 2) / x.size)
    assert (sample_geometric(0.0, 10, rng) == 0).all()


def test_lpp_cdf_closed_form_rank1():
    for q in (0.2, 0.5, 0.8):
        for t in range(10):
            assert abs(lpp_cdf_exact(1, 1, q, t) - (1 - q ** (t + 1))) < 1e-12


def test_lpp_cdf_zero_threshold():
    for (M, N, q) in [(2, 3, 0.3), (3, 3, 0.5), (1, 4, 0.2)]:
        assert abs(lpp_cdf_exact(M, N, q, 0) - (1 - q) ** (M * N)) < 1e-12


def test_lpp_cdf_degenerate_inputs():
    # G = 0 when q = 0 (sample_geometric's all-zero draw) or with no cells
    for (M, N, q) in [(3, 3, 0.0), (1, 1, 0.0), (0, 3, 0.5), (3, 0, 0.5), (0, 0, 0.0)]:
        assert lpp_cdf_exact(M, N, q, 0) == lpp_cdf_exact(M, N, q, 2) == 1.0
        assert lpp_cdf_exact(M, N, q, -1) == 0.0
        assert lpp_value(sample_geometric(q, (M, N), np.random.default_rng(0))).max(
            initial=0) == 0
    for q in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\)"):
            lpp_cdf_exact(3, 3, q, 2)


@pytest.mark.parametrize("N, t, parent", [
    (30, 1000, 0.7622220048722516),
    (36, 994, 0.06513461083380524),
])
def test_lpp_cdf_at_the_acceptance_boundary(N, t, parent):
    # t + N + M - 1 = 2000 at M = 971 and q = 0.4: the 972-row phi table has
    # a raw orthonormality residual of 9.1e-10, just inside the 1e-9 bound.
    # ``parent`` is the value of the polished kernel and the eigvalsh form
    # det(I - K_A), which the Gram-determinant ratio replaced.
    assert abs(lpp_cdf_exact(971, N, 0.4, t) - parent) <= 1e-12
    build_orthonormal(DiscreteWeight.krawtchouk(2000, 0.4), 971)


def test_lpp_cdf_rejects_the_first_rank_past_the_boundary():
    # M = 972 gives 973 rows on the same window, with a residual of 1.16e-9:
    # build_orthonormal and lpp_cdf_exact both refuse it
    with pytest.raises(ConstructionError, match="residual 1.159"):
        lpp_cdf_exact(972, 29, 0.4, 1000)
    with pytest.raises(ConstructionError, match="residual 1.159"):
        build_orthonormal(DiscreteWeight.krawtchouk(2000, 0.4), 972)


@pytest.mark.parametrize("M, t, flushes", [
    (256, 1150, True), (256, 1250, True), (256, 1350, True), (128, 600, False),
])
def test_lpp_cdf_matches_the_unflushed_table(M, t, flushes):
    # the stored table has every entry below 2^-511 flushed to +0.0; the
    # gap ratio formed on the unflushed per-degree oracle table differs by
    # at most 2 M^2 2^-510 sqrt(K+1), the bound of lpp_cdf_exact.  At
    # K = 855 the smallest entry is phi_0(0) = 2^-427.5, so nothing flushes
    K = t + 2 * M - 1
    logw = DiscreteWeight.krawtchouk(K, 0.5).log_weight()
    logw -= logw.max() + math.log(np.exp(logw - logw.max()).sum())
    a, b = ope.krawtchouk_recurrence(K, 0.5, M + 1)
    raw = phi_table_oracle(np.arange(K + 1.0), logw, a, b, M + 1)
    assert ((raw != 0) & (np.abs(raw) < 2.0**-511)).any() == flushes
    expect = ope._max_particle_cdf(raw, M, t + M - 1)
    assert 1e-4 < expect < 1
    assert abs(lpp_cdf_exact(M, M, 0.5, t) - expect) <= 2 * M**2 * 2.0**-510 * math.sqrt(K + 1)


def test_lpp_cdf_rejects_a_table_with_a_repeated_row(monkeypatch):
    phi_table = ope._phi_table

    def repeated_row(*args):
        table = phi_table(*args)
        table[2] = table[1]
        return table

    monkeypatch.setattr(ope, "_phi_table", repeated_row)
    for (M, N, q, t) in [(3, 3, 0.5, 2), (8, 5, 0.3, 6), (40, 40, 0.5, 60)]:
        with pytest.raises(ConstructionError, match=r"at degrees \((1,2|2,1)\)"):
            lpp_cdf_exact(M, N, q, t)
        with pytest.raises(ConstructionError):
            build_orthonormal(DiscreteWeight.krawtchouk(t + N + M - 1, q), M)


def test_lpp_cdf_monotone_to_one():
    vals = [lpp_cdf_exact(2, 2, 0.4, t) for t in range(14)]
    assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.999


def test_lpp_cdf_vs_monte_carlo():
    rng = np.random.default_rng(2)
    q, R = 0.3, 60000
    W = sample_geometric(q, (R, 3, 3), rng)
    g = lpp_value(W)[:, -1, -1]
    for t in range(0, 13):
        ex = lpp_cdf_exact(3, 3, q, t)
        sd = math.sqrt(max(ex * (1 - ex), 1e-9) / R)
        assert abs((g <= t).mean() - ex) <= 4 * sd


def test_corner_growth_shape_properties():
    rng = np.random.default_rng(3)
    s = ()
    for _ in range(30):
        s = corner_growth_step(s, 0.5, rng)
        assert all(a >= b for a, b in zip(s, s[1:]))
    with pytest.raises(ValueError):
        corner_growth_step((1, 3), 0.5, rng)


def test_corner_growth_first_step():
    rng = np.random.default_rng(4)
    hits = sum(corner_growth_step((), 0.3, rng) == (1,) for _ in range(30000))
    assert abs(hits / 30000 - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 30000)


def test_corner_growth_matches_lpp_coupling():
    # distribution of the grown shape after n steps vs the down-closed set
    # {G(i,j)+i+j-1 <= n} from sampled weights
    rng = np.random.default_rng(5)
    n, q, R = 5, 0.5, 30000

    def grown():
        s = ()
        for _ in range(n):
            s = corner_growth_step(s, 1 - q, rng)
        return s

    c_dyn = Counter(grown() for _ in range(R))
    # one (R, n+1, n+1) draw reads the stream as R (n+1, n+1) draws
    W = sample_geometric(q, (R, n + 1, n + 1), rng)
    c_lpp = Counter(corner_shape_from_lpp(G, n) for G in lpp_value(W))
    chi = 0.0
    dof = 0
    pooled_a = pooled_b = 0
    for key in set(c_dyn) | set(c_lpp):
        a, b = c_dyn.get(key, 0), c_lpp.get(key, 0)
        if a + b < 20:
            pooled_a += a
            pooled_b += b
            continue
        e = (a + b) / 2
        chi += (a - e) ** 2 / e + (b - e) ** 2 / e
        dof += 1
    if pooled_a + pooled_b:
        e = (pooled_a + pooled_b) / 2
        chi += (pooled_a - e) ** 2 / e + (pooled_b - e) ** 2 / e
        dof += 1
    assert chi2_dist.sf(chi, dof - 1) > 1e-3


def test_aztec_partition_exhaustive():
    for t, _ in enumerate_tilings(3):
        lam = aztec_partition(t)
        assert len(lam) == 4 and lam[-1] == 0
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        for r in range(1, 4):
            particles, _h = zigzag_config(t, r)
            assert lam[r - 1] == 3 - max(particles.positions)


def aztec_partition_by_paths(t):
    """Oracle: column maxima of the level-1 type-I DR path,
    lambda_l = n - max{y : (l, y) on the path}, for l = 1..n+1."""
    n = t.order
    best: dict[int, int] = {}
    for (x, y) in extract_dr_paths(t, "typeI").paths[0]:
        best[x] = max(best.get(x, -1), y)
    return tuple(n - best[ell] for ell in range(1, n + 2))


def test_aztec_partition_matches_dr_path_oracle():
    tilings = [t for n in range(1, 5) for t, _ in enumerate_tilings(n)]
    rng = np.random.default_rng(48)
    for n in (16, 48):
        tilings += [sample_aztec(AztecMeasure.from_q(n, 0.5), rng) for _ in range(4)]
    for t in tilings:
        assert aztec_partition(t) == aztec_partition_by_paths(t)


def test_aztec_partition_hand_case():
    # horizontal tiling of A_1: the upper N-domino is the north zone, one
    # cell of shape; the vertical tiling has an empty north zone
    from tilings.aztec import Domino, Tiling

    horizontal = Tiling(order=1, dominoes=(Domino(-1, -1, True), Domino(-1, 0, True)))
    assert aztec_partition(horizontal) == (1, 0)
    vertical = Tiling(order=1, dominoes=(Domino(-1, -1, False), Domino(0, -1, False)))
    assert aztec_partition(vertical) == (0, 0)


def test_aztec_partition_sampled_monotone():
    from tilings.shuffling import AztecMeasure, sample_aztec

    rng = np.random.default_rng(6)
    m = AztecMeasure.from_q(16, 0.5)
    for _ in range(25):
        lam = aztec_partition(sample_aztec(m, rng))
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_lis_basics():
    assert lis_length(range(10)) == 10
    assert lis_length(reversed(range(10))) == 1
    assert lis_length([]) == 0
    rng = np.random.default_rng(7)
    assert lis_sample(0.001, rng) in (0, 1)


def test_bessel_symmetry_and_forms():
    a = 4.0
    for (x, y) in [(0, 1), (2, 5), (3, 3), (1, 4)]:
        assert abs(bessel_kernel(a, x, y) - bessel_kernel(a, y, x)) < 1e-14
    root = 2 * math.sqrt(a)
    for (x, y) in [(0, 1), (2, 5), (1, 4)]:
        series = sum(jv(x + k, root) * jv(y + k, root) for k in range(1, 300))
        assert abs(bessel_kernel(a, x, y) - series) < 1e-12
    # diagonal equals the series limit of the quotient
    for x in (0, 3):
        series = sum(jv(x + k, root) ** 2 for k in range(1, 300))
        assert abs(bessel_kernel(a, x, x) - series) < 1e-13


def test_bessel_guard():
    with pytest.raises(ValueError):
        bessel_kernel(1e9, 0, 0)
    with pytest.raises(ValueError):
        bessel_kernel(4.0, -1, 0)


def test_bessel_trace_tail():
    for alpha in (1.0, 4.0, 16.0):
        n = 3
        tail = sum(bessel_kernel(alpha, x, x) for x in range(n + 60, n + 140))
        assert tail < 1e-12
        # the a-priori bound on the trace from x = K-1 on, where it is not small
        K = int(2 * math.sqrt(alpha)) + 2
        trace = sum(bessel_kernel(alpha, x, x) for x in range(K - 1, K + 100))
        assert 1e-6 < trace <= _bessel_tail(alpha, K)


def test_bessel_tail_bound_at_largest_alpha():
    alpha = 1e4  # the largest allowed
    # at n = 2 sqrt(alpha) the law is near Tracy-Widom F_2(0) = 0.9694
    assert abs(lis_cdf(alpha, 200) - 0.9694) < 0.01
    assert 0 < bessel_kernel(alpha, 200, 200) < 1
    # a cut at 2 sqrt(alpha) would drop far too much; the bound moves it out
    assert _bessel_tail(alpha, 200) > _TAIL_TOL
    assert _bessel_cut(alpha, 200) == 286


@pytest.mark.parametrize("alpha", [0.5, 4.0, 100.0, 1e4])
def test_lis_cdf_at_zero_is_the_empty_permutation(alpha):
    # LIS <= 0 only for the empty permutation: P[Poisson(alpha) = 0]
    assert abs(lis_cdf(alpha, 0) - math.exp(-alpha)) <= 1e-15


def test_bessel_cut_is_the_first_order_within_the_bound():
    for alpha in (0.5, 1.0, 4.0, 16.0, 100.0, 1e3, 1e4):
        for lo in (0, 1, 6, 20, 60, 200, 250):
            K = _bessel_cut(alpha, lo)
            assert K >= lo and _bessel_tail(alpha, K) <= _TAIL_TOL
            assert K == lo or _bessel_tail(alpha, K - 1) > _TAIL_TOL


def bessel_series(alpha, orders):
    """Oracle: J_k(2 sqrt(alpha)) for k < orders by the power series
    alpha^(k/2) sum_j (-alpha)^j / (j! (j+k)!) in 120-digit decimal, each
    sum run until its terms fall below 1e-40; at alpha = 1e4 the largest
    terms are ~1e85, so the sums keep ~35 digits."""
    with localcontext(Context(prec=120)):
        root, J = Decimal(alpha).sqrt(), []
        for k in range(orders):
            term = root ** k / math.factorial(k)
            total, j = term, 0
            while j <= root or abs(term) > Decimal("1e-40"):
                j += 1
                term *= -Decimal(alpha) / (j * (j + k))
                total += term
            J.append(float(total))
    return J


@pytest.mark.parametrize("alpha, lo, size", [(4.0, 0, 12), (4.0, 3, 20), (1e4, 0, 40),
                                             (1e4, 180, 60), (1e4, 250, 40)])
def test_bessel_gram_matches_a_wide_series(alpha, lo, size):
    # the oracle sums 400 orders past the largest row, far beyond the cut
    J = bessel_series(alpha, lo + size + 400)
    B = _bessel_gram(alpha, lo, size, _bessel_cut(alpha, lo + 1))
    for i in range(size):
        for j in range(size):
            series = math.fsum(J[lo + i + k] * J[lo + j + k] for k in range(1, 400))
            assert abs(B[i, j] - series) <= 1e-15


def test_lis_cdf_vs_monte_carlo():
    rng = np.random.default_rng(8)
    alpha, R = 4.0, 120000
    draws = np.fromiter((lis_sample(alpha, rng) for _ in range(R)), dtype=int)
    for n in range(0, 13):
        ex = lis_cdf(alpha, n)
        sd = math.sqrt(max(ex * (1 - ex), 1e-9) / R)
        assert abs((draws <= n).mean() - ex) <= 4 * sd


def test_gnn_variance_growth_exponent():
    # variance of G(N,N) at q = 1/2 grows like N^(2/3)
    rng = np.random.default_rng(9)
    sizes = [32, 64, 128]
    reps = 220
    lv = []
    for n in sizes:
        g = np.empty(reps)
        for r in range(reps):
            W = sample_geometric(0.5, (n, n), rng)
            g[r] = lpp_value(W)[-1, -1]
        lv.append(math.log(g.var(ddof=1)))
    x = np.log(sizes)
    slope = np.polyfit(x, lv, 1)[0]
    assert abs(slope - 2 / 3) < 0.3


def kraw_max_cdf_exact(M, K, p, s):
    """Exact rational P[max <= s] of the M-particle ensemble."""
    from fractions import Fraction

    def mass(h):
        pp = Fraction(p)
        q = 1 - pp
        Z = Fraction(math.factorial(M))
        for j in range(M):
            Z *= Fraction(math.factorial(j), math.factorial(K - j))
        Z *= Fraction(math.factorial(K)) ** M * (pp * q) ** (M * (M - 1) // 2)
        d = 1
        for i in range(M):
            for j in range(i + 1, M):
                d *= h[i] - h[j]
        v = Fraction(math.factorial(M)) * d * d
        for hj in h:
            v *= Fraction(math.comb(K, hj)) * pp**hj * q ** (K - hj)
        return v / Z

    return sum(
        mass(h)
        for h in itertools.combinations(range(K + 1), M)
        if max(h) <= s
    )


def test_lpp_cdf_exact_rational_identity():
    # P[G(M,N) <= t] as a finite exact sum over weight matrices with entries
    # bounded by t equals the Krawtchouk max-particle probability, exactly
    from fractions import Fraction

    q = Fraction(2, 5)
    for (M, N, t) in [(2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 3, 1)]:
        direct = Fraction(0)
        for entries in itertools.product(range(t + 1), repeat=M * N):
            W = np.array(entries).reshape(M, N)
            if lpp_value(W)[-1, -1] <= t:
                wgt = Fraction(1)
                for e in entries:
                    wgt *= (1 - q) * q**e
                direct += wgt
        K = t + N + M - 1
        kr = kraw_max_cdf_exact(M, K, q, t + M - 1)
        assert direct == kr, (M, N, t)
