"""Orthonormal systems, projection kernels, DPP sampling, closed forms."""

import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from tilings import ope, replica_rng
from tilings.ope import (
    ConstructionError,
    DiscreteWeight,
    KernelConditionError,
    _ldexp_columns,
    _phi_table,
    _sample_sequential,
    build_orthonormal,
    cd_kernel,
    correlation,
    discrete_sine_kernel,
    edge_constants,
    edge_position,
    hahn_edge,
    hahn_edge_hexagon,
    krawtchouk_density,
    krawtchouk_recurrence,
    max_particle_cdf,
    number_variance,
    sample_counts,
    sample_dpp,
)


def kraw_mass_sorted(h, N, K, p):
    """Exact sorted-tuple probability of the Krawtchouk ensemble."""
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


def sequential_dpp_oracle(kernel, rng):
    """Oracle: sequential conditioning on one site per step with a GEMV over
    the kernel rows; one ``rng.choice`` per site."""
    N = kernel.rank
    d = kernel.diagonal()
    C = np.empty((N, kernel.size + 1))
    chosen = np.empty(N, dtype=int)
    for i in range(N):
        p = np.clip(d, 0.0, None)
        x = int(rng.choice(kernel.size + 1, p=p / p.sum()))
        row = kernel.row(x)
        if i > 0:
            row = row - C[:i, x] @ C[:i]
        row = row / math.sqrt(d[x])
        C[i] = row
        d -= row * row
        d[x] = 0.0
        chosen[i] = x
    chosen.sort()
    return chosen


def phi_table_oracle(x, logw, a, b, nrows):
    """Oracle: the Krawtchouk phi recurrence with the exponent checked at
    every degree; the pair (u, v) * 2^E is rescaled whenever its magnitude
    leaves [2^-512, 2^512]."""
    LIM = 512
    lw2 = 0.5 * logw / math.log(2.0)
    E = np.floor(lw2).astype(np.int64)
    v = np.exp2(lw2 - E)
    u = np.zeros_like(v)
    out = np.empty((nrows, x.size))
    out[0] = np.ldexp(v, E.astype(np.int32))
    for n in range(nrows - 1):
        t = (x - b[n]) * v
        if n > 0:
            t -= a[n - 1] * u
        t /= a[n]
        u, v = v, t
        m = np.maximum(np.abs(u), np.abs(v))
        shift = np.zeros_like(E)
        shift[m > 2.0**LIM] = -LIM
        shift[(m > 0) & (m < 2.0**-LIM)] = LIM
        if shift.any():
            u = np.ldexp(u, shift.astype(np.int32))
            v = np.ldexp(v, shift.astype(np.int32))
            E -= shift
        out[n + 1] = np.ldexp(v, np.clip(E, -2000, 2000).astype(np.int32))
    return out


def flush_below_2_511(table):
    """The stored form of a table: every entry below 2^-511 in magnitude is
    +0.0, every other entry is unchanged."""
    return np.where(np.abs(table) < 2.0**-511, 0.0, table)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def hahn_closed_form(N: int, alpha: float, beta: float, nmax: int):
    """Oracle: standard three-term recurrence for the Hahn weight
    (N + alpha - x)! (beta + x)! / (x! (N - x)!)."""
    al, be = beta, alpha  # role swap relative to the binomial-product form

    def A(n):
        return (n + al + be + 1) * (n + al + 1) * (N - n) / (
            (2 * n + al + be + 1) * (2 * n + al + be + 2)
        )

    def C(n):
        return n * (n + al + be + N + 1) * (n + be) / (
            (2 * n + al + be) * (2 * n + al + be + 1)
        )

    a = np.array([math.sqrt(A(n - 1) * C(n)) for n in range(1, nmax)])
    b = np.array([A(n) + C(n) for n in range(nmax)])
    return a, b


def hahn_variant_form(N: int, alpha: float, beta: float, nmax: int):
    """A sometimes-quoted variant of the Hahn recurrence coefficients.

    Its a-coefficients carry a spurious repeated factor under the square
    root (the large-N limit is right, the finite-N values are not); the
    tests check that it disagrees with the weight-derived coefficients."""
    n = np.arange(1, nmax, dtype=float)
    pref = n * (n + alpha) * (n + alpha + beta + N + 1) / (
        (2 * n + alpha + beta) * (2 * n + alpha + beta + 1)
    )
    inside = ((N - n + 1) * (2 * n + alpha + beta + 1) * (beta + n) * (alpha + beta + n)) / (
        (alpha + n) * (n + N + alpha + beta + 1) * n * (2 * n + alpha + beta + 1)
    )
    a = pref * np.sqrt(inside)
    m = np.arange(nmax, dtype=float)
    b = (m + alpha + beta + 1) * (m + beta + 1) * (N - m) / (
        N * (2 * m + alpha + beta + 1) * (2 * m + alpha + beta + 2)
    ) + m * (m + alpha) * (m + alpha + beta + N + 1) / (
        N * (2 * m + alpha + beta) * (2 * m + alpha + beta + 1)
    )
    return a, b * N


def krawtchouk_poly_contour(K: int, p: float, n: int, x: int,
                            nodes: int = 4096) -> float:
    """Oracle: the orthonormal polynomial p_n(x) via trapezoid quadrature of
    its circular contour representation.  Degrees above 50 are refused; this
    exists to cross-check the recurrence, not to be fast."""
    if n > 50:
        raise ValueError("contour validation is limited to degrees <= 50")
    q = 1.0 - p
    t = max(n, 1) / K
    radius = min(math.sqrt(t / (1 - t)) if t < 1 else 1.0, 0.95 / max(p, q))
    theta = 2 * np.pi * np.arange(nodes) / nodes
    z = radius * np.exp(1j * theta)
    vals = (1 + q * z) ** x * (1 - p * z) ** (K - x) / z**n
    integral = vals.mean().real
    # normalizing binomial runs over the degree n (transcriptions often carry
    # an n/x mix-up here; n = 0 must give the constant polynomial 1)
    log_binom = gammaln(K + 1) - gammaln(n + 1) - gammaln(K - n + 1)
    return math.exp(-0.5 * log_binom - 0.5 * n * math.log(p * q)) * integral


def test_exact_mass_normalizes():
    for (N, K, p) in [(1, 1, Fraction(1, 2)), (2, 3, Fraction(1, 2)), (2, 4, Fraction(1, 3))]:
        tot = sum(
            kraw_mass_sorted(h, N, K, p) for h in itertools.combinations(range(K + 1), N)
        )
        assert tot == 1


def test_p0_is_constant():
    for weight in (
        DiscreteWeight.krawtchouk(12, 0.3),
        DiscreteWeight.hahn(9, 2, 1),
        DiscreteWeight.associated_hahn(9, 2, 1),
    ):
        s = build_orthonormal(weight, 3)
        logw = weight.log_weight()
        p0 = s.table[0] * np.exp(-0.5 * (logw - s.log_total_weight))
        assert np.abs(p0 - p0[0]).max() < 1e-12


def test_kappa_example():
    s = build_orthonormal(DiscreteWeight.krawtchouk(2, 0.5), 2)
    assert abs(s.kappa(1) - math.sqrt(2)) < 1e-12


def test_krawtchouk_lanczos_matches_closed_form():
    w = DiscreteWeight.krawtchouk(60, 0.3)
    aL, bL = ope._lanczos(w.log_weight(), 40)[:2]
    aC, bC = krawtchouk_recurrence(60, 0.3, 40)
    assert np.abs(aL - aC).max() < 1e-10
    assert np.abs(bL - bC).max() < 1e-10


def test_hahn_recurrence_matches_gram_schmidt():
    # the closed form must agree with the direct Gram-Schmidt/Stieltjes
    # construction on the weight
    w = DiscreteWeight.hahn(8, 1, 1)
    aL, bL = ope._lanczos(w.log_weight(), 8)[:2]
    aC, bC = hahn_closed_form(8, 1, 1, 8)
    assert np.abs(aL - aC).max() < 1e-10
    assert np.abs(bL - bC).max() < 1e-10


def test_hahn_build_coefficients_match_closed_form():
    # the built system carries the Lanczos coefficients; they stay within
    # 1e-10 of the closed form on the spectral scale N
    for (N, alpha, beta, n) in [(8, 1, 1, 8), (24, 3, 5, 12), (120, 4, 2, 60)]:
        s = build_orthonormal(DiscreteWeight.hahn(N, alpha, beta), n)
        aC, bC = hahn_closed_form(N, alpha, beta, s.num_degrees)
        assert np.abs(s.a - aC).max() <= 1e-10 * N
        assert np.abs(s.b - bC).max() <= 1e-10 * N


def test_hahn_variant_form_is_rejected():
    w = DiscreteWeight.hahn(24, 3, 5)
    aL, _ = ope._lanczos(w.log_weight(), 12)[:2]
    aP, _ = hahn_variant_form(24, 3, 5, 12)
    # the variant square root carries a spurious factor at finite N ...
    assert np.abs(aP - aL).max() > 1e-3
    # ... but the scaled coefficients share the large-N limit
    N = 4000
    t = 0.35
    alpha0 = 0.7
    aP2, _ = hahn_variant_form(N, alpha0 * N, alpha0 * N, int(t * N))
    target = math.sqrt(t * (1 - t) * (t + 2 * alpha0) * (t + 2 * alpha0 + 1)) / (
        4 * (t + alpha0)
    )
    assert abs(aP2[-1] / N - target) < 1e-3


def test_orthonormality_small_and_large():
    for (K, p, N) in [(40, 0.37, 13), (2000, 0.5, 1000)]:
        s = build_orthonormal(DiscreteWeight.krawtchouk(K, p), N)
        assert s.orthonormality_residual < 1e-10
    # alpha = beta = 0 is the middle hexagon column of an a = b hexagon
    for (N, alpha, beta, n) in [(120, 4, 2, 60), (60, 0, 0, 30)]:
        s = build_orthonormal(DiscreteWeight.hahn(N, alpha, beta), n)
        assert s.orthonormality_residual < 1e-10


@pytest.mark.parametrize("K, p, nrows", [
    (1661, 0.5, 257), (1761, 0.5, 257), (1861, 0.5, 257), (2000, 0.5, 501),
    (2000, 0.5, 1001), (4000, 0.5, 1001), (5000, 0.001, 41), (5000, 0.01, 201),
    (3000, 0.02, 301), (10000, 0.1, 301), (20000, 0.3, 101), (200, 0.3, 151),
    (30, 0.4, 11), (5, 0.4, 4), (30, 0.4, 1), (30, 0.4, 2), (0, 0.4, 1),
])
def test_phi_table_matches_per_degree_oracle(K, p, nrows):
    # the drift-budget check must give the table of a check at every degree,
    # bit for bit, including where values pass through the subnormal range;
    # the table stores entries below 2^-511 as +0.0, so the oracle is
    # compared after the same flush
    logw = DiscreteWeight.krawtchouk(K, p).log_weight()
    logw -= logw.max() + math.log(np.exp(logw - logw.max()).sum())
    a, b = krawtchouk_recurrence(K, p, nrows)
    x = np.arange(K + 1, dtype=float)
    table = _phi_table(x, logw, a, b, nrows)
    assert table.shape == (nrows, K + 1)
    assert np.isfinite(table).all()
    assert same_bits(table, flush_below_2_511(phi_table_oracle(x, logw, a, b, nrows)))


@pytest.mark.parametrize("K, p, N", [
    (1761, 0.5, 256), (5000, 0.5, 300), (5000, 0.001, 40), (5000, 0.01, 200),
    (10000, 0.1, 300),
])
def test_phi_table_has_no_entry_below_the_flush(K, p, N):
    # no stored entry is nonzero and below 2^-511, nor -0.0, so no product
    # of two entries is subnormal; each table would have such entries
    # without the flush
    table = build_orthonormal(DiscreteWeight.krawtchouk(K, p), N, validate=False).table
    mag = np.abs(table)
    assert not ((mag > 0) & (mag < 2.0**-511)).any()
    assert not np.signbit(table[table == 0]).any()
    logw = DiscreteWeight.krawtchouk(K, p).log_weight()
    logw -= logw.max() + math.log(np.exp(logw - logw.max()).sum())
    a, b = krawtchouk_recurrence(K, p, N + 1)
    raw = np.abs(phi_table_oracle(np.arange(K + 1.0), logw, a, b, N + 1))
    assert ((raw > 0) & (raw < 2.0**-511)).any()


@pytest.mark.parametrize("K, p, N", [(5000, 0.5, 300), (10000, 0.1, 300)])
def test_polished_table_has_no_entry_below_the_flush(K, p, N):
    # the validated builds of two cases above are polished, and the polish
    # is flushed as the raw table is; the unflushed Newton-Schulz product
    # would have such entries (1.5% and 0.5% of them)
    weight = DiscreteWeight.krawtchouk(K, p)
    s = build_orthonormal(weight, N)
    assert s.unpolished is not None
    mag = np.abs(s.table)
    assert not ((mag > 0) & (mag < 2.0**-511)).any()
    assert not np.signbit(s.table[s.table == 0]).any()
    raw = build_orthonormal(weight, N, validate=False).table
    polish = (1.5 * np.eye(N + 1) - 0.5 * (raw @ raw.T)) @ raw
    assert same_bits(s.table, flush_below_2_511(polish))
    mag = np.abs(polish)
    assert ((mag > 0) & (mag < 2.0**-511)).any()


@pytest.mark.parametrize("lowest", [-2200, -1074])
def test_ldexp_columns_matches_np_ldexp(lowest):
    # np.ldexp and then the flush below 2^-511, for exponents from lowest to
    # 1100, against values of both signs, signed zeros, subnormals,
    # magnitudes up to 2^1018, and powers of two with their lower
    # neighbours, whose results land on 2^-511 and just below it
    rng = np.random.default_rng(0)
    e = np.arange(lowest, 1101, dtype=np.int32)
    mags = np.ldexp(rng.uniform(1.0, 2.0, 200), rng.integers(-1074, 1019, 200))
    powers = 2.0 ** np.arange(-1074, 1019, 41)
    mags = np.concatenate([mags, powers, np.nextafter(powers, 0), [2.0**1018, 5e-324]])
    vals = np.concatenate([[0.0, -0.0], mags, -mags])
    block = np.repeat(vals[:, None], e.size, axis=1)
    with np.errstate(over="ignore"):
        expect = flush_below_2_511(np.ldexp(block, e))
        _ldexp_columns(block, e)
    assert same_bits(block, expect)
    assert (block == 2.0**-511).any() and (expect == 0).sum() > (vals == 0).sum() * e.size


def test_full_rank_kernel_is_identity():
    s = build_orthonormal(DiscreteWeight.krawtchouk(3, 0.5), 4)
    K = cd_kernel(s)
    assert np.abs(K.matrix() - np.eye(4)).max() < 1e-12


def christoffel_darboux_matrix(system, rank):
    """Oracle: off-diagonal kernel values from the two top functions,
    a_N (phi_N(x) phi_{N-1}(y) - phi_{N-1}(x) phi_N(y)) / (x - y), with the
    diagonal filled from the sum form."""
    pN = system.table[rank]
    pN1 = system.table[rank - 1]
    x = np.arange(system.size + 1, dtype=float)
    num = np.outer(pN, pN1) - np.outer(pN1, pN)
    den = x[:, None] - x[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = system.a[rank - 1] * num / den
    np.fill_diagonal(K, np.einsum("nx,nx->x", system.table[:rank], system.table[:rank]))
    return K


def test_cd_quotient_matches_sum_form():
    s = build_orthonormal(DiscreteWeight.krawtchouk(40, 0.37), 13)
    assert np.abs(cd_kernel(s).matrix() - christoffel_darboux_matrix(s, 13)).max() < 1e-8
    sh = build_orthonormal(DiscreteWeight.hahn(30, 2, 3), 9)
    assert np.abs(cd_kernel(sh).matrix() - christoffel_darboux_matrix(sh, 9)).max() < 1e-8


def test_kernel_reproducing_trace_spectrum():
    s = build_orthonormal(DiscreteWeight.krawtchouk(80, 0.4), 30)
    K = cd_kernel(s)
    M = K.matrix()
    assert np.abs(M @ M - M).max() < 1e-10
    assert abs(K.trace() - 30) < 1e-10
    lam = np.linalg.eigvalsh(M)
    assert np.abs(lam - np.round(lam)).max() < 1e-8


def test_correlation_basics():
    s = build_orthonormal(DiscreteWeight.krawtchouk(1, 0.5), 1)
    K = cd_kernel(s)
    assert abs(correlation(K, [0]) - 0.5) < 1e-14
    assert abs(correlation(K, [1]) - 0.5) < 1e-14
    assert abs(K.trace() - 1) < 1e-12
    with pytest.raises(ValueError):
        correlation(K, [0, 0])


def test_correlation_matches_exhaustive_masses():
    K3 = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(3, 0.5), 2))
    for pts in itertools.combinations(range(4), 2):
        incl = sum(
            float(kraw_mass_sorted(h, 2, 3, Fraction(1, 2)))
            for h in itertools.combinations(range(4), 2)
            if set(pts) <= set(h)
        )
        assert abs(correlation(K3, pts) - incl) < 1e-12


def test_full_support_correlation_is_indicator():
    s = build_orthonormal(DiscreteWeight.krawtchouk(3, 0.5), 2)
    assert abs(correlation(cd_kernel(s), range(4))) < 1e-12
    sfull = build_orthonormal(DiscreteWeight.krawtchouk(3, 0.5), 4)
    assert abs(correlation(cd_kernel(sfull), range(4)) - 1.0) < 1e-12


def test_dpp_sampler_cardinality_and_law():
    rng = np.random.default_rng(42)
    K3 = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(3, 0.5), 2))
    R = 60000
    counts = {}
    for _ in range(R):
        s = tuple(sample_dpp(K3, rng))
        assert len(s) == 2 and s[0] < s[1]
        counts[s] = counts.get(s, 0) + 1
    for h in itertools.combinations(range(4), 2):
        pr = float(kraw_mass_sorted(h, 2, 3, Fraction(1, 2)))
        sd = math.sqrt(R * pr * (1 - pr))
        assert abs(counts.get(h, 0) - R * pr) <= 4 * sd


def test_dpp_rank1_is_weight_law():
    rng = np.random.default_rng(9)
    w = DiscreteWeight.krawtchouk(6, 0.3)
    K1 = cd_kernel(build_orthonormal(w, 1))
    probs = np.exp(w.log_weight())
    probs /= probs.sum()
    R = 40000
    counts = np.zeros(7)
    for _ in range(R):
        counts[sample_dpp(K1, rng)[0]] += 1
    for x in range(7):
        sd = math.sqrt(R * probs[x] * (1 - probs[x]))
        assert abs(counts[x] - R * probs[x]) <= 4 * max(sd, 1.0)


def test_sites_outside_the_window_are_rejected():
    # a negative site must not wrap around to the far end of the window
    K = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(10, 0.5), 3))
    with pytest.raises(ValueError, match="site outside the support 0..10"):
        number_variance(K, [-1, 0])
    with pytest.raises(ValueError, match="site outside"):
        sample_counts(K, [-1, -2], 5, np.random.default_rng(0))
    for pts in ([11], [-1, 3]):
        with pytest.raises(ValueError, match="site outside"):
            correlation(K, pts)
    with pytest.raises(ValueError, match="site outside"):
        K.block([0, 1], [2, 11])
    for x in (-1, 11):
        with pytest.raises(ValueError, match="site outside the support 0..10"):
            K.row(x)
    assert max_particle_cdf(K, -3) == max_particle_cdf(K, -1) < 1e-12
    assert number_variance(K, [10, 0]) > 0


def test_non_integer_sites_are_rejected():
    # a float site must not be truncated to the integer below it
    K = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(10, 0.5), 3))
    calls = [lambda: K.row(1.5), lambda: K.block([1.7]), lambda: K.block([1], [2.5]),
             lambda: correlation(K, [1.2, 2]), lambda: number_variance(K, [2.9, 3.9]),
             lambda: sample_counts(K, [0.5, 1], 5, np.random.default_rng(0))]
    for call in calls:
        with pytest.raises(ValueError, match="sites must be integers"):
            call()
    assert np.array_equal(K.block(np.arange(2, 4)), K.block([2, 3]))
    assert correlation(K, []) == 1.0 and number_variance(K, []) == 0.0


def test_count_sampling_matches_kernel_moments():
    rng = np.random.default_rng(17)
    s = build_orthonormal(DiscreteWeight.krawtchouk(60, 0.5), 30)
    K = cd_kernel(s)
    I = np.arange(20, 41)
    mean_exact = float(K.block(I).trace())
    var_exact = number_variance(K, I)
    draws = sample_counts(K, I, 160000, rng)
    assert abs(draws.mean() - mean_exact) < 4 * math.sqrt(var_exact / draws.size)
    v = draws.var()
    assert abs(v - var_exact) / var_exact < 0.05


def test_count_sampling_agrees_with_full_dpp():
    rng = np.random.default_rng(3)
    s = build_orthonormal(DiscreteWeight.krawtchouk(30, 0.5), 15)
    K = cd_kernel(s)
    I = np.arange(10, 21)
    full = np.array([np.isin(sample_dpp(K, rng), I).sum() for _ in range(4000)])
    fast = sample_counts(K, I, 4000, rng)
    assert abs(full.mean() - fast.mean()) < 0.15
    assert abs(full.var() - fast.var()) < 0.3


def test_number_variance_edge_cases_and_bound():
    s = build_orthonormal(DiscreteWeight.krawtchouk(20, 0.5), 8)
    K = cd_kernel(s)
    assert number_variance(K, np.arange(0, 21)) < 1e-10
    assert number_variance(K, []) == 0.0
    I = np.arange(4, 11)
    assert number_variance(K, I) <= float(K.block(I).trace()) + 1e-12


def test_krawtchouk_density_values():
    assert abs(krawtchouk_density(0.5, 0.5) - 0.5) < 1e-15
    t = 0.3
    edge = 0.5 + math.sqrt(t * (1 - t))
    assert abs(krawtchouk_density(t, edge)) < 1e-6  # roundoff at the exact edge
    assert krawtchouk_density(t, edge + 0.05) == 0.0


def test_krawtchouk_density_matches_kernel_diagonal():
    K_win, t = 2000, 0.25
    N = int(t * K_win)
    kern = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(K_win, 0.5), N))
    diag = kern.diagonal()
    lo = 0.5 - math.sqrt(t * (1 - t)) + 0.05
    hi = 0.5 + math.sqrt(t * (1 - t)) - 0.05
    worst = 0.0
    for x in range(int(lo * K_win), int(hi * K_win) + 1, 7):
        worst = max(worst, abs(diag[x] - krawtchouk_density(t, x / K_win)))
    assert worst < 0.01


def test_max_particle_cdf():
    for q in (0.2, 0.7):
        K1 = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(1, q), 1))
        assert abs(max_particle_cdf(K1, 0) - (1 - q)) < 1e-12
        assert max_particle_cdf(K1, 1) == 1.0
    K3 = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(3, 0.5), 2))
    prev = 0.0
    for smax in range(4):
        cdf = sum(
            float(kraw_mass_sorted(h, 2, 3, Fraction(1, 2)))
            for h in itertools.combinations(range(4), 2)
            if max(h) <= smax
        )
        val = max_particle_cdf(K3, smax)
        assert abs(val - cdf) < 1e-12
        assert val >= prev - 1e-15
        prev = val


def eigvalsh_max_particle_cdf(kernel, s):
    """Oracle: P[max particle <= s] = det(I - K_A) on A = {s+1, ..., size},
    from the eigenvalues of the kernel block."""
    if s >= kernel.size:
        return 1.0
    A = np.arange(max(s + 1, 0), kernel.size + 1)
    lam = np.clip(np.linalg.eigvalsh(kernel.block(A)), 0.0, 1.0)
    return float(np.prod(1.0 - lam))


@pytest.mark.parametrize("weight, N", [
    (DiscreteWeight.krawtchouk(40, 0.5), 12),
    (DiscreteWeight.krawtchouk(120, 0.3), 45),
    (DiscreteWeight.krawtchouk(300, 0.7), 1),
    (DiscreteWeight.hahn(60, 4, 9), 20),
    (DiscreteWeight.associated_hahn(50, 2, 3), 25),
])
def test_max_particle_cdf_matches_eigvalsh_oracle(weight, N):
    kern = cd_kernel(build_orthonormal(weight, N))
    values = [max_particle_cdf(kern, s) for s in range(-2, weight.size + 2)]
    oracle = [eigvalsh_max_particle_cdf(kern, s) for s in range(-2, weight.size + 2)]
    assert np.abs(np.subtract(values, oracle)).max() <= 1e-12
    assert any(0.01 < v < 0.99 for v in values)  # the sweep crosses the edge


def test_max_particle_cdf_is_zero_below_rank():
    # N distinct particles do not fit in the N - 1 sites 0..N-2
    for weight, N in [(DiscreteWeight.krawtchouk(40, 0.5), 12),
                      (DiscreteWeight.hahn(30, 1, 2), 7),
                      (DiscreteWeight.krawtchouk(12, 0.1), 4)]:
        kern = cd_kernel(build_orthonormal(weight, N))
        for s in range(-3, N - 1):
            assert max_particle_cdf(kern, s) == 0.0
    # at p = 0.1 all 4 particles sit in 0..3 with probability ~0.0225
    assert abs(max_particle_cdf(kern, 3) - eigvalsh_max_particle_cdf(kern, 3)) <= 1e-12
    assert max_particle_cdf(kern, 3) > 0.02


def test_max_particle_cdf_rejects_a_table_that_is_not_orthonormal():
    s = build_orthonormal(DiscreteWeight.krawtchouk(20, 0.5), 8)
    s.table[2] = s.table[1]
    kern = cd_kernel(s)
    for smax in (7, 12, 19):
        with pytest.raises(ConstructionError, match=r"at degrees \((1,2|2,1)\)"):
            max_particle_cdf(kern, smax)


def test_kernel_diagonal_is_cached_and_returned_as_a_copy():
    kern = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(30, 0.4), 10))
    d = kern.diagonal()
    fresh = np.einsum("nx,nx->x", kern._phi, kern._phi)
    assert np.array_equal(d, fresh)
    d[:] = -1.0
    assert np.array_equal(kern.diagonal(), fresh)
    assert kern.trace() == float(fresh.sum())


def test_edge_constants():
    b, r = edge_constants(0.25, 0.5)
    assert abs(b - (0.5 + math.sqrt(0.25 * 0.75))) < 1e-14
    assert r > 0
    # symmetry under t <-> 1-t at p = q
    assert abs(edge_position(0.3, 0.5) - edge_position(0.7, 0.5)) < 1e-14
    with pytest.raises(ValueError):
        edge_constants(0.75, 0.5)  # rho undefined there
    with pytest.raises(ValueError):
        edge_constants(1.5, 0.5)


def test_edge_position_matches_exact_mean_asymmetric():
    # pins the parameter convention: weight parameter p, filling fraction t
    K_win, p, t = 900, 0.3, 0.25
    N = int(t * K_win)
    kern = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(K_win, p), N))
    e_max = 0.0
    smin = None
    for s in range(K_win, -1, -1):
        c = max_particle_cdf(kern, s)
        if c < 1e-12:
            smin = s
            break
    total = smin + 1.0
    for s in range(smin, K_win + 1):
        total += 1.0 - max_particle_cdf(kern, s)
    beta = edge_position(t, p)
    _, rho = edge_constants(t, p)
    shift = 1.8 * rho * K_win ** (1 / 3)  # finite-size edge fluctuation scale
    assert abs(total / K_win - beta) < 2.5 * shift / K_win


def test_discrete_sine_kernel_values():
    assert discrete_sine_kernel(0) == 0.5
    assert abs(discrete_sine_kernel(1) - 1 / math.pi) < 1e-15
    assert abs(discrete_sine_kernel(2)) < 1e-16


def test_bulk_kernel_approaches_sine():
    kern = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(2000, 0.5), 1000))
    c = 1000
    for u in range(0, 11):
        val = kern.block([c], [c + u])[0, 0]
        assert abs(val - discrete_sine_kernel(u)) < 0.01


def test_hahn_edge_values_and_consistency():
    assert abs(hahn_edge_hexagon(1, 1) - (1 + math.sqrt(3) / 2)) < 1e-10
    worst = 0.0
    count = 0
    for lam in (0.5, 1.0, 2.0, 3.0):
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            mu = frac * lam / (lam + 1)  # the domain where the sup formula applies
            t = mu / (mu + 1)
            alpha0 = (lam - mu) / (mu + 1)
            worst = max(worst, abs(hahn_edge(t, alpha0) - hahn_edge_hexagon(lam, mu)))
            count += 1
    assert count == 20
    assert worst < 1e-8


def hahn_edge_grid_oracle(t, alpha0, points=200_001):
    """Oracle: (1/t) max of the capped g over a dense grid of (0, t]."""
    s = np.linspace(t / points, t, points)
    g = 0.5 + np.sqrt(s * (1 - s) * (s + 2 * alpha0) * (s + 2 * alpha0 + 1)) / (2 * (s + alpha0))
    return float(np.minimum(g, 1.0).max()) / t


def test_hahn_edge_matches_a_dense_grid():
    for alpha0 in (0.0, 0.05, 0.3, 2.0, 1e4):
        s_star = math.sqrt(alpha0 * (alpha0 + 1)) - alpha0
        ts = [0.05, 0.2, 0.45, 0.7, 0.95, s_star]
        for t in (t for t in ts if 0 < t < 1):
            if t < s_star:  # g still rising: the edge is g(t) / t, below 1 / t
                assert hahn_edge(t, alpha0) < 1 / t
            else:           # saturated: the edge is 1 / t
                assert hahn_edge(t, alpha0) == 1 / t
            assert abs(hahn_edge(t, alpha0) / hahn_edge_grid_oracle(t, alpha0) - 1) < 1e-9
    # both branches are taken across the alpha0 grid above
    assert hahn_edge(0.05, 0.3) < 1 / 0.05 and hahn_edge(0.45, 0.3) == 1 / 0.45


def test_hahn_edge_support_bound():
    for (t, a0) in [(0.3, 0.1), (0.6, 0.5), (0.8, 0.0), (0.45, 0.2)]:
        assert hahn_edge(t, a0) <= 1 / t + 1e-9
    with pytest.raises(ValueError):
        hahn_edge_hexagon(1.0, 1.5)


def test_hahn_marginal():
    # the one-point marginal K(t, t)/n of the n-particle Hahn ensemble sums
    # to 1 and matches the table's sum of squares
    w = DiscreteWeight.hahn(20, 2, 1)
    n = 6
    s = build_orthonormal(w, n)
    u = cd_kernel(s).diagonal() / n
    assert abs(u.sum() - 1) < 1e-10
    for t in (0, 7, 20):
        assert abs(u[t] - (s.table[:n, t] ** 2).sum() / n) < 1e-10


def test_contour_validation_path():
    s = build_orthonormal(DiscreteWeight.krawtchouk(60, 0.3), 25)
    logw = s.weight.log_weight()
    for n in (0, 1, 5, 20):
        for x in (0, 17, 44):
            ref = s.table[n, x] * math.exp(-0.5 * logw[x])
            val = krawtchouk_poly_contour(60, 0.3, n, x)
            assert abs(val - ref) < 1e-8 * max(1.0, abs(ref))
    with pytest.raises(ValueError):
        krawtchouk_poly_contour(60, 0.3, 51, 0)


def test_build_rejects_bad_rank():
    with pytest.raises(ValueError):
        build_orthonormal(DiscreteWeight.krawtchouk(5, 0.5), 8)
    # a negative rank would slice table[:-1] and draw rank - 1 points
    s = build_orthonormal(DiscreteWeight.krawtchouk(5, 0.5), 4)
    with pytest.raises(ValueError, match="rank -1 is negative"):
        cd_kernel(s, -1)


def test_exact_weights():
    w = DiscreteWeight.krawtchouk(4, Fraction(1, 3))
    tot = sum(w.exact_weight(x) for x in range(5))
    assert tot == 1
    h = DiscreteWeight.hahn(5, 2, 1)
    assert h.exact_weight(0) == Fraction(
        math.factorial(7) * math.factorial(1), math.factorial(5)
    )
    # a non-integral Hahn parameter has no factorial form; it is not truncated
    for make in (DiscreteWeight.hahn, DiscreteWeight.associated_hahn):
        with pytest.raises(ValueError, match="integral parameters"):
            make(5, 1.5, 2).exact_weight(0)


def gammaln_log_weight(weight):
    """The log-weight by scipy's gammaln, and its largest log-Gamma term."""
    x = np.arange(weight.size + 1, dtype=float)
    N = float(weight.size)
    if weight.family == "krawtchouk":
        (p,) = weight.params
        terms = [gammaln(N + 1), gammaln(x + 1), gammaln(N - x + 1)]
        logw = terms[0] - terms[1] - terms[2] + x * math.log(p) + (N - x) * math.log1p(-p)
    else:
        alpha, beta = weight.params
        terms = [gammaln(N + alpha - x + 1), gammaln(beta + x + 1),
                 gammaln(x + 1), gammaln(N - x + 1)]
        if weight.family == "hahn":
            logw = terms[0] + terms[1] - terms[2] - terms[3]
        else:
            logw = -(terms[2] + terms[3] + terms[0] + terms[1])
    return logw, max(np.abs(t).max() for t in terms)


@pytest.mark.parametrize("weight", [
    *(DiscreteWeight.krawtchouk(K, p) for K in (5, 200, 2000, 5000) for p in (0.01, 0.4, 0.5)),
    *(make(N, alpha, beta)
      for make in (DiscreteWeight.hahn, DiscreteWeight.associated_hahn)
      for N, alpha, beta in [(8, 2, 1), (200, 20, 20), (2000, 1, 1), (300, 0.5, 2.25),
                             (1000, -0.5, 7.3), (10, 1e8, 0), (10, 0, 1e12)]),
], ids=repr)
def test_log_weight_matches_gammaln(weight):
    reference, largest = gammaln_log_weight(weight)
    assert np.abs(weight.log_weight() - reference).max() <= 1e-13 * largest


@pytest.mark.parametrize("weight", [
    DiscreteWeight.krawtchouk(12, Fraction(1, 3)),
    DiscreteWeight.krawtchouk(30, Fraction(1, 2)),
    DiscreteWeight.hahn(10, 2, 3),
    DiscreteWeight.hahn(25, 0, 6),
    DiscreteWeight.associated_hahn(10, 2, 3),
    DiscreteWeight.associated_hahn(25, 7, 0),
], ids=repr)
def test_log_weight_matches_exact_weight(weight):
    exact = np.array([float(weight.exact_weight(x)) for x in range(weight.size + 1)])
    assert np.allclose(np.exp(weight.log_weight()), exact, rtol=1e-12, atol=0)


def test_dpp_sampler_chi2_exhaustive_case():
    # law match on an exhaustively-computable ensemble, chi^2 over all
    # C(6,3) = 20 configurations
    from scipy.stats import chi2 as chi2_dist

    rng = np.random.default_rng(123)
    K6 = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(5, 0.4), 3))
    R = 300000
    counts = {}
    for _ in range(R):
        s = tuple(sample_dpp(K6, rng))
        counts[s] = counts.get(s, 0) + 1
    chi = 0.0
    dof = 0
    for h in itertools.combinations(range(6), 3):
        pr = float(kraw_mass_sorted(h, 3, 5, Fraction(2, 5)))
        e = pr * R
        chi += (counts.get(h, 0) - e) ** 2 / e
        dof += 1
    assert chi2_dist.sf(chi, dof - 1) > 1e-3


@pytest.mark.parametrize("K, p, N", [(3, 0.5, 2), (5, 0.4, 3), (6, 0.3, 1), (200, 0.5, 40)])
def test_dpp_sampler_matches_sequential_oracle_below_rank_8(K, p, N):
    # outside the Christoffel-Darboux phase the stream is read as the
    # oracle reads it: one rng.random() per site.  At rank 40, negating
    # phi_5 leaves the kernel as it was but breaks the three-term
    # recurrence, so every point is drawn by the sequential steps
    s = build_orthonormal(DiscreteWeight.krawtchouk(K, p), N)
    if N < 8:
        pairs = [(np.random.default_rng(77), np.random.default_rng(77))] * 2000
    else:
        s.table[5] *= -1.0
        assert cd_kernel(s)._cd_form is None
        pairs = [(np.random.default_rng(seed), np.random.default_rng(seed)) for seed in range(50)]
    kern = cd_kernel(s)
    for rng, rng_oracle in pairs:
        assert np.array_equal(sample_dpp(kern, rng), sequential_dpp_oracle(kern, rng_oracle))


def test_dpp_sampler_chi2_with_panels():
    # K = 13, N = 12: 91 configurations, every step drawn from the running
    # conditional diagonal.  Cells with under 5 expected draws are pooled.
    from scipy.stats import chi2 as chi2_dist

    rng = np.random.default_rng(2024)
    kern = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(13, 0.5), 12))
    R = 20000
    counts = {}
    for _ in range(R):
        s = tuple(int(x) for x in sample_dpp(kern, rng))
        counts[s] = counts.get(s, 0) + 1
    chi = 0.0
    dof = 0
    pooled_e = pooled_o = 0.0
    for h in itertools.combinations(range(14), 12):
        e = float(kraw_mass_sorted(h, 12, 13, Fraction(1, 2))) * R
        o = counts.get(h, 0)
        if e >= 5:
            chi += (o - e) ** 2 / e
            dof += 1
        else:
            pooled_e += e
            pooled_o += o
    assert pooled_e >= 5
    chi += (pooled_o - pooled_e) ** 2 / pooled_e
    assert chi2_dist.sf(chi, dof) > 1e-3


def test_dpp_sampler_keeps_rows_orthonormal_at_small_pivots():
    # late pivots of this draw fall to 1.8e-4; dividing the Gram-Schmidt
    # residual by sqrt(d(x)) in one pass let U drift 1.2e-7 from orthonormal
    # and d reach -3.4e-8, which raised KernelConditionError
    kern = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(2000, 0.5), 500))
    sites = sample_dpp(kern, replica_rng(8304, 98))
    assert len(set(sites.tolist())) == 500


def test_panel_sampler_keeps_rows_orthonormal_at_small_pivots():
    # sample_dpp draws this kernel in the Christoffel-Darboux form, so the
    # draw that needs the second projection pass (on 15 of its steps) is
    # made by the sequential sampler itself
    kern = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(2000, 0.5), 500))
    sites = _sample_sequential(kern._phi, kern._diagonal(), replica_rng(8304, 98))
    assert len(set(sites.tolist())) == 500


def hahn_mass_sorted(h, weight):
    """Exact probability, up to normalization, of the Hahn ensemble on the
    sites h: Delta(h)^2 prod w(h_j)."""
    mass = Fraction(1)
    for i, j in itertools.combinations(range(len(h)), 2):
        mass *= (h[i] - h[j]) ** 2
    for x in h:
        mass *= weight.exact_weight(x)
    return mass


@pytest.mark.parametrize("family, size, param, N, handover, rebuild", [
    ("krawtchouk", 5, (Fraction(2, 5),), 3, 1, "weight"),
    ("krawtchouk", 13, (Fraction(1, 2),), 12, 4, "weight"),
    ("hahn", 8, (2, 1), 4, 2, "weight"),
    ("krawtchouk", 13, (Fraction(1, 2),), 12, 4, "table"),
])
def test_dpp_christoffel_darboux_phase_chi2(monkeypatch, family, size, param, N, handover,
                                            rebuild):
    # lowering the hand-over rank makes the Christoffel-Darboux phase draw
    # all but `handover` points; the tail is drawn on the kernel rebuilt from
    # the weight or, when its Lanczos table breaks down, from the table.
    # Cells with under 5 expected draws are pooled.
    from scipy.stats import chi2 as chi2_dist

    monkeypatch.setattr(ope, "_HANDOVER", handover)
    weight = getattr(DiscreteWeight, family)(size, *map(float, param))
    kern = cd_kernel(build_orthonormal(weight, N))
    assert kern._cd_form is not None
    if rebuild == "table":
        def breakdown(logw, nmax):
            raise ConstructionError("Lanczos breakdown")

        monkeypatch.setattr(ope, "_lanczos", breakdown)
    if family == "krawtchouk":
        probs = {h: kraw_mass_sorted(h, N, size, param[0])
                 for h in itertools.combinations(range(size + 1), N)}
    else:
        exact = DiscreteWeight.hahn(size, *param)
        probs = {h: hahn_mass_sorted(h, exact) for h in itertools.combinations(range(size + 1), N)}
    total = sum(probs.values())
    rng = np.random.default_rng(4242)
    R = 20000
    counts = {}
    for _ in range(R):
        s = tuple(int(x) for x in sample_dpp(kern, rng))
        counts[s] = counts.get(s, 0) + 1
    assert sum(counts.get(h, 0) for h in probs) == R
    chi = 0.0
    dof = 0
    pooled_e = pooled_o = 0.0
    for h, pr in probs.items():
        e = float(pr / total) * R
        o = counts.get(h, 0)
        if e >= 5:
            chi += (o - e) ** 2 / e
            dof += 1
        else:
            pooled_e += e
            pooled_o += o
    if pooled_e > 0:
        chi += (pooled_o - pooled_e) ** 2 / pooled_e
        dof += 1
    assert chi2_dist.sf(chi, dof - 1) > 1e-3


def test_edited_table_keeps_the_panel_sampler():
    # negating phi_5 leaves the kernel as it was but breaks the three-term
    # recurrence: the kernel is drawn by the sequential sampler, seed for seed
    s = build_orthonormal(DiscreteWeight.krawtchouk(200, 0.5), 40)
    assert cd_kernel(s)._cd_form is not None
    s.table[5] *= -1.0
    kern = cd_kernel(s)
    assert kern._cd_form is None
    for seed in range(20):
        steps = _sample_sequential(kern._phi, kern._diagonal(), np.random.default_rng(seed))
        assert np.array_equal(sample_dpp(kern, np.random.default_rng(seed)), np.sort(steps))


def test_polished_table_keeps_its_unpolished_generator():
    # the polish fires at this size (see test_newton_schulz_polish_at_growth_size);
    # the rank-N kernel takes its generator and diagonal from the rows the
    # recurrence gave, and a kernel of another rank has none and is drawn by
    # the sequential sampler
    w = DiscreteWeight.krawtchouk(1761, 0.5)
    raw = build_orthonormal(w, 256, validate=False).table
    s = build_orthonormal(w, 256)
    G, d, a, logw = cd_kernel(s)._cd_form
    assert np.array_equal(G, raw[[256, 255]])
    assert np.allclose(d, (raw[:256] ** 2).sum(axis=0), rtol=1e-12, atol=0)
    assert a == s.a[255]
    assert cd_kernel(s, 200)._cd_form is None
    assert cd_kernel(build_orthonormal(w, 200))._cd_form is not None


def test_missed_handover_certificate_raises():
    # a Christoffel-Darboux diagonal off by 5e-7 at site 0 passes every
    # per-step check, and neither rebuild of the tail agrees with it
    kern = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(200, 0.5), 40))
    G, d, a, logw = kern._cd_form
    d = d.copy()
    d[0] += 5e-7
    kern._cd_form = G, d, a, logw
    with pytest.raises(KernelConditionError, match="hand-over certificate 5.000e-07 at step 8"):
        sample_dpp(kern, np.random.default_rng(5))


@pytest.mark.parametrize("K, N", [(10, 3), (20, 8)])
def test_dpp_sampler_rejects_rank_deficient_kernel(K, N):
    # phi_2 = phi_1 leaves a kernel of rank N - 1 with trace N: no N-point
    # sample exists, and every draw must say so
    s = build_orthonormal(DiscreteWeight.krawtchouk(K, 0.5), N)
    s.table[2] = s.table[1]
    kern = cd_kernel(s)
    for seed in range(200):
        with pytest.raises(KernelConditionError):
            sample_dpp(kern, np.random.default_rng(seed))


def test_polish_pays_in_the_number_variance():
    # the oracle runs the same three-term recurrence (p = 1/2: b_n = K/2 and
    # a_n = sqrt(n (K+1-n) / 4)) on the 17 sites of the window in 40-digit
    # decimal; the polished kernel is within 2.3e-14 of it and the raw table
    # (no polish) only within 1.2e-12
    K, N, sites = 1000, 250, range(492, 509)
    with localcontext(Context(prec=40)):
        a = [(Decimal(n * (K + 1 - n)) / 4).sqrt() for n in range(N)]
        u = [Decimal(0)] * len(sites)
        v = [(Decimal(math.comb(K, x)) / 2 ** K).sqrt() for x in sites]
        B = [[Decimal(0)] * len(sites) for _ in sites]
        for n in range(N):
            for i, p in enumerate(v):
                for j, q in enumerate(v):
                    B[i][j] += p * q
            if n + 1 < N:
                u, v = v, [((x - K // 2) * phi - a[n] * prev) / a[n + 1]
                           for x, prev, phi in zip(sites, u, v)]
        trace = sum(B[i][i] for i in range(len(sites)))
        reference = float(trace - sum(b * b for row in B for b in row))
    system = build_orthonormal(DiscreteWeight.krawtchouk(K, 0.5), N)
    assert system.unpolished is not None  # the polish fired
    variance = number_variance(cd_kernel(system), np.arange(492, 509))
    assert abs(variance - reference) <= 2e-13 * reference


def test_newton_schulz_polish_at_growth_size():
    w = DiscreteWeight.krawtchouk(1761, 0.5)
    raw = build_orthonormal(w, 256, validate=False).table
    raw_residual = np.abs(raw @ raw.T - np.eye(raw.shape[0])).max()
    assert 1e-13 < raw_residual <= 1e-9  # the polish fires at this size
    s = build_orthonormal(w, 256)
    assert s.orthonormality_residual <= 1e-13
    G = s.table @ s.table.T
    assert np.abs(G - np.eye(s.num_degrees)).max() <= 1e-13
