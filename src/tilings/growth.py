"""Corner growth / last-passage percolation with geometric weights.

G(M, N) is the maximal sum of i.i.d. geometric(q) weights over up/right
lattice paths from (1,1) to (M,N); it satisfies the recursion
G(M,N) = max(G(M-1,N), G(M,N-1)) + w(M,N), the first part of Fomin's local
rule for the RSK growth diagram (see schur.py): G(M, N) is part 1 of the RSK
shape of W[:M, :N].  One kernel, ``_shapes``, fills the first k parts of
every such shape, and ``lpp_value`` is its k = 1 case.  It holds the bordered
(M+1) x (N+1) table row-major in one flat array, where the anti-diagonal
i + j = d is a strided slice with step N, and its upper, left and upper-left
neighbours are the same slice shifted by -(N+1), -1 and -(N+2); ``_diagonals``
returns the four slices of every diagonal as one tuple, cached per (M, N).
So the table fills diagonal by diagonal, each diagonal a few ufuncs on views,
with any leading axes of W swept together.

The exact distribution function is a gap probability of the Krawtchouk
ensemble: P[G(M,N) <= t] equals the probability that the largest of M
particles in the window {0, ..., t+N+M-1} with weight parameter q lies at or
below t+M-1, a ratio of two Gram determinants of the phi table.

Also here: the corner-growth set dynamics (independent corner filling with
probability 1 - q), the partition read off the north polar zone of an Aztec
tiling (lambda_r = n minus the largest particle on zig-zag level r, which is
the index of the first particle on that level), Poissonized
longest-increasing-subsequence sampling by patience sorting, and the discrete
Bessel kernel with its Fredholm gap determinant, on J values rounded
correctly (_bessel_row).  Every Bessel truncation is set by one rule,
_bessel_cut: the first order from which the a-priori tail bound _bessel_tail
drops at most _TAIL_TOL = 1e-15.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left

import numpy as np

from . import ope
from .aztec import Tiling, _level_particles

__all__ = [
    "sample_geometric",
    "lpp_value",
    "lpp_cdf_exact",
    "corner_growth_step",
    "corner_shape_from_lpp",
    "aztec_partition",
    "lis_length",
    "lis_sample",
    "bessel_kernel",
    "lis_cdf",
]


def sample_geometric(q: float, size, rng: np.random.Generator) -> np.ndarray:
    """Geometric(q) on {0, 1, ...} with P[k] = (1-q) q^k, by inversion:
    floor(log U / log q)."""
    if not 0 <= q < 1:
        raise ValueError("q must lie in [0, 1)")
    if q == 0:
        return np.zeros(size, dtype=np.int64)
    u = rng.random(size)
    return np.floor(np.log(u) / math.log(q)).astype(np.int64)


# bound on the weight sum, which bounds every table entry: the local rule's
# intermediate sums stay in int64 with room for the rounding of a float sum
_INT64_LIMIT = np.iinfo(np.int64).max // 4


@functools.lru_cache(maxsize=8)
def _diagonals(M: int, N: int) -> tuple:
    """The anti-diagonals d = 2, ..., M + N of the cells 1 <= i <= M,
    1 <= j <= N in the row-major flat (M+1) x (N+1) table, each as four
    slices with step N: its cells, cell (i, d - i) at d + i*N, and their
    upper (i-1, j), left (i, j-1) and upper-left (i-1, j-1) neighbours.
    Cached per (M, N): repeated sweeps of one size share one tuple."""
    if not (M and N):
        return ()
    out = []
    for d in range(2, M + N + 1):
        a, b = d + max(1, d - N) * N, d + min(M, d - 1) * N + 1
        out.append((slice(a, b, N), slice(a - N - 1, b - N - 1, N),
                    slice(a - 1, b - 1, N), slice(a - N - 2, b - N - 2, N)))
    return tuple(out)


def _shapes(W: np.ndarray, parts: int) -> np.ndarray:
    """The first ``parts`` parts of the RSK shape of every corner W[..., :i, :j].

    Returns the bordered table S[..., i, j, :] for 0 <= i <= M, 0 <= j <= N,
    with row 0 and column 0 empty, filled diagonal by diagonal by the local
    rule (schur.py).  Part k reads only parts k-1 and k of the neighbours, so
    any ``parts`` give a closed recursion; part 1 is the last-passage table.
    W must be a nonnegative integer array, its leading axes swept together;
    a matrix whose sum passes the int64 limit is rejected before the sweep.
    """
    if W.sum(axis=(-2, -1), dtype=np.float64).max(initial=0) > _INT64_LIMIT:
        raise ValueError("weights too large: the table would overflow int64")
    *lead, M, N = W.shape
    S = np.zeros((*lead, M + 1, N + 1, max(parts, 1)), dtype=np.int64)
    S[..., 1:, 1:, 0] = W
    flat = S.reshape(*lead, (M + 1) * (N + 1), S.shape[-1])
    # part 1 with the cell axis first and no parts axis: k = 1 sweeps as
    # fast as a 1-D table, and one plain index serves any leading axes
    part1 = np.moveaxis(flat[..., 0], -1, 0)
    for cell, up, left, corner in _diagonals(M, N):
        # part 1 holds w until its diagonal is reached
        part1[cell] += np.maximum(part1[up], part1[left])
        if parts > 1:
            mu, nu = flat[..., up, :], flat[..., left, :]
            rho = flat[..., corner, :-1]
            flat[..., cell, 1:] = (np.maximum(mu[..., 1:], nu[..., 1:])
                                   + np.minimum(mu[..., :-1], nu[..., :-1]) - rho)
    return S[..., :parts]


def lpp_value(W: np.ndarray) -> np.ndarray:
    """Full last-passage table G[..., i, j] (1-based cells stored 0-based).

    The last two axes of W are the M x N lattice; any leading axes index
    independent weight matrices, which are swept together.  The weights
    must be nonnegative integers; a float array is rejected, not truncated.
    64-bit throughout; a matrix whose weights sum past 2**61 is rejected, so
    the table cannot overflow.
    """
    W = np.asarray(W)
    if W.ndim < 2 or not np.issubdtype(W.dtype, np.integer) or (W < 0).any():
        raise ValueError("weight matrix must be at least 2-d, integer and nonnegative")
    return _shapes(W, 1)[..., 1:, 1:, 0]


def lpp_cdf_exact(M: int, N: int, q: float, t: int) -> float:
    """P[G(M,N) <= t], the probability that the largest of M particles of
    the Krawtchouk ensemble on the window {0, ..., t+N+M-1} with weight
    parameter q lies at or below s = t+M-1.  At q = 0, or with no cells
    (M N = 0), G = 0.

    It is the ratio det(Phi_B Phi_B^T) / det(Phi Phi^T) with B = {0, ..., s}
    and Phi the first M rows of the raw phi table (ope._max_particle_cdf).
    The ratio depends only on the span of those rows, so the table is
    neither polished nor projected to a kernel; the Gram matrix of all its
    rows, which the ratio forms anyway, must be within 1e-9 of the identity,
    the bound build_orthonormal applies, or ConstructionError is raised.
    The table stores its entries below 2^-511 as zero; against the
    unflushed table the result moves by about 2 M^2 2^-510 sqrt(K+1) at
    most, with K = t+N+M-1: below 1e-140 for M <= 10^4 and K <= 10^5.

    The error is absolute, not relative: a value below about 1e-20 is
    roundoff in the Gram determinants, not the probability.  At
    (M, N, q, t) = (20, 20, 1/2, 1) it returns 1.75e-96 against the exact
    9.62e-113, and nothing flags it.
    """
    if not 0 <= q < 1:
        raise ValueError("q must lie in [0, 1)")
    if t < 0:
        return 0.0
    if q == 0 or M * N == 0:
        return 1.0
    K = t + N + M - 1
    system = ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(K, q), M, validate=False)
    return ope._max_particle_cdf(system.table, M, t + M - 1)


def corner_growth_step(shape: tuple[int, ...], p: float,
                       rng: np.random.Generator) -> tuple[int, ...]:
    """One step of the corner-growth dynamics on a down-closed set given by
    its row lengths; every outer corner fills independently with
    probability p."""
    rows = list(shape)
    if any(a < b for a, b in zip(rows, rows[1:])) or any(r < 0 for r in rows):
        raise ValueError("shape must be weakly decreasing and nonnegative")
    while rows and rows[-1] == 0:
        rows.pop()
    corners = []
    for i in range(len(rows)):
        if i == 0 or rows[i - 1] > rows[i]:
            corners.append(i)
    corners.append(len(rows))  # new bottom row
    grown = rows + [0]
    for i in corners:
        if rng.random() < p:
            grown[i] += 1
    while grown and grown[-1] == 0:
        grown.pop()
    return tuple(grown)


def corner_shape_from_lpp(G: np.ndarray, n: int) -> tuple[int, ...]:
    """Down-closed set {(i,j): G(i,j) + i + j - 1 <= n} as row lengths."""
    M, N = G.shape
    rows = []
    for i in range(1, M + 1):
        r = 0
        for j in range(1, N + 1):
            if G[i - 1, j - 1] + i + j - 1 <= n:
                r = j
            else:
                break
        if r == 0:
            break
        rows.append(r)
    return tuple(rows)


def aztec_partition(t: Tiling) -> tuple[int, ...]:
    """Partition encoding the north polar zone: lambda_r = n - (the largest
    particle on zig-zag level r) = the index k of the first particle on that
    level, for r = 1..n, then lambda_{n+1} = 0 (the column maxima of the
    level-1 DR path)."""
    n = t.order
    first = _level_particles(t, np.arange(1, n + 1)).argmax(axis=-1)
    lam = tuple(first.tolist()) + (0,)
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise AssertionError(f"non-monotone partition {lam}")
    return lam


def lis_length(perm) -> int:
    """Length of a longest increasing subsequence by patience sorting."""
    tails: list[int] = []
    for v in perm:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def lis_sample(alpha: float, rng: np.random.Generator) -> int:
    """LIS length of a uniform permutation of Poisson(alpha) size."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = int(rng.poisson(alpha))
    if n == 0:
        return 0
    return lis_length(rng.permutation(n))


_ALPHA_LIMIT = 1e4
_TAIL_TOL = 1e-15  # most that a truncation below may drop


def _bessel_tail(alpha: float, K: int) -> float:
    """Upper bound on sum_{k>=K} (k-K+1) alpha^k / (k!)^2.

    As |J_k(2 sqrt(alpha))| <= alpha^(k/2) / k!, this bounds both
    sum_{k>=K} J_k^2 and the trace sum_{x>=K-1} B(x, x) of the Bessel kernel
    from x = K-1 on.  The terms fall by a factor r = alpha / (K+1)^2 or more
    from k = K on, so the sum is at most alpha^K / (K!)^2 / (1-r)^2; with
    r >= 1 the bound is infinite."""
    r = alpha / (K + 1) ** 2
    if r >= 1:
        return math.inf
    return math.exp(K * math.log(alpha) - 2 * math.lgamma(K + 1)) / (1 - r) ** 2


def _bessel_cut(alpha: float, lo: int) -> int:
    """The first order K >= lo whose tail _bessel_tail(alpha, K) is at most
    _TAIL_TOL: every truncation below drops only orders K and up."""
    if not 0 < alpha <= _ALPHA_LIMIT:
        raise ValueError(f"alpha must lie in (0, {_ALPHA_LIMIT:g}]")
    K = lo
    while _bessel_tail(alpha, K) > _TAIL_TOL:
        K += 1
    return K


def _bessel_row(alpha: float, max_order: int) -> np.ndarray:
    """J_0, ..., J_max_order at 2 sqrt(alpha), each rounded correctly: Miller's
    backward recurrence (Gautschi, SIAM Rev. 9, 1967) on integers with 128
    fractional bits, normalized by J_0 + 2 sum J_2k = 1, from where the
    solution vanishing at top - 1 passes 1e20 (Olver's test).  Orders from
    top, the first >= sqrt(alpha) with alpha^(k/2)/k! < 2^-1075, are 0."""
    if not 0 < alpha <= _ALPHA_LIMIT:
        raise ValueError(f"alpha must lie in (0, {_ALPHA_LIMIT:g}]")
    s = math.sqrt(alpha)
    lo = min(max_order, math.ceil(s))
    top = lo + bisect_left(range(lo, max_order + 1), True, key=lambda k: (
        k * math.log(s) - math.lgamma(k + 1) < -1075 * math.log(2)))
    u, v, N = 0.0, 1.0, top
    while abs(v) < 1e20:
        u, v, N = v, N * v / s - u, N + 1
    num, den = alpha.as_integer_ratio()
    r = math.isqrt((den << 256) // num)  # 2^128 / sqrt(alpha)
    f = [0] * N + [1 << 128, 0]
    for k in range(N, 0, -1):
        f[k - 1] = (k * r * f[k] >> 128) - f[k + 1]
    norm = f[0] + 2 * sum(f[2::2])
    return np.concatenate(([x / norm for x in f[:top]], np.zeros(max_order + 1 - top)))


def bessel_kernel(alpha: float, x: int, y: int) -> float:
    """Discrete Bessel kernel
    B(x,y) = sqrt(alpha) (J_x J_{y+1} - J_{x+1} J_y) / (x - y), J_* at
    2 sqrt(alpha); the diagonal is the limit value sum_{k>=1} J_{x+k}^2,
    summed below the order _bessel_cut(alpha, x + 1)."""
    if x < 0 or y < 0:
        raise ValueError("orders must be nonnegative")
    if x != y:
        J = _bessel_row(alpha, max(x, y) + 1)
        return math.sqrt(alpha) * (J[x] * J[y + 1] - J[x + 1] * J[y]) / (x - y)
    J = _bessel_row(alpha, _bessel_cut(alpha, x + 1) - 1)
    return float(np.sum(J[x + 1:] ** 2))


def _bessel_gram(alpha: float, lo: int, size: int, cut: int) -> np.ndarray:
    """B restricted to {lo, ..., lo+size-1} via the series form
    B(x,y) = sum_{k>=1} J_{x+k} J_{y+k} (manifestly symmetric PSD), every
    series w = cut - lo - 1 terms long, where cut is _bessel_cut(alpha,
    lo + 1).  The tails of both factors of an entry start at order
    lo + w + 1 or above, so by Cauchy-Schwarz an entry drops at most
    _TAIL_TOL."""
    w = cut - lo - 1
    J = _bessel_row(alpha, lo + size + w - 1)
    T = J[lo + 1 + np.add.outer(np.arange(size), np.arange(w))]
    return T @ T.T


def lis_cdf(alpha: float, n: int) -> float:
    """P[LIS of the Poissonized ensemble <= n] = det(I - B) on {n, n+1, ...},
    truncated to the rows x < _bessel_cut(alpha, n + 1) - 1: the trace of
    the rows dropped is at most _TAIL_TOL."""
    if n < 0:
        return 0.0
    cut = _bessel_cut(alpha, n + 1)
    B = _bessel_gram(alpha, n, cut - n - 1, cut)
    lam = np.clip(np.linalg.eigvalsh(B), 0.0, 1.0)
    return float(np.prod(1.0 - lam))
