"""Corner growth / last-passage percolation with geometric weights.

G(M, N) is the maximal sum of i.i.d. geometric(q) weights over up/right
lattice paths from (1,1) to (M,N); it satisfies the recursion
G(M,N) = max(G(M-1,N), G(M,N-1)) + w(M,N), which we evaluate along
anti-diagonals so the table fills with vectorized numpy operations.

The exact distribution function delegates to the Krawtchouk projection
kernel: P[G(M,N) <= t] equals the probability that the largest of M
particles in the window {0, ..., t+N+M-1} with weight parameter q stays
below t+M-1.

Also here: the corner-growth set dynamics (independent corner filling with
probability 1 - q), the partition read off the north polar zone of an Aztec
tiling (lambda_r = n minus the largest particle on zig-zag level r, which is
the index of the first particle on that level), Poissonized
longest-increasing-subsequence sampling by patience sorting, and the discrete
Bessel kernel with its Fredholm gap determinant.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np
from scipy.special import jv

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


def lpp_value(W: np.ndarray) -> np.ndarray:
    """Full last-passage table G[..., i, j] (1-based cells stored 0-based).

    The last two axes of W are the M x N lattice; any leading axes index
    independent weight matrices, which are swept together.  The weights
    must be nonnegative integers; a float array is rejected, not truncated.
    64-bit throughout; overflow is impossible at any realistic size but is
    asserted anyway.
    """
    W = np.asarray(W)
    if W.ndim < 2 or not np.issubdtype(W.dtype, np.integer) or (W < 0).any():
        raise ValueError("weight matrix must be at least 2-d, integer and nonnegative")
    *lead, M, N = W.shape
    G = np.zeros((*lead, M + 1, N + 1), dtype=np.int64)
    for d in range(2, M + N + 1):
        i = np.arange(max(1, d - N), min(M, d - 1) + 1)
        j = d - i
        G[..., i, j] = np.maximum(G[..., i - 1, j], G[..., i, j - 1]) + W[..., i - 1, j - 1]
    assert G[..., M, N].max(initial=0) <= np.iinfo(np.int64).max // 4
    return G[..., 1:, 1:]


def lpp_cdf_exact(M: int, N: int, q: float, t: int) -> float:
    """P[G(M,N) <= t] via the Krawtchouk kernel with M particles on the
    window {0, ..., t+N+M-1} and weight parameter q."""
    if t < 0:
        return 0.0
    K = t + N + M - 1
    system = ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(K, q), M)
    kernel = ope.cd_kernel(system)
    return ope.max_particle_cdf(kernel, t + M - 1)


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


def _check_bessel_tail(alpha: float, K: int) -> None:
    """Raise unless Bessel orders K and up may be dropped (see _bessel_tail)."""
    bound = _bessel_tail(alpha, K)
    if not bound <= _TAIL_TOL:
        raise ValueError(f"Bessel tail from order {K} at alpha={alpha:g} is bounded "
                         f"only by {bound:.1e}, above {_TAIL_TOL:g}")


def _bessel_row(alpha: float, max_order: int) -> np.ndarray:
    if not 0 < alpha <= _ALPHA_LIMIT:
        raise ValueError(f"alpha must lie in (0, {_ALPHA_LIMIT:g}]")
    orders = np.arange(max_order + 1)
    vals = jv(orders, 2.0 * math.sqrt(alpha))
    if not np.all(np.isfinite(vals)):
        raise ValueError("Bessel evaluation failed to converge")
    return vals


def bessel_kernel(alpha: float, x: int, y: int) -> float:
    """Discrete Bessel kernel
    B(x,y) = sqrt(alpha) (J_x J_{y+1} - J_{x+1} J_y) / (x - y), J_* at
    2 sqrt(alpha); the diagonal is the limit value sum_{k>=1} J_{x+k}^2,
    summed while the dropped orders are bounded by _TAIL_TOL."""
    if x < 0 or y < 0:
        raise ValueError("orders must be nonnegative")
    tail = int(max(60, 8 * math.sqrt(alpha)))
    J = _bessel_row(alpha, max(x, y) + tail + 40)
    if x != y:
        return math.sqrt(alpha) * (J[x] * J[y + 1] - J[x + 1] * J[y]) / (x - y)
    _check_bessel_tail(alpha, len(J))
    return float(np.sum(J[x + 1:] ** 2))


def _bessel_gram(alpha: float, lo: int, size: int) -> np.ndarray:
    """B restricted to {lo, ..., lo+size-1} via the series form
    B(x,y) = sum_{k>=1} J_{x+k} J_{y+k} (manifestly symmetric PSD), each
    series cut where the dropped orders are bounded by _TAIL_TOL."""
    tail = int(max(60, 8 * math.sqrt(alpha))) + 40
    J = _bessel_row(alpha, lo + size + tail)
    # by Cauchy-Schwarz an entry drops at most the squares from lo + tail + 1 on
    _check_bessel_tail(alpha, lo + tail + 1)
    T = np.stack([J[lo + i + 1: lo + i + 1 + tail] for i in range(size)])
    return T @ T.T


def lis_cdf(alpha: float, n: int) -> float:
    """P[LIS of the Poissonized ensemble <= n] = det(I - B) on {n, n+1, ...},
    truncated to a block whose dropped trace is bounded by _TAIL_TOL."""
    if n < 0:
        return 0.0
    size = int(max(60, 8 * math.sqrt(alpha)))
    B = _bessel_gram(alpha, n, size)
    # the rows dropped, x >= n + size, hold trace sum_{x >= n+size} B(x, x)
    _check_bessel_tail(alpha, n + size + 1)
    lam = np.clip(np.linalg.eigvalsh(B), 0.0, 1.0)
    return float(np.prod(1.0 - lam))
