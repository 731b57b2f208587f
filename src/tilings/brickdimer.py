"""Dimer model on the cylindrical brick lattice.

The graph has vertices v_{j,k} = (-1/2 + j, k) for 0 <= j <= 2M-1 (cyclic in
j) and 0 <= k <= 2N, vertical edges everywhere, and horizontal edges on the
brick pattern (even columns pair at even heights, odd columns at odd
heights).  A dimer cover is the same thing as a family of L non-intersecting
periodic +-1 walks, 0 <= L <= N: the walks traverse the vertical dimers, and
every vertex not visited by a walk carries a horizontal dimer.

With weight z per horizontal and w per vertical dimer, the model is solved
by the spectral data of the even-height restriction of the absorbing simple
walk on {0, ..., 2N}:

    phi_j(x)   = sqrt(2/(N+1)) sin(pi j (2x+1) / (2N+2)),  j = 1..N+1,
    lambda_j   = cos(pi j / (2N+2))^(2M)                    (j = N+1 gives 0),
    u_j        = (2w/z)^(2M) lambda_j / (1 + (2w/z)^(2M) lambda_j),

    Z = z^(M(2N+1)) prod_j (1 + (2w/z)^(2M) lambda_j),
    K(x, y) = sum_j phi_j(x) phi_j(y) u_j,

with determinantal starting-height correlations R_l = det K.  (The mode
functions are the sine eigenbasis of the absorbing walk; a cosine variant
sometimes quoted for this model fails the brute-force enumeration check,
which the tests here run at small sizes.)  Everything exponent-heavy is done
in log space so large M costs nothing in stability.

The exact partition polynomial counts the walk families by the
Lindström-Gessel-Viennot determinant of the 2M-step transfer matrix
(partition_polynomial), and the brute-force covers come from the
perfect-matching backtracker that also enumerates Aztec tilings
(shuffling._perfect_matchings).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .shuffling import _perfect_matchings

__all__ = [
    "BrickLatticeSpec",
    "DimerCover",
    "CylindricPathFamily",
    "kernel",
    "correlations",
    "partition_function",
    "log_partition_function",
    "partition_polynomial",
    "partition_function_exact",
    "free_energy",
    "free_energy_limit",
    "enumerate_dimers",
    "cover_to_paths",
    "paths_to_cover",
    "brick_edges",
]


@dataclass(frozen=True)
class BrickLatticeSpec:
    M: int
    N: int
    z: float = 1.0
    w: float = 1.0

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ValueError("M, N must be positive")
        if self.z <= 0 or self.w <= 0:
            raise ValueError("weights must be positive")

    @property
    def num_vertices(self) -> int:
        return 2 * self.M * (2 * self.N + 1)

    def log_activations(self) -> np.ndarray:
        """2M [log(2w/z) + log cos(pi j / (2N+2))] for modes j = 1..N+1.

        The top mode is exactly null (cos = 0), carried as -inf."""
        j = np.arange(1, self.N + 2)
        with np.errstate(divide="ignore"):
            logc = np.log(np.cos(np.pi * j / (2 * self.N + 2)).clip(min=0.0))
        return 2 * self.M * (math.log(2 * self.w / self.z) + logc)

    def mode_u(self) -> np.ndarray:
        """u_j in [0, 1), via a stable logistic of the log activation."""
        e = self.log_activations()
        out = np.empty_like(e)
        pos = e >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-e[pos]))
        out[~pos] = np.exp(e[~pos]) / (1.0 + np.exp(e[~pos]))
        return out


def _phi_matrix(spec: BrickLatticeSpec) -> np.ndarray:
    """Orthonormal mode basis P[s, t]; s is a height index and t a mode
    index, both in 0..N (mode t has frequency j = t + 1; the top mode
    carries an extra 1/sqrt(2))."""
    N = spec.N
    x = np.arange(N + 1)
    j = np.arange(1, N + 2)
    c = np.where(j == N + 1, 0.5, 1.0)
    return np.sqrt(2.0 * c / (N + 1)) * np.sin(
        np.pi * np.outer(2 * x + 1, j) / (2 * N + 2)
    )


def kernel(spec: BrickLatticeSpec) -> np.ndarray:
    """Starting-height correlation kernel on {0, ..., N}."""
    P = _phi_matrix(spec)
    return (P * spec.mode_u()) @ P.T


def correlations(spec: BrickLatticeSpec, points) -> float:
    """Probability that walks start at all the listed even heights 2x_i."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    if any(not 0 <= p <= spec.N for p in pts):
        raise ValueError("point outside 0..N")
    K = kernel(spec)
    return float(np.linalg.det(K[np.ix_(pts, pts)]))


def log_partition_function(spec: BrickLatticeSpec) -> float:
    e = spec.log_activations()
    return spec.M * (2 * spec.N + 1) * math.log(spec.z) + float(
        np.logaddexp(0.0, e).sum()
    )


def partition_function(spec: BrickLatticeSpec) -> float:
    """Z itself; a Z outside the normal double range raises ValueError."""
    log_z = log_partition_function(spec)
    if not math.log(sys.float_info.min) <= log_z <= math.log(sys.float_info.max):
        raise ValueError(f"Z = exp({log_z!r}) is outside the double range; "
                         f"log_partition_function gives log Z")
    return math.exp(log_z)


def free_energy(spec: BrickLatticeSpec) -> float:
    """Finite-size free energy per vertex, log Z / (2M(2N+1))."""
    return log_partition_function(spec) / spec.num_vertices


def free_energy_limit(z: float, w: float) -> float:
    """M, N -> infinity limit: (1/2) log z for w/z < 1/2, else
    (1/2) log z + (1/pi) integral_0^theta log((2w/z) cos s) ds, theta = arccos(z/2w).

    The 1/pi prefactor follows from the mode Riemann sum of the finite-size
    product (a sometimes-quoted 1/(2 pi) variant misses the finite-size
    values by a factor of two on the activated branch).  With h = pi/2 and
    u = h - s, log cos s = log(1 - s/h) + log(h sin u / u): the first part
    has a closed form and the analytic second a 24-node Gauss rule."""
    if z <= 0 or w <= 0:
        raise ValueError("weights must be positive")
    r = w / z
    if abs(r - 0.5) < 1e-12:
        raise ValueError("w/z = 1/2 is the critical point; the limit is not smooth there")
    if r < 0.5:
        return 0.5 * math.log(z)
    theta, h, k = math.acos(z / (2 * w)), math.pi / 2, np.arange(1, 24)
    nodes, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1), -1))  # Golub-Welsch
    u = h - theta * (nodes + 1) / 2
    val = (theta * math.log(2 * r) - (h - theta) * math.log1p(-theta / h) - theta
           + theta * float(v[0] ** 2 @ np.log(h * np.sin(u) / u)))
    return 0.5 * math.log(z) + val / math.pi


# ---------------------------------------------------------------------------
# Exact polynomial from the Lindström-Gessel-Viennot determinant
# ---------------------------------------------------------------------------


def partition_polynomial(M: int, N: int) -> dict[int, int]:
    """Exact path counts {L: G_L}: number of families of L non-intersecting
    periodic walks.  Z = sum_L G_L z^(M(2N+1)-2ML) w^(2ML).

    With B[i, j] = 1 where even height 2i neighbours odd height 2j+1,
    A = (B B^T)^M counts the 2M-step walks between even heights.  Walks on
    one line cannot cross without meeting, so by Lindström-Gessel-Viennot
    the families from the heights 2S back to 2S number det A[S, S], and G_L
    = e_L(A), the coefficient of t^L in det(I + tA).  A is formed on Python
    ints and its coefficients come from Faddeev-LeVerrier, whose divisions
    by k are exact.  A has the eigenvalues (2 cos(pi j/(2N+2)))^(2M),
    j = 1..N+1, so Z = z^(M(2N+1)) det(I + (w/z)^(2M) A) is
    partition_function in exact form.

    The work is N products of (N+1)-square matrices whose entries have
    O(MN) bits.  (N+1)^4 M > 10^7 is refused, which keeps a call under
    about 1 s on a 2-core box and admits N up to 55 at M = 1 and M up to
    39062 at N = 3."""
    BrickLatticeSpec(M, N)  # the size checks of the float path
    cost = (N + 1) ** 4 * M
    if cost > 10**7:
        raise ValueError(f"exact partition polynomial too large: (N+1)^4 M = {cost} > 10^7")
    h = np.arange(N + 1)
    B = (np.abs(2 * h[:, None] - 2 * h[:N] - 1) == 1).astype(object)
    A = np.linalg.matrix_power(B @ B.T, M)
    # e_k = tr(A C_k) / k, with C_1 = I and C_{k+1} = e_k I - A C_k
    e, C = [1], np.identity(N + 1, dtype=object)
    for k in range(1, N + 1):
        AC = A @ C
        q, rem = divmod(AC.trace(), k)
        if rem:
            raise AssertionError("a Faddeev-LeVerrier division is not exact")
        e.append(q)
        C = -AC
        C[h, h] += q
    return dict(enumerate(e))


def partition_function_exact(M: int, N: int, z: Fraction, w: Fraction) -> Fraction:
    z, w = Fraction(z), Fraction(w)
    BrickLatticeSpec(M, N, z, w)  # the checks of the float path
    GL = partition_polynomial(M, N)
    return sum(
        Fraction(g) * z ** (M * (2 * N + 1) - 2 * M * L) * w ** (2 * M * L)
        for L, g in GL.items()
    )


# ---------------------------------------------------------------------------
# Brute-force enumeration and the path bijection
# ---------------------------------------------------------------------------

DimerCover = tuple  # sorted tuple of ((j1,k1),(j2,k2),kind) edges
CylindricPathFamily = tuple  # tuple of per-line sorted height tuples, length 2M


def brick_edges(M: int, N: int) -> list[tuple]:
    edges = set()
    for j in range(2 * M):
        for k in range(2 * N):
            edges.add(((j, k), (j, k + 1), "v"))
    for j in range(M):
        for k in range(N + 1):
            a, b = (2 * j, 2 * k), ((2 * j + 1) % (2 * M), 2 * k)
            edges.add((min(a, b), max(a, b), "h"))
        for k in range(N):
            a, b = ((2 * j + 1) % (2 * M), 2 * k + 1), ((2 * j + 2) % (2 * M), 2 * k + 1)
            edges.add((min(a, b), max(a, b), "h"))
    return sorted(edges)


def enumerate_dimers(spec: BrickLatticeSpec) -> list[tuple[DimerCover, float]]:
    """All perfect matchings with their weights; refuses past 24 vertices.

    The vertices, in (j, k) order, pair the first one not yet covered with
    each free neighbour in brick_edges order."""
    M, N = spec.M, spec.N
    if spec.num_vertices > 24:
        raise ValueError(
            f"{spec.num_vertices} vertices exceeds the enumeration limit of 24"
        )
    index = {(j, k): (2 * N + 1) * j + k for j in range(2 * M) for k in range(2 * N + 1)}
    adjacency: list[list] = [[] for _ in index]
    for edge in brick_edges(M, N):
        a, b = index[edge[0]], index[edge[1]]
        adjacency[a].append((b, edge))
        adjacency[b].append((a, edge))
    out = []
    for cover in _perfect_matchings(adjacency):
        nh = sum(1 for e in cover if e[2] == "h")
        out.append((tuple(sorted(cover)), spec.z**nh * spec.w**(len(cover) - nh)))
    return out


def cover_to_paths(cover: DimerCover, M: int, N: int) -> CylindricPathFamily:
    """Read the non-intersecting periodic walks off a cover.

    The vertical dimers in vertex column j form the walk steps between lines
    t = j-1 and t = j (mod 2M); on line t the walk heights have parity t, so
    the endpoint of each step lying on a given line is determined by parity.
    """
    lines: list[set[int]] = [set() for _ in range(2 * M)]
    for (a, b, kind) in cover:
        if kind != "v":
            continue
        (j, k), (_, k2) = a, b
        lo, hi = min(k, k2), max(k, k2)
        tprev = (j - 1) % (2 * M)
        hprev = lo if lo % 2 == tprev % 2 else hi
        hnext = hi if hprev == lo else lo
        lines[tprev].add(hprev)
        lines[j % (2 * M)].add(hnext)
    return tuple(tuple(sorted(s)) for s in lines)


def paths_to_cover(lines: CylindricPathFamily, M: int, N: int) -> DimerCover:
    """Inverse of :func:`cover_to_paths`: vertical dimers from the steps,
    horizontal dimers on everything the walks do not visit.  Non-intersecting
    walks keep their vertical order, so the i-th lowest occupied height on
    one line steps to the i-th lowest on the next."""
    cover: set[tuple] = set()
    covered: set[tuple] = set()
    for j in range(2 * M):
        prev, here = sorted(lines[(j - 1) % (2 * M)]), sorted(lines[j])
        if len(prev) != len(here):
            raise ValueError("inconsistent line occupancies")
        for hp, hn in zip(prev, here):
            if abs(hp - hn) != 1:
                raise ValueError("path step is not +-1")
            lo = min(hp, hn)
            cover.add(((j, lo), (j, lo + 1), "v"))
            covered.update(((j, lo), (j, lo + 1)))
    for a, b, kind in brick_edges(M, N):
        if kind == "h" and a not in covered and b not in covered:
            cover.add((a, b, kind))
            covered.update((a, b))
    if len(covered) != 2 * M * (2 * N + 1):
        raise ValueError("path family does not induce a perfect matching")
    return tuple(sorted(cover))
