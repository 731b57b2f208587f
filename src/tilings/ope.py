"""Discrete orthogonal polynomial ensembles and their determinantal engine.

Weights (Krawtchouk, Hahn, associated Hahn) are evaluated in log-space via
log-gamma so that factorial-heavy parameters never overflow.  Orthonormal
systems are built from three-term recurrences run directly on the weighted
functions phi_n(x) = p_n(x) * sqrt(w(x)).  The Krawtchouk table keeps a
binary exponent per site, so intermediates far below the double range are
still exact; its exponent is checked only when a computed bound on the drift
since the last check says a value could leave the normal range, so most
degrees cost only their arithmetic.  An entry whose value is below 2^-511 is
stored as +0.0, in this table and in any table after its Newton-Schulz
polish, so no product of two entries is subnormal; this moves a Gram entry by
at most 2^-510 sqrt(K+1) (below 1e-150 for K <= 10^5).  The rank-N
projection kernel

    K(x, y) = sum_{n<N} phi_n(x) phi_n(y)

drives everything downstream: determinantal correlations, exact sequential
DPP sampling (every step draws its site by one routine, _draw_site), counting
statistics, gap probabilities and number variance.  Sites are read in one
place, ProjectionKernel._check_sites, which takes only integers in the window.

Recurrence coefficients: Krawtchouk has a simple closed form; both Hahn
families take their coefficients and their table from a Stieltjes/Lanczos
construction on the discrete weight, the only Hahn path.

The limit shapes are closed forms: the Krawtchouk density, edge and
fluctuation scale, the discrete sine kernel, and the Hahn edge, whose
supremum over the saturation constraint is taken exactly (no search).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "ConstructionError",
    "KernelConditionError",
    "DiscreteWeight",
    "OrthonormalSystem",
    "ProjectionKernel",
    "krawtchouk_recurrence",
    "build_orthonormal",
    "cd_kernel",
    "correlation",
    "sample_dpp",
    "sample_counts",
    "number_variance",
    "krawtchouk_density",
    "max_particle_cdf",
    "edge_constants",
    "edge_position",
    "discrete_sine_kernel",
    "hahn_edge",
    "hahn_edge_hexagon",
]


class ConstructionError(RuntimeError):
    """Orthonormal system failed its build-time validation."""


class KernelConditionError(RuntimeError):
    """Numerical loss of positivity while sampling."""


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def _log_gamma_run(c: float, n: int) -> np.ndarray:
    """log Gamma(c + k) for k = 0..n, c > 0."""
    return np.fromiter(map(math.lgamma, (c + np.arange(n + 1.0)).tolist()), float, n + 1)


@dataclass(frozen=True)
class DiscreteWeight:
    """A positive weight on the integer window {0, ..., size}."""

    family: str
    size: int
    params: tuple

    @classmethod
    def krawtchouk(cls, K: int, p: float) -> "DiscreteWeight":
        if not 0 < p < 1:
            raise ValueError("p must lie in (0,1)")
        return cls("krawtchouk", K, (p,))

    @classmethod
    def hahn(cls, N: int, alpha: float, beta: float) -> "DiscreteWeight":
        if alpha <= -1 or beta <= -1:
            raise ValueError("alpha, beta must exceed -1")
        return cls("hahn", N, (alpha, beta))

    @classmethod
    def associated_hahn(cls, N: int, alpha: float, beta: float) -> "DiscreteWeight":
        if alpha <= -1 or beta <= -1:
            raise ValueError("alpha, beta must exceed -1")
        return cls("associated_hahn", N, (alpha, beta))

    def log_weight(self) -> np.ndarray:
        N = int(self.size)
        lf = _log_gamma_run(1, N)  # log x!
        if self.family == "krawtchouk":
            (p,) = self.params
            x = np.arange(N + 1, dtype=float)
            return (
                lf[N] - lf - lf[::-1]
                + x * math.log(p) + (N - x) * math.log1p(-p)
            )
        alpha, beta = self.params
        # log Gamma(N + alpha - x + 1) and log Gamma(beta + x + 1)
        ga = _log_gamma_run(alpha + 1, N)[::-1]
        gb = _log_gamma_run(beta + 1, N)
        if self.family == "hahn":
            return ga + gb - lf - lf[::-1]
        if self.family == "associated_hahn":
            return -(lf + lf[::-1] + ga + gb)
        raise ValueError(f"unknown family {self.family!r}")

    def exact_weight(self, x: int) -> Fraction:
        """Exact rational weight; parameters must be rational (integral for
        the Hahn families)."""
        if not 0 <= x <= self.size:
            raise ValueError(f"site {x} outside window")
        N = self.size
        if self.family == "krawtchouk":
            p = Fraction(self.params[0]).limit_denominator(10**12)
            return Fraction(math.comb(N, x)) * p**x * (1 - p) ** (N - x)
        alpha, beta = map(int, self.params)
        if (alpha, beta) != tuple(self.params):
            raise ValueError(f"exact Hahn weights need integral parameters, got {self.params}")
        if self.family == "hahn":
            return Fraction(
                math.factorial(N + alpha - x) * math.factorial(beta + x),
                math.factorial(x) * math.factorial(N - x),
            )
        return Fraction(
            1,
            math.factorial(x) * math.factorial(N - x)
            * math.factorial(N + alpha - x) * math.factorial(beta + x),
        )


# ---------------------------------------------------------------------------
# Recurrence coefficients
# ---------------------------------------------------------------------------


def krawtchouk_recurrence(K: int, p: float, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal coefficients: x phi_n = a_{n+1} phi_{n+1} + b_n phi_n + a_n phi_{n-1}.

    Returns (a, b) with a[i] = a_{i+1} for i < nmax-1 and b[i] = b_i.
    """
    n = np.arange(1, nmax, dtype=float)
    a = np.sqrt(n * p * (1 - p) * (K + 1 - n))
    b = p * K + np.arange(nmax, dtype=float) * (1 - 2 * p)
    return a, b


def _lanczos(logw: np.ndarray, nmax: int):
    """Stieltjes/Lanczos construction on the discrete weight exp(logw) on
    the sites 0..logw.size - 1; a site with logw = -inf has weight 0.

    Works in the phi = p * sqrt(w) representation with full two-pass
    reorthogonalization, which keeps both the coefficients and the basis
    vectors accurate even when the raw weight spans hundreds of orders of
    magnitude.  Returns (a, b, basis); basis rows are the phi_n themselves,
    exactly 0 where the weight is.
    """
    if nmax > logw.size:
        raise ValueError("degree bound exceeds support size")
    w = np.exp(logw - logw.max())
    x = np.arange(logw.size, dtype=float)
    psi = np.sqrt(w)
    psi /= np.linalg.norm(psi)
    a = np.zeros(max(nmax - 1, 0))
    b = np.zeros(nmax)
    basis = np.empty((nmax, logw.size))
    basis[0] = psi
    for n in range(nmax):
        b[n] = np.dot(x * basis[n], basis[n])
        if n == nmax - 1:
            break
        r = (x - b[n]) * basis[n]
        if n > 0:
            r -= a[n - 1] * basis[n - 1]
        B = basis[: n + 1]
        r -= B.T @ (B @ r)
        r -= B.T @ (B @ r)
        norm = np.linalg.norm(r)
        if norm == 0 or not np.isfinite(norm):
            raise ConstructionError(f"Lanczos breakdown at degree {n + 1}")
        a[n] = norm
        basis[n + 1] = r / norm
    return a, b, basis


# ---------------------------------------------------------------------------
# Orthonormal systems
# ---------------------------------------------------------------------------


@dataclass
class OrthonormalSystem:
    """Table of phi_n(x) = p_n(x) sqrt(w(x)) for 0 <= n < num_degrees.

    ``log_total_weight`` is log(sum_x w(x)); leading coefficients follow from
    kappa_0 = exp(-log_total_weight / 2) and kappa_n = kappa_{n-1} / a_n.
    """

    weight: DiscreteWeight
    rank: int                  # requested ensemble size N
    num_degrees: int           # table rows (N+1 when the support allows)
    a: np.ndarray
    b: np.ndarray
    table: np.ndarray          # shape (num_degrees, size+1)
    log_total_weight: float
    orthonormality_residual: float = field(default=0.0)
    # Set when the Newton-Schulz polish ran on a table with the row phi_N:
    # (phi_N, phi_{N-1}) and sum_{n<N} phi_n^2 as the build gave them.  The
    # polish moves the table off its three-term recurrence, and with it the
    # Christoffel-Darboux form of the rank-N kernel (see sample_dpp).
    unpolished: tuple | None = field(default=None)

    @property
    def size(self) -> int:
        return self.weight.size

    def log_kappa(self, n: int) -> float:
        return -0.5 * self.log_total_weight - float(np.sum(np.log(self.a[:n])))

    def kappa(self, n: int) -> float:
        return math.exp(self.log_kappa(n))


# A check leaves the pair (u, v) of _phi_table with |log2 m| <= 512, and the
# next check comes before the steps since could have moved m by more than this
# many bits: so m stays normal, with 4 bits spare, and every intermediate finite.
_DRIFT = 1022 - 512 - 4


# A stored table entry below 2^_FLUSH in magnitude is +0.0.  2^-511 is the
# smallest power of two whose square, 2^-1022, is still a normal double, so
# no product of two stored entries is subnormal, and no Gram product
# (phi phi^T, or a Newton-Schulz step) takes the floating-point unit's slow
# path for subnormal results.  A Gram entry sum_x phi_i(x) phi_j(x) of unit
# rows loses only terms with a factor below 2^-511, so by Cauchy-Schwarz it
# moves by at most 2^-511 (|phi_i|_1 + |phi_j|_1) <= 2^-510 sqrt(K+1), below
# 1e-150 for K <= 10^5.
_FLUSH = -511

# Elements per pass of _ldexp_columns: 2^15 doubles (256 KiB), with its two
# scratch arrays about 0.53 MiB, which stays in one core's L2 cache on
# current x86 server cores (1-2 MiB).
_CHUNK = 1 << 15


def _ldexp_columns(block: np.ndarray, e: np.ndarray | None) -> None:
    """In place, ``block = np.ldexp(block, e)`` with ``e`` (int32) per
    column, every result below 2^_FLUSH = 2^-511 in magnitude stored as
    +0.0, for finite ``block``.  With ``e`` None the block is only flushed
    (a pass that ldexp by 0 would add 60% to).

    The flush comes first, in block units: |block| < 2^(-511 - e) is the
    same test as |ldexp(block, e)| < 2^-511, and 2^(-511 - e) is a double
    (inf from e <= -1535 on, which flushes the whole column; clipped to
    2^-1074 from e >= 563 on, where only zeros flush).  np.ldexp then sees
    only zeros and entries whose result is normal or overflows, so it never
    takes its slow path for subnormal results, and each kept entry is
    ldexp's result bit for bit.  Rows go through in chunks of _CHUNK
    elements, so each chunk is read from memory once.
    """
    thr = 2.0**_FLUSH
    if e is not None:
        with np.errstate(over="ignore"):
            thr = np.ldexp(1.0, np.clip(_FLUSH - e, -1074, 1024))
    rows = max(1, _CHUNK // block.shape[1])
    mag = np.empty((min(rows, len(block)), block.shape[1]))
    flush = np.empty(mag.shape, dtype=bool)
    for i in range(0, len(block), rows):
        chunk = block[i:i + rows]
        m, f = mag[:len(chunk)], flush[:len(chunk)]
        np.abs(chunk, out=m)
        np.less(m, thr, out=f)
        np.copyto(chunk, 0.0, where=f)
        if e is not None:
            np.ldexp(chunk, e, out=chunk)


def _phi_table(x: np.ndarray, logw: np.ndarray, a: np.ndarray, b: np.ndarray,
               nrows: int) -> np.ndarray:
    """Run the three-term recurrence on phi with a binary exponent per site.

    The pair (phi_{n-1}, phi_n) at each site is kept as (u, v) * 2^E with E
    an integer array, so starting values far below the double underflow
    threshold still grow back into range exactly when they should.  With
    m = max(|u|, |v|) and s_n = max(|x_0 - b_n|, |x_K - b_n|), step n grows m
    by at most max(1, (s_n + a_{n-1}) / a_n) and shrinks it by at most
    max(1, (s_n + a_n) / a_{n-1}) (the first step cannot shrink it).  The log2
    of these bounds is summed from the last check, and the pair is checked
    only before a step that could carry m (or the step's numerator, at most
    (s_n + a_{n-1}) m) more than _DRIFT bits from it: then each site where m
    left [2^-512, 2^512] is rescaled by 2^512 or 2^-512.  Scaling by a power of
    two is exact for normal doubles, so the table is the one a check at every
    degree gives.  Each step writes v straight into its row; a block of rows
    between checks gets its exponent E when the block closes, in the pass of
    _ldexp_columns that also stores every entry below 2^_FLUSH = 2^-511 as
    +0.0.
    Every other entry is the one the per-degree check gives, bit for bit.
    """
    LIM = 512
    lw2 = 0.5 * logw / math.log(2.0)
    E = np.floor(lw2).astype(np.int64)
    out = np.empty((nrows, x.size))
    out[0] = np.exp2(lw2 - E)
    u, v = np.zeros_like(out[0]), out[0]
    tmp = np.empty_like(u)
    a_prev = np.concatenate(([0.0], a))[:-1]   # a_{n-1}; step 0 has no u term
    s = np.maximum(np.abs(x[0] - b[:-1]), np.abs(x[-1] - b[:-1]))
    with np.errstate(divide="ignore"):
        grow = np.log2(np.maximum(1.0, (s + a_prev) / a))
        shrink = np.log2(np.maximum(1.0, (s + a) / a_prev))
        numer = np.maximum(grow, np.log2(s + a_prev))
    shrink[:1] = 0.0

    def close(block):
        # the clip changes no entry: from E <= -1535 on a column is flushed
        # whole, and from E >= 2098 on every nonzero entry overflows
        _ldexp_columns(block, np.clip(E, -4000, 4000).astype(np.int32))

    start, up, down = 0, 0.0, 0.0
    for n, (g, h, d) in enumerate(zip(grow.tolist(), numer.tolist(), shrink.tolist())):
        if up + h > _DRIFT or down + d > _DRIFT:
            m = np.maximum(np.abs(u), np.abs(v))
            shift = np.zeros_like(E)
            shift[m > 2.0**LIM] = -LIM
            shift[(m > 0) & (m < 2.0**-LIM)] = LIM
            if shift.any():
                u = np.ldexp(u, shift.astype(np.int32))
                v = np.ldexp(v, shift.astype(np.int32))
                close(out[start:n + 1])
                E -= shift
                start = n + 1
            up = down = 0.0
        row = out[n + 1]
        np.subtract(x, b[n], out=row)
        row *= v
        if n > 0:
            np.multiply(a[n - 1], u, out=tmp)
            row -= tmp
        row /= a[n]
        u, v = v, row
        up += g
        down += d
    close(out[start:])
    return out


# A table whose Gram matrix G has a raw residual max|G - I| above this is
# rejected: build_orthonormal polishes residuals up to it, and the gap ratio
# of max_particle_cdf accepts the raw table up to it.
_RESIDUAL_MAX = 1e-9


def _check_gram(G: np.ndarray, bound: float) -> float:
    """max|G - I|; raises :class:`ConstructionError` naming the worst degree
    pair when it is above ``bound`` or not finite."""
    E = np.abs(G - np.eye(len(G)))
    residual = float(E.max())
    if not residual <= bound:
        i, j = np.unravel_index(E.argmax(), E.shape)  # argmax finds a NaN too
        raise ConstructionError(
            f"orthonormality residual {residual:.3e} at degrees ({i},{j})"
        )
    return residual


def build_orthonormal(weight: DiscreteWeight, N: int,
                      validate: bool = True) -> OrthonormalSystem:
    """Build phi_0..phi_N (one degree beyond the kernel rank N, when the
    support allows, so the Christoffel-Darboux form is available).

    With ``validate``, raises :class:`ConstructionError` naming the failing
    degree pair when the orthonormality residual of the table exceeds
    _RESIDUAL_MAX = 1e-9, or, after the Newton-Schulz polish that residuals
    above 1e-13 get, 1e-10.  A polished table, like a raw Krawtchouk one,
    stores its entries below 2^-511 as +0.0.
    """
    if not 1 <= N <= weight.size + 1:
        raise ValueError(f"rank N={N} out of range 1..{weight.size + 1}")
    nrows = min(N + 1, weight.size + 1)
    logw = weight.log_weight()
    # log sum(w) via a stable log-sum-exp
    mx = logw.max()
    log_total = mx + math.log(np.exp(logw - mx).sum())
    if weight.family == "krawtchouk":
        # the closed-form recurrence run on phi is far cheaper than Lanczos
        # at large windows, but not stable at every rank: at K = 2000,
        # p = 0.4, ranks 600 and 971 pass validation, while 972 (residual
        # 1.2e-9) and 1000 (1.8e-7) raise ConstructionError
        a, b = krawtchouk_recurrence(weight.size, weight.params[0], nrows)
        x = np.arange(weight.size + 1, dtype=float)
        table = _phi_table(x, logw - log_total, a, b, nrows)
    else:
        a, b, table = _lanczos(logw, nrows)
    residual = 0.0
    unpolished = None
    if validate:
        G = table @ table.T
        residual = _check_gram(G, _RESIDUAL_MAX)
        if residual > 1e-13:
            if nrows == N + 1:
                unpolished = (table[[N, N - 1]], np.einsum("nx,nx->x", table[:N], table[:N]))
            # one Newton-Schulz step towards the symmetric orthonormal basis
            # of the same span: with G = I + E the new Gram matrix is
            # I - 3E^2/4 + O(E^3), so kernel projection algebra holds to
            # machine precision (perturbs each function by ~residual); the
            # product can fall below 2^-511 again, so it is flushed as the
            # raw table is, within the same Gram bound
            table = (1.5 * np.eye(nrows) - 0.5 * G) @ table
            _ldexp_columns(table, None)
            residual = _check_gram(table @ table.T, 1e-10)
    return OrthonormalSystem(
        weight=weight, rank=N, num_degrees=nrows, a=a, b=b, table=table,
        log_total_weight=log_total, orthonormality_residual=residual,
        unpolished=unpolished,
    )


# ---------------------------------------------------------------------------
# Projection kernels
# ---------------------------------------------------------------------------


@dataclass
class ProjectionKernel:
    """Rank-N reproducing kernel on {0, ..., size}."""

    system: OrthonormalSystem
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank {self.rank} is negative")
        if self.rank > self.system.num_degrees:
            raise ValueError("rank exceeds available degrees")
        self._phi = self.system.table[: self.rank]
        self._matrix = None
        self._diag = None

    @property
    def size(self) -> int:
        return self.system.size

    def _diagonal(self) -> np.ndarray:
        """K(x, x) for every site, computed once; callers must not write to it."""
        if self._diag is None:
            self._diag = np.einsum("nx,nx->x", self._phi, self._phi)
        return self._diag

    def diagonal(self) -> np.ndarray:
        return self._diagonal().copy()

    def trace(self) -> float:
        return float(self._diagonal().sum())

    def _check_sites(self, sites) -> np.ndarray:
        """``sites`` as an integer array; raises ValueError unless every site
        is an integer in 0..size (a float is not cast, and a negative site is
        not read from the other end of the window)."""
        sites = np.asarray(sites)
        if not sites.size:
            return sites.astype(int)
        if not np.issubdtype(sites.dtype, np.integer):
            raise ValueError(f"sites must be integers, got {sites.dtype} values")
        if not (0 <= sites.min() and sites.max() <= self.size):
            raise ValueError(f"site outside the support 0..{self.size}")
        return sites

    def row(self, x: int) -> np.ndarray:
        """K(x, .) over the window; x must be an integer in 0..size."""
        return self._phi[:, self._check_sites(x)] @ self._phi

    def block(self, I, J=None) -> np.ndarray:
        """K restricted to rows I and columns J (default I); every site must
        be an integer in 0..size."""
        I = self._check_sites(I)
        J = I if J is None else self._check_sites(J)
        return self._phi[:, I].T @ self._phi[:, J]

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._phi.T @ self._phi
        return self._matrix

    @functools.cached_property
    def _cd_form(self):
        """(G, d, a_N, log w) for the Christoffel-Darboux phase of
        sample_dpp, or None where it does not apply; computed once, read only.

        G holds the rows (phi_N, phi_{N-1}), so that for x != y
        (x - y) K(x, y) = a_N (G_0(x) G_1(y) - G_1(x) G_0(y)), and d is
        K(x, x).  That needs the table row phi_N and a table that satisfies
        its own three-term recurrence, to within _RECURRENCE_MAX.  After a
        polish, G and d come from the unpolished table, which satisfies it
        two orders of magnitude more closely, and only the rank-N kernel has
        them.  log w is -inf where d is 0, where every phi_n, n < N, is 0:
        a Krawtchouk table stores values below 2^-511 as 0, and a Lanczos
        table is 0 where the weight underflowed."""
        s, N = self.system, self.rank
        if N + 1 > s.num_degrees or not _recurrence_residual(s, N) <= _RECURRENCE_MAX:
            return None
        if s.unpolished is None:
            G, d = s.table[[N, N - 1]], self._diagonal()
        elif N == s.rank:
            G, d = s.unpolished
        else:
            return None
        logw = np.where(d > 0, s.weight.log_weight(), -np.inf)
        for arr in (G, d, logw):
            arr.flags.writeable = False
        return G, d, float(s.a[N - 1]), logw


def cd_kernel(system: OrthonormalSystem, rank: int | None = None) -> ProjectionKernel:
    """Projection kernel of the ensemble with ``rank`` particles (defaults to
    the rank the system was built for)."""
    return ProjectionKernel(system=system, rank=system.rank if rank is None else rank)


def correlation(kernel: ProjectionKernel, points) -> float:
    """Determinantal correlation rho(points) = det K restricted to them."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError(f"duplicate points in {pts}")
    if not pts:
        return 1.0
    return float(np.linalg.det(kernel.block(pts)))


# Points left to the sequential sampler on a rebuilt kernel when the
# Christoffel-Darboux phase of sample_dpp hands over: the last steps have the
# smallest pivots, which amplify the error of the Christoffel-Darboux kernel.
_HANDOVER = 32
# The Christoffel-Darboux phase runs only on tables whose three-term
# recurrence residual is at most this: the valid tables measured reached
# 1.1e-10 (K=200, N=150) and 2.1e-11 (K=4000, N=2000); a table with one row
# negated or overwritten is off by O(1).
_RECURRENCE_MAX = 1e-9
# Bound on max|d - diag(Psi^T Psi)| at the hand-over.
_CERTIFICATE_MAX = 1e-8
# Table rows per block of _recurrence_residual.
_RESIDUAL_ROWS = 64


def _recurrence_residual(system: OrthonormalSystem, rank: int) -> float:
    """max |x phi_n - a_{n+1} phi_{n+1} - b_n phi_n - a_n phi_{n-1}| over the
    sites and n < rank, in blocks of _RESIDUAL_ROWS rows (so no rank x size
    temporary); NaN when the table is not finite."""
    T, a, b = system.table, system.a, system.b
    x = np.arange(T.shape[1], dtype=float)
    worst = 0.0
    for n0 in range(0, rank, _RESIDUAL_ROWS):
        n1 = min(n0 + _RESIDUAL_ROWS, rank)
        r = (x - b[n0:n1, None]) * T[n0:n1]
        r -= a[n0:n1, None] * T[n0 + 1:n1 + 1]
        m0 = max(n0, 1)
        r[m0 - n0:] -= a[m0 - 1:n1 - 1, None] * T[m0 - 1:n1 - 1]
        worst = max(worst, float(np.abs(r).max()))  # max() keeps a NaN
    return worst


def _check_diagonal(d: np.ndarray, step: int) -> None:
    """Raises :class:`KernelConditionError` when the conditional diagonal d
    has an entry below -1e-8."""
    if d.min() < -1e-8:
        raise KernelConditionError(f"conditional diagonal reached {d.min():.3e} at step {step}")


def _draw_site(d: np.ndarray, left: int, step: int, rng: np.random.Generator) -> int:
    """A site x drawn with probability proportional to the clipped
    conditional diagonal max(d, 0), by one ``rng.random()`` scaled to its
    mass, so d(x) > 0.  Raises :class:`KernelConditionError` when d fails
    _check_diagonal or its clipped mass differs from ``left``, the points
    still to draw, by more than 1e-6."""
    _check_diagonal(d, step)
    p = np.maximum(d, 0.0)
    cdf = p.cumsum()
    tot = cdf[-1]
    if not abs(tot - left) <= 1e-6:
        raise KernelConditionError(
            f"conditional diagonal has mass {tot:.9g} at step {step}, expected {left}"
        )
    x = int(cdf.searchsorted(rng.random() * tot, side="right"))
    if x == d.size:  # the product rounded up to the mass
        x = int(np.flatnonzero(p)[-1])
    return x


def _sample_sequential(phi: np.ndarray, diag: np.ndarray, rng: np.random.Generator,
                       step: int = 0) -> np.ndarray:
    """The projection DPP onto the orthonormal rows ``phi``, whose diagonal
    is ``diag``, by sequential conditioning in coefficient space (see
    sample_dpp); returns the sites in the order drawn.  ``step`` is the
    number of the first step in error messages."""
    N = phi.shape[0]
    U = np.empty((N, N))
    d = diag.copy()
    chosen = np.empty(N, dtype=int)
    for i in range(N):
        x = _draw_site(d, N - i, step + i, rng)
        piv = d[x]
        v = phi[:, x] - (U[:i] @ phi[:, x]) @ U[:i]
        if piv < diag[x] / 16:
            # one pass multiplies the orthogonality error of U by up to
            # sqrt(K(x,x) / d(x)); left unchecked, small pivots compound
            # it until d drops below -1e-8.  A second pass resets it
            # ("twice is enough").
            v -= (U[:i] @ v) @ U[:i]
        U[i] = v / math.sqrt(v @ v)
        w = U[i] @ phi
        d -= w * w
        d[x] = 0.0
        chosen[i] = x
    _check_diagonal(d, step + N)
    return chosen


def _sample_cd(kernel: ProjectionKernel, rng: np.random.Generator) -> np.ndarray:
    """All but the last _HANDOVER points of a draw, by the Christoffel-Darboux
    form of the conditional kernels, then the rest by _sample_sequential on
    a rebuilt table; returns the sites in the order drawn."""
    G0, d0, a, logw = kernel._cd_form
    N = kernel.rank
    M = G0.shape[1]
    k = np.arange(1 - M, M, dtype=float)      # k + M - 1 indexes y - x = k
    with np.errstate(divide="ignore"):
        recip = 1.0 / k
        logsq = 2.0 * np.log(np.abs(k))        # -inf at k = 0
    recip[M - 1] = 0.0
    G = G0.copy()
    d = d0.copy()
    logw = logw.copy()
    head = N - _HANDOVER
    chosen = np.empty(head, dtype=int)
    for i in range(head):
        x = _draw_site(d, N - i, i, rng)
        piv = d[x]
        # t = c / d(x) for the column c = K_i(., x) of the conditional
        # kernel, and the update that keeps (x - y) K_{i+1}(x, y) =
        # a (G_0(x) G_1(y) - G_1(x) G_0(y)) with K_{i+1} = K_i - c c^T / d(x)
        # (Gohberg-Kailath-Olshevsky 1995)
        s = a / piv
        t = np.dot((s * G[1, x], -s * G[0, x]), G)
        t *= recip[M - 1 - x:2 * M - 1 - x]
        t[x] = 1.0                             # so G(x) and d(x) become 0
        c = t * t
        c *= piv
        d -= c
        d[x] = 0.0
        G -= G[:, x, None] * t
        logw += logsq[M - 1 - x:2 * M - 1 - x]
        chosen[i] = x
    psi = _rebuild(kernel, chosen, logw, d)
    tail = _sample_sequential(psi, np.einsum("nx,nx->x", psi, psi), rng, step=head)
    return np.concatenate((chosen, tail))


def _rebuild(kernel: ProjectionKernel, chosen: np.ndarray, logw: np.ndarray,
             d: np.ndarray) -> np.ndarray:
    """Orthonormal rows Psi of the kernel conditioned on the ``chosen``
    sites, rebuilt without the steps that gave ``d``, its diagonal.

    The conditional DPP is the OPE of the weight w(y) prod (y - x)^2 over the
    chosen x, whose log is ``logw``, and Psi is its Lanczos table.  Where
    that weight spans more than the double range (next to a saturated
    region) and the table misses, Psi spans the functions of the kernel's
    table that vanish on the chosen sites (one QR).  Raises
    :class:`KernelConditionError` when max|d - diag(Psi^T Psi)| exceeds
    _CERTIFICATE_MAX for both."""
    def miss(psi):
        return float(np.abs(d - np.einsum("nx,nx->x", psi, psi)).max())

    try:
        psi = _lanczos(logw, kernel.rank - chosen.size)[2]
    except ConstructionError:  # fewer sites left in the double range than points
        psi = None
    if psi is not None and miss(psi) <= _CERTIFICATE_MAX:
        return psi
    Q = np.linalg.qr(kernel._phi[:, chosen], mode="complete")[0]
    psi = Q[:, chosen.size:].T @ kernel._phi
    worst = miss(psi)
    if not worst <= _CERTIFICATE_MAX:
        raise KernelConditionError(f"hand-over certificate {worst:.3e} at step {chosen.size}")
    return psi


def sample_dpp(kernel: ProjectionKernel, rng: np.random.Generator) -> np.ndarray:
    """Exact sample of the rank-N projection DPP by sequential conditioning
    (Hough-Krishnapur-Peres-Virag 2006, Alg. 18): step i picks x with
    probability proportional to the conditional diagonal d.

    Above rank _HANDOVER = 32, on a kernel with the table row phi_N whose
    table satisfies its three-term recurrence (an orthogonal polynomial
    ensemble, checked once per kernel), all but the last 32 points come from
    the Christoffel-Darboux form: the conditional kernels K_i keep
    (x - y) K_i(x, y) = a_N (G_0(x) G_1(y) - G_1(x) G_0(y)) with a (2, size+1)
    generator G, starting from (phi_N, phi_{N-1}), so a step costs O(size):
    x is drawn, c = K_i(., x) comes from G, then d -= c^2 / d(x) and
    G -= G(x) c / d(x).  The last 32 points are drawn on an exact rebuild of
    the conditional kernel, Psi^T Psi, where Psi is the Lanczos table of the
    weight w(y) prod (y - x)^2 over the chosen x or, where that weight spans
    beyond the double range (next to a saturated region), the table's
    functions that vanish at the chosen x (one QR); the hand-over
    certificate max|d - diag(Psi^T Psi)| <= 1e-8 must hold.

    Every other kernel, and the rebuilt tail, is drawn one step at a time in
    coefficient space: step i draws x, appends the unit vector u_i along
    phi_x minus its projection on u_0..u_{i-1} to the orthonormal rows U,
    projecting twice when d(x) < K(x, x) / 16, then sets d -= (u_i phi)^2
    and d(x) = 0.

    Both draw x the same way (_draw_site): one ``rng.random()``, scaled to
    the mass of the clipped diagonal max(d, 0), is searched in its CDF.
    Raises :class:`KernelConditionError` when, at any step or at the end,
    the diagonal drops below -1e-8 or its clipped mass differs from N - i by
    more than 1e-6 (a kernel that is not a rank-N projection), or on a
    missed hand-over certificate.
    """
    if kernel.rank > _HANDOVER and kernel._cd_form is not None:
        chosen = _sample_cd(kernel, rng)
    else:
        chosen = _sample_sequential(kernel._phi, kernel._diagonal(), rng)
    chosen.sort()
    return chosen


def sample_counts(kernel: ProjectionKernel, interval, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` copies of the particle count in ``interval``.

    Uses the exact law of the counting statistic of a determinantal process:
    a sum of independent Bernoulli variables whose success probabilities are
    the eigenvalues of the kernel restricted to the interval.
    """
    lam = np.clip(np.linalg.eigvalsh(kernel.block(interval)), 0.0, 1.0)
    return (rng.random((size, lam.size)) < lam).sum(axis=1)


def number_variance(kernel: ProjectionKernel, interval) -> float:
    """var nu(I) = sum_{j in I} K(j,j) - sum_{i,j in I} K(i,j)^2."""
    B = kernel.block(interval)
    v = float(np.trace(B) - (B * B).sum())
    if v < -1e-8:
        raise RuntimeError(f"negative variance {v}")
    return max(v, 0.0)


def _max_particle_cdf(table: np.ndarray, rank: int, s: int) -> float:
    """P[max particle <= s] of the projection DPP onto the span of the first
    ``rank`` rows Phi of ``table``, as the Gram-determinant ratio

        det(Phi_B Phi_B^T) / det(Phi Phi^T),   B = {0, ..., s}.

    For orthonormal rows this is det(I - K) on the complement of B
    (Sylvester's identity), and the ratio is unchanged when Phi is replaced
    by C Phi for any invertible C, so the rows need only span the right
    space.  That span is trusted only while the Gram matrix of all rows of
    ``table`` is within _RESIDUAL_MAX = 1e-9 of the identity, the bound
    build_orthonormal applies; above it :class:`ConstructionError` is
    raised.  The ``rank`` particles sit on distinct sites, so s + 1 < rank
    gives exactly 0.0.

    A Krawtchouk table stores its entries below 2^-511 as zero, so neither
    Gram product meets a subnormal product.  Against the unflushed table,
    each Gram entry moves by at most 2^-510 sqrt(size+1) and the ratio by
    about 2 rank^2 times that.
    """
    size = table.shape[1] - 1
    if s >= size:
        return 1.0
    if s + 1 < rank:
        return 0.0
    B, A = table[:, : s + 1], table[:, s + 1:]
    GB = B @ B.T
    G = A @ A.T
    G += GB
    _check_gram(G, _RESIDUAL_MAX)
    sign, logdet_b = np.linalg.slogdet(GB[:rank, :rank])
    if sign <= 0:  # det(G_B) is not positive
        return 0.0
    return min(1.0, math.exp(float(logdet_b - np.linalg.slogdet(G[:rank, :rank])[1])))


def max_particle_cdf(kernel: ProjectionKernel, s: int) -> float:
    """P[max particle <= s] = det(I - K) on {s+1, ..., size}, computed as
    the ratio det(Phi_B Phi_B^T) / det(Phi Phi^T), B = {0, ..., s}, of the
    kernel's functions Phi, which needs the span of Phi and not an
    orthonormal basis of it (see _max_particle_cdf).  Raises
    :class:`ConstructionError` when max|Phi Phi^T - I| exceeds 1e-9; exactly
    0.0 when s + 1 is below the rank."""
    return _max_particle_cdf(kernel._phi, kernel.rank, s)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def krawtchouk_density(t: float, xi: float) -> float:
    """Bulk density (mean particles per site) of the symmetric ensemble at
    filling fraction t, evaluated at xi in [0, 1].

    (1/pi) arctan( sqrt(t(1-t) - (xi-1/2)^2) / sqrt(1/4 - t(1-t)) ), set to 0
    outside [1/2 - sqrt(t(1-t)), 1/2 + sqrt(t(1-t))].  Integrates to t over
    [0, 1], i.e. it is normalized per site, not as a probability density.
    """
    if not 0 < t <= 0.5:
        raise ValueError("t must lie in (0, 1/2]")
    s2 = t * (1 - t) - (xi - 0.5) ** 2
    if s2 <= 0:
        return 0.0
    c2 = 0.25 - t * (1 - t)
    if c2 <= 0:
        return 0.5
    return math.atan(math.sqrt(s2) / math.sqrt(c2)) / math.pi


def edge_position(t: float, p: float) -> float:
    """Scaled position of the largest particle for weight parameter p and
    filling fraction t: (1-t) p + t q + 2 sqrt(p q t (1-t)), q = 1 - p."""
    if not 0 < t < 1:
        raise ValueError("t must lie in (0,1)")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0,1)")
    q = 1.0 - p
    return (1 - t) * p + t * q + 2 * math.sqrt(p * q * t * (1 - t))


def edge_constants(t: float, p: float) -> tuple[float, float]:
    """Edge position beta(t) together with the fluctuation scale rho(t).

    rho multiplies the K^{1/3} fluctuations of the largest particle and is
    only defined when p t < q (1-t); outside that domain the pair is
    rejected (use :func:`edge_position` when only beta is needed).
    """
    beta = edge_position(t, p)
    q = 1.0 - p
    if p * t >= q * (1 - t):
        raise ValueError("rho requires p t < q (1-t)")
    rho = (
        (p * q / (t * (1 - t))) ** (1 / 6)
        * (math.sqrt(p * (1 - t)) + math.sqrt(q * t)) ** (2 / 3)
        * (math.sqrt(q * (1 - t)) - math.sqrt(p * t)) ** (2 / 3)
    )
    return beta, rho


def discrete_sine_kernel(u) -> float:
    """sin(pi u / 2) / (pi u), with the coincidence value 1/2 at u = 0."""
    u = float(u)
    if u == 0.0:
        return 0.5
    return math.sin(math.pi * u / 2.0) / (math.pi * u)


def hahn_edge(t: float, alpha0: float) -> float:
    """Right endpoint of the support of the constrained equilibrium measure,
    (1/t) sup_{0<s<=t} g(s) with
    g(s) = 1/2 + sqrt(s (1-s) (s + 2 alpha0) (s + 2 alpha0 + 1)) / (2 (s + alpha0)).

    With u = s + alpha0, g(s) = 1/2 + sqrt(1 - (u - alpha0 (alpha0+1) / u)^2) / 2,
    which rises to exactly 1 (saturation) at s* = sqrt(alpha0 (alpha0+1)) - alpha0
    and falls after it, so the edge is g(t) / t for t < s* and 1 / t from s* on."""
    if not 0 < t < 1:
        raise ValueError("t must lie in (0,1)")
    if alpha0 < 0:
        raise ValueError("alpha0 must be nonnegative")
    if t >= math.sqrt(alpha0 * (alpha0 + 1)) - alpha0:
        return 1.0 / t
    g = 0.5 + math.sqrt(t * (1 - t) * (t + 2 * alpha0) * (t + 2 * alpha0 + 1)) / (2 * (t + alpha0))
    return g / t


def hahn_edge_hexagon(lam: float, mu: float) -> float:
    """Closed-form edge for the hexagon column parametrization
    (t, alpha0) = (mu/(mu+1), (lam-mu)/(mu+1)):
    (mu+1)/(2 mu) + sqrt((2 lam + 1) mu (2 lam - mu)) / (2 lam mu)."""
    if lam <= 0 or not 0 < mu <= lam:
        raise ValueError("need lam > 0 and 0 < mu <= lam")
    return (mu + 1) / (2 * mu) + math.sqrt((2 * lam + 1) * mu * (2 * lam - mu)) / (
        2 * lam * mu
    )
