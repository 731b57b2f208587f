"""Rhombus tilings of the abc-hexagon as non-intersecting Bernoulli walks.

A tiling of the hexagon with sides a, b, c (a >= b; otherwise relabel) is
equivalent to c non-intersecting +-1 walks S^k(m), 0 <= m <= a+b, from
S^k(0) = 2(k-1) to S^k(a+b) = a - b + 2(k-1).  On the column x = m the walks
occupy particle positions x_k = (S^k(m) - alpha_m)/2 in {0, ..., gamma_m};
the L_m complementary sites are the holes, one per vertical rhombus.

Exact machinery: column prefix counts as determinants of binomial
coefficients (integer arithmetic), MacMahon's product formula as one big-int
ratio over the anti-diagonals of the a x b base, and the exact column laws
(holes are a Hahn ensemble, particles an associated Hahn ensemble), whose
orthonormal functions draw exactly uniform tilings column by column at any
size.  A checkerboard heat-bath chain of lozenge flips (one bit per site)
keeps the uniform law.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ope

__all__ = [
    "HexagonSpec",
    "WalkFamily",
    "column_bounds",
    "lgv_count",
    "macmahon",
    "column_law",
    "ensemble_law_exact",
    "enumerate_walks",
    "sample_hexagon",
    "plane_partition_height",
    "corner_gue_statistics",
    "arctic_boundary",
    "corner_gue_exponent",
    "walks_to_hole_columns",
    "LozengeChain",
]


@dataclass(frozen=True)
class HexagonSpec:
    """Hexagon sides; a >= b is required (relabel the other case)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 1:
            raise ValueError("sides must be positive")
        if self.a < self.b:
            raise ValueError("use a >= b (swap a and b: the tiling count and "
                             "column laws are symmetric)")

    @property
    def columns(self) -> int:
        return self.a + self.b


def column_bounds(spec: HexagonSpec, m: int) -> tuple[int, int, int, int, int]:
    """(alpha_m, beta_m, gamma_m, L_m, delta_m) for the column x = m."""
    a, b, c = spec.a, spec.b, spec.c
    if not 0 <= m <= a + b:
        raise ValueError(f"column {m} out of range 0..{a + b}")
    alpha = -m if m <= b else m - 2 * b
    beta = m + 2 * (c - 1) if m <= a else 2 * a - m + 2 * (c - 1)
    gamma = (beta - alpha) // 2
    L = gamma + 1 - c
    delta = (m + alpha) // 2
    return alpha, beta, gamma, L, delta


@dataclass(frozen=True, eq=False)
class WalkFamily:
    """c non-intersecting walks as a read-only int64 array S of shape
    (c, a+b+1): S[k, m] is the height of walk k+1 at column m.  The family
    holds its own copy of the array it is given."""

    spec: HexagonSpec
    S: np.ndarray

    def __post_init__(self):
        S = np.array(self.S, dtype=np.int64)
        S.flags.writeable = False
        object.__setattr__(self, "S", S)

    def validate(self) -> None:
        a, b, c = self.spec.a, self.spec.b, self.spec.c
        S = self.S
        if S.shape != (c, a + b + 1):
            raise ValueError("wrong walk family shape")
        k = np.arange(c)
        ends = (S[:, 0] != 2 * k) | (S[:, -1] != a - b + 2 * k)
        jumps = np.abs(np.diff(S, axis=1)) != 1
        bad = ends | jumps.any(axis=1)
        if bad.any():
            w = int(np.argmax(bad))
            if ends[w]:
                raise ValueError(f"walk {w + 1} has wrong endpoints")
            raise ValueError(f"walk {w + 1} takes a non-unit step at {np.argmax(jumps[w])}")
        # no bounds check: at column m a +-1 walk k from 2k to a-b+2k stays in
        # [max(2k-m, m-2b+2k), min(2k+m, 2a-m+2k)], inside [alpha_m, beta_m]
        crossed = (np.diff(S, axis=0) <= 0).any(axis=0)
        if crossed.any():
            raise ValueError(f"walks intersect at column {int(np.argmax(crossed))}")

    def particles(self, m: int) -> tuple[int, ...]:
        alpha = column_bounds(self.spec, m)[0]
        return tuple(((self.S[:, m] - alpha) // 2).tolist())

    def holes(self, m: int) -> tuple[int, ...]:
        alpha, _, gamma, _, _ = column_bounds(self.spec, m)
        free = np.ones(gamma + 1, dtype=bool)
        free[(self.S[:, m] - alpha) // 2] = False
        return tuple(np.flatnonzero(free).tolist())


def walks_to_hole_columns(fam: WalkFamily) -> list[list[int]]:
    return [list(fam.holes(m)) for m in range(fam.spec.columns + 1)]


# ---------------------------------------------------------------------------
# Exact counting
# ---------------------------------------------------------------------------


def _int_det(M: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination: every division is exact, so all entries stay integers."""
    A = [row[:] for row in M]
    n = len(A)
    sign = prev = 1
    for k in range(n):
        if A[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if A[r][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * prev


def lgv_count(spec: HexagonSpec, m: int, x) -> int:
    """Number of non-intersecting walk prefixes from the fixed starts to the
    particle configuration x on column m: det(C(m, delta_m + x_k - j + 1)).
    """
    c = spec.c
    x = tuple(x)
    if len(x) != c or any(u >= v for u, v in zip(x, x[1:])):
        raise ValueError("x must be a strictly increasing c-tuple")
    _, _, gamma, _, delta = column_bounds(spec, m)
    if x and (x[0] < 0 or x[-1] > gamma):
        raise ValueError("particle outside the column window")

    def comb(n, k):
        return math.comb(n, k) if 0 <= k <= n else 0

    M = [[comb(m, delta + x[k] - (j + 1) + 1) for k in range(c)] for j in range(c)]
    return _int_det(M)


def macmahon(a: int, b: int, c: int) -> int:
    """MacMahon's boxed-plane-partition count, exact: the product over cells
    (i, j) of (i+j+c-1)/(i+j-1), taken by anti-diagonals s = i+j, each with
    k_s = min(s-1, a, b, a+b+1-s) cells, as one big-int ratio."""
    if min(a, b, c) < 1:
        raise ValueError("sides must be positive")
    num = den = 1
    for s in range(2, a + b + 1):
        k = min(s - 1, a, b, a + b + 1 - s)
        num *= (s + c - 1) ** k
        den *= (s - 1) ** k
    out, rem = divmod(num, den)
    if rem:
        raise AssertionError("MacMahon's product is not an integer")
    return out


def column_law(spec: HexagonSpec, m: int, kind: str = "holes",
               method: str = "lgv") -> dict[tuple[int, ...], Fraction]:
    """Exact law of the column-m configuration (sorted tuples -> Fraction).

    method 'lgv' multiplies prefix and suffix walk counts and divides by the
    tiling total; 'hahn' evaluates the Hahn (holes) or associated Hahn
    (particles) ensemble directly.  Both are exact and agree.
    """
    if kind not in ("holes", "particles"):
        raise ValueError("kind must be 'holes' or 'particles'")
    a, b, c = spec.a, spec.b, spec.c
    _, _, gamma, L, _ = column_bounds(spec, m)
    n_pts = L if kind == "holes" else c
    if math.comb(gamma + 1, n_pts) > 2_000_000:
        raise ValueError(
            f"column window C({gamma + 1},{n_pts}) too large for exact tabulation"
        )
    if method == "lgv":
        total = macmahon(a, b, c)
        mp = a + b - m
        law: dict[tuple[int, ...], Fraction] = {}
        for xs in itertools.combinations(range(gamma + 1), c):
            mirrored = tuple(gamma - v for v in reversed(xs))  # the suffix, read backward
            cnt = lgv_count(spec, m, xs) * lgv_count(spec, mp, mirrored)
            if cnt == 0:
                continue
            key = xs if kind == "particles" else tuple(
                v for v in range(gamma + 1) if v not in set(xs)
            )
            law[key] = Fraction(cnt, total)
        return law
    if method == "hahn":
        alpha, beta = abs(a - m), abs(b - m)
        if kind == "holes":
            return ensemble_law_exact(ope.DiscreteWeight.hahn(gamma, alpha, beta), L)
        return ensemble_law_exact(ope.DiscreteWeight.associated_hahn(gamma, alpha, beta), c)
    raise ValueError(f"unknown method {method!r}")


def ensemble_law_exact(weight: ope.DiscreteWeight, m: int) -> dict:
    """Law of the m-particle ensemble with the given weight over sorted
    m-tuples on {0..size}, in exact rationals: mass proportional to
    Delta(h)^2 prod w(h_j)."""
    masses = {}
    for h in itertools.combinations(range(weight.size + 1), m):
        val = Fraction(math.prod((y - x) ** 2 for x, y in itertools.combinations(h, 2)))
        for x in h:
            val *= weight.exact_weight(x)
        masses[h] = val
    tot = sum(masses.values())
    return {h: v / tot for h, v in masses.items()}


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _moves(state: tuple[int, ...], lo: int, hi: int) -> list[tuple[int, ...]]:
    """All +-1 steps of the walks at the increasing heights ``state`` that
    keep them non-intersecting and inside [lo, hi], built walk by walk so
    that only non-intersecting prefixes are extended.  Walk 0 varies slowest
    and -1 comes before +1; an empty ``state`` has the one empty move."""
    moves = [()]
    for k, s in enumerate(state):
        moves = [mv + (v,) for mv in moves for v in (s - 1, s + 1)
                 if v > (mv[-1] if k else lo - 1)]
    return [mv for mv in moves if not mv or mv[-1] <= hi]


def _transitions(spec: HexagonSpec, m: int, state: tuple[int, ...]):
    """All non-intersecting one-step moves from column m to m+1."""
    alpha1, beta1, _, _, _ = column_bounds(spec, m + 1)
    return _moves(state, alpha1, beta1)


def enumerate_walks(spec: HexagonSpec) -> list[WalkFamily]:
    """All walk families; feasible only for small hexagons."""
    if macmahon(spec.a, spec.b, spec.c) > 200_000:
        raise ValueError("hexagon too large to enumerate")
    a, b, c = spec.a, spec.b, spec.c
    out = []
    S = np.empty((c, a + b + 1), dtype=np.int64)

    def rec(m, state):
        S[:, m] = state
        if m == a + b:
            fam = WalkFamily(spec=spec, S=S)
            fam.validate()
            out.append(fam)
            return
        for nxt in _transitions(spec, m, state):
            rec(m + 1, nxt)

    rec(0, tuple(2 * k for k in range(c)))
    return out


def _stack(spec: HexagonSpec, S: np.ndarray) -> list[np.ndarray]:
    """The walks S as W (c+2, a+b+1): W[1:-1] is S, rows 0 and c+1 are walls
    at -+(a+b+2c), past every height (heights lie in [-b, a+2c-2]), and the
    dtype is the smallest signed int that holds them.

    W is held as its two parity classes.  Padded by wall entries to an odd
    row length L = (a+b+1) | 1 and, for odd c, by one more wall row, W is
    read row-major; the sites of walk + column parity par are its flat
    entries of parity 1 - par, and class par is those entries in that order,
    as one C-contiguous array.  A site's left and right neighbours are then
    its flat entries -1 and +1, its walks below and above -L and +L, all in
    the other class."""
    wall = spec.a + spec.b + 2 * spec.c
    c, cols = spec.c, spec.columns + 1
    W = np.full((c + 2 + c % 2, cols | 1), wall, np.min_scalar_type(-wall - 1))
    W[0], W[1:c + 1, :cols] = -wall, S
    flat = W.reshape(-1)
    return [flat[1 - par::2].copy() for par in (0, 1)]


def _unstack(classes: list[np.ndarray], S: np.ndarray) -> None:
    """Write the walks held as ``classes`` (see _stack) into the
    (c, a+b+1) array S."""
    c, cols = S.shape
    W = np.empty((c + 2 + c % 2, cols | 1), classes[0].dtype)
    flat = W.reshape(-1)
    flat[1::2], flat[::2] = classes
    S[...] = W[1:c + 1, :cols]


def _sweep(spec: HexagonSpec, classes: list[np.ndarray], raw, nsweeps: int) -> None:
    """nsweeps heat-bath sweeps, in place, of the walks held as ``classes``,
    their two parity classes (see _stack).

    Class (walk + column) % 2 = 0, then 1, is updated at once over its
    entries on walk rows 1..c: a site with left == right moves to
    p = left + 1 on coin 1, to left - 1 on coin 0, if below < p < above, by
    the branch-free mid += ok * (p - mid); a mask keeps the fixed end
    columns and the padding as they are.

    The coins are those of two strided views of W per class, the walks of
    even index, then odd: a view of n sites reads raw(ceil(n/64)), and its
    site i, row-major, takes bit 7 - i % 8 of byte i // 8 of those
    64-bit words, laid out little-endian.  Read L entries at a time, a
    class's walk rows hold rows 2t+1 and 2t+2 of W in row t, so each view is
    one rectangular block there.  The sites, the coins they read and so the
    chain are those of the same update on the strided views of W."""
    c, cols = spec.c, spec.columns + 1
    L, pairs = cols | 1, (c + 1) // 2
    n = pairs * L  # class entries on walk rows 1..c, and the padding row for odd c
    plan = []
    for par in (0, 1):
        # class par entry i is flat entry 2i + 1 - par; the other class holds
        # its flat neighbours -1, +1, -L and +L at i - par, +1, -L//2, +1+L//2
        i0 = (L + par) // 2  # the first entry on row 1
        mid = classes[par][i0:i0 + n]
        left, right, below, above = (classes[1 - par][i0 + d:i0 + d + n]
                                     for d in (-par, 1 - par, -par - L // 2, 1 - par + L // 2))
        coin, live = np.zeros((pairs, L), np.int8), np.zeros((pairs, L), bool)
        views = []
        for rp in (0, 1):
            # the view's site (k0 + 2t, m0 + 2j) of W is coin[t, a + j], where
            # a is the class index of flat entry k0 L + m0, less i0
            k0, m0 = 1 + rp, 2 - (par + rp) % 2
            a = (k0 * L + m0 - 1 + par) // 2 - i0
            block = (slice(0, (c + 1 - rp) // 2), slice(a, a + (cols - m0) // 2))
            live[block] = True
            views.append(coin[block])
        plan.append((mid, left, right, below, above, coin.reshape(-1), live.reshape(-1), views))
    for _ in range(nsweeps):
        for mid, left, right, below, above, coin, live, views in plan:
            for view in views:
                words = raw(-(-view.size // 64)).astype("<u8", copy=False)
                bits = np.unpackbits(words.view(np.uint8), count=view.size)
                view[...] = bits.reshape(view.shape)
            p = left + (2 * coin - 1)
            ok = (left == right) & (below < p) & (p < above) & live
            mid += ok * (p - mid)


class LozengeChain:
    """Checkerboard heat-bath dynamics on the walk representation, uniform
    over tilings.  A flip toggles one walk at one interior column between a
    local valley and a local peak; _sweep takes one raw random bit per site,
    about 0.1 ms per sweep at c = 128.  ``S`` (int64) is updated in place."""

    def __init__(self, spec: HexagonSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        # frozen start: every walk hugs the lower boundary, S[k, m] = alpha_m + 2k
        alphas = np.array([column_bounds(spec, m)[0] for m in range(spec.columns + 1)])
        self.S = alphas + 2 * np.arange(spec.c)[:, None]
        self.family().validate()

    def family(self) -> WalkFamily:
        """The current walks, as a family holding a copy of ``S``."""
        return WalkFamily(spec=self.spec, S=self.S)

    def sweep(self, nsweeps: int = 1) -> None:
        if nsweeps < 0:
            raise ValueError(f"sweep count must be non-negative, got {nsweeps}")
        stack = _stack(self.spec, self.S)
        _sweep(self.spec, stack, self.rng.bit_generator.random_raw, nsweeps)
        _unstack(stack, self.S)


@functools.lru_cache(maxsize=32)
def _step_rows(spec: HexagonSpec, m: int) -> np.ndarray:
    """rows[z + 1, e] = psi(z) for e = 0 and rho(z) psi(z + 1) for e = 1,
    z = -1..gamma, psi zero off 0..gamma: the rows of the moves z -> z + e
    from column m.  Read only; cached for repeated draws of one hexagon.

    psi is the basis of the column-(m+1) particle weight, the associated
    Hahn weight f g with f(y) = 1/((delta + y)! (m + c - delta - y)!) from
    the prefix and g(y) = 1/((delta' + gamma - y)! (m' + c - 1 - delta' -
    gamma + y)!) from the suffix, for (gamma, delta) of column m + 1 and
    delta' of m' = a+b-m-1.  So g p = psi sqrt(g/f) for polynomials p of
    degree < c, and a particle's rows drop the factor sqrt(g/f)(z)."""
    a, b, c = spec.a, spec.b, spec.c
    _, _, gamma, _, delta = column_bounds(spec, m + 1)
    mp = a + b - m - 1
    dp = column_bounds(spec, mp)[4]
    weight = ope.DiscreteWeight.associated_hahn(gamma, abs(a - m - 1), abs(b - m - 1))
    psi = np.zeros((gamma + 3, c))  # sites -1..gamma+1
    psi[1:-1] = ope._lanczos(weight.log_weight(), c)[2].T
    z = np.arange(gamma)  # rho^2 = (g/f)(z + 1) / (g/f)(z) where both sites lie in 0..gamma
    rho = np.ones(gamma + 2)
    rho[1:-1] = np.sqrt((dp + gamma - z) * (delta + z + 1)
                        / ((mp + c - dp - gamma + z) * (m + c - delta - z)))
    rows = np.stack([psi[:-1], rho[:, None] * psi[1:]], axis=1)
    rows.flags.writeable = False
    return rows


def sample_hexagon(spec: HexagonSpec, rng: np.random.Generator) -> WalkFamily:
    """One exactly uniform random tiling as a walk family, column by column.

    The columns are a Doob h-transform of Bernoulli walks, h the suffix
    count (Konig-O'Connell-Roch 2002).  From column m, particle k moves to
    z_k + e_k, e_k in {0, 1}, z_k = x_k for m < b and x_k - 1 after, with
    probability proportional to det[rows[k, e_k]] (see _step_rows).  With M
    the matrix of the rows H_k = rows[k, 0] + rows[k, 1], P(e_k = 1) =
    rows[k, 1] . M^-1 e_k for k = 1..c in turn; the chosen row replaces H_k,
    and M^-1 follows by Sherman-Morrison, O(c^2) per particle.

    Raises :class:`ope.KernelConditionError` when a raw probability leaves
    [-1e-8, 1 + 1e-8], p0 + p1 misses 1 by more than 1e-8, or
    |sum log P(choice) + log N| > 1e-8, N from MacMahon's formula."""
    tol = 1e-8
    a, b, c = spec.a, spec.b, spec.c
    S = np.empty((c, a + b + 1), np.int64)
    x = np.arange(c)  # the particles, column by column
    S[:, 0] = 2 * x
    coins = rng.random((a + b, c))
    probs = []
    for m in range(a + b):
        x -= m >= b  # z_k
        rows = _step_rows(spec, m)[x + 1]
        try:
            D = np.linalg.inv((rows[:, 0] + rows[:, 1]).T)  # D[k] . H_j = [j == k]
        except np.linalg.LinAlgError as err:
            raise ope.KernelConditionError(f"singular step matrix at column {m}") from err
        for k, u in enumerate(coins[m].tolist()):
            d = D[k]
            p0, p1 = (rows[k] @ d).tolist()
            if not (min(p0, p1) >= -tol and max(p0, p1) <= 1 + tol
                    and abs(p0 + p1 - 1) <= tol):
                raise ope.KernelConditionError(
                    f"step probabilities ({p0:.3e}, {p1:.3e}) of particle {k} at column {m}")
            e = int(u < p1)
            p = (p0, p1)[e]
            probs.append(p)
            x[k] += e
            # keep D[j] . row k = 0 for the later particles j
            D[k + 1:] -= np.multiply.outer(D[k + 1:] @ rows[k, e] / p, d)
        S[:, m + 1] = column_bounds(spec, m + 1)[0] + 2 * x
    miss = float(np.log(probs).sum()) + math.log(macmahon(a, b, c))
    if not abs(miss) <= tol:
        raise ope.KernelConditionError(f"draw probability misses 1/N by {miss:.3e} in log")
    fam = WalkFamily(spec, S)
    fam.validate()
    return fam


# ---------------------------------------------------------------------------
# Heights and limit statistics
# ---------------------------------------------------------------------------


def plane_partition_height(fam: WalkFamily) -> np.ndarray:
    """Boxed plane partition H on the a x b base grid (entries in 0..c),
    weakly decreasing along both axes: H(r_m - k, s_m - k) = X_m(k) - k + 1
    over the holes X_m(1) < X_m(2) < ... of every column m."""
    spec = fam.spec
    a, b, c = spec.a, spec.b, spec.c
    H = np.full((a, b), -1, dtype=np.int64)
    for m in range(a + b + 1):
        holes = fam.holes(m)
        r_m = a if m <= b else a + b - m
        s_m = m if m <= b else b
        for k, xk in enumerate(holes, start=1):
            i, j = r_m - k, s_m - k
            if 0 <= i < a and 0 <= j < b:
                H[i, j] = xk - k + 1
            elif not (i == -1 or j == -1):
                raise ValueError(f"hole ({m},{k}) maps outside the box grid")
    if (H < 0).any():
        raise ValueError("tiling columns did not cover the base grid")
    if (np.diff(H, axis=0) > 0).any() or (np.diff(H, axis=1) > 0).any():
        raise ValueError("height array is not weakly decreasing")
    return H


def corner_gue_statistics(spec: HexagonSpec, m: int, replicas: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Rescaled hole positions (xi - gamma_m/2)/sqrt(c) of column m, sampled
    exactly from the Hahn projection kernel (no MCMC)."""
    if spec.a != spec.b:
        raise ValueError("corner statistics are defined for a = b")
    if m > spec.b:
        raise ValueError("take a column in the left part, m <= b")
    _, _, gamma, L, _ = column_bounds(spec, m)
    weight = ope.DiscreteWeight.hahn(gamma, abs(spec.a - m), abs(spec.b - m))
    kernel = ope.cd_kernel(ope.build_orthonormal(weight, L))
    out = np.empty((replicas, L))
    for r in range(replicas):
        xs = ope.sample_dpp(kernel, rng)
        out[r] = (xs - gamma / 2.0) / math.sqrt(spec.c)
    return out


def corner_gue_exponent(lam: float) -> float:
    """Gaussian exponent kappa of the fixed-column hole limit law
    Delta(x)^2 prod exp(-kappa x_j^2): kappa = 4 lam / (2 lam + 1).

    Derived by a Stirling expansion of the exact column weight around
    gamma_m / 2 and confirmed against the exact discrete law (the m = 1
    variance converges to 1/(2 kappa) = (2 lam + 1) / (8 lam)).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return 4.0 * lam / (2.0 * lam + 1.0)


def arctic_boundary(lam: float, tau: float) -> float:
    """Limit position of the inner polar-zone boundary at horizontal
    coordinate tau (hexagon rescaled by 1/c, a/c -> lam):
    sqrt(2 lam + 1) sqrt(1/4 - tau^2 / (3 lam^2))."""
    disc = 0.25 - tau * tau / (3.0 * lam * lam)
    if disc < 0:
        raise ValueError("tau outside the inscribed ellipse")
    return math.sqrt(2 * lam + 1) * math.sqrt(disc)
