"""The growth cascade, equivalent to RSK, computed as a growth diagram.

An n x n nonnegative integer matrix W drives n stacked height curves.  At
time t, w(i, j) labelled unit squares (left side a_i, right side b_j) drop
onto level 1 at x = i - j, where i = (t+x+1)/2, j = (t-x+1)/2; where the
sides of a level cross, the label pairs annihilate and reappear as squares on
the next level down.  The state of this cascade is a table of partitions:
with S[i][j] the RSK shape of the corner W[:i, :j], written with n parts,
level k has height

    h_k(x, t) = S[i][j]_k - (k - 1),  i = (t+x+1)//2, j = (t-x+1)//2,

with i and j clamped to 0..n.  The table fills cell by cell by Fomin's local
rule (Fomin, J. Algebraic Combin. 4, 1995; Krattenthaler, Adv. Appl. Math.
37, 2006).  With mu = S[i-1][j], nu = S[i][j-1] and rho = S[i-1][j-1],

    S[i][j]_1 = max(mu_1, nu_1) + w(i, j),
    S[i][j]_k = max(mu_k, nu_k) + min(mu_{k-1}, nu_{k-1}) - rho_{k-1},  k >= 2,

and, writing lambda = S[i][j], the rule inverts as

    rho_k = max(mu_{k+1}, nu_{k+1}) + min(mu_k, nu_k) - lambda_{k+1},
    w(i, j) = lambda_1 - max(mu_1, nu_1).

After 2n-1 steps the heights at the origin give the partition S[n][n], and
the labelled sides form a pair of semistandard tableaux read off the boundary
chains: row k of the left tableau holds S[i][n]_k - S[i-1][n]_k labels a_i,
and the right tableau reads the same way off S[n][j] with labels b_j.  Level 1
is the last-passage table, h_1 = G.  The growth is a bijection: peeling the
cells from the two boundary chains by the inverse rule rebuilds W exactly.

Schur polynomials come from the Jacobi-Trudi determinant of complete
homogeneous symmetric polynomials, with an exact-rational mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "InvalidCascadeError",
    "CascadeResult",
    "cascade_grow",
    "cascade_invert",
    "complete_homogeneous",
    "schur_poly",
    "schur_measure_prob",
    "sample_schur_matrix",
    "hook_content_product",
]


class InvalidCascadeError(ValueError):
    """A labelled configuration that is not in the image of the growth map."""


def _grow(W: list[list[int]], n: int) -> list[list[list[int]]]:
    """The shape table S[i][j], 0 <= i, j <= n, by the forward local rule."""
    zero = [0] * n
    S = [[zero] * (n + 1)]
    for i in range(1, n + 1):
        up, row = S[i - 1], [zero]
        for j in range(1, n + 1):
            mu, nu, rho = up[j], row[j - 1], up[j - 1]
            row.append([max(mu[0], nu[0]) + W[i - 1][j - 1]]
                       + [max(a, b) + min(c, d) - r
                          for a, b, c, d, r in zip(mu[1:], nu[1:], mu, nu, rho)])
        S.append(row)
    return S


def _check_table(S: list[list[list[int]]]) -> None:
    """Raise unless every shape is a partition and contains its upper and
    left neighbours as horizontal strips: outer_1 >= inner_1 >= outer_2 >=
    ... >= outer_n >= inner_n >= 0."""
    for i in range(1, len(S)):
        for j in range(1, len(S)):
            for inner in (S[i - 1][j], S[i][j - 1]):
                seq = [v for pair in zip(S[i][j], inner) for v in pair] + [0]
                if any(a < b for a, b in zip(seq, seq[1:])):
                    raise InvalidCascadeError(
                        f"S[{i}][{j}] = {S[i][j]} over {inner} is not a horizontal strip")


def _tableau(chain: list[list[int]]) -> list[Counter]:
    """Row k -> multiplicity of each label in a chain of shapes 0..n."""
    return [Counter({i: c[k] - p[k] for i, (p, c) in enumerate(zip(chain, chain[1:]), 1)
                     if c[k] != p[k]})
            for k in range(len(chain) - 1)]


def _chain(tableau: list[Counter]) -> list[list[int]]:
    """The chain of shapes 0..n whose rows hold the given label counts."""
    chain = [[0] * len(tableau)]
    for i in range(1, len(tableau) + 1):
        chain.append([p + row[i] for p, row in zip(chain[-1], tableau)])
    return chain


@dataclass
class CascadeResult:
    partition: tuple[int, ...]
    left_tableau: list[Counter]   # row k -> multiplicity of each a-index
    right_tableau: list[Counter]
    level1_trace: dict[tuple[int, int], int]  # (x, t) -> level-1 height


def cascade_grow(W, check: bool = True) -> CascadeResult:
    """Run the growth to completion and read off the final configuration;
    ``check`` verifies the partition and strip conditions at every cell."""
    W = np.asarray(W)
    if (W.ndim != 2 or W.shape[0] != W.shape[1]
            or not np.issubdtype(W.dtype, np.integer) or (W < 0).any()):
        raise ValueError("W must be a square nonnegative integer matrix")
    n = W.shape[0]
    S = _grow(W.tolist(), n)
    if check:
        _check_table(S)
    half = [min(max(s // 2, 0), n) for s in range(-n, 3 * n + 1)]  # half[s + n]: s // 2 in 0..n
    trace = {(x, t): S[half[t + x + 1 + n]][half[t - x + 1 + n]][0]
             for t in range(1, 2 * n) for x in range(-n, n + 1)}
    return CascadeResult(partition=tuple(S[n][n]),
                         left_tableau=_tableau([row[n] for row in S]),
                         right_tableau=_tableau(S[n]), level1_trace=trace)


def cascade_invert(result: CascadeResult, check: bool = True) -> np.ndarray:
    """Reconstruct the integer matrix from a final cascade state.

    Raises InvalidCascadeError unless both tableaux end in ``result.partition``,
    every recovered entry is nonnegative, and regrowing the recovered matrix
    gives the same tableaux; ``check`` also verifies the partition and strip
    conditions at every peeled cell."""
    left, right = result.left_tableau, result.right_tableau
    n = len(left)
    a, b = _chain(left), _chain(right)
    if not a[-1] == b[-1] == list(result.partition):
        raise InvalidCascadeError("the tableaux do not end in the partition")
    # column n holds the left chain and row n the right chain; peeling the
    # cells from (n, n) fills in the rest
    S = [[None] * n + [a[i]] for i in range(n)] + [b]
    W = [[0] * n for _ in range(n)]
    for i in range(n, 0, -1):
        for j in range(n, 0, -1):
            lam, mu, nu = S[i][j], S[i - 1][j], S[i][j - 1]
            w = lam[0] - max(mu[0], nu[0])
            if w < 0:
                raise InvalidCascadeError(f"negative entry {w} recovered at ({i}, {j})")
            W[i - 1][j - 1] = w
            S[i - 1][j - 1] = ([max(p, q) + min(c, d) - r
                                for p, q, c, d, r in zip(mu[1:], nu[1:], mu, nu, lam[1:])]
                               + [min(mu[-1], nu[-1])])
    if check:
        _check_table(S)
    T = _grow(W, n)
    if _tableau([row[n] for row in T]) != left or _tableau(T[n]) != right:
        raise InvalidCascadeError("the tableaux are not in the image of the growth")
    return np.array(W, dtype=np.int64).reshape(n, n)


# ---------------------------------------------------------------------------
# Schur polynomials and the Schur measure
# ---------------------------------------------------------------------------


def complete_homogeneous(max_degree: int, a) -> list:
    """h_0, ..., h_max_degree of the given variables, by the one-variable-at-
    a-time prefix recurrence.  Exact when the variables are Fractions."""
    zero = Fraction(0) if any(isinstance(v, Fraction) for v in a) else 0.0
    h = [zero] * (max_degree + 1)
    h[0] = zero + 1
    for v in a:
        for m in range(1, max_degree + 1):
            h[m] = h[m] + v * h[m - 1]
    return h


def _det_exact(M: list[list[Fraction]]) -> Fraction:
    n = len(M)
    M = [row[:] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] * inv
            if f:
                for cc in range(col, n):
                    M[r][cc] -= f * M[col][cc]
    return det


def schur_poly(lam, a, exact: bool = False):
    """Jacobi-Trudi: s_lambda = det(h_{lambda_j - j + k}) over 1 <= j,k <= N,
    N = number of variables; h_m = 0 for m < 0."""
    lam = tuple(lam)
    if any(x < y for x, y in zip(lam, lam[1:])) or any(x < 0 for x in lam):
        raise ValueError("lambda must be a partition")
    N = len(a)
    if len([x for x in lam if x > 0]) > N:
        return Fraction(0) if exact else 0.0
    lam = lam + (0,) * (N - len(lam))
    if exact:
        a = [Fraction(v) for v in a]
    h = complete_homogeneous(lam[0] + N, a)
    zero = h[0] - h[0]

    def hh(m):
        return zero if m < 0 else h[m]

    M = [[hh(lam[j] - (j + 1) + (k + 1)) for k in range(N)] for j in range(N)]
    if exact:
        return _det_exact(M)
    return float(np.linalg.det(np.array(M, dtype=float)))


def hook_content_product(lam, m: int) -> Fraction:
    """s_lambda(1^m) as the ratio product over pairs i < j <= m of
    (mu_i - mu_j + j - i) / (j - i), mu = lambda padded to length m."""
    mu = tuple(lam) + (0,) * (m - len(lam))
    if len(mu) != m:
        raise ValueError("lambda longer than m")
    out = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            out *= Fraction(mu[i] - mu[j] + j - i, j - i)
    return out


def schur_measure_prob(lam, a, b, exact: bool = False):
    """P[lambda] = prod_{j,k} (1 - a_j b_k) * s_lambda(a) s_lambda(b)."""
    if len(a) != len(b):
        raise ValueError("a and b must have equal length")
    if any(v <= 0 for v in list(a) + list(b)):
        raise ValueError("parameters must be positive")
    if any(ai * bk >= 1 for ai in a for bk in b):
        raise ValueError("need a_i b_j < 1 for all pairs")
    if exact:
        a = [Fraction(v) for v in a]
        b = [Fraction(v) for v in b]
        pref = Fraction(1)
    else:
        pref = 1.0
    for ai in a:
        for bk in b:
            pref *= 1 - ai * bk
    return pref * schur_poly(lam, a, exact) * schur_poly(lam, b, exact)


def sample_schur_matrix(n: int, a, b, rng: np.random.Generator) -> np.ndarray:
    """W with independent geometric entries, P[w(j,k) = m] proportional to
    (a_j b_k)^m."""
    if len(a) != n or len(b) != n:
        raise ValueError("parameter vectors must have length n")
    u = rng.random((n, n))
    r = np.outer(a, b)
    if not (0 < r.min() and r.max() < 1):
        raise ValueError("need 0 < a_j b_k < 1")
    return np.floor(np.log(u) / np.log(r)).astype(np.int64)
