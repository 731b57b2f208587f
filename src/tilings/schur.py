"""The growth cascade, equivalent to RSK, computed as a growth diagram.

An n x n nonnegative integer matrix W drives n stacked height curves.  At
time t, w(i, j) labelled unit squares (left side a_i, right side b_j) drop
onto level 1 at x = i - j, where i = (t+x+1)/2, j = (t-x+1)/2; where the
sides of a level cross, the label pairs annihilate and reappear as squares on
the next level down.  The state of this cascade is a table of partitions:
with S[i][j] the RSK shape of the corner W[:i, :j], written with n parts,
level k has height

    h_k(x, t) = S[i][j]_k - (k - 1),  i = (t+x+1)//2, j = (t-x+1)//2,

with i and j clamped to 0..n.  The table fills by Fomin's local rule
(Fomin, J. Algebraic Combin. 4, 1995; Krattenthaler, Adv. Appl. Math. 37,
2006).  With mu = S[i-1][j], nu = S[i][j-1] and rho = S[i-1][j-1],

    S[i][j]_1 = max(mu_1, nu_1) + w(i, j),
    S[i][j]_k = max(mu_k, nu_k) + min(mu_{k-1}, nu_{k-1}) - rho_{k-1},  k >= 2,

and, writing lambda = S[i][j], the rule inverts as

    rho_k = max(mu_{k+1}, nu_{k+1}) + min(mu_k, nu_k) - lambda_{k+1},
    w(i, j) = lambda_1 - max(mu_1, nu_1).

Every cell of an anti-diagonal i + j = d depends only on the two diagonals
before it, so the table fills diagonal by diagonal: growth._shapes holds it
as one flat array in which each diagonal and its three neighbours are strided
views, and its first part is growth.lpp_value's last-passage table.

After 2n-1 steps the heights at the origin give the partition S[n][n], and
the labelled sides form a pair of semistandard tableaux read off the boundary
chains: row k of the left tableau holds S[i][n]_k - S[i-1][n]_k labels a_i,
and the right tableau reads the same way off S[n][j] with labels b_j.  Level 1
is the last-passage table, h_1 = G.  The growth is a bijection: starting from
the two boundary chains (column n and row n of the table), the inverse rule
peels the anti-diagonals backward, from d = 2n down to 2: diagonals d and
d - 1 give the entries of W on diagonal d and the shapes on diagonal d - 2,
and so the peel rebuilds W exactly.

Schur polynomials come from the Jacobi-Trudi determinant of complete
homogeneous symmetric polynomials, with an exact-rational mode that clears
denominators row by row and takes hexagon's fraction-free integer
determinant.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .growth import _INT64_LIMIT, _diagonals, _shapes
from .hexagon import _int_det

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


def _check_table(S) -> None:
    """Raise unless every shape of the table S[i, j, :] is a partition and
    contains its upper and left neighbours as horizontal strips: outer_1 >=
    inner_1 >= outer_2 >= ... >= outer_n >= inner_n >= 0."""
    S = np.asarray(S)
    outer = S[1:, 1:]
    for inner in (S[:-1, 1:], S[1:, :-1]):
        bad = ~((outer >= inner).all(-1) & (inner[..., :-1] >= outer[..., 1:]).all(-1)
                & (inner[..., -1:] >= 0).all(-1))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InvalidCascadeError(f"S[{i + 1}][{j + 1}] = {outer[i, j].tolist()} over "
                                      f"{inner[i, j].tolist()} is not a horizontal strip")


def _tableau(chain: np.ndarray) -> list[Counter]:
    """Row k -> multiplicity of each label in a chain of shapes 0..n."""
    return [Counter({i: c for i, c in enumerate(row, 1) if c})
            for row in np.diff(chain, axis=0).T.tolist()]


def _chain(tableau: list[Counter]) -> list[list[int]]:
    """The chain of shapes 0..n whose rows hold the given label counts."""
    chain = [[0] * len(tableau)]
    for i in range(1, len(tableau) + 1):
        chain.append([p + row[i] for p, row in zip(chain[-1], tableau)])
    return chain


def _peel(S: np.ndarray) -> np.ndarray:
    """Fill the (n+1) x (n+1) table S below its last row and column by the
    inverse rule, diagonal by diagonal from (n, n) back, and return W."""
    n = S.shape[0] - 1
    flat = S.reshape((n + 1) ** 2, n)
    w = np.zeros((n + 1) ** 2, dtype=np.int64)
    for cell, up, left, corner in reversed(_diagonals(n, n)):
        lam, mu, nu = flat[cell], flat[up], flat[left]
        w[cell] = lam[:, 0] - np.maximum(mu[:, 0], nu[:, 0])
        rho = np.minimum(mu, nu)
        rho[:, :-1] += np.maximum(mu[:, 1:], nu[:, 1:]) - lam[:, 1:]
        flat[corner] = rho
    return w.reshape(n + 1, n + 1)[1:, 1:]


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
    S = _shapes(W, n)
    if check:
        _check_table(S)
    # level 1 at (x, t) is part 1 of S[i][j], i, j = (t +- x + 1) // 2 clamped to 0..n
    keys = [(x, t) for t in range(1, 2 * n) for x in range(-n, n + 1)]
    t, x = np.arange(1, 2 * n)[:, None], np.arange(-n, n + 1)
    h = S[np.clip((t + x + 1) // 2, 0, n), np.clip((t - x + 1) // 2, 0, n), :1]
    return CascadeResult(partition=tuple(S[n, n].tolist()),
                         left_tableau=_tableau(S[:, n]), right_tableau=_tableau(S[n]),
                         level1_trace=dict(zip(keys, h.ravel().tolist())))


def cascade_invert(result: CascadeResult, check: bool = True) -> np.ndarray:
    """Reconstruct the integer matrix from a final cascade state.

    Raises InvalidCascadeError unless both tableaux end in ``result.partition``,
    their counts fit in 64 bits, every recovered entry is nonnegative, and
    regrowing the recovered matrix gives the same tableaux; ``check`` also
    verifies the partition and strip conditions at every peeled cell."""
    left, right = result.left_tableau, result.right_tableau
    n = len(left)
    a, b = _chain(left), _chain(right)
    if not a[-1] == b[-1] == list(result.partition):
        raise InvalidCascadeError("the tableaux do not end in the partition")
    # the growth keeps the total, and up to the int64 limit it is exact
    total = sum(result.partition)
    too_large = "tableau counts too large for 64-bit integers"
    if total > _INT64_LIMIT:
        raise InvalidCascadeError(too_large)
    # column n holds the left chain and row n the right chain; peeling the
    # diagonals from (n, n) fills in the rest
    S = np.zeros((n + 1, n + 1, n), dtype=np.int64)
    try:
        S[:, n], S[n] = a, b
    except OverflowError:
        raise InvalidCascadeError(too_large) from None
    W = _peel(S)
    if (W < 0).any():
        i, j = np.argwhere(W < 0)[0]
        raise InvalidCascadeError(f"negative entry {W[i, j]} recovered at ({i + 1}, {j + 1})")
    if check:
        _check_table(S)
    if sum(W.ravel().tolist()) != total:
        raise InvalidCascadeError("the tableaux are not in the image of the growth")
    T = _shapes(W, n)
    if _tableau(T[:, n]) != left or _tableau(T[n]) != right:
        raise InvalidCascadeError("the tableaux are not in the image of the growth")
    return W


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


def schur_poly(lam, a, exact: bool = False):
    """Jacobi-Trudi: s_lambda = det(h_{lambda_j - j + k}) over 1 <= j,k <= N,
    N = number of variables; h_m = 0 for m < 0."""
    lam = tuple(lam)
    if any(x < y for x, y in zip(lam, lam[1:])) or any(x < 0 for x in lam):
        raise ValueError("lambda must be a partition")
    N = len(a)
    if len([x for x in lam if x > 0]) > N:
        return Fraction(0) if exact else 0.0
    if N == 0:
        # the empty determinant: s_lambda of no variables, lambda empty
        return Fraction(1) if exact else 1.0
    lam = lam + (0,) * (N - len(lam))
    if exact:
        a = [Fraction(v) for v in a]
    h = complete_homogeneous(lam[0] + N, a)
    zero = h[0] - h[0]

    def hh(m):
        return zero if m < 0 else h[m]

    M = [[hh(lam[j] - (j + 1) + (k + 1)) for k in range(N)] for j in range(N)]
    if exact:
        # scale each row to integers by the lcm of its denominators
        dens = [math.lcm(*(v.denominator for v in row)) for row in M]
        return Fraction(_int_det([[int(v * d) for v in row] for row, d in zip(M, dens)]),
                        math.prod(dens))
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
    (a_j b_k)^m; n = 0 gives the 0 x 0 matrix."""
    if len(a) != n or len(b) != n:
        raise ValueError("parameter vectors must have length n")
    u = rng.random((n, n))
    r = np.outer(a, b)
    if not np.all((0 < r) & (r < 1)):
        raise ValueError("need 0 < a_j b_k < 1")
    return np.floor(np.log(u) / np.log(r)).astype(np.int64)
