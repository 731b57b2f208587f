"""Exact sampling of Aztec-diamond tilings by domino shuffling.

The target measure puts weight w^(#vertical dominoes) on each tiling; with
q = w^2 / (1 + w^2) the shuffle grows a tiling of order m into one of order
m+1 in three phases: destroy bad pairs, slide every domino one step in its
compass direction, and fill each empty 2x2 block with a vertical pair with
probability q (horizontal otherwise).  The result after n stages is an exact
sample for order n.

Each phase works on whole arrays: the state is two boolean anchor grids
(horizontal and vertical dominoes) over A_n's box, with a replica axis, so
``sample_aztec(measure, rng, size=R)`` draws R tilings in one pass.  A
single draw (``size=None``) takes the same values from the stream as the
dict-per-domino shuffle kept in the tests as its reference.

A brute-force weighted enumerator (exact rational weights) backs the
statistical tests for small orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .aztec import _ANCHOR_DTYPE, Tiling, _anchor_array, diamond_squares

__all__ = [
    "AztecMeasure",
    "sample_aztec",
    "enumerate_tilings",
    "vertical_count_law",
]


@dataclass(frozen=True)
class AztecMeasure:
    """Vertical-weight measure on tilings of A_n."""

    n: int
    w: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("order must be nonnegative")
        if self.w <= 0:
            raise ValueError("vertical weight must be positive")

    @property
    def q(self) -> float:
        return self.w**2 / (1.0 + self.w**2)

    @classmethod
    def from_q(cls, n: int, q: float) -> "AztecMeasure":
        if not 0 < q < 1:
            raise ValueError("q must lie in (0, 1)")
        return cls(n=n, w=math.sqrt(q / (1.0 - q)))


def _box_masks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over the squares of A_n's box in the shuffle's flat layout, as
    columns that broadcast over replicas: where x + y is even, where it is
    odd, and the least order m with the square in A_m."""
    x = np.arange(-n, n, dtype=np.int32)
    even = ((x[:, None] + x) % 2 == 0).reshape(-1, 1)
    d = np.abs(2 * x + 1)
    return even, ~even, ((d[:, None] + d) // 2).reshape(-1, 1)


def sample_aztec(measure: AztecMeasure, rng: np.random.Generator,
                 size: int | None = None) -> Tiling | list[Tiling]:
    """Draw one exact sample via n shuffle stages, or a list of ``size``
    samples drawn in one pass.

    The state is two boolean anchor grids, H (horizontal dominoes) and V
    (vertical), over the squares x, y in -n..n-1 of A_n's box.  They are
    flattened row by row, with the replica last: square (x, y) of replica r
    is [(y + n) * 2n + x + n, r], so a step in x is a step of 1 along the
    first axis and a step in y one of 2n.  Stage m works on the rows of
    A_m.  There a domino of A_{m-1} anchored at (x, y) is N (horizontal) or
    E (vertical) when x + y + m - 1 is even, and S or W when it is odd.
    Kinds are recomputed from the colouring of the current order at every
    stage, so stage k is the order-k sample drawn from the same stream.

    A single draw (``size=None``) takes one ``rng.random()`` value per
    empty block, blocks in row-major order.  A batch takes each stage's
    values block position by block position, replica by replica within a
    position, so its replicas are not the tilings that ``size`` single
    calls would draw.
    """
    n, q = measure.n, measure.q
    R = 1 if size is None else size
    W = 2 * n  # row length
    H = np.zeros((W * W, R), dtype=bool)
    V = np.zeros_like(H)
    even_xy, odd_xy, level = _box_masks(n)

    for m in range(1, n + 1):
        rows = slice((n - m) * W, (n + m) * W)
        h, v = H[rows], V[rows]  # views
        even = (even_xy if m % 2 else odd_xy)[rows]  # x + y + m - 1 even

        # destruction and sliding: N up and S down, E right and W left,
        # except that an N right below an S, or an E right left of a W,
        # would collide and are dropped.  The dominoes of A_{m-1} keep off
        # the outer rows of A_m's rows and off the box's outer columns, so
        # no shift loses a domino or wraps it to another row.
        up = h & even  # N; h keeps S
        h ^= up
        bad = up[:-W] & h[W:]
        up[:-W] ^= bad
        h[W:] ^= bad
        h[:-W] = h[W:]
        h[W:] |= up[:-W]
        right = v & even  # E; v keeps W
        v ^= right
        bad = right[:-1] & v[1:]
        right[:-1] ^= bad
        v[1:] ^= bad
        v[:-1] = v[1:]
        v[1:] |= right[:-1]

        # filling: the empty squares form disjoint 2x2 blocks, and each
        # block's lower-left corner has x + y + m odd, like its upper-right
        # square; of the two, the corner is at an odd running count of
        # empties along its row.  The check below confirms that the blocks
        # found tile the empty squares exactly.
        covered = h | v
        covered[1:] |= h[:-1]
        covered[W:] |= v[:-W]
        empty = level[rows] <= m
        empty = empty > covered
        corner = np.logical_xor.accumulate(empty.reshape(2 * m, W, R), axis=1)
        corner = corner.reshape(-1, R)
        corner &= even
        blocks = corner.copy()
        blocks[1:] |= corner[:-1]
        blocks[W:] |= blocks[:-W]
        k = np.count_nonzero(corner)
        if 4 * k != np.count_nonzero(empty) or (blocks != empty).any():
            raise AssertionError(f"stage {m}: the empty squares are not 2x2 blocks")
        vertical = np.zeros(corner.shape, dtype=bool)
        vertical[corner] = rng.random(k) < q  # row-major block order
        corner ^= vertical  # now the horizontal blocks
        v |= vertical
        v[1:] |= vertical[:-1]
        h |= corner
        h[W:] |= corner[:-W]

    # anchors sorted by x, then y, as a sorted Domino tuple is
    H, V = H.reshape(W, W, R), V.reshape(W, W, R)
    r, x, y = np.nonzero((H | V).transpose(2, 1, 0))
    anchors = np.stack([x - n, y - n, H[y, x, r]], axis=-1, dtype=_ANCHOR_DTYPE)
    anchors = anchors.reshape(R, n * (n + 1), 3)
    tilings = [Tiling._from_anchors(n, a) for a in anchors]
    return tilings[0] if size is None else tilings


def enumerate_tilings(n: int, w: Fraction | int = 1) -> list[tuple[Tiling, Fraction]]:
    """All tilings of A_n with exact rational weights w^(#vertical).

    Cost grows like 2^(n(n+1)/2); orders above 5 are refused.
    """
    if n > 5:
        raise ValueError(
            f"enumeration of A_{n} would produce 2^{n * (n + 1) // 2} "
            f"~ {2.0 ** (n * (n + 1) // 2):.2e} tilings; refusing (limit n <= 5)"
        )
    w = Fraction(w)
    squares = sorted(diamond_squares(n), key=lambda s: (s[1], s[0]))
    index = {sq: i for i, sq in enumerate(squares)}
    total = len(squares)
    out: list[tuple[Tiling, Fraction]] = []
    rows: list[tuple[int, int, int]] = []  # anchor rows (x, y, horizontal)
    covered = [False] * total

    def backtrack(start: int, verticals: int) -> None:
        i = start
        while i < total and covered[i]:
            i += 1
        if i == total:
            out.append((Tiling._from_anchors(n, _anchor_array(rows)), w**verticals))
            return
        x, y = squares[i]
        for horizontal, partner in ((1, (x + 1, y)), (0, (x, y + 1))):
            j = index.get(partner)
            if j is not None and not covered[j]:
                covered[i] = covered[j] = True
                rows.append((x, y, horizontal))
                backtrack(i + 1, verticals + 1 - horizontal)
                rows.pop()
                covered[i] = covered[j] = False

    backtrack(0, 0)
    return out


def vertical_count_law(n: int, q) -> list:
    """Law of the number of vertical *pairs* k: Binomial(n(n+1)/2, q).

    Exact when q is a Fraction, float otherwise.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    T = n * (n + 1) // 2
    one = Fraction(1) if isinstance(q, Fraction) else 1.0
    return [math.comb(T, k) * q**k * (one - q) ** (T - k) for k in range(T + 1)]
