"""Exact sampling of Aztec-diamond tilings by domino shuffling.

The target measure puts weight w^(#vertical dominoes) on each tiling; with
q = w^2 / (1 + w^2) the shuffle grows a tiling of order m into one of order
m+1 in three phases: destroy bad pairs, slide every domino one step in its
compass direction, and fill each empty 2x2 block with a vertical pair with
probability q (horizontal otherwise).  The result after n stages is an exact
sample for order n.

The state is a pair of bitboards, Python ints with one bit per square and
replica (anchors of horizontal and of vertical dominoes), and each phase is
a few shifts and bitwise operations on whole boards.  The board grows by one
row at each end per stage, so stage m costs time in proportion to the area
of A_m, and ``sample_aztec(measure, rng, size=R)`` draws R tilings in one
pass, the replicas interleaved bit by bit.  A single draw (``size=None``)
takes the same values from the stream as the dict-per-domino shuffle kept
in the tests as its reference.

A brute-force weighted enumerator (exact rational weights) backs the
statistical tests for small orders.  Its perfect-matching backtracker,
``_perfect_matchings``, also enumerates the brick-lattice dimer covers of
brickdimer.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .aztec import _ANCHOR_DTYPE, Tiling, _anchor_array, _pack, _unpack, diamond_squares

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


def _tile(pattern: int, stride: int, count: int) -> int:
    """``count`` copies of ``pattern``, copy c shifted up by c * stride bits.

    Built by doubling, so the cost is linear in the size of the result."""
    out, width = 0, stride
    while count:
        if count & 1:
            out = (out << width) | pattern
        pattern |= pattern << width
        width *= 2
        count >>= 1
    return out


# Up to this many bits, a stage's board scatters its coins bit by bit in
# Python; above it, through one unpack and pack of the board in numpy.  The
# loop costs a few int operations per block, the numpy round trip ~10 us per
# stage whatever the board, so the loop wins on the small boards of A_4-sized
# draws: +10% items/s on the perfbench `aztec` workload, against a cut-off of
# 0, in 10 of 10 alternating runs.  Cut-offs of 512, 1024 and 2048 drew A_8
# to A_48 equally fast within noise; 4096 was slower at A_24 and A_32.  Boards
# this small also keep their masks cached (see _small_masks).
_LOOP_BITS = 1024


def _masks(n: int, R: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The masks of sample_aztec's board for order n and R replicas:
    ``even``, the squares with x + y + m - 1 even, and ``scan``, the
    (shift, mask) steps of the running parity along each row."""
    W = 2 * n  # row length in squares
    ROW = W * R  # row length in bits
    square = (1 << R) - 1  # one square, every replica
    row = (1 << ROW) - 1
    # x + y + m - 1 even: on row 0, the squares with x + n = n + 1 mod 2
    even = _tile(square << (n + 1) % 2 * R, 2 * R, n)
    even = _tile(even | (even ^ row) << ROW, 2 * ROW, n)
    # Hillis-Steele scan steps: step s xors in the value s squares to the
    # left, which lies in the same row where x + n >= s
    scan = tuple((s * R, _tile(row >> s * R << s * R, ROW, W))
                 for s in (1 << t for t in range(max(W - 1, 0).bit_length())))
    return even, scan


# The masks of boards of at most _LOOP_BITS bits, by (n, R).  Only small
# boards are kept: building the masks took 4 of an A_4 draw's 33 us, but 19
# of an A_48 draw's 1100 us, and the masks of large boards take megabytes
# (92 MB for R = 10^4 at n = 48, 6 MB for one draw at n = 1000).
_small_masks = functools.cache(_masks)


def sample_aztec(measure: AztecMeasure, rng: np.random.Generator,
                 size: int | None = None) -> Tiling | list[Tiling]:
    """Draw one exact sample via n shuffle stages, or a list of ``size``
    samples drawn in one pass.

    The state is two bitboards, Python ints H (anchors of horizontal
    dominoes) and V (vertical).  Square (x, y) of replica r is bit
    ((y + m) * 2n + x + n) * R + r at stage m: rows of 2n squares, bottom row
    first, and the replica fastest.  A step in x is a shift by R bits and a
    step in y one by 2nR.  The board holds only the 2m rows of A_m: each
    stage begins by shifting both ints up one row, so a stage costs time in
    proportion to the area of A_m, not of A_n.  In these coordinates a domino
    of A_{m-1} anchored at (x, y) is N (horizontal) or E (vertical) when
    x + y + m - 1 is even, and S or W when it is odd, and that parity does
    not depend on m: one mask serves every stage.  Kinds are recomputed from
    the colouring of the current order at every stage, so stage k is the
    order-k sample drawn from the same stream.  The masks (that parity mask
    and the row-scan masks of the filling phase) depend only on n and R;
    they are cached for boards of at most _LOOP_BITS = 1024 bits (4 n^2 R),
    such as A_4 single draws, and built per call above that.

    A single draw (``size=None``) takes one ``rng.random()`` value per
    empty block, blocks in row-major order.  A batch takes each stage's
    values block position by block position, replica by replica within a
    position (ascending bit order), so its replicas are not the tilings that
    ``size`` single calls would draw.
    """
    n, q = measure.n, measure.q
    R = 1 if size is None else size
    W = 2 * n  # row length in squares
    ROW = W * R  # row length in bits
    square = (1 << R) - 1  # one square, every replica
    AREA = W * ROW  # bits of the board of A_n
    even, scan = (_small_masks if AREA <= _LOOP_BITS else _masks)(n, R)
    H = V = diamond = 0  # diamond: the squares of A_m

    for m in range(1, n + 1):
        H <<= ROW
        V <<= ROW
        if m == 1:
            diamond = (square << R | square) << (n - 1) * R
            diamond |= diamond << ROW
        else:  # A_m is A_{m-1} grown by one square in each axis direction
            diamond <<= ROW
            diamond |= (diamond << R) | (diamond >> R) | (diamond << ROW) | (diamond >> ROW)

        # destruction and sliding: N up and S down, E right and W left,
        # except that an N right below an S, or an E right left of a W,
        # would collide and are dropped.  The dominoes of A_{m-1} keep off
        # the outer rows of A_m and off the board's outer columns, so no
        # shift loses a domino or carries it to another row.
        up = H & even  # N; H keeps S
        H ^= up
        bad = up & (H >> ROW)
        up ^= bad
        H ^= bad << ROW
        H = (H >> ROW) | (up << ROW)
        right = V & even  # E; V keeps W
        V ^= right
        bad = right & (V >> R)
        right ^= bad
        V ^= bad << R
        V = (V >> R) | (right << R)

        # filling: the empty squares form disjoint 2x2 blocks, and each
        # block's lower-left corner has x + y + m odd, like its upper-right
        # square; of the two, the corner is at an odd running count of
        # empties along its row.  The check below confirms that the blocks
        # found tile the empty squares exactly.
        empty = diamond ^ (H | V | (H << R) | (V << ROW))
        corner = empty
        for shift, mask in scan:  # running parity along each row
            corner ^= (corner << shift) & mask
        corner &= even
        blocks = corner | (corner << R)
        blocks |= blocks << ROW
        k = corner.bit_count()
        if 4 * k != empty.bit_count() or blocks != empty:
            raise AssertionError(f"stage {m}: the empty squares are not 2x2 blocks")
        coins = rng.random(k) < q  # block by block in ascending bit order
        bits = 2 * m * ROW
        if bits <= _LOOP_BITS:
            vertical, rest = 0, corner
            for coin in coins.tolist():
                low = rest & -rest
                rest ^= low
                if coin:
                    vertical |= low
        else:
            board = _unpack(corner, bits)
            board[np.flatnonzero(board)] = coins
            vertical = _pack(board)
        corner ^= vertical  # now the horizontal blocks
        V |= vertical | (vertical << R)
        H |= corner | (corner << ROW)

    # anchors sorted by x, then y, as a sorted Domino tuple is; one unpack
    # reads the anchored squares (low half) and the horizontal ones (high)
    anchored, horizontal = _unpack(H << AREA | H | V, 2 * AREA).reshape(2, W, W, R)
    r, x, y = np.nonzero(anchored.transpose(2, 1, 0))
    anchors = np.empty((R, n * (n + 1), 3), dtype=_ANCHOR_DTYPE)
    columns = anchors.reshape(-1, 3).T
    np.subtract(x, n, out=columns[0], casting="unsafe")
    np.subtract(y, n, out=columns[1], casting="unsafe")
    columns[2] = horizontal[y, x, r]
    anchors.flags.writeable = False  # and so is each replica's view
    tilings = [Tiling._from_anchors(n, a) for a in anchors]
    return tilings[0] if size is None else tilings


def _perfect_matchings(adjacency: list[list[tuple[int, object]]]) -> list[tuple]:
    """Every perfect matching of the graph on vertices 0..k-1 in which vertex
    v lists its (neighbour, label) pairs in ``adjacency[v]``, each matching
    as the tuple of the labels of its pairs.  The first unmatched vertex is
    paired with each unmatched neighbour in list order, so the matchings come
    in that backtracking order and each label tuple in the order of its
    first vertices."""
    k = len(adjacency)
    matched = [False] * k
    labels: list = []
    out: list[tuple] = []

    def extend(i: int) -> None:
        while i < k and matched[i]:
            i += 1
        if i == k:
            out.append(tuple(labels))
            return
        matched[i] = True
        for j, label in adjacency[i]:
            if not matched[j]:
                matched[j] = True
                labels.append(label)
                extend(i + 1)
                labels.pop()
                matched[j] = False
        matched[i] = False

    extend(0)
    return out


def enumerate_tilings(n: int, w: Fraction | int = 1) -> list[tuple[Tiling, Fraction]]:
    """All tilings of A_n with exact rational weights w^(#vertical).

    The squares, taken bottom to top and left to right, pair the first one
    not yet covered with its right neighbour (a horizontal domino), then its
    upper one (vertical).  Cost grows like 2^(n(n+1)/2); orders above 5 are
    refused.
    """
    if n > 5:
        raise ValueError(
            f"enumeration of A_{n} would produce 2^{n * (n + 1) // 2} "
            f"~ {2.0 ** (n * (n + 1) // 2):.2e} tilings; refusing (limit n <= 5)"
        )
    squares = sorted(diamond_squares(n), key=lambda s: (s[1], s[0]))
    index = {sq: i for i, sq in enumerate(squares)}
    adjacency = [[(index[p], (x, y, h)) for h, p in ((1, (x + 1, y)), (0, (x, y + 1)))
                  if p in index] for x, y in squares]
    powers = [Fraction(w) ** v for v in range(n * (n + 1) + 1)]
    return [(Tiling._from_anchors(n, _anchor_array(rows)),
             powers[len(rows) - sum(row[2] for row in rows)])
            for rows in _perfect_matchings(adjacency)]


def vertical_count_law(n: int, q) -> list:
    """Law of the number of vertical *pairs* k: Binomial(n(n+1)/2, q).

    Exact when q is a Fraction, float otherwise.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    T = n * (n + 1) // 2
    one = Fraction(1) if isinstance(q, Fraction) else 1.0
    return [math.comb(T, k) * q**k * (one - q) ** (T - k) for k in range(T + 1)]
