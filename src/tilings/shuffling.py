"""Exact sampling of Aztec-diamond tilings by domino shuffling.

The target measure puts weight w^(#vertical dominoes) on each tiling; with
q = w^2 / (1 + w^2) the shuffle grows a tiling of order m into one of order
m+1 in three phases: destroy bad pairs, slide every domino one step in its
compass direction, and fill each empty 2x2 block with a vertical pair with
probability q (horizontal otherwise).  The result after n stages is an exact
sample for order n.

A brute-force weighted enumerator (exact rational weights) backs the
statistical tests for small orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .aztec import Domino, Tiling, _kind, diamond_squares

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


_N, _S, _W, _E = range(4)  # kind codes of aztec._kind
_SLIDE = ((0, 1), (0, -1), (-1, 0), (1, 0))  # by kind code


def sample_aztec(measure: AztecMeasure, rng: np.random.Generator) -> Tiling:
    """Draw one exact sample via n shuffle stages.  Kinds are recomputed
    from the colouring of the current order at every stage, so stage k of
    the shuffle is the order-k sample drawn from the same stream."""
    n = measure.n
    q = measure.q
    anchors: dict[tuple[int, int], bool] = {}  # anchor -> horizontal?

    for m in range(1, n + 1):
        # destruction: drop bad pairs (facing dominoes that would collide)
        bad: set[tuple[int, int]] = set()
        for (x, y), horiz in anchors.items():
            if horiz:
                up = anchors.get((x, y + 1))
                if up is True and _kind(x, y, True, m - 1) == _N \
                        and _kind(x, y + 1, True, m - 1) == _S:
                    bad.add((x, y))
                    bad.add((x, y + 1))
            else:
                right = anchors.get((x + 1, y))
                if right is False and _kind(x, y, False, m - 1) == _E \
                        and _kind(x + 1, y, False, m - 1) == _W:
                    bad.add((x, y))
                    bad.add((x + 1, y))
        for key in bad:
            del anchors[key]

        # sliding: one unit in the compass direction of the kind
        moved: dict[tuple[int, int], bool] = {}
        for (x, y), horiz in anchors.items():
            dx, dy = _SLIDE[_kind(x, y, horiz, m - 1)]
            target = (x + dx, y + dy)
            if target in moved:
                raise AssertionError("slide collision: bad-pair removal failed")
            moved[target] = horiz
        anchors = moved

        # filling: locate empty 2x2 blocks of A_m and fill independently.
        # The block set is determined by the configuration (greedy row-major
        # scan: the first uncovered square is always a block's lower-left
        # corner); blocks consume draws in row-major order.
        covered: set[tuple[int, int]] = set()
        for (x, y), horiz in anchors.items():
            covered.add((x, y))
            covered.add((x + 1, y) if horiz else (x, y + 1))
        empties = [sq for sq in diamond_squares(m) if sq not in covered]
        empties_set = set(empties)
        blocks: list[tuple[int, int]] = []
        for (x, y) in empties:
            if (x, y) not in empties_set:
                continue
            block = ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))
            if any(sq not in empties_set for sq in block):
                raise AssertionError(f"empty region at {(x, y)} is not a 2x2 block")
            for sq in block:
                empties_set.discard(sq)
            blocks.append((x, y))
        for (x, y) in blocks:
            if rng.random() < q:
                anchors[(x, y)] = False
                anchors[(x + 1, y)] = False
            else:
                anchors[(x, y)] = True
                anchors[(x, y + 1)] = True

    dominoes = tuple(Domino(x, y, horiz) for (x, y), horiz in anchors.items())
    return Tiling(order=n, dominoes=dominoes)


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
    dominoes: list[Domino] = []
    covered = [False] * total

    def backtrack(start: int, verticals: int) -> None:
        i = start
        while i < total and covered[i]:
            i += 1
        if i == total:
            out.append((Tiling(order=n, dominoes=tuple(dominoes)), w**verticals))
            return
        x, y = squares[i]
        right = index.get((x + 1, y))
        if right is not None and not covered[right]:
            covered[i] = covered[right] = True
            dominoes.append(Domino(x, y, True))
            backtrack(i + 1, verticals)
            dominoes.pop()
            covered[i] = covered[right] = False
        up = index.get((x, y + 1))
        if up is not None and not covered[up]:
            covered[i] = covered[up] = True
            dominoes.append(Domino(x, y, False))
            backtrack(i + 1, verticals + 1)
            dominoes.pop()
            covered[i] = covered[up] = False

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
