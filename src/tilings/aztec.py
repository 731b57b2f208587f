"""Aztec diamond geometry.

The Aztec diamond of order n is the union of the lattice unit squares lying
inside |x| + |y| <= n + 1.  This module provides the combinatorial layer on
which everything else is built:

* domino classification into the four compass kinds N/S/W/E,
* the bijection between tilings and families of n non-intersecting DR-paths
  (two complementary flavors, living in two sheared coordinate systems),
* zig-zag particle/hole configurations read off a tiling at level r,
* the domino height function and its particle-counting formula,
* the polar-region decomposition (frozen brick-wall corners vs. the
  temperate zone), a flood fill on Python-int bitboards.

Squares are addressed by their lower-left corner.  The checkerboard colouring
is fixed so that the leftmost square of each row in the top half is white,
which works out to: square (x, y) is white iff x + y + n is even.

A :class:`Tiling` holds its dominoes as the array ``anchors``, one row
(x, y, horizontal) per domino in sorted order.  It is the one domino format:
the readers, the DR paths, the JSON form, equality and hashing work on it,
and per-domino results (``polar_regions``) come in the order of its rows.
:class:`Domino` values appear only at the API edge: the ``Tiling``
constructor, ``Tiling.dominoes`` (built on first use) and ``classify_domino``.
A Domino is a named tuple (x, y, horizontal), so it orders, hashes and
compares equal as that plain tuple does.

:meth:`Tiling.validate` returns the tiling's square grid, which the readers
(zig-zag configurations, heights, polar regions) work on with array
operations: grid[y + n + 1, x + n + 1] is the index in ``anchors`` of the
domino covering square (x, y) of the (2n+2)^2 box, or -1 outside A_n.  The
grid is built once per tiling and cached.

Coordinate systems for the path families:

* CS-I has origin (n+1, 1/2) and basis e = (-1,-1), f = (-1,1).
* CS-II has origin (-n-1, -1/2) and basis e = (1,1), f = (1,-1).

Path vertices sit at integer CS coordinates, i.e. at half-integer heights in
the original frame; we store doubled y-coordinates internally so everything
stays in exact integer arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "GeometryError",
    "TilingError",
    "Domino",
    "Tiling",
    "ParticleConfig",
    "HeightField",
    "DRPathFamily",
    "square_in_diamond",
    "square_is_white",
    "diamond_squares",
    "classify_domino",
    "extract_dr_paths",
    "dr_paths_to_tiling",
    "zigzag_config",
    "height_function",
    "height_from_particles",
    "polar_regions",
    "tiling_to_json",
    "tiling_from_json",
]


class GeometryError(ValueError):
    """A placement or index that does not fit the diamond."""


class TilingError(ValueError):
    """A set of dominoes that is not a valid tiling."""


def square_in_diamond(x: int, y: int, n: int) -> bool:
    """True iff the unit square with lower-left corner (x, y) lies in A_n
    (elementwise on arrays)."""
    return abs(2 * x + 1) + abs(2 * y + 1) <= 2 * n


def square_is_white(x: int, y: int, n: int) -> bool:
    return (x + y + n) % 2 == 0


_KINDS = "NSWE"


def _kind(x, y, horizontal, n):
    """Compass kind of a domino in A_n as an index into _KINDS (elementwise
    on arrays).  A horizontal domino is N iff its left square is white; a
    vertical domino is W iff its upper square is white."""
    odd = (x + y + n) % 2
    return horizontal * odd + (1 - horizontal) * (3 - odd)


def diamond_squares(n: int) -> Iterator[tuple[int, int]]:
    """All squares of A_n, bottom-to-top then left-to-right."""
    for y in range(-n - 1, n + 1):
        for x in range(-n - 1, n + 1):
            if square_in_diamond(x, y, n):
                yield (x, y)


class Domino(NamedTuple):
    """A domino anchored at its lower-left corner: the immutable tuple
    (x, y, horizontal).  Dominoes order and hash as those tuples, and a
    Domino equals the plain tuple of its fields:
    ``Domino(0, 1, True) == (0, 1, True)``."""

    x: int
    y: int
    horizontal: bool

    def squares(self) -> tuple[tuple[int, int], tuple[int, int]]:
        if self.horizontal:
            return ((self.x, self.y), (self.x + 1, self.y))
        return ((self.x, self.y), (self.x, self.y + 1))


def classify_domino(d: Domino, n: int) -> str:
    """Compass kind N, S, W or E of a domino placed in A_n (see _kind)."""
    for (sx, sy) in d.squares():
        if not square_in_diamond(sx, sy, n):
            raise GeometryError(f"domino {d} does not fit inside A_{n}")
    return _KINDS[_kind(d.x, d.y, d.horizontal, n)]


_ANCHOR_DTYPE = np.int32


def _anchor_array(rows: Iterable[tuple[int, int, bool]] | np.ndarray) -> np.ndarray:
    """Read-only (k, 3) array of rows (x, y, horizontal), sorted like Domino
    tuples.  Rows that arrive strictly increasing are copied, not sorted."""
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    a = np.array(rows, dtype=_ANCHOR_DTYPE, order="C").reshape(-1, 3)
    lo, hi = a[:-1], a[1:]
    gt, eq = hi > lo, hi == lo
    if not (gt[:, 0] | eq[:, 0] & (gt[:, 1] | eq[:, 1] & gt[:, 2])).all():
        a = a[np.lexsort(a.T[::-1])]
    a.flags.writeable = False
    return a


class Tiling:
    """A set of dominoes on A_n, stored as the array ``anchors``: one row
    (x, y, horizontal) per domino, in the order of the sorted ``dominoes``.
    ``dominoes``, the same set as a sorted tuple of :class:`Domino`, is
    derived on first use and cached.  The constructor takes any iterable of
    Dominoes or of plain (x, y, horizontal) tuples.  Two tilings are equal
    when their orders and anchor arrays are."""

    __slots__ = ("_order", "_anchors", "_dominoes", "_grid")

    def __init__(self, order: int, dominoes: Iterable[Domino]):
        self._set(order, _anchor_array(dominoes))

    @classmethod
    def _from_anchors(cls, order: int, anchors: np.ndarray) -> "Tiling":
        """Tiling holding a sorted, read-only anchor array (not copied)."""
        t = object.__new__(cls)
        t._set(order, anchors)
        return t

    def _set(self, order: int, anchors: np.ndarray) -> None:
        self._order, self._anchors, self._dominoes, self._grid = order, anchors, None, None

    @property
    def order(self) -> int:
        return self._order

    @property
    def anchors(self) -> np.ndarray:
        """Read-only (k, 3) array: anchor x, anchor y, horizontal (0/1)."""
        return self._anchors

    @property
    def dominoes(self) -> tuple[Domino, ...]:
        if self._dominoes is None:
            x, y, h = self._anchors.T
            rows = zip(x.tolist(), y.tolist(), (h == 1).tolist())
            self._dominoes = tuple(map(Domino._make, rows))
        return self._dominoes

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tiling):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Tiling(order={self._order}, dominoes={self.dominoes!r})"

    def validate(self) -> np.ndarray:
        """Check that the dominoes tile A_n exactly and return the square
        grid (see the module docstring).  Read-only and cached."""
        if self._grid is not None:
            return self._grid
        n, size = self._order, 2 * self._order + 2
        x, y, h = self._anchors.T
        sx, sy = np.concatenate([x, x + h]), np.concatenate([y, y + 1 - h])
        outside = ~square_in_diamond(sx, sy, n)
        if outside.any():
            i = np.argmax(outside)
            raise TilingError(f"square {(int(sx[i]), int(sy[i]))} outside A_{n}")
        flat = (sy + n + 1) * size + sx + n + 1
        twice = np.bincount(flat) > 1
        if twice.any():
            j, i = divmod(int(np.argmax(twice)), size)
            raise TilingError(f"square {(i - n - 1, j - n - 1)} covered twice")
        if flat.size != 2 * n * (n + 1):
            raise TilingError(f"covered {flat.size} squares, A_{n} has {2 * n * (n + 1)}")
        grid = np.full((size, size), -1)
        grid.flat[flat] = np.tile(np.arange(len(self._anchors)), 2)
        grid.flags.writeable = False
        self._grid = grid
        return grid

    def vertical_count(self) -> int:
        return int(np.count_nonzero(self._anchors[:, 2] == 0))

    def key(self) -> tuple:
        """Hashable canonical form, for frequency counting."""
        return (self._order, self._anchors.tobytes())


@dataclass(frozen=True)
class ParticleConfig:
    """Strictly increasing site positions on the window {0, ..., window}."""

    window: int
    positions: tuple[int, ...]

    def __post_init__(self):
        pos = tuple(self.positions)
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError(f"positions not strictly increasing: {pos}")
        if pos and (pos[0] < 0 or pos[-1] > self.window):
            raise ValueError(f"positions {pos} leave window [0,{self.window}]")
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return len(self.positions)


# ---------------------------------------------------------------------------
# DR-paths
# ---------------------------------------------------------------------------

# Marked segment on each domino kind N, S, W, E: offsets (dx, 2*dy) of its
# start and its end from the anchor (doubled y keeps them integral), zero for
# the unmarked kind.  Segments run towards increasing CS x: leftward for type
# I, rightward for type II.  Type II marks N, leaves S unmarked and swaps the
# W/E markings of type I, the convention under which particle and hole
# configurations are exact complements (see tests).
_SEGMENTS = {
    "typeI": np.array([[0, 0, 0, 0], [2, 1, 0, 1], [1, 3, 0, 1], [1, 1, 0, 3]]),
    "typeII": np.array([[0, 1, 2, 1], [0, 0, 0, 0], [0, 3, 1, 1], [0, 1, 1, 3]]),
}


@dataclass(frozen=True)
class DRPathFamily:
    """n non-intersecting lattice paths encoding a tiling.

    Paths are stored in their own coordinate system (CS-I or CS-II), where
    they take steps (1,0), (0,1) and (1,1).  Path k runs from (k, 0) to
    (n+1, n+1-k); path 1 is the topmost one in the original frame.
    """

    flavor: str  # "typeI" | "typeII"
    order: int
    paths: tuple[tuple[tuple[int, int], ...], ...]

    def validate(self) -> np.ndarray:
        """Check the paths; return their steps p -> q as rows px, py, qx, qy."""
        n = self.order
        if len(self.paths) != n:
            raise ValueError(f"expected {n} paths, got {len(self.paths)}")
        xy = np.fromiter(chain.from_iterable(chain.from_iterable(self.paths)), int)
        x, y = xy[0::2], xy[1::2]
        lengths = np.array([len(p) for p in self.paths], dtype=int)
        path = np.repeat(np.arange(n), lengths)
        same = path[1:] == path[:-1]
        dx, dy = np.diff(x), np.diff(y)
        bad_step = same & ((dx | dy) != 1)  # only (1,0), (0,1), (1,1) give 1
        k, tail = np.arange(1, n + 1), np.cumsum(lengths) - 1
        head = tail - lengths + 1
        bad_end = (x[head] != k) | (y[head] != 0) | (x[tail] != n + 1) | (y[tail] != n + 1 - k)
        bad = bad_end | (np.bincount(path[1:][bad_step], minlength=n) > 0)
        if bad.any():
            w = int(np.argmax(bad))
            if bad_end[w]:
                p = self.paths[w]
                raise ValueError(f"path {w + 1} has endpoints {p[0]}..{p[-1]}")
            i = np.flatnonzero(bad_step & (path[1:] == w))[0]
            raise ValueError(f"bad step {(int(dx[i]), int(dy[i]))} in path {w + 1}")
        flat = x * (n + 2) + y  # the checks above keep points in the box 0..n+1 squared
        shared = np.bincount(flat)[flat] > 1
        if shared.any():
            i = np.argmax(shared)
            raise ValueError(f"paths intersect at {(int(x[i]), int(y[i]))}")
        return np.stack([x[:-1], y[:-1], x[1:], y[1:]])[:, same]


def _to_cs(x, y2, n: int, flavor: str):
    """Original point (x, y2/2), y2 odd -> CS coordinates (elementwise)."""
    # type I: x = n+1 - xi - yi, y = 1/2 - xi + yi; type II: x = -n-1 + xi + yi,
    # y = -1/2 + xi - yi.  s = 2*(xi + yi) and d = 2*(xi - yi).
    sign = -1 if flavor == "typeI" else 1
    s, d = 2 * (n + 1 + sign * x), sign * y2 + 1
    (xi, rem1), (yi, rem2) = np.divmod(s + d, 4), np.divmod(s - d, 4)
    bad = (rem1 != 0) | (rem2 != 0)
    if np.any(bad):
        i = np.argmax(bad)
        raise GeometryError(f"point ({np.ravel(x)[i]}, {np.ravel(y2)[i]}/2) "
                            "is not a CS lattice point")
    return xi, yi


def _from_cs(xi, yi, n: int, flavor: str):
    """CS point -> (x, doubled y) in the original frame (elementwise)."""
    sign = 1 if flavor == "typeI" else -1
    return sign * (n + 1 - xi - yi), sign * (1 - 2 * xi + 2 * yi)


def extract_dr_paths(t: Tiling, flavor: str = "typeI") -> DRPathFamily:
    """Read the family of n non-intersecting DR-paths off a tiling.

    Every marked segment is one path step p -> q.  A path takes its steps in
    increasing (CS x, CS y) order and crosses column CS x = c in one
    upward run; the runs of paths 1, 2, ... come down each column in that
    order, and a run ends at a point that takes no (0, 1) step."""
    if flavor not in _SEGMENTS:
        raise ValueError(f"unknown flavor {flavor!r}")
    t.validate()
    n = t.order
    x, y, h = t.anchors.T
    seg = _SEGMENTS[flavor][_kind(x, y, h, n)]
    marked = seg.any(axis=1)
    x, y2, seg = x[marked], 2 * y[marked], seg[marked]
    px, py = _to_cs(x + seg[:, 0], y2 + seg[:, 1], n, flavor)
    qx, qy = _to_cs(x + seg[:, 2], y2 + seg[:, 3], n, flavor)
    rises = np.zeros((n + 2, n + 2), dtype=bool)
    rises[px[px == qx], py[px == qx]] = True  # the (0, 1) steps
    X, Y = np.r_[1:n + 1, qx], np.r_[np.zeros(n, int), qy]  # path starts, step ends
    top_down = np.lexsort((-Y, X))
    X, Y = X[top_down], Y[top_down]
    runs = np.cumsum(~rises[X, Y])
    path = runs - runs[np.searchsorted(X, X)]
    order = np.lexsort((Y, X, path))
    P = list(zip(X[order].tolist(), Y[order].tolist()))
    ends = np.cumsum(np.bincount(path, minlength=n)).tolist()
    paths = tuple(tuple(P[i:j]) for i, j in zip([0] + ends, ends))
    fam = DRPathFamily(flavor=flavor, order=n, paths=paths)
    fam.validate()
    return fam


def dr_paths_to_tiling(family: DRPathFamily) -> Tiling:
    """Inverse of :func:`extract_dr_paths`: place the marked domino of every
    path step, then cover each square of A_n that is left uncovered and has
    the anchor colour with a horizontal domino of the unmarked kind (N for
    type I, S for type II).  Raises TilingError if that does not tile."""
    px, py, qx, qy = family.validate()
    n, flavor = family.order, family.flavor
    # the left end of a step in the original frame (type I runs right to left)
    # is the midpoint of the left side of its marked domino's anchor square, or
    # of the square above it for a (0, 1) step; (1, 1) steps mark horizontals
    x, y2 = _from_cs(qx, qy, n, flavor) if flavor == "typeI" else _from_cs(px, py, n, flavor)
    dx, dy = qx - px, qy - py
    marked = np.column_stack([x, (y2 - 1) // 2 - (dx == 0), dx * dy])
    mx, my, mh = marked.T
    covered = np.zeros((2 * n + 2, 2 * n + 2), dtype=bool)
    for sx, sy in ((mx, my), (mx + mh, my + 1 - mh)):
        covered[sy + n + 1, sx + n + 1] = True
    y, x = np.mgrid[-n - 1:n + 1, -n - 1:n + 1]
    fill = (square_in_diamond(x, y, n) & ~covered
            & (square_is_white(x, y, n) == (flavor == "typeI")))
    filled = np.column_stack([x[fill], y[fill], np.ones_like(x[fill])])
    t = Tiling._from_anchors(n, _anchor_array(np.concatenate([marked, filled])))
    t.validate()
    return t


# ---------------------------------------------------------------------------
# Zig-zag configurations
# ---------------------------------------------------------------------------


def _level_particles(t: Tiling, r) -> np.ndarray:
    """particle[..., k]: whether the k-th white square of zig-zag level r,
    the one with lower-left corner (k-r, n-r-k), k = 0..n, is covered by an
    S- or W-domino.  r may be an array of levels, which leads the result."""
    n = t.order
    r = np.asarray(r)[..., None]
    k = np.arange(n + 1)
    cells = t.anchors[t.validate()[2 * n + 1 - r - k, k - r + n + 1]]
    kind = _kind(cells[..., 0], cells[..., 1], cells[..., 2], n)
    return np.isin(kind, (_KINDS.index("S"), _KINDS.index("W")))


def zigzag_config(t: Tiling, r: int) -> tuple[ParticleConfig, ParticleConfig]:
    """Particle and hole configuration at level r.

    Walk the chain of white squares with corners Q_k^r = (-r+k, n+1-k-r),
    k = 0..n+1.  The k-th white square contributes a particle at n-k when it
    is covered by an S- or W-domino, and a hole at n-k when covered by an
    N- or E-domino.  Particles and holes partition {0, ..., n}.
    """
    n = t.order
    if not 1 <= r <= n:
        raise GeometryError(f"level r={r} out of range 1..{n}")
    particle = _level_particles(t, r)
    sites = n - np.arange(n + 1)
    particles = tuple(sites[particle][::-1].tolist())
    holes = tuple(sites[~particle][::-1].tolist())
    if len(particles) != r:
        raise TilingError(f"expected {r} particles, found {len(particles)}")
    return ParticleConfig(n, particles), ParticleConfig(n, holes)


# ---------------------------------------------------------------------------
# Height function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightField:
    """Heights on the vertex box x, y in -n-1..n+1: heights[y + n + 1, x + n + 1]
    is the height at vertex (x, y), masked unless (x, y) is a corner of a
    square of A_n."""

    order: int
    heights: np.ma.MaskedArray

    def at(self, x: int, y: int) -> int:
        n = self.order
        if abs(x) + abs(y) > n + 1 or np.ma.is_masked(h := self.heights[y + n + 1, x + n + 1]):
            raise GeometryError(f"({x}, {y}) is not a vertex of A_{n}")
        return int(h)

    def zigzag_corner(self, r: int, k: int) -> int:
        """Height at Q_k^r = (-r+k, n+1-k-r)."""
        return self.at(-r + k, self.order + 1 - k - r)


def _height_steps(left, right, left_white):
    """Height changes along edges whose left and right squares hold the
    given domino indices (-1 outside A_n), and which edges touch A_n."""
    s = np.where(left_white, -1, 1)
    covered = (left == right) & (left >= 0)
    return np.where(covered, -3 * s, s), (left >= 0) | (right >= 0)


def height_function(t: Tiling) -> HeightField:
    """Integrate the local height rules over the vertex grid.

    Along an edge u -> v not covered by a domino the height changes by +1 if
    the square to the left of the edge is black, else -1; across a covered
    edge the change is -3 and +3 respectively.  Normalized by h(n, 0) = 0.
    The steps are summed up the column x = 0 and then along every row; a
    consistency check over all edges guards against broken tilings.
    """
    n = t.order
    G = np.pad(t.validate(), 1, constant_values=-1)  # squares -n-2..n+1
    # edge (x, y) -> (x+1, y) has square (x, y) on its left, (x, y-1) on its
    # right; edge (x, y) -> (x, y+1) has (x-1, y) on its left, (x, y) on its right
    y, x = np.ogrid[-n - 1:n + 2, -n - 1:n + 1]
    step_x, edge_x = _height_steps(G[1:, 1:-1], G[:-1, 1:-1], square_is_white(x, y, n))
    y, x = np.ogrid[-n - 1:n + 1, -n - 1:n + 2]
    step_y, edge_y = _height_steps(G[1:-1, :-1], G[1:-1, 1:], square_is_white(x - 1, y, n))
    c = n + 1  # index of x = 0 (columns) and of y = 0 (rows)
    up = np.concatenate([[0], np.cumsum(step_y[:, c])])
    along = np.pad(np.cumsum(step_x, axis=1), ((0, 0), (1, 0)))
    H = up[:, None] + along - along[:, c:c + 1]
    H -= H[c, 2 * n + 1]
    for step, edge, axis in ((step_x, edge_x, 1), (step_y, edge_y, 0)):
        bad = np.argwhere(edge & (np.diff(H, axis=axis) != step))
        if bad.size:
            j, i = bad[0]
            raise TilingError(f"inconsistent height at the edge from vertex "
                              f"({i - n - 1}, {j - n - 1})")
    inside = G >= 0
    vertex = inside[:-1, :-1] | inside[1:, :-1] | inside[:-1, 1:] | inside[1:, 1:]
    return HeightField(order=n, heights=np.ma.masked_array(H, mask=~vertex))


def height_from_particles(n: int, r: int, k: int, particles: ParticleConfig) -> int:
    """Height at the zig-zag corner Q_k^r from the particle configuration:
    2(n-k+r) + 1 - 4*nu[0, n-k], with the empty-prefix convention
    nu[0, m] = 0 for m < 0."""
    if not 0 <= k <= n + 1:
        raise GeometryError(f"k={k} out of range 0..{n + 1}")
    m = n - k
    nu = sum(1 for p in particles.positions if p <= m) if m >= 0 else 0
    return 2 * (n - k + r) + 1 - 4 * nu


# ---------------------------------------------------------------------------
# Polar regions
# ---------------------------------------------------------------------------


_REGIONS = ("north", "south", "west", "east", "temperate")


def _unpack(value: int, nbits: int) -> np.ndarray:
    """Bits 0..nbits-1 of a nonnegative int as a bool array."""
    raw = np.frombuffer(value.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=nbits, bitorder="little").view(bool)


def _pack(bits: np.ndarray) -> int:
    """The int whose bit b is ``bits[b]``."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def polar_regions(t: Tiling) -> tuple[str, ...]:
    """Label every domino north/south/west/east/temperate, in the order of
    the rows of ``t.anchors``.

    The north region is the set of N-dominoes connected to the boundary
    through chains of edge-adjacent N-dominoes; similarly for S/W/E: a flood
    fill from the squares next to the outside, all kinds at once, on int
    bitboards of the grid with a guard column, so a 1-bit shift never wraps.
    """
    grid = t.validate()
    kind = np.append(_kind(*t.anchors.T, t.order), -1)[grid]  # -1 outside A_n
    flat = np.pad(kind, ((0, 0), (0, 1)), constant_values=-1).ravel()
    width = kind.shape[1] + 1
    inside = _pack(flat >= 0)
    # bit b of a link: squares b and b + s have one kind (outside links only outside)
    links = [(s, _pack(flat[:-s] == flat[s:])) for s in (1, width)]
    grown, polar = 0, inside & ~(inside << 1 & inside >> 1 & inside << width & inside >> width)
    while grown != polar:
        grown = polar
        for s, link in links:
            polar |= (polar & link) << s | (polar >> s) & link
    is_polar = _unpack(polar, flat.size).reshape(-1, width)[:, :-1]
    region = np.full(len(t.anchors), _REGIONS.index("temperate"))
    region[grid[is_polar]] = kind[is_polar]
    return tuple(map(_REGIONS.__getitem__, region.tolist()))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_ORIENTATIONS = ("vertical", "horizontal")


# one JSON record per orientation, awaiting its anchor's x and y
_RECORDS = tuple('{"orientation": "%s", "x": %%d, "y": %%d}' % o for o in _ORIENTATIONS)


def tiling_to_json(t: Tiling) -> str:
    """JSON with order and anchored dominoes; kinds are derived, not stored.
    The text is that of ``json.dumps`` with sorted keys."""
    records = ", ".join(map(_RECORDS.__getitem__, t.anchors[:, 2].tolist()))
    rows = records % tuple(t.anchors[:, :2].ravel().tolist())
    return f'{{"dominoes": [{rows}], "order": {t.order}}}'


def tiling_from_json(s: str) -> Tiling:
    """Parse :func:`tiling_to_json` output.  Raises TilingError on a non-integer
    or negative order, a non-integer anchor, an unknown orientation or a non-tiling."""
    obj = json.loads(s)
    n, dominoes = obj["order"], obj["dominoes"]
    x, y, orientation = (tuple(map(itemgetter(k), dominoes)) for k in ("x", "y", "orientation"))
    if type(n) is not int or n < 0:
        raise TilingError(f"order {n!r} is not a nonnegative integer")
    if {type(v) for v in x + y} - {int} or max(map(abs, x + y), default=0) > n + 1:
        raise TilingError(f"domino anchors must be integers in A_{n}'s box")
    if set(orientation) - set(_ORIENTATIONS):
        raise TilingError(f"orientations must be {' or '.join(_ORIENTATIONS)}")
    h = [o == "horizontal" for o in orientation]
    t = Tiling._from_anchors(n, _anchor_array(np.array([x, y, h], dtype=_ANCHOR_DTYPE).T))
    t.validate()
    return t
