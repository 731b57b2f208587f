"""Growth cascade bijection, Schur polynomials, Schur measure."""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2 as chi2_dist

from tilings.growth import _shapes, lpp_value, sample_geometric
from tilings.schur import (
    InvalidCascadeError,
    _check_table,
    _peel,
    cascade_grow,
    cascade_invert,
    complete_homogeneous,
    hook_content_product,
    sample_schur_matrix,
    schur_measure_prob,
    schur_poly,
)


def ssyt_weight_sum(lam, a):
    """Oracle: sum of monomial weights over semistandard tableaux of shape
    lam with entries bounded by len(a)."""
    n = len(a)
    lam = [x for x in lam if x > 0]
    if not lam:
        return Fraction(1)
    rows = len(lam)
    tab = [[0] * lam[r] for r in range(rows)]
    total = Fraction(0)

    def rec(r, c):
        nonlocal total
        if r == rows:
            w = Fraction(1)
            for rr in range(rows):
                for v in tab[rr]:
                    w *= a[v - 1]
            total += w
            return
        nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, tab[r][c - 1])
        if r > 0 and c < lam[r - 1]:
            lo = max(lo, tab[r - 1][c] + 1)
        for v in range(lo, n + 1):
            tab[r][c] = v
            rec(nr, nc)
        tab[r][c] = 0

    rec(0, 0)
    return total


# ---------------------------------------------------------------------------
# Oracle: the cascade simulated as labelled sides moving on n height curves
# ---------------------------------------------------------------------------


@dataclass
class _Side:
    """A vertical run of labelled unit sides at half-integer position pos2/2.

    kind 'L' for up-steps (a-labels), 'R' for down-steps (b-labels); labels
    are stored bottom-up.
    """

    pos2: int
    kind: str
    labels: list[int] = field(default_factory=list)


class _Level:
    """One height curve: sparse list of sides, flat baseline at -(k-1)."""

    def __init__(self, base: int):
        self.base = base
        self.sides: dict[int, _Side] = {}

    def sorted_sides(self) -> list[_Side]:
        return [self.sides[p] for p in sorted(self.sides)]

    def height(self, x: int) -> int:
        """Height of the curve on the plateau containing site x."""
        h = self.base
        for s in self.sorted_sides():
            if s.pos2 > 2 * x:
                break
            h += len(s.labels) if s.kind == "L" else -len(s.labels)
        return h

    def check_alternation(self) -> None:
        sides = self.sorted_sides()
        for s, t in zip(sides, sides[1:]):
            if s.kind == t.kind:
                continue
            if (t.pos2 - s.pos2) % 4 != 2:
                raise AssertionError(
                    f"even gap between {s.kind}@{s.pos2/2} and {t.kind}@{t.pos2/2}"
                )
        up = sum(len(s.labels) for s in sides if s.kind == "L")
        dn = sum(len(s.labels) for s in sides if s.kind == "R")
        if up != dn:
            raise AssertionError("curve does not return to its baseline")

    def add_column(self, x: int, squares: list[tuple[int, int]]) -> None:
        """Stack labelled squares on top of the column at site x."""
        if not squares:
            return
        lf = self.sides.setdefault(2 * x - 1, _Side(2 * x - 1, "L"))
        rt = self.sides.setdefault(2 * x + 1, _Side(2 * x + 1, "R"))
        if lf.kind != "L" or rt.kind != "R":
            raise AssertionError(f"side type clash while stacking at x={x}")
        lf.labels.extend(a for (a, _b) in squares)
        rt.labels.extend(b for (_a, b) in squares)


@dataclass
class Cascade:
    """The full stack of labelled curves, evolvable forward and backward."""

    n: int
    levels: list[_Level]
    time: int = 0

    @classmethod
    def initial(cls, n: int) -> "Cascade":
        return cls(n=n, levels=[_Level(-(k - 1)) for k in range(1, n + 1)])

    # -- forward ----------------------------------------------------------

    def _h_move(self, level: _Level) -> dict[int, list[tuple[int, int]]]:
        """Move sides outward; crossings annihilate bottom labels pairwise
        and emit squares for the next level, keyed by site."""
        emitted: dict[int, list[tuple[int, int]]] = {}
        sides = level.sorted_sides()
        new: dict[int, _Side] = {}
        i = 0
        while i < len(sides):
            s = sides[i]
            nxt = sides[i + 1] if i + 1 < len(sides) else None
            if (
                s.kind == "R"
                and nxt is not None
                and nxt.kind == "L"
                and nxt.pos2 - s.pos2 == 2
            ):
                # the pair swaps order; overlapping bottom labels annihilate
                x = (s.pos2 + 1) // 2
                z = min(len(s.labels), len(nxt.labels))
                emitted[x] = [(nxt.labels[j], s.labels[j]) for j in range(z)]
                rest_r = s.labels[z:]
                rest_l = nxt.labels[z:]
                if rest_l:
                    new[s.pos2] = _Side(s.pos2, "L", rest_l)
                if rest_r:
                    new[nxt.pos2] = _Side(nxt.pos2, "R", rest_r)
                i += 2
                continue
            p = s.pos2 - 2 if s.kind == "L" else s.pos2 + 2
            if p in new:
                raise AssertionError("side collision during horizontal growth")
            new[p] = _Side(p, s.kind, s.labels)
            i += 1
        level.sides = new
        return emitted

    def forward_step(self, deposits: dict[int, list[tuple[int, int]]]) -> None:
        """One time step; ``deposits`` holds the level-1 squares keyed by
        site x, each square a pair (a-index, b-index)."""
        self.time += 1
        incoming = deposits
        for lev in self.levels:
            emitted = self._h_move(lev)
            for x, squares in incoming.items():
                lev.add_column(x, squares)
            incoming = emitted
        if incoming:
            raise AssertionError(
                f"level-{self.n} crossings emitted squares at t={self.time}"
            )

    # -- backward ---------------------------------------------------------

    def _h_unmove(self, level: _Level) -> dict[int, list[tuple[int, int]]]:
        """Reverse move: width-one peaks pop their top label pairs (the
        squares that vertical growth stacked), everything else slides back."""
        popped: dict[int, list[tuple[int, int]]] = {}
        sides = level.sorted_sides()
        new: dict[int, _Side] = {}
        i = 0
        while i < len(sides):
            s = sides[i]
            nxt = sides[i + 1] if i + 1 < len(sides) else None
            if (
                s.kind == "L"
                and nxt is not None
                and nxt.kind == "R"
                and nxt.pos2 - s.pos2 == 2
            ):
                x = (s.pos2 + 1) // 2
                z = min(len(s.labels), len(nxt.labels))
                popped[x] = [
                    (s.labels[len(s.labels) - z + j], nxt.labels[len(nxt.labels) - z + j])
                    for j in range(z)
                ]
                rest_l = s.labels[: len(s.labels) - z]
                rest_r = nxt.labels[: len(nxt.labels) - z]
                if rest_l:
                    new[nxt.pos2] = _Side(nxt.pos2, "L", rest_l)
                if rest_r:
                    new[s.pos2] = _Side(s.pos2, "R", rest_r)
                i += 2
                continue
            p = s.pos2 + 2 if s.kind == "L" else s.pos2 - 2
            if p in new:
                raise AssertionError("side collision during reverse growth")
            new[p] = _Side(p, s.kind, s.labels)
            i += 1
        level.sides = new
        return popped

    def _reinsert(self, level: _Level, x: int, squares: list[tuple[int, int]]) -> None:
        """Restore annihilated label pairs at the bottom of the sides around
        site x (undoing a forward crossing)."""
        rt = level.sides.setdefault(2 * x - 1, _Side(2 * x - 1, "R"))
        lf = level.sides.setdefault(2 * x + 1, _Side(2 * x + 1, "L"))
        if rt.kind != "R" or lf.kind != "L":
            raise InvalidCascadeError(f"cannot restore a crossing at x={x}")
        rt.labels[:0] = [b for (_a, b) in squares]
        lf.labels[:0] = [a for (a, _b) in squares]

    def backward_step(self) -> dict[int, list[tuple[int, int]]]:
        """One reverse time step; returns the level-1 squares taken out."""
        restore: dict[int, list[tuple[int, int]]] = {}
        out: dict[int, list[tuple[int, int]]] = {}
        for lev in reversed(self.levels):
            popped = self._h_unmove(lev)
            for x, squares in restore.items():
                self._reinsert(lev, x, squares)
            restore = popped
        out = restore
        self.time -= 1
        return out

    # -- invariants and extraction ----------------------------------------

    def check_invariants(self, span: int | None = None) -> None:
        for lev in self.levels:
            lev.check_alternation()
        span = span or (2 * self.n + 2)
        for upper, lower in zip(self.levels, self.levels[1:]):
            for x in range(-span, span + 1):
                if upper.height(x) < lower.height(x) + 1:
                    raise AssertionError(
                        f"levels touch at x={x}, t={self.time}"
                    )

    def heights_at_origin(self) -> list[int]:
        return [lev.height(0) for lev in self.levels]

    def partition(self) -> tuple[int, ...]:
        lam = tuple(h + j for j, h in enumerate(self.heights_at_origin()))
        if any(a < b for a, b in zip(lam, lam[1:])) or (lam and lam[-1] < 0):
            raise InvalidCascadeError(f"origin heights do not give a partition: {lam}")
        return lam


def _deposits_at(W: np.ndarray, t: int) -> dict[int, list[tuple[int, int]]]:
    n = W.shape[0]
    out: dict[int, list[tuple[int, int]]] = {}
    for i in range(1, n + 1):
        j = t + 1 - i
        if not 1 <= j <= n:
            continue
        m = int(W[i - 1, j - 1])
        if m:
            out[i - j] = [(i, j)] * m
    return out


def grow_by_simulation(W, check: bool = False):
    """Run the labelled-side growth to completion; returns the final cascade,
    the partition, both tableaux and the level-1 trace.  Every final side
    must sit on the column of its labels."""
    W = np.asarray(W, dtype=np.int64)
    n = W.shape[0]
    if W.ndim != 2 or W.shape != (n, n) or (W < 0).any():
        raise ValueError("W must be a square nonnegative integer matrix")
    c = Cascade.initial(n)
    trace: dict[tuple[int, int], int] = {}
    for t in range(1, 2 * n):
        c.forward_step(_deposits_at(W, t))
        if check:
            c.check_invariants()
        for x in range(-n, n + 1):
            trace[(x, t)] = c.levels[0].height(x)
    lam = c.partition()

    left, right = [], []
    for k, lev in enumerate(c.levels, start=1):
        lcount: Counter = Counter()
        rcount: Counter = Counter()
        for s in lev.sorted_sides():
            if s.kind == "L":
                j = (s.pos2 + 1 + 4 * n) // 4  # x = 2(j-n) - 1/2
                if s.pos2 != 4 * (j - n) - 1:
                    raise InvalidCascadeError(f"stray left side at {s.pos2 / 2}")
                for a in s.labels:
                    if a != j:
                        raise InvalidCascadeError("left label off its column")
                    lcount[a] += 1
            else:
                kk = n - (s.pos2 - 1) // 4
                if s.pos2 != 4 * (n - kk) + 1:
                    raise InvalidCascadeError(f"stray right side at {s.pos2 / 2}")
                for b in s.labels:
                    if b != kk:
                        raise InvalidCascadeError("right label off its column")
                    rcount[b] += 1
        left.append(lcount)
        right.append(rcount)
    return c, lam, left, right, trace


def invert_by_simulation(c: Cascade, check: bool = False) -> np.ndarray:
    """Run the labelled-side growth backwards from a final cascade."""
    n = c.n
    if c.time != 2 * n - 1:
        raise InvalidCascadeError(f"cascade is at time {c.time}, expected {2 * n - 1}")
    W = np.zeros((n, n), dtype=np.int64)
    for t in range(2 * n - 1, 0, -1):
        out = c.backward_step()
        if check:
            c.check_invariants()
        for x, squares in out.items():
            i2, r1 = divmod(t + x + 1, 2)
            j2, r2 = divmod(t - x + 1, 2)
            if r1 or r2 or not (1 <= i2 <= n and 1 <= j2 <= n):
                raise InvalidCascadeError(f"square extracted at invalid (x,t)=({x},{t})")
            for (a, b) in squares:
                if (a, b) != (i2, j2):
                    raise InvalidCascadeError(
                        f"labels ({a},{b}) inconsistent with position ({i2},{j2})"
                    )
            W[i2 - 1, j2 - 1] += len(squares)
    for lev in c.levels:
        if lev.sides:
            raise InvalidCascadeError("leftover sides after full reversal")
    return W


def _grow(W: list[list[int]], n: int) -> list[list[list[int]]]:
    """Oracle: the shape table S[i][j], 0 <= i, j <= n, by the forward local
    rule one cell at a time on lists."""
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


def _assert_matches_oracle(W):
    res = cascade_grow(W, check=True)
    assert all(type(v) is int for v in res.partition)
    assert all(type(v) is int for v in res.level1_trace.values())
    assert all(type(k) is int and type(v) is int
               for row in res.left_tableau + res.right_tableau for k, v in row.items())
    c, lam, left, right, trace = grow_by_simulation(W)
    assert res.partition == lam
    for got, want in ((res.left_tableau, left), (res.right_tableau, right)):
        assert [sorted(row.items()) for row in got] == [sorted(row.items()) for row in want]
    assert res.level1_trace == trace
    back = cascade_invert(res, check=True)
    assert back.dtype == np.int64
    assert (back == invert_by_simulation(c)).all() and (back == W).all()


def test_cascade_matches_simulation_oracle():
    for w in itertools.product(range(3), repeat=4):
        _assert_matches_oracle(np.array(w).reshape(2, 2))
    for w in itertools.product(range(2), repeat=9):
        _assert_matches_oracle(np.array(w).reshape(3, 3))
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        _assert_matches_oracle(rng.integers(0, 5, size=(n, n)))
    _assert_matches_oracle(sample_geometric(0.5, (16, 16), rng))


def test_shapes_match_list_oracle():
    rng = np.random.default_rng(8)
    for n in (*range(1, 7), 16):
        for lead in ((), (3,), (2, 2)):
            W = rng.integers(0, 5, size=(*lead, n, n))
            S = _shapes(W, n)
            assert S.shape == (*lead, n + 1, n + 1, n) and S.dtype == np.int64
            for idx in np.ndindex(*lead):
                assert S[idx].tolist() == _grow(W[idx].tolist(), n)
    assert _shapes(np.zeros((0, 0), dtype=np.int64), 0).tolist() == _grow([], 0)


def test_peel_rebuilds_table_from_boundary_chains():
    for w in itertools.product(range(3), repeat=4):
        W = np.array(w).reshape(2, 2)
        S = _shapes(W, 2)
        P = np.zeros_like(S)
        P[:, 2], P[2] = S[:, 2], S[2]
        assert (_peel(P) == W).all() and (P == S).all()


def test_cascade_grow_rejects_malformed_input():
    for W in ([[1.5]], [[-0.5]], 5, [[1, 2], [3, 4.0]], [[1, -1], [0, 0]], [[1, 2]],
              np.full((2, 2), 2**62)):
        with pytest.raises(ValueError):
            cascade_grow(W)


def test_zero_matrix():
    res = cascade_grow(np.zeros((3, 3), dtype=int))
    assert res.partition == (0, 0, 0)
    assert (cascade_invert(res) == 0).all()


def test_single_entry():
    for m in (0, 1, 5):
        res = cascade_grow(np.array([[m]]))
        assert res.partition == (m,)
        assert (cascade_invert(res) == np.array([[m]])).all()


def test_n2_all_ones_hand_case():
    # RSK of the all-ones 2x2 matrix: shape (3, 1)
    res = cascade_grow(np.ones((2, 2), dtype=int))
    assert res.partition == (3, 1)
    assert (cascade_invert(res) == 1).all()


def test_round_trip_random():
    empty = np.zeros((0, 0), dtype=int)
    assert cascade_invert(cascade_grow(empty)).shape == (0, 0)
    rng = np.random.default_rng(0)
    for _ in range(400):
        W = rng.integers(0, 6, size=(4, 4))
        res = cascade_grow(W, check=True)
        assert (cascade_invert(res, check=True) == W).all()


@given(st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 5, size=(n, n))
    res = cascade_grow(W, check=False)
    assert (cascade_invert(res, check=False) == W).all()
    assert all(a >= b for a, b in zip(res.partition, res.partition[1:]))
    assert sum(res.partition) == W.sum()


def test_level1_height_recursion():
    # h(x,t) = max of the three lower neighbours + fresh deposit
    rng = np.random.default_rng(1)
    n = 4
    for _ in range(20):
        W = rng.integers(0, 5, size=(n, n))
        res = cascade_grow(W, check=False)
        tr = res.level1_trace
        for t in range(2, 2 * n):
            for x in range(-n + 1, n):
                i2, j2 = (t + x + 1), (t - x + 1)
                dep = 0
                if i2 % 2 == 0 and j2 % 2 == 0 and 1 <= i2 // 2 <= n and 1 <= j2 // 2 <= n:
                    dep = int(W[i2 // 2 - 1, j2 // 2 - 1])
                prev = max(
                    tr[(x - 1, t - 1)], tr[(x, t - 1)], tr[(x + 1, t - 1)]
                )
                assert tr[(x, t)] == prev + dep


def test_injectivity_exhaustive_n2():
    seen = {}
    for w in itertools.product(range(3), repeat=4):
        W = np.array(w).reshape(2, 2)
        res = cascade_grow(W, check=False)
        key = (
            res.partition,
            tuple(tuple(sorted(c.items())) for c in res.left_tableau),
            tuple(tuple(sorted(c.items())) for c in res.right_tableau),
        )
        assert key not in seen
        seen[key] = w
    assert len(seen) == 81


def test_weight_transport_exact():
    rng = np.random.default_rng(2)
    a = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]
    b = [Fraction(1, 7), Fraction(3, 8), Fraction(1, 4)]
    for _ in range(60):
        W = rng.integers(0, 4, size=(3, 3))
        res = cascade_grow(W, check=False)
        wW = Fraction(1)
        for j in range(3):
            for k in range(3):
                wW *= (a[j] * b[k]) ** int(W[j, k])
        wG = Fraction(1)
        for cnt in res.left_tableau:
            for j, m in cnt.items():
                wG *= a[j - 1] ** m
        for cnt in res.right_tableau:
            for k, m in cnt.items():
                wG *= b[k - 1] ** m
        assert wW == wG


def test_invert_rejects_tampered_state():
    # both tableaux of [[1, 0], [0, 1]] are rows {1: 1, 2: 1} over empty rows;
    # label 1 moved from row 1 to row 2 leaves shape (1, 1) against (2, 0)
    res = cascade_grow(np.array([[1, 0], [0, 1]]))
    res.left_tableau[0][1] -= 1
    res.left_tableau[1][1] += 1
    for check in (False, True):
        with pytest.raises(InvalidCascadeError):
            cascade_invert(res, check=check)
    # same shapes at the end, but the left rows {2: 2} over {1: 1} are no
    # semistandard tableau
    res = cascade_grow(np.array([[0, 1], [2, 0]]))
    assert res.partition == (2, 1)
    res.left_tableau[:] = [Counter({2: 2}), Counter({1: 1})]
    for check in (False, True):
        with pytest.raises(InvalidCascadeError):
            cascade_invert(res, check=check)
    # the chains of [[1, 1], [1, -1]]: shape (2, 0) shrinks to (1, 1)
    res = cascade_grow(np.array([[0, 1], [1, 0]]))
    assert res.partition == (1, 1)
    res.left_tableau[:] = [Counter({1: 2, 2: -1}), Counter({2: 1})]
    res.right_tableau[:] = [Counter({1: 2, 2: -1}), Counter({2: 1})]
    for check in (False, True):
        with pytest.raises(InvalidCascadeError):
            cascade_invert(res, check=check)
    # a label outside 1..n
    res = cascade_grow(np.array([[1, 0], [0, 1]]))
    res.right_tableau[0][2] -= 1
    res.right_tableau[0][3] += 1
    with pytest.raises(InvalidCascadeError):
        cascade_invert(res, check=False)


def test_invert_rejects_counts_beyond_int64():
    # one label of multiplicity m: the state of [[m]], whose table needs m
    # below the int64 limit of the growth
    states = []
    for m in (2**62, 2**70):
        res = cascade_grow(np.array([[1]]))
        res.partition, res.left_tableau[0][1], res.right_tableau[0][1] = (m,), m, m
        states.append(res)
    # a left chain that passes through 2**70 on its way to the partition (1, 0)
    res = cascade_grow(np.array([[1, 0], [0, 0]]))
    res.left_tableau[0][1], res.left_tableau[0][2] = 2**70, 1 - 2**70
    states.append(res)
    for res in states:
        for check in (False, True):
            with pytest.raises(InvalidCascadeError, match="too large"):
                cascade_invert(res, check=check)


def test_check_rejects_broken_shape_tables():
    _check_table(_grow([[1, 2], [0, 3]], 2))
    for S in ([[[0], [0]], [[0], [-1]]],                       # a negative part
              [[[0, 0], [0, 0]], [[0, 0], [1, 2]]],            # not a partition
              [[[0, 0], [0, 0]], [[0, 0], [2, 1]]]):           # (2, 1)/(0, 0) is no strip
        with pytest.raises(InvalidCascadeError, match="horizontal strip"):
            _check_table(S)


def test_complete_homogeneous():
    h = complete_homogeneous(3, [Fraction(1, 2), Fraction(1, 3)])
    assert h[0] == 1
    assert h[1] == Fraction(5, 6)
    assert h[2] == Fraction(1, 4) + Fraction(1, 6) + Fraction(1, 9)


def test_schur_single_box():
    assert schur_poly((1,), [Fraction(1, 3), Fraction(1, 4)], exact=True) == Fraction(7, 12)


def test_schur_211_is_8():
    assert abs(schur_poly((2, 1), [1.0, 1.0, 1.0]) - 8.0) < 1e-9
    assert schur_poly((2, 1), [Fraction(1)] * 3, exact=True) == 8


def test_schur_vs_ssyt_enumeration():
    a = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 2), (2, 2, 1), (3, 1, 1), (4, 2)]:
        assert schur_poly(lam, a, exact=True) == ssyt_weight_sum(lam, a)


def test_schur_too_long_partition_vanishes():
    assert schur_poly((1, 1, 1), [0.5, 0.5]) == 0.0


def test_schur_of_no_variables():
    # s_lambda() is the empty determinant, 1, when lambda has no nonzero part
    for lam in [(), (0,), (0, 0)]:
        assert schur_poly(lam, []) == 1.0 and isinstance(schur_poly(lam, []), float)
        assert schur_poly(lam, [], exact=True) == Fraction(1)
        assert isinstance(schur_poly(lam, [], exact=True), Fraction)
        assert schur_measure_prob(lam, [], []) == 1.0
        assert schur_measure_prob(lam, [], [], exact=True) == Fraction(1)
    assert schur_poly((1,), []) == 0.0
    assert schur_poly((2, 1), [], exact=True) == Fraction(0)
    assert schur_measure_prob((1,), [], []) == 0.0


def test_hook_content_matches_principal_specialization():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        parts = sorted(rng.integers(0, 5, size=rng.integers(1, m + 1)))[::-1]
        lam = tuple(int(v) for v in parts)
        assert hook_content_product(lam, m) == schur_poly(
            lam, [Fraction(1)] * m, exact=True
        )


def test_schur_measure_empty_partition():
    a = [0.4, 0.3]
    b = [0.2, 0.5]
    expected = 1.0
    for ai in a:
        for bk in b:
            expected *= 1 - ai * bk
    assert abs(schur_measure_prob((), a, b) - expected) < 1e-14


def test_schur_measure_domain():
    with pytest.raises(ValueError):
        schur_measure_prob((1,), [1.2], [0.9])
    with pytest.raises(ValueError):
        schur_measure_prob((1,), [0.5], [0.5, 0.5])


def test_schur_measure_cauchy_sum():
    a = b = [0.4, 0.3]
    tot = sum(
        schur_measure_prob((l1, l2), a, b)
        for l1 in range(13)
        for l2 in range(l1 + 1)
    )
    assert abs(tot - 1.0) < 1e-6


def sample_schur_matrix_loop(n, a, b, rng):
    """Oracle: one math.log quotient per entry of the same rng.random((n, n))."""
    u = rng.random((n, n))
    W = np.empty((n, n), dtype=np.int64)
    for j in range(n):
        for k in range(n):
            W[j, k] = math.floor(math.log(u[j, k]) / math.log(a[j] * b[k]))
    return W


def test_schur_matrix_matches_entry_loop():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8):
        for _ in range(200):
            a, b = rng.uniform(0.05, 0.95, (2, n))
            seed = int(rng.integers(2**32))
            W = sample_schur_matrix(n, a, b, np.random.default_rng(seed))
            assert W.dtype == np.int64
            assert np.array_equal(W, sample_schur_matrix_loop(n, a, b, np.random.default_rng(seed)))
    for a, b in (([0.5, 2.0], [0.5, 0.6]), ([0.5, 0.5], [0.0, 0.5]), ([-0.5, 0.1], [0.6, 0.1])):
        with pytest.raises(ValueError):
            sample_schur_matrix(2, a, b, rng)


def test_schur_matrix_of_order_zero_is_empty():
    # n = 0 draws the 0 x 0 matrix, whose empty shape has Schur measure 1
    W = sample_schur_matrix(0, [], [], np.random.default_rng(3))
    assert W.shape == (0, 0) and W.dtype == np.int64
    assert schur_measure_prob((), [], []) == 1
    for n, a, b in ((1, [], []), (0, [0.5], [0.5]), (1, [math.nan], [0.5])):
        with pytest.raises(ValueError):
            sample_schur_matrix(n, a, b, np.random.default_rng(3))


def test_shape_law_matches_schur_measure():
    rng = np.random.default_rng(4)
    a = b = [0.4, 0.3]
    R = 30000
    W = np.stack([sample_schur_matrix(2, a, b, rng) for _ in range(R)])
    counts = Counter(map(tuple, _shapes(W, 2)[:, 2, 2].tolist()))
    chi = 0.0
    dof = 0
    pooled_e = pooled_o = 0.0
    for l1 in range(16):
        for l2 in range(l1 + 1):
            pr = schur_measure_prob((l1, l2), a, b)
            e = pr * R
            o = counts.get((l1, l2), 0)
            if e >= 5:
                chi += (o - e) ** 2 / e
                dof += 1
            else:
                pooled_e += e
                pooled_o += o
    chi += (pooled_o - pooled_e) ** 2 / max(pooled_e, 1e-9)
    assert chi2_dist.sf(chi, dof) > 1e-3


def height_equals_lpp(W) -> bool:
    """Oracle: G(M,N) = h_1(M-N, M+N-1) at every position of the matrix."""
    W = np.asarray(W, dtype=np.int64)
    n = W.shape[0]
    res = cascade_grow(W, check=False)
    G = lpp_value(W)
    for M in range(1, n + 1):
        for N in range(1, n + 1):
            if res.level1_trace[(M - N, M + N - 1)] != G[M - 1, N - 1]:
                return False
    return True


def test_height_equals_lpp():
    rng = np.random.default_rng(5)
    assert height_equals_lpp(np.array([[4]]))
    for _ in range(150):
        W = rng.integers(0, 7, size=(5, 5))
        assert height_equals_lpp(W)
        res = cascade_grow(W, check=False)
        assert res.partition[0] == lpp_value(W)[-1, -1]
