"""Shuffling sampler vs. the exact enumerator."""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from tilings import shuffling
from tilings.aztec import Domino, Tiling, _kind, diamond_squares
from tilings.shuffling import (
    AztecMeasure,
    enumerate_tilings,
    sample_aztec,
    vertical_count_law,
)


_SLIDE = ((0, 1), (0, -1), (-1, 0), (1, 0))  # by kind code N, S, W, E


def _oracle_stage(anchors: dict[tuple[int, int], bool], m: int):
    """Destruction and sliding of an order-(m-1) tiling held as one dict
    entry per domino (anchor -> horizontal?).  Returns the slid anchors and
    the lower-left corners of A_m's empty 2x2 blocks in row-major order."""
    # destruction: drop bad pairs (facing dominoes that would collide)
    bad: set[tuple[int, int]] = set()
    for (x, y), horiz in anchors.items():
        if horiz:
            up = anchors.get((x, y + 1))
            if up is True and _kind(x, y, True, m - 1) == 0 \
                    and _kind(x, y + 1, True, m - 1) == 1:
                bad.add((x, y))
                bad.add((x, y + 1))
        else:
            right = anchors.get((x + 1, y))
            if right is False and _kind(x, y, False, m - 1) == 3 \
                    and _kind(x + 1, y, False, m - 1) == 2:
                bad.add((x, y))
                bad.add((x + 1, y))
    anchors = {key: horiz for key, horiz in anchors.items() if key not in bad}

    # sliding: one unit in the compass direction of the kind
    moved: dict[tuple[int, int], bool] = {}
    for (x, y), horiz in anchors.items():
        dx, dy = _SLIDE[_kind(x, y, horiz, m - 1)]
        target = (x + dx, y + dy)
        if target in moved:
            raise AssertionError("slide collision: bad-pair removal failed")
        moved[target] = horiz

    # filling: the first uncovered square in row-major order is always
    # the lower-left corner of an empty 2x2 block
    covered: set[tuple[int, int]] = set()
    for (x, y), horiz in moved.items():
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
    return moved, blocks


def _oracle_fill(anchors: dict[tuple[int, int], bool], x: int, y: int,
                 vertical: bool) -> None:
    if vertical:
        anchors[(x, y)] = False
        anchors[(x + 1, y)] = False
    else:
        anchors[(x, y)] = True
        anchors[(x, y + 1)] = True


def _oracle_tiling(n: int, anchors: dict[tuple[int, int], bool]) -> Tiling:
    return Tiling(n, (Domino(x, y, horiz) for (x, y), horiz in anchors.items()))


def dict_shuffle_oracle(measure: AztecMeasure, rng: np.random.Generator) -> Tiling:
    """Domino shuffling with one dict entry per domino: the reference for
    sample_aztec's single draws.  Draws one rng.random() per empty block,
    blocks in row-major order."""
    anchors: dict[tuple[int, int], bool] = {}
    for m in range(1, measure.n + 1):
        anchors, blocks = _oracle_stage(anchors, m)
        for (x, y) in blocks:
            _oracle_fill(anchors, x, y, rng.random() < measure.q)
    return _oracle_tiling(measure.n, anchors)


def batch_shuffle_oracle(measure: AztecMeasure, rng: np.random.Generator,
                         size: int) -> list[Tiling]:
    """``size`` dict shuffles in lockstep: the reference for sample_aztec's
    batches.  Each stage draws one rng.random(total) over the empty blocks
    of all replicas, sorted by row-major position, then by replica."""
    states: list[dict[tuple[int, int], bool]] = [{} for _ in range(size)]
    for m in range(1, measure.n + 1):
        order = []
        for r in range(size):
            states[r], blocks = _oracle_stage(states[r], m)
            order += [(y, x, r) for (x, y) in blocks]
        order.sort()
        coins = rng.random(len(order)) < measure.q
        for (y, x, r), vertical in zip(order, coins):
            _oracle_fill(states[r], x, y, vertical)
    return [_oracle_tiling(measure.n, a) for a in states]


def chi2_pvalue(observed: dict, expected: dict, total: int) -> float:
    """Pearson test with pooling of low-expectation bins."""
    chi = 0.0
    dof = 0
    pooled_e = pooled_o = 0.0
    for key, pr in expected.items():
        e = pr * total
        o = observed.get(key, 0)
        if e >= 5:
            chi += (o - e) ** 2 / e
            dof += 1
        else:
            pooled_e += e
            pooled_o += o
    if pooled_e > 0:
        chi += (pooled_o - pooled_e) ** 2 / pooled_e
        dof += 1
    return float(chi2_dist.sf(chi, max(dof - 1, 1)))


def test_measure_definitions():
    m = AztecMeasure(n=3, w=1.0)
    assert abs(m.q - 0.5) < 1e-15
    m2 = AztecMeasure.from_q(3, 0.8)
    assert abs(m2.q - 0.8) < 1e-12
    with pytest.raises(ValueError):
        AztecMeasure.from_q(2, 1.5)


def test_enumeration_counts():
    assert len(enumerate_tilings(0)) == 1  # A_0: the empty tiling
    for n in range(1, 5):
        assert len(enumerate_tilings(n)) == 2 ** (n * (n + 1) // 2)


def test_enumeration_total_weight_identity():
    for n in range(0, 5):
        for w in (Fraction(1), Fraction(2), Fraction(3, 4)):
            total = sum(wt for _, wt in enumerate_tilings(n, w))
            assert total == (1 + w * w) ** (n * (n + 1) // 2)


def test_enumeration_refuses_large():
    with pytest.raises(ValueError, match="refusing"):
        enumerate_tilings(6)


def test_n1_sampler_probabilities():
    rng = np.random.default_rng(1)
    q = 0.35
    m = AztecMeasure.from_q(1, q)
    R = 40000
    vert = sum(t.vertical_count() == 2 for t in sample_aztec(m, rng, size=R))
    assert abs(vert / R - q) < 4 * math.sqrt(q * (1 - q) / R)


@pytest.mark.parametrize("n,w", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_sampler_matches_enumeration(n, w):
    exact = {}
    total = Fraction(0)
    for t, wt in enumerate_tilings(n, Fraction(w)):
        exact[t.key()] = wt
        total += wt
    expected = {k: float(v / total) for k, v in exact.items()}
    rng = np.random.default_rng(100 + n * 10 + w)
    m = AztecMeasure(n=n, w=float(w))
    R = 30000
    observed = Counter(t.key() for t in sample_aztec(m, rng, size=R))
    assert set(observed) <= set(expected)
    assert chi2_pvalue(observed, expected, R) > 1e-3


def test_intermediate_stages_are_valid_tilings():
    # stage k of an order-10 shuffle is the order-k sample from the same
    # stream, so these are the ten stages of one order-10 draw
    for k in range(1, 11):
        m = AztecMeasure.from_q(k, 0.3)
        t = sample_aztec(m, np.random.default_rng(5))
        assert t.order == k
        t.validate()
        for b in sample_aztec(m, np.random.default_rng(5), size=3):
            assert b.order == k
            b.validate()


def test_single_draws_match_dict_oracle():
    # draw for draw: the same tiling, and the same values taken from the stream
    for n in [*range(1, 11), 16, 48]:
        for q in (0.3, 0.5, 0.7):
            m = AztecMeasure.from_q(n, q)
            for seed in range(3):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                t, ref = sample_aztec(m, rng), dict_shuffle_oracle(m, ref_rng)
                assert t == ref and hash(t) == hash(ref) and t.dominoes == ref.dominoes
                assert rng.random() == ref_rng.random()
                # a batch of one takes its values in the same order
                assert sample_aztec(m, np.random.default_rng(seed), size=1) == [t]


def test_batches_match_lockstep_dict_oracle():
    # a batch reads the stream block position by block position, replica by
    # replica within a position; the chi^2 tests draw their samples that way
    for n in [*range(1, 7), 16]:
        for size in (2, 3, 7):
            m = AztecMeasure.from_q(n, 0.4)
            rng, ref_rng = np.random.default_rng(n + 10 * size), np.random.default_rng(n + 10 * size)
            assert sample_aztec(m, rng, size=size) == batch_shuffle_oracle(m, ref_rng, size)
            assert rng.random() == ref_rng.random()


def test_block_check_stops_a_corrupt_board(monkeypatch):
    # masks built one copy of their pattern short misplace the slides and the
    # block corners; the stage check must stop the draw.  Both boards are
    # small enough for the mask cache, which is cleared first, so the draws
    # build their masks with the broken _tile, and last, so no later draw
    # reads those masks.
    tile = shuffling._tile
    shuffling._small_masks.cache_clear()
    monkeypatch.setattr(shuffling, "_tile", lambda p, s, c: tile(p, s, max(c - 1, 0)))
    try:
        for n in (2, 6):
            with pytest.raises(AssertionError, match="not 2x2 blocks"):
                sample_aztec(AztecMeasure.from_q(n, 0.5), np.random.default_rng(0))
        assert shuffling._small_masks.cache_info().currsize == 2
    finally:
        shuffling._small_masks.cache_clear()


def test_only_small_boards_keep_their_masks():
    # the board of A_n with R replicas has 4 n^2 R bits; masks are cached up
    # to _LOOP_BITS = 1024 of them
    shuffling._small_masks.cache_clear()
    rng = np.random.default_rng(0)
    for n, size in ((16, None), (17, None), (4, 16), (4, 17), (16, None), (4, 16)):
        sample_aztec(AztecMeasure.from_q(n, 0.5), rng, size=size)
    info = shuffling._small_masks.cache_info()
    assert (info.currsize, info.hits, info.misses) == (2, 2, 2)


def test_vertical_count_law_exact_vs_enumeration():
    for n in (1, 2, 3):
        w = Fraction(2)
        q = w * w / (1 + w * w)
        law = vertical_count_law(n, q)
        assert sum(law) == 1
        total = (1 + w * w) ** (n * (n + 1) // 2)
        from collections import defaultdict

        by_pairs = defaultdict(Fraction)
        for t, wt in enumerate_tilings(n, w):
            by_pairs[t.vertical_count() // 2] += wt / total
        for k, pr in enumerate(law):
            assert by_pairs.get(k, Fraction(0)) == pr


def test_vertical_count_law_examples():
    law = vertical_count_law(1, Fraction(1, 2))
    assert law == [Fraction(1, 2), Fraction(1, 2)]
    assert abs(sum(vertical_count_law(4, 0.37)) - 1.0) < 1e-12


def test_sampler_vertical_law_statistical():
    n, q = 3, 0.3
    rng = np.random.default_rng(11)
    m = AztecMeasure.from_q(n, q)
    R = 30000
    counts = np.zeros(n * (n + 1) // 2 + 1)
    for t in sample_aztec(m, rng, size=R):
        counts[t.vertical_count() // 2] += 1
    law = vertical_count_law(n, q)
    for k, pr in enumerate(law):
        sd = math.sqrt(R * pr * (1 - pr))
        assert abs(counts[k] - R * pr) <= 4 * max(sd, 1.0)


def test_cost_scaling_is_near_quadratic_per_stage():
    # total work ~ n^3; doubling n should cost roughly 8x, allow a wide band
    rng = np.random.default_rng(3)
    m1 = AztecMeasure.from_q(24, 0.5)
    m2 = AztecMeasure.from_q(48, 0.5)
    t0 = time.perf_counter()
    for _ in range(3):
        sample_aztec(m1, rng)
    t1 = time.perf_counter()
    for _ in range(3):
        sample_aztec(m2, rng)
    t2 = time.perf_counter()
    small, big = t1 - t0, t2 - t1
    assert big < 40 * max(small, 1e-4)


def test_sampler_matches_enumeration_order4():
    # the n = 4 exactness sweep at 1e5 samples, both weights
    for w in (1, 2):
        exact = {}
        total = Fraction(0)
        for t, wt in enumerate_tilings(4, Fraction(w)):
            exact[t.key()] = wt
            total += wt
        expected = {k: float(v / total) for k, v in exact.items()}
        rng = np.random.default_rng(4000 + w)
        m = AztecMeasure(n=4, w=float(w))
        R = 100000
        observed = Counter(t.key() for t in sample_aztec(m, rng, size=R))
        assert set(observed) <= set(expected)
        assert chi2_pvalue(observed, expected, R) > 1e-3
