"""Shuffling sampler vs. the exact enumerator."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from tilings.aztec import Tiling
from tilings.shuffling import (
    AztecMeasure,
    enumerate_tilings,
    sample_aztec,
    vertical_count_law,
)


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
    vert = sum(sample_aztec(m, rng).vertical_count() == 2 for _ in range(R))
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
    observed = {}
    for _ in range(R):
        key = sample_aztec(m, rng).key()
        observed[key] = observed.get(key, 0) + 1
    assert set(observed) <= set(expected)
    assert chi2_pvalue(observed, expected, R) > 1e-3


def test_intermediate_stages_are_valid_tilings():
    # stage k of an order-10 shuffle is the order-k sample from the same
    # stream, so these are the ten stages of one order-10 draw
    for k in range(1, 11):
        t = sample_aztec(AztecMeasure.from_q(k, 0.3), np.random.default_rng(5))
        assert t.order == k
        t.validate()


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
    for _ in range(R):
        counts[sample_aztec(m, rng).vertical_count() // 2] += 1
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
        observed = {}
        for _ in range(R):
            key = sample_aztec(m, rng).key()
            observed[key] = observed.get(key, 0) + 1
        assert set(observed) <= set(expected)
        assert chi2_pvalue(observed, expected, R) > 1e-3
