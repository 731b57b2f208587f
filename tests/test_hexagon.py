"""Hexagon tilings: LGV counting, column laws, MacMahon, plane partitions,
MCMC and corner statistics."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.stats import chi2 as chi2_dist

from tilings import hexagon, ope, replica_rng
from tilings.hexagon import (
    HexagonSpec,
    LozengeChain,
    WalkFamily,
    arctic_boundary,
    column_bounds,
    column_law,
    corner_gue_exponent,
    corner_gue_statistics,
    enumerate_walks,
    lgv_count,
    macmahon,
    plane_partition_height,
    sample_hexagon,
    walks_to_hole_columns,
)
from tilings.hexagon import _stack, _sweep, _transitions, _unstack


def macmahon_closed_form(a: int, b: int, c: int) -> int:
    """Oracle: MacMahon's count as a product over one index."""
    out = Fraction(1)
    for j in range(b):
        out *= Fraction(
            math.factorial(j) * math.factorial(a + c + j),
            math.factorial(a + j) * math.factorial(c + j),
        )
    assert out.denominator == 1
    return out.numerator


def column_states(spec: HexagonSpec, m: int) -> list[tuple[int, ...]]:
    """Every set of c walk heights on column m, intersecting or not."""
    alpha, beta, _, _, _ = column_bounds(spec, m)
    heights = [alpha + 2 * i for i in range((beta - alpha) // 2 + 1)]
    return list(itertools.combinations(heights, spec.c))


def count_tilings_dp(spec: HexagonSpec) -> int:
    """Oracle: walk-family count by column DP, the completions of each column
    state from the fixed end column back to column 0."""
    a, b, c = spec.a, spec.b, spec.c
    layer = {tuple(a - b + 2 * k for k in range(c)): 1}
    for m in range(a + b - 1, -1, -1):
        layer = {state: sum(layer.get(s, 0) for s in _transitions(spec, m, state))
                 for state in column_states(spec, m)}
    return layer[tuple(2 * k for k in range(c))]


def hahn_normalization_exact(N: int, m: int, alpha: int, beta: int) -> Fraction:
    """Oracle: closed form for the Hahn normalization sum over ordered tuples."""
    z = Fraction(math.factorial(m))
    for j in range(m):
        z *= Fraction(
            math.factorial(j) * math.factorial(alpha + j) * math.factorial(beta + j)
            * math.factorial(alpha + beta + j + N + 1) * math.factorial(alpha + beta + j),
            math.factorial(alpha + beta + 2 * j) * math.factorial(alpha + beta + 2 * j + 1)
            * math.factorial(N - j),
        )
    return z


def test_macmahon_values():
    assert macmahon(1, 1, 1) == 2
    assert macmahon(2, 2, 2) == 20
    assert macmahon(3, 3, 3) == 980


def test_macmahon_symmetry_and_closed_form():
    for perm in itertools.permutations((2, 3, 4)):
        assert macmahon(*perm) == macmahon(2, 3, 4)
    for (a, b, c) in [(2, 2, 2), (4, 3, 5), (6, 6, 6), (1, 1, 1), (1, 1, 7), (1, 9, 1),
                      (5, 1, 1), (1, 4, 6), (3, 1, 8), (7, 5, 1), (2, 2, 9), (3, 5, 2),
                      (8, 3, 3), (4, 4, 4), (6, 2, 7), (9, 7, 4), (10, 10, 1), (11, 6, 9),
                      (12, 12, 12), (20, 13, 8), (13, 20, 8), (8, 13, 20), (17, 3, 25)]:
        assert macmahon(a, b, c) == macmahon_closed_form(a, b, c), (a, b, c)


def test_column_bounds_examples():
    spec = HexagonSpec(2, 2, 2)
    alpha, beta, gamma, L, delta = column_bounds(spec, 0)
    assert (alpha, beta, gamma, L, delta) == (0, 2, 1, 0, 0)
    assert column_bounds(spec, 2)[3] == 2  # middle branch: L = b
    for m in range(5):
        _, _, g, L, _ = column_bounds(spec, m)
        assert g - L == spec.c - 1
    with pytest.raises(ValueError):
        column_bounds(spec, 5)


def test_spec_requires_a_ge_b():
    with pytest.raises(ValueError):
        HexagonSpec(1, 2, 1)


def test_lgv_single_walk_is_binomial():
    spec = HexagonSpec(3, 2, 1)
    for m in range(6):
        _, _, gamma, _, delta = column_bounds(spec, m)
        for x in range(gamma + 1):
            expected = math.comb(m, delta + x) if 0 <= delta + x <= m else 0
            assert lgv_count(spec, m, (x,)) == expected


def test_lgv_matches_walk_prefix_enumeration():
    spec = HexagonSpec(2, 2, 2)
    fams = enumerate_walks(spec)
    for m in range(5):
        _, _, gamma, _, _ = column_bounds(spec, m)
        prefix_counts = Counter()
        seen = set()
        for f in fams:
            key = tuple(tuple(row[: m + 1]) for row in f.S)
            if key in seen:
                continue
            seen.add(key)
            prefix_counts[f.particles(m)] += 1
        for xs in itertools.combinations(range(gamma + 1), 2):
            assert lgv_count(spec, m, xs) == prefix_counts.get(xs, 0)


def test_lgv_product_totals():
    for (a, b, c) in [(2, 2, 2), (3, 2, 2), (3, 3, 3), (6, 6, 6), (6, 5, 4)]:
        spec = HexagonSpec(a, b, c)
        N = macmahon(a, b, c)
        for m in range(a + b + 1):
            _, _, gamma, _, _ = column_bounds(spec, m)
            total = 0
            for xs in itertools.combinations(range(gamma + 1), c):
                refl = tuple(sorted(gamma - v for v in xs))
                total += lgv_count(spec, m, xs) * lgv_count(spec, a + b - m, refl)
            assert total == N


def test_walk_dp_equals_macmahon():
    for (a, b, c) in [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 2), (3, 3, 3)]:
        assert count_tilings_dp(HexagonSpec(a, b, c)) == macmahon(a, b, c)


def transitions_by_sign_product(spec, m, state):
    """Oracle: every one of the 2^c sign vectors, filtered afterwards."""
    alpha1, beta1, _, _, _ = column_bounds(spec, m + 1)
    out = []
    for signs in itertools.product((-1, 1), repeat=spec.c):
        nxt = tuple(s + d for s, d in zip(state, signs))
        if all(u < v for u, v in zip(nxt, nxt[1:])) and alpha1 <= nxt[0] and nxt[-1] <= beta1:
            out.append(nxt)
    return out


def test_transitions_match_sign_product_in_order():
    for abc in [(4, 4, 4), (3, 3, 6), (5, 2, 3)]:
        spec = HexagonSpec(*abc)
        for m in range(spec.a + spec.b):
            for state in column_states(spec, m):
                assert _transitions(spec, m, state) == transitions_by_sign_product(spec, m, state)


def test_walk_family_validate_rejects_broken_families():
    spec = HexagonSpec(3, 2, 2)
    good = enumerate_walks(spec)[7]  # S = [[0, -1, 0, 1, 0, 1], [2, 1, 2, 3, 2, 3]]
    good.validate()
    assert not good.S.flags.writeable

    def moved(k, cols, dv):
        S = good.S.copy()
        S[k, cols] += dv
        return WalkFamily(spec, S)

    with pytest.raises(ValueError, match="wrong walk family shape"):
        WalkFamily(spec, good.S[:, :-1]).validate()
    with pytest.raises(ValueError, match="walk 2 has wrong endpoints"):
        moved(1, 0, 2).validate()
    with pytest.raises(ValueError, match="walk 1 takes a non-unit step at 1"):
        moved(0, 2, 2).validate()
    # walk 2 raised by 2 everywhere leaves the hexagon at column 0 (beta_0 = 2);
    # a walk with the right endpoints and unit steps cannot leave it, so this
    # is caught at the endpoints
    above = moved(1, slice(None), 2)
    assert above.S[1, 0] > column_bounds(spec, 0)[1]
    with pytest.raises(ValueError, match="walk 2 has wrong endpoints"):
        above.validate()
    # walk 2 drops its peak at column 3 onto walk 1
    with pytest.raises(ValueError, match="walks intersect at column 3"):
        moved(1, 3, -2).validate()


def test_walk_dp_counts_dense_tall_hexagons():
    # 13 and 28 walks: the DP visits only non-intersecting moves, not 2^c
    for (a, b, c) in [(3, 3, 13), (3, 2, 28)]:
        assert count_tilings_dp(HexagonSpec(a, b, c)) == macmahon(a, b, c)


def test_enumeration_equals_macmahon():
    for (a, b, c) in [(1, 1, 1), (2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 3, 3)]:
        assert len(enumerate_walks(HexagonSpec(a, b, c))) == macmahon(a, b, c)


@pytest.mark.parametrize("abc", [(2, 2, 2), (3, 3, 3), (3, 2, 2)])
def test_column_law_three_routes_agree_exactly(abc):
    a, b, c = abc
    spec = HexagonSpec(a, b, c)
    for m in range(a + b + 1):
        for kind in ("holes", "particles"):
            lgv = column_law(spec, m, kind=kind, method="lgv")
            hahn = column_law(spec, m, kind=kind, method="hahn")
            assert sum(lgv.values()) == 1
            for key in set(lgv) | set(hahn):
                assert lgv.get(key, Fraction(0)) == hahn.get(key, Fraction(0))


def test_column_law_matches_enumeration():
    spec = HexagonSpec(2, 2, 2)
    fams = enumerate_walks(spec)
    for m in (1, 2, 3):
        law = column_law(spec, m, kind="holes")
        emp = Counter(f.holes(m) for f in fams)
        for key, pr in law.items():
            assert pr == Fraction(emp.get(key, 0), len(fams))


def test_hahn_normalization_closed_form():
    for (N, m, alpha, beta) in [(5, 2, 1, 2), (8, 3, 0, 0), (12, 3, 2, 1)]:
        w = ope.DiscreteWeight.hahn(N, alpha, beta)
        direct = Fraction(0)
        for h in itertools.product(range(N + 1), repeat=m):
            d = 1
            for i in range(m):
                for j in range(i + 1, m):
                    d *= h[i] - h[j]
            if d == 0:
                continue
            term = Fraction(d * d)
            for x in h:
                term *= w.exact_weight(x)
            direct += term
        assert direct == hahn_normalization_exact(N, m, alpha, beta)


def test_column_prefactor_shape():
    # prefix counts factor through explicit xi-dependent branch factors;
    # check the proportionality (constant-free) on all three branches
    a, b, c = 4, 2, 2
    spec = HexagonSpec(a, b, c)
    for m in range(1, a + b):
        _, _, gamma, L, _ = column_bounds(spec, m)
        ratios = set()
        for xs in itertools.combinations(range(gamma + 1), c):
            cnt = lgv_count(spec, m, xs)
            if cnt == 0:
                continue
            holes = [v for v in range(gamma + 1) if v not in set(xs)]
            delta = 1
            for i in range(len(holes)):
                for j in range(i + 1, len(holes)):
                    delta *= holes[j] - holes[i]
            factor = Fraction(delta)
            for xi in holes:
                if b <= m <= a:
                    factor *= Fraction(
                        math.factorial(xi + m - b), math.factorial(xi)
                    )
                elif m > a:
                    factor *= Fraction(
                        math.factorial(xi + m - b) * math.factorial(b + c - 1 - xi),
                        math.factorial(xi) * math.factorial(a + b + c - m - 1 - xi),
                    )
            if factor:
                ratios.add(Fraction(cnt) / factor)
        assert len(ratios) == 1, (m, ratios)


def test_plane_partition_bijection_222():
    fams = enumerate_walks(HexagonSpec(2, 2, 2))
    images = {tuple(plane_partition_height(f).flatten()) for f in fams}
    oracle = set()
    for vals in itertools.product(range(3), repeat=4):
        H = np.array(vals).reshape(2, 2)
        if (np.diff(H, axis=0) <= 0).all() and (np.diff(H, axis=1) <= 0).all():
            oracle.add(tuple(H.flatten()))
    assert images == oracle and len(images) == 20


def test_plane_partition_extremes_and_monotonicity():
    spec = HexagonSpec(3, 2, 2)
    rng = np.random.default_rng(0)
    chain = LozengeChain(spec, rng)
    H = plane_partition_height(chain.family())
    assert (H == 0).all() or (H == spec.c).all()
    spec8 = HexagonSpec(8, 8, 8)
    chain8 = LozengeChain(spec8, rng)
    chain8.sweep(400)
    for _ in range(5):
        chain8.sweep(40)
        H = plane_partition_height(chain8.family())
        assert (np.diff(H, axis=0) <= 0).all() and (np.diff(H, axis=1) <= 0).all()
        assert H.min() >= 0 and H.max() <= 8


def test_exact_sampler_uniform_111():
    rng = np.random.default_rng(1)
    counts = Counter()
    for _ in range(4000):
        f = sample_hexagon(HexagonSpec(1, 1, 1), rng)
        counts[f.S.tobytes()] += 1
    assert len(counts) == 2
    for v in counts.values():
        assert abs(v - 2000) < 4 * math.sqrt(4000 * 0.25)


def test_exact_sampler_draws_at_40():
    # N(40,40,40) ~ 10^542: no table of counts, yet every step and the
    # draw's probability 1/N are checked
    fam = sample_hexagon(HexagonSpec(40, 40, 40), np.random.default_rng(2))
    fam.validate()
    assert fam.S.shape == (40, 81)


def test_tampered_step_probabilities_raise(monkeypatch):
    spec = HexagonSpec(3, 3, 3)
    step_rows = hexagon._step_rows

    def scaled(factor):
        def rows(spec, m):
            out = step_rows(spec, m).copy()
            out[:, 1] *= factor
            return out
        return rows

    # a wrong rho keeps p0 + p1 = 1 at every step, so only the draw's
    # probability, checked against 1/N, shows it
    monkeypatch.setattr(hexagon, "_step_rows", scaled(1.5))
    with pytest.raises(ope.KernelConditionError, match="misses 1/N"):
        sample_hexagon(spec, np.random.default_rng(9))
    # a negative rho gives raw probabilities outside [0, 1] ...
    monkeypatch.setattr(hexagon, "_step_rows", scaled(-2.0))
    with pytest.raises(ope.KernelConditionError, match="step probabilities"):
        sample_hexagon(spec, np.random.default_rng(9))
    # ... and rho = -1 cancels the shared rows of the adjacent particles on column 0
    monkeypatch.setattr(hexagon, "_step_rows", scaled(-1.0))
    with pytest.raises(ope.KernelConditionError, match="singular step matrix at column 0"):
        sample_hexagon(spec, np.random.default_rng(9))


def test_mcmc_uniform_222():
    rng = np.random.default_rng(3)
    spec = HexagonSpec(2, 2, 2)
    chain = LozengeChain(spec, rng)
    chain.sweep(300)
    R = 20000
    counts = Counter()
    for _ in range(R):
        chain.sweep(3)
        counts[chain.family().S.tobytes()] += 1
    assert len(counts) == 20
    chi = sum((o - R / 20) ** 2 / (R / 20) for o in counts.values())
    assert chi2_dist.sf(chi, 19) > 1e-3


def highest_family(spec: HexagonSpec) -> np.ndarray:
    """Oracle: every walk hugs the upper boundary, S[k, m] = beta_m - 2(c-1-k)."""
    return np.array([[column_bounds(spec, m)[1] - 2 * (spec.c - 1 - k)
                      for m in range(spec.columns + 1)] for k in range(spec.c)])


# bit j of a 64-bit word, in the order the sweep reads it: byte j // 8 of the
# little-endian word, most significant bit first
_BIT_SHIFTS = np.array([8 * (j // 8) + 7 - j % 8 for j in range(64)], dtype=np.uint64)


def sweep_coins(raw, c: int, cols: int) -> list[np.ndarray]:
    """Oracle: the coins of one sweep as LozengeChain.sweep reads them, one
    (c, cols-2) bool array per parity class.  Each class is read as walks of
    even index, then walks of odd index, each sub-view in row-major order."""
    coins = []
    for par in (0, 1):
        coin = np.zeros((c, cols - 2), dtype=bool)
        for rp in (0, 1):
            view = coin[rp::2, 1 - (par + rp) % 2::2]
            n = view.size
            words = raw(-(-n // 64))
            bits = (words[:, None] >> _BIT_SHIFTS) & np.uint64(1)
            view[...] = bits.ravel()[:n].reshape(view.shape)
        coins.append(coin)
    return coins


def masked_sweep(S: np.ndarray, coins: list[np.ndarray]) -> None:
    """Oracle: one sweep of the checkerboard chain by boolean masks, given
    the coins of each parity class; the update LozengeChain ran before its
    strided kernel."""
    c, cols = S.shape
    kk, mm = np.meshgrid(np.arange(c), np.arange(1, cols - 1), indexing="ij")
    for par, coin in enumerate(coins):
        sel = (kk + mm) % 2 == par
        flat = S[:, :-2] == S[:, 2:]
        # valleys may rise, peaks may drop; only the walk above/below matters
        can_up = flat & (S[:, 1:-1] == S[:, :-2] - 1)
        can_up[:-1] &= (S[1:, 1:-1] - S[:-1, 1:-1]) > 2
        can_dn = flat & (S[:, 1:-1] == S[:, :-2] + 1)
        can_dn[1:] &= (S[1:, 1:-1] - S[:-1, 1:-1]) > 2
        S[:, 1:-1][sel & coin & can_up] += 2
        S[:, 1:-1][sel & ~coin & can_dn] -= 2


def assert_sweeps_match_oracle(spec: HexagonSpec, S: np.ndarray, seed: int, sweeps: int):
    chain = LozengeChain(spec, np.random.default_rng(seed))
    chain.S = S.copy()
    raw = np.random.default_rng(seed).bit_generator.random_raw
    T = S.copy()
    for i in range(sweeps):
        chain.sweep()
        masked_sweep(T, sweep_coins(raw, spec.c, spec.columns + 1))
        assert chain.S.dtype == np.int64
        assert np.array_equal(chain.S, T), (spec, seed, i)


@pytest.mark.parametrize("abc", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 2), (3, 2, 2),
                                 (4, 3, 3), (5, 2, 7), (6, 6, 1), (9, 4, 6), (33, 20, 17)])
def test_sweep_equals_masked_update_on_the_same_coins(abc):
    spec = HexagonSpec(*abc)
    for seed in range(4):
        assert_sweeps_match_oracle(spec, LozengeChain(spec, None).S, seed, 37)


def test_sweep_equals_masked_update_from_every_family_322():
    spec = HexagonSpec(3, 2, 2)
    for i, fam in enumerate(enumerate_walks(spec)):
        assert_sweeps_match_oracle(spec, fam.S, 50 + i, 1)


def test_sweep_equals_masked_update_at_heights_past_int16():
    # heights reach a + 2c - 2 = 40000: the walls and the dtype come from the spec
    spec = HexagonSpec(40000, 2, 1)
    assert_sweeps_match_oracle(spec, highest_family(spec), 60, 4)


@pytest.mark.parametrize("abc, burn_in, sweeps", [((33, 20, 17), 2000, 5),
                                                  ((128, 128, 128), 500, 2)])
def test_sweep_equals_masked_update_from_a_mixed_state(abc, burn_in, sweeps):
    # off the frozen start many sites can flip at once: 2000 sweeps move 85%
    # of the (33,20,17) sites, and 500 sweeps at 128^3 give the state that the
    # hexagon benchmark times its sweeps from
    spec = HexagonSpec(*abc)
    chain = LozengeChain(spec, np.random.default_rng(70))
    chain.sweep(burn_in)
    chain.family().validate()
    assert (chain.S != LozengeChain(spec, None).S).any()
    assert_sweeps_match_oracle(spec, chain.S, 71, sweeps)


@pytest.mark.parametrize("abc", [(1, 1, 1), (2, 1, 1), (3, 2, 3), (4, 3, 3), (6, 6, 5),
                                 (9, 4, 5)])
def test_stack_sweeps_each_family_as_if_alone(abc):
    # each family, swept alone in its own stack, keeps the walls, the end
    # columns and the padding _stack gave it, so restacking the swept walks
    # rebuilds the swept stack.  With odd c the padding holds a wall row.
    spec = HexagonSpec(*abc)
    mixed = LozengeChain(spec, np.random.default_rng(80))
    mixed.sweep(300)
    for F in (LozengeChain(spec, None).S, highest_family(spec), mixed.S):
        stack = _stack(spec, F)
        _sweep(spec, stack, np.random.default_rng(81).bit_generator.random_raw, 1000)
        S = np.empty_like(F)
        _unstack(stack, S)
        WalkFamily(spec, S).validate()
        for A, B in zip(stack, _stack(spec, S)):
            assert np.array_equal(A, B)


def test_sweep_rejects_negative_count():
    chain = LozengeChain(HexagonSpec(3, 2, 2), np.random.default_rng(0))
    with pytest.raises(ValueError):
        chain.sweep(-5)
    chain.sweep(0)
    assert np.array_equal(chain.S, LozengeChain(HexagonSpec(3, 2, 2), None).S)


def test_shared_coins_keep_walk_families_ordered():
    # the chain is monotone: shared coins keep ordered families ordered
    spec = HexagonSpec(3, 2, 2)
    fams = [f.S for f in enumerate_walks(spec)]
    lo, hi = LozengeChain(spec, None), LozengeChain(spec, None)
    for i, (S, T) in enumerate((S, T) for S in fams for T in fams if (S <= T).all()):
        lo.S, hi.S = S.copy(), T.copy()
        lo.rng, hi.rng = np.random.default_rng(i), np.random.default_rng(i)
        lo.sweep()
        hi.sweep()
        assert (lo.S <= hi.S).all()
    # from the lowest and the highest family, after every sweep, until they meet
    for abc in [(4, 3, 3), (8, 8, 8)]:
        spec = HexagonSpec(*abc)
        lo = LozengeChain(spec, np.random.default_rng(30))
        hi = LozengeChain(spec, np.random.default_rng(30))
        hi.S = highest_family(spec)
        hi.family().validate()
        for _ in range(2000):
            lo.sweep()
            hi.sweep()
            assert (lo.S <= hi.S).all()
        assert np.array_equal(lo.S, hi.S)


@pytest.mark.parametrize("abc, draws", [((2, 2, 2), 1000), ((3, 2, 2), 2000),
                                         ((4, 3, 2), 5000), ((3, 3, 3), 10000)])
def test_mcmc_law_is_uniform_over_all_tilings(abc, draws):
    spec = HexagonSpec(*abc)
    keys = [f.S.tobytes() for f in enumerate_walks(spec)]
    rng = np.random.default_rng(31)
    counts = Counter(sample_hexagon(spec, rng).S.tobytes() for _ in range(draws))
    assert set(counts) <= set(keys)
    e = draws / len(keys)
    chi = sum((counts[k] - e) ** 2 / e for k in keys)
    assert chi2_dist.sf(chi, len(keys) - 1) > 1e-3


def test_mcmc_column_hole_law_433():
    spec, m, R = HexagonSpec(4, 3, 3), 3, 1000
    law = column_law(spec, m, "holes")
    rng = np.random.default_rng(32)
    counts = Counter(sample_hexagon(spec, rng).holes(m) for _ in range(R))
    assert set(counts) <= set(law)
    chi, dof, pooled_e, pooled_o = 0.0, -1, 0.0, 0
    for key, pr in law.items():
        e, o = float(pr) * R, counts[key]
        if e >= 5:
            chi += (o - e) ** 2 / e
            dof += 1
        else:
            pooled_e += e
            pooled_o += o
    chi += (pooled_o - pooled_e) ** 2 / pooled_e
    assert chi2_dist.sf(chi, dof + 1) > 1e-3


def test_mcmc_volume_mean_is_half_at_8():
    # E[V] = abc/2 on the regular hexagon, by its 180-degree symmetry
    spec = HexagonSpec(8, 8, 8)
    v = np.array([plane_partition_height(sample_hexagon(spec, replica_rng(3, r))).sum()
                  for r in range(64)]) / 8**3
    assert abs(v.mean() - 0.5) < 4 * v.std(ddof=1) / 8


def test_samples_are_valid_walks():
    rng = np.random.default_rng(4)
    fam = sample_hexagon(HexagonSpec(3, 2, 2), rng)
    fam.validate()
    cols = walks_to_hole_columns(fam)
    for m, holes in enumerate(cols):
        assert len(holes) == column_bounds(fam.spec, m)[3]


def test_corner_gue_m1_variance():
    rng = np.random.default_rng(5)
    lam, c = 1.0, 200
    xs = corner_gue_statistics(HexagonSpec(c, c, c), 1, 3000, rng)
    kappa = corner_gue_exponent(lam)
    assert abs(xs.mean()) < 0.05
    assert abs(xs.var() - 1 / (2 * kappa)) < 0.05


def test_corner_gue_exponent_matches_exact_law():
    # the m = 1 variance of the exact discrete law approaches 1/(2 kappa)
    from scipy.special import gammaln

    for lam in (0.5, 1.0, 2.0):
        c = 6000
        a = int(lam * c)
        gamma = c  # m = 1
        alpha = a - 1
        t = np.arange(gamma + 1.0)
        logw = (
            gammaln(gamma + alpha - t + 1)
            + gammaln(alpha + t + 1)
            - gammaln(t + 1)
            - gammaln(gamma - t + 1)
        )
        w = np.exp(logw - logw.max())
        w /= w.sum()
        mu = (w * t).sum()
        var = (w * (t - mu) ** 2).sum() / c
        assert abs(var - 1 / (2 * corner_gue_exponent(a / c))) < 0.01


def test_corner_gue_m2_gap_moments_vs_quadrature():
    rng = np.random.default_rng(6)
    lam, c = 1.0, 200
    xs = corner_gue_statistics(HexagonSpec(c, c, c), 2, 3000, rng)
    gaps = xs[:, 1] - xs[:, 0]
    kappa = corner_gue_exponent(lam)
    nodes, wts = hermgauss(80)
    U = nodes / math.sqrt(kappa)
    W2 = np.outer(wts, wts)
    X, Y = np.meshgrid(U, U, indexing="ij")
    base = (X - Y) ** 2
    Z = (base * W2).sum()
    g1 = (np.abs(X - Y) * base * W2).sum() / Z
    g2 = ((X - Y) ** 2 * base * W2).sum() / Z
    assert abs(gaps.mean() - g1) / g1 < 0.10
    assert abs((gaps**2).mean() - g2) / g2 < 0.10


def test_arctic_boundary_values():
    assert abs(arctic_boundary(1.0, 0.0) - math.sqrt(3) / 2) < 1e-14
    assert abs(arctic_boundary(1.0, -0.3) - math.sqrt(3) * math.sqrt(0.25 - 0.03)) < 1e-14
    with pytest.raises(ValueError):
        arctic_boundary(1.0, 2.0)
