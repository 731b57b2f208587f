"""Geometry layer: domino kinds, path bijections, zig-zag configurations,
heights and polar regions, cross-checked exhaustively on small diamonds."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tilings.aztec import (
    DRPathFamily,
    Domino,
    GeometryError,
    Tiling,
    TilingError,
    _from_cs,
    classify_domino,
    diamond_squares,
    dr_paths_to_tiling,
    extract_dr_paths,
    height_from_particles,
    height_function,
    polar_regions,
    square_in_diamond,
    square_is_white,
    tiling_from_json,
    tiling_to_json,
    zigzag_config,
)
from tilings.shuffling import AztecMeasure, enumerate_tilings, sample_aztec


def all_tilings(n):
    return [t for t, _ in enumerate_tilings(n)]


def sampled_16():
    """One sampled tiling of A_16 (fixed seed), past the exhaustive sizes,
    so that the readers meet a long diamond boundary."""
    return sample_aztec(AztecMeasure.from_q(16, 0.5), np.random.default_rng(16))


def exhaustive_and_sampled():
    """Every tiling of A_1..A_4, then the sampled tiling of A_16 and one of
    A_48, the benchmark's size, where the polar regions are long."""
    sampled_48 = sample_aztec(AztecMeasure.from_q(48, 0.5), np.random.default_rng(48))
    return [t for n in range(1, 5) for t in all_tilings(n)] + [sampled_16(), sampled_48]


def zigzag_from_paths(t, r):
    """Oracle: the zig-zag particles and holes at level r as the last
    positions of the DR paths on the cross-section column (particles from
    type I, holes from type II)."""
    n = t.order
    particles = sorted(
        max(y for (x, y) in path if x == r)
        for path in extract_dr_paths(t, "typeI").paths[:r]  # paths from (k, 0), k <= r
    )
    holes = sorted(
        n - max(y for (x, y) in path if x == n + 1 - r)
        for path in extract_dr_paths(t, "typeII").paths[: n + 1 - r]
    )
    return tuple(particles), tuple(holes)


# Oracle: DR paths followed one segment at a time through a dict.  Marked
# segment on each domino kind, as ((dx1, 2*dy1), (dx2, 2*dy2)) offsets from
# the anchor; type II marks N, leaves S unmarked and swaps the W/E markings.
_SEGMENT_I = {"S": ((0, 1), (2, 1)), "W": ((0, 1), (1, 3)), "E": ((0, 3), (1, 1))}
_SEGMENT_II = {"N": ((0, 1), (2, 1)), "W": ((0, 3), (1, 1)), "E": ((0, 1), (1, 3))}


def to_cs_scalar(x, y2, n, flavor):
    """Original point (x, y2/2) -> CS coordinates, one point at a time."""
    if flavor == "typeI":
        s, d = 2 * (n + 1 - x), 1 - y2
    else:
        s, d = 2 * (x + n + 1), y2 + 1
    (xi, rem1), (yi, rem2) = divmod(s + d, 4), divmod(s - d, 4)
    assert rem1 == rem2 == 0
    return (xi, yi)


def dr_paths_by_dict(t, flavor):
    """Oracle: the DR paths as tuples of CS points, walked through a dict
    from each path's start, segment by segment."""
    n = t.order
    table = _SEGMENT_I if flavor == "typeI" else _SEGMENT_II
    nxt = {}
    for d in t.dominoes:
        seg = table.get(classify_domino(d, n))
        if seg is None:
            continue
        (dx1, dy1), (dx2, dy2) = seg
        p1, p2 = (d.x + dx1, 2 * d.y + dy1), (d.x + dx2, 2 * d.y + dy2)
        if flavor == "typeI":
            p1, p2 = p2, p1  # traverse right-to-left
        nxt[p1] = p2
    paths = []
    for k in range(1, n + 1):
        cur = _from_cs(k, 0, n, flavor)
        goal = _from_cs(n + 1, n + 1 - k, n, flavor)
        pts = [cur]
        while cur != goal:
            cur = nxt.pop(cur)
            pts.append(cur)
        paths.append(tuple(to_cs_scalar(x, y2, n, flavor) for (x, y2) in pts))
    assert not nxt, "marked segments not used by any path"
    return tuple(paths)


def test_diamond_square_count():
    for n in range(0, 6):
        assert len(list(diamond_squares(n))) == 2 * n * (n + 1)


def test_colouring_is_proper_and_leftmost_white():
    n = 4
    for (x, y) in diamond_squares(n):
        for (dx, dy) in ((1, 0), (0, 1)):
            if square_in_diamond(x + dx, y + dy, n):
                assert square_is_white(x, y, n) != square_is_white(x + dx, y + dy, n)
    for y in range(0, n + 1):  # top half rows
        leftmost = y - n
        assert square_is_white(leftmost, y, n)


def test_anchors_are_read_only_on_every_construction_path():
    rng = np.random.default_rng(5)
    one = sample_aztec(AztecMeasure.from_q(3, 0.5), rng)
    batch = sample_aztec(AztecMeasure.from_q(2, 0.4), rng, size=3)
    made = [one, *batch, Tiling(3, one.dominoes), tiling_from_json(tiling_to_json(one)),
            dr_paths_to_tiling(extract_dr_paths(one, "typeI")),
            *(t for t, _ in enumerate_tilings(2))]
    for t in made:
        assert not t.anchors.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t.anchors[0, 0] = 9


def test_classify_rules():
    n = 3
    for (x, y) in diamond_squares(n):
        if square_in_diamond(x + 1, y, n):
            d = Domino(x, y, True)
            expected = "N" if square_is_white(x, y, n) else "S"
            assert classify_domino(d, n) == expected
        if square_in_diamond(x, y + 1, n):
            d = Domino(x, y, False)
            expected = "W" if square_is_white(x, y + 1, n) else "E"
            assert classify_domino(d, n) == expected


def test_classify_rejects_outside():
    with pytest.raises(GeometryError):
        classify_domino(Domino(5, 5, True), 1)


@given(st.integers(-4, 3), st.integers(-4, 3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_classify_total_on_valid_placements(x, y, horizontal):
    d = Domino(x, y, horizontal)
    inside = all(square_in_diamond(sx, sy, 3) for (sx, sy) in d.squares())
    if inside:
        assert classify_domino(d, 3) in "NSWE"
    else:
        with pytest.raises(GeometryError):
            classify_domino(d, 3)


@pytest.mark.parametrize("flavor", ["typeI", "typeII"])
def test_path_round_trip_exhaustive(flavor):
    for n in range(1, 5):
        for t in all_tilings(n):
            fam = extract_dr_paths(t, flavor)
            fam.validate()  # includes non-intersection
            assert dr_paths_to_tiling(fam).key() == t.key()


def test_dr_paths_match_dict_oracle():
    tilings = [t for n in range(1, 5) for t in all_tilings(n)]
    rng = np.random.default_rng(48)
    for n in (16, 48):
        tilings += [sample_aztec(AztecMeasure.from_q(n, 0.5), rng) for _ in range(2)]
    for t in tilings:
        for flavor in ("typeI", "typeII"):
            fam = extract_dr_paths(t, flavor)
            assert fam.paths == dr_paths_by_dict(t, flavor)
            assert dr_paths_to_tiling(fam) == t


def test_dr_path_family_validate_rejects_broken_families():
    t = sample_aztec(AztecMeasure.from_q(5, 0.5), np.random.default_rng(3))
    paths = [list(p) for p in extract_dr_paths(t, "typeI").paths]

    def broken(k, i, point):
        new = [list(p) for p in paths]
        new[k][i] = point
        return DRPathFamily("typeI", 5, tuple(map(tuple, new)))

    with pytest.raises(ValueError, match="expected 5 paths, got 4"):
        DRPathFamily("typeI", 5, tuple(map(tuple, paths[:4]))).validate()
    with pytest.raises(ValueError, match=r"path 3 has endpoints \(9, 9\)"):
        broken(2, 0, (9, 9)).validate()
    with pytest.raises(ValueError, match=r"path 2 has endpoints \(2, 0\)..\(9, 9\)"):
        broken(1, -1, (9, 9)).validate()
    x, y = paths[3][0]
    with pytest.raises(ValueError, match=r"bad step \(2, 0\) in path 4"):
        broken(3, 1, (x + 2, y)).validate()
    with pytest.raises(ValueError, match=r"bad step \(0, 0\) in path 1"):
        DRPathFamily("typeI", 5, (paths[0][:1] + paths[0],) + tuple(paths[1:])).validate()
    # two paths of A_2 with the right ends and steps that share (2, 1)
    crossing = (((1, 0), (2, 1), (3, 2)), ((2, 0), (2, 1), (3, 1)))
    with pytest.raises(ValueError, match=r"paths intersect at \(2, 1\)"):
        DRPathFamily("typeI", 2, crossing).validate()


def test_n1_vertical_tiling_paths():
    vertical = Tiling(order=1, dominoes=(Domino(-1, -1, False), Domino(0, -1, False)))
    fam = extract_dr_paths(vertical, "typeI")
    # hand check: the E-segment joins (1,-1/2) to (0,1/2), the W-segment
    # continues to (-1,-1/2); in CS-I that is (1,0) -> (1,1) -> (2,1)
    assert fam.paths == (((1, 0), (1, 1), (2, 1)),)
    horizontal = Tiling(order=1, dominoes=(Domino(-1, -1, True), Domino(-1, 0, True)))
    fam2 = extract_dr_paths(horizontal, "typeI")
    assert fam2.paths == (((1, 0), (2, 1)),)  # single diagonal step on the S-mark


def test_zigzag_complementarity_and_path_equivalence():
    for t in exhaustive_and_sampled():
        n = t.order
        for r in range(1, n + 1):
            particles, holes = zigzag_config(t, r)
            assert len(particles) == r and len(holes) == n + 1 - r
            assert sorted(particles.positions + holes.positions) == list(
                range(n + 1)
            )
            assert (particles.positions, holes.positions) == zigzag_from_paths(t, r)


def test_zigzag_n1_law_is_binomial_half():
    # uniform measure on the two tilings of A_1: h_1 uniform on {0, 1}
    seen = set()
    for t in all_tilings(1):
        particles, _ = zigzag_config(t, 1)
        seen.add(particles.positions)
    assert seen == {(0,), (1,)}


def test_height_boundary_values_and_local_rule():
    for n in range(1, 5):
        for t in all_tilings(n):
            hf = height_function(t)
            assert hf.at(n, 0) == 0
            for r in range(1, n + 1):
                assert hf.zigzag_corner(r, 0) == 2 * n - (2 * r - 1)
                assert hf.zigzag_corner(r, n + 1) == 2 * r - 1
                particles, _ = zigzag_config(t, r)
                steps = [
                    hf.zigzag_corner(r, k) - hf.zigzag_corner(r, k + 1)
                    for k in range(n + 1)
                ]
                assert set(steps) <= {-2, 2}


def test_height_from_particles_matches_direct():
    for t in exhaustive_and_sampled():
        n = t.order
        hf = height_function(t)
        for r in range(1, n + 1):
            particles, _ = zigzag_config(t, r)
            for k in range(n + 2):
                assert hf.zigzag_corner(r, k) == height_from_particles(
                    n, r, k, particles
                )


def height_by_search(t):
    """Oracle: heights by a depth-first walk over the vertices from (n, 0),
    one edge at a time, as {(x, y): h}."""
    n = t.order
    owner = {sq: d for d in t.dominoes for sq in d.squares()}

    def left_square(x, y, dx, dy):
        return {(1, 0): (x, y), (0, 1): (x - 1, y),
                (-1, 0): (x - 1, y - 1), (0, -1): (x, y - 1)}[(dx, dy)]

    values = {(n, 0): 0}
    stack = [(n, 0)]
    while stack:
        x, y = stack.pop()
        for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            ls = left_square(x, y, dx, dy)
            rs = left_square(x + dx, y + dy, -dx, -dy)
            if ls not in owner and rs not in owner:
                continue
            s = -1 if square_is_white(*ls, n) else 1
            h = values[(x, y)] + (-3 * s if owner.get(ls) is owner.get(rs) else s)
            v = (x + dx, y + dy)
            if v not in values:
                values[v] = h
                stack.append(v)
            assert values[v] == h
    return values


def polar_by_search(t):
    """Oracle: polar regions grown domino by domino from the boundary."""
    n = t.order
    kinds = {d: classify_domino(d, n) for d in t.dominoes}
    owner = {sq: d for d in t.dominoes for sq in d.squares()}
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))

    def neighbours(d):
        return [(sx + dx, sy + dy) for (sx, sy) in d.squares() for dx, dy in steps]

    labels = {d: "temperate" for d in t.dominoes}
    for kind, label in (("N", "north"), ("S", "south"), ("W", "west"), ("E", "east")):
        frontier = [d for d in t.dominoes if kinds[d] == kind
                    and any(sq not in owner for sq in neighbours(d))]
        seen = set(frontier)
        while frontier:
            d = frontier.pop()
            labels[d] = label
            for sq in neighbours(d):
                other = owner.get(sq)
                if other is not None and other not in seen and kinds[other] == kind:
                    seen.add(other)
                    frontier.append(other)
    return labels


def test_grid_readers_match_search_oracles():
    for t in exhaustive_and_sampled():
        hf = height_function(t)
        oracle = height_by_search(t)
        n = t.order
        vertices = {(x, y) for x in range(-n - 1, n + 2) for y in range(-n - 1, n + 2)
                    if not np.ma.is_masked(hf.heights[y + n + 1, x + n + 1])}
        assert vertices == set(oracle)
        assert all(hf.at(x, y) == h for (x, y), h in oracle.items())
        labels = polar_regions(t)
        assert len(labels) == len(t.anchors)
        assert dict(zip(t.dominoes, labels)) == polar_by_search(t)
    with pytest.raises(GeometryError):
        hf.at(n + 1, 0)  # a tip of the diamond is no corner of a square


def test_height_from_particles_conventions():
    from tilings.aztec import ParticleConfig

    p = ParticleConfig(window=5, positions=(0, 1, 2))
    # k = n+1: empty prefix, value 2r - 1
    assert height_from_particles(5, 3, 6, p) == 2 * 3 - 1
    # all particles inside [0, n-k]: 2(n-k+r)+1-4r
    assert height_from_particles(5, 3, 2, p) == 2 * (5 - 2 + 3) + 1 - 4 * 3
    with pytest.raises(GeometryError):
        height_from_particles(5, 3, 9, p)


def test_polar_regions_n1():
    horizontal = Tiling(order=1, dominoes=(Domino(-1, -1, True), Domino(-1, 0, True)))
    labels = polar_regions(horizontal)
    assert labels == ("south", "north")  # rows (-1, -1, 1) and (-1, 0, 1)
    vertical = Tiling(order=1, dominoes=(Domino(-1, -1, False), Domino(0, -1, False)))
    labels = polar_regions(vertical)
    assert labels == ("west", "east")  # rows (-1, -1, 0) and (0, -1, 0)


def test_north_region_is_above_level1_path():
    # the north region must consist of N-dominoes and match the set of
    # dominoes lying entirely above the level-1 type-I path
    for t in all_tilings(3) + [sampled_16()]:
        labels = dict(zip(t.dominoes, polar_regions(t)))
        kinds = {d: classify_domino(d, t.order) for d in t.dominoes}
        north = {d for d, lab in labels.items() if lab == "north"}
        assert all(kinds[d] == "N" for d in north)
        fam = extract_dr_paths(t, "typeI")
        # level-1 path in original coordinates: x -> max path height
        pts = [_from_cs(xi, yi, t.order, "typeI") for (xi, yi) in fam.paths[0]]
        ys_at = {}
        for (x, y2) in pts:
            ys_at[x] = max(ys_at.get(x, -10**9), y2 / 2)
        xs = sorted(ys_at)
        def path_y(xc):
            # piecewise-linear interpolation is enough: domino centers are
            # half-integers and the path is monotone between break points
            if xc <= xs[0]:
                return ys_at[xs[0]]
            if xc >= xs[-1]:
                return ys_at[xs[-1]]
            for x0, x1 in zip(xs, xs[1:]):
                if x0 <= xc <= x1:
                    f = (xc - x0) / (x1 - x0)
                    return ys_at[x0] * (1 - f) + ys_at[x1] * f
            raise AssertionError

        above = set()
        for d in t.dominoes:
            (x1, y1), (x2, y2) = d.squares()
            cx = (x1 + x2 + 1) / 2.0
            cy = (y1 + y2 + 1) / 2.0
            if cy > path_y(cx):
                above.add(d)
        assert above == north


def test_validate_rejects_broken_tilings():
    t = all_tilings(2)[0]
    t.validate()
    ds = list(t.dominoes)
    outside = Tiling(order=2, dominoes=tuple(ds[:-1]) + (Domino(2, 0, True),))
    doubled = Tiling(order=2, dominoes=tuple(ds) + (ds[0],))
    missing = Tiling(order=2, dominoes=tuple(ds[1:]))
    for broken, message in ((outside, "outside A_2"), (doubled, "covered twice"),
                            (missing, "covered 10 squares")):
        with pytest.raises(TilingError, match=message):
            broken.validate()


def test_even_vertical_count_exhaustive_and_sampled():
    for n in range(1, 5):
        assert all(t.vertical_count() % 2 == 0 for t in all_tilings(n))
    rng = np.random.default_rng(0)
    m = AztecMeasure.from_q(8, 0.4)
    for _ in range(20):
        assert sample_aztec(m, rng).vertical_count() % 2 == 0


def test_json_round_trip():
    # built from Domino tuples, by the sampler or from JSON: one value
    tilings = all_tilings(2) + [sampled_16()]
    for t in tilings:
        back = tiling_from_json(tiling_to_json(t))
        rebuilt = Tiling(t.order, reversed(t.dominoes))
        assert back == t == rebuilt and hash(back) == hash(t) == hash(rebuilt)
        assert back.key() == t.key() and back.dominoes == t.dominoes
    assert tilings[0] != tilings[1]
    # the JSON bytes of the seeded sample, as written before Tiling held arrays
    digest = hashlib.sha256(tiling_to_json(tilings[-1]).encode()).hexdigest()
    assert digest == "1165f4ec9c4050726dbe2e6cc8e9e12df70c2a9a55d5807f65855e422d62cb3a"


def test_domino_is_the_named_tuple_of_its_fields():
    d = Domino(-1, 0, True)
    assert Domino._fields == ("x", "y", "horizontal")
    assert repr(d) == "Domino(x=-1, y=0, horizontal=True)"
    assert d.squares() == ((-1, 0), (0, 0))
    assert Domino(-1, 0, False).squares() == ((-1, 0), (-1, 1))
    with pytest.raises(AttributeError):
        d.x = 0
    # ordered and hashed as the tuple (x, y, horizontal), vertical first
    ordered = [Domino(-2, 1, True), Domino(-1, -1, False), Domino(-1, 0, False), d,
               Domino(0, -2, True)]
    assert sorted(reversed(ordered)) == ordered
    assert hash(d) == hash((-1, 0, True)) and len({d, Domino(-1, 0, True)}) == 1
    # the one change from a dataclass: a Domino equals the plain tuple
    assert d == (-1, 0, True) and (-1, 0, True) == d and d != (-1, 0, False)
    assert Tiling(1, [(-1, -1, False), (0, -1, False)]) == vertical_a1()


def test_dominoes_are_the_sorted_domino_tuple():
    # what Tiling.dominoes gave when Domino was a dataclass: a Domino of two
    # ints and a bool per anchor row, sorted
    batch = sample_aztec(AztecMeasure.from_q(6, 0.3), np.random.default_rng(6), size=3)
    for t in [Tiling(0, ()), *all_tilings(3), sampled_16(), *batch]:
        expect = tuple(sorted(Domino(int(x), int(y), bool(h)) for x, y, h in t.anchors))
        assert t.dominoes == expect
        assert all(type(d) is Domino and type(d.x) is type(d.y) is int
                   and type(d.horizontal) is bool for d in t.dominoes)
        assert Tiling(t.order, t.dominoes) == t


def test_json_is_the_text_of_json_dumps():
    batch = sample_aztec(AztecMeasure.from_q(7, 0.5), np.random.default_rng(7), size=4)
    for t in [Tiling(0, ()), *all_tilings(2), sampled_16(), *batch]:
        records = [{"x": x, "y": y, "orientation": "horizontal" if h else "vertical"}
                   for x, y, h in t.dominoes]
        expect = json.dumps({"order": t.order, "dominoes": records}, sort_keys=True)
        assert tiling_to_json(t) == expect
        assert tiling_from_json(expect) == t


def test_json_has_no_kind_field():
    t = all_tilings(1)[0]
    assert '"kind"' not in tiling_to_json(t)


def vertical_a1():
    return next(t for t in all_tilings(1) if t.vertical_count() == 2)


def test_json_parses_other_key_order_and_whitespace():
    t = vertical_a1()
    obj = json.loads(tiling_to_json(t))
    obj = {"order": obj["order"],
           "dominoes": [dict(reversed(d.items())) for d in obj["dominoes"]]}
    assert tiling_from_json(json.dumps(obj, indent=3)) == t


@pytest.mark.parametrize("field, value", [
    ("orientation", "sideways"), ("orientation", "vertcal"), ("x", -1.5), ("x", "-1"),
    ("y", True), ("order", 1.0), ("order", True),
])
def test_json_rejects_malformed_records(field, value):
    # one edited field of the vertical tiling of A_1 (first domino (-1, -1))
    # must raise TilingError, not read back as a tiling or raise another error
    obj = json.loads(tiling_to_json(vertical_a1()))
    (obj if field == "order" else obj["dominoes"][0])[field] = value
    with pytest.raises(TilingError):
        tiling_from_json(json.dumps(obj))
