"""Time the pieces of one perfbench ``aztec`` item.

Run from the repository root with the tree to time on the path:

    PYTHONPATH=src python scripts/time_aztec.py [--repeats 200]

Each line is the minimum over the repeats, in ms, of one call at q = 1/2:
``sample_aztec`` at orders 4 and 48 (one generator, seed 7, for all calls),
and on one order-48 tiling ``dominoes`` and ``validate`` (each on a fresh
Tiling over the same anchors, since both are cached), ``tiling_to_json``,
``tiling_from_json`` (which validates what it parses), ``height_function``
and ``polar_regions``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from tilings import aztec, shuffling


def best(f, repeats: int) -> float:
    f()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=200)
    r = ap.parse_args().repeats
    small, big = (shuffling.AztecMeasure.from_q(n, 0.5) for n in (4, 48))
    rng = np.random.default_rng(7)
    t = shuffling.sample_aztec(big, rng)
    t.validate()
    text = aztec.tiling_to_json(t)

    def fresh():
        return aztec.Tiling._from_anchors(t.order, t.anchors)

    pieces = {
        "sample_aztec n=4": lambda: shuffling.sample_aztec(small, rng),
        "sample_aztec n=48": lambda: shuffling.sample_aztec(big, rng),
        "dominoes": lambda: fresh().dominoes,
        "validate": lambda: fresh().validate(),
        "tiling_to_json": lambda: aztec.tiling_to_json(t),
        "tiling_from_json": lambda: aztec.tiling_from_json(text),
        "height_function": lambda: aztec.height_function(t),
        "polar_regions": lambda: aztec.polar_regions(t),
    }
    for name, f in pieces.items():
        print(f"{name:18s} {best(f, r):8.4f}")


if __name__ == "__main__":
    main()
