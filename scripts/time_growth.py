"""Time the pieces of one perfbench ``growth`` item.

Run from the repository root with the tree to time on the path:

    PYTHONPATH=src python scripts/time_growth.py [--repeats 50]

Each line is the minimum over the repeats, in ms, of one call at q = 1/2
(one generator, seed 7, for all draws): ``sample_geometric`` of a 256 x 256
weight matrix; the LPP sweep ``lpp_value`` on one such matrix; the RSK
cascade ``cascade_grow`` and ``cascade_invert`` on its 16 x 16 corner,
unchecked as the item runs them; the Krawtchouk ``log_weight`` at the
grid's middle window K = 1761; and ``lpp_cdf_exact`` at n = 256 for the
thresholds t = 1150, 1250 and 1350 at the ends and middle of the grid.
``scripts/time_krawtchouk.py`` splits ``lpp_cdf_exact`` further.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from tilings import growth, ope, schur


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
    ap.add_argument("--repeats", type=int, default=50)
    r = ap.parse_args().repeats
    n, corner, q = 256, 16, 0.5
    rng = np.random.default_rng(7)
    W = growth.sample_geometric(q, (n, n), rng)
    Wc = W[:corner, :corner]
    res = schur.cascade_grow(Wc, check=False)
    weight = ope.DiscreteWeight.krawtchouk(1761, q)
    pieces = {
        "sample_geometric": lambda: growth.sample_geometric(q, (n, n), rng),
        "lpp_value n=256": lambda: growth.lpp_value(W),
        "cascade_grow n=16": lambda: schur.cascade_grow(Wc, check=False),
        "cascade_invert n=16": lambda: schur.cascade_invert(res, check=False),
        "log_weight K=1761": weight.log_weight,
    }
    for t in (1150, 1250, 1350):
        pieces[f"lpp_cdf_exact t={t}"] = lambda t=t: growth.lpp_cdf_exact(n, n, q, t)
    for name, f in pieces.items():
        print(f"{name:22s} {best(f, r):8.4f}")


if __name__ == "__main__":
    main()
