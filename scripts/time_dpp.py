"""Time the pieces of one perfbench ``dpp`` item.

Run from the repository root with the tree to time on the path:

    PYTHONPATH=src python scripts/time_dpp.py [--repeats 50]

The item draws once from the Krawtchouk(2000, 1/2) rank-500 kernel and 100
times from the Krawtchouk(5, 2/5) rank-3 kernel.  Each timing line is the
minimum over the repeats, in ms, of one call (one generator, seed 7, for all
calls): a whole rank-500 ``sample_dpp``; its Christoffel-Darboux head (the
steps before the hand-over, timed up to the call of ``_rebuild``) and the
head's time per step; ``_rebuild`` and the 32-step tail ``_sample_sequential``
on the state that one head left; and one tiny draw.  The last lines count,
per rank-500 draw (mean over --draws seeds), the cumulative sums taken and
the proposals made (``searchsorted`` calls) in the head and in the whole draw.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

import numpy as np

from tilings import ope


def best(f, repeats: int) -> float:
    f()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


class _Handover(Exception):
    """Raised in place of ``_rebuild`` to end a draw after its head."""


def _stop_at_handover(kernel, chosen, logw, d):
    raise _Handover(kernel, chosen, logw, d)


def head(kernel, rng):
    """Runs the head of one draw; returns the arguments it passed to
    ``_rebuild``."""
    rebuild, ope._rebuild = ope._rebuild, _stop_at_handover
    try:
        ope._sample_cd(kernel, rng)
    except _Handover as stop:
        return stop.args
    finally:
        ope._rebuild = rebuild
    raise RuntimeError("the draw did not reach the hand-over")


def count_calls(f, names) -> Counter:
    """Calls of the C functions or methods ``names`` made while f() runs."""
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) in names:
            seen[arg.__name__] += 1

    sys.setprofile(profile)
    try:
        f()
    finally:
        sys.setprofile(None)
    return seen


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=50)
    ap.add_argument("--draws", type=int, default=20)
    args = ap.parse_args()
    r = args.repeats
    big = ope.cd_kernel(ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(2000, 0.5), 500))
    tiny = ope.cd_kernel(ope.build_orthonormal(ope.DiscreteWeight.krawtchouk(5, 0.4), 3))
    rng = np.random.default_rng(7)
    _, chosen, logw, d = head(big, rng)
    psi = ope._rebuild(big, chosen, logw, d)
    diag = np.einsum("nx,nx->x", psi, psi)
    steps = chosen.size
    t_head = best(lambda: head(big, rng), r)
    pieces = {
        "sample_dpp k2000": best(lambda: ope.sample_dpp(big, rng), r),
        "head": t_head,
        "head per step": t_head / steps,
        "_rebuild": best(lambda: ope._rebuild(big, chosen, logw, d), r),
        "tail (32 steps)": best(lambda: ope._sample_sequential(psi, diag, rng, step=steps), r),
        "sample_dpp tiny": best(lambda: ope.sample_dpp(tiny, rng), 20 * r),
    }
    for name, ms in pieces.items():
        print(f"{name:18s} {ms:8.4f}")
    names = ("cumsum", "searchsorted")
    in_head: Counter = Counter()
    in_draw: Counter = Counter()
    for seed in range(args.draws):
        in_head += count_calls(lambda: head(big, np.random.default_rng(seed)), names)
        in_draw += count_calls(lambda: ope.sample_dpp(big, np.random.default_rng(seed)), names)
    n = args.draws
    print(f"per k2000 draw ({steps} head steps, mean of {n} seeds):")
    for label, seen in (("head", in_head), ("draw", in_draw)):
        print(f"  {label}: {seen['cumsum'] / n:7.2f} cumulative sums, "
              f"{seen['searchsorted'] / n:7.2f} proposals")


if __name__ == "__main__":
    main()
