"""Time the pieces of growth.lpp_cdf_exact and a few Krawtchouk table builds.

Run from the repository root with the tree to time on the path:

    PYTHONPATH=src python scripts/time_krawtchouk.py [--repeats 15]

Each line is the minimum over the repeats, in ms, of one piece:
``table`` is build_orthonormal(..., validate=False) at the growth size
(256, 256, q = 1/2, threshold t), ``B B^T`` and ``A A^T`` are the two Gram
products of ope._max_particle_cdf, ``LU G_B`` is its one log-determinant
(slogdet), ``series`` the two-term series it takes for the full Gram block,
and ``lpp_cdf_exact`` is the whole call.  The ``build`` lines time raw
(validate=False) and validated tables.  ``tiny`` is the share of table
entries that are nonzero and below 2^-511 in magnitude.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from tilings import growth, ope


def best(f, repeats: int) -> float:
    f()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def tiny_share(table: np.ndarray) -> float:
    a = np.abs(table)
    return float(np.mean((a > 0) & (a < 2.0**-511)))


def lpp_pieces(n: int, t: int, repeats: int) -> str:
    K, M, s = t + 2 * n - 1, n, t + n - 1
    weight = ope.DiscreteWeight.krawtchouk(K, 0.5)
    table = ope.build_orthonormal(weight, M, validate=False).table
    B, A = table[:, : s + 1], table[:, s + 1:]
    GB = B @ B.T
    E = A @ A.T + GB - np.eye(len(GB))
    pieces = {
        "table": lambda: ope.build_orthonormal(weight, M, validate=False),
        "B B^T": lambda: B @ B.T,
        "A A^T": lambda: A @ A.T,
        "LU G_B": lambda: np.linalg.slogdet(GB[:M, :M]),
        "series": lambda: ope._log_det_series(E[:M, :M]),
        "lpp_cdf_exact": lambda: growth.lpp_cdf_exact(n, n, 0.5, t),
    }
    cols = "  ".join(f"{name} {best(f, repeats):7.3f}" for name, f in pieces.items())
    return f"lpp t={t} K={K} tiny={tiny_share(table):.3f}  {cols}"


def build(K: int, p: float, N: int, validate: bool, repeats: int) -> str:
    weight = ope.DiscreteWeight.krawtchouk(K, p)
    table = ope.build_orthonormal(weight, N, validate=validate).table
    ms = best(lambda: ope.build_orthonormal(weight, N, validate=validate), repeats)
    kind = "validated" if validate else "raw"
    return (f"build {kind:9s} K={K} p={p} N={N} tiny={tiny_share(table):.3f} "
            f"zero={float(np.mean(table == 0)):.3f}  {ms:8.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=15)
    r = ap.parse_args().repeats
    for t in (1150, 1250, 1350):
        print(lpp_pieces(256, t, r))
    for K, p, N in [(5000, 0.5, 300), (5000, 0.01, 200), (10000, 0.1, 300)]:
        print(build(K, p, N, False, r))
    for K, p, N in [(2000, 0.5, 500), (5000, 0.5, 300)]:
        print(build(K, p, N, True, r))


if __name__ == "__main__":
    main()
