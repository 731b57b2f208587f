"""Exactly solvable random tilings and growth models.

Subpackages by model:

* :mod:`tilings.aztec` -- Aztec diamond geometry, DR-path bijections,
  zig-zag configurations, height functions, polar regions.
* :mod:`tilings.shuffling` -- exact domino-shuffling sampler and the
  brute-force weighted enumerator.
* :mod:`tilings.ope` -- discrete orthogonal polynomial ensembles
  (Krawtchouk / Hahn / associated Hahn), projection kernels, determinantal
  correlations, DPP sampling, gap probabilities, number variance.
* :mod:`tilings.growth` -- corner growth / last-passage percolation and the
  Poissonized longest-increasing-subsequence check.
* :mod:`tilings.schur` -- the RSK-equivalent growth cascade, Schur
  polynomials, and the Schur measure.
* :mod:`tilings.hexagon` -- rhombus tilings of the abc-hexagon, exact column
  laws, MacMahon counting, boxed plane partitions, exact samplers.
* :mod:`tilings.brickdimer` -- the dimer model on a cylindrical brick
  lattice: spectral kernel, partition function, free energy.
* :mod:`tilings.cli` -- command-line harness for all of the above.
"""

from ._rng import replica_rng

__version__ = "0.1.0"

__all__ = ["replica_rng", "__version__"]
