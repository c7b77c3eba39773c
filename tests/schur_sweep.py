"""The Schur solve against dense eigh over 600 random operators of the assembled shape.

    PYTHONPATH=src:tests python tests/schur_sweep.py

_laplacian_like_operator seeds 0-599 (1-4 channels each) go through
annulus._schur_eigenpairs: every level must lie within 32 eps ||H|| of dense
eigh, and every vector, whichever of its sources the solve took, must have a
residual within 1e-10 ||H||. It prints how many operators of each channel
count it covered and the worst figures it saw, and exits nonzero on the first
operator that misses a bound. pytest does not collect it: the name does not
start with test_.
"""

from __future__ import annotations

import collections

import numpy as np
import scipy.linalg

from radext import annulus
from test_annulus import _laplacian_like_operator

SEEDS = 600
LEVEL_BOUND = 32  # in eps ||H||
VECTOR_BOUND = 1e-10  # in ||H||


def main() -> None:
    eps = np.finfo(float).eps
    covered = collections.Counter()
    worst_level = worst_vector = 0.0
    for seed in range(SEEDS):
        ham, k = _laplacian_like_operator(seed)
        norm, dense = ham.norm_upper_bound(), ham.dense()
        vals, vecs = annulus._schur_eigenpairs(ham, k, norm)
        full = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=(0, k - 1))
        level = np.abs(vals - full).max() / (eps * norm)
        vector = np.linalg.norm(dense @ vecs - vecs * vals, axis=0).max() / norm
        assert level <= LEVEL_BOUND, (seed, vals, full)
        assert vector <= VECTOR_BOUND, (seed, vector)
        covered[ham.n_channels] += 1
        worst_level, worst_vector = max(worst_level, level), max(worst_vector, vector)
    print("operators by channel count:", ", ".join(f"{n_ch}: {covered[n_ch]}" for n_ch in sorted(covered)))
    print(f"worst level gap {worst_level:.2f} eps ||H|| (bound {LEVEL_BOUND}), "
          f"worst residual {worst_vector:.3g} ||H|| (bound {VECTOR_BOUND:g})")


if __name__ == "__main__":
    main()
