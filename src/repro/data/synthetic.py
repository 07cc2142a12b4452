"""Synthetic pfv generators (data set 2 of the paper, and test fodder).

Data set 2 of the evaluation is itself synthetic: "we randomly generated
100,000 probabilistic feature vectors in a 10-dimensional feature space
along with corresponding sigma values". :func:`uniform_pfv_dataset` is a
direct reimplementation of that description. :func:`clustered_pfv_dataset`
adds a Gaussian-mixture generator for tests and ablations that need
correlated data.
"""

from __future__ import annotations

import numpy as np

from repro.core.database import PFVDatabase
from repro.core.joint import SigmaRule
from repro.core.pfv import PFV
from repro.data.uncertainty import mixed_precision_sigmas, uniform_sigmas

__all__ = [
    "uniform_pfv_dataset",
    "clustered_pfv_dataset",
    "database_from_arrays",
    "DS2_SIGMA_BANDS",
]

#: Calibrated sigma bands of data set 2: 30% of the cells badly measured
#: relative to the unit cube, the rest precise.
DS2_SIGMA_BANDS = {"p_bad": 0.3, "good": (0.003, 0.02), "bad": (0.1, 0.25)}


def database_from_arrays(
    mu: np.ndarray,
    sigma: np.ndarray,
    sigma_rule: SigmaRule = SigmaRule.CONVOLUTION,
    key_offset: int = 0,
) -> PFVDatabase:
    """Wrap ``(n, d)`` mean/sigma stacks into a database with integer keys."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape or mu.ndim != 2:
        raise ValueError("mu and sigma must both be (n, d)")
    vectors = [
        PFV(mu[i], sigma[i], key=key_offset + i) for i in range(mu.shape[0])
    ]
    return PFVDatabase(vectors, sigma_rule=sigma_rule)


def uniform_pfv_dataset(
    n: int = 100_000,
    d: int = 10,
    seed: int = 2006,
    sigma_rule: SigmaRule = SigmaRule.CONVOLUTION,
    **sigma_bands,
) -> PFVDatabase:
    """The paper's data set 2: uniform means in ``[0, 1]^d``, random sigmas.

    Defaults reproduce the paper's scale (100,000 x 10) with
    mixed-precision sigmas calibrated at that scale; the benchmarks scale
    ``n`` down unless full-scale mode is requested (``REPRO_FULL_SCALE=1``,
    see :func:`repro.eval.figures.dataset2`).
    Override any of ``p_bad`` / ``good`` / ``bad`` to move off the
    calibration.
    """
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, 1.0, size=(n, d))
    bands = {**DS2_SIGMA_BANDS, **sigma_bands}
    sigma = mixed_precision_sigmas(rng, n, d, **bands)
    return database_from_arrays(mu, sigma, sigma_rule)


def clustered_pfv_dataset(
    n: int = 10_000,
    d: int = 10,
    clusters: int = 20,
    cluster_std: float = 0.05,
    sigma_low: float = 0.02,
    sigma_high: float = 0.12,
    seed: int = 2006,
    sigma_rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> PFVDatabase:
    """Gaussian-mixture means in ``[0, 1]^d`` with random sigmas.

    Useful for tests and ablations that need correlated data (index
    selectivity behaves differently on clustered inputs).
    """
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15, 0.85, size=(clusters, d))
    assignment = rng.integers(0, clusters, size=n)
    mu = centers[assignment] + rng.normal(0.0, cluster_std, size=(n, d))
    sigma = uniform_sigmas(rng, n, d, sigma_low, sigma_high)
    return database_from_arrays(mu, sigma, sigma_rule)
