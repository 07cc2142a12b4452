"""Synthetic colour-histogram data set (substitute for data set 1).

The paper's data set 1 is "10,987 27-dimensional color histograms of an
image database" — a private collection we cannot obtain. The substitution
generates data with the same statistical character histograms have:

* vectors live on the probability simplex (non-negative, L1-normalised);
* mass concentrates in a few bins per image (real colour histograms are
  sparse-ish), modelled by Dirichlet cluster prototypes with small
  concentration;
* images form visual clusters (many similar images per theme), modelled
  by per-object noise around the prototypes.

No algorithm in the paper looks at image *content*; the evaluation only
needs a realistic correlated feature distribution at the right scale,
which this preserves.
"""

from __future__ import annotations

import numpy as np

from repro.core.database import PFVDatabase
from repro.core.joint import SigmaRule
from repro.data.synthetic import database_from_arrays
from repro.data.uncertainty import mixed_precision_sigmas

__all__ = ["color_histogram_matrix", "color_histogram_dataset", "DS1_SIGMA_BANDS"]

#: Calibrated sigma bands of the data set 1 substitute:
#: 20% badly-measured cells with sigmas at 0.5-3 histogram bins, the rest
#: precise at 1/200 - 1/20 of a bin.
DS1_SIGMA_BANDS = {"p_bad": 0.2, "good": (2e-4, 2e-3), "bad": (0.02, 0.1)}

#: Scale of the paper's data set 1.
PAPER_N = 10_987
PAPER_D = 27


def color_histogram_matrix(
    n: int = PAPER_N,
    d: int = PAPER_D,
    clusters: int = 40,
    concentration: float = 0.6,
    noise: float = 0.15,
    seed: int = 1987,
) -> np.ndarray:
    """Generate ``(n, d)`` histogram-like vectors on the simplex.

    Each cluster prototype is a Dirichlet draw with a small concentration
    (mass in few bins); every object perturbs its prototype
    multiplicatively and renormalises, staying on the simplex.
    """
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    if concentration <= 0.0 or noise < 0.0:
        raise ValueError("concentration must be positive, noise non-negative")
    rng = np.random.default_rng(seed)
    prototypes = rng.dirichlet(np.full(d, concentration), size=clusters)
    assignment = rng.integers(0, clusters, size=n)
    base = prototypes[assignment]
    jitter = np.exp(rng.normal(0.0, noise, size=(n, d)))
    hist = base * jitter
    hist /= hist.sum(axis=1, keepdims=True)
    return hist


def color_histogram_dataset(
    n: int = PAPER_N,
    d: int = PAPER_D,
    seed: int = 1987,
    sigma_rule: SigmaRule = SigmaRule.CONVOLUTION,
    **sigma_bands,
) -> PFVDatabase:
    """Data set 1 substitute: histogram means + mixed-precision sigmas.

    Sigma bands are calibrated against the histogram bin scale (bins
    average ``1/27 ~ 0.037``): precise features sit far below a bin,
    badly-measured ones at a bin or three — heterogeneous enough to break
    Euclidean NN while the probabilistic model stays near-perfect, as in
    Figure 6(a). Override any of ``p_bad`` / ``good`` / ``bad`` to move
    off the calibration.
    """
    rng = np.random.default_rng(seed + 1)
    mu = color_histogram_matrix(n=n, d=d, seed=seed)
    bands = {**DS1_SIGMA_BANDS, **sigma_bands}
    sigma = mixed_precision_sigmas(rng, n, d, **bands)
    return database_from_arrays(mu, sigma, sigma_rule)
