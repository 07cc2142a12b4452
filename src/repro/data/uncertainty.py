"""Uncertainty (sigma) generators.

The paper "complemented each dimension with a randomly generated standard
deviation" without further detail; these generators make the choice
explicit and reproducible. All of them take a seeded
:class:`numpy.random.Generator` and return strictly positive ``(n, d)``
arrays.

The heterogeneity knobs matter for the effectiveness experiment: the wider
the spread between well- and badly-measured features/objects, the harder
plain Euclidean NN fails while the probabilistic model keeps working
(Figure 6's 42% vs 98%). The defaults were calibrated so the reproduction
lands in the paper's regime; ``DS1_SIGMA_BANDS``
(:mod:`repro.data.histograms`) and ``DS2_SIGMA_BANDS``
(:mod:`repro.data.synthetic`) record the values used.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_sigmas",
    "lognormal_sigmas",
    "per_object_quality_sigmas",
    "mixed_precision_sigmas",
]


def _validate(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")


def uniform_sigmas(
    rng: np.random.Generator, n: int, d: int, low: float, high: float
) -> np.ndarray:
    """Independent per-feature sigmas uniform in ``[low, high]``."""
    _validate(n, d)
    if not 0.0 < low <= high:
        raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
    return rng.uniform(low, high, size=(n, d))


def lognormal_sigmas(
    rng: np.random.Generator,
    n: int,
    d: int,
    median: float,
    spread: float = 0.75,
) -> np.ndarray:
    """Log-normal sigmas — heavy right tail of badly-measured features.

    ``median`` is the distribution median, ``spread`` the std-dev of the
    underlying normal in log space.
    """
    _validate(n, d)
    if median <= 0.0 or spread < 0.0:
        raise ValueError("median must be positive and spread non-negative")
    return median * np.exp(rng.normal(0.0, spread, size=(n, d)))


def mixed_precision_sigmas(
    rng: np.random.Generator,
    n: int,
    d: int,
    p_bad: float = 0.2,
    good: tuple[float, float] = (2e-4, 2e-3),
    bad: tuple[float, float] = (0.02, 0.1),
) -> np.ndarray:
    """Two-band heteroscedastic sigmas: mostly precise, occasionally bad.

    Per (object, dimension) cell the sigma is drawn log-uniformly from the
    *good* band, except with probability ``p_bad`` from the much larger
    *bad* band. This is the regime that drives the paper's Figure 6:
    Euclidean NN gets dominated by the badly-measured features (it weights
    every dimension equally), while the probabilistic model discounts them
    through the sigmas and identifies objects from the precise features.
    The defaults are the calibration of our data set 1 substitute
    (:data:`repro.data.histograms.DS1_SIGMA_BANDS`).
    """
    _validate(n, d)
    if not 0.0 <= p_bad <= 1.0:
        raise ValueError(f"p_bad must be in [0, 1], got {p_bad}")
    for lo, hi in (good, bad):
        if not 0.0 < lo <= hi:
            raise ValueError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
    good_draw = np.exp(
        rng.uniform(np.log(good[0]), np.log(good[1]), size=(n, d))
    )
    bad_draw = np.exp(rng.uniform(np.log(bad[0]), np.log(bad[1]), size=(n, d)))
    mask = rng.random(size=(n, d)) < p_bad
    return np.where(mask, bad_draw, good_draw)


def per_object_quality_sigmas(
    rng: np.random.Generator,
    n: int,
    d: int,
    low: float,
    high: float,
    quality_spread: float = 3.0,
) -> np.ndarray:
    """Sigmas with a shared per-*object* quality factor.

    Models the paper's motivating scenario: each observation (face image)
    is taken under its own conditions, so all features of one object share
    a quality level (a factor drawn log-uniformly from
    ``[1, quality_spread]``), on top of per-feature variation in
    ``[low, high]``. A bad photo inflates *all* of its sigmas — the case
    per-dimension weighting cannot express.
    """
    _validate(n, d)
    if not 0.0 < low <= high:
        raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
    if quality_spread < 1.0:
        raise ValueError("quality_spread must be >= 1")
    base = rng.uniform(low, high, size=(n, d))
    quality = np.exp(rng.uniform(0.0, np.log(quality_spread), size=(n, 1)))
    return base * quality
