"""Probabilistic feature vectors (Definition 1 of the paper).

A :class:`ProbabilisticFeatureVector` (pfv) pairs each of its ``d`` feature
values ``mu_i`` with an uncertainty ``sigma_i`` — the standard deviation of
the (assumed Gaussian) measurement error of that feature. The pfv therefore
describes an axis-parallel multivariate normal distribution of the *true*
feature vector given the observation.

The class is a thin, immutable wrapper around two float64 numpy arrays, plus
an application-level ``key`` identifying the real-world object the
observation belongs to (person id, image id, ...). Keys are what
identification queries return and what precision/recall are computed
against.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.core import gaussian

__all__ = ["ProbabilisticFeatureVector", "PFV"]


class ProbabilisticFeatureVector:
    """An observation with per-dimension Gaussian uncertainty.

    Parameters
    ----------
    mu:
        Observed feature values, length ``d``.
    sigma:
        Per-dimension standard deviations, length ``d``; strictly positive.
    key:
        Hashable identifier of the underlying real-world object. Distinct
        observations of the same object share a key. ``None`` is allowed
        for anonymous vectors (e.g. ad-hoc queries).
    """

    __slots__ = ("_mu", "_sigma", "_key")

    def __init__(
        self,
        mu: Sequence[float] | np.ndarray,
        sigma: Sequence[float] | np.ndarray,
        key: Hashable = None,
    ) -> None:
        # Copy so that freezing below cannot affect a caller-owned array.
        mu_arr = np.array(mu, dtype=np.float64, copy=True)
        sigma_arr = np.array(sigma, dtype=np.float64, copy=True)
        if mu_arr.ndim != 1:
            raise ValueError(f"mu must be 1-dimensional, got shape {mu_arr.shape}")
        if sigma_arr.ndim != 1:
            raise ValueError(
                f"sigma must be 1-dimensional, got shape {sigma_arr.shape}"
            )
        if mu_arr.shape != sigma_arr.shape:
            raise ValueError(
                "mu and sigma must have the same length, got "
                f"{mu_arr.shape[0]} and {sigma_arr.shape[0]}"
            )
        if mu_arr.size == 0:
            raise ValueError("a pfv needs at least one dimension")
        # ndarray methods rather than the np.all/np.any wrappers: the
        # same checks at half the cost of a construction, and a query
        # answer builds one pfv per match.
        if not np.isfinite(mu_arr).all():
            raise ValueError("mu contains non-finite values")
        if not (np.isfinite(sigma_arr).all() and (sigma_arr > 0.0).all()):
            raise ValueError("sigma values must be finite and strictly positive")
        mu_arr.flags.writeable = False
        sigma_arr.flags.writeable = False
        self._mu = mu_arr
        self._sigma = sigma_arr
        self._key = key

    # -- basic accessors ---------------------------------------------------

    @property
    def mu(self) -> np.ndarray:
        """Observed feature values (read-only array of length ``d``)."""
        return self._mu

    @property
    def sigma(self) -> np.ndarray:
        """Per-dimension standard deviations (read-only, length ``d``)."""
        return self._sigma

    @property
    def key(self) -> Hashable:
        """Identifier of the real-world object this observation belongs to."""
        return self._key

    @property
    def dims(self) -> int:
        """Number of probabilistic features ``d``."""
        return int(self._mu.shape[0])

    def with_key(self, key: Hashable) -> "ProbabilisticFeatureVector":
        """Return a copy of this pfv carrying a different key."""
        return ProbabilisticFeatureVector(self._mu, self._sigma, key)

    # -- density -----------------------------------------------------------

    def log_density(self, x: Sequence[float] | np.ndarray) -> float:
        """``log p(x | v)`` — log density of the exact value ``x`` (Def. 1)."""
        x_arr = np.asarray(x, dtype=np.float64)
        if x_arr.shape != self._mu.shape:
            raise ValueError(
                f"x has {x_arr.shape[0] if x_arr.ndim == 1 else '?'} dims, "
                f"pfv has {self.dims}"
            )
        return float(gaussian.log_pdf_sum(x_arr, self._mu, self._sigma))

    def density(self, x: Sequence[float] | np.ndarray) -> float:
        """``p(x | v)`` — may underflow to 0.0 for distant ``x``; prefer
        :meth:`log_density` in numerical code."""
        return float(np.exp(self.log_density(x)))

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return self.dims

    def __iter__(self) -> Iterator[tuple[float, float]]:
        """Iterate over ``(mu_i, sigma_i)`` pairs, as in Definition 1."""
        for m, s in zip(self._mu, self._sigma):
            yield float(m), float(s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticFeatureVector):
            return NotImplemented
        return (
            self._key == other._key
            and np.array_equal(self._mu, other._mu)
            and np.array_equal(self._sigma, other._sigma)
        )

    def __hash__(self) -> int:
        return hash((self._key, self._mu.tobytes(), self._sigma.tobytes()))

    def __repr__(self) -> str:
        return (
            f"PFV(key={self._key!r}, d={self.dims}, "
            f"mu={np.array2string(self._mu, precision=3, threshold=6)}, "
            f"sigma={np.array2string(self._sigma, precision=3, threshold=6)})"
        )


#: Short alias used pervasively in the codebase and the paper's notation.
PFV = ProbabilisticFeatureVector
