"""Parameter-space minimum bounding rectangles (Definition 4).

A Gauss-tree inner entry bounds not the Gaussian *curves* but their
*parameters*: for each of the ``d`` probabilistic features it keeps an
interval ``[mu_lo, mu_hi]`` for the feature value and an interval
``[sigma_lo, sigma_hi]`` for the uncertainty — a rectangle of
dimensionality ``2 d``. :class:`ParameterRect` implements those rectangles
with numpy arrays plus the geometric operations tree construction needs
(containment, union, enlargement, volume/margin in the 2d-dimensional
parameter space).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.pfv import PFV

__all__ = ["ParameterRect"]


class ParameterRect:
    """An axis-parallel box over ``(mu_1..mu_d, sigma_1..sigma_d)``.

    Instances are mutable (tree construction extends them in place) but the
    bound arrays must only be modified through the provided methods so
    cached node state stays consistent.
    """

    __slots__ = ("mu_lo", "mu_hi", "sigma_lo", "sigma_hi")

    def __init__(
        self,
        mu_lo: np.ndarray,
        mu_hi: np.ndarray,
        sigma_lo: np.ndarray,
        sigma_hi: np.ndarray,
    ) -> None:
        self.mu_lo = np.asarray(mu_lo, dtype=np.float64).copy()
        self.mu_hi = np.asarray(mu_hi, dtype=np.float64).copy()
        self.sigma_lo = np.asarray(sigma_lo, dtype=np.float64).copy()
        self.sigma_hi = np.asarray(sigma_hi, dtype=np.float64).copy()
        shapes = {
            a.shape
            for a in (self.mu_lo, self.mu_hi, self.sigma_lo, self.sigma_hi)
        }
        if len(shapes) != 1 or self.mu_lo.ndim != 1:
            raise ValueError("all four bound arrays must be 1-d and equal length")
        if np.any(self.mu_lo > self.mu_hi) or np.any(self.sigma_lo > self.sigma_hi):
            raise ValueError("lower bounds must not exceed upper bounds")
        if np.any(self.sigma_lo <= 0.0):
            raise ValueError("sigma bounds must be strictly positive")

    # -- constructors --------------------------------------------------------

    @classmethod
    def of_vector(cls, v: PFV) -> "ParameterRect":
        """Degenerate rectangle of a single pfv (point in parameter space)."""
        return cls(v.mu, v.mu, v.sigma, v.sigma)

    @classmethod
    def of_vectors(cls, vectors: Iterable[PFV]) -> "ParameterRect":
        """Tight MBR of a non-empty collection of pfv."""
        vectors = list(vectors)
        if not vectors:
            raise ValueError("cannot bound an empty collection")
        mu = np.vstack([v.mu for v in vectors])
        sigma = np.vstack([v.sigma for v in vectors])
        return cls(mu.min(axis=0), mu.max(axis=0), sigma.min(axis=0), sigma.max(axis=0))

    @classmethod
    def of_arrays(cls, mu: np.ndarray, sigma: np.ndarray) -> "ParameterRect":
        """Tight MBR of columnar ``(n, d)`` mu/sigma stacks.

        The column-array twin of :meth:`of_vectors`, used by the leaf
        rect refresh so it never has to materialize pfv objects.
        Bit-identical to ``of_vectors`` over the same rows.
        """
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        if mu.ndim != 2 or mu.shape != sigma.shape:
            raise ValueError(
                f"mu and sigma must both be (n, d), got {mu.shape} and "
                f"{sigma.shape}"
            )
        if mu.shape[0] == 0:
            raise ValueError("cannot bound an empty collection")
        return cls(
            mu.min(axis=0), mu.max(axis=0), sigma.min(axis=0), sigma.max(axis=0)
        )

    @classmethod
    def of_rects(cls, rects: Iterable["ParameterRect"]) -> "ParameterRect":
        """Tight MBR of a non-empty collection of rectangles."""
        rects = list(rects)
        if not rects:
            raise ValueError("cannot bound an empty collection")
        return cls(
            np.min([r.mu_lo for r in rects], axis=0),
            np.max([r.mu_hi for r in rects], axis=0),
            np.min([r.sigma_lo for r in rects], axis=0),
            np.max([r.sigma_hi for r in rects], axis=0),
        )

    # -- basic properties ----------------------------------------------------

    @property
    def dims(self) -> int:
        """Number of probabilistic features ``d`` (box is ``2 d``-dim)."""
        return int(self.mu_lo.shape[0])

    def copy(self) -> "ParameterRect":
        return ParameterRect(self.mu_lo, self.mu_hi, self.sigma_lo, self.sigma_hi)

    def as_flat_bounds(self) -> np.ndarray:
        """Serialisation order: ``[mu_lo | mu_hi | sigma_lo | sigma_hi]``."""
        return np.concatenate([self.mu_lo, self.mu_hi, self.sigma_lo, self.sigma_hi])

    @classmethod
    def from_flat_bounds(cls, flat: np.ndarray) -> "ParameterRect":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.size % 4 != 0:
            raise ValueError("flat bounds must be 1-d with length 4*d")
        d = flat.size // 4
        return cls(flat[:d], flat[d : 2 * d], flat[2 * d : 3 * d], flat[3 * d :])

    # -- geometry ------------------------------------------------------------

    def contains_vector(self, v: PFV) -> bool:
        """Does the box contain the pfv's parameter point?"""
        return bool(
            np.all(self.mu_lo <= v.mu)
            and np.all(v.mu <= self.mu_hi)
            and np.all(self.sigma_lo <= v.sigma)
            and np.all(v.sigma <= self.sigma_hi)
        )

    def contains_rect(self, other: "ParameterRect") -> bool:
        return bool(
            np.all(self.mu_lo <= other.mu_lo)
            and np.all(other.mu_hi <= self.mu_hi)
            and np.all(self.sigma_lo <= other.sigma_lo)
            and np.all(other.sigma_hi <= self.sigma_hi)
        )

    def extend_vector(self, v: PFV) -> None:
        """Grow in place to cover a pfv."""
        np.minimum(self.mu_lo, v.mu, out=self.mu_lo)
        np.maximum(self.mu_hi, v.mu, out=self.mu_hi)
        np.minimum(self.sigma_lo, v.sigma, out=self.sigma_lo)
        np.maximum(self.sigma_hi, v.sigma, out=self.sigma_hi)

    def extend_rect(self, other: "ParameterRect") -> None:
        """Grow in place to cover another rectangle."""
        np.minimum(self.mu_lo, other.mu_lo, out=self.mu_lo)
        np.maximum(self.mu_hi, other.mu_hi, out=self.mu_hi)
        np.minimum(self.sigma_lo, other.sigma_lo, out=self.sigma_lo)
        np.maximum(self.sigma_hi, other.sigma_hi, out=self.sigma_hi)

    def union_vector(self, v: PFV) -> "ParameterRect":
        """A new rectangle covering this one plus a pfv."""
        r = self.copy()
        r.extend_vector(v)
        return r

    def _extents(self) -> np.ndarray:
        """All ``2 d`` side lengths."""
        return np.concatenate(
            [self.mu_hi - self.mu_lo, self.sigma_hi - self.sigma_lo]
        )

    def margin(self) -> float:
        """Sum of side lengths — the tie-breaker when volumes degenerate.

        Freshly-built nodes are points in parameter space (volume 0), so
        pure volume comparison cannot steer insertion; the margin can.
        """
        return float(np.sum(self._extents()))

    def volume(self) -> float:
        """Product of the ``2 d`` side lengths (0 for degenerate boxes).

        Silently under/overflows for high-dimensional boxes (54 factors at
        d=27); comparisons should use :meth:`log_volume` instead.
        """
        return float(np.prod(self._extents()))

    def log_volume(self) -> float:
        """Log of the volume; ``-inf`` for degenerate boxes.

        A sum of 2d log side lengths neither underflows nor overflows
        where the plain product would, so volumes of realistic 27-d boxes
        stay comparable.
        """
        return self._log_volume_of_extents(self._extents())

    @staticmethod
    def _log_volume_of_extents(extents: np.ndarray) -> float:
        if np.any(extents == 0.0):
            return -math.inf
        return float(np.sum(np.log(extents)))

    def enlargement_for_vector(self, v: PFV) -> tuple[float, float]:
        """``(log volume increase, margin increase)`` if ``v`` were added.

        The first element is ``log(vol(new) - vol(old))`` computed purely
        in log-extent space (``-inf`` when the volume does not grow, e.g.
        the box already contains the vector). The log is monotone, so
        ordering candidates by it reproduces the paper's "least increase
        of volume" rule exactly — but it still discriminates where the
        linear-space product of ``2 d`` side lengths would underflow to
        0.0 (or overflow) and collapse the comparison onto the margin
        tie-breaker. The margin increase stays linear (sums don't
        under/overflow) and both are 0 / ``-inf`` for a contained vector.
        """
        new_mu_lo = np.minimum(self.mu_lo, v.mu)
        new_mu_hi = np.maximum(self.mu_hi, v.mu)
        new_sig_lo = np.minimum(self.sigma_lo, v.sigma)
        new_sig_hi = np.maximum(self.sigma_hi, v.sigma)
        new_extents = np.concatenate(
            [new_mu_hi - new_mu_lo, new_sig_hi - new_sig_lo]
        )
        old_extents = self._extents()
        d_margin = float(np.sum(new_extents) - np.sum(old_extents))
        log_new = self._log_volume_of_extents(new_extents)
        log_old = self._log_volume_of_extents(old_extents)
        if log_new == -math.inf:
            # Still degenerate after insertion: volume increase is 0.
            return -math.inf, d_margin
        if log_old == -math.inf:
            # From volume 0 to vol(new): the increase IS the new volume.
            return log_new, d_margin
        # log(new - old) = log_new + log(1 - old/new); old <= new always.
        ratio = log_old - log_new
        if ratio >= 0.0:  # old == new up to rounding: no growth
            return -math.inf, d_margin
        return log_new + math.log1p(-math.exp(ratio)), d_margin

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParameterRect):
            return NotImplemented
        return (
            np.array_equal(self.mu_lo, other.mu_lo)
            and np.array_equal(self.mu_hi, other.mu_hi)
            and np.array_equal(self.sigma_lo, other.sigma_lo)
            and np.array_equal(self.sigma_hi, other.sigma_hi)
        )

    def __repr__(self) -> str:
        return (
            f"ParameterRect(d={self.dims}, "
            f"mu=[{np.array2string(self.mu_lo, precision=3, threshold=4)}, "
            f"{np.array2string(self.mu_hi, precision=3, threshold=4)}], "
            f"sigma=[{np.array2string(self.sigma_lo, precision=3, threshold=4)}, "
            f"{np.array2string(self.sigma_hi, precision=3, threshold=4)}])"
        )
