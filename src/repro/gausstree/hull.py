"""Conservative density bounds of a Gauss-tree node (Lemmas 2 and 3).

For query processing the Gauss-tree needs, per node, the *maximum* and
*minimum* density that any Gaussian whose parameters lie inside the node's
:class:`~repro.gausstree.bounds.ParameterRect` could contribute at a point:

* **Upper hull** ``N^(x) = max { N_{mu,sigma}(x) : mu in [mu_lo, mu_hi],
  sigma in [sigma_lo, sigma_hi] }`` — Lemma 2's seven-case piecewise
  closed form. The seven cases collapse to one expression: with
  ``t = dist(x, [mu_lo, mu_hi])`` (0 inside the mu interval), the
  maximising parameters are ``mu* = clamp(x)`` and
  ``sigma* = clamp(t, sigma_lo, sigma_hi)`` — the clamp reproduces exactly
  the paper's case split (I/VII: t > sigma_hi; II/VI: sigma_lo <= t <=
  sigma_hi where the hull is ``1/(sqrt(2 pi e) t)``; III/V: t < sigma_lo;
  IV: t = 0). The unit tests verify the collapsed form against a brute
  grid maximisation and against the seven literal cases.

* **Lower bound** ``N_(x)`` — Lemma 3: the minimum is attained at one of
  the four corners of the ``(mu, sigma)`` rectangle, because for fixed
  ``x`` the density has a single interior maximum in ``(mu, sigma)`` and
  no interior minimum. For fixed sigma the density falls with
  ``|x - mu|``, so of the two mu corners the farther one is the minimum
  (the "even easier method" the paper notes below Lemma 3), and only
  its two sigma corners are evaluated: :func:`log_hull_lower` returns
  the same bits as the minimum over all four corners.

For a *query pfv* ``q`` (uncertain itself), Section 5.2 notes that the
bounds are simply evaluated with the sigma interval shifted by the query's
uncertainty: combine ``sigma_q`` into both sigma bounds (via the database's
:class:`~repro.core.joint.SigmaRule` — both rules are monotone in
``sigma_v``, so interval endpoints map to interval endpoints) and evaluate
at ``mu_q``. Multivariate bounds multiply per dimension (independence),
i.e. *sum* in log space.
"""

from __future__ import annotations

import numpy as np

from repro.core.gaussian import LOG_SQRT_TWO_PI
from repro.core.joint import (
    SigmaRule,
    _add_planes,
    _log_density_accumulator,
    _log_terms,
    _powered,
    combine_sigma,
)
from repro.core.pfv import PFV
from repro.gausstree.bounds import ParameterRect

__all__ = [
    "log_hull_upper",
    "log_hull_lower",
    "hull_upper",
    "hull_lower",
    "node_log_bounds",
    "node_log_upper",
    "node_log_bounds_batch",
    "node_log_bounds_multi",
]


def _as_arrays(*vals: object) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(v, dtype=np.float64) for v in vals)


def log_hull_upper(
    x: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
    sigma_lo: np.ndarray | float,
    sigma_hi: np.ndarray | float,
) -> np.ndarray:
    """Log of Lemma 2's upper hull, elementwise over broadcast inputs."""
    x, mu_lo, mu_hi, sigma_lo, sigma_hi = _as_arrays(
        x, mu_lo, mu_hi, sigma_lo, sigma_hi
    )
    if np.any(sigma_lo <= 0.0):
        raise ValueError("sigma_lo must be strictly positive")
    # Distance of x to the mu interval; 0 when x lies inside it (case IV).
    t = np.maximum(np.maximum(mu_lo - x, x - mu_hi), 0.0)
    sigma_star = np.clip(t, sigma_lo, sigma_hi)
    z = t / sigma_star
    return -0.5 * z * z - np.log(sigma_star) - LOG_SQRT_TWO_PI


def hull_upper(
    x: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
    sigma_lo: np.ndarray | float,
    sigma_hi: np.ndarray | float,
) -> np.ndarray:
    """Linear-space Lemma 2 hull ``N^(x)``."""
    return np.exp(log_hull_upper(x, mu_lo, mu_hi, sigma_lo, sigma_hi))


def log_hull_lower(
    x: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
    sigma_lo: np.ndarray | float,
    sigma_hi: np.ndarray | float,
) -> np.ndarray:
    """Log of Lemma 3's lower bound: min over the four (mu, sigma) corners,
    of which only the farthest mu corner's two are evaluated."""
    x, mu_lo, mu_hi, sigma_lo, sigma_hi = _as_arrays(
        x, mu_lo, mu_hi, sigma_lo, sigma_hi
    )
    if np.any(sigma_lo <= 0.0):
        raise ValueError("sigma_lo must be strictly positive")
    # For fixed sigma the density falls with |x - mu|, so the farthest mu
    # corner attains the minimum over both mu corners (the "even easier
    # method" noted below Lemma 3); only the two sigma bounds remain.
    far = np.maximum(np.abs(x - mu_lo), np.abs(x - mu_hi))
    z_lo = far / sigma_lo
    z_hi = far / sigma_hi
    return (
        np.minimum(
            -0.5 * z_lo * z_lo - np.log(sigma_lo),
            -0.5 * z_hi * z_hi - np.log(sigma_hi),
        )
        - LOG_SQRT_TWO_PI
    )


def hull_lower(
    x: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
    sigma_lo: np.ndarray | float,
    sigma_hi: np.ndarray | float,
) -> np.ndarray:
    """Linear-space Lemma 3 lower bound ``N_(x)``."""
    return np.exp(log_hull_lower(x, mu_lo, mu_hi, sigma_lo, sigma_hi))


def node_log_upper(
    rect: ParameterRect, q: PFV, rule: SigmaRule = SigmaRule.CONVOLUTION
) -> float:
    """Log upper bound of ``p(q | v)`` over all pfv ``v`` inside ``rect``.

    This is the priority ``a.prio(q)`` of Section 5.2.1: the product over
    dimensions of the hull evaluated at ``mu_q`` with query-combined sigma
    bounds.
    """
    s_lo = combine_sigma(rect.sigma_lo, q.sigma, rule)
    s_hi = combine_sigma(rect.sigma_hi, q.sigma, rule)
    per_dim = log_hull_upper(q.mu, rect.mu_lo, rect.mu_hi, s_lo, s_hi)
    return float(np.sum(per_dim))


def node_log_bounds_batch(
    mu_lo: np.ndarray,
    mu_hi: np.ndarray,
    sigma_lo: np.ndarray,
    sigma_hi: np.ndarray,
    q: PFV,
    rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`node_log_bounds` for ``k`` sibling rectangles.

    All four bound arrays have shape ``(k, d)``; returns ``(lower, upper)``
    arrays of shape ``(k,)``: the ``m = 1`` row of
    :func:`node_log_bounds_multi`, so both forms give the same bits.
    """
    lower, upper = node_log_bounds_multi(
        mu_lo, mu_hi, sigma_lo, sigma_hi,
        q.mu[np.newaxis, :], q.sigma[np.newaxis, :], rule,
    )
    return lower[0], upper[0]


def node_log_bounds_multi(
    mu_lo: np.ndarray,
    mu_hi: np.ndarray,
    sigma_lo: np.ndarray,
    sigma_hi: np.ndarray,
    q_mu: np.ndarray,
    q_sigma: np.ndarray,
    rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Both hull bounds of ``k`` rectangles for a *batch of queries*.

    Rectangle bounds have shape ``(k, d)``, query stacks ``(m, d)``;
    returns ``(lower, upper)`` arrays of shape ``(m, k)`` — row ``i`` is
    the batch result for query ``i``. This is the one Lemma 2-3 kernel:
    the children of an expanded node (or of a whole sibling group) are
    bounded for every concurrent query in one numpy evaluation.

    It is dimension-major like
    :func:`~repro.core.joint.log_joint_density_multi`: its temporaries
    are ``(d, 3, m, k)``, per dimension three ``(m, k)`` planes
    evaluated together, spreads and distances are p-th powers (no
    ``sqrt`` under CONVOLUTION), and the ``d`` planes are added one at a
    time, so a rectangle's bounds do not depend on the other rectangles
    in the call. The upper hull evaluates Lemma 2's clamped spread; the
    lower bound evaluates only the farthest mu corner, at whichever sigma
    bound gives the lower density (Lemma 3, see :func:`log_hull_lower`).
    """
    q_mu = np.asarray(q_mu, dtype=np.float64)
    q_sigma = np.asarray(q_sigma, dtype=np.float64)
    k, d = np.shape(mu_lo)
    m = q_mu.shape[0]
    x = np.ascontiguousarray(q_mu.T)[:, :, np.newaxis]
    below = np.subtract(_by_dimension(mu_lo), x)
    above = np.subtract(x, _by_dimension(mu_hi))
    # Planes 0 and 1 hold the farthest mu corner's distance, negated
    # (the sign drops out); plane 2 the distance from x to [mu_lo,
    # mu_hi], 0 inside it.
    dist = np.empty((d, 3, m, k))
    np.minimum(below, above, out=dist[:, 0])
    dist[:, 1] = dist[:, 0]
    np.maximum(np.maximum(below, above, out=below), 0.0, out=dist[:, 2])
    if rule is SigmaRule.CONVOLUTION:
        np.square(dist, out=dist)
    # Their spreads: sigma_lo, sigma_hi, and Lemma 2's maximiser, the
    # distance clamped into [sigma_lo, sigma_hi].
    q_part = _powered(q_sigma.T, rule)[:, :, np.newaxis]
    spread = np.empty((d, 3, m, k))
    np.add(_powered(np.transpose(sigma_lo), rule)[:, np.newaxis, :], q_part,
           out=spread[:, 0])
    if (spread[:, 0] <= 0.0).any():
        raise ValueError("sigma_lo must be strictly positive")
    np.add(_powered(np.transpose(sigma_hi), rule)[:, np.newaxis, :], q_part,
           out=spread[:, 1])
    np.maximum(dist[:, 2], spread[:, 0], out=spread[:, 2])
    np.minimum(spread[:, 2], spread[:, 1], out=spread[:, 2])
    terms = _log_terms(dist, spread, rule)
    # The larger term is the lower density.
    np.maximum(terms[:, 0], terms[:, 1], out=terms[:, 1])
    sums = _log_density_accumulator(d, (2, m, k))
    _add_planes(terms[:, 1:], sums)
    sums *= -0.5
    return sums[0], sums[1]


def _by_dimension(bound: np.ndarray) -> np.ndarray:
    """A ``(k, d)`` bound as a C-ordered ``(d, 1, k)`` broadcast operand."""
    return np.ascontiguousarray(np.transpose(bound))[:, np.newaxis, :]


def node_log_bounds(
    rect: ParameterRect, q: PFV, rule: SigmaRule = SigmaRule.CONVOLUTION
) -> tuple[float, float]:
    """``(log N_, log N^)`` of ``p(q | v)`` over ``rect`` — both bounds.

    Used by the sum approximation of Section 5.2:
    ``n * N_ <= sum of stored densities <= n * N^``.
    """
    s_lo = combine_sigma(rect.sigma_lo, q.sigma, rule)
    s_hi = combine_sigma(rect.sigma_hi, q.sigma, rule)
    upper = float(np.sum(log_hull_upper(q.mu, rect.mu_lo, rect.mu_hi, s_lo, s_hi)))
    lower = float(np.sum(log_hull_lower(q.mu, rect.mu_lo, rect.mu_hi, s_lo, s_hi)))
    return lower, upper
