"""Joint probability of two probabilistic features (Lemma 1 of the paper).

Given a database feature ``v_i = (mu_v, sigma_v)`` and a query feature
``q_i = (mu_q, sigma_q)``, the probability density that both observations
stem from the *same* true value is the overlap integral of the two
Gaussians:

``p(q_i | v_i) = integral N_{mu_v, sigma_v}(x) * N_{mu_q, sigma_q}(x) dx``

Lemma 1 collapses this to a single Gaussian evaluation
``N_{mu_v, sigma_c}(mu_q)`` with a combined uncertainty ``sigma_c``. The
paper prints ``sigma_c = sigma_v + sigma_q``; the mathematically exact
convolution adds *variances*, ``sigma_c = sqrt(sigma_v^2 + sigma_q^2)``,
so the printed sum is a notational slip. Both rules are implemented as
:class:`SigmaRule`; the exact rule is the default and is verified against
numerical quadrature in the test suite. Every index bound in the Gauss-tree
stays conservative under either rule because both are strictly increasing
in ``sigma_v`` (for fixed ``sigma_q``), so interval bounds on ``sigma_v``
map to interval bounds on ``sigma_c``.

:func:`log_joint_density` is the per-pfv reference. Every access path
evaluates through one vectorised kernel, :func:`log_joint_density_multi`
(``m`` queries against ``n`` stored pfv), which works dimension-major
and in variance form; its docstring and helpers give the layout, the
summation order and the chunk budget.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.core import gaussian
from repro.core.pfv import PFV

__all__ = [
    "SigmaRule",
    "combine_sigma",
    "log_joint_density_1d",
    "joint_density_1d",
    "log_joint_density",
    "joint_density",
    "log_joint_density_batch",
    "log_joint_density_multi",
]


class SigmaRule(enum.Enum):
    """How the uncertainties of query and database feature combine."""

    #: Exact Gaussian convolution: ``sqrt(sigma_v**2 + sigma_q**2)``.
    CONVOLUTION = "convolution"
    #: Literal formula printed in the paper's Lemma 1: ``sigma_v + sigma_q``.
    PAPER = "paper"


def combine_sigma(
    sigma_v: np.ndarray | float,
    sigma_q: np.ndarray | float,
    rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> np.ndarray | float:
    """Combined uncertainty ``sigma_c`` under the chosen rule.

    Works elementwise on arrays. For both rules the result is strictly
    increasing in ``sigma_v`` — the property the Gauss-tree's interval
    bounds rely on.
    """
    if rule is SigmaRule.CONVOLUTION:
        return np.sqrt(np.square(sigma_v) + np.square(sigma_q))
    if rule is SigmaRule.PAPER:
        return np.add(sigma_v, sigma_q)
    raise ValueError(f"unknown sigma rule: {rule!r}")


def log_joint_density_1d(
    mu_v: float,
    sigma_v: float,
    mu_q: float,
    sigma_q: float,
    rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> float:
    """Log of Lemma 1's ``p(q_i | v_i)`` for a single probabilistic feature."""
    sigma_c = float(combine_sigma(sigma_v, sigma_q, rule))
    return gaussian.log_pdf(mu_q, mu_v, sigma_c)


def joint_density_1d(
    mu_v: float,
    sigma_v: float,
    mu_q: float,
    sigma_q: float,
    rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> float:
    """Linear-space variant of :func:`log_joint_density_1d`."""
    return math.exp(log_joint_density_1d(mu_v, sigma_v, mu_q, sigma_q, rule))


def log_joint_density(
    v: PFV, q: PFV, rule: SigmaRule = SigmaRule.CONVOLUTION
) -> float:
    """``log p(q | v)`` — sum of per-dimension Lemma-1 log densities.

    Symmetric in ``v`` and ``q`` (the overlap integral does not care which
    Gaussian is the query), which the tests assert.
    """
    if v.dims != q.dims:
        raise ValueError(f"dimension mismatch: v has {v.dims}, q has {q.dims}")
    sigma_c = combine_sigma(v.sigma, q.sigma, rule)
    return float(np.sum(gaussian.log_pdf_array(q.mu, v.mu, sigma_c)))


def joint_density(v: PFV, q: PFV, rule: SigmaRule = SigmaRule.CONVOLUTION) -> float:
    """``p(q | v)``; underflows to 0.0 for very distant pairs."""
    return math.exp(log_joint_density(v, q, rule))


def log_joint_density_batch(
    mu: np.ndarray,
    sigma: np.ndarray,
    q: PFV,
    rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> np.ndarray:
    """Vectorised ``log p(q | v_j)`` for a stack of database pfv.

    Parameters
    ----------
    mu, sigma:
        Arrays of shape ``(n, d)`` holding the database observations.
    q:
        The query pfv (``d`` dimensions).

    Returns
    -------
    Array of shape ``(n,)`` with the log joint densities: the ``m = 1``
    row of :func:`log_joint_density_multi`, so both forms give the same
    bits for the same pfv.
    """
    return log_joint_density_multi(
        mu, sigma, q.mu[np.newaxis, :], q.sigma[np.newaxis, :], rule
    )[0]


# The most float64 elements one (d, m, rows) temporary of the Lemma-1
# kernel holds. A larger call is cut into chunks of rows, at least one
# row each, so only a query stack whose m * d alone exceeds the budget
# exceeds it. Each chunk's two temporaries then take 512 KiB together,
# inside the 2 MiB per-core L2 of the host below; at 131,072 they leave
# it, and the scan shapes slow down. Median us per call over 15 rounds
# interleaved in one process on a 2-vCPU Xeon, numpy 2.4: the replaced
# (m, rows, d) kernel, then this one at each budget.
#   (m, rows, d)     replaced   8192  16384  32768  65536  131072
#   (1, 20000, 10)       4760   2270   1954   1900   1727    2814
#   (1, 16000, 6)        2431   1053    922    747   1144    2035
#   (16, 16000, 6)      27510  17701  14177  12697  12196   14032
#   (1, 740, 10)          112     92     92     91     91      92
#   (16, 341, 6)          583    413    345    239    237     237
_CHUNK_ELEMENTS = 32_768


def _powered(values: np.ndarray, rule: SigmaRule) -> np.ndarray:
    """``values ** p`` as a C-ordered array, for the rule's power ``p``.

    Both rules combine p-th powers, ``sigma_c**p = sigma_v**p + sigma_q**p``:
    ``p = 2`` under CONVOLUTION (variances add) and ``p = 1`` under PAPER.
    The kernels keep spreads and distances as p-th powers, so CONVOLUTION
    needs no ``sqrt`` and PAPER never squares a spread.
    """
    if rule is SigmaRule.CONVOLUTION:
        return np.square(values, order="C")
    if rule is SigmaRule.PAPER:
        return np.ascontiguousarray(values)
    raise ValueError(f"unknown sigma rule: {rule!r}")


def _log_terms(
    dist: np.ndarray, spread: np.ndarray, rule: SigmaRule
) -> np.ndarray:
    """In place, ``dist`` (``|x - mu|**p``; under PAPER the sign may be
    either, it is squared after the division) becomes
    ``z**2 + log sigma_c**2`` with ``z = |x - mu| / sigma_c``, that is
    ``-2 log N_{mu, sigma_c}(x) - log(2 pi)``; ``spread`` (``sigma_c**p``)
    is overwritten by its log. Under PAPER the log is taken of ``sigma_c``
    itself and doubled, so ``sigma_c`` above ~1.3e154 does not overflow.
    """
    np.divide(dist, spread, out=dist)
    np.log(spread, out=spread)
    if rule is SigmaRule.PAPER:
        np.square(dist, out=dist)
        spread *= 2.0
    dist += spread
    return dist


def _add_planes(terms: np.ndarray, out: np.ndarray) -> None:
    """Add the ``d`` leading-axis planes of ``terms`` into ``out``.

    One in-place add per plane, left to right, for every shape. A reduce
    would not do: ``np.add.reduce(terms, axis=0)`` sums left to right
    except when its output has a single element (``m = rows = 1``), where
    it switches to pairwise summation for ``d >= 8``. A 1-row leaf under a
    singleton query would then get different bits alone than beside its
    siblings.
    """
    for plane in terms:
        out += plane


def _log_density_accumulator(d: int, shape: tuple[int, ...]) -> np.ndarray:
    """What the kernels add their ``z**2 + log sigma_c**2`` planes into:
    ``d log(2 pi)`` everywhere, so that one final ``*= -0.5`` turns the
    sums into log densities."""
    return np.full(shape, 2.0 * d * gaussian.LOG_SQRT_TWO_PI)


def log_joint_density_multi(
    mu: np.ndarray,
    sigma: np.ndarray,
    q_mu: np.ndarray,
    q_sigma: np.ndarray,
    rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> np.ndarray:
    """``log p(q_i | v_j)`` for a *batch of queries* over a stack of pfv.

    Parameters
    ----------
    mu, sigma:
        ``(n, d)`` arrays holding the database observations.
    q_mu, q_sigma:
        ``(m, d)`` arrays holding the query pfv.

    Returns
    -------
    ``(m, n)`` array of log joint densities — row ``i`` is what
    :func:`log_joint_density_batch` returns for query ``i``. This is the
    one Lemma-1 kernel: the sequential scan, leaf refinement in the
    Gauss-tree (per page or per sibling group), the X-tree baseline and
    :mod:`repro.core.bayes` all evaluate through it.

    The kernel is *dimension-major*: it transposes the queries once and
    each chunk of columns once, builds each temporary as
    ``(d, m, rows)`` and works in place, because numpy broadcasts into and sums over a short trailing
    ``d`` axis several times slower than over long contiguous rows. Per
    dimension it evaluates ``-(z**2 + log sigma_c**2) / 2`` from p-th
    powers (see :func:`_powered`) and adds the ``d`` planes one at a
    time, so every entry depends on its own row and query only: the same
    pfv gets the same bits in any call, chunk or group.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    q_mu = np.asarray(q_mu, dtype=np.float64)
    q_sigma = np.asarray(q_sigma, dtype=np.float64)
    if mu.ndim != 2 or mu.shape != sigma.shape:
        raise ValueError(
            f"mu and sigma must both have shape (n, d); got {mu.shape} and "
            f"{sigma.shape}"
        )
    if q_mu.ndim != 2 or q_mu.shape != q_sigma.shape:
        raise ValueError(
            f"q_mu and q_sigma must both have shape (m, d); got "
            f"{q_mu.shape} and {q_sigma.shape}"
        )
    if mu.shape[1] != q_mu.shape[1]:
        raise ValueError(
            f"dimension mismatch: batch has d={mu.shape[1]}, queries have "
            f"d={q_mu.shape[1]}"
        )
    n, d = mu.shape
    m = q_mu.shape[0]
    q_mu_t = np.ascontiguousarray(q_mu.T)[:, :, np.newaxis]
    q_part = _powered(q_sigma.T, rule)[:, :, np.newaxis]
    out = _log_density_accumulator(d, (m, n))
    rows = max(1, _CHUNK_ELEMENTS // max(1, m * d))
    for start in range(0, n, rows):
        chunk = slice(start, start + rows)
        mu_t = np.ascontiguousarray(mu[chunk].T)
        dist = np.subtract(mu_t[:, np.newaxis, :], q_mu_t)
        if rule is SigmaRule.CONVOLUTION:
            np.square(dist, out=dist)
        spread = np.add(_powered(sigma[chunk].T, rule)[:, np.newaxis, :], q_part)
        # sigma_c**p <= 0 iff sigma_c <= 0 (CONVOLUTION) or
        # sigma_v + sigma_q <= 0 (PAPER, tested before any squaring).
        if (spread <= 0.0).any():
            raise ValueError("all sigma values must be positive")
        _add_planes(_log_terms(dist, spread, rule), out[:, chunk])
    out *= -0.5
    return out
