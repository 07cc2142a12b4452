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
summation order and the budget that cuts a call into chunks of rows and
blocks of queries. Rows that many queries evaluate, a Gauss-tree's leaf
stack and the sequential scan's file, are kept in that layout as
:class:`PreparedColumns`, so the kernel's one chunk loop slices them
instead of transposing and powering every chunk on every call; ad-hoc
arrays, such as a sibling group's, are transposed chunk by chunk. Both
forms give the same bits and refuse the same inputs.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterable, NamedTuple

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
    "PreparedColumns",
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


# The most float64 elements one (d, queries, rows) temporary of the
# Lemma-1 kernel holds. A chunk takes budget // d rows (at least one, at
# most all), and a block as many queries as fit beside them (at least
# one), so only a call with d alone above the budget exceeds it. Each
# temporary pair then takes at most 512 KiB, inside the 2 MiB per-core
# L2 of the host below. Median us per call over 15 rounds, the budgets
# interleaved in one process on a 2-vCPU Xeon, numpy 2.4, over prepared
# columns (leaf stacks) and raw (n, d) arrays:
#   form      (m, rows, d)       8192  16384  32768  65536 131072
#   prepared  (1, 20000, 10)    2039   1622   1212   1173   1298
#   prepared  (16, 2000, 6)     1791   1309   1360   1323   1547
#   prepared  (1, 10987, 27)    3325   2672   2379   2492   2010
#   prepared  (16, 16000, 6)   12805  11413   7929   8238   9029
#   prepared  (100, 20000, 10) 169892 155203 108809 117771 120192
#   raw       (1, 20000, 10)    2746   2333   2244   1847   1963
#   raw       (1, 16000, 6)     1243   1157    870    881    904
#   raw       (16, 16000, 6)   12699  11186   8260   8629   9168
#   raw       (1, 740, 10)       104    100    103    103     96
#   raw       (16, 341, 6)       297    265    256    264    260
# 32,768 is fastest or within noise of it everywhere but data set 1's
# 27-d stack. The loop this one replaced gave a chunk budget // (m * d)
# rows and all m queries; timed beside this one it took 1.8x as long at
# (100, 20000, 10) (32 rows a chunk), 1.7x at (16, 16000, 6) (341 rows)
# and 1.2x at (16, 2000, 6).
_CHUNK_ELEMENTS = 32_768


def _powered(
    values: np.ndarray, rule: SigmaRule, out: np.ndarray | None = None
) -> np.ndarray:
    """``values ** p`` for the rule's power ``p``, as a new C-ordered
    array or into ``out``, which may be ``values`` itself.

    Both rules combine p-th powers, ``sigma_c**p = sigma_v**p + sigma_q**p``:
    ``p = 2`` under CONVOLUTION (variances add) and ``p = 1`` under PAPER.
    The kernels keep spreads and distances as p-th powers, so CONVOLUTION
    needs no ``sqrt`` and PAPER never squares a spread.
    """
    if rule is SigmaRule.CONVOLUTION:
        return np.square(values, out=out, order="C")
    if rule is SigmaRule.PAPER:
        if out is None:
            return np.ascontiguousarray(values)
        np.copyto(out, values)
        return out
    raise ValueError(f"unknown sigma rule: {rule!r}")


def _smallest(power: np.ndarray) -> np.ndarray:
    """Each dimension's smallest entry of a ``(d, rows)`` power array,
    NaN skipped (``inf`` where none is left): what
    :func:`_check_spreads` reads."""
    return np.fmin.reduce(power, axis=1, initial=np.inf)


def _check_spreads(smallest: np.ndarray, q_power: np.ndarray) -> None:
    """Raise unless every ``sigma_c**p`` the kernel forms is positive.

    ``sigma_c**p <= 0`` iff ``sigma_c <= 0`` (CONVOLUTION) or
    ``sigma_v + sigma_q <= 0`` (PAPER, tested before any squaring). A
    query's spreads in dimension ``k`` add its power to each stack power
    of ``k``. Rounding is monotone, so the smallest such sum adds the
    smallest stack power, and a NaN stack power only makes NaN sums,
    which pass. One ``(d, m)`` test therefore raises exactly where a
    test of every ``(d, m, rows)`` spread would. Where its sum is
    ``-inf + inf``, the ``+inf`` is the query's power or every stack
    power of the dimension, and no spread it stands for is ``<= 0``.
    """
    if ((smallest[:, np.newaxis] + q_power) <= 0.0).any():
        raise ValueError("all sigma values must be positive")


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


class PreparedColumns(NamedTuple):
    """Stored pfv in the layout the Lemma-1 kernel reads, for rows that
    many queries evaluate: a tree's leaf directory, the sequential scan's
    file. Build it with :meth:`stack`; :meth:`log_densities` evaluates
    it.

    ``mu`` holds the ``(d, n)`` means and ``power`` the ``(d, n)`` sigmas
    raised to ``rule``'s power (see :func:`_powered`), so a call slices
    both and transposes and powers nothing; ``smallest`` holds each
    dimension's smallest power, all the input check reads (see
    :func:`_check_spreads`). It holds ``2 * n * d`` floats, as many as
    the ``(n, d)`` means and sigmas it is built from.
    """

    mu: np.ndarray
    power: np.ndarray
    smallest: np.ndarray
    rule: SigmaRule

    @classmethod
    def stack(
        cls,
        blocks: Iterable[tuple[np.ndarray, np.ndarray]],
        n: int,
        d: int,
        rule: SigmaRule = SigmaRule.CONVOLUTION,
    ) -> "PreparedColumns":
        """The ``n`` rows that ``blocks`` yields, ``(mu, sigma)`` pairs
        of ``(rows, d)`` arrays, one after the other. Each block is
        written into place, so a build holds no more than its result
        and the block at hand (a tree passes its leaves one by one)."""
        mu_t = np.empty((d, n))
        power = np.empty((d, n))
        start = 0
        for mu, sigma in blocks:
            if mu.shape != sigma.shape or mu.shape[1:] != (d,):
                raise ValueError(
                    f"blocks must be pairs of (rows, {d}) arrays; got "
                    f"{mu.shape} and {sigma.shape}"
                )
            stop = start + len(mu)
            mu_t[:, start:stop] = mu.T
            power[:, start:stop] = sigma.T
            start = stop
        if start != n:
            raise ValueError(f"blocks hold {start} rows, not {n}")
        _powered(power, rule, out=power)
        smallest = _smallest(power)
        for array in (mu_t, power, smallest):
            array.flags.writeable = False
        return cls(mu_t, power, smallest, rule)

    @property
    def rows(self) -> int:
        """How many pfv the columns hold."""
        return self.mu.shape[1]

    def log_densities(
        self, q_mu: np.ndarray, q_sigma: np.ndarray
    ) -> np.ndarray:
        """``(m, n)`` log joint densities of ``m`` queries over the rows:
        bit for bit what :func:`log_joint_density_multi` returns for the
        same rows as ``(n, d)`` arrays, and it raises where that does."""
        mu, power = self.mu, self.power
        return _kernel(
            lambda chunk: (mu[:, chunk], power[:, chunk], self.smallest),
            self.rows, mu.shape[0], q_mu, q_sigma, self.rule,
        )


def _kernel(
    columns: Callable[[slice], tuple[np.ndarray, np.ndarray, np.ndarray]],
    n: int,
    d: int,
    q_mu: np.ndarray,
    q_sigma: np.ndarray,
    rule: SigmaRule,
) -> np.ndarray:
    """The one Lemma-1 chunk loop behind both forms.

    A chunk takes the rows a one-query call gets from the budget
    (``_CHUNK_ELEMENTS // d``, or all ``n`` when fewer), and each chunk
    is evaluated for blocks of as many queries as fit the budget beside
    those rows, at least one: a call of ``m * n * d`` within the budget
    runs as one chunk and one block, and a large batch over a whole
    stack in blocks of a few queries over long rows instead of in short
    chunks of all its queries. Every entry is its own plane-by-plane
    sum, so neither border changes a bit.

    ``columns(chunk)`` returns the chunk's ``(d, rows)`` means and
    powers and the smallest powers of rows that include the chunk's:
    prepared columns return the whole stack's for every chunk, checked
    once, and raw arrays each chunk's own.
    """
    q_mu = np.asarray(q_mu, dtype=np.float64)
    q_sigma = np.asarray(q_sigma, dtype=np.float64)
    if q_mu.ndim != 2 or q_mu.shape != q_sigma.shape:
        raise ValueError(
            f"q_mu and q_sigma must both have shape (m, d); got "
            f"{q_mu.shape} and {q_sigma.shape}"
        )
    if q_mu.shape[1] != d:
        raise ValueError(
            f"dimension mismatch: batch has d={d}, queries have "
            f"d={q_mu.shape[1]}"
        )
    m = q_mu.shape[0]
    q_mu_t = np.ascontiguousarray(q_mu.T)[:, :, np.newaxis]
    q_power = _powered(q_sigma.T, rule)
    q_part = q_power[:, :, np.newaxis]
    out = _log_density_accumulator(d, (m, n))
    rows = max(1, min(n, _CHUNK_ELEMENTS // max(1, d)))
    step = max(1, _CHUNK_ELEMENTS // (rows * max(1, d)))
    if step >= m:  # one block: the call's own query arrays
        blocks = [(slice(None), q_mu_t, q_part)]
    else:
        blocks = [
            (block, q_mu_t[:, block], q_part[:, block])
            for block in (slice(first, first + step) for first in range(0, m, step))
        ]
    checked = None
    for start in range(0, n, rows):
        chunk = slice(start, start + rows)
        mu_t, power_t, smallest = columns(chunk)
        if smallest is not checked:
            _check_spreads(smallest, q_power)
            checked = smallest
        for block, block_mu, block_part in blocks:
            dist = np.subtract(mu_t[:, np.newaxis, :], block_mu)
            if rule is SigmaRule.CONVOLUTION:
                np.square(dist, out=dist)
            spread = np.add(power_t[:, np.newaxis, :], block_part)
            _add_planes(_log_terms(dist, spread, rule), out[block, chunk])
    out *= -0.5
    return out


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
    one Lemma-1 kernel: the sequential scan and the Gauss-tree's leaf
    stack (through :class:`PreparedColumns`, which give the same bits),
    leaf refinement in the Gauss-tree (per page or per sibling group),
    the X-tree baseline and :mod:`repro.core.bayes` all evaluate
    through it.

    The kernel is *dimension-major*: it transposes the queries once and
    each chunk of columns once (prepared columns are stored transposed),
    builds each temporary as ``(d, queries, rows)`` for a block of the
    queries over a chunk of the rows (see :func:`_kernel`) and works in
    place, because numpy broadcasts into and sums over a short trailing
    ``d`` axis several times slower than over long contiguous rows. Per
    dimension it evaluates ``-(z**2 + log sigma_c**2) / 2`` from p-th
    powers (see :func:`_powered`) and adds the ``d`` planes one at a
    time, so every entry depends on its own row and query only: the same
    pfv gets the same bits in any call, chunk or group. It raises
    ``ValueError`` if any combined ``sigma_c`` is not positive, tested
    per dimension (see :func:`_check_spreads`).
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.ndim != 2 or mu.shape != sigma.shape:
        raise ValueError(
            f"mu and sigma must both have shape (n, d); got {mu.shape} and "
            f"{sigma.shape}"
        )

    def columns(chunk: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        power_t = _powered(sigma[chunk].T, rule)
        return np.ascontiguousarray(mu[chunk].T), power_t, _smallest(power_t)

    return _kernel(columns, *mu.shape, q_mu, q_sigma, rule)
