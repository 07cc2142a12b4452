"""Sequential-scan query processing (Section 4, "Our General Solution").

These are the paper's reference algorithms over an unordered file of pfv:

* **k-MLIQ** — a single scan keeps the k highest-density objects seen so
  far; posteriors are normalised by the full denominator afterwards.
* **TIQ** — conceptually two scans: one to accumulate the Bayes denominator
  ``sum_w p(q|w)``, one to report every object with
  ``p(q|v) / denominator >= p_theta``. Our vectorised implementation
  materialises all log densities once (that *is* the first scan) and
  filters in a second pass over the array.

They are exact and serve three roles in this repository: (1) the
correctness oracle the Gauss-tree is tested against, (2) the refinement
step of filter+refine baselines, and (3) the "Seq. File" competitor of
Figure 7 when run through :class:`repro.baselines.seqscan.SequentialScanIndex`,
which adds paged-IO accounting on top.
"""

from __future__ import annotations

import numpy as np

from repro.core.bayes import log_densities, posteriors_from_log_densities
from repro.core.database import PFVDatabase
from repro.core.queries import Match, MLIQuery, ThresholdQuery

__all__ = ["scan_mliq", "scan_tiq", "scan_posteriors", "top_k_order"]


def _matches_from(
    db: PFVDatabase, order: np.ndarray, log_dens: np.ndarray, post: np.ndarray
) -> list[Match]:
    return [
        Match(db[int(i)], float(log_dens[int(i)]), float(post[int(i)]))
        for i in order
    ]


def _ranked_order(log_dens: np.ndarray) -> np.ndarray:
    """Indices sorted by descending density; ties broken by position for
    deterministic results (Definition 3 leaves ties unspecified)."""
    return np.lexsort((np.arange(log_dens.size), -log_dens))


def top_k_order(log_dens: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` indices of :func:`_ranked_order`, without sorting
    every row.

    One partition finds the k-th largest density; only the rows at least
    that dense — the k densest plus any row tied with the k-th — are
    sorted, by descending density and then by position, so ties keep the
    full sort's order. The k-MLIQ answers of the scan and of the
    Gauss-tree's sweep finish both come from here.
    """
    n = log_dens.size
    if k >= n:
        return _ranked_order(log_dens)
    kth = np.partition(log_dens, n - k)[n - k]
    chosen = np.flatnonzero(log_dens >= kth)
    return chosen[np.lexsort((chosen, -log_dens[chosen]))][:k]


def scan_posteriors(db: PFVDatabase, q) -> tuple[np.ndarray, np.ndarray]:
    """Log densities and posteriors of all objects, in insertion order."""
    log_dens = log_densities(db, q)
    return log_dens, posteriors_from_log_densities(log_dens)


def scan_mliq(db: PFVDatabase, query: MLIQuery) -> list[Match]:
    """Answer a k-MLIQ by scanning the whole database.

    Returns min(k, n) matches ordered by descending posterior.
    """
    if len(db) == 0:
        return []
    log_dens, post = scan_posteriors(db, query.q)
    return _matches_from(db, top_k_order(log_dens, query.k), log_dens, post)


def scan_tiq(db: PFVDatabase, query: ThresholdQuery) -> list[Match]:
    """Answer a TIQ by scanning the whole database.

    Returns all objects with posterior ``>= p_theta``, ordered by
    descending posterior. With ``p_theta == 0`` this is the full ranked
    database (every posterior is >= 0).
    """
    if len(db) == 0:
        return []
    log_dens, post = scan_posteriors(db, query.q)
    selected = post >= query.p_theta
    order = _ranked_order(log_dens)
    order = order[selected[order]]
    return _matches_from(db, order, log_dens, post)

