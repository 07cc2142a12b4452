"""Cost model: turning work counters into simulated 2006-era time.

The paper's Figure 7 reports three efficiency metrics: page accesses, CPU
time and *overall* time. The interesting phenomenon is that the Gauss-tree
beats the sequential scan by a factor 35-43 in page accesses for TIQ but
"the all over time suffered from additional seeks on the hard disc", so the
overall speed-up is only 3-7.5x. That gap exists because an index performs
*random* page reads (each paying a seek + rotational latency) while the
sequential scan streams pages at full disk bandwidth.

We reproduce this with a simple, explicit model of the paper's 2006
testbed:

* **disk** — random reads pay ``seek + rotational latency + transfer``,
  sequential runs pay one positioning delay and then pure transfer
  (defaults approximate a 7200 rpm drive of that generation);
* **CPU** — per-object refinement cost plus per-page processing cost,
  calibrated to a 2006 JVM evaluating Gaussians object by object. The
  *modeled* CPU exists because our Python substrate is the wrong ruler:
  numpy makes the sequential scan one perfectly vectorised pass while the
  index pays Python per-node overhead, inverting the CPU ratio the paper
  measured. The wall-clock CPU is still recorded alongside; EXPERIMENTS.md
  reports both.

All constants are plain dataclass fields, so experiments can sweep them
(see the buffer/cost ablation benchmark).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

__all__ = ["DiskCostModel"]


@dataclasses.dataclass(frozen=True)
class DiskCostModel:
    """Simulated seconds for disk reads and for query CPU work.

    Parameters
    ----------
    seek_seconds:
        Average head seek time (default 8 ms).
    rotational_seconds:
        Average rotational latency — half a revolution of a 7200 rpm drive
        (default ~4.17 ms).
    transfer_bytes_per_second:
        Sustained media transfer rate (default 60 MB/s).
    page_size:
        Bytes per page (must match the experiment's page layout).
    cpu_per_refinement_seconds:
        Modeled CPU of one exact Lemma-1 evaluation (default 30 us — a
        2006 JVM evaluating d Gaussians with per-feature calls).
    cpu_per_vectorized_refinement_seconds:
        Modeled CPU of one Lemma-1 evaluation served by a columnar page
        kernel (every Gauss-tree leaf): the whole page is evaluated as one
        array operation, so the per-object cost is the amortized slice
        of a SIMD pass rather than a per-feature call chain (default
        1 us — a ~30x per-object speedup, matching what the columnar
        refinement benchmark measures on the Python substrate).
    cpu_per_page_seconds:
        Modeled CPU of processing one visited page (entry tests, bound
        evaluations; default 100 us).
    fanout_dispatch_seconds:
        Modeled per-branch cost of fanning a batch out to one shard of a
        sharded deployment (serialize the sub-batch, enqueue, collect —
        default 500 us, roughly one small RPC).
    coalesce_dispatch_seconds:
        Modeled per-request cost of the async serving tier's coalescing
        dispatcher (admission, demultiplexing one request's slice of a
        fused batch — default 200 us).
    batch_shared_fraction:
        Fraction of a query's engine work that batch execution shares
        across a fused batch (root descent, common node expansions).
        The default 0.5 reproduces the ~2x ``execute_many``
        amortization the engine benchmarks measure; see
        :meth:`coalesce_amortization`.
    """

    seek_seconds: float = 0.008
    rotational_seconds: float = 0.00417
    transfer_bytes_per_second: float = 60e6
    page_size: int = 8192
    cpu_per_refinement_seconds: float = 30e-6
    cpu_per_vectorized_refinement_seconds: float = 1e-6
    cpu_per_page_seconds: float = 100e-6
    fanout_dispatch_seconds: float = 500e-6
    coalesce_dispatch_seconds: float = 200e-6
    batch_shared_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.seek_seconds < 0 or self.rotational_seconds < 0:
            raise ValueError("latencies must be non-negative")
        if self.transfer_bytes_per_second <= 0:
            raise ValueError("transfer rate must be positive")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if (
            self.cpu_per_refinement_seconds < 0
            or self.cpu_per_vectorized_refinement_seconds < 0
            or self.cpu_per_page_seconds < 0
        ):
            raise ValueError("CPU costs must be non-negative")
        if self.fanout_dispatch_seconds < 0:
            raise ValueError("fan-out dispatch cost must be non-negative")
        if self.coalesce_dispatch_seconds < 0:
            raise ValueError("coalesce dispatch cost must be non-negative")
        if not 0.0 <= self.batch_shared_fraction < 1.0:
            raise ValueError(
                "batch_shared_fraction must be in [0, 1), got "
                f"{self.batch_shared_fraction}"
            )

    def modeled_cpu_seconds(
        self,
        objects_refined: int,
        pages_accessed: int,
        *,
        vectorized: bool = False,
    ) -> float:
        """Modeled query CPU from the two work counters.

        ``vectorized=True`` prices the refinements at the columnar-kernel
        rate (``cpu_per_vectorized_refinement_seconds``) — the Gauss-tree
        passes it for every refinement, since all its leaves are
        columnar; the sequential scan and the X-tree keep the scalar
        default.
        """
        if objects_refined < 0 or pages_accessed < 0:
            raise ValueError("work counters must be non-negative")
        per_refinement = (
            self.cpu_per_vectorized_refinement_seconds
            if vectorized
            else self.cpu_per_refinement_seconds
        )
        return (
            objects_refined * per_refinement
            + pages_accessed * self.cpu_per_page_seconds
        )

    @property
    def page_transfer_seconds(self) -> float:
        """Time to stream one page off the platter."""
        return self.page_size / self.transfer_bytes_per_second

    def random_read_seconds(self, pages: int) -> float:
        """Cost of ``pages`` independent random page reads (index traversal)."""
        if pages < 0:
            raise ValueError("pages must be non-negative")
        per_page = (
            self.seek_seconds + self.rotational_seconds + self.page_transfer_seconds
        )
        return pages * per_page

    def fan_out_seconds(self, branch_seconds: "Sequence[float]") -> float:
        """Latency of fanning one batch out over shard branches.

        The serial fan-out pays every branch in turn — the sum — plus
        one dispatch overhead per branch. This is how sharded
        ``explain()`` plans are priced.
        """
        branch_seconds = list(branch_seconds)
        if any(s < 0 for s in branch_seconds):
            raise ValueError("branch latencies must be non-negative")
        return sum(branch_seconds) + self.fanout_dispatch_seconds * len(
            branch_seconds
        )

    def commit_seconds(self, wal_bytes: int, fsyncs: int) -> float:
        """Modeled cost of durable write-ahead-log commits.

        A WAL append is sequential IO — the bytes stream at the media
        transfer rate — but every fsync barrier forces the platter and
        pays one positioning delay (seek + rotational latency). This is
        the ruler ``benchmarks/bench_writes.py`` prices group commit
        with: batching N operations into one transaction divides the
        barrier count by N and deduplicates page images, which is
        invisible on hosts whose fsync is absorbed by a write cache but
        dominates on the modeled 2006 disk (and any real durable disk).
        """
        if wal_bytes < 0 or fsyncs < 0:
            raise ValueError("wal_bytes and fsyncs must be non-negative")
        return (
            fsyncs * (self.seek_seconds + self.rotational_seconds)
            + wal_bytes / self.transfer_bytes_per_second
        )

    def coalesce_amortization(self, batch: int) -> float:
        """Per-query speedup from fusing ``batch`` queries into one call.

        A fraction ``f = batch_shared_fraction`` of each query's work is
        shared across the batch (paid once), the rest is per-query, so
        the per-query cost shrinks by ``batch / (f + (1 - f) * batch)``
        — an Amdahl curve rising from 1 (no batch) toward ``1 / f``
        asymptotically. The default ``f = 0.5`` saturates at 2x, which
        is what the engine's ``execute_many`` benchmarks measure.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        f = self.batch_shared_fraction
        return batch / (f + (1.0 - f) * batch)

    def coalesced_batch_seconds(
        self, single_seconds: float, batch: int
    ) -> float:
        """Per-query seconds when ``batch`` queries fuse into one call
        (``single_seconds`` divided by :meth:`coalesce_amortization`)."""
        if single_seconds < 0:
            raise ValueError("single_seconds must be non-negative")
        return single_seconds / self.coalesce_amortization(batch)

    def expected_coalesce_wait_seconds(self, window_seconds: float) -> float:
        """Expected queueing delay a request pays inside one batching
        window (arrivals uniform over the window → half of it)."""
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        return window_seconds / 2.0

    def sequential_read_seconds(self, pages: int) -> float:
        """Cost of one sequential run over ``pages`` contiguous pages.

        One positioning delay, then streaming transfer — this is how the
        Seq.File competitor of Figure 7 reads the database.
        """
        if pages < 0:
            raise ValueError("pages must be non-negative")
        if pages == 0:
            return 0.0
        return (
            self.seek_seconds
            + self.rotational_seconds
            + pages * self.page_transfer_seconds
        )
