"""Simulated paged storage substrate (the paper's testbed stand-in).

The paper measures page accesses, CPU time and overall time on a real 2006
workstation with a 50 MB database cache. This package provides the
simulation equivalents:

``layout``     — byte-level page layout; derives node capacities / degree M.
``buffer``     — LRU buffer manager with hit/fault accounting.
``costmodel``  — the 2006 testbed that prices work counters (random vs
                 sequential reads, CPU) for Figure 7 and ``explain()``.
``pagestore``  — page allocation + per-query access logs.
``serializer`` — byte encoding of leaf/inner pages (round-trip tested).
``filestore``  — file-backed page store serving real bytes through the
                 buffer (the disk path behind ``GaussTree.save/open``);
                 in writable mode the data half of the WAL protocol,
                 with ``publish_generation``, the one writer of new
                 index file generations.
``wal``        — write-ahead log with checksummed records and redo replay.
``fault``      — crash-injection file doubles for the durability tests.
"""

from repro.storage.buffer import BufferManager, BufferStats
from repro.storage.costmodel import DiskCostModel
from repro.storage.fault import FaultInjector, FaultyFile, InjectedCrash
from repro.storage.filestore import FilePageStore
from repro.storage.layout import PageLayout
from repro.storage.pagestore import PageStore
from repro.storage.wal import WriteAheadLog

__all__ = [
    "BufferManager",
    "BufferStats",
    "DiskCostModel",
    "FaultInjector",
    "FaultyFile",
    "FilePageStore",
    "InjectedCrash",
    "PageLayout",
    "PageStore",
    "WriteAheadLog",
]
