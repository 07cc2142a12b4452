"""Crash injection for the durability tests: files that die mid-write.

The write-ahead path of the writable :class:`~repro.storage.filestore.
FilePageStore` claims a precise contract: *whatever the process was doing
when it died, reopening the index recovers a consistent state equal to a
prefix of the committed operations*. Example tests cannot exercise that
claim — the interesting failures hide at arbitrary byte offsets inside a
WAL record, a page image or the header. This module provides the test
double the property tests drive instead:

* :class:`FaultInjector` holds a byte budget shared by every file it
  opens. Once the budget is exhausted, the *next* written byte raises
  :class:`InjectedCrash` — after persisting the part of the write that
  still fit, i.e. writes tear mid-record and mid-page exactly like a
  real power cut under a non-atomic disk.
* :class:`FaultyFile` wraps one real file object and charges each write
  against the shared budget. Reads, seeks and closes are free: a crashed
  "process" in a test can still be cleaned up, and recovery code can be
  pointed at the same injector to crash *during recovery* too.

The model treats every byte that was written as durable (no reordering,
no lost OS cache); ``fsync`` is therefore a free no-op here. That is the
conservative half of the torn-write failure model and it is the half the
WAL's checksums and commit records must already survive.
"""

from __future__ import annotations

import os
from typing import IO

__all__ = ["InjectedCrash", "FaultInjector", "FaultyFile"]


class InjectedCrash(Exception):
    """Raised by a :class:`FaultyFile` when the write budget is exhausted."""


class FaultInjector:
    """A shared byte budget over every file opened through :meth:`open`.

    Parameters
    ----------
    budget_bytes:
        Total bytes that may still be written across all files before
        every further write raises :class:`InjectedCrash`.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 0:
            raise ValueError(f"budget must be >= 0, got {budget_bytes}")
        self.remaining = budget_bytes
        self.crashed = False

    def open(self, path: str | os.PathLike, mode: str = "rb") -> "FaultyFile":
        """Drop-in replacement for :func:`open` (binary modes only)."""
        return FaultyFile(open(path, mode), self)

    def charge(self, nbytes: int) -> int:
        """Consume budget for a write; returns how many bytes may land.

        Raises :class:`InjectedCrash` immediately when nothing may."""
        if self.remaining <= 0:
            self.crashed = True
            raise InjectedCrash("write budget exhausted")
        allowed = min(nbytes, self.remaining)
        self.remaining -= allowed
        return allowed


class FaultyFile:
    """A binary file wrapper whose writes die after N shared budget bytes.

    A write larger than the remaining budget persists its first
    ``remaining`` bytes (a torn write) and then raises
    :class:`InjectedCrash`. All other operations pass through to the
    wrapped file object.
    """

    def __init__(self, raw: IO[bytes], injector: FaultInjector) -> None:
        self._raw = raw
        self._injector = injector

    # -- charged operations --------------------------------------------------

    def write(self, data: bytes) -> int:
        data = bytes(data)
        allowed = self._injector.charge(len(data))
        if allowed < len(data):
            self._raw.write(data[:allowed])
            self._raw.flush()
            self._injector.crashed = True
            raise InjectedCrash(
                f"crashed after {allowed} of a {len(data)}-byte write"
            )
        return self._raw.write(data)

    def truncate(self, size: int | None = None) -> int:
        # Model a truncate as a (cheap) metadata write: it either happens
        # or the crash strikes first.
        self._injector.charge(1)
        return self._raw.truncate(size)

    # -- free passthrough ----------------------------------------------------

    def read(self, size: int = -1) -> bytes:
        return self._raw.read(size)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._raw.seek(offset, whence)

    def tell(self) -> int:
        return self._raw.tell()

    def flush(self) -> None:
        self._raw.flush()

    def fileno(self) -> int:
        return self._raw.fileno()

    def close(self) -> None:
        self._raw.close()

    @property
    def closed(self) -> bool:
        return self._raw.closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FaultyFile({getattr(self._raw, 'name', '?')!r}, "
            f"remaining={self._injector.remaining})"
        )
