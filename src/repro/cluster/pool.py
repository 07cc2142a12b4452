"""The shard fan-out of the sharded backend.

The unit of work is a *shard task* ``(key, payload)``: run one query
payload against one shard. :class:`SerialPool` runs a batch's tasks in
the calling thread, one shard after another, from two callables —

``opener(key) -> Session``
    opens (and owns) the shard's session. The pool caches one session
    per task key, so a disk shard's page buffer stays warm across
    batches and the owning backend reads its metadata (counts,
    estimates, database materialisation) through the same sessions;
``runner(session, payload) -> result``
    executes the payload on an open session.

Failures never hang the caller: a payload that raises and a shard that
cannot open both surface as :class:`ClusterError` naming the shard.

**Failover.** ``attempts``/``failover`` configure per-task retries: a
failed task runs up to ``attempts`` times in total, and an optional
``failover(task_key, attempt) -> task_key | None`` hook re-targets each
retry. The sharded backend maps ``(shard, replica)`` keys to the next
replica of the same shard, which turns a lost or unreadable replica
file into a transparent retry on another file instead of a failed
batch, so a retry runs at once: nothing transient needs waiting out.
The task key is opaque to the pool — an ``int`` shard id or a
``(shard_id, replica_idx)`` tuple — it only keys the session cache and
names the shard in errors. A task that keeps failing surfaces the error
of its last attempt.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.obs import metrics as _obs_metrics

__all__ = ["ClusterError", "SerialPool"]


class ClusterError(RuntimeError):
    """A sharded-serving failure: bad manifest, unopenable shard, or a
    shard task that raised. Always carries enough context to name the
    shard involved: beyond the message, ``shard`` holds the shard label
    (or ``None`` for non-shard failures) and ``attempts`` how many
    attempts were spent before giving up — so the trace/metrics path
    can count failovers instead of only surviving them."""

    def __init__(
        self,
        message: str,
        *,
        shard: str | None = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts


def _count_retry() -> None:
    _obs_metrics.counter(
        "repro_cluster_retry_total",
        "Shard tasks re-executed after a failed attempt.",
    ).inc()


def _count_failover() -> None:
    _obs_metrics.counter(
        "repro_cluster_failover_total",
        "Shard tasks re-targeted to another replica by the failover hook.",
    ).inc()


def _shard_label(key) -> str:
    """Human-readable shard name of a task key (int or shard/replica)."""
    if isinstance(key, tuple):
        shard_id, replica = key
        return f"{shard_id}" if replica == 0 else (
            f"{shard_id} (replica {replica})"
        )
    return f"{key}"


class SerialPool:
    """In-process fan-out: shard tasks run one after another.

    Exposes its per-shard session cache (:meth:`session`) so the owning
    backend can reuse the same sessions for metadata (count, estimate,
    database materialisation) without opening shards twice.
    """

    def __init__(
        self,
        opener: Callable[[int], Any],
        runner: Callable[[Any, Any], Any],
        *,
        attempts: int = 1,
        failover: Callable[[Any, int], Any] | None = None,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self._opener = opener
        self._runner = runner
        self.attempts = attempts
        self._failover = failover
        self._sessions: dict[Any, Any] = {}
        self._closed = False

    def session(self, shard_id):
        """The cached session of one shard (opened on first use)."""
        session = self._sessions.get(shard_id)
        if session is None:
            try:
                session = self._opener(shard_id)
            except ClusterError:
                raise
            except Exception as exc:
                raise ClusterError(
                    f"cannot open shard {_shard_label(shard_id)}: {exc}",
                    shard=_shard_label(shard_id),
                ) from exc
            self._sessions[shard_id] = session
        return session

    def _run_one(self, key, payload):
        """One task with bounded retries; failover re-targets the key."""
        last_error: ClusterError | None = None
        for attempt in range(self.attempts):
            if attempt:
                _count_retry()
                if self._failover is not None:
                    alternate = self._failover(key, attempt)
                    if alternate is not None:
                        key = alternate
                        _count_failover()
            try:
                session = self.session(key)
                return self._runner(session, payload)
            except ClusterError as exc:
                last_error = exc
            except Exception as exc:
                last_error = ClusterError(
                    f"shard {_shard_label(key)} failed executing its "
                    f"batch: {exc}",
                    shard=_shard_label(key),
                )
                last_error.__cause__ = exc
        assert last_error is not None
        if last_error.shard is None:
            last_error.shard = _shard_label(key)
        last_error.attempts = self.attempts
        raise last_error

    def run(self, tasks: Sequence[tuple[Any, Any]]) -> list[Any]:
        """Run shard tasks one after another; results in task order."""
        if self._closed:
            raise ClusterError("shard pool is closed")
        return [self._run_one(key, payload) for key, payload in tasks]

    def close(self) -> None:
        """Close every cached shard session (writable ones checkpoint)."""
        self._closed = True
        sessions, self._sessions = self._sessions, {}
        for session in sessions.values():
            close = getattr(session, "close", None)
            if close is not None:
                close()
