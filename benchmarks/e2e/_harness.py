"""Shared pieces of the end-to-end benchmark.

One percentile rule, environment capture, the server-subprocess
launcher, the pipelined closed-loop JSONL driver, the ``/metrics``
scrape-and-diff helpers, span-tree analysis (self time and the
structural invariants) and the JSON writer. Stdlib only, plus
:class:`repro.serve.JsonlClient` imported lazily by the network
helpers, so the pure helpers are testable without a server.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

#: How far a span may end past its parent before it counts as a
#: containment violation. Wire spans are rounded to microseconds, so
#: parent/child ends can disagree by ~1.5 us from rounding alone.
SPAN_TOLERANCE_S = 5e-6


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``. The rule
    every BENCH script used: index ``round(q * (n - 1))`` into the
    sorted values. An empty sample raises: a layer that was expected to
    report and did not is a broken measurement, not a zero."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def mean(values) -> float:
    """Arithmetic mean; an empty sample raises, as in :func:`percentile`."""
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sample")
    return sum(values) / len(values)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; a zero denominator raises, as in
    :func:`percentile`."""
    if not denominator:
        raise ValueError(f"ratio {numerator}/0: nothing was counted")
    return numerator / denominator


# -- host speed ----------------------------------------------------------------

#: CPU seconds the probe's ``core`` kernel takes on the nominal host
#: (about the calibration host's fast phase); scaled times read as if
#: every interval had run at that speed. The ``memory`` kernel's nominal
#: time makes both kernels read the same speed at the median of the
#: calibration runs, so the tail is on the same scale as the median.
PROBE_NOMINAL_S = 5e-4
PROBE_MEMORY_NOMINAL_S = 8e-4

#: Seconds between probe samples, and how many consecutive samples the
#: speed estimate takes the median of (~0.12 s of host time). At 0.5 s
#: and longer the host's sub-second swings reach the tail.
PROBE_PERIOD_S = 0.04
PROBE_SMOOTHING = 3

_PROBE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


def pin_to_one_cpu() -> set[int]:
    """Pin this process, and so every thread and child it starts from
    now on, to its lowest allowed CPU; returns the previous set.

    The calibration host's two vCPUs change speed independently, by up
    to ~1.7x over seconds, as other tenants load them. A probe only
    tracks the CPU it runs on, so everything measured runs on one.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def _smoothed(speeds: list[float]) -> list[float]:
    """Each speed replaced by the median of the :data:`PROBE_SMOOTHING`
    samples around it."""
    half = PROBE_SMOOTHING // 2
    return [
        statistics.median(speeds[max(0, i - half) : i + half + 1])
        for i in range(len(speeds))
    ]


def scaled_seconds(
    times: list[float], speeds: list[float], t0: float, t1: float
) -> float:
    """``∫ speeds dt`` over ``[t0, t1]`` for a step function that takes
    ``speeds[i]`` from ``times[i]`` until ``times[i + 1]`` (the first
    value also before ``times[0]``, the last also after the end)."""
    i = max(0, bisect.bisect_right(times, t0) - 1)
    total = 0.0
    start = t0
    while start < t1:
        end = times[i + 1] if i + 1 < len(times) else t1
        end = min(max(end, start), t1)
        total += (end - start) * speeds[i]
        start = end
        i = min(i + 1, len(times) - 1)
    return total


class HostProbe:
    """Tracks the speed of the CPU this process is pinned to.

    Starts ``probe.py`` as a child on the same CPU (children inherit
    the pinning, see :func:`pin_to_one_cpu`); the child samples the
    thread CPU time of two fixed kernels every :data:`PROBE_PERIOD_S`,
    so it takes ~5% of the CPU. After :meth:`stop`, :meth:`seconds`
    turns a wall-clock interval into nominal-host seconds: each instant
    counts ``PROBE_NOMINAL_S / core kernel time``, with the kernel time
    the median of :data:`PROBE_SMOOTHING` neighbouring samples, and the
    instants the probe itself ran count nothing, so a sample that lands
    inside a measured operation does not lengthen it.
    :meth:`tail_seconds` does the same at the geometric mean of the core
    and the memory kernel's speed, for the slowest operations of a run:
    those are the ones whose data other tenants had evicted, and they
    slow down partly as the core does and partly as memory access does.
    The probe runs in its own interpreter, so a change to the program
    under test (its threads, memory or garbage collection) cannot slow
    the kernels; only the host can.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, _PROBE_SCRIPT, str(PROBE_PERIOD_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._times: list[float] = []  # when each sample started
        self._ends: list[float] = []  # and ended
        self._speeds: list[float] = []
        self._tail_speeds: list[float] = []
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the host-speed probe did not start")

    def stop(self) -> None:
        """Collect the samples and wait for the probe to exit;
        idempotent."""
        if self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate("stop\n", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"the host-speed probe failed ({self.proc.returncode})")
        samples = json.loads(out.strip().splitlines()[-1])
        self._times = [s[0] for s in samples]
        self._ends = [s[3] for s in samples]
        self._speeds = _smoothed([PROBE_NOMINAL_S / s[1] for s in samples])
        self._tail_speeds = _smoothed(
            [
                math.sqrt(PROBE_NOMINAL_S / s[1] * PROBE_MEMORY_NOMINAL_S / s[2])
                for s in samples
            ]
        )

    def seconds(self, t0: float, t1: float) -> float:
        """Nominal-host seconds for the wall-clock interval ``[t0, t1]``
        (``time.perf_counter`` readings taken while the probe ran),
        without the probe's own runs."""
        return self._scaled(self._speeds, t0, t1)

    def tail_seconds(self, t0: float, t1: float) -> float:
        """:meth:`seconds` at the speed the slowest operations see."""
        return self._scaled(self._tail_speeds, t0, t1)

    def _scaled(self, speeds: list[float], t0: float, t1: float) -> float:
        if not self._times:
            raise RuntimeError("HostProbe.seconds before stop()")
        total = scaled_seconds(self._times, speeds, t0, t1)
        i = max(0, bisect.bisect_right(self._times, t0) - 1)
        while i < len(self._times) and self._times[i] < t1:
            overlap = min(t1, self._ends[i]) - max(t0, self._times[i])
            if overlap > 0:
                total -= overlap * speeds[i]
            i += 1
        return total

    def samples(self) -> int:
        return len(self._times)


# -- environment ---------------------------------------------------------------


def _git_commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git
    (a benchmark checkout usually is not a repository at all)."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    """Host and library facts every result is read against."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as indented JSON with a trailing newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


# -- process and file measurements --------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def dir_mb(path: str) -> float:
    """Total size of the regular files under ``path``, in MiB."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total / (1024.0 * 1024.0)


# -- the server under test -----------------------------------------------------


class ServerProcess:
    """``python -m repro serve ... --async`` in its own process.

    Binds an ephemeral port and parses it from the ``serving
    http://host:port`` line. :meth:`stop` interrupts the server (which
    drains and checkpoints, as on Ctrl-C) and waits for it to exit.
    """

    def __init__(self, args: list[str], *, src: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args,
             "--async", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        self.address: tuple[str, int] | None = None
        try:
            for line in self.proc.stdout:
                if line.startswith("serving http://"):
                    host, _, port = line.split()[1][len("http://"):].rpartition(":")
                    self.address = (host, int(port))
                    break
            if self.address is None:
                raise RuntimeError(
                    f"server did not report its address: {' '.join(args)}"
                )
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 30.0) -> None:
        """Interrupt, wait for exit (kill on timeout); idempotent."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def client(address: tuple[str, int]):
    """A fresh pipelined JSONL connection to ``address``."""
    from repro.serve import JsonlClient

    return JsonlClient(*address, timeout=60.0)


# -- load ----------------------------------------------------------------------


def closed_loop(
    address: tuple[str, int],
    requests: list[dict],
    *,
    clients: int,
    depth: int,
) -> tuple[list[tuple[float, float, dict]], float]:
    """Play ``requests`` closed loop over ``clients`` connections.

    Request ``i`` goes out on connection ``i % clients``; each
    connection keeps ``depth`` requests in flight and sends its next one
    only when a response lands. Each request is a payload dict with an
    ``"op"`` key (the rest is the op's body). Returns one ``(latency_s,
    completed_at, response)`` per request, in index order, and the
    ``time.perf_counter`` reading at the common start.
    """
    results: list = [None] * len(requests)
    errors: list[BaseException] = []
    start = threading.Barrier(clients + 1)

    def drive(slot: int) -> None:
        mine = list(range(slot, len(requests), clients))
        inflight: dict[int, tuple[int, float]] = {}
        try:
            with client(address) as conn:
                start.wait()

                def send(i: int) -> None:
                    body = dict(requests[i])
                    op = body.pop("op")
                    inflight[conn.send(op, **body)] = (i, time.perf_counter())

                cursor = 0
                while cursor < min(depth, len(mine)):
                    send(mine[cursor])
                    cursor += 1
                while inflight:
                    resp = conn.recv()
                    now = time.perf_counter()
                    i, sent = inflight.pop(resp.get("id"))
                    results[i] = (now - sent, now, resp)
                    if cursor < len(mine):
                        send(mine[cursor])
                        cursor += 1
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
            start.abort()

    threads = [
        threading.Thread(target=drive, args=(slot,)) for slot in range(clients)
    ]
    for t in threads:
        t.start()
    try:
        start.wait()
    except threading.BrokenBarrierError:
        pass
    began = time.perf_counter()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results, began


# -- /metrics ------------------------------------------------------------------


def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus text exposition -> ``{series: value}`` (series names
    keep their label sets; comment lines are skipped)."""
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


def scrape(address: tuple[str, int]) -> dict[str, float]:
    """One ``/metrics`` scrape over a short-lived JSONL connection."""
    with client(address) as conn:
        return parse_exposition(conn.metrics())


def family_total(series: dict[str, float], name: str) -> float:
    """Sum of one metric family's samples across all label sets."""
    total = 0.0
    for key, value in series.items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


def delta(
    after: dict[str, float], before: dict[str, float], name: str
) -> float:
    """How much family ``name`` grew between two scrapes."""
    return family_total(after, name) - family_total(before, name)


# -- in-process layer timing ---------------------------------------------------


class LayerClock:
    """Self-time accounting for public functions wrapped in place.

    :meth:`wrap` replaces ``owner.attr`` (a module function or a class
    method) with a timer charging each call's wall time, minus the time
    of wrapped calls nested inside it, to ``layer``. The self times of
    all layers therefore add up exactly to the time spent inside the
    outermost wrapped calls. The timer is kept lean (one list slot per
    layer, no dict lookups per call) because the innermost layers run
    about a thousand times per query. :meth:`restore` puts every
    original back.
    """

    def __init__(self) -> None:
        self._layers: dict[str, list] = {}  # layer -> [self seconds, calls]
        self._nested: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str) -> None:
        original = getattr(owner, attr)
        acc = self._layers.setdefault(layer, [0.0, 0])
        nested = self._nested
        clock = time.perf_counter

        def timed(*args, **kwargs):
            nested.append(0.0)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                acc[0] += elapsed - nested.pop()
                acc[1] += 1
                if nested:
                    nested[-1] += elapsed

        timed.__wrapped__ = original
        setattr(owner, attr, timed)
        self._originals.append((owner, attr, original))

    def self_seconds(self, layer: str) -> float:
        """Seconds charged to ``layer`` since the last :meth:`reset`."""
        return self._layers.get(layer, (0.0, 0))[0]

    def calls(self) -> dict[str, int]:
        """Wrapped calls per layer since the last :meth:`reset`."""
        return {layer: acc[1] for layer, acc in self._layers.items()}

    def reset(self) -> None:
        """Zero the accumulated times and call counts."""
        for acc in self._layers.values():
            acc[0], acc[1] = 0.0, 0

    def restore(self) -> None:
        """Unwrap every wrapped function (idempotent)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


# -- spans ---------------------------------------------------------------------


def walk(span: dict):
    """Depth-first iteration over a span dict and its descendants."""
    yield span
    for child in span.get("children", ()):
        yield from walk(child)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to
    ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: dict, children=None) -> float:
    """A span's duration minus the part of its interval that its child
    spans (or the given subset of them) cover."""
    lo = span["start"]
    hi = lo + span["dur"]
    kids = span.get("children", ()) if children is None else children
    return span["dur"] - covered(
        ((c["start"], c["start"] + c["dur"]) for c in kids), lo, hi
    )


def span_violations(span: dict, tolerance: float = SPAN_TOLERANCE_S) -> int:
    """Spans in the tree with a negative duration, or starting before
    or ending more than ``tolerance`` past their parent."""
    bad = 1 if span["dur"] < 0 else 0
    end = span["start"] + span["dur"]
    for child in span.get("children", ()):
        if (
            child["start"] < span["start"] - tolerance
            or child["start"] + child["dur"] > end + tolerance
        ):
            bad += 1
        bad += span_violations(child, tolerance)
    return bad
