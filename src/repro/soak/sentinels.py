"""Leak sentinels: resource censuses taken before and after a soak.

A soak run proves more than "the workload still passes after N
minutes" — it proves the process *returns to its starting state*.
The sentinels here capture that state:

* **thread census** — a multiset of live thread names
  (:func:`threading.enumerate`), so a leaked executor pool or an
  unjoined heartbeat probe shows up by name;
* **fd / socket census** — ``/proc/self/fd`` entries and how many of
  them are sockets, so an undrained task connection or an unclosed
  listener shows up as a descriptor delta;
* **RSS watermark** — periodic resident-set samples from
  ``/proc/self/statm``, split into a warm-up phase (allocators and
  caches filling) and a steady-state phase whose growth must stay
  under a documented tolerance.

Teardown in this codebase is deliberately asynchronous in places
(worker connection threads exit when their sockets close), so
:meth:`LeakSentinel.finish` *settles*: it re-captures with short sleeps (after a ``gc.collect``)
until the census matches the baseline or the settle timeout expires —
only then is a delta reported as a leak.

Everything degrades gracefully off Linux: censuses that need ``/proc``
report ``-1`` (unknown) and the corresponding checks pass vacuously
rather than failing the soak on an unsupported platform.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List


def thread_census() -> Counter:
    """Multiset of live thread names."""
    return Counter(thread.name for thread in threading.enumerate())


def fd_census() -> Dict[int, str] | None:
    """``fd -> target`` for every open descriptor, or None when the
    platform has no ``/proc/self/fd``."""
    try:
        entries = os.listdir("/proc/self/fd")
    except OSError:
        return None
    census: Dict[int, str] = {}
    for entry in entries:
        try:
            fd = int(entry)
            census[fd] = os.readlink(f"/proc/self/fd/{entry}")
        except (OSError, ValueError):
            continue  # raced with a close, or the listdir fd itself
    return census


def socket_count(census: Dict[int, str] | None) -> int:
    if census is None:
        return -1
    return sum(1 for target in census.values()
               if target.startswith("socket:"))


def rss_bytes() -> int:
    """Current resident set size, or -1 when unsupported."""
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, IndexError, ValueError):
        return -1


@dataclass
class ResourceCensus:
    """One point-in-time capture of process-level resources."""

    threads: Counter
    fds: Dict[int, str] | None
    rss: int

    @classmethod
    def capture(cls) -> "ResourceCensus":
        return cls(threads=thread_census(), fds=fd_census(),
                   rss=rss_bytes())

    @property
    def fd_count(self) -> int:
        return -1 if self.fds is None else len(self.fds)

    @property
    def sockets(self) -> int:
        return socket_count(self.fds)


@dataclass
class LeakReport:
    """Delta between the baseline and the settled final census."""

    leaked_threads: List[str]
    leaked_fds: List[str]
    fd_delta: int
    socket_delta: int
    supported: bool

    @property
    def ok(self) -> bool:
        if not self.supported:
            return not self.leaked_threads
        return (not self.leaked_threads and self.fd_delta <= 0
                and self.socket_delta <= 0)

    def describe(self) -> str:
        if self.ok:
            return "no leaks: threads, fds and sockets are back to baseline"
        parts = []
        if self.leaked_threads:
            parts.append(f"threads {self.leaked_threads}")
        if self.fd_delta > 0:
            parts.append(f"+{self.fd_delta} fds {self.leaked_fds}")
        if self.socket_delta > 0:
            parts.append(f"+{self.socket_delta} sockets")
        return "leaked " + ", ".join(parts)


class LeakSentinel:
    """Baseline-vs-final resource comparison with settle retries."""

    def __init__(self, settle_timeout: float = 5.0,
                 settle_interval: float = 0.1):
        self.settle_timeout = settle_timeout
        self.settle_interval = settle_interval
        self._baseline: ResourceCensus | None = None

    def baseline(self) -> ResourceCensus:
        """Capture the pre-workload state.  Call before any scenario
        allocates anything."""
        gc.collect()
        self._baseline = ResourceCensus.capture()
        return self._baseline

    def _delta(self, final: ResourceCensus) -> LeakReport:
        base = self._baseline
        assert base is not None
        leaked_threads = sorted(
            (final.threads - base.threads).elements()
        )
        supported = base.fds is not None and final.fds is not None
        if supported:
            new_fds = sorted(set(final.fds) - set(base.fds))
            leaked_fds = [f"{fd}->{final.fds[fd]}" for fd in new_fds]
            fd_delta = final.fd_count - base.fd_count
            socket_delta = final.sockets - base.sockets
        else:
            leaked_fds, fd_delta, socket_delta = [], 0, 0
        return LeakReport(
            leaked_threads=leaked_threads,
            leaked_fds=leaked_fds,
            fd_delta=fd_delta,
            socket_delta=socket_delta,
            supported=supported,
        )

    def finish(self) -> LeakReport:
        """Capture the post-teardown state, settling first.

        Asynchronous teardown (connection threads noticing their
        closed sockets) is given up to ``settle_timeout`` seconds to
        converge; the report reflects the *last* capture.
        """
        if self._baseline is None:
            raise RuntimeError("LeakSentinel.finish before baseline")
        deadline = time.monotonic() + self.settle_timeout
        while True:
            gc.collect()
            report = self._delta(ResourceCensus.capture())
            if report.ok or time.monotonic() >= deadline:
                return report
            time.sleep(self.settle_interval)


@dataclass
class RssWatermark:
    """Periodic RSS sampling with a warm-up / steady-state split.

    The first phase (until :meth:`mark_steady`) is warm-up: allocator
    arenas, import caches and crypto pools filling is expected growth.
    Flatness is judged on the steady phase only: the final sample must
    stay within the tolerance of the *first steady* sample.
    """

    samples: List[int] = field(default_factory=list)
    steady_start: int | None = None

    def sample(self) -> int:
        rss = rss_bytes()
        if rss >= 0:
            self.samples.append(rss)
        return rss

    def mark_steady(self) -> None:
        """End of warm-up: growth beyond here counts against the
        tolerance."""
        rss = self.sample()
        if rss >= 0:
            self.steady_start = rss

    @property
    def supported(self) -> bool:
        return bool(self.samples)

    @property
    def peak_mb(self) -> float:
        return max(self.samples) / 1e6 if self.samples else -1.0

    @property
    def steady_growth_mb(self) -> float:
        """Final sample minus the first steady-state sample, in MB
        (0.0 when sampling is unsupported or steady was never
        marked)."""
        if self.steady_start is None or not self.samples:
            return 0.0
        return (self.samples[-1] - self.steady_start) / 1e6

    def flat(self, tolerance_mb: float) -> bool:
        return self.steady_growth_mb <= tolerance_mb
