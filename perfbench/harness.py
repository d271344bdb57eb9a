"""Measurement helpers shared by the perfbench workloads.

Nothing here imports ``repro``: percentiles, spans, ``/proc`` readers,
child-process bookkeeping and result scoring are all usable (and unit
tested) without the program under test.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: A prediction must equal PlainBase's and every probability must be
#: within this of PlainBase's for an op to count as correct.
PROB_TOLERANCE = 1e-2


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least
    ``min_beyond`` samples lie beyond the reported rank, so a p90 needs
    100 samples and a median 20.
    """
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("no samples")
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has "
            f"{len(ordered) - rank} beyond it; need {min_beyond}"
        )
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class SpanLog:
    """In-memory span recorder; written out once, at the end.

    A span is ``{id, name, trace, parent, start, end, attrs}`` with
    times in seconds on the ``perf_counter`` clock.  Spans of one op
    share a ``trace`` id.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, trace: str, parent: int | None = None,
             **attrs):
        with self._lock:
            record = {"id": len(self.spans), "name": name,
                      "trace": trace, "parent": parent,
                      "start": time.perf_counter(), "end": None,
                      "attrs": attrs}
            self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def per_trace_sum(self, name: str) -> list[float]:
        """Total duration of ``name`` spans within each trace."""
        totals: dict[str, float] = {}
        for s in self.spans:
            if s["name"] == name and s["end"] is not None:
                totals[s["trace"]] = (totals.get(s["trace"], 0.0)
                                      + s["end"] - s["start"])
        return list(totals.values())

    def dump(self, path: Path, extra: dict | None = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self_times(self.spans)
        doc = dict(extra or {})
        doc["spans"] = [dict(s, self_s=selfs[s["id"]])
                        for s in self.spans]
        with open(path, "w") as handle:
            json.dump(doc, handle)
            handle.write("\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of its
    interval that its children cover (overlapping children are
    counted once, children are clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    out: dict[int, float] = {}
    for s in spans:
        if s["end"] is None:
            out[s["id"]] = 0.0
            continue
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has consumed."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # The command name may hold spaces; fields resume after ')'.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_cpu_seconds() -> float:
    """User + system CPU seconds of this process, all threads."""
    return time.process_time()


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

_children: list[subprocess.Popen] = []


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], ready_prefix: str, label: str,
          timeout: float = 60.0) -> tuple[subprocess.Popen, str]:
    """Start ``python -m repro <args>`` and wait for the stdout line
    starting with ``ready_prefix``; returns the process and the rest
    of that line (the ephemeral ``host:port`` it bound)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{label}.stderr.log", "w") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=stderr, text=True,
            env=child_env(), cwd=str(ROOT),
        )
    _children.append(process)
    # A blocked readline cannot be interrupted; killing the child on a
    # timer ends it with EOF instead.
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        for line in iter(process.stdout.readline, ""):
            if line.startswith(ready_prefix):
                return process, line[len(ready_prefix):].strip()
    finally:
        watchdog.cancel()
    reap(process)
    raise RuntimeError(
        f"{label} did not report {ready_prefix!r} within {timeout}s "
        f"(see {OUT_DIR / (label + '.stderr.log')})")


def reap(process: subprocess.Popen, grace: float = 5.0) -> None:
    """Stop one child and wait until it has ended."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()
    if process in _children:
        _children.remove(process)


def reap_all() -> None:
    for process in list(_children):
        reap(process)


atexit.register(reap_all)


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------

def machine_canary_ms() -> float:
    """Milliseconds this machine takes for a fixed big-int loop.

    The box's CPU speed moves by up to a third between epochs of
    minutes; recorded beside every run so that ``compare.py`` can tell
    a slower machine from slower code.  Not a metric of the program.
    """
    rng = random.Random(0)
    modulus = rng.getrandbits(640) | 1
    exponent = rng.getrandbits(320)
    bases = [rng.getrandbits(630) for _ in range(40)]
    passes = []
    for _ in range(5):
        begin = time.perf_counter()
        for base in bases:
            pow(base, exponent, modulus)
        passes.append(time.perf_counter() - begin)
    return statistics.median(passes) * 1000.0


def environment(backend_name: str, have_gmpy2: bool) -> dict:
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "bigint_backend": backend_name,
        "have_gmpy2": have_gmpy2,
        "git_commit": commit,
        "loadavg_1min": load1,
        "noisy": load1 > nproc / 2.0,
    }


# ----------------------------------------------------------------------
# Ops and scoring
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation.

    ``outputs`` holds one ``(prediction, probabilities)`` per sample;
    ``None`` outputs (with ``error`` set) mark an op that failed or was
    refused.  ``first_input`` indexes the op's first sample in the
    workload's input sequence; ``tag`` names the session that served
    it (the tenant, on ``serve_window``); ``finished`` is when its
    result was seen, on the ``perf_counter`` clock.
    """

    first_input: int
    latency_s: float | None = None
    outputs: list | None = None
    error: str | None = None
    tag: str = ""
    finished: float = 0.0


def score_ops(ops: list[Op], reference) -> list[str]:
    """Mark wrong ops as failed; returns the failure descriptions.

    ``reference(i)`` gives PlainBase's ``(prediction, probabilities)``
    for input ``i``.  An op whose prediction differs or whose
    probabilities stray more than :data:`PROB_TOLERANCE` is a failed
    op: its latency no longer counts.
    """
    failures = []
    for op in ops:
        if op.error is None:
            for offset, (prediction, probabilities) in enumerate(
                    op.outputs):
                want_prediction, want = reference(op.first_input + offset)
                worst = max(abs(a - b)
                            for a, b in zip(probabilities, want))
                if prediction != want_prediction \
                        or not worst <= PROB_TOLERANCE:
                    op.error = (
                        f"wrong output for input "
                        f"{op.first_input + offset}: prediction "
                        f"{prediction} vs {want_prediction}, "
                        f"probability error {worst:.3g}")
                    break
        if op.error is not None:
            op.latency_s = None
            failures.append(op.error)
    return failures
