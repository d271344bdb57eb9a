"""Multi-tenant serving gateway (docs/SERVING.md).

An async HTTP front door over the existing stream runtime: a bounded
job queue with admission control (overload is shed with HTTP 503 +
``Retry-After`` instead of unbounded latency), a per-job state
machine, and per-tenant crypto isolation — every tenant gets its own
Paillier keypair and session state while all jobs multiplex onto one
shared worker fleet.

Layers (each importable on its own):

* :mod:`repro.serve.jobs` — job FSM, tracker, and the
  :class:`~repro.serve.jobs.JobManager` dispatcher;
* :mod:`repro.serve.tenants` — per-tenant runtimes (keypair, plan,
  pipeline or per-tenant coordinator) and the bounded registry;
* :mod:`repro.serve.gateway` — the stdlib HTTP server exposing
  ``POST /v1/infer`` / ``GET /v1/jobs/<id>`` / ``GET /metrics``;
* :mod:`repro.serve.loadgen` — the concurrency load generator behind
  ``python -m repro loadgen`` (writes ``BENCH_serve.json``).
"""

from .jobs import (
    DEADLINE,
    DONE,
    FAILED,
    Job,
    JobManager,
    JobTracker,
    LEGAL_TRANSITIONS,
    QUEUED,
    RUNNING,
    SHED,
    TERMINAL_STATES,
)
from .tenants import TenantRegistry, TenantRuntime, tenant_seed
from .gateway import ServeGateway, build_serve_model
from .loadgen import LoadgenOptions, run_loadgen

__all__ = [
    "DEADLINE",
    "DONE",
    "FAILED",
    "Job",
    "JobManager",
    "JobTracker",
    "LEGAL_TRANSITIONS",
    "LoadgenOptions",
    "QUEUED",
    "RUNNING",
    "SHED",
    "ServeGateway",
    "TERMINAL_STATES",
    "TenantRegistry",
    "TenantRuntime",
    "build_serve_model",
    "run_loadgen",
    "tenant_seed",
]
