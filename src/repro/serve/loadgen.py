"""Concurrency load generator for the serving gateway.

``python -m repro loadgen`` drives N concurrent tenants against a
gateway — self-hosted in-process by default (local stages or a
shared in-thread TCP worker fleet), or an external one via
``--url`` — submitting a burst per tenant over HTTP, polling every
job to a terminal state, and writing ``BENCH_serve.json``
(schema ``serve/1``):

* throughput (completed req/s) and client-observed latency
  percentiles;
* exact admission accounting: ``accepted + shed + rate_limited ==
  submitted`` with every accepted job terminal;
* honest backpressure handling: 429/503 replies that carry a
  ``Retry-After`` header are retried after the advertised delay
  (bounded by ``submit_retries`` attempts and ``retry_after_cap``
  seconds per sleep), and every retry is counted in the report;
* stage connections opened (self-hosted only):
  ``task_connections_opened`` from the gateway's registry, next to
  ``plan_stages`` — connections persist across a tenant's jobs, so
  this never exceeds ``tenants * plan_stages`` on a healthy fleet;
* continuous batching (self-hosted only): ``batch_jobs`` — the count,
  sum and max of the ``serve_batch_jobs`` histogram (dispatches, jobs
  dispatched, the largest dispatch) — next to ``jobs_run``, the jobs
  that reached ``RUNNING``; every such job is in exactly one dispatch,
  so the sum equals ``jobs_run``;
* cross-tenant isolation probes (self-hosted only): for each
  adjacent tenant pair, a ciphertext encrypted under tenant A's
  public key is attacked with tenant B's private key — any
  successful recovery is reported (and is always zero).

The default knobs oversubscribe on purpose (per-tenant bursts beyond
the tenant quota), so shedding and its accounting are exercised on
every run, not just under pathological load.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import ServeError
from .jobs import TERMINAL_STATES

#: BENCH_serve.json schema tag.
SCHEMA = "serve/1"


@dataclass
class LoadgenOptions:
    """Knobs for one loadgen run (CLI flags map 1:1)."""

    tenants: int = 4
    requests: int = 6           # per tenant, submitted as a burst
    mode: str = "fleet"         # local | fleet (self-hosted modes)
    fleet_workers: int = 2
    key_size: int = 128
    seed: int = 11
    deadline: float | None = None
    queue_capacity: int = 8
    tenant_quota: int = 4
    url: str | None = None      # drive an external gateway instead
    out: str | None = "BENCH_serve.json"
    model: str = "tiny"
    poll_interval: float = 0.05
    poll_timeout: float = 120.0
    submit_retries: int = 2     # extra attempts after a 429/503
    retry_after_cap: float = 2.0  # per-sleep bound on Retry-After

    def __post_init__(self):
        if self.tenants < 1 or self.requests < 1:
            raise ServeError(
                "loadgen needs at least one tenant and one request"
            )
        if self.mode not in ("local", "fleet"):
            raise ServeError(f"unknown loadgen mode {self.mode!r}")
        if self.submit_retries < 0 or self.retry_after_cap < 0:
            raise ServeError(
                "submit_retries and retry_after_cap must be >= 0"
            )


class _Client:
    """Minimal urllib JSON client for one gateway base URL."""

    def __init__(self, base: str):
        self.base = base.rstrip("/")

    def post(self, path: str, doc: dict) -> tuple[int, dict, dict]:
        data = json.dumps(doc).encode("utf-8")
        request = urllib.request.Request(
            self.base + path, data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._send(request)

    def get(self, path: str) -> tuple[int, dict, dict]:
        return self._send(urllib.request.Request(self.base + path))

    def _send(self, request) -> tuple[int, dict, dict]:
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                body = reply.read()
                return (reply.status, json.loads(body or b"{}"),
                        dict(reply.headers))
        except urllib.error.HTTPError as exc:
            body = exc.read()
            try:
                doc = json.loads(body or b"{}")
            except ValueError:
                doc = {"error": body.decode("utf-8", "replace")}
            return exc.code, doc, dict(exc.headers or {})
        except (urllib.error.URLError, OSError) as exc:
            # Transport-level failure (e.g. the server thread died):
            # surface it as a synthetic status so the accounting
            # marks the run broken instead of crashing the driver.
            return 599, {"error": repr(exc)}, {}


@dataclass
class _TenantOutcome:
    submitted: int = 0
    accepted: int = 0
    shed: int = 0
    rate_limited: int = 0     # requests whose final reply was a 429
    retries: int = 0          # extra POSTs driven by Retry-After
    shed_posts: int = 0       # every 503 seen, including retried ones
    states: Dict[str, int] = None
    latencies: List[float] = None
    errors: List[str] = None

    def __post_init__(self):
        self.states = {}
        self.latencies = []
        self.errors = []


def _retry_after_seconds(headers: dict) -> float | None:
    """The ``Retry-After`` delay, or ``None`` when absent/garbage."""
    for name, value in headers.items():
        if str(name).lower() == "retry-after":
            try:
                return max(0.0, float(value))
            except (TypeError, ValueError):
                return None
    return None


def _submit(client: _Client, doc: dict, options: LoadgenOptions,
            outcome: _TenantOutcome) -> tuple[int, dict]:
    """POST one request, honoring ``Retry-After`` on 429/503.

    The gateway's contract is that those two statuses are *transient*
    (shed queue slot, closed rate window) and always carry a
    ``Retry-After`` header; anything without the header is final.
    Retries are bounded (``submit_retries`` attempts, each sleep
    capped at ``retry_after_cap`` seconds) so an overloaded server
    cannot stall the generator, and counted in the outcome.
    """
    attempts = 0
    while True:
        status, body, headers = client.post("/v1/infer", doc)
        if status == 503:
            outcome.shed_posts += 1
        if status not in (429, 503):
            return status, body
        if attempts >= options.submit_retries:
            return status, body
        delay = _retry_after_seconds(headers)
        if delay is None:
            return status, body
        attempts += 1
        outcome.retries += 1
        time.sleep(min(delay, options.retry_after_cap))


def _drive_tenant(client: _Client, tenant: str, inputs,
                  options: LoadgenOptions,
                  outcome: _TenantOutcome) -> None:
    pending: List[tuple[str, float]] = []
    for sample in inputs:
        doc = {"tenant": tenant, "input": sample}
        if options.deadline is not None:
            doc["deadline"] = options.deadline
        started = time.monotonic()
        status, body = _submit(client, doc, options, outcome)
        outcome.submitted += 1
        if status == 202:
            outcome.accepted += 1
            pending.append((body["job_id"], started))
        elif status == 503:
            outcome.shed += 1
        elif status == 429:
            outcome.rate_limited += 1
        else:
            outcome.errors.append(
                f"submit -> HTTP {status}: {body.get('error')}"
            )
    poll_deadline = time.monotonic() + options.poll_timeout
    for job_id, started in pending:
        state = None
        while time.monotonic() < poll_deadline:
            status, body, _headers = client.get(
                f"/v1/jobs/{job_id}?tenant={tenant}"
            )
            if status != 200:
                outcome.errors.append(
                    f"poll {job_id} -> HTTP {status}"
                )
                break
            state = body["state"]
            if state in TERMINAL_STATES:
                outcome.latencies.append(
                    time.monotonic() - started
                )
                break
            time.sleep(options.poll_interval)
        outcome.states[state] = outcome.states.get(state, 0) + 1


def _cross_tenant_probes(gateway) -> dict:
    """Attack each adjacent tenant pair's ciphertexts with the other
    tenant's private key; count recoveries (must be zero)."""
    names = gateway.registry.names()
    probe_values = np.array([1.25, -2.5, 7.0])
    attempts = 0
    recoveries = 0
    self_ok = True
    for index, name in enumerate(names):
        owner = gateway.registry.get(name)
        ciphertext = owner.data_provider.encrypt_input(probe_values)
        recovered = ciphertext.decrypt_float(owner.private_key)
        if not np.allclose(recovered.reshape(-1), probe_values,
                           atol=1e-6):
            self_ok = False
        attacker = gateway.registry.get(
            names[(index + 1) % len(names)]
        )
        if attacker is owner:
            continue
        attempts += 1
        try:
            stolen = ciphertext.decrypt_float(attacker.private_key)
            if np.allclose(stolen.reshape(-1), probe_values,
                           atol=1e-3):
                recoveries += 1
        except Exception:  # noqa: BLE001 - failure IS isolation
            pass
    return {
        "attempts": attempts,
        "recoveries": recoveries,
        "self_decrypt_ok": self_ok,
    }


def _percentile_ms(latencies: List[float], q: float) -> float | None:
    if not latencies:
        return None
    return float(np.percentile(np.asarray(latencies), q) * 1000.0)


def run_loadgen(options: LoadgenOptions,
                progress=lambda text: None) -> dict:
    """Run one loadgen campaign; returns (and optionally writes) the
    ``serve/1`` report."""
    gateway = None
    fleet = []
    rng = np.random.default_rng(options.seed)
    try:
        if options.url is not None:
            base = options.url
            input_shape = (1, 8, 8)
            mode = "remote"
        else:
            from ..config import RuntimeConfig
            from .gateway import ServeGateway, build_serve_model

            model, decimals, input_shape = build_serve_model(
                options.model
            )
            config = RuntimeConfig(
                key_size=options.key_size, seed=options.seed,
            ).with_serve(
                queue_capacity=options.queue_capacity,
                tenant_quota=options.tenant_quota,
            )
            addresses = None
            if options.mode == "fleet":
                from ..net import WorkerServer

                for _ in range(options.fleet_workers):
                    server = WorkerServer()
                    fleet.append(server)
                addresses = [server.start() for server in fleet]
                progress(
                    f"fleet: {len(fleet)} shared TCP workers on "
                    + ", ".join(f"{h}:{p}" for h, p in addresses)
                )
            gateway = ServeGateway(
                model, decimals, config, mode=options.mode,
                worker_addresses=addresses,
            )
            host, port = gateway.start()
            base = f"http://{host}:{port}"
            mode = options.mode
            progress(f"gateway: {base} ({mode} stages)")

        client = _Client(base)
        tenants = [f"tenant-{i}" for i in range(options.tenants)]
        inputs = {
            name: [rng.uniform(0, 1, input_shape).tolist()
                   for _ in range(options.requests)]
            for name in tenants
        }
        outcomes = {name: _TenantOutcome() for name in tenants}
        threads = [
            threading.Thread(
                target=_drive_tenant,
                args=(client, name, inputs[name], options,
                      outcomes[name]),
                name=f"repro-loadgen-{name}",
            )
            for name in tenants
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - start

        submitted = sum(o.submitted for o in outcomes.values())
        accepted = sum(o.accepted for o in outcomes.values())
        shed = sum(o.shed for o in outcomes.values())
        rate_limited = sum(o.rate_limited for o in outcomes.values())
        retries = sum(o.retries for o in outcomes.values())
        shed_posts = sum(o.shed_posts for o in outcomes.values())
        states: Dict[str, int] = {}
        latencies: List[float] = []
        errors: List[str] = []
        for outcome in outcomes.values():
            for state, count in outcome.states.items():
                key = state if state is not None else "unresolved"
                states[key] = states.get(key, 0) + count
            latencies.extend(outcome.latencies)
            errors.extend(outcome.errors)
        terminal_observed = sum(
            count for state, count in states.items()
            if state in TERMINAL_STATES
        )
        accounting_ok = (accepted + shed + rate_limited == submitted
                         and terminal_observed == accepted
                         and not errors)
        done = states.get("done", 0)

        isolation = None
        if gateway is not None and len(tenants) > 1:
            isolation = _cross_tenant_probes(gateway)

        report = {
            "schema": SCHEMA,
            "mode": mode,
            "tenants": options.tenants,
            "requests_per_tenant": options.requests,
            "submitted": submitted,
            "accepted": accepted,
            "shed": shed,
            "rate_limited": rate_limited,
            "retries": retries,
            "outcomes": states,
            "accounting_ok": accounting_ok,
            "errors": errors,
            "wall_seconds": wall,
            "req_per_s": (done / wall) if wall > 0 else 0.0,
            "latency_ms": {
                "p50": _percentile_ms(latencies, 50),
                "p99": _percentile_ms(latencies, 99),
                "mean": (float(np.mean(latencies)) * 1000.0
                         if latencies else None),
            },
            "cross_tenant_decrypts": (
                isolation["recoveries"] if isolation else None
            ),
            "isolation": isolation,
            "config": {
                "key_size": options.key_size,
                "seed": options.seed,
                "model": options.model,
                "queue_capacity": options.queue_capacity,
                "tenant_quota": options.tenant_quota,
                "fleet_workers": (options.fleet_workers
                                  if mode == "fleet" else None),
                "deadline": options.deadline,
            },
        }
        if gateway is not None:
            # Server-side cross-check: the tracker must agree with
            # the client's accounting and hold no non-terminal job.
            # Every 202 and every 503 (retried ones included) made a
            # tracked job; 429s never reached the job manager.
            tracker = gateway.manager.tracker
            report["server"] = {
                "jobs": len(tracker),
                "counts": tracker.counts(),
                "all_terminal": tracker.all_terminal(),
            }
            report["accounting_ok"] = (
                report["accounting_ok"]
                and len(tracker) == accepted + shed_posts
                and tracker.all_terminal()
            )
            # Stage connections persist across a tenant's jobs, so a
            # healthy run opens at most tenants x plan_stages of them.
            report["task_connections_opened"] = int(sum(
                counter.value for _labels, counter
                in gateway.obs.registry.find(
                    "counter", "net_task_connections_opened")
            ))
            report["plan_stages"] = max(
                (len(gateway.registry.get(name).plan.stages)
                 for name in gateway.registry.names()), default=0,
            )
            registry = gateway.obs.registry
            batches = [hist for _labels, hist in registry.find(
                "histogram", "serve_batch_jobs")]
            report["batch_jobs"] = {
                "count": sum(hist.count for hist in batches),
                "sum": int(sum(hist.sum for hist in batches)),
                "max": int(max((hist.max for hist in batches),
                               default=0)),
            }
            # A job's service time is observed only when it leaves
            # RUNNING, so this counts the jobs that reached it.
            report["jobs_run"] = sum(
                hist.count for _labels, hist in registry.find(
                    "histogram", "serve_service_seconds"))
        if options.out:
            with open(options.out, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return report
    finally:
        if gateway is not None:
            gateway.close()
        for server in fleet:
            server.stop()


def render_report(report: dict) -> str:
    """Human-readable summary of one loadgen report."""
    latency = report["latency_ms"]
    lines = [
        f"{report['tenants']} tenants x "
        f"{report['requests_per_tenant']} requests "
        f"({report['mode']} mode): "
        f"{report['submitted']} submitted, "
        f"{report['accepted']} accepted, {report['shed']} shed "
        f"in {report['wall_seconds']:.2f}s",
        f"  outcomes: {report['outcomes']}",
        f"  backpressure: {report.get('retries', 0)} Retry-After "
        f"retries, {report.get('rate_limited', 0)} rate-limited",
        f"  throughput: {report['req_per_s']:.2f} done req/s",
    ]
    if latency["p50"] is not None:
        lines.append(
            f"  latency: p50 {latency['p50']:.0f} ms, "
            f"p99 {latency['p99']:.0f} ms"
        )
    batches = report.get("batch_jobs")
    if batches is not None:
        lines.append(
            f"  batching: {batches['sum']} of {report['jobs_run']} "
            f"run job(s) in {batches['count']} dispatch(es), "
            f"largest {batches['max']}"
        )
    if report.get("mode") == "fleet":
        lines.append(
            f"  stage connections: {report['task_connections_opened']} "
            f"opened for {report['tenants']} tenant(s) x "
            f"{report['plan_stages']} stage(s)"
        )
    accounting = "exact" if report["accounting_ok"] else "BROKEN"
    lines.append(f"  accounting (accepted + shed + rate-limited == "
                 f"submitted, all terminal): {accounting}")
    if report.get("isolation") is not None:
        isolation = report["isolation"]
        lines.append(
            f"  isolation: {isolation['recoveries']} cross-tenant "
            f"decrypts in {isolation['attempts']} attack(s), "
            f"own-key decrypt "
            f"{'ok' if isolation['self_decrypt_ok'] else 'BROKEN'}"
        )
    return "\n".join(lines)
