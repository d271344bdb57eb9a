"""The stdlib HTTP front door for multi-tenant encrypted inference.

Endpoints (JSON in/out; see docs/SERVING.md for full shapes):

* ``POST /v1/infer`` — body ``{"tenant", "input", "deadline"?}``;
  202 + ``{"job_id", ...}`` on admission, **503 +** ``Retry-After``
  when admission control sheds the request (a *transient* capacity
  condition), **403 without** ``Retry-After`` when tenant
  registration is refused outright (name off the allowlist, tenant
  table full — retrying cannot help), 400 on malformed input (a
  negative or non-finite ``deadline`` included), 404 on an unknown
  route.
* ``GET /v1/jobs/<id>?tenant=<name>`` — job status document; 403
  when the job belongs to a different tenant (cross-tenant status
  reads are refused, and counted), 404 when unknown.
* ``GET /metrics`` — the shared registry in Prometheus text format.
* ``GET /healthz`` — liveness.

The server is :class:`http.server.ThreadingHTTPServer` (stdlib only —
no new dependencies); each connection thread renames itself to
``repro-serve-http`` so the soak sentinels attribute it.  Tracing is
deliberately off (``NULL_TRACER``): a long-running server must not
accumulate spans without bound, while metrics are fixed-cardinality.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence
from urllib.parse import parse_qs, urlparse

from ..errors import (
    ReproError,
    ServeError,
    TenantError,
    TenantRejectedError,
)
from ..observability import NULL_TRACER, Observability
from ..planner.plan import ClusterSpec
from ..protocol.ratelimit import RateLimiter, RateLimitExceeded
from .jobs import JobManager, SHED, check_deadline
from .tenants import TenantRegistry


def build_serve_model(key: str = "tiny") -> tuple:
    """``(model, decimals, input_shape)`` for the gateway to serve.

    ``"tiny"`` is an untrained 1-conv+2-FC over ``(1, 8, 8)`` inputs
    — the same shape the networked-runtime tests use, fast enough
    for CI smoke runs; any other key is a Table III model key,
    trained via :func:`repro.experiments.common.prepare_model`.
    """
    if key == "tiny":
        from ..nn import model_zoo

        model = model_zoo.conv_fc(
            (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8, seed=3,
            name="serve-tiny",
        )
        return model, 2, (1, 8, 8)
    from ..experiments.common import prepare_model

    prepared = prepare_model(key)
    return (prepared.model, prepared.decimals,
            prepared.dataset.test_x[0].shape)


class _GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    gateway: "ServeGateway"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go into one buffer that the stdlib flushes once
    # per request, so every reply leaves as one segment; with Nagle
    # off it leaves at once instead of waiting for the client's
    # delayed ACK of the previous one.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # requests are counted in the registry, not stderr

    def _reply(self, status: int, doc: dict,
               headers: dict | None = None) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.server.gateway.obs.registry.counter(
            "serve_http_responses", code=str(status)
        ).inc()

    # -- routes --------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        threading.current_thread().name = "repro-serve-http"
        if urlparse(self.path).path != "/v1/infer":
            self._reply(404, {"error": f"no such route {self.path}"})
            return
        gateway = self.server.gateway
        try:
            length = int(self.headers.get("Content-Length", "0"))
            doc = json.loads(self.rfile.read(length) or b"{}")
            tenant = doc["tenant"]
            values = doc["input"]
            deadline = doc.get("deadline")
            if deadline is not None:
                deadline = check_deadline(float(deadline))
        except (KeyError, TypeError, ValueError, ServeError) as exc:
            self._reply(400, {"error": f"malformed request: {exc}"})
            return
        try:
            job = gateway.submit(tenant, values, deadline)
        except RateLimitExceeded as exc:
            # Transient by definition — the window slides open within
            # a second, so 429 with a Retry-After of one window.
            self._reply(429, {"error": str(exc)},
                        headers={"Retry-After": "1"})
            return
        except TenantRejectedError as exc:
            # Allowlist miss or a full tenant table: retrying cannot
            # succeed, so no Retry-After — 403, not 503.
            self._reply(403, {"error": str(exc)})
            return
        except TenantError as exc:
            self._reply(400, {"error": str(exc)})
            return
        except ReproError as exc:
            self._reply(500, {"error": repr(exc)})
            return
        if job.state == SHED:
            self._reply(503, job.to_dict(), headers={
                "Retry-After": _retry_after(gateway),
            })
            return
        self._reply(202, job.to_dict())

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        threading.current_thread().name = "repro-serve-http"
        gateway = self.server.gateway
        parsed = urlparse(self.path)
        if parsed.path == "/metrics":
            text = gateway.obs.registry.to_prometheus()
            body = text.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if parsed.path == "/healthz":
            self._reply(200, {"ok": True})
            return
        if parsed.path.startswith("/v1/jobs/"):
            job_id = parsed.path[len("/v1/jobs/"):]
            tenant = parse_qs(parsed.query).get("tenant", [None])[0]
            job = gateway.manager.tracker.get(job_id)
            if job is None:
                self._reply(404, {"error": f"unknown job {job_id}"})
                return
            if tenant != job.tenant:
                gateway.obs.registry.counter(
                    "serve_cross_tenant_denied",
                    tenant=str(tenant),
                ).inc()
                self._reply(403, {
                    "error": "job belongs to a different tenant",
                })
                return
            self._reply(200, job.to_dict())
            return
        self._reply(404, {"error": f"no such route {parsed.path}"})


def _retry_after(gateway: "ServeGateway") -> str:
    value = gateway.config.serve_retry_after
    return (str(int(value)) if float(value).is_integer()
            else str(value))


class ServeGateway:
    """The assembled serving stack: registry + job manager + HTTP.

    Args:
        model / decimals: what to serve (see
            :func:`build_serve_model`).
        config: the ``serve_*`` knobs plus everything the per-tenant
            runtimes derive from it (key size, master seed, net
            knobs, chaos knobs in fleet mode).
        mode: ``"local"`` (in-process stages) or ``"fleet"``
            (per-tenant coordinators over shared TCP workers).
        worker_addresses: fleet mode's worker addresses, in cluster
            server-id order.
        cluster: cluster spec mirroring the fleet; defaults to one
            model + one data server.
        host / port: HTTP listen address (port 0 = ephemeral).
        obs: observability; defaults to an enabled registry with
            tracing off (span growth is unbounded on a server).
    """

    def __init__(
        self,
        model,
        decimals: int,
        config,
        mode: str = "local",
        worker_addresses: Sequence[tuple] | None = None,
        cluster: ClusterSpec | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        obs: Observability | None = None,
        eval_data=None,
    ):
        self.config = config
        self.obs = obs if obs is not None else Observability(
            enabled=True, tracer=NULL_TRACER
        )
        # Per-tenant sliding-window rate limiters (serve_tenant_rps;
        # created lazily per registered tenant, so the map is bounded
        # by serve_max_tenants).
        self._limiters: dict[str, RateLimiter] = {}
        self._limiter_lock = threading.Lock()
        if cluster is None and mode == "fleet":
            if not worker_addresses or len(worker_addresses) < 2:
                raise ServeError(
                    "fleet mode needs at least two worker addresses "
                    "(one model role, one data role)"
                )
            model_workers = max(1, len(worker_addresses) // 2)
            cluster = ClusterSpec.homogeneous(
                model_workers,
                len(worker_addresses) - model_workers, 2,
            )
        self.registry = TenantRegistry(
            model, decimals, config, cluster=cluster, mode=mode,
            worker_addresses=worker_addresses, obs=self.obs,
            eval_data=eval_data,
        )
        self.manager = JobManager(self._run_dispatch, config,
                                  obs=self.obs)
        # Idle eviction must never reap a tenant with a job queued or
        # running; quota accounting is the authoritative signal.
        self.registry.in_use = \
            lambda name: self.manager.inflight(name) > 0
        self._httpd = _GatewayHTTPServer((host, port), _Handler)
        self._httpd.gateway = self
        self.address: tuple[str, int] = \
            self._httpd.server_address[:2]
        self._serve_thread: threading.Thread | None = None
        self._closed = False

    # -- job execution -------------------------------------------------

    def _run_dispatch(self, jobs) -> list:
        """One tenant's dispatch (the job manager never mixes
        tenants): one outcome per job."""
        return self.registry.get(jobs[0].tenant).run(jobs)

    def submit(self, tenant: str, values,
               deadline_seconds: float | None = None):
        """Admit one request (the HTTP POST body lands here).

        Creates the tenant on first use (so its keypair exists before
        any job runs), then defers to the job manager's admission
        control.  Raises :class:`TenantError` for a bad name or a
        full tenant table.
        """
        self.registry.ensure(tenant)
        self._admit_rate(tenant)
        return self.manager.submit(tenant, values, deadline_seconds)

    def _admit_rate(self, tenant: str) -> None:
        """Per-tenant sliding-window rate limiting (serve_tenant_rps).

        Runs *after* :meth:`TenantRegistry.ensure` so only registered
        tenants ever get a limiter — the map stays bounded by
        ``serve_max_tenants``.  Over-limit submits raise
        :class:`~repro.protocol.ratelimit.RateLimitExceeded` (the HTTP
        handler maps it to 429 + ``Retry-After``), counted per tenant
        in ``serve_rate_limited``.
        """
        rps = getattr(self.config, "serve_tenant_rps", 0)
        if rps <= 0:
            return
        with self._limiter_lock:
            limiter = self._limiters.get(tenant)
            if limiter is None:
                limiter = RateLimiter(rps, 1.0)
                self._limiters[tenant] = limiter
        try:
            limiter.admit()
        except RateLimitExceeded:
            self.obs.registry.counter(
                "serve_rate_limited", tenant=tenant
            ).inc()
            raise

    # -- elastic fleet (docs/ELASTIC.md) -------------------------------

    def grow_fleet(self, address: tuple, role: str = "model",
                   cores: int = 2) -> int:
        """Admit one worker into the shared fleet, live, for every
        tenant (and every future tenant).  Returns the server id."""
        return self.registry.grow(address, role, cores=cores)

    def shrink_fleet(self, server_id: int) -> None:
        """Drain one shared-fleet worker out of every tenant's
        coordinator; its slot id is retired, never reused."""
        self.registry.shrink(server_id)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the fleet and the HTTP accept loop; returns the
        bound ``(host, port)``."""
        self.manager.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"repro-serve-gateway-{self.address[1]}",
            daemon=True,
        )
        self._serve_thread.start()
        return self.address

    def close(self) -> None:
        """Orderly shutdown: stop accepting, fail queued jobs, wait
        for running jobs, release every tenant's coordinator."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self.manager.shutdown()
        self.registry.close()

    def __enter__(self) -> "ServeGateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
