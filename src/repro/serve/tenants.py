"""Per-tenant crypto isolation over one shared worker fleet.

Each tenant gets a :class:`TenantRuntime`: its **own Paillier
keypair** (the tenant's config seed is derived from the gateway's
master seed and the tenant name, and
:class:`~repro.protocol.roles.DataProvider` derives the keypair from
the seed), its own obfuscator state, its own stage plan, and — in
fleet mode — its own :class:`~repro.net.coordinator.Coordinator`
handshaking the *shared* workers under its tenant name.  Workers host
one isolated session per tenant (role pinned per process, keypair
pinned per tenant; see :mod:`repro.net.worker`), so tenant A's
private key never touches tenant B's ciphertexts anywhere in the
system.

The :class:`TenantRegistry` bounds how many tenants a gateway will
ever hold (:attr:`~repro.config.RuntimeConfig.serve_max_tenants`) and
validates names before they become metric labels or URL components.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..errors import (
    DeadlineExceededError,
    EncodingError,
    ServeError,
    TenantError,
    TenantRejectedError,
)
from ..observability import OBS_OFF, Observability
from ..planner.allocation import allocate_even
from ..planner.plan import ClusterSpec, ServerSpec
from ..protocol.roles import DataProvider, ModelProvider
from ..stream.pipeline import Pipeline, StreamStats
from ..stream.retry import REASON_DEADLINE, RetryPolicy
from .jobs import Job

#: Tenant names become metric labels, URL components, and handshake
#: header fields — keep them to a safe charset.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Seed salt separating loadgen/test probe RNGs from tenant streams.
_PROBE_SALT = 0x7E57

#: Largest accuracy drop (fraction) the compressed model may cost
#: against the dense one, where labeled evaluation data exists.
COMPRESS_ACCURACY_BUDGET = 0.01


def compress_served_model(model, config, eval_data=None):
    """The pruned + clustered form of the served model, plus a report.

    Runs :func:`repro.nn.rewrite.prune_model` at
    ``config.compress_sparsity`` then
    :func:`repro.scaling.clustering.cluster_model` at
    ``config.compress_clusters`` — deterministic under the gateway's
    master seed, so a restarted gateway re-derives byte-identical
    weights (and therefore identical handshake spec digests on the
    fleet).  With ``eval_data`` (an ``(inputs, labels)`` pair) the
    pruning pass backs off to stay inside
    :data:`COMPRESS_ACCURACY_BUDGET` and the combined dense-vs-
    compressed accuracy drop is gated — a budget-blowing compression
    raises :class:`~repro.errors.ServeError` at startup instead of
    silently serving a degraded model.  Without eval data (e.g. the
    untrained ``tiny`` smoke model) compression is structural only
    and the budget is enforced where data exists
    (:func:`repro.nn.rewrite.prune_model` with labeled data).
    """
    from ..nn.rewrite import prune_model
    from ..scaling.clustering import cluster_model

    inputs = labels = None
    if eval_data is not None:
        inputs, labels = eval_data
    pruned, prune_report = prune_model(
        model, config.compress_sparsity,
        inputs=inputs, labels=labels,
        accuracy_budget=COMPRESS_ACCURACY_BUDGET,
    )
    clustered, cluster_report = cluster_model(
        pruned, config.compress_clusters,
        seed=config.seed,
        inputs=inputs, labels=labels,
    )
    report = {
        "target_sparsity": config.compress_sparsity,
        "applied_sparsity": prune_report.applied_sparsity,
        "clusters": config.compress_clusters,
        "baseline_accuracy": prune_report.baseline_accuracy,
        "compressed_accuracy": cluster_report.clustered_accuracy,
    }
    if (prune_report.baseline_accuracy is not None
            and cluster_report.clustered_accuracy is not None):
        drop = (prune_report.baseline_accuracy
                - cluster_report.clustered_accuracy)
        report["accuracy_drop"] = drop
        if drop > COMPRESS_ACCURACY_BUDGET + 1e-12:
            raise ServeError(
                f"compressed model blows the accuracy budget: drop "
                f"{drop:.4f} > {COMPRESS_ACCURACY_BUDGET}"
            )
    return clustered, report


def tenant_seed(master_seed: int, name: str) -> int:
    """The config seed for one tenant: a cryptographic hash of the
    master seed and the tenant name.

    Collision resistance is a *security* requirement here, not a
    nicety: tenant names are attacker-chosen (any client can register
    one on first use), and two names with the same seed would derive
    the **same Paillier keypair** — the colliding tenant's
    DataProvider would hold the victim's private key.  A non-crypto
    checksum (the original implementation used CRC32) lets an
    adversary compute a colliding name outright, so the seed is the
    first 64 bits of SHA-256 over ``"{master_seed}:{name}"``.  The
    mapping stays deterministic, so a restarted gateway re-derives
    the same keys."""
    digest = hashlib.sha256(
        f"{master_seed}:{name}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


class TenantRuntime:
    """One tenant's isolated serving state.

    Args:
        name: validated tenant name.
        model / decimals: the shared served model (architecture and
            weights are the *gateway's*, not per-tenant) and its
            scaling exponent.
        config: the gateway config; this runtime replaces its seed
            with :func:`tenant_seed`, which re-keys the tenant's
            DataProvider, obfuscator, and every derived RNG stream.
        cluster: cluster spec shared by every tenant (it mirrors the
            one worker fleet).
        mode: ``"local"`` executes stages in-process (a fresh
            pipeline per dispatch over persistent providers); ``"fleet"``
            ships stages to the shared TCP workers through a
            per-tenant coordinator.
        worker_addresses: fleet mode's ``(host, port)`` per cluster
            server, in server-id order.
        obs: the gateway-wide observability sinks.
    """

    def __init__(
        self,
        name: str,
        model,
        decimals: int,
        config,
        cluster: ClusterSpec,
        mode: str = "local",
        worker_addresses: Sequence[tuple] | None = None,
        obs: Observability | None = None,
        departed: Sequence[int] = (),
    ):
        if mode not in ("local", "fleet"):
            raise TenantError(f"unknown tenant mode {mode!r}")
        self.name = name
        self.mode = mode
        self.obs = obs if obs is not None else OBS_OFF
        self.config = replace(config, seed=tenant_seed(config.seed,
                                                       name))
        self.model_provider = ModelProvider(
            model, decimals=decimals, config=self.config, obs=self.obs
        )
        self.data_provider = DataProvider(
            value_decimals=decimals, config=self.config, obs=self.obs
        )
        self.plan = allocate_even(self.model_provider.stages,
                                  cluster).plan
        self.input_shape = tuple(model.input_shape)
        # The most samples one lane-packed request may carry: the key's
        # lane capacity when the headroom analysis admits packing at
        # all, else 1 (every job runs as its own scalar request).
        lanes = self.model_provider.plan_lane_packing(2)
        self.max_lanes = lanes.capacity if lanes.admitted else 1
        self.jobs_run = 0
        #: Monotonic timestamp of creation / last dispatch, read by the
        #: registry's idle-eviction scan.
        self.last_used = time.monotonic()
        # One dispatch at a time per tenant: the providers' obfuscator
        # and engine state are session-scoped, not concurrency-safe.
        # The job manager already serializes per tenant; this lock is
        # the enforcement, not a hint.
        self._lock = threading.Lock()
        self._coordinator = None
        if mode == "fleet":
            from ..cluster import ElasticCoordinator

            if worker_addresses is None:
                raise TenantError(
                    "fleet mode needs worker addresses"
                )
            # Elastic so the gateway can grow/shrink the shared fleet
            # under load; membership joins arrive through the registry
            # API, not the wire, so no per-tenant listener is opened.
            self._coordinator = ElasticCoordinator(
                self.model_provider,
                self.data_provider,
                self.plan,
                [tuple(address) for address in worker_addresses],
                # Generous retries: a killed fleet worker heals via
                # reconnect in well under this window, so a job in
                # flight during the death completes instead of
                # dead-lettering.
                retry_policy=RetryPolicy(
                    max_retries=6, base_delay=0.05,
                    jitter_seed=self.config.seed ^ 0x10AD,
                ),
                obs=self.obs,
                tenant=name,
                membership=False,
            )
            # A tenant created after a shrink inherits the full
            # (append-only) address list; draining the departed slots
            # up front re-plans around them and keeps connect() from
            # dialing workers that are gone.
            for server_id in departed:
                self._coordinator.drain_member(server_id)
            self.plan = self._coordinator.plan

    # -- elastic fleet (docs/ELASTIC.md) -------------------------------

    def admit_worker(self, address: tuple, role: str,
                     cores: int = 2) -> None:
        """Admit one shared-fleet worker into this tenant's
        coordinator (live: jobs mid-flight keep streaming)."""
        if self._coordinator is None:
            raise TenantError(
                f"tenant {self.name!r} runs in local mode; there is "
                "no fleet to grow"
            )
        self._coordinator.admit_join(address, role, cores=cores)
        self.plan = self._coordinator.plan

    def drain_worker(self, server_id: int) -> None:
        """Drain one shared-fleet member out of this tenant's
        coordinator (re-plans around it, quiesces its connections)."""
        if self._coordinator is None:
            raise TenantError(
                f"tenant {self.name!r} runs in local mode; there is "
                "no fleet to shrink"
            )
        self._coordinator.drain_member(server_id)
        self.plan = self._coordinator.plan

    @property
    def public_key(self):
        return self.data_provider.public_key

    @property
    def private_key(self):
        """This tenant's private key — exposed for the isolation
        tests and loadgen cross-tenant decrypt probes only; nothing
        in the serving path reads it."""
        return self.data_provider.private_key

    def run(self, jobs: Sequence[Job]) -> list:
        """Execute one dispatch of this tenant's jobs.

        Returns one outcome per job, in order: its result payload, or
        the exception that ended it.  Each job's input is checked
        first (shape and the certified range), so a bad job fails
        alone.  The rest run in one stream: one job as a scalar
        request; two or more as lane-packed requests of at most
        :attr:`max_lanes` samples each (as even as possible), or as
        scalar requests when packing is not admitted.  A
        dead-lettered request fails every job in it with its reason
        (:class:`DeadlineExceededError` for a deadline).

        The earliest remaining deadline of the jobs is threaded into
        the stream as its per-request deadline, so the stream
        runtime's own deadline/dead-letter machinery does the
        enforcement mid-flight; a job whose budget is already blown
        goes ``DEADLINE`` without running.
        """
        outcomes: list = [None] * len(jobs)
        ready: list[tuple[int, np.ndarray]] = []
        now = time.monotonic()
        for index, job in enumerate(jobs):
            if job.deadline is not None and job.deadline <= now:
                outcomes[index] = DeadlineExceededError(
                    f"job {job.job_id} blew its deadline before "
                    "execution"
                )
                continue
            try:
                ready.append((index, self._check_input(job.payload)))
            except (EncodingError, ServeError) as exc:
                outcomes[index] = exc
        if not ready:
            return outcomes
        deadlines = [jobs[index].deadline for index, _ in ready
                     if jobs[index].deadline is not None]
        remaining = min(deadlines) - now if deadlines else None
        groups = self._request_groups(len(ready))
        inputs = [np.stack([x for _, x in ready[start:stop]])
                  for start, stop in groups]
        with self._lock:
            self.last_used = time.monotonic()
            stats = self._run_stream(inputs, remaining)
            self.jobs_run += len(ready)
            self.last_used = time.monotonic()
        for letter in stats.dead_letters:
            start, stop = groups[letter.request_id]
            error = (DeadlineExceededError(letter.describe())
                     if letter.reason == REASON_DEADLINE
                     else ServeError(
                         f"tenant {self.name}: {letter.describe()}"))
            for index, _ in ready[start:stop]:
                outcomes[index] = error
        rows: dict[int, list] = {}
        for result in stats.results:
            rows.setdefault(result.request_id, []).append(result)
        for request_id, results in rows.items():
            start, stop = groups[request_id]
            for (index, _), result in zip(ready[start:stop], results):
                outcomes[index] = {
                    "prediction": int(result.prediction),
                    "probabilities": [float(p)
                                      for p in result.probabilities],
                }
        return outcomes

    def _check_input(self, payload) -> np.ndarray:
        """One job's input as the served model's float64 input tensor.

        Raises:
            ServeError: not a numeric array of the model's input size.
            EncodingError: outside the certified range
                (:meth:`DataProvider.check_input`).
        """
        try:
            x = np.asarray(payload, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ServeError(f"malformed input: {exc}") from exc
        if x.size != int(np.prod(self.input_shape)):
            raise ServeError(
                f"input of shape {x.shape} does not fit the served "
                f"model's input shape {self.input_shape}"
            )
        return self.data_provider.check_input(
            x.reshape(self.input_shape))

    def _request_groups(self, count: int) -> list[tuple[int, int]]:
        """``[start, stop)`` of each request's jobs among ``count``
        ready ones: one job per request without packing, else
        ``ceil(count / max_lanes)`` requests as even as possible."""
        if self.max_lanes < 2:
            return [(index, index + 1) for index in range(count)]
        requests = -(-count // self.max_lanes)
        base, extra = divmod(count, requests)
        bounds = [0]
        for request in range(requests):
            bounds.append(bounds[-1] + base + (request < extra))
        return list(zip(bounds, bounds[1:]))

    def _run_stream(self, inputs: List[np.ndarray],
                    request_deadline: float | None) -> StreamStats:
        """One stream of batch inputs (``packed``: a batch of one runs
        as a scalar request)."""
        if self._coordinator is not None:
            return self._coordinator.run_stream(
                inputs, request_deadline=request_deadline, packed=True
            )
        pipeline = Pipeline(
            self.model_provider,
            self.data_provider,
            self.plan,
            retry_policy=RetryPolicy(
                max_retries=3, base_delay=0.01,
                jitter_seed=self.config.seed ^ 0x10AD,
            ),
            request_deadline=request_deadline,
            obs=self.obs,
        )
        return pipeline.run_stream(inputs, packed=True)

    def close(self) -> None:
        with self._lock:
            if self._coordinator is not None:
                self._coordinator.close()
                self._coordinator = None


class _Creation:
    """Per-name latch for a tenant runtime being built outside the
    registry lock; waiters block on ``event`` and re-raise ``error``
    when the creator failed."""

    __slots__ = ("event", "error")

    def __init__(self):
        self.event = threading.Event()
        self.error: BaseException | None = None


class TenantRegistry:
    """Bounded name -> :class:`TenantRuntime` registry.

    Tenants are created on first use (``ensure``), up to
    ``config.serve_max_tenants``; lookups for unknown tenants raise
    :class:`TenantError` so the gateway can 404/403 precisely.

    Registration hardening (all knobs on the config):

    * ``serve_tenant_allowlist`` — when non-empty, names off the list
      are refused with :class:`TenantRejectedError` *before* any
      keygen is spent on them.
    * ``serve_tenant_idle_seconds`` — when the table is full, the
      least-recently-used tenant that is idle past this threshold
      (and has no job in flight, per the injected :attr:`in_use`
      predicate) is evicted to make room; 0 disables eviction and a
      full table stays full.
    * Runtime construction (Paillier keygen, fleet handshakes) runs
      **outside** the registry lock behind a per-name latch, so one
      new tenant's keygen never stalls ``get`` for every running job.
    """

    def __init__(
        self,
        model,
        decimals: int,
        config,
        cluster: ClusterSpec | None = None,
        mode: str = "local",
        worker_addresses: Sequence[tuple] | None = None,
        obs: Observability | None = None,
        eval_data=None,
    ):
        self._model = model
        self._decimals = decimals
        self.config = config
        #: Compression report when ``config.compress_enabled`` (the
        #: pruned + clustered model is derived once, eagerly, and
        #: shared by every opted-in tenant — each tenant still builds
        #: its own keys, plans, and provider state from it).
        self.compression: dict | None = None
        self._compressed_model = None
        if getattr(config, "compress_enabled", False):
            self._compressed_model, self.compression = \
                compress_served_model(model, config,
                                      eval_data=eval_data)
        self.cluster = (cluster if cluster is not None
                        else ClusterSpec.homogeneous(1, 1, 2))
        self.mode = mode
        self._worker_addresses = (list(worker_addresses)
                                  if worker_addresses is not None
                                  else None)
        #: Server ids drained out of the shared fleet; slots are
        #: append-only, so departed ids are masked rather than reused.
        self._departed: set[int] = set()
        self.obs = obs if obs is not None else OBS_OFF
        self._tenants: Dict[str, TenantRuntime] = {}
        self._pending: Dict[str, _Creation] = {}
        self._lock = threading.Lock()
        #: Injected by the gateway: ``in_use(name)`` is True while the
        #: tenant has any job queued or running, which vetoes idle
        #: eviction.  None = only the runtime's own run-lock is
        #: checked.
        self.in_use: Callable[[str], bool] | None = None

    def ensure(self, name: str) -> TenantRuntime:
        """The runtime for ``name``, creating it on first use.

        The expensive construction (keygen, fleet handshakes) happens
        outside the registry lock; concurrent ``ensure`` calls for the
        same name share one construction, and calls for *other*
        names — including plain ``get`` from the dispatcher — never
        block behind it.
        """
        if not isinstance(name, str) or not _TENANT_NAME.match(name):
            raise TenantError(
                f"invalid tenant name {name!r} (want "
                "[A-Za-z0-9][A-Za-z0-9_.-]{0,63})"
            )
        allowlist = self.config.serve_tenant_allowlist
        if allowlist and name not in allowlist:
            raise TenantRejectedError(
                f"tenant {name!r} is not on the allowlist; "
                "registration refused"
            )
        while True:
            evicted = None
            with self._lock:
                runtime = self._tenants.get(name)
                if runtime is not None:
                    return runtime
                latch = self._pending.get(name)
                if latch is None:
                    occupied = len(self._tenants) + len(self._pending)
                    if occupied >= self.config.serve_max_tenants:
                        evicted = self._pick_idle_locked()
                        if evicted is None:
                            raise TenantRejectedError(
                                f"tenant cap reached "
                                f"({self.config.serve_max_tenants}) "
                                f"and no tenant is evictable; "
                                f"refusing new tenant {name!r}"
                            )
                        del self._tenants[evicted.name]
                    latch = _Creation()
                    self._pending[name] = latch
                    break
            # Someone else is mid-keygen for this name: wait off-lock,
            # then re-read (success) or re-raise (their failure).
            latch.event.wait()
            if latch.error is not None:
                raise TenantError(
                    f"tenant {name!r} failed to initialize: "
                    f"{latch.error!r}"
                ) from latch.error
        if evicted is not None:
            evicted.close()
            self.obs.registry.counter("serve_tenants_evicted").inc()
        with self._lock:
            cluster = self.cluster
            addresses = (list(self._worker_addresses)
                         if self._worker_addresses is not None
                         else None)
            departed = tuple(sorted(self._departed))
        try:
            runtime = TenantRuntime(
                name, self._model_for(name), self._decimals,
                self.config, cluster, mode=self.mode,
                worker_addresses=addresses,
                obs=self.obs, departed=departed,
            )
        except BaseException as exc:
            with self._lock:
                self._pending.pop(name, None)
            latch.error = exc
            latch.event.set()
            raise
        with self._lock:
            self._pending.pop(name, None)
            self._tenants[name] = runtime
            self.obs.registry.gauge("serve_tenants").set(
                len(self._tenants)
            )
        latch.event.set()
        return runtime

    def _model_for(self, name: str):
        """The model this tenant serves: the compressed form when
        compression is on and the tenant is opted in
        (``serve_compress_tenants`` empty = every tenant), else the
        dense original."""
        if self._compressed_model is None:
            return self._model
        chosen = getattr(self.config, "serve_compress_tenants", ())
        if chosen and name not in chosen:
            return self._model
        return self._compressed_model

    def _pick_idle_locked(self) -> TenantRuntime | None:
        """The least-recently-used evictable tenant, or None.

        Evictable = idle past ``serve_tenant_idle_seconds`` (0 = the
        feature is off), not mid-job on its own run lock, and not in
        use per the gateway's quota accounting.  Caller holds the
        registry lock."""
        idle_after = self.config.serve_tenant_idle_seconds
        if idle_after <= 0:
            return None
        now = time.monotonic()
        candidates = [
            runtime for runtime in self._tenants.values()
            if now - runtime.last_used >= idle_after
            and not runtime._lock.locked()
            and not (self.in_use is not None
                     and self.in_use(runtime.name))
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: r.last_used)

    # -- elastic fleet (docs/ELASTIC.md) -------------------------------

    def grow(self, address: tuple, role: str,
             cores: int = 2) -> int:
        """Admit one worker into every tenant's fleet.

        Appends the worker to the registry's cluster and address list
        (so tenants created later see it from birth) and fans the
        admit out to every existing tenant's coordinator — live; jobs
        in flight keep streaming.  Returns the new server id.
        """
        if self.mode != "fleet":
            raise ServeError("grow() only applies to fleet mode")
        address = (str(address[0]), int(address[1]))
        with self._lock:
            addresses = self._worker_addresses or []
            server_id = len(addresses)
            addresses.append(address)
            self._worker_addresses = addresses
            self.cluster = ClusterSpec(
                self.cluster.servers
                + (ServerSpec(server_id, int(cores), role),),
                self.cluster.hyperthreading,
            )
            tenants = list(self._tenants.values())
        for runtime in tenants:
            runtime.admit_worker(address, role, cores=cores)
        self.obs.registry.counter("serve_fleet_grown").inc()
        self._refresh_fleet_gauge()
        return server_id

    def shrink(self, server_id: int) -> None:
        """Drain one worker out of every tenant's fleet.

        The slot's id stays reserved (append-only ids); tenants
        created later drain it at construction so they never dial
        the departed worker.
        """
        if self.mode != "fleet":
            raise ServeError("shrink() only applies to fleet mode")
        with self._lock:
            known = len(self._worker_addresses or [])
            if not 0 <= server_id < known:
                raise ServeError(
                    f"no fleet worker with server id {server_id}"
                )
            if server_id in self._departed:
                raise ServeError(
                    f"fleet worker {server_id} already drained"
                )
            target = self.cluster.servers[server_id]
            survivors = [
                server for server in self.cluster.servers
                if server.server_id != server_id
                and server.server_id not in self._departed
            ]
            if not any(server.role == target.role
                       for server in survivors):
                raise ServeError(
                    f"cannot drain the last {target.role} worker "
                    f"(server {server_id})"
                )
            self._departed.add(server_id)
            tenants = list(self._tenants.values())
        for runtime in tenants:
            runtime.drain_worker(server_id)
        self.obs.registry.counter("serve_fleet_shrunk").inc()
        self._refresh_fleet_gauge()

    def _refresh_fleet_gauge(self) -> None:
        with self._lock:
            present = (len(self._worker_addresses or [])
                       - len(self._departed))
        self.obs.registry.gauge("serve_fleet_size").set(present)

    def get(self, name: str) -> TenantRuntime:
        """The runtime for an *existing* tenant (no creation)."""
        with self._lock:
            runtime = self._tenants.get(name)
        if runtime is None:
            raise TenantError(f"unknown tenant {name!r}")
        return runtime

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def close(self) -> None:
        with self._lock:
            tenants = list(self._tenants.values())
            self._tenants.clear()
        for runtime in tenants:
            runtime.close()
