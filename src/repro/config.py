"""Runtime configuration for the PP-Stream reproduction.

A single :class:`RuntimeConfig` object gathers the knobs that cut across
subsystems: the Paillier key size, RNG seeding, the crypto engine, the
networked runtime, serving, compression and the elastic fleet.

The paper's prototype fixes the key size at 2048 bits (Section V).  Pure
Python is slower than the GMP-based prototype, so the *default* here is a
smaller key that keeps tests fast; the key size is a parameter everywhere,
never a separate code path, and the Fig. 1 benchmark exercises the real
512/1024/2048-bit sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigurationError

#: Key size used by the paper's prototype (bits).
PAPER_KEY_SIZE = 2048

#: Default key size for tests and examples (bits).  Small enough that a
#: full protocol round-trip over a small model completes in well under a
#: second, large enough to exercise every code path (CRT split, signed
#: encoding headroom checks).
DEFAULT_KEY_SIZE = 256

#: Maximum number of decimal places explored by parameter scaling (paper
#: Section IV-A fixes this to 6).
MAX_SCALING_DECIMALS = 6

#: Accuracy-degradation threshold for accepting a scaling factor
#: (paper default: 0.01 percentage points).
SCALING_ACCURACY_THRESHOLD = 0.01


@dataclass(frozen=True)
class RuntimeConfig:
    """Immutable bundle of cross-cutting runtime settings.

    Attributes:
        key_size: Paillier modulus size in bits.
        seed: master RNG seed; all randomness in the package derives from
            it so experiments are reproducible.
        hyperthreading: whether a physical core may host two threads
            (constraint (8) of the allocation ILP multiplies capacity by 2).
        blinding_pool_size: target number of precomputed ``h_s^x mod
            n^2`` blinding factors the engine keeps ready; online
            encryption then costs one modular multiply.
        power_window_bits: unused.  The matvec kernel runs per-column
            addition-sequence schedules and has no digit width; the
            field stays only because ``perfbench/layers.py`` reads it,
            and goes with the next PR that edits ``perfbench/``.
        bigint_backend: which modular-arithmetic implementation the
            crypto layer uses (:mod:`repro.crypto.backend`):
            ``"auto"`` (the default — gmpy2 where installed, pure
            Python otherwise), ``"python"``, or ``"gmpy2"`` (errors if
            gmpy2 is absent).  Backends are bit-identical; the knob
            only changes speed.
        pack_lanes: requested batch-axis lane count for lane-packed
            inference (:class:`repro.crypto.encoding.LanePacker`).
            0 (the default) disables packing; with ``pack_lanes = B``,
            ``InferenceSession.run_batch`` packs B samples per
            ciphertext when the headroom analysis admits the model,
            falling back to per-sample runs otherwise.
        observability: enable the metrics registry + tracer
            (:mod:`repro.observability`).  Off by default: disabled
            observability hands every hot path shared no-op objects,
            so the instrumented code costs one empty method call per
            point (docs/OBSERVABILITY.md has the measurements).
        net_connect_timeout: seconds the networked runtime
            (:mod:`repro.net`) waits for a TCP connect (coordinator
            dialing a worker, including failover redials).
        net_handshake_timeout: seconds the coordinator waits for a
            worker's handshake ack — larger than the connect timeout
            because a fresh worker may train its model stage state
            before acking.
        net_request_timeout: seconds a stage proxy waits for one
            stage-task round trip before declaring the worker dead and
            raising a transient error (the retry policy then re-runs
            the item, typically against a failover worker).
        net_heartbeat_interval: seconds between coordinator heartbeat
            pings on each worker control channel.
        net_heartbeat_timeout: heartbeat round-trip budget; a worker
            that misses it is marked dead and its in-flight items are
            re-injected through the retry/dead-letter path.
        net_max_frame_bytes: hard ceiling on one transport frame
            (header + payload).  Oversized sends and oversized declared
            receive lengths both fail with
            :class:`~repro.errors.TransportError` instead of
            exhausting memory.
        net_reconnect_attempts: redial attempts the coordinator makes
            against a failed worker's *existing* address (exponential
            backoff between attempts) before falling back to the
            respawn hook.  Transient network partitions therefore heal
            by reconnecting instead of consuming the worker restart
            budget.  0 disables reconnection (pre-reconnect behaviour:
            straight to respawn/failover).
        net_reconnect_base_delay: seconds before the first reconnect
            attempt; doubles per attempt up to
            ``net_reconnect_max_delay``.
        net_reconnect_max_delay: reconnect backoff ceiling in seconds.
        net_breaker_threshold: consecutive connection failures on one
            worker slot before its circuit breaker opens and reconnect
            attempts are suspended (protection against reconnect
            storms on a flapping worker).
        net_breaker_cooldown: seconds an open circuit breaker waits
            before allowing one half-open probe dial.
        chaos_seed: extra seed folded into the master seed for the
            network chaos plan (:mod:`repro.net.chaos`), so chaos
            schedules can vary independently of the crypto RNG.
        chaos_delay_rate: probability that one outbound frame is
            delayed ``chaos_delay_seconds`` before hitting the wire.
        chaos_delay_seconds: frame-delay duration.
        chaos_drop_rate: probability that one outbound frame is cut
            mid-frame and the connection hard-closed (the peer sees a
            truncated frame, the sender a
            :class:`~repro.errors.TransportError`).
        chaos_dup_heartbeat_rate: probability that a heartbeat frame
            is sent twice — the peer's extra ack then arrives
            out-of-order on the control channel, exercising stale-ack
            tolerance.
        chaos_slow_read_rate: probability that one receive is delayed
            ``chaos_slow_read_seconds`` before reading.
        chaos_slow_read_seconds: slow-read stall duration.

        All ``chaos_*`` rates default to 0.0: chaos is off unless a
        knob is raised (``with_chaos``); handshake frames are always
        exempt so a chaos-enabled run can still connect.

        serve_queue_capacity: bounded request-queue depth of the
            serving gateway's job manager (:mod:`repro.serve`).  A
            submit that finds the queue full is **shed** (HTTP 503 +
            ``Retry-After``) instead of queued — admission control
            before queues blow up.
        serve_workers: job-worker threads draining the gateway queue
            (the shared execution slots all tenants multiplex onto).
        serve_tenant_quota: per-tenant in-flight job ceiling (queued +
            running).  A tenant at quota has further submits shed with
            reason ``quota`` while other tenants keep being admitted.
        serve_max_tenants: hard cap on registered tenants; each tenant
            costs a Paillier keypair and isolated provider state.
        serve_default_deadline: end-to-end job deadline in seconds
            (queue wait + service) applied when a request does not
            carry its own; a job that blows it lands in the DEADLINE
            terminal state.  ``0`` disables the default deadline.
        serve_retry_after: the ``Retry-After`` hint (seconds) the
            gateway attaches to shed responses.
        serve_tenant_allowlist: when non-empty, only these tenant
            names may be created — first-use registration of any
            other name is refused with a non-retryable 4xx.  Empty
            (the default) keeps registration open, which is fine for
            tests and trusted networks but lets any client burn
            tenant slots (and Paillier keygens) on junk names.
        serve_tenant_idle_seconds: evict the least-recently-used
            *idle* tenant (no job queued or running) once it has been
            unused this many seconds **and** the tenant table is full
            — so a name-spray cannot permanently brick registration.
            0 (the default) never evicts: a full table is permanent
            until restart.
        serve_job_history: retained *terminal* jobs per gateway.  The
            tracker folds older terminal jobs into monotonic per-state
            counters (the ``accepted + shed == submitted`` identity
            stays exact forever) but frees their payloads/results, so
            a long-running gateway's memory is bounded by traffic
            rate, not lifetime.  Status polls for evicted job ids
            return 404.
        serve_tenant_rps: per-tenant request-rate ceiling at the
            gateway front door, in admitted requests per one-second
            sliding window (:class:`repro.protocol.ratelimit
            .RateLimiter`).  An over-limit submit gets HTTP 429 +
            ``Retry-After`` *before* any tenant runtime work happens.
            0 (the default) disables rate limiting.
        serve_compress_tenants: with ``compress_enabled``, restricts
            the compressed model to these tenant names — everyone
            else keeps the dense model (per-tenant opt-in).  Empty
            (the default) serves the compressed model to every
            tenant once ``compress_enabled`` is set.
        compress_enabled: serve the pruned + clustered form of the
            model (:func:`repro.nn.rewrite.prune_model` +
            :func:`repro.scaling.clustering.cluster_model`) instead
            of the dense one.  Compressed layers automatically get
            per-layer :class:`~repro.crypto.sparse.SparseMatvecPlan`
            structures at session setup, which every linear-stage
            runtime (in-process, threaded stream, TCP fleet) routes
            through the engine's compressed kernels — bit-identical
            to the dense path on the surviving weights.
        compress_sparsity: target fraction of weights pruned to zero
            per layer when ``compress_enabled``.
        compress_clusters: distinct weight values per layer after
            clustering when ``compress_enabled``.
        compress_accuracy_budget: largest accuracy drop (fraction)
            the compressed model may cost versus the dense baseline.
            Enforced wherever labeled evaluation data is available
            (serving, when the gateway is handed an eval set); pruning
            backs off its sparsity target to stay inside the budget.
        cluster_backlog_high: per-stage queue depth at which the
            :class:`~repro.cluster.rebalancer.Rebalancer` triggers an
            online re-plan (docs/ELASTIC.md).
        cluster_backlog_low: depth the backlog must fall below before
            the trigger re-arms (hysteresis; must be <= the high
            threshold).
        cluster_rebalance_cooldown: minimum seconds between two
            applied re-plans, so a noisy gauge cannot thrash plans.
        cluster_rebalance_interval: period of the rebalancer's
            background control loop when started as a thread.
        cluster_min_service_samples: observations a stage's
            service-time histogram needs before its measured mean is
            trusted as a planner input.
        cluster_join_timeout: deadline for the join/announce round
            trip against the coordinator's membership listener.
    """

    key_size: int = DEFAULT_KEY_SIZE
    seed: int = 20240519
    hyperthreading: bool = True
    blinding_pool_size: int = 128
    power_window_bits: int = 4
    bigint_backend: str = "auto"
    pack_lanes: int = 0
    observability: bool = False
    net_connect_timeout: float = 5.0
    net_handshake_timeout: float = 60.0
    net_request_timeout: float = 120.0
    net_heartbeat_interval: float = 0.5
    net_heartbeat_timeout: float = 5.0
    net_max_frame_bytes: int = 64 * 1024 * 1024
    net_reconnect_attempts: int = 3
    net_reconnect_base_delay: float = 0.05
    net_reconnect_max_delay: float = 2.0
    net_breaker_threshold: int = 5
    net_breaker_cooldown: float = 5.0
    chaos_seed: int = 0
    chaos_delay_rate: float = 0.0
    chaos_delay_seconds: float = 0.02
    chaos_drop_rate: float = 0.0
    chaos_dup_heartbeat_rate: float = 0.0
    chaos_slow_read_rate: float = 0.0
    chaos_slow_read_seconds: float = 0.02
    serve_queue_capacity: int = 32
    serve_workers: int = 4
    serve_tenant_quota: int = 8
    serve_max_tenants: int = 16
    serve_default_deadline: float = 30.0
    serve_retry_after: float = 1.0
    serve_tenant_allowlist: tuple = ()
    serve_tenant_idle_seconds: float = 0.0
    serve_job_history: int = 4096
    serve_tenant_rps: int = 0
    serve_compress_tenants: tuple = ()
    compress_enabled: bool = False
    compress_sparsity: float = 0.7
    compress_clusters: int = 8
    compress_accuracy_budget: float = 0.01
    cluster_backlog_high: float = 8.0
    cluster_backlog_low: float = 2.0
    cluster_rebalance_cooldown: float = 5.0
    cluster_rebalance_interval: float = 1.0
    cluster_min_service_samples: int = 3
    cluster_join_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.key_size < 64:
            raise ConfigurationError(
                f"key_size must be >= 64 bits, got {self.key_size}"
            )
        if self.key_size % 2 != 0:
            raise ConfigurationError(
                f"key_size must be even, got {self.key_size}"
            )
        if self.blinding_pool_size < 0:
            raise ConfigurationError(
                "blinding_pool_size must be non-negative, got "
                f"{self.blinding_pool_size}"
            )
        if self.bigint_backend not in ("auto", "python", "gmpy2"):
            raise ConfigurationError(
                "bigint_backend must be 'auto', 'python', or 'gmpy2', "
                f"got {self.bigint_backend!r}"
            )
        if self.pack_lanes < 0:
            raise ConfigurationError(
                f"pack_lanes must be non-negative, got {self.pack_lanes}"
            )
        for knob in ("net_connect_timeout", "net_handshake_timeout",
                     "net_request_timeout", "net_heartbeat_interval",
                     "net_heartbeat_timeout"):
            if getattr(self, knob) <= 0:
                raise ConfigurationError(
                    f"{knob} must be positive seconds, got "
                    f"{getattr(self, knob)}"
                )
        if self.net_heartbeat_timeout < self.net_heartbeat_interval:
            raise ConfigurationError(
                "net_heartbeat_timeout must be >= net_heartbeat_interval "
                f"({self.net_heartbeat_timeout} < "
                f"{self.net_heartbeat_interval})"
            )
        if self.net_max_frame_bytes < 1024:
            raise ConfigurationError(
                "net_max_frame_bytes must be >= 1024 (one frame must "
                f"fit at least a header), got {self.net_max_frame_bytes}"
            )
        if self.net_reconnect_attempts < 0:
            raise ConfigurationError(
                "net_reconnect_attempts must be non-negative, got "
                f"{self.net_reconnect_attempts}"
            )
        for knob in ("net_reconnect_base_delay",
                     "net_reconnect_max_delay"):
            if getattr(self, knob) < 0:
                raise ConfigurationError(
                    f"{knob} must be non-negative seconds, got "
                    f"{getattr(self, knob)}"
                )
        if self.net_breaker_threshold < 1:
            raise ConfigurationError(
                "net_breaker_threshold must be >= 1, got "
                f"{self.net_breaker_threshold}"
            )
        if self.net_breaker_cooldown <= 0:
            raise ConfigurationError(
                "net_breaker_cooldown must be positive seconds, got "
                f"{self.net_breaker_cooldown}"
            )
        for knob in ("chaos_delay_rate", "chaos_drop_rate",
                     "chaos_dup_heartbeat_rate", "chaos_slow_read_rate"):
            if not 0.0 <= getattr(self, knob) <= 1.0:
                raise ConfigurationError(
                    f"{knob} must be a probability in [0, 1], got "
                    f"{getattr(self, knob)}"
                )
        for knob in ("chaos_delay_seconds", "chaos_slow_read_seconds"):
            if getattr(self, knob) < 0:
                raise ConfigurationError(
                    f"{knob} must be non-negative seconds, got "
                    f"{getattr(self, knob)}"
                )
        for knob in ("serve_queue_capacity", "serve_workers",
                     "serve_tenant_quota", "serve_max_tenants"):
            if getattr(self, knob) < 1:
                raise ConfigurationError(
                    f"{knob} must be >= 1, got {getattr(self, knob)}"
                )
        if self.serve_default_deadline < 0:
            raise ConfigurationError(
                "serve_default_deadline must be non-negative seconds "
                f"(0 disables), got {self.serve_default_deadline}"
            )
        if self.serve_retry_after <= 0:
            raise ConfigurationError(
                "serve_retry_after must be positive seconds, got "
                f"{self.serve_retry_after}"
            )
        # The allowlist crosses the wire as a JSON array; normalize it
        # back to a tuple so the frozen dataclass stays hashable.
        object.__setattr__(self, "serve_tenant_allowlist",
                           tuple(self.serve_tenant_allowlist))
        for entry in self.serve_tenant_allowlist:
            if not isinstance(entry, str) or not entry:
                raise ConfigurationError(
                    "serve_tenant_allowlist entries must be non-empty "
                    f"strings, got {entry!r}"
                )
        if self.serve_tenant_idle_seconds < 0:
            raise ConfigurationError(
                "serve_tenant_idle_seconds must be non-negative "
                f"seconds (0 disables), got "
                f"{self.serve_tenant_idle_seconds}"
            )
        if self.serve_job_history < 1:
            raise ConfigurationError(
                "serve_job_history must be >= 1, got "
                f"{self.serve_job_history}"
            )
        if self.serve_tenant_rps < 0:
            raise ConfigurationError(
                "serve_tenant_rps must be non-negative "
                f"(0 disables), got {self.serve_tenant_rps}"
            )
        # Like the allowlist: crosses the wire as a JSON array.
        object.__setattr__(self, "serve_compress_tenants",
                           tuple(self.serve_compress_tenants))
        for entry in self.serve_compress_tenants:
            if not isinstance(entry, str) or not entry:
                raise ConfigurationError(
                    "serve_compress_tenants entries must be non-empty "
                    f"strings, got {entry!r}"
                )
        if not 0.0 <= self.compress_sparsity < 1.0:
            raise ConfigurationError(
                "compress_sparsity must be in [0, 1), got "
                f"{self.compress_sparsity}"
            )
        if self.compress_clusters < 1:
            raise ConfigurationError(
                "compress_clusters must be >= 1, got "
                f"{self.compress_clusters}"
            )
        if self.compress_accuracy_budget < 0:
            raise ConfigurationError(
                "compress_accuracy_budget must be non-negative, got "
                f"{self.compress_accuracy_budget}"
            )
        if self.cluster_backlog_high <= 0:
            raise ConfigurationError(
                "cluster_backlog_high must be positive, got "
                f"{self.cluster_backlog_high}"
            )
        if self.cluster_backlog_low < 0:
            raise ConfigurationError(
                "cluster_backlog_low must be non-negative, got "
                f"{self.cluster_backlog_low}"
            )
        if self.cluster_backlog_low > self.cluster_backlog_high:
            raise ConfigurationError(
                "cluster_backlog_low must be <= cluster_backlog_high "
                f"({self.cluster_backlog_low} > "
                f"{self.cluster_backlog_high})"
            )
        if self.cluster_rebalance_cooldown < 0:
            raise ConfigurationError(
                "cluster_rebalance_cooldown must be non-negative "
                f"seconds, got {self.cluster_rebalance_cooldown}"
            )
        if self.cluster_rebalance_interval <= 0:
            raise ConfigurationError(
                "cluster_rebalance_interval must be positive seconds, "
                f"got {self.cluster_rebalance_interval}"
            )
        if self.cluster_min_service_samples < 1:
            raise ConfigurationError(
                "cluster_min_service_samples must be >= 1, got "
                f"{self.cluster_min_service_samples}"
            )
        if self.cluster_join_timeout <= 0:
            raise ConfigurationError(
                "cluster_join_timeout must be positive seconds, got "
                f"{self.cluster_join_timeout}"
            )

    def with_key_size(self, key_size: int) -> "RuntimeConfig":
        """Return a copy of this config with a different key size."""
        return replace(self, key_size=key_size)

    def with_seed(self, seed: int) -> "RuntimeConfig":
        """Return a copy of this config with a different master seed."""
        return replace(self, seed=seed)

    def with_observability(self, enabled: bool = True) -> "RuntimeConfig":
        """Return a copy of this config with observability toggled."""
        return replace(self, observability=enabled)

    def with_pack_lanes(self, pack_lanes: int) -> "RuntimeConfig":
        """Return a copy of this config with a different batch-axis
        lane count for lane-packed inference."""
        return replace(self, pack_lanes=pack_lanes)

    def with_bigint_backend(self, bigint_backend: str) -> "RuntimeConfig":
        """Return a copy of this config with a different bigint
        backend ('auto', 'python', or 'gmpy2')."""
        return replace(self, bigint_backend=bigint_backend)

    def with_net(
        self,
        connect_timeout: float | None = None,
        handshake_timeout: float | None = None,
        request_timeout: float | None = None,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float | None = None,
        max_frame_bytes: int | None = None,
    ) -> "RuntimeConfig":
        """Return a copy with the given networked-runtime knobs
        replaced (omitted ones keep their current values)."""
        updates = {
            "net_connect_timeout": connect_timeout,
            "net_handshake_timeout": handshake_timeout,
            "net_request_timeout": request_timeout,
            "net_heartbeat_interval": heartbeat_interval,
            "net_heartbeat_timeout": heartbeat_timeout,
            "net_max_frame_bytes": max_frame_bytes,
        }
        return replace(self, **{key: value
                                for key, value in updates.items()
                                if value is not None})

    def with_reconnect(
        self,
        attempts: int | None = None,
        base_delay: float | None = None,
        max_delay: float | None = None,
        breaker_threshold: int | None = None,
        breaker_cooldown: float | None = None,
    ) -> "RuntimeConfig":
        """Return a copy with the reconnect / circuit-breaker knobs
        replaced (omitted ones keep their current values)."""
        updates = {
            "net_reconnect_attempts": attempts,
            "net_reconnect_base_delay": base_delay,
            "net_reconnect_max_delay": max_delay,
            "net_breaker_threshold": breaker_threshold,
            "net_breaker_cooldown": breaker_cooldown,
        }
        return replace(self, **{key: value
                                for key, value in updates.items()
                                if value is not None})

    def with_chaos(
        self,
        seed: int | None = None,
        delay_rate: float | None = None,
        delay_seconds: float | None = None,
        drop_rate: float | None = None,
        dup_heartbeat_rate: float | None = None,
        slow_read_rate: float | None = None,
        slow_read_seconds: float | None = None,
    ) -> "RuntimeConfig":
        """Return a copy with the network-chaos knobs replaced
        (omitted ones keep their current values)."""
        updates = {
            "chaos_seed": seed,
            "chaos_delay_rate": delay_rate,
            "chaos_delay_seconds": delay_seconds,
            "chaos_drop_rate": drop_rate,
            "chaos_dup_heartbeat_rate": dup_heartbeat_rate,
            "chaos_slow_read_rate": slow_read_rate,
            "chaos_slow_read_seconds": slow_read_seconds,
        }
        return replace(self, **{key: value
                                for key, value in updates.items()
                                if value is not None})

    def with_serve(
        self,
        queue_capacity: int | None = None,
        workers: int | None = None,
        tenant_quota: int | None = None,
        max_tenants: int | None = None,
        default_deadline: float | None = None,
        retry_after: float | None = None,
        tenant_allowlist: tuple | None = None,
        tenant_idle_seconds: float | None = None,
        job_history: int | None = None,
        tenant_rps: int | None = None,
    ) -> "RuntimeConfig":
        """Return a copy with the serving-gateway knobs replaced
        (omitted ones keep their current values)."""
        updates = {
            "serve_queue_capacity": queue_capacity,
            "serve_workers": workers,
            "serve_tenant_quota": tenant_quota,
            "serve_max_tenants": max_tenants,
            "serve_default_deadline": default_deadline,
            "serve_retry_after": retry_after,
            "serve_tenant_allowlist": tenant_allowlist,
            "serve_tenant_idle_seconds": tenant_idle_seconds,
            "serve_job_history": job_history,
            "serve_tenant_rps": tenant_rps,
        }
        return replace(self, **{key: value
                                for key, value in updates.items()
                                if value is not None})

    def with_compress(
        self,
        enabled: bool | None = None,
        sparsity: float | None = None,
        clusters: int | None = None,
        accuracy_budget: float | None = None,
        tenants: tuple | None = None,
    ) -> "RuntimeConfig":
        """Return a copy with the model-compression knobs replaced
        (omitted ones keep their current values)."""
        updates = {
            "compress_enabled": enabled,
            "compress_sparsity": sparsity,
            "compress_clusters": clusters,
            "compress_accuracy_budget": accuracy_budget,
            "serve_compress_tenants": tenants,
        }
        return replace(self, **{key: value
                                for key, value in updates.items()
                                if value is not None})

    def with_cluster(
        self,
        backlog_high: float | None = None,
        backlog_low: float | None = None,
        rebalance_cooldown: float | None = None,
        rebalance_interval: float | None = None,
        min_service_samples: int | None = None,
        join_timeout: float | None = None,
    ) -> "RuntimeConfig":
        """Return a copy with the elastic-fleet knobs replaced
        (omitted ones keep their current values)."""
        updates = {
            "cluster_backlog_high": backlog_high,
            "cluster_backlog_low": backlog_low,
            "cluster_rebalance_cooldown": rebalance_cooldown,
            "cluster_rebalance_interval": rebalance_interval,
            "cluster_min_service_samples": min_service_samples,
            "cluster_join_timeout": join_timeout,
        }
        return replace(self, **{key: value
                                for key, value in updates.items()
                                if value is not None})

    @property
    def chaos_enabled(self) -> bool:
        """Whether any chaos knob would actually inject anything."""
        return (self.chaos_delay_rate > 0.0
                or self.chaos_drop_rate > 0.0
                or self.chaos_dup_heartbeat_rate > 0.0
                or self.chaos_slow_read_rate > 0.0)


#: Package-wide default configuration.
DEFAULT_CONFIG = RuntimeConfig()
