"""The soak driver: mixed workloads under a deterministic schedule.

Six scenarios cover the runtime's load-bearing surfaces:

========== ==========================================================
``single``  per-sample :class:`~repro.protocol.InferenceSession` runs
``packed``  lane-packed ``run_batch`` (key 256, 4 lanes, admission
            asserted at setup)
``faulted`` in-process pipeline under a seeded transient fault plan
            plus the retry/supervisor machinery
``chaos``   distributed TCP runs through a persistent coordinator
            with :mod:`repro.net.chaos` injection enabled — drops
            heal via reconnect-with-backoff, never the restart budget
``kill``    a model worker hard-killed mid-stream, respawned within
            budget; recovery time (death to live replacement) sampled
``serve``   the multi-tenant HTTP gateway over a shared 2-worker
            fleet: two tenants submit over HTTP every iteration, a
            fleet worker is hard-killed mid-job on a cadence and
            healed by binding a fresh worker to the same port
            (reconnect-with-backoff, zero restart budget); every job
            must reach ``done`` and reproduce the reference
``elastic`` a persistent :class:`~repro.cluster.ElasticCoordinator`
            under seeded membership churn (docs/ELASTIC.md): on a
            cadence a fresh 4-core worker joins over the wire, a
            re-plan water-filled from the profiled stage times routes
            stages onto it, the stream must pass through it, then the
            member drains back out and its process stops immediately
            (leak sentinels see no drift); zero dead letters, zero
            restarts, bit-identical outputs across every epoch
========== ==========================================================

The driver round-robins a seeded weighted schedule until the duration
expires.  Every scenario freezes its first output as the reference and
asserts each later iteration reproduces it **bit-identically** — the
soak's correctness axis — while :mod:`repro.soak.sentinels` guards the
resource axis.  Results land in ``BENCH_soak.json`` (see
``docs/SOAK.md`` for the schema).
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..config import RuntimeConfig
from ..errors import ReproError
from ..observability import NULL_TRACER, Observability
from ..stream.retry import RetryPolicy
from .sentinels import LeakSentinel, RssWatermark

#: Scenario registry order doubles as the deterministic schedule base.
SCENARIO_NAMES = ("single", "packed", "faulted", "chaos", "kill",
                  "serve", "elastic")

#: Relative schedule weights (kill/packed are the heavy iterations).
_WEIGHTS = {"single": 3, "packed": 1, "faulted": 2, "chaos": 2,
            "kill": 1, "serve": 2, "elastic": 2}

#: Seed salt for the harness's own RNG streams.
_SOAK_SALT = 0x50AC


class SoakCheckError(ReproError):
    """A soak invariant failed (output drift, unexpected dead letter,
    unhealed worker)."""


@dataclass
class SoakOptions:
    """Knobs for one soak run (CLI flags map 1:1)."""

    duration: float = 20.0
    seed: int = 7
    out: str | None = "BENCH_soak.json"
    scenarios: tuple = SCENARIO_NAMES
    rss_tolerance_mb: float = 64.0
    key_size: int = 128

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ReproError("soak duration must be positive")
        unknown = set(self.scenarios) - set(SCENARIO_NAMES)
        if unknown:
            raise ReproError(
                f"unknown soak scenario(s) {sorted(unknown)}; "
                f"known: {list(SCENARIO_NAMES)}"
            )


@dataclass
class SoakReport:
    """Everything ``BENCH_soak.json`` serializes."""

    doc: dict

    @property
    def ok(self) -> bool:
        return bool(self.doc.get("ok"))

    def render(self) -> str:
        doc = self.doc
        lines = [
            f"soak: {doc['elapsed_s']:.1f}s, seed {doc['seed']}, "
            f"{doc['requests_total']} requests "
            f"({doc['sustained_rps']:.2f} req/s sustained)",
            "iterations: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(doc["iterations"].items())
            ),
            f"latency: p50 {doc['latency_ms']['p50']:.1f}ms, "
            f"p99 {doc['latency_ms']['p99']:.1f}ms",
        ]
        recovery = doc["recovery_s"]
        if recovery["count"]:
            lines.append(
                f"recovery after kill: {recovery['count']} sample(s), "
                f"mean {recovery['mean']:.2f}s, max {recovery['max']:.2f}s"
            )
        lines.append(
            f"network: {doc['worker_deaths']} death(s), "
            f"{doc['reconnects']} reconnect(s), "
            f"{doc['respawns']} respawn(s); chaos injected "
            + ", ".join(f"{k}={v}" for k, v in sorted(
                doc["chaos"].items()))
        )
        serve = doc.get("serve") or {}
        if serve:
            lines.append(
                f"serve gateway: {serve['jobs_done']} job(s) done, "
                f"{serve['worker_kills']} fleet worker kill(s) healed"
            )
        elastic = doc.get("elastic") or {}
        if elastic:
            lines.append(
                f"elastic fleet: {elastic['joins']} join(s), "
                f"{elastic['drains']} drain(s), "
                f"{elastic['joined_items']} stage item(s) served by "
                f"joined members, final epoch {elastic['final_epoch']}"
            )
        lines.append(
            f"channel depth high-water: "
            f"{doc['channel_depth_high_water']:.0f}"
        )
        leaks = doc["leaks"]
        lines.append(
            f"leaks: threads={leaks['threads']}, "
            f"fd_delta={leaks['fd_delta']}, "
            f"socket_delta={leaks['socket_delta']}; rss steady growth "
            f"{leaks['rss_steady_growth_mb']:.1f}MB "
            f"(tolerance {leaks['rss_tolerance_mb']:.0f}MB, peak "
            f"{leaks['rss_peak_mb']:.1f}MB)"
        )
        lines.append("soak PASS" if self.ok else "soak FAIL: "
                     + "; ".join(doc["failures"]))
        return "\n".join(lines)


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q))


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

class _Scenario:
    """Base: setup once, run many, teardown once.

    ``run_once`` returns the number of requests completed and appends
    per-request latencies (batch scenarios amortize the batch wall
    time over its requests — documented in docs/SOAK.md).
    """

    name = "base"

    def __init__(self, options: SoakOptions, obs: Observability):
        self.options = options
        self.obs = obs
        self.latencies: List[float] = []
        self.iterations = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_once(self, iteration: int) -> int:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what setup started (workers, coordinators, gateways);
        in-process scenarios start nothing."""

    # -- shared helpers ------------------------------------------------

    @staticmethod
    def _check_identical(name: str, reference, got) -> None:
        for index, (want, have) in enumerate(zip(reference, got)):
            if not np.array_equal(want, have):
                raise SoakCheckError(
                    f"{name}: output {index} drifted from the "
                    "first-iteration reference"
                )
        if len(reference) != len(got):
            raise SoakCheckError(
                f"{name}: expected {len(reference)} outputs, got "
                f"{len(got)}"
            )


class _SingleShotScenario(_Scenario):
    """Sequential per-sample protocol sessions (Figure 3 workflow)."""

    name = "single"

    def setup(self) -> None:
        from ..experiments.common import prepare_model
        from ..protocol import (
            DataProvider,
            InferenceSession,
            ModelProvider,
        )

        prepared = prepare_model("breast")
        config = RuntimeConfig(key_size=self.options.key_size,
                               seed=self.options.seed)
        model_provider = ModelProvider(
            prepared.model, decimals=prepared.decimals, config=config
        )
        data_provider = DataProvider(
            value_decimals=prepared.decimals, config=config
        )
        self._session = InferenceSession(model_provider, data_provider)
        self._inputs = [np.asarray(x)
                        for x in prepared.dataset.test_x[:2]]
        self._reference: List[np.ndarray] | None = None

    def run_once(self, iteration: int) -> int:
        outputs = []
        for sample in self._inputs:
            start = time.perf_counter()
            outcome = self._session.run(sample)
            self.latencies.append(time.perf_counter() - start)
            outputs.append(outcome.probabilities)
        if self._reference is None:
            self._reference = outputs
        else:
            self._check_identical(self.name, self._reference, outputs)
        return len(outputs)


class _PackedScenario(_Scenario):
    """Lane-packed batches; admission is asserted, not hoped for."""

    name = "packed"
    _LANES = 4

    def setup(self) -> None:
        from ..experiments.common import prepare_model
        from ..protocol import (
            DataProvider,
            InferenceSession,
            ModelProvider,
        )

        prepared = prepare_model("breast")
        # Lane packing needs headroom: 256-bit plaintext space fits 4
        # lanes for this model (asserted below), 128-bit does not.
        config = RuntimeConfig(key_size=256, seed=self.options.seed,
                               pack_lanes=self._LANES)
        model_provider = ModelProvider(
            prepared.model, decimals=prepared.decimals, config=config
        )
        data_provider = DataProvider(
            value_decimals=prepared.decimals, config=config
        )
        plan = model_provider.plan_lane_packing(self._LANES)
        if not plan.admitted:
            raise SoakCheckError(
                f"packed: lane plan refused ({plan.reason}); the "
                "scenario would silently soak the fallback path"
            )
        self._session = InferenceSession(model_provider, data_provider)
        self._batch = np.asarray(
            prepared.dataset.test_x[:self._LANES]
        )
        self._reference: List[np.ndarray] | None = None

    def run_once(self, iteration: int) -> int:
        start = time.perf_counter()
        outcomes = self._session.run_batch(self._batch)
        elapsed = time.perf_counter() - start
        self.latencies.extend([elapsed / len(outcomes)] * len(outcomes))
        outputs = [o.probabilities for o in outcomes]
        if self._reference is None:
            self._reference = outputs
        else:
            self._check_identical(self.name, self._reference, outputs)
        return len(outputs)


class _FaultedPipelineScenario(_Scenario):
    """In-process stream runtime under seeded transient faults."""

    name = "faulted"

    def setup(self) -> None:
        from ..nn import model_zoo
        from ..planner.allocation import allocate_even
        from ..planner.plan import ClusterSpec
        from ..protocol import DataProvider, ModelProvider

        model = model_zoo.conv_fc(
            (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8,
            seed=3, name="soak-conv",
        )
        config = RuntimeConfig(key_size=self.options.key_size,
                               seed=self.options.seed)
        self._model_provider = ModelProvider(model, decimals=2,
                                             config=config)
        self._data_provider = DataProvider(value_decimals=2,
                                           config=config)
        cluster = ClusterSpec.homogeneous(1, 1, 2)
        self._plan = allocate_even(
            self._model_provider.stages, cluster
        ).plan
        rng = np.random.default_rng(self.options.seed)
        self._inputs = [rng.uniform(0, 1, (1, 8, 8))
                        for _ in range(3)]
        self._reference: Dict[int, np.ndarray] | None = None

    def _pipeline(self, fault_plan):
        from ..stream import Pipeline

        return Pipeline(
            self._model_provider, self._data_provider, self._plan,
            retry_policy=RetryPolicy(
                max_retries=4, base_delay=0.01,
                jitter_seed=self.options.seed ^ _SOAK_SALT,
            ),
            fault_plan=fault_plan,
            restart_budget=2,
            obs=self.obs,
        )

    def run_once(self, iteration: int) -> int:
        from ..stream import FaultPlan

        fault_plan = FaultPlan.random_transient(
            seed=self.options.seed * 7919 + iteration,
            num_requests=len(self._inputs),
            num_stages=len(self._plan.stages),
            rate=0.3,
        )
        start = time.perf_counter()
        stats = self._pipeline(fault_plan).run_stream(self._inputs)
        elapsed = time.perf_counter() - start
        if stats.dead_letters:
            raise SoakCheckError(
                f"faulted: {len(stats.dead_letters)} unexpected dead "
                "letter(s) under a transient-only fault plan: "
                + stats.dead_letters[0].describe()
            )
        count = len(stats.results)
        self.latencies.extend([elapsed / count] * count)
        outputs = {r.request_id: r.probabilities
                   for r in stats.results}
        if self._reference is None:
            self._reference = outputs
        else:
            self._check_identical(
                self.name,
                [self._reference[i] for i in sorted(self._reference)],
                [outputs[i] for i in sorted(outputs)],
            )
        return count


class _NetChaosScenario(_Scenario):
    """Distributed runs over a persistent chaos-wrapped coordinator.

    One coordinator and one worker fleet live across every iteration,
    so chaos-induced connection drops exercise the *reconnect* path:
    the soak asserts the fleet heals (every handle alive between
    iterations) without consuming any restart budget.
    """

    name = "chaos"

    def setup(self) -> None:
        from ..net import Coordinator, WorkerServer
        from ..nn import model_zoo
        from ..planner.allocation import allocate_even
        from ..planner.plan import ClusterSpec
        from ..protocol import DataProvider, ModelProvider
        from ..stream import Pipeline

        model = model_zoo.conv_fc(
            (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8,
            seed=3, name="soak-conv",
        )
        config = RuntimeConfig(
            key_size=self.options.key_size, seed=self.options.seed,
            net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
            chaos_seed=self.options.seed,
            chaos_delay_rate=0.10, chaos_delay_seconds=0.005,
            chaos_drop_rate=0.05,
            chaos_dup_heartbeat_rate=0.20,
            chaos_slow_read_rate=0.10, chaos_slow_read_seconds=0.005,
            net_reconnect_attempts=4, net_reconnect_base_delay=0.02,
            net_reconnect_max_delay=0.2,
        )

        def providers(cfg):
            return (
                ModelProvider(model, decimals=2, config=cfg),
                DataProvider(value_decimals=2, config=cfg),
            )

        cluster = ClusterSpec.homogeneous(2, 1, 2)
        model_provider, data_provider = providers(config)
        plan = allocate_even(
            model_provider.stages, cluster
        ).plan
        rng = np.random.default_rng(self.options.seed + 1)
        self._inputs = [rng.uniform(0, 1, (1, 8, 8))
                        for _ in range(3)]
        # Reference from the in-process pipeline (fresh providers: the
        # chaos runs must reproduce it bit-identically over TCP).
        ref_model, ref_data = providers(config)
        ref_stats = Pipeline(ref_model, ref_data, plan).run_stream(
            self._inputs
        )
        self._reference = {r.request_id: r.probabilities
                           for r in ref_stats.results}

        self._servers = [WorkerServer(), WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in self._servers]
        self._coordinator = Coordinator(
            model_provider, data_provider, plan, addresses,
            retry_policy=RetryPolicy(
                max_retries=8, base_delay=0.02,
                jitter_seed=self.options.seed ^ _SOAK_SALT,
            ),
            obs=self.obs,
        )
        self._coordinator.connect()

    def run_once(self, iteration: int) -> int:
        start = time.perf_counter()
        stats = self._coordinator.run_stream(self._inputs)
        elapsed = time.perf_counter() - start
        if stats.dead_letters:
            raise SoakCheckError(
                f"chaos: {len(stats.dead_letters)} unexpected dead "
                "letter(s): " + stats.dead_letters[0].describe()
            )
        for handle in self._coordinator.handles:
            if handle.restarts:
                raise SoakCheckError(
                    "chaos: a transient drop consumed the restart "
                    f"budget on {handle.describe()} — reconnect "
                    "should have healed it"
                )
        count = len(stats.results)
        self.latencies.extend([elapsed / count] * count)
        self._check_identical(
            self.name,
            [self._reference[i] for i in sorted(self._reference)],
            [r.probabilities
             for r in sorted(stats.results,
                             key=lambda r: r.request_id)],
        )
        return count

    @property
    def reconnects(self) -> int:
        return sum(h.reconnects for h in self._coordinator.handles)

    @property
    def chaos_stats(self) -> dict:
        injector = self._coordinator.chaos
        return injector.stats.as_dict() if injector else {}

    def teardown(self) -> None:
        self._coordinator.close(shutdown_workers=True)
        for server in self._servers:
            server.stop(abort=True)


class _SoakDyingWorker:
    """Factory avoiding a hard import cycle at module load."""

    def __new__(cls, die_after: int):
        from ..net import WorkerServer

        class _Dying(WorkerServer):
            def __init__(self, die_after: int):
                super().__init__()
                self.die_after = die_after
                self.tasks_done = 0
                self.died = threading.Event()
                self.died_at = 0.0

            def _run_task(self, session, envelope):
                self.tasks_done += 1
                if self.tasks_done > self.die_after:
                    self.died_at = time.monotonic()
                    self.died.set()
                    self.stop(abort=True)
                return super()._run_task(session, envelope)

        return _Dying(die_after)


class _NetKillScenario(_Scenario):
    """Hard worker kill mid-stream, respawn within budget, recovery
    time sampled (death observed -> replacement live)."""

    name = "kill"

    def setup(self) -> None:
        from ..nn import model_zoo
        from ..planner.allocation import allocate_even
        from ..planner.plan import ClusterSpec
        from ..protocol import DataProvider, ModelProvider
        from ..stream import Pipeline

        self._model = model_zoo.conv_fc(
            (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8,
            seed=3, name="soak-conv",
        )
        self._config = RuntimeConfig(
            key_size=self.options.key_size, seed=self.options.seed,
            net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
            net_reconnect_attempts=2, net_reconnect_base_delay=0.02,
            net_reconnect_max_delay=0.1,
        )
        self._model_provider = ModelProvider(
            self._model, decimals=2, config=self._config
        )
        self._data_provider = DataProvider(
            value_decimals=2, config=self._config
        )
        cluster = ClusterSpec.homogeneous(2, 1, 2)
        self._plan = allocate_even(
            self._model_provider.stages, cluster
        ).plan
        rng = np.random.default_rng(self.options.seed + 2)
        self._inputs = [rng.uniform(0, 1, (1, 8, 8))
                        for _ in range(4)]
        # Reference from *fresh* providers: in-process runs mutate
        # obfuscator state, which must not bleed into the coordinator's
        # providers (the distributed runs use stateless obfuscators).
        ref_model = ModelProvider(self._model, decimals=2,
                                  config=self._config)
        ref_data = DataProvider(value_decimals=2, config=self._config)
        ref_stats = Pipeline(ref_model, ref_data,
                             self._plan).run_stream(self._inputs)
        self._reference = {r.request_id: r.probabilities
                           for r in ref_stats.results}
        self.recovery_times: List[float] = []
        self.deaths = 0
        self.respawns = 0

    def run_once(self, iteration: int) -> int:
        from ..net import Coordinator, WorkerServer

        victim = _SoakDyingWorker(2)
        servers = [victim, WorkerServer(), WorkerServer()]
        spawned: List[object] = []
        addresses = [server.start() for server in servers]

        def respawn(server_id: int, role: str):
            replacement = WorkerServer()
            spawned.append(replacement)
            self.respawns += 1
            return replacement.start()

        coordinator = Coordinator(
            self._model_provider, self._data_provider, self._plan,
            addresses,
            respawn=respawn, worker_restart_budget=1,
            retry_policy=RetryPolicy(
                max_retries=6, base_delay=0.05,
                jitter_seed=self.options.seed ^ _SOAK_SALT,
            ),
            obs=self.obs,
        )
        recovery: List[float] = []

        def watch_recovery():
            if not victim.died.wait(timeout=20.0):
                return
            handle = coordinator.handles[0]
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if handle.alive:
                    recovery.append(
                        time.monotonic() - victim.died_at
                    )
                    return
                time.sleep(0.005)

        watcher = threading.Thread(target=watch_recovery,
                                   name="repro-soak-kill-watcher")
        try:
            with coordinator:
                watcher.start()
                start = time.perf_counter()
                stats = coordinator.run_stream(self._inputs)
                elapsed = time.perf_counter() - start
                watcher.join(timeout=15.0)
        finally:
            if watcher.is_alive():  # unblock a never-died victim wait
                victim.died.set()
                watcher.join(timeout=1.0)
            for server in servers + spawned:
                server.stop(abort=True)
        if not victim.died.is_set():
            raise SoakCheckError(
                "kill: the victim worker never died mid-stream"
            )
        self.deaths += 1
        if stats.dead_letters:
            raise SoakCheckError(
                f"kill: {len(stats.dead_letters)} unexpected dead "
                "letter(s): " + stats.dead_letters[0].describe()
            )
        if recovery:
            self.recovery_times.extend(recovery)
        count = len(stats.results)
        self.latencies.extend([elapsed / count] * count)
        self._check_identical(
            self.name,
            [self._reference[i] for i in sorted(self._reference)],
            [r.probabilities
             for r in sorted(stats.results,
                             key=lambda r: r.request_id)],
        )
        return count


class _ServeGatewayScenario(_Scenario):
    """The multi-tenant serving gateway under periodic worker kills.

    The full serving stack runs across every iteration: a shared
    2-worker TCP fleet, one HTTP gateway, two tenants with distinct
    Paillier keypairs.  Each iteration submits one job per tenant over
    real HTTP and polls both to a terminal state; on a fixed cadence a
    fleet worker (alternating roles) is hard-killed *after* the
    submits land — mid-job — and healed by binding a fresh
    :class:`~repro.net.worker.WorkerServer` to the **same port**, so
    the per-tenant coordinators recover through reconnect-with-backoff
    (the re-handshake re-provisions the tenant sessions) without
    touching any restart budget.  Every job must end ``done`` with
    output bit-identical to the first iteration's reference, and the
    job tracker must hold no non-terminal job between iterations.
    """

    name = "serve"
    _TENANTS = ("soak-a", "soak-b")
    _KILL_EVERY = 3  # hard-kill a fleet worker every Nth iteration

    def setup(self) -> None:
        from ..net import WorkerServer
        from ..serve.gateway import ServeGateway, build_serve_model
        from ..serve.loadgen import _Client

        model, decimals, input_shape = build_serve_model("tiny")
        config = RuntimeConfig(
            key_size=self.options.key_size, seed=self.options.seed,
            net_heartbeat_interval=0.1, net_heartbeat_timeout=1.0,
            net_reconnect_attempts=6, net_reconnect_base_delay=0.02,
            net_reconnect_max_delay=0.2,
            serve_queue_capacity=16, serve_tenant_quota=8,
        )
        self._fleet = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in self._fleet]
        self._gateway = ServeGateway(
            model, decimals, config, mode="fleet",
            worker_addresses=addresses, obs=self.obs,
        )
        host, port = self._gateway.start()
        self._client = _Client(f"http://{host}:{port}")
        rng = np.random.default_rng(self.options.seed + 3)
        self._inputs = {
            name: rng.uniform(0, 1, input_shape).tolist()
            for name in self._TENANTS
        }
        self._reference: Dict[str, np.ndarray] | None = None
        self.kills = 0
        self.jobs_done = 0

    def _kill_and_rebind(self) -> None:
        from ..net import WorkerServer

        victim_index = self.kills % len(self._fleet)
        victim = self._fleet[victim_index]
        host, port = victim.address
        victim.stop(abort=True)
        replacement = WorkerServer(host=host, port=port)
        replacement.start()
        self._fleet[victim_index] = replacement
        self.kills += 1

    def run_once(self, iteration: int) -> int:
        from ..serve.jobs import DONE, TERMINAL_STATES

        # Never kill on the warm-up iteration (the reference freeze
        # must see an undisturbed fleet).
        kill_now = (self.iterations > 0
                    and self.iterations % self._KILL_EVERY == 0)
        start = time.perf_counter()
        jobs = []
        for name in self._TENANTS:
            status, body, _headers = self._client.post(
                "/v1/infer",
                {"tenant": name, "input": self._inputs[name]},
            )
            if status != 202:
                raise SoakCheckError(
                    f"serve: submit for {name} -> HTTP {status}: "
                    f"{body.get('error')}"
                )
            jobs.append((name, body["job_id"]))
        if kill_now:
            self._kill_and_rebind()
        outputs: Dict[str, np.ndarray] = {}
        poll_deadline = time.monotonic() + 30.0
        for name, job_id in jobs:
            while True:
                if time.monotonic() > poll_deadline:
                    raise SoakCheckError(
                        f"serve: job {job_id} ({name}) not terminal "
                        "within 30s"
                    )
                status, body, _headers = self._client.get(
                    f"/v1/jobs/{job_id}?tenant={name}"
                )
                if status != 200:
                    raise SoakCheckError(
                        f"serve: poll {job_id} -> HTTP {status}"
                    )
                if body["state"] in TERMINAL_STATES:
                    break
                time.sleep(0.02)
            if body["state"] != DONE:
                raise SoakCheckError(
                    f"serve: job {job_id} ({name}) ended "
                    f"{body['state']!r}"
                    + (f": {body['error']}" if body.get("error")
                       else "")
                )
            outputs[name] = np.asarray(
                body["result"]["probabilities"]
            )
        elapsed = time.perf_counter() - start
        self.latencies.extend([elapsed / len(jobs)] * len(jobs))
        self.jobs_done += len(jobs)
        if not self._gateway.manager.tracker.all_terminal():
            raise SoakCheckError(
                "serve: a non-terminal job is stuck in the tracker "
                "after its iteration drained"
            )
        if self._reference is None:
            self._reference = outputs
        else:
            self._check_identical(
                self.name,
                [self._reference[name] for name in self._TENANTS],
                [outputs[name] for name in self._TENANTS],
            )
        return len(jobs)

    def teardown(self) -> None:
        self._gateway.close()
        for server in self._fleet:
            server.stop(abort=True)


class _ElasticScenario(_Scenario):
    """Membership churn on a persistent elastic coordinator.

    One :class:`~repro.cluster.ElasticCoordinator` lives across every
    iteration.  On a fixed cadence an iteration *churns*: a fresh
    4-core model worker registers over the wire (``join_fleet``
    against the membership listener), the fleet re-plans by
    water-filling the soak model's profiled stage times, which puts
    stages on the joiner (the even split would leave it idle), the
    stream runs on the grown fleet and must pass every item of every
    stage assigned to the joiner through it (counted from the
    worker-labelled ``net_stage_roundtrip_seconds`` histograms), and
    the member is drained back out — its process stopped immediately,
    so the leak sentinels would catch a connection or thread left
    behind by the drain.  Server ids are
    append-only, so the epoch and cluster table grow monotonically
    while every output stays bit-identical to the in-process
    reference and no restart budget is ever consumed.
    """

    name = "elastic"
    _CHURN_EVERY = 2  # join+drain on every Nth iteration

    def setup(self) -> None:
        from ..cluster import ElasticCoordinator
        from ..costs import CostModel
        from ..net import WorkerServer
        from ..nn import model_zoo
        from ..planner.allocation import allocate_even
        from ..planner.plan import ClusterSpec
        from ..planner.profiling import profile_primitive_times
        from ..protocol import DataProvider, ModelProvider
        from ..stream import Pipeline

        model = model_zoo.conv_fc(
            (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8,
            seed=3, name="soak-conv",
        )
        config = RuntimeConfig(
            key_size=self.options.key_size, seed=self.options.seed,
            net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
            net_reconnect_attempts=4, net_reconnect_base_delay=0.02,
            net_reconnect_max_delay=0.2,
        )

        def providers(cfg):
            return (
                ModelProvider(model, decimals=2, config=cfg),
                DataProvider(value_decimals=2, config=cfg),
            )

        cluster = ClusterSpec.homogeneous(1, 1, 2)
        model_provider, data_provider = providers(config)
        plan = allocate_even(
            model_provider.stages, cluster
        ).plan
        # Deterministic analytic stage times (no solver, no scipy):
        # what every churn re-plans from.
        self._times = profile_primitive_times(
            model_provider.stages, CostModel.reference(), 2
        )
        rng = np.random.default_rng(self.options.seed + 4)
        self._inputs = [rng.uniform(0, 1, (1, 8, 8))
                        for _ in range(3)]
        ref_model, ref_data = providers(config)
        ref_stats = Pipeline(ref_model, ref_data, plan).run_stream(
            self._inputs
        )
        self._reference = {r.request_id: r.probabilities
                           for r in ref_stats.results}

        self._servers = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in self._servers]
        self._coordinator = ElasticCoordinator(
            model_provider, data_provider, plan,
            addresses,
            retry_policy=RetryPolicy(
                max_retries=6, base_delay=0.05,
                jitter_seed=self.options.seed ^ _SOAK_SALT,
            ),
            obs=self.obs,
        )
        self._coordinator.connect()
        self.joins = 0
        self.drains = 0
        self.joined_items = 0

    def _served_by(self, server_id: int) -> Dict[str, int]:
        """Round trips per stage that worker ``server_id`` served."""
        label = str(server_id)
        return {
            labels["stage"]: hist.count
            for labels, hist in self.obs.registry.find(
                "histogram", "net_stage_roundtrip_seconds")
            if labels.get("worker") == label
        }

    def run_once(self, iteration: int) -> int:
        from ..net import WorkerServer

        # Never churn on the warm-up iteration: the reference freeze
        # must see the seed fleet.
        churn = (self.iterations > 0
                 and self.iterations % self._CHURN_EVERY == 0)
        spare = None
        spare_id = None
        if churn:
            spare = WorkerServer()
            spare.start()
            host, port = self._coordinator.membership_address
            reply = spare.join_fleet(host, port, "model", cores=4)
            spare_id = reply["server_id"]
            self.joins += 1
            # Route real work onto the member: water-filling gives the
            # joined 4-core worker linear stages the 2-core original
            # would otherwise keep.
            self._coordinator.apply_plan(
                self._coordinator.allocation_for(times=self._times)
            )
            moved = {str(a.stage_index)
                     for a in self._coordinator.plan.assignments
                     if a.server_id == spare_id}
            if not moved:
                raise SoakCheckError(
                    f"elastic: the re-plan left joined member "
                    f"{spare_id} idle"
                )
            before = self._served_by(spare_id)
        start = time.perf_counter()
        stats = self._coordinator.run_stream(self._inputs)
        elapsed = time.perf_counter() - start
        if stats.dead_letters:
            raise SoakCheckError(
                f"elastic: {len(stats.dead_letters)} unexpected dead "
                "letter(s) across membership churn: "
                + stats.dead_letters[0].describe()
            )
        for handle in self._coordinator.handles:
            if handle.restarts:
                raise SoakCheckError(
                    "elastic: membership churn consumed the restart "
                    f"budget on {handle.describe()} — joins and "
                    "drains must never look like failures"
                )
        count = len(stats.results)
        self.latencies.extend([elapsed / count] * count)
        self._check_identical(
            self.name,
            [self._reference[i] for i in sorted(self._reference)],
            [r.probabilities
             for r in sorted(stats.results,
                             key=lambda r: r.request_id)],
        )
        if churn:
            after = self._served_by(spare_id)
            served = {stage: after.get(stage, 0) - before.get(stage, 0)
                      for stage in moved}
            if min(served.values()) < count:
                raise SoakCheckError(
                    f"elastic: joined member {spare_id} served "
                    f"{served} round trips per stage, expected "
                    f"{count} on each"
                )
            self.joined_items += sum(served.values())
            self._coordinator.drain_member(spare_id)
            spare.stop(abort=True)  # sentinels must see no residue
            self.drains += 1
        return count

    @property
    def final_epoch(self) -> int:
        return self._coordinator.state.epoch

    def teardown(self) -> None:
        self._coordinator.close()
        for server in self._servers:
            server.stop(abort=True)


_SCENARIO_CLASSES = {
    "single": _SingleShotScenario,
    "packed": _PackedScenario,
    "faulted": _FaultedPipelineScenario,
    "chaos": _NetChaosScenario,
    "kill": _NetKillScenario,
    "serve": _ServeGatewayScenario,
    "elastic": _ElasticScenario,
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def run_soak(options: SoakOptions,
             progress=None) -> SoakReport:
    """Run the soak and return (and optionally write) the report.

    Args:
        progress: optional ``progress(message)`` callable for CLI
            narration.
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    # A real registry for channel-depth high-water marks, but the null
    # tracer: span accumulation over a long soak would itself read as
    # memory growth.
    obs = Observability(enabled=True, tracer=NULL_TRACER)
    sentinel = LeakSentinel()
    rss = RssWatermark()
    failures: List[str] = []

    say(f"soak: baseline census, then {options.duration:.0f}s of "
        + "/".join(options.scenarios))
    sentinel.baseline()
    rss.sample()

    scenarios = [
        _SCENARIO_CLASSES[name](options, obs)
        for name in SCENARIO_NAMES if name in options.scenarios
    ]
    schedule = [s for s in scenarios for _ in range(_WEIGHTS[s.name])]
    rng = random.Random(options.seed * 1_000_003 + _SOAK_SALT)
    started = time.monotonic()
    requests_total = 0
    iteration = 0
    ready: List[_Scenario] = []
    try:
        for scenario in scenarios:
            scenario.setup()
            ready.append(scenario)
            say(f"  {scenario.name}: warm-up (freezing the reference "
                "output)")
            requests_total += scenario.run_once(iteration)
            scenario.iterations += 1
            iteration += 1
        # Warm-up complete: references frozen, caches and pools
        # filled.  RSS growth beyond here counts against tolerance.
        rss.mark_steady()
        deadline = started + options.duration
        while time.monotonic() < deadline:
            scenario = rng.choice(schedule)
            requests_total += scenario.run_once(iteration)
            scenario.iterations += 1
            iteration += 1
            rss.sample()
    except SoakCheckError as exc:
        failures.append(str(exc))
    finally:
        say("  teardown + settle")
        for scenario in ready:
            try:
                scenario.teardown()
            except Exception as exc:  # noqa: BLE001 - keep tearing down
                failures.append(
                    f"{scenario.name}: teardown failed: {exc!r}"
                )
    elapsed = time.monotonic() - started
    rss.sample()
    leak_report = sentinel.finish()

    latencies = [lat for s in scenarios for lat in s.latencies]
    chaos_scenario = next(
        (s for s in ready if s.name == "chaos"), None
    )
    kill_scenario = next(
        (s for s in ready if s.name == "kill"), None
    )
    serve_scenario = next(
        (s for s in ready if s.name == "serve"), None
    )
    elastic_scenario = next(
        (s for s in ready if s.name == "elastic"), None
    )
    recovery_times = (kill_scenario.recovery_times
                      if kill_scenario else [])
    depth_high_water = max(
        (gauge.high_water for _, gauge in obs.registry.find(
            "gauge", "stream_queue_depth")),
        default=0.0,
    )

    if not leak_report.ok:
        failures.append(leak_report.describe())
    if not rss.flat(options.rss_tolerance_mb):
        failures.append(
            f"rss grew {rss.steady_growth_mb:.1f}MB in steady state "
            f"(tolerance {options.rss_tolerance_mb:.0f}MB)"
        )
    if kill_scenario and kill_scenario.deaths \
            and not recovery_times:
        failures.append(
            "kill: worker death was never healed by respawn "
            "(no recovery sample)"
        )

    doc = {
        "schema": "soak/1",
        "seed": options.seed,
        "duration_s": options.duration,
        "elapsed_s": elapsed,
        "key_size": options.key_size,
        "iterations": {s.name: s.iterations for s in scenarios},
        "requests_total": requests_total,
        "sustained_rps": (requests_total / elapsed
                          if elapsed > 0 else 0.0),
        "latency_ms": {
            "p50": _percentile(latencies, 50) * 1000.0,
            "p99": _percentile(latencies, 99) * 1000.0,
        },
        "recovery_s": {
            "count": len(recovery_times),
            "mean": (sum(recovery_times) / len(recovery_times)
                     if recovery_times else 0.0),
            "max": max(recovery_times, default=0.0),
        },
        "worker_deaths": (kill_scenario.deaths
                          if kill_scenario else 0),
        "respawns": (kill_scenario.respawns
                     if kill_scenario else 0),
        "reconnects": (chaos_scenario.reconnects
                       if chaos_scenario else 0),
        "chaos": (chaos_scenario.chaos_stats
                  if chaos_scenario else {}),
        "serve": ({"jobs_done": serve_scenario.jobs_done,
                   "worker_kills": serve_scenario.kills}
                  if serve_scenario else {}),
        "elastic": ({"joins": elastic_scenario.joins,
                     "drains": elastic_scenario.drains,
                     "joined_items": elastic_scenario.joined_items,
                     "final_epoch": elastic_scenario.final_epoch}
                    if elastic_scenario else {}),
        "channel_depth_high_water": depth_high_water,
        "leaks": {
            "threads": leak_report.leaked_threads,
            "fd_delta": leak_report.fd_delta,
            "fds": leak_report.leaked_fds,
            "socket_delta": leak_report.socket_delta,
            "census_supported": leak_report.supported,
            "rss_steady_growth_mb": rss.steady_growth_mb,
            "rss_peak_mb": rss.peak_mb,
            "rss_tolerance_mb": options.rss_tolerance_mb,
        },
        "failures": failures,
        "ok": not failures,
    }
    report = SoakReport(doc)
    if options.out:
        with open(options.out, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report
