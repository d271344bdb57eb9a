"""The four perfbench workloads.

Each workload class offers the same surface to ``run.py``:

* ``setup(inputs)`` — everything a user pays before the first timed
  op (spawn, keygen, model build, planning, handshakes, pool prefill,
  tenant creation, warm-ups); timed by the caller and repeated.
* ``window(state, inputs, seconds, max_ops)`` — the timed closed loop.
* ``pids(state)`` — processes whose CPU and RSS count.
* ``twin(tag)`` — an in-process ``InferenceSession`` whose outputs the
  first timed ops must equal bit for bit.
* ``trace(inputs, spans)`` — the separate traced run giving the
  per-layer metrics.
* ``teardown(state)``.

The program's own seed is always :data:`PROGRAM_SEED`; ``--seed`` only
reaches :class:`Inputs`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from statistics import median

import numpy as np

from repro.baselines import PlainBase
from repro.config import RuntimeConfig
from repro.costs import CostModel
from repro.errors import ReproError
from repro.net import Coordinator
from repro.net.transport import KIND_HEARTBEAT, Envelope
from repro.nn.layers import LayerKind
from repro.nn.model_zoo import build_model
from repro.observability import Observability
from repro.planner.allocation import allocate_load_balanced
from repro.planner.plan import ClusterSpec
from repro.planner.profiling import profile_primitive_times
from repro.protocol import DataProvider, InferenceSession, ModelProvider
from repro.serve import build_serve_model, tenant_seed

import harness
from harness import Op, SpanLog
from layers import (
    Replay,
    engine_counts,
    flatten_snapshot,
    kernel_metrics,
    replay_metrics,
    timed_ms,
)

#: The program's seed (keygen, blinding) on every workload.
PROGRAM_SEED = 11

#: Key size per workload: the largest of 256/320/384/512 bits at which
#: the workload completes well over 100 timed ops in ``run_seconds``
#: on the 2-core box (README "Operating point").  8-lane packing needs
#: more than 264 plaintext bits, hence 320 rather than 256 for ``fc_*``.
KEY_BITS = {
    "fc_session": 320,
    "fc_packed_batch": 320,
    "conv_stream_tcp": 256,
    "serve_window": 256,
}
SMOKE_KEY_BITS = 128

WARMUPS = 3
LANES = 8
SMOKE_LANES = 3          # all a 128-bit key has room for

#: Ops replayed / streamed / submitted by a traced run.
TRACE_OPS = 20
#: Ops of the in-process replay a TCP workload's traced run adds for
#: the kernel timings.
TRACE_REPLAY_OPS = 3

#: An op that takes longer than this is a failed op.
OP_TIMEOUT_S = 60.0

#: Inputs whose PlainBase top-two probabilities are closer than this
#: are not generated: fixed-point rounding may legitimately flip their
#: argmax, and the workloads must be ones on which no op fails.
MIN_MARGIN = 0.03


class Inputs:
    """Seeded, distinct inputs plus PlainBase's answer for each.

    Values are drawn on the model's fixed-point grid, so encoding them
    loses nothing.  Indices below ``first_timed`` are the warm-ups.
    """

    def __init__(self, seed: int, salt: int, model, decimals: int,
                 shape: tuple, warmups: int):
        self._rng = np.random.default_rng([seed, salt])
        self._plain = PlainBase(model)
        self._scale = 10 ** decimals
        self._shape = tuple(shape)
        self._xs: list[np.ndarray] = []
        self._refs: list[tuple[int, np.ndarray]] = []
        self.first_timed = warmups

    def _grow(self, count: int) -> None:
        while len(self._xs) < count:
            x = self._rng.integers(0, self._scale + 1,
                                   self._shape) / self._scale
            result = self._plain.infer(x)
            top = np.sort(result.probabilities)
            if top[-1] - top[-2] >= MIN_MARGIN:
                self._xs.append(x)
                self._refs.append((result.prediction,
                                   result.probabilities))

    def take(self, start: int, count: int) -> list[np.ndarray]:
        self._grow(start + count)
        return self._xs[start:start + count]

    def reference(self, index: int) -> tuple[int, np.ndarray]:
        self._grow(index + 1)
        return self._refs[index]


def _outputs(outcomes) -> list:
    return [(o.prediction, o.probabilities) for o in outcomes]


# ----------------------------------------------------------------------
# fc_session / fc_packed_batch
# ----------------------------------------------------------------------

class FcSession:
    """In-process ``InferenceSession.run`` on the breast 3FC model."""

    name = "fc_session"
    salt = 1
    packed = False
    decimals = 3

    def __init__(self, smoke: bool = False):
        self.key_bits = SMOKE_KEY_BITS if smoke else KEY_BITS[self.name]
        #: Samples per ciphertext; 0 runs the scalar path.
        self.lanes = (SMOKE_LANES if smoke else LANES) if self.packed \
            else 0
        self.samples_per_op = self.lanes or 1
        self.warmup_inputs = WARMUPS * self.samples_per_op

    def inputs(self, seed: int) -> Inputs:
        return Inputs(seed, self.salt, build_model("breast"),
                      self.decimals, (30,), self.warmup_inputs)

    def config(self) -> RuntimeConfig:
        config = RuntimeConfig(key_size=self.key_bits, seed=PROGRAM_SEED)
        return config.with_pack_lanes(self.lanes) if self.lanes else config

    def session(self) -> InferenceSession:
        model = build_model("breast")
        config = self.config()
        return InferenceSession(
            ModelProvider(model, decimals=self.decimals, config=config),
            DataProvider(value_decimals=self.decimals, config=config),
        )

    def call(self, session, xs):
        if self.lanes:
            return session.run_batch(np.stack(xs))
        return [session.run(xs[0])]

    def setup(self, inputs: Inputs):
        session = self.session()
        for index in range(WARMUPS):
            self.call(session, inputs.take(index * self.samples_per_op,
                                           self.samples_per_op))
        return session

    def teardown(self, session) -> None:
        session.data_provider.engine.close()
        session.model_provider.engine.close()

    def pids(self, session) -> dict:
        return {}

    def twin(self, tag: str) -> InferenceSession:
        return self.session()

    def window(self, session, inputs: Inputs, seconds: float,
               max_ops: int):
        ops: list[Op] = []
        cursor = inputs.first_timed
        start = end = time.perf_counter()
        deadline = start + seconds
        while len(ops) < max_ops:
            xs = inputs.take(cursor, self.samples_per_op)
            begin = time.perf_counter()
            if begin >= deadline:
                break
            op = Op(first_input=cursor)
            try:
                op.outputs = _outputs(self.call(session, xs))
            except ReproError as exc:
                op.error = repr(exc)
            end = time.perf_counter()
            op.latency_s = end - begin
            ops.append(op)
            cursor += self.samples_per_op
        return ops, end - start

    def trace(self, inputs: Inputs, spans: SpanLog) -> dict:
        model = build_model("breast")
        config = self.config()
        first = inputs.first_timed
        run = Replay(model, self.decimals, config, spans,
                     lanes=self.lanes)
        twin = self.session()
        twin_s, outputs, transcript_bytes = [], [], 0
        # Replay and twin take turns, so machine-speed drift over the
        # run lands on both sides of the overhead ratio.
        for index in range(TRACE_OPS):
            at = first + index * self.samples_per_op
            xs = inputs.take(at, self.samples_per_op)
            mine = run.step(f"op{index}",
                            np.stack(xs) if self.lanes else xs[0])
            begin = time.perf_counter()
            outcomes = self.call(twin, xs)
            twin_s.append(time.perf_counter() - begin)
            transcript_bytes = outcomes[0].transcript.total_bytes
            for (_, probabilities), outcome in zip(mine, outcomes):
                if not np.array_equal(probabilities,
                                      outcome.probabilities):
                    raise RuntimeError(
                        f"stepped replay of op {index} differs from "
                        "the InferenceSession twin")
            outputs.append((at, mine))
        metrics = replay_metrics(spans)
        metrics.update(run.counts())
        metrics.update(kernel_metrics(model, self.decimals, config, run))
        run_ms = median(twin_s) * 1000.0
        metrics["protocol.session.run_ms"] = run_ms
        metrics["protocol.session.self_ms"] = run_ms - sum(
            metrics[f"protocol.roles.{role}_ms"] for role in
            ("encrypt_input", "linear_stage", "nonlinear_stage"))
        metrics["protocol.session.transcript_bytes_per_sample"] = \
            transcript_bytes / self.samples_per_op
        traced_ms = median(
            spans.durations("protocol.session.replay")) * 1000.0
        metrics["trace.overhead_share"] = (traced_ms - run_ms) / run_ms
        return {"metrics": metrics, "outputs": outputs}


class FcPackedBatch(FcSession):
    """The same model and key through ``run_batch`` with 8 lanes."""

    name = "fc_packed_batch"
    salt = 2
    packed = True


# ----------------------------------------------------------------------
# Shared by the two TCP workloads
# ----------------------------------------------------------------------

def _tiny_replay(config, xs, spans: SpanLog) -> tuple[dict, list]:
    """In-process replay of the served tiny model: the kernel and
    role timings a TCP workload's tensors would show."""
    model, decimals, _shape = build_serve_model("tiny")
    run = Replay(model, decimals, config, spans)
    outputs = [run.step(f"replay{index}", x)
               for index, x in enumerate(xs)]
    metrics = replay_metrics(spans)
    metrics.update(kernel_metrics(model, decimals, config, run))
    return metrics, outputs


def _tiny_twin(config) -> InferenceSession:
    model, decimals, _shape = build_serve_model("tiny")
    return InferenceSession(
        ModelProvider(model, decimals=decimals, config=config),
        DataProvider(value_decimals=decimals, config=config),
    )


def _tiny_inputs(seed: int, salt: int, warmups: int) -> Inputs:
    model, decimals, shape = build_serve_model("tiny")
    return Inputs(seed, salt, model, decimals, shape, warmups)


# ----------------------------------------------------------------------
# conv_stream_tcp
# ----------------------------------------------------------------------

@dataclass
class _Fleet:
    processes: list
    coordinator: Coordinator
    rate: float              # steady-state requests/s seen in warm-up


class ConvStreamTcp:
    """``Coordinator.run_stream`` over two worker subprocesses."""

    name = "conv_stream_tcp"
    salt = 3
    samples_per_op = 1
    #: Warm-up stream length: long enough to fill the pipeline, so the
    #: bottleneck stage's service time (which sizes the timed stream)
    #: is measured under contention.
    warmup_inputs = 12

    def __init__(self, smoke: bool = False):
        self.key_bits = SMOKE_KEY_BITS if smoke else KEY_BITS[self.name]
        if smoke:
            self.warmup_inputs = WARMUPS

    def inputs(self, seed: int) -> Inputs:
        return _tiny_inputs(seed, self.salt, self.warmup_inputs)

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(key_size=self.key_bits, seed=PROGRAM_SEED)

    def _spawn_workers(self) -> tuple[list, list]:
        processes, addresses = [], []
        for role in ("model", "data"):
            process, where = harness.spawn(
                ["worker", "--listen", "127.0.0.1:0"],
                "worker listening on ", f"worker-{role}")
            host, _, port = where.rpartition(":")
            processes.append(process)
            addresses.append((host, int(port)))
        return processes, addresses

    def _coordinator(self, addresses, config, obs=None,
                     tenant="default") -> Coordinator:
        model, decimals, _shape = build_serve_model("tiny")
        model_provider = ModelProvider(model, decimals=decimals,
                                       config=config, obs=obs)
        data_provider = DataProvider(value_decimals=decimals,
                                     config=config, obs=obs)
        times = profile_primitive_times(
            model_provider.stages, CostModel.reference(), decimals,
            compression=model_provider.compression_stats())
        plan = allocate_load_balanced(
            model_provider.stages, times,
            ClusterSpec.homogeneous(1, 1, 2)).plan
        return Coordinator(model_provider, data_provider, plan,
                           addresses, request_deadline=OP_TIMEOUT_S,
                           tenant=tenant)

    def setup(self, inputs: Inputs) -> _Fleet:
        processes, addresses = self._spawn_workers()
        coordinator = self._coordinator(addresses, self.config())
        coordinator.connect()
        warm = coordinator.run_stream(inputs.take(0, self.warmup_inputs))
        if warm.dead_letters:
            raise RuntimeError(f"warm-up failed: {warm.failure_report()}")
        slowest = max(busy / items for busy, items in
                      zip(warm.stage_busy_seconds, warm.stage_items))
        return _Fleet(processes, coordinator, 1.0 / slowest)

    def teardown(self, fleet: _Fleet) -> None:
        fleet.coordinator.close(shutdown_workers=True)
        for process in fleet.processes:
            harness.reap(process)

    def pids(self, fleet: _Fleet) -> dict:
        return {"model_worker": fleet.processes[0].pid,
                "data_worker": fleet.processes[1].pid}

    def twin(self, tag: str) -> InferenceSession:
        return _tiny_twin(self.config())

    @staticmethod
    def _stream(coordinator, xs, first: int, timeout: float):
        """One stream, bounded by ``timeout``: a hung fleet fails
        every request of the stream instead of hanging the
        benchmark."""
        box: dict = {}

        def target():
            try:
                box["stats"] = coordinator.run_stream(xs)
            except ReproError as exc:
                box["error"] = repr(exc)

        thread = threading.Thread(target=target, daemon=True,
                                  name="perfbench-stream")
        begin = time.perf_counter()
        thread.start()
        thread.join(timeout=timeout)
        call_wall = time.perf_counter() - begin
        stats = box.get("stats")
        if stats is None:
            error = box.get("error", "stream timed out")
            return ([Op(first_input=first + i, error=error)
                     for i in range(len(xs))], call_wall, None)
        ops = [Op(first_input=first + r.request_id, latency_s=r.latency,
                  outputs=[(r.prediction, r.probabilities)])
               for r in stats.results]
        ops += [Op(first_input=first + d.request_id, error=d.describe())
                for d in stats.dead_letters]
        # The public latencies and wall time must fit inside the call.
        slowest = max((r.latency for r in stats.results), default=0.0)
        if stats.wall_time > call_wall or slowest > call_wall:
            raise RuntimeError(
                f"StreamStats disagrees with the call's wall time: "
                f"wall {stats.wall_time:.3f}s, slowest request "
                f"{slowest:.3f}s, call {call_wall:.3f}s")
        return ops, stats.wall_time, stats

    def window(self, fleet: _Fleet, inputs: Inputs, seconds: float,
               max_ops: int):
        # One saturated stream sized to last ``seconds`` at the rate
        # the warm-up stream's bottleneck stage sustained.
        count = max(1, min(max_ops, round(fleet.rate * seconds)))
        first = inputs.first_timed
        ops, wall, _stats = self._stream(
            fleet.coordinator, inputs.take(first, count), first,
            timeout=3.0 * seconds + OP_TIMEOUT_S)
        return ops, wall

    def trace(self, inputs: Inputs, spans: SpanLog) -> dict:
        first = inputs.first_timed
        xs = inputs.take(first, TRACE_OPS)
        warm = inputs.take(0, WARMUPS)
        config = self.config()
        with spans.span("net.spawn_workers", "setup"):
            processes, addresses = self._spawn_workers()
        try:
            plain = self._coordinator(addresses, config,
                                      tenant="untraced")
            with plain:
                plain.run_stream(warm)
                untraced, _wall, _ = self._stream(
                    plain, xs, first, timeout=2 * OP_TIMEOUT_S)

            obs = Observability(enabled=True)
            traced = self._coordinator(
                addresses, config.with_observability(), obs=obs,
                tenant="traced")
            with spans.span("net.connect", "setup") as connect:
                traced.connect()
            try:
                traced.run_stream(warm)
                before = _net_totals(obs, traced)
                cpu_before = _cpu_snapshot(processes)
                with spans.span("stream.run_stream", "stream") as call:
                    ops, _wall, stats = self._stream(
                        traced, xs, first, timeout=2 * OP_TIMEOUT_S)
                cpu_after = _cpu_snapshot(processes)
                after = _net_totals(obs, traced)
            finally:
                traced.close(shutdown_workers=True)
        finally:
            for process in processes:
                harness.reap(process)
        if stats is None:
            raise RuntimeError(f"traced stream failed: {ops[0].error}")

        metrics, replayed = _tiny_replay(
            config, xs[:TRACE_REPLAY_OPS], spans)
        by_input = {op.first_input: op for op in ops}
        for index, outs in enumerate(replayed):
            got = by_input[first + index].outputs
            if got is None or not np.array_equal(outs[0][1], got[0][1]):
                raise RuntimeError(
                    f"TCP result for input {first + index} differs "
                    "from the in-process replay")

        call_s = call["end"] - call["start"]
        samples = len(stats.results)
        metrics.update(engine_counts(before["flat"], after["flat"],
                                     samples))
        stages = traced.plan.stages
        model_provider = traced.model_provider

        def profile():
            return profile_primitive_times(
                stages, CostModel.reference(), model_provider.decimals,
                compression=model_provider.compression_stats())

        times = profile()
        metrics["planner.profile_ms"] = timed_ms(profile)
        metrics["planner.allocate_ms"] = timed_ms(
            lambda: allocate_load_balanced(
                stages, times, ClusterSpec.homogeneous(1, 1, 2)))
        planned = traced.plan.per_thread_times(times)
        metrics["planner.plan_imbalance"] = \
            max(planned) / (sum(planned) / len(planned))

        shares = stats.stage_utilizations()
        bottleneck = max(range(len(shares)), key=shares.__getitem__)
        by_role = {LayerKind.LINEAR: 0.0, LayerKind.NONLINEAR: 0.0}
        for stage, busy in zip(stages, stats.stage_busy_seconds):
            by_role[stage.kind] += busy
        metrics.update({
            "stream.stage_busy_share_max": shares[bottleneck],
            "stream.bottleneck_stage": float(bottleneck),
            "stream.busy_s.model_role":
                by_role[LayerKind.LINEAR] / stats.wall_time,
            "stream.busy_s.data_role":
                by_role[LayerKind.NONLINEAR] / stats.wall_time,
            "stream.retries": float(stats.total_retries),
            "stream.dead_letters": float(len(stats.dead_letters)),
            "stream.restarts": float(stats.total_restarts),
            "stream.queue_depth_max": max(
                gauge.high_water for _labels, gauge in
                obs.registry.find("gauge", "stream_queue_depth")),
        })

        worker_cpu = sum(cpu_after[k] - cpu_before[k]
                         for k in ("model_worker", "data_worker"))
        trips = after["roundtrip_count"] - before["roundtrip_count"]
        trip_s = after["roundtrip_sum"] - before["roundtrip_sum"]
        metrics.update({
            "net.bytes_sent_per_sample":
                (after["sent"] - before["sent"]) / samples,
            "net.bytes_received_per_sample":
                (after["received"] - before["received"]) / samples,
            "net.stage_roundtrip_ms_mean": trip_s / trips * 1000.0,
            "net.overhead_ms_per_sample":
                (trip_s - worker_cpu) / samples * 1000.0,
            "net.handshake_s": connect["end"] - connect["start"],
            "net.worker_tasks": float(sum(stats.stage_items)),
            "net.worker_deaths": after["flat"].get(
                "net_worker_deaths", 0.0),
            "net.reconnects": float(sum(
                handle.reconnects for handle in traced.handles)),
        })
        for who in ("coordinator", "model_worker", "data_worker"):
            metrics[f"net.cpu_cores_used.{who}"] = \
                (cpu_after[who] - cpu_before[who]) / call_s
        metrics["trace.overhead_share"] = _overhead(untraced, ops)
        return {"metrics": metrics,
                "outputs": [(op.first_input, op.outputs) for op in ops
                            if op.outputs is not None]}


def _cpu_snapshot(processes) -> dict:
    return {"coordinator": harness.self_cpu_seconds(),
            "model_worker": harness.cpu_seconds(processes[0].pid),
            "data_worker": harness.cpu_seconds(processes[1].pid)}


def _net_totals(obs: Observability, coordinator: Coordinator) -> dict:
    """Coordinator-side byte and round-trip totals, with the
    time-driven heartbeat frames taken out so that the byte counts
    depend on the stream alone and repeat exactly."""
    flat = flatten_snapshot(obs.registry.snapshot())
    ceiling = coordinator.config.net_max_frame_bytes
    # A heartbeat and its ack carry the same one-field header.
    heartbeat = sum(
        len(Envelope(KIND_HEARTBEAT, header={"nonce": nonce})
            .encode(ceiling))
        for handle in coordinator.handles
        for nonce in range(1, handle.heartbeats_ok + 1))
    trips = [hist for labels, hist in obs.registry.find(
        "histogram", "net_stage_roundtrip_seconds")
        if "worker" not in labels]
    return {
        "flat": flat,
        "sent": flat.get("net_bytes_sent", 0.0) - heartbeat,
        "received": flat.get("net_bytes_received", 0.0) - heartbeat,
        "roundtrip_sum": sum(h.sum for h in trips),
        "roundtrip_count": sum(h.count for h in trips),
    }


def _overhead(untraced: list[Op], traced: list[Op]) -> float:
    """(traced p50 − untraced p50) ÷ untraced p50 over two short runs
    of the same inputs (no sample-count gate: this is a ratio of two
    medians of :data:`TRACE_OPS` ops, not a reported latency)."""
    base = median([op.latency_s for op in untraced
                   if op.error is None])
    return (median([op.latency_s for op in traced
                    if op.error is None]) - base) / base


# ----------------------------------------------------------------------
# serve_window
# ----------------------------------------------------------------------

TENANTS = ("tenant-a", "tenant-b")
#: Jobs kept outstanding, split evenly over the tenants.
WINDOW_JOBS = 8
#: The poll thread's tick; also the latency quantum it imposes.
POLL_S = 0.010
#: Traced runs sample the gateway's queue-depth gauge this often.
SCRAPE_S = 0.25


class _Http:
    """One persistent connection; transport faults become status 599
    so a dead gateway fails ops instead of crashing the driver."""

    def __init__(self, address: str):
        host, _, port = address.rpartition(":")
        self._where = (host, int(port))
        self._conn = None

    def request(self, method: str, path: str, doc=None):
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    *self._where, timeout=OP_TIMEOUT_S)
            self._conn.request(method, path, body=body, headers=headers)
            reply = self._conn.getresponse()
            text = reply.read().decode("utf-8")
            status = reply.status
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 599, {"error": repr(exc)}
        if path == "/metrics":
            return status, text
        try:
            return status, json.loads(text or "{}")
        except ValueError:
            return status, {"error": text}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    """``(name, labels, value)`` per sample line of an exposition."""
    series = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, label_text = head.partition("{")
        labels = {}
        for pair in label_text.rstrip("}").split(","):
            key, eq, quoted = pair.partition("=")
            if eq:
                labels[key] = quoted.strip('"')
        series.append((name, labels, float(value)))
    return series


def flatten_prometheus(series) -> dict[str, float]:
    """Sum over labels, histogram buckets dropped — the same shape
    :func:`layers.flatten_snapshot` gives."""
    flat: dict[str, float] = {}
    for name, _labels, value in series:
        if not name.endswith("_bucket"):
            flat[name] = flat.get(name, 0.0) + value
    return flat


@dataclass
class _Gateway:
    process: object
    address: str
    tenant_create_s: list


class ServeWindow:
    """The HTTP front door under a windowed closed loop."""

    name = "serve_window"
    salt = 4
    samples_per_op = 1
    warmup_inputs = WARMUPS * len(TENANTS)

    def __init__(self, smoke: bool = False):
        self.key_bits = SMOKE_KEY_BITS if smoke else KEY_BITS[self.name]

    def inputs(self, seed: int) -> Inputs:
        return _tiny_inputs(seed, self.salt, self.warmup_inputs)

    def setup(self, inputs: Inputs) -> _Gateway:
        process, address = harness.spawn(
            ["serve-http", "--mode", "fleet", "--fleet-workers", "2",
             "--model", "tiny", "--key-size", str(self.key_bits),
             "--seed", str(PROGRAM_SEED)],
            "gateway listening on ", "gateway")
        client = _Http(address)
        created = []
        try:
            for t, tenant in enumerate(TENANTS):
                for w, x in enumerate(inputs.take(t * WARMUPS, WARMUPS)):
                    begin = time.perf_counter()
                    self._one(client, tenant, x)
                    if w == 0:
                        created.append(time.perf_counter() - begin)
        finally:
            client.close()
        return _Gateway(process, address, created)

    @staticmethod
    def _one(client: _Http, tenant: str, x) -> None:
        """Submit one job and poll it to ``done`` (warm-ups only)."""
        status, body = client.request(
            "POST", "/v1/infer", {"tenant": tenant, "input": x.tolist()})
        if status != 202:
            raise RuntimeError(f"warm-up refused: HTTP {status} {body}")
        path = f"/v1/jobs/{body['job_id']}?tenant={tenant}"
        deadline = time.monotonic() + OP_TIMEOUT_S
        while time.monotonic() < deadline:
            status, body = client.request("GET", path)
            if status != 200 or body["terminal"]:
                break
            time.sleep(POLL_S)
        if status != 200 or body.get("state") != "done":
            raise RuntimeError(f"warm-up failed: HTTP {status} {body}")

    def teardown(self, gateway: _Gateway) -> None:
        harness.reap(gateway.process)

    def pids(self, gateway: _Gateway) -> dict:
        return {"gateway": gateway.process.pid}

    def twin(self, tag: str) -> InferenceSession:
        return _tiny_twin(RuntimeConfig(
            key_size=self.key_bits,
            seed=tenant_seed(PROGRAM_SEED, tag)))

    def window(self, gateway: _Gateway, inputs: Inputs, seconds: float,
               max_ops: int):
        ops, wall, _extras = self._drive(
            gateway, inputs, inputs.first_timed, seconds, max_ops)
        return ops, wall

    def _drive(self, gateway: _Gateway, inputs: Inputs, first: int,
               seconds: float, max_ops: int,
               spans: SpanLog | None = None):
        """Keep :data:`WINDOW_JOBS` jobs outstanding for ``seconds``.

        One thread submits (tenants strictly in turn, each capped at
        its share of the window), one polls the oldest outstanding job
        of each tenant every :data:`POLL_S` — a tenant's jobs finish
        in submission order, and when one has finished the next is
        polled in the same tick.  Latency runs from just before the
        POST to the poll that saw the job ``done``.  Jobs still in
        flight when the window closes are drained; they count only if
        they fail.  With ``spans``, every HTTP call gets a span and
        the gateway's queue-depth gauge is sampled.
        """
        lock = threading.Condition()
        pending = {tenant: deque() for tenant in TENANTS}
        share = WINDOW_JOBS // len(TENANTS)
        ops: list[Op] = []
        state = {"submitting": True, "depth_max": 0.0}
        submit_ms, poll_ms = [], []
        start = time.perf_counter()
        deadline = start + seconds

        def call(client, name, trace, method, path, doc=None):
            begin = time.perf_counter()
            if spans is None:
                reply = client.request(method, path, doc)
            else:
                with spans.span(name, trace):
                    reply = client.request(method, path, doc)
            return reply, (time.perf_counter() - begin) * 1000.0

        def submitter():
            client = _Http(gateway.address)
            try:
                for submitted in range(max_ops):
                    tenant = TENANTS[submitted % len(TENANTS)]
                    with lock:
                        while len(pending[tenant]) >= share:
                            lock.wait(0.05)
                    if time.perf_counter() >= deadline:
                        break
                    index = first + submitted
                    op = Op(first_input=index, tag=tenant)
                    x = inputs.take(index, 1)[0]
                    begin = time.perf_counter()
                    (status, body), ms = call(
                        client, "serve.http_submit", f"op{index}",
                        "POST", "/v1/infer",
                        {"tenant": tenant, "input": x.tolist()})
                    submit_ms.append(ms)
                    with lock:
                        ops.append(op)
                        if status == 202:
                            pending[tenant].append(
                                (body["job_id"], op, begin))
                        else:
                            op.error = f"refused: HTTP {status} {body}"
                    if status != 202:
                        time.sleep(POLL_S)   # do not hammer a full door
            finally:
                client.close()
                with lock:
                    state["submitting"] = False

        def poll(client, tenant, job):
            """Poll one job; returns the tenant's next job when this
            one has left the queue (to be polled in the same tick)."""
            job_id, op, begin = job
            (status, body), ms = call(
                client, "serve.http_poll", f"op{op.first_input}", "GET",
                f"/v1/jobs/{job_id}?tenant={tenant}")
            poll_ms.append(ms)
            now = time.perf_counter()
            if status == 200 and not body["terminal"]:
                if now - begin < OP_TIMEOUT_S:
                    return None
                op.error = f"job {job_id} timed out"
            elif status != 200:
                op.error = f"poll failed: HTTP {status} {body}"
            elif body["state"] != "done":
                op.error = f"job {body['state']}: {body.get('error')}"
            else:
                result = body["result"]
                op.outputs = [(result["prediction"],
                               np.asarray(result["probabilities"]))]
                op.latency_s = now - begin
            op.finished = now
            with lock:
                pending[tenant].popleft()
                lock.notify_all()
                return pending[tenant][0] if pending[tenant] else None

        def poller():
            client = _Http(gateway.address)
            next_scrape = 0.0
            try:
                while True:
                    tick = time.perf_counter()
                    with lock:
                        heads = {t: q[0] for t, q in pending.items() if q}
                        if not heads and not state["submitting"]:
                            return
                    for tenant, job in heads.items():
                        while job is not None:
                            job = poll(client, tenant, job)
                    if spans is not None and tick >= next_scrape:
                        next_scrape = tick + SCRAPE_S
                        status, text = client.request("GET", "/metrics")
                        if status == 200:
                            depth = flatten_prometheus(
                                parse_prometheus(text)
                            ).get("serve_queue_depth", 0.0)
                            state["depth_max"] = max(state["depth_max"],
                                                     depth)
                    time.sleep(max(0.0, POLL_S
                                   - (time.perf_counter() - tick)))
            finally:
                client.close()

        threads = [threading.Thread(target=submitter,
                                    name="perfbench-submit"),
                   threading.Thread(target=poller, name="perfbench-poll")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if len(ops) < max_ops:
            # Closed by the clock.  Steady state only: a success seen
            # after the deadline belongs to the drain, not the window.
            ops = [op for op in ops
                   if op.error is not None or op.finished <= deadline]
            wall = seconds
        else:
            wall = max(op.finished for op in ops) - start
        return ops, wall, {"submit_ms": submit_ms, "poll_ms": poll_ms,
                           "depth_max": state["depth_max"]}

    def trace(self, inputs: Inputs, spans: SpanLog) -> dict:
        first = inputs.first_timed
        with spans.span("serve.spawn_and_warm", "setup"):
            gateway = self.setup(inputs)
        client = _Http(gateway.address)
        try:
            untraced, _wall, _ = self._drive(
                gateway, inputs, first + TRACE_OPS, OP_TIMEOUT_S,
                TRACE_OPS)
            before = parse_prometheus(
                client.request("GET", "/metrics")[1])
            cpu_before = harness.cpu_seconds(gateway.process.pid)
            ops, wall, extras = self._drive(
                gateway, inputs, first, OP_TIMEOUT_S, TRACE_OPS,
                spans=spans)
            cpu_after = harness.cpu_seconds(gateway.process.pid)
            after = parse_prometheus(client.request("GET", "/metrics")[1])
        finally:
            client.close()
            self.teardown(gateway)

        # The tenant-a half of the traced ops, replayed in process.
        mine = [op for op in ops if op.tag == TENANTS[0]][:TRACE_REPLAY_OPS]
        config = RuntimeConfig(key_size=self.key_bits,
                               seed=tenant_seed(PROGRAM_SEED, TENANTS[0]))
        metrics, replayed = _tiny_replay(
            config, [inputs.take(op.first_input, 1)[0] for op in mine],
            spans)
        for op, outs in zip(mine, replayed):
            if op.outputs is None \
                    or not np.array_equal(outs[0][1], op.outputs[0][1]):
                raise RuntimeError(
                    f"gateway result for input {op.first_input} "
                    "differs from the in-process replay")

        flat_before = flatten_prometheus(before)
        flat_after = flatten_prometheus(after)

        def delta(name):
            return flat_after.get(name, 0.0) - flat_before.get(name, 0.0)

        def responses_5xx(series):
            return sum(value for name, labels, value in series
                       if name == "serve_http_responses"
                       and labels.get("code", "").startswith("5"))

        samples = len(ops)
        metrics.update(engine_counts(flat_before, flat_after, samples))
        metrics.update({
            "serve.http_submit_ms_p50": median(extras["submit_ms"]),
            "serve.http_poll_ms_p50": median(extras["poll_ms"]),
            "serve.queue_wait_ms_mean":
                delta("serve_queue_seconds_sum")
                / delta("serve_queue_seconds_count") * 1000.0,
            "serve.service_ms_mean":
                delta("serve_service_seconds_sum")
                / delta("serve_service_seconds_count") * 1000.0,
            "serve.queue_depth_max": extras["depth_max"],
            "serve.jobs_submitted": delta("serve_jobs_submitted"),
            "serve.jobs_shed": delta("serve_jobs_shed"),
            "serve.rate_limited": delta("serve_rate_limited"),
            "serve.http_5xx":
                responses_5xx(after) - responses_5xx(before),
            "serve.tenant_create_s":
                sum(gateway.tenant_create_s)
                / len(gateway.tenant_create_s),
            "serve.cpu_cores_used": (cpu_after - cpu_before) / wall,
            "trace.overhead_share": _overhead(untraced, ops),
        })
        return {"metrics": metrics,
                "outputs": [(op.first_input, op.outputs) for op in ops
                            if op.outputs is not None]}


WORKLOADS = {cls.name: cls for cls in
             (FcSession, FcPackedBatch, ConvStreamTcp, ServeWindow)}
