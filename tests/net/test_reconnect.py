"""Reconnect-with-backoff, circuit breaker, connect-path deadlines and
per-worker heartbeat independence."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.errors import TransportError
from repro.net import CircuitBreaker, Coordinator, WorkerServer, dial
from repro.net.reconnect import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.net.transport import Envelope, KIND_HELLO
from repro.planner.plan import ClusterSpec
from repro.stream import RetryPolicy


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(threshold=threshold, cooldown=cooldown,
                                 clock=lambda: clock["now"])
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_run(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_half_open_probe_after_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock["now"] = 4.9
        assert not breaker.allow()
        clock["now"] = 5.0
        assert breaker.allow()  # the probe
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success()
        assert breaker.state == STATE_CLOSED

    def test_half_open_failure_reopens_immediately(self):
        breaker, clock = self.make(threshold=3, cooldown=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 5.0
        assert breaker.allow()
        breaker.record_failure()  # single half-open failure re-opens
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        clock["now"] = 9.0
        assert not breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestReconnectRecovery:
    def test_report_failure_heals_by_reconnect_not_budget(
            self, make_providers, make_plan, worker_farm):
        """A failure report against a still-listening worker heals by
        re-dialing the same address: generation bumps, alive returns,
        restarts stays zero and the reconnect is counted."""
        config = RuntimeConfig(
            key_size=128, seed=78,
            net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
            net_reconnect_attempts=4, net_reconnect_base_delay=0.02,
            net_reconnect_max_delay=0.2,
        )
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        _, addresses = worker_farm(WorkerServer(), WorkerServer())
        model_provider, data_provider = make_providers(config)
        with Coordinator(model_provider, data_provider, plan,
                         addresses) as coord:
            handle = coord.handles[0]
            generation = handle.generation
            coord.report_failure(handle, generation)
            deadline = time.monotonic() + 5.0
            while not handle.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.alive, "reconnect never healed the slot"
            assert handle.generation == generation + 1
            assert handle.restarts == 0
            assert handle.reconnects == 1
            assert handle.breaker.state == STATE_CLOSED

    def test_dead_address_exhausts_then_respawns(
            self, make_providers, make_plan, worker_farm):
        """With the original address truly dead, reconnect attempts
        exhaust and the respawn hook runs — once, within budget."""
        config = RuntimeConfig(
            key_size=128, seed=78,
            net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
            net_reconnect_attempts=2, net_reconnect_base_delay=0.02,
            net_reconnect_max_delay=0.1,
        )
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        victim, data_worker = WorkerServer(), WorkerServer()
        _, addresses = worker_farm(victim, data_worker)
        spawned = []

        def respawn(server_id, role):
            replacement = WorkerServer()
            spawned.append(replacement)
            return replacement.start()

        model_provider, data_provider = make_providers(config)
        try:
            with Coordinator(model_provider, data_provider, plan,
                             addresses, respawn=respawn,
                             worker_restart_budget=1) as coord:
                handle = coord.handles[0]
                victim.stop(abort=True)  # address now refuses dials
                coord.report_failure(handle, handle.generation)
                deadline = time.monotonic() + 8.0
                while not handle.alive \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert handle.alive, "respawn never revived the slot"
                assert handle.restarts == 1
                assert handle.reconnects == 0
                assert len(spawned) == 1
                assert tuple(handle.address) == spawned[0].address
        finally:
            for server in spawned:
                server.stop(abort=True)


class TestConnectDeadline:
    def test_silent_listener_fails_fast_not_forever(self, net_config):
        """A socket that accepts (kernel backlog) but never speaks the
        protocol must fail the dial+handshake within the configured
        deadlines instead of hanging the coordinator."""
        silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)  # never accept()ed or served
        host, port = silent.getsockname()[:2]
        try:
            started = time.monotonic()
            connection = dial(host, port, connect_timeout=0.3)
            with pytest.raises(TransportError):
                connection.request(Envelope(KIND_HELLO, header={}),
                                   timeout=0.5)
            elapsed = time.monotonic() - started
            assert elapsed < 3.0, (
                f"silent peer stalled the connect path for {elapsed:.1f}s"
            )
            connection.close()
        finally:
            silent.close()

    def test_dial_send_is_deadlined_before_handshake(self):
        """The dial leaves the connect timeout armed, so even the
        *send* half of the handshake cannot block unbounded when the
        peer never reads (zero receive window)."""
        silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        host, port = silent.getsockname()[:2]
        try:
            connection = dial(host, port, connect_timeout=0.2)
            big = Envelope(KIND_HELLO, header={},
                           payload=b"x" * (8 << 20))
            started = time.monotonic()
            with pytest.raises(TransportError):
                # 8MB into a never-read socket overflows the buffers;
                # the armed timeout must surface it quickly.
                for _ in range(64):
                    connection.send(big)
            assert time.monotonic() - started < 5.0
            connection.close()
        finally:
            silent.close()


class StallingWorker(WorkerServer):
    """Acks heartbeats only after a long stall — a live-but-wedged
    worker that the old sequential monitor would let poison every
    other worker's probe cadence."""

    def __init__(self, stall: float, **kwargs):
        super().__init__(**kwargs)
        self.stall = stall

    def _heartbeat_ack(self, envelope):
        time.sleep(self.stall)
        return super()._heartbeat_ack(envelope)


class TestHeartbeatIndependence:
    def test_one_stalled_worker_does_not_block_the_fleet(
            self, make_providers, make_plan, worker_farm):
        """Per-worker probe threads: with worker 0 stalling every ack
        past the heartbeat timeout, worker 1's probes must keep
        landing on schedule (detection latency independent of fleet
        size)."""
        config = RuntimeConfig(
            key_size=128, seed=78,
            net_heartbeat_interval=0.1, net_heartbeat_timeout=0.6,
            net_reconnect_attempts=0,
        )
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        stalled = StallingWorker(stall=30.0)
        healthy = WorkerServer()
        _, addresses = worker_farm(stalled, healthy)
        model_provider, data_provider = make_providers(config)
        with Coordinator(model_provider, data_provider, plan,
                         addresses) as coord:
            wedged, fine = coord.handles
            observe_for = 1.5
            time.sleep(observe_for)
            # The healthy worker's cadence: ~interval-spaced probes,
            # far more than the <=1 the old head-of-line loop would
            # manage while worker 0's probe burned its 0.6s timeout.
            assert fine.heartbeats_ok >= 5, (
                f"healthy worker got only {fine.heartbeats_ok} probes "
                f"in {observe_for}s — head-of-line blocking is back"
            )
            # And the stalled worker is detected dead meanwhile.
            deadline = time.monotonic() + 3.0
            while wedged.alive and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not wedged.alive
            assert wedged.heartbeats_ok == 0
