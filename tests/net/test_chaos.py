"""Chaos-injection tests: deterministic scripts, and the acceptance
criterion that transient connection drops heal via reconnect-with-
backoff *without* consuming the worker restart budget."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.net import (
    ChaosInjector,
    ChaosPlan,
    Coordinator,
    WorkerServer,
)
from repro.net.chaos import ChaosScript, ChaosStats
from repro.planner.plan import ClusterSpec
from repro.stream import RetryPolicy


class TestChaosPlan:
    def test_zero_rates_is_falsy_and_from_config_none(self):
        assert not ChaosPlan()
        assert ChaosPlan.from_config(RuntimeConfig(key_size=128)) is None

    def test_from_config_carries_knobs(self):
        config = RuntimeConfig(
            key_size=128, seed=9, chaos_drop_rate=0.25,
            chaos_delay_rate=0.5, chaos_delay_seconds=0.001,
        )
        plan = ChaosPlan.from_config(config)
        assert plan is not None and plan
        assert plan.drop_rate == 0.25
        assert plan.delay_rate == 0.5
        assert plan.delay_seconds == 0.001

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPlan(delay_seconds=-1.0)

    def test_config_chaos_enabled_property(self):
        config = RuntimeConfig(key_size=128)
        assert not config.chaos_enabled
        assert replace(config, chaos_drop_rate=0.1).chaos_enabled


class TestChaosScriptDeterminism:
    def test_same_seed_same_schedule(self):
        plan = ChaosPlan(seed=42, drop_rate=0.3, delay_rate=0.3,
                         dup_heartbeat_rate=0.5, slow_read_rate=0.3)
        kinds = ["task", "heartbeat", "task", "task", "heartbeat"] * 8

        def schedule(index):
            script = ChaosScript(plan, index, ChaosStats())
            return ([script.send_verdict(kind) for kind in kinds],
                    [script.recv_verdict() for _ in range(20)])

        assert schedule(0) == schedule(0)
        assert schedule(3) == schedule(3)
        # Different connection index -> a different stream.
        assert schedule(0) != schedule(1)

    def test_handshake_kinds_exempt(self):
        plan = ChaosPlan(seed=1, drop_rate=1.0, delay_rate=1.0,
                         dup_heartbeat_rate=1.0)
        script = ChaosScript(plan, 0, ChaosStats())
        assert script.send_verdict("hello") == (False, False, False)
        assert script.send_verdict("welcome") == (False, False, False)
        # Non-exempt kinds do draw.
        assert script.send_verdict("task")[0] is True

    def test_dup_only_applies_to_heartbeats(self):
        plan = ChaosPlan(seed=1, dup_heartbeat_rate=1.0)
        script = ChaosScript(plan, 0, ChaosStats())
        assert script.send_verdict("task") == (False, False, False)
        assert script.send_verdict("heartbeat") == (False, False, True)

    def test_injector_hands_out_sequential_scripts(self):
        injector = ChaosInjector(ChaosPlan(seed=5, drop_rate=0.1))
        first, second = injector.script(), injector.script()
        assert (first.index, second.index) == (0, 1)
        assert injector.stats.connections == 2


class TestChaosHealsViaReconnect:
    def test_drops_heal_without_restart_budget(
            self, make_providers, make_plan, reference_results,
            net_inputs, worker_farm):
        """ISSUE acceptance: chaos-injected connection drops must heal
        via reconnect-with-backoff — bit-identical results, zero dead
        letters, zero restart-budget consumed, and at least one actual
        reconnect observed."""
        config = RuntimeConfig(
            key_size=128, seed=78,
            net_heartbeat_interval=0.2, net_heartbeat_timeout=3.0,
            chaos_seed=7, chaos_drop_rate=0.08, chaos_delay_rate=0.1,
            chaos_delay_seconds=0.002,
            net_reconnect_attempts=4, net_reconnect_base_delay=0.02,
            net_reconnect_max_delay=0.2,
        )
        providers = make_providers(config)
        plan = make_plan(ClusterSpec.homogeneous(2, 1, 2))
        expected = reference_results(plan)
        _, addresses = worker_farm(
            WorkerServer(), WorkerServer(), WorkerServer()
        )
        respawn_calls = []

        def respawn(server_id, role):  # pragma: no cover - must not run
            respawn_calls.append(server_id)
            raise AssertionError("respawn must not be consulted for "
                                 "a transient drop")

        model_provider, data_provider = providers
        coordinator = Coordinator(
            model_provider, data_provider, plan, addresses,
            respawn=respawn, worker_restart_budget=2,
            retry_policy=RetryPolicy(max_retries=8, base_delay=0.02,
                                     jitter_seed=78),
        )
        with coordinator as coord:
            assert coord.chaos is not None
            stats = coord.run_stream(net_inputs)
            # The workers never died for real: every drop was a chaos
            # cut that reconnect healed at the same address.
            drops = coord.chaos.stats.drops
            reconnects = sum(h.reconnects for h in coord.handles)
        assert drops > 0, "chaos plan injected no drops; rate too low"
        assert reconnects > 0, "drops never exercised the reconnect path"
        assert not respawn_calls
        assert all(h.restarts == 0 for h in coord.handles)
        assert not stats.dead_letters
        assert len(stats.results) == len(net_inputs)
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  expected[result.request_id])

    def test_chaos_off_means_plain_connections(
            self, make_providers, make_plan, worker_farm):
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        _, addresses = worker_farm(WorkerServer(), WorkerServer())
        model_provider, data_provider = make_providers()
        with Coordinator(model_provider, data_provider, plan,
                         addresses) as coord:
            assert coord.chaos is None
