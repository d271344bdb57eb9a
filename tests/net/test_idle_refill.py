"""The key holder's worker refills its blinding pools while idle.

:meth:`WorkerServer.start_idle_refill` (started by ``python -m repro
worker``) tops every data-role session's pool up to its target from
one background thread, one factor at a time through the pool's locked
refill, and only while no task runs.  The factors must still come out
in the seeded order, each handed out once.
"""

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.crypto.engine import party_engine
from repro.net import Coordinator, WorkerServer, build_worker_spec
from repro.net.transport import (
    KIND_ERROR,
    KIND_HELLO,
    KIND_WELCOME,
    Envelope,
    dial,
)
from repro.net.wire import ROLE_DATA, task_envelope
from repro.planner.plan import ClusterSpec
from repro.stream.executors import StreamItem

REFILL_THREAD = "repro-worker-refill-"


def _refill_threads(server):
    name = f"{REFILL_THREAD}{server.address[1]}"
    return [thread for thread in threading.enumerate()
            if thread.name == name]


def _wait_for(predicate, timeout=30.0):
    end = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > end:
            return False
        time.sleep(0.01)
    return True


class _GatedWorker(WorkerServer):
    """Each task draws ``draws`` factors, then waits for ``release``
    before it runs: a task that is in progress for as long as the test
    wants."""

    def __init__(self, draws, **kwargs):
        super().__init__(**kwargs)
        self.draws = draws
        self.entered = threading.Event()
        self.release = threading.Event()

    def _run_task(self, session, envelope):
        session.engine.pool.draw_many(self.draws)
        self.entered.set()
        self.release.wait(30.0)
        return super()._run_task(session, envelope)


def _data_session(server, make_providers, make_plan, config=None):
    """Handshake one data-role session onto ``server``; returns the
    open connection, the session's pool, and a task envelope (for a
    linear stage, which a data worker answers with an error)."""
    plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
    model_provider, data_provider = make_providers(config)
    model_provider.register_public_key(data_provider.public_key)
    spec = build_worker_spec(model_provider, data_provider, plan,
                             ROLE_DATA)
    connection = dial(*server.address)
    reply = connection.request(Envelope(KIND_HELLO, spec), timeout=30)
    assert reply.kind == KIND_WELCOME
    x = np.random.default_rng(5).uniform(0, 1, (1, 8, 8))
    task = task_envelope(
        StreamItem(request_id=0,
                   tensor=data_provider.encrypt_input(x)),
        stage_index=0,
    )
    return connection, server._sessions["default"].engine.pool, task


class TestSeededOrder:
    @pytest.mark.timeout(120)
    def test_drawn_and_remaining_factors_are_the_seeded_sequence(
            self, make_providers, make_plan, reference_results,
            net_inputs, worker_farm):
        """A stream's data stages draw from the pool on their own
        connection threads while the refiller tops it up between
        tasks.  Every factor drawn is distinct, and the drawn factors
        plus what is left are exactly the first factors a same-seeded
        pool yields."""
        plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
        expected = reference_results(plan)
        servers, addresses = worker_farm(WorkerServer(), WorkerServer())
        for server in servers:
            server.start_idle_refill()
        model_provider, data_provider = make_providers()
        drawn, refillers = [], []
        with Coordinator(model_provider, data_provider, plan,
                         addresses) as coordinator:
            coordinator.connect()
            (data_server,) = [server for server in servers
                              if server._role == ROLE_DATA]
            session = data_server._sessions["default"]
            pool = session.engine.pool
            draw_many, refill = pool.draw_many, pool.refill

            def recording_draw_many(count):
                factors = draw_many(count)
                drawn.extend(factors)
                return factors

            def recording_refill(count=None):
                refillers.append(threading.current_thread().name)
                refill(count)

            pool.draw_many = recording_draw_many
            pool.refill = recording_refill
            stats = coordinator.run_stream(net_inputs)
            assert _wait_for(lambda: len(pool) == pool.target_size)
        assert not stats.dead_letters
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  expected[result.request_id])
        assert any(name.startswith(REFILL_THREAD) for name in refillers)
        remainder = list(pool._factors)
        assert len(set(drawn)) == len(drawn)
        twin = party_engine(session.public_key, session.config, None,
                            private_key=session.private_key)
        sequence = twin.pool.draw_many(len(drawn) + len(remainder))
        assert sorted(drawn + remainder) == sorted(sequence)
        # The refiller appends in seeded order too: what is left is
        # the sequence's tail.
        assert remainder == sequence[len(drawn):]


    @pytest.mark.timeout(60)
    def test_concurrent_draws_and_one_factor_refills(self, net_config):
        """The refiller's access pattern under stress, pinning the
        pool's thread safety that the refiller relies on.  Four
        threads draw while a fifth adds one factor at a time, with a
        10 µs switch interval: no factor is handed out twice, and what
        was drawn plus what is left is the same-seeded pool's
        sequence."""
        from repro.crypto.paillier import generate_keypair

        public_key, private_key = generate_keypair(128, seed=3)
        pool = party_engine(public_key, net_config, None,
                            private_key=private_key).pool
        drawn: list = []
        stop = threading.Event()

        def drawer():
            for count in (1, 7, 50, 3, 128, 2) * 5:
                drawn.extend(pool.draw_many(count))

        def refiller():
            while not stop.is_set():
                pool.refill(1)
                time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drawer, daemon=True)
                       for _ in range(4)]
            adder = threading.Thread(target=refiller, daemon=True)
            adder.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            stop.set()
            adder.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not adder.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        remainder = list(pool._factors)
        assert len(drawn) == 4 * 5 * (1 + 7 + 50 + 3 + 128 + 2)
        assert len(set(drawn)) == len(drawn)
        twin = party_engine(public_key, net_config, None,
                            private_key=private_key)
        sequence = twin.pool.draw_many(len(drawn) + len(remainder))
        assert sorted(drawn + remainder) == sorted(sequence)
        assert remainder == sequence[len(drawn):]


class TestOnlyWhileIdle:
    @pytest.mark.timeout(60)
    def test_nothing_is_added_while_a_task_runs(
            self, make_providers, make_plan, worker_farm):
        """A task drains 40 factors and is held in progress: the pool
        stays 40 short.  Its end wakes the refiller, which tops the
        pool up to its target."""
        (server,), _ = worker_farm(_GatedWorker(draws=40))
        connection, pool, task = _data_session(server, make_providers,
                                               make_plan)
        server.start_idle_refill()
        replies = []
        sender = threading.Thread(
            target=lambda: replies.append(
                connection.request(task, timeout=30)),
            daemon=True,
        )
        try:
            sender.start()
            assert server.entered.wait(30.0)
            short = len(pool)
            assert short == pool.target_size - 40
            time.sleep(0.3)
            assert len(pool) == short
            server.release.set()
            sender.join(30.0)
            assert replies and replies[0].kind == KIND_ERROR
            assert _wait_for(lambda: len(pool) == pool.target_size)
        finally:
            server.release.set()
            connection.close()

    def test_an_in_process_server_starts_no_refiller(self, worker_farm):
        """In-process servers keep the pools' synchronous refill
        (``python -m repro worker`` starts the refiller,
        tests/test_cli.py)."""
        (server,), _ = worker_farm(WorkerServer())
        assert _refill_threads(server) == []


class TestEndsWithTheServer:
    @pytest.mark.timeout(60)
    def test_stop_ends_an_idle_refiller(self, make_providers, make_plan,
                                        worker_farm):
        (server,), _ = worker_farm(WorkerServer())
        connection, _, _ = _data_session(server, make_providers,
                                         make_plan)
        server.start_idle_refill()
        assert len(_refill_threads(server)) == 1
        server.stop()
        connection.close()
        assert _refill_threads(server) == []

    @pytest.mark.timeout(60)
    def test_stop_ends_a_refiller_mid_top_up(self, make_providers,
                                             make_plan, net_config,
                                             worker_farm):
        """With thousands of factors to add, the refiller is still
        topping up when the server stops, and ends with it."""
        config = replace(net_config, blinding_pool_size=50000)
        (server,), _ = worker_farm(_GatedWorker(draws=49000))
        connection, pool, task = _data_session(
            server, make_providers, make_plan, config)
        server.start_idle_refill()
        server.release.set()
        connection.request(task, timeout=30)
        assert _wait_for(lambda: len(pool) > 1000)
        server.stop()
        connection.close()
        assert _refill_threads(server) == []
        assert len(pool) < pool.target_size
