"""Continuous batching in the gateway: one dispatch per tenant.

Jobs queued for a tenant while it has nothing running go to the
runner together and run as lane-packed requests (folded on their way
to the data provider when the key has room), yet every job keeps its
own FSM edges and its own outcome: a malformed job fails alone, a
dispatch never mixes tenants, a dead-lettered packed request takes
every job in it to ``DEADLINE``, and every answer is bit-identical to
the job's scalar twin.
"""

import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.crypto.serialize import any_tensor_from_bytes
from repro.crypto.tensor import FoldedTensor, PackedEncryptedTensor
from repro.errors import DeadlineExceededError, EncodingError, ServeError
from repro.net import WorkerServer, wire
from repro.observability import NULL_TRACER, Observability
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, InferenceSession, ModelProvider
from repro.serve import DONE, FAILED, SHED, Job, tenant_seed
from repro.serve.gateway import ServeGateway, build_serve_model
from repro.serve.tenants import TenantRuntime

SEED = 23
CLUSTER = ClusterSpec.homogeneous(1, 1, 2)


@pytest.fixture(scope="module")
def served():
    return build_serve_model("tiny")


def _sample(input_shape, index):
    rng = np.random.default_rng([SEED, index])
    return rng.integers(0, 101, input_shape) / 100


def _twin(served, tenant, key_size):
    model, decimals, _shape = served
    config = RuntimeConfig(key_size=key_size,
                           seed=tenant_seed(SEED, tenant))
    return InferenceSession(
        ModelProvider(model, decimals=decimals, config=config),
        DataProvider(value_decimals=decimals, config=config),
    )


def _assert_twin(twin, x, result):
    reference = twin.run(x)
    assert result["prediction"] == reference.prediction
    assert np.array_equal(np.asarray(result["probabilities"]),
                          reference.probabilities)


def _queued_gateway(served, key_size, submissions):
    """A local gateway with ``submissions`` (tenant, input) queued
    before its fleet starts, so each tenant's jobs form one dispatch;
    returns the gateway (started) and the jobs."""
    model, decimals, _shape = served
    config = RuntimeConfig(key_size=key_size, seed=SEED,
                           serve_queue_capacity=32, serve_tenant_quota=16)
    gateway = ServeGateway(model, decimals, config)
    jobs = [gateway.submit(tenant, x) for tenant, x in submissions]
    gateway.start()
    deadline = time.monotonic() + 60.0
    while not gateway.manager.tracker.all_terminal():
        assert time.monotonic() < deadline, "jobs never went terminal"
        time.sleep(0.01)
    return gateway, jobs


def _batch_histograms(gateway):
    return {labels["tenant"]: hist for labels, hist in
            gateway.obs.registry.find("histogram", "serve_batch_jobs")}


class TestOneDispatch:
    def test_bad_jobs_fail_alone(self, served):
        """A malformed and an out-of-range job share a dispatch with
        three good ones: they go FAILED with their own errors, and the
        good ones finish DONE, bit-identical to their scalar twins."""
        _model, _decimals, shape = served
        good = [_sample(shape, index) for index in range(3)]
        out_of_range = np.full(shape, 16.5)
        submissions = [
            ("acme", good[0].tolist()),
            ("acme", [1.0, 2.0]),                 # wrong shape
            ("acme", good[1].tolist()),
            ("acme", out_of_range.tolist()),      # beyond |x| <= 16
            ("acme", [[0.5], [0.5, 0.5]]),        # ragged
            ("acme", good[2].tolist()),
        ]
        gateway, jobs = _queued_gateway(served, 128, submissions)
        try:
            assert [job.state for job in jobs] == [
                DONE, FAILED, DONE, FAILED, FAILED, DONE]
            assert "ServeError" in jobs[1].error
            assert "EncodingError" in jobs[3].error
            assert "ServeError" in jobs[4].error
            twin = _twin(served, "acme", 128)
            for job, x in zip((jobs[0], jobs[2], jobs[5]), good):
                _assert_twin(twin, x, job.result)
            histogram = _batch_histograms(gateway)["acme"]
            assert (histogram.count, histogram.sum, histogram.max) \
                == (1, 6, 6)
            counts = gateway.manager.tracker.counts()
            assert counts == {DONE: 3, FAILED: 3}
            assert sum(counts.values()) == len(submissions)
            assert counts.get(SHED, 0) == 0
        finally:
            gateway.close()

    def test_dispatches_never_mix_tenants(self, served):
        """Two tenants' interleaved jobs form one dispatch each, under
        each tenant's own key, every answer equal to its twin."""
        _model, _decimals, shape = served
        xs = [_sample(shape, 10 + index) for index in range(6)]
        tenants = ["alpha", "beta"] * 3
        gateway, jobs = _queued_gateway(
            served, 128, [(t, x.tolist()) for t, x in zip(tenants, xs)])
        try:
            assert all(job.state == DONE for job in jobs)
            histograms = _batch_histograms(gateway)
            assert {name: (h.count, h.sum) for name, h
                    in histograms.items()} == {"alpha": (1, 3),
                                               "beta": (1, 3)}
            for tenant in ("alpha", "beta"):
                twin = _twin(served, tenant, 128)
                for job, x in zip(jobs, xs):
                    if job.tenant == tenant:
                        _assert_twin(twin, x, job.result)
            text = gateway.obs.registry.to_prometheus()
            assert "# TYPE serve_batch_jobs histogram" in text
            assert 'serve_batch_jobs_sum{tenant="alpha"} 3' in text
        finally:
            gateway.close()


class TestTenantDispatch:
    def _runtime(self, served, key_size=128, mode="local",
                 addresses=None, obs=None):
        model, decimals, _shape = served
        config = RuntimeConfig(key_size=key_size, seed=SEED)
        return TenantRuntime("acme", model, decimals, config, CLUSTER,
                             mode=mode, worker_addresses=addresses,
                             obs=obs)

    def test_request_groups(self, served):
        runtime = self._runtime(served)
        try:
            assert runtime.max_lanes == 4    # tiny, 128-bit key
            assert runtime._request_groups(1) == [(0, 1)]
            assert runtime._request_groups(4) == [(0, 4)]
            assert runtime._request_groups(5) == [(0, 3), (3, 5)]
            assert runtime._request_groups(9) == \
                [(0, 3), (3, 6), (6, 9)]
            runtime.max_lanes = 1
            assert runtime._request_groups(3) == \
                [(0, 1), (1, 2), (2, 3)]
        finally:
            runtime.close()

    def test_dead_lettered_packed_request_fails_every_job(
            self, served, monkeypatch):
        """A packed request that blows the dispatch's deadline
        mid-stream is dead-lettered; each of its jobs goes DEADLINE
        with that reason."""
        _model, _decimals, shape = served
        runtime = self._runtime(served)
        runtime.model_provider.register_public_key(runtime.public_key)
        stage = runtime.model_provider.linear_stage(0)
        original = stage.run

        def slow(tensor, inbound_round):
            time.sleep(1.0)
            return original(tensor, inbound_round)

        monkeypatch.setattr(stage, "run", slow)
        try:
            jobs = [Job("acme", _sample(shape, index).tolist(),
                        deadline=time.monotonic() + 0.5)
                    for index in range(3)]
            outcomes = runtime.run(jobs)
            assert len(outcomes) == 3
            assert all(isinstance(outcome, DeadlineExceededError)
                       for outcome in outcomes)
            assert "deadline" in str(outcomes[0])
        finally:
            runtime.close()

    def test_expired_job_skips_the_dispatch(self, served):
        _model, _decimals, shape = served
        runtime = self._runtime(served)
        try:
            x = _sample(shape, 0)
            outcomes = runtime.run([
                Job("acme", x.tolist(), deadline=time.monotonic() - 1),
                Job("acme", x.tolist()),
            ])
            assert isinstance(outcomes[0], DeadlineExceededError)
            _assert_twin(_twin(served, "acme", 128), x, outcomes[1])
        finally:
            runtime.close()

    def test_input_checks(self, served):
        _model, _decimals, shape = served
        runtime = self._runtime(served)
        try:
            flat = _sample(shape, 0).reshape(-1)
            assert runtime._check_input(flat.tolist()).shape == shape
            with pytest.raises(ServeError):
                runtime._check_input("not numbers")
            with pytest.raises(EncodingError):
                runtime._check_input(np.full(shape, np.nan).tolist())
        finally:
            runtime.close()

    def test_fleet_dispatch_folds_packed_outputs(self, served,
                                                 monkeypatch):
        """Over TCP workers at 256 bits, a 3-job dispatch is one
        3-lane request whose linear outputs cross the wire folded,
        three positions per ciphertext — with twin-identical answers."""
        _model, _decimals, shape = served
        fleet = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in fleet]
        obs = Observability(enabled=True, tracer=NULL_TRACER)
        runtime = self._runtime(served, key_size=256, mode="fleet",
                                addresses=addresses, obs=obs)
        parsed = []

        def recording(blob, public_key):
            tensor = any_tensor_from_bytes(blob, public_key)
            parsed.append(tensor)
            return tensor

        monkeypatch.setattr(wire, "any_tensor_from_bytes", recording)
        try:
            xs = [_sample(shape, 20 + index) for index in range(3)]
            outcomes = runtime.run([Job("acme", x.tolist())
                                    for x in xs])
            twin = _twin(served, "acme", 256)
            for x, outcome in zip(xs, outcomes):
                _assert_twin(twin, x, outcome)
            folded = [t for t in parsed if isinstance(t, FoldedTensor)]
            assert folded
            assert all(t.batch == 3 and t.packer.lanes == 9
                       for t in folded)
            assert any(isinstance(t, PackedEncryptedTensor)
                       for t in parsed)
        finally:
            runtime.close()
            for server in fleet:
                server.stop(abort=True)
