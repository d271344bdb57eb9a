"""The output-fold geometry in the handshake spec: each linear stage of
a model-role spec carries its certified output bound (data-role specs
do not need it — a linear output's frame carries its own bound), the
worker's stages stamp it on their outputs, a changed bound changes the
spec digest and rebuilds the worker's session, and a malformed record
fails the handshake cleanly."""

import copy

import pytest

from repro.errors import HandshakeError
from repro.net import WorkerServer, build_worker_spec
from repro.net.transport import KIND_HELLO, KIND_WELCOME, Envelope, dial
from repro.net.wire import ROLE_DATA, ROLE_MODEL, bound_bits_from_wire
from repro.net.worker import _Session, _spec_digest
from repro.observability import OBS_OFF
from repro.planner.plan import ClusterSpec
from repro.scaling.headroom import FOLD_GUARD_BITS


@pytest.fixture()
def specs(make_providers, make_plan):
    plan = make_plan(ClusterSpec.homogeneous(1, 1, 2))
    model_provider, data_provider = make_providers()
    model_provider.register_public_key(data_provider.public_key)
    return model_provider, {
        role: build_worker_spec(model_provider, data_provider, plan, role)
        for role in (ROLE_MODEL, ROLE_DATA)
    }


class TestFoldSpec:
    def test_model_spec_ships_the_geometry(self, specs):
        model_provider, by_role = specs
        bounds = model_provider.bound_bits
        assert bounds and all(bits > FOLD_GUARD_BITS
                              for bits in bounds.values())
        stages = by_role[ROLE_MODEL]["stages"]
        for index, stage in stages.items():
            if stage["kind"] == "linear":
                assert stage["bound_bits"] == bounds[int(index)]
                assert bound_bits_from_wire(int(index), stage) \
                    == bounds[int(index)]
            else:
                assert "bound_bits" not in stage
        assert "fold" not in by_role[ROLE_MODEL]
        for stage in by_role[ROLE_DATA]["stages"].values():
            assert "bound_bits" not in stage

    def test_changed_geometry_rebuilds_the_session(self, specs,
                                                   worker_farm):
        _, by_role = specs
        spec = by_role[ROLE_MODEL]
        changed = copy.deepcopy(spec)
        changed["stages"]["0"]["bound_bits"] = 40
        assert _spec_digest(changed) != _spec_digest(spec)
        servers, addresses = worker_farm(WorkerServer())
        host, port = addresses[0]
        first = dial(host, port)
        second = dial(host, port)
        try:
            assert first.request(Envelope(KIND_HELLO, spec),
                                 timeout=5).kind == KIND_WELCOME
            original = servers[0]._sessions["default"]
            assert original.executor_for(0).stage.bound_bits == \
                spec["stages"]["0"]["bound_bits"]
            assert second.request(Envelope(KIND_HELLO, changed),
                                  timeout=5).kind == KIND_WELCOME
            rebuilt = servers[0]._sessions["default"]
        finally:
            first.close()
            second.close()
        assert rebuilt is not original
        assert rebuilt.executor_for(0).stage.bound_bits == 40

    @pytest.mark.parametrize("record", [
        {},
        {"bound_bits": "four"},
        {"bound_bits": 0},
        {"bound_bits": -1},
        {"bound_bits": 2.5},
        {"bound_bits": True},
        None,
    ])
    def test_malformed_geometry_rejected(self, specs, record):
        with pytest.raises(HandshakeError):
            bound_bits_from_wire(0, record)
        # The handshake refuses it before any stage runs.
        _, by_role = specs
        spec = copy.deepcopy(by_role[ROLE_MODEL])
        spec["stages"]["0"] = dict(spec["stages"]["0"])
        spec["stages"]["0"].pop("bound_bits")
        if isinstance(record, dict):
            spec["stages"]["0"].update(record)
        with pytest.raises(HandshakeError):
            _Session(spec, OBS_OFF)

    def test_uncertified_stage_round_trips(self, specs):
        """A stage the headroom analysis cannot certify ships None and
        emits outputs without a bound."""
        _, by_role = specs
        spec = copy.deepcopy(by_role[ROLE_MODEL])
        spec["stages"]["0"]["bound_bits"] = None
        assert bound_bits_from_wire(0, spec["stages"]["0"]) is None
        session = _Session(spec, OBS_OFF)
        assert session.executor_for(0).stage.bound_bits is None
