"""The output-fold geometry in the handshake spec: model-role specs
carry it (and data-role specs do not need it — folded frames carry
their own lane header), it round-trips, a changed geometry changes the
spec digest and rebuilds the worker's session, and a malformed record
fails cleanly."""

import copy

import pytest

from repro.errors import TransportError
from repro.net import WorkerServer, build_worker_spec
from repro.net.transport import KIND_HELLO, KIND_WELCOME, Envelope, dial
from repro.net.wire import (
    ROLE_DATA,
    ROLE_MODEL,
    fold_from_wire,
    fold_to_wire,
)
from repro.net.worker import _spec_digest
from repro.planner.plan import ClusterSpec
from repro.scaling.headroom import FOLD_GUARD_BITS, FoldGeometry


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
        fold = model_provider.fold
        assert fold.lanes > 1 and fold.guard_bits == FOLD_GUARD_BITS
        assert by_role[ROLE_MODEL]["fold"] == fold_to_wire(fold)
        assert fold_from_wire(by_role[ROLE_MODEL]["fold"]) == fold
        assert "fold" not in by_role[ROLE_DATA]

    def test_changed_geometry_rebuilds_the_session(self, specs,
                                                   worker_farm):
        _, by_role = specs
        spec = by_role[ROLE_MODEL]
        changed = copy.deepcopy(spec)
        changed["fold"]["lanes"] = 2
        assert _spec_digest(changed) != _spec_digest(spec)
        servers, addresses = worker_farm(WorkerServer())
        host, port = addresses[0]
        first = dial(host, port)
        second = dial(host, port)
        try:
            assert first.request(Envelope(KIND_HELLO, spec),
                                 timeout=5).kind == KIND_WELCOME
            original = servers[0]._sessions["default"]
            assert original.executor_for(0).fold == \
                fold_from_wire(spec["fold"])
            assert second.request(Envelope(KIND_HELLO, changed),
                                  timeout=5).kind == KIND_WELCOME
            rebuilt = servers[0]._sessions["default"]
        finally:
            first.close()
            second.close()
        assert rebuilt is not original
        assert rebuilt.executor_for(0).fold.lanes == 2

    @pytest.mark.parametrize("record", [
        {},
        {"lanes": 4, "mag_bits": 20},
        {"lanes": "four", "mag_bits": 20, "guard_bits": 4},
        {"lanes": 0, "mag_bits": 20, "guard_bits": 4},
        {"lanes": 4, "mag_bits": 0, "guard_bits": 4},
        {"lanes": 4, "mag_bits": 20, "guard_bits": -1},
        None,
    ])
    def test_malformed_geometry_rejected(self, record):
        with pytest.raises(TransportError):
            fold_from_wire(record)

    def test_single_lane_round_trips(self):
        fold = FoldGeometry.single_lane(256)
        assert fold_from_wire(fold_to_wire(fold)) == fold
        assert fold.lane_bits == 254
