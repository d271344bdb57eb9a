"""Wire-format tests for the handshake's sparse matvec plan section.

Mirrors tests/crypto/test_serialize_packed.py for the plan codec:
round-trip fidelity, a malformed-record sweep (every corruption must
fail as a clean :class:`TransportError`, never poison a session), and
a packed x compressed equivalence run over a real TCP worker — the
two orthogonal fast paths composed on the wire.
"""

import json

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.crypto.encoding import LanePacker
from repro.crypto.sparse import SparseMatvecPlan
from repro.crypto.serialize import (
    any_tensor_from_bytes,
    any_tensor_to_bytes,
)
from repro.crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from repro.errors import TransportError
from repro.net import WorkerServer, build_worker_spec
from repro.net.transport import (
    KIND_HELLO,
    KIND_RESULT,
    KIND_TASK,
    KIND_WELCOME,
    Envelope,
    dial,
)
from repro.net.wire import ROLE_MODEL, plan_from_wire, plan_to_wire
from repro.nn import model_zoo
from repro.nn.layers import LayerKind
from repro.nn.rewrite import prune_model
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider


@pytest.fixture()
def sparse_plan():
    rng = np.random.default_rng(7)
    weights = rng.integers(-50, 50, size=(12, 10))
    weights[np.abs(weights) < 30] = 0  # properly sparse
    return SparseMatvecPlan.from_dense(weights)


class TestPlanRoundTrip:
    def test_round_trip_preserves_identity(self, sparse_plan):
        restored = plan_from_wire(plan_to_wire(sparse_plan))
        assert restored == sparse_plan
        assert restored.in_dim == sparse_plan.in_dim
        assert restored.out_dim == sparse_plan.out_dim
        assert restored.columns == sparse_plan.columns
        assert list(restored.row_weight_sums) == \
            list(sparse_plan.row_weight_sums)
        assert restored.nnz == sparse_plan.nnz
        assert restored.distinct_pairs == sparse_plan.distinct_pairs

    def test_survives_json_transport(self, sparse_plan):
        """The handshake spec crosses the wire as JSON — tuples become
        lists; the decoder must not care."""
        state = json.loads(json.dumps(plan_to_wire(sparse_plan)))
        assert plan_from_wire(state) == sparse_plan

    def test_all_zero_plan_round_trips(self):
        plan = SparseMatvecPlan.from_dense(np.zeros((4, 3)))
        assert plan_from_wire(plan_to_wire(plan)) == plan


class TestMalformedPlans:
    def _good(self, sparse_plan):
        return json.loads(json.dumps(plan_to_wire(sparse_plan)))

    @pytest.mark.parametrize("key", [
        "in_dim", "out_dim", "columns", "row_weight_sums",
    ])
    def test_missing_field(self, sparse_plan, key):
        state = self._good(sparse_plan)
        del state[key]
        with pytest.raises(TransportError):
            plan_from_wire(state)

    @pytest.mark.parametrize("mutate", [
        lambda s: s.__setitem__("in_dim", 0),
        lambda s: s.__setitem__("in_dim", -3),
        lambda s: s.__setitem__("out_dim", "many"),
        lambda s: s.__setitem__("columns", 42),
        lambda s: s.__setitem__("columns", [[0]]),  # no groups
        lambda s: s.__setitem__("row_weight_sums", s["row_weight_sums"][:-1]),
        lambda s: s.__setitem__("row_weight_sums", "nope"),
        # zero weight: the plan invariant every kernel relies on
        lambda s: s["columns"][0][1].__setitem__(0, [0, [0]]),
        # non-integer weight
        lambda s: s["columns"][0][1].__setitem__(0, ["w", [0]]),
        # row index out of range
        lambda s: s["columns"][0][1].__setitem__(0, [3, [999]]),
        # negative row index
        lambda s: s["columns"][0][1].__setitem__(0, [3, [-1]]),
        # column index out of range
        lambda s: s["columns"].__setitem__(
            0, [999, s["columns"][0][1]]
        ),
        # duplicate column entry
        lambda s: s["columns"].append(s["columns"][0]),
    ])
    def test_corrupted_record_raises_transport_error(
            self, sparse_plan, mutate):
        state = self._good(sparse_plan)
        mutate(state)
        with pytest.raises(TransportError):
            plan_from_wire(state)

    def test_corruption_never_leaks_other_exceptions(self, sparse_plan):
        """Sweep scalar fields through hostile replacement values; the
        decoder contract is TransportError or a valid plan, nothing
        else."""
        hostile = [None, "x", -1, [], {}, [[1]], float("nan")]
        template = self._good(sparse_plan)
        for key in template:
            for value in hostile:
                state = json.loads(json.dumps(template))
                state[key] = value
                try:
                    plan_from_wire(state)
                except TransportError:
                    pass


@pytest.fixture()
def pruned_parties():
    """Providers over a pruned tiny conv model: compressed plans exist
    for every linear stage."""
    model = model_zoo.conv_fc(
        (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8, seed=3,
        name="wire-plan-tiny",
    )
    pruned, _ = prune_model(model, 0.7)
    config = RuntimeConfig(key_size=256, seed=21)
    model_provider = ModelProvider(pruned, decimals=2, config=config)
    data_provider = DataProvider(value_decimals=2, config=config)
    model_provider.register_public_key(data_provider.public_key)
    return model_provider, data_provider


class TestSpecPlanSection:
    def test_model_spec_ships_plans(self, pruned_parties):
        model_provider, data_provider = pruned_parties
        plan = allocate_even(model_provider.stages,
                             ClusterSpec.homogeneous(1, 1, 2)).plan
        spec = build_worker_spec(model_provider, data_provider, plan,
                                 ROLE_MODEL)
        shipped = 0
        for index, stage in spec["stages"].items():
            if stage["kind"] != "linear":
                assert "matvec_plans" not in stage
                continue
            local = model_provider._linear_plans[int(index)]
            assert len(stage["matvec_plans"]) == len(local.affines)
            for wire_plan, local_plan in zip(stage["matvec_plans"],
                                             local.matvec_plans):
                if local_plan is None:
                    assert wire_plan is None
                    continue
                shipped += 1
                assert plan_from_wire(wire_plan) == local_plan
        assert shipped > 0, "pruned model shipped no plans"

    def test_spec_digest_changes_with_the_plan(self, pruned_parties):
        """Re-compressing a tenant's model must change the handshake
        digest, so the worker's spec pinning rebuilds the session
        instead of serving stale plans."""
        from repro.net.worker import _spec_digest

        model_provider, data_provider = pruned_parties
        plan = allocate_even(model_provider.stages,
                             ClusterSpec.homogeneous(1, 1, 2)).plan
        spec = build_worker_spec(model_provider, data_provider, plan,
                                 ROLE_MODEL)
        changed = json.loads(json.dumps(spec))
        for stage in changed["stages"].values():
            plans = stage.get("matvec_plans")
            if plans and plans[0] is not None:
                plans[0] = None  # "decompressed" layer, same weights
                break
        assert _spec_digest(changed) != _spec_digest(spec)


class TestPackedCompressedOverTCP:
    def test_packed_equals_scalar_through_a_remote_plan_stage(
            self, pruned_parties):
        """Lane-packed and scalar tasks through the same remote
        compressed linear stage must agree with each other and with
        the plaintext affine — the packed and sparse-plan fast paths
        compose across the wire."""
        model_provider, data_provider = pruned_parties
        plan = allocate_even(model_provider.stages,
                             ClusterSpec.homogeneous(1, 1, 2)).plan
        spec = build_worker_spec(model_provider, data_provider, plan,
                                 ROLE_MODEL)
        # The final linear stage emits unobfuscated output (its
        # consumer is the softmax stage), so results decrypt directly.
        linear = [s.index for s in plan.stages
                  if s.kind is LayerKind.LINEAR]
        stage_index = linear[-1]
        assert stage_index == len(plan.stages) - 2
        stage_plan = model_provider._linear_plans[stage_index]
        assert any(p is not None for p in stage_plan.matvec_plans)
        affine = stage_plan.affines[0]
        in_dim = affine.weight.shape[1]

        public = data_provider.public_key
        private = data_provider._private_key
        rng = np.random.default_rng(5)
        xs = rng.integers(-8, 8, size=(2, in_dim))
        packer = LanePacker(public, lanes=2, mag_bits=32)
        packed = PackedEncryptedTensor.encrypt_batch(
            xs, packer, exponent=0, engine=data_provider.engine,
        )
        scalars = [
            EncryptedTensor.encrypt(x, public, exponent=0,
                                    engine=data_provider.engine)
            for x in xs
        ]

        server = WorkerServer()
        host, port = server.start()
        connection = None
        try:
            connection = dial(host, port)
            assert connection.request(
                Envelope(KIND_HELLO, spec), timeout=5
            ).kind == KIND_WELCOME

            def run_stage(request_id, tensor):
                reply = connection.request(Envelope(
                    KIND_TASK,
                    {"request_id": request_id,
                     "stage_index": stage_index,
                     "obfuscation_round": None,
                     "trace_id": None, "trace_parent": None},
                    payload=any_tensor_to_bytes(tensor),
                ), timeout=10)
                assert reply.kind == KIND_RESULT
                assert not reply.header["has_result"]
                assert reply.header["obfuscation_round"] is None
                return any_tensor_from_bytes(reply.payload, public)

            packed_out = run_stage(0, packed)
            scalar_outs = [run_stage(1 + i, t)
                           for i, t in enumerate(scalars)]

            # The remote executor must actually hold the plan (the
            # compressed kernel ran, not a silent dense fallback).
            session = server._sessions["default"]
            executor = session._executors[stage_index]
            assert executor.stage.plan.matvec_plans

            packed_rows = packed_out.decrypt(private)
            for lane, (x, scalar_out) in enumerate(
                    zip(xs, scalar_outs)):
                expected = affine.apply_plain(x, input_exponent=0)
                scalar_row = scalar_out.decrypt(private)
                assert np.array_equal(scalar_row, expected)
                assert np.array_equal(packed_rows[lane], expected)
        finally:
            if connection is not None:
                connection.close()
            server.stop(abort=True)
