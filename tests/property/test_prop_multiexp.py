"""Property-based tests for the matvec kernel.

Every homomorphic matvec runs the column schedules its
:class:`~repro.crypto.sparse.SparseMatvecPlan` compiled (one multiply
per schedule step, one per weight use, one batched inversion), so
nothing it computes on the way resembles the scalar path — only the
result may be compared.  For ANY signed integer matrix it must return
exactly the ciphertexts of the scalar reference loop
(``raw_scalar_mul`` per weight, ``raw_add`` per term), on every route
into it: dense ``matvec``, planned ``fc_matvec`` / ``conv_im2col``,
``fc_matvec_packed``, a stream executor, a TCP worker, and the gmpy2
backend when it is importable.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.crypto.backend import HAVE_GMPY2, PythonBackend
from repro.crypto.encoding import LanePacker
from repro.crypto.engine import PaillierEngine
from repro.crypto.paillier import EncryptedNumber, generate_keypair
from repro.crypto.serialize import any_tensor_from_bytes, any_tensor_to_bytes
from repro.crypto.sparse import SparseMatvecPlan
from repro.crypto.tensor import EncryptedTensor, FoldedTensor
from repro.errors import CryptoError
from repro.net import WorkerServer, build_worker_spec
from repro.net.transport import (
    KIND_HELLO,
    KIND_RESULT,
    KIND_TASK,
    KIND_WELCOME,
    Envelope,
    dial,
)
from repro.net.wire import ROLE_MODEL, fold_to_wire
from repro.nn import model_zoo
from repro.nn.layers import LayerKind
from repro.obfuscation.obfuscator import Obfuscator
from repro.planner.allocation import allocate_even
from repro.planner.plan import ClusterSpec
from repro.protocol import DataProvider, ModelProvider
from repro.scaling.fixed_point import ScaledAffine
from repro.scaling.headroom import FoldGeometry
from repro.stream.executors import LinearStageExecutor, StreamItem

PUBLIC, PRIVATE = generate_keypair(128, seed=2024)
N_SQ = PUBLIC.n_squared

BACKENDS = ["python"] + (["gmpy2"] if HAVE_GMPY2 else [])

dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2 ** 31)
#: Signed weights from |w| = 1 up past 2^18, zero-heavy like a pruned
#: layer.
weight_cells = st.one_of(
    st.just(0),
    st.sampled_from([1, -1]),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-(1 << 20), max_value=1 << 20),
)
positive_cells = st.integers(min_value=1, max_value=1 << 13)
negative_cells = st.integers(min_value=-(1 << 13), max_value=-1)


def matrix_of(data, out_dim, in_dim, cells=weight_cells):
    return data.draw(st.lists(
        st.lists(cells, min_size=in_dim, max_size=in_dim),
        min_size=out_dim, max_size=out_dim,
    ))


def ciphertexts(count, seed):
    rng = random.Random(seed)
    return [PUBLIC.raw_encrypt(rng.randrange(PUBLIC.n), rng)
            for _ in range(count)]


def reference(cells, weights, bias):
    """The scalar loop of Eq. (3): one ``c^w`` per weight."""
    out = []
    for row, acc in zip(weights, bias):
        for c, w in zip(cells, row):
            if w:
                acc = PUBLIC.raw_add(acc, PUBLIC.raw_scalar_mul(c, w))
        out.append(acc)
    return out


class NoInvertBackend(PythonBackend):
    """Fails the test if the kernel asks for a modular inverse."""

    def invert(self, a, modulus):
        raise AssertionError("an all-positive layer inverted")


def make_engine(backend="python"):
    return PaillierEngine(PUBLIC, private_key=PRIVATE, seed=3,
                          backend=backend)


class TestKernelMatchesScalarReference:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(out_dim=dims, in_dim=dims, seed=seeds, data=st.data())
    def test_every_route_equals_the_scalar_loop(
            self, backend, out_dim, in_dim, seed, data):
        weights = matrix_of(data, out_dim, in_dim)
        cells = ciphertexts(in_dim, seed)
        bias = ciphertexts(out_dim, seed + 1)
        expected = reference(cells, weights, bias)
        engine = make_engine(backend)
        plan = SparseMatvecPlan.from_dense(weights)
        assert engine.matvec(cells, weights, bias) == expected
        assert engine.fc_matvec(cells, weights, bias) == expected
        assert engine.conv_im2col(cells, plan=plan, bias=bias) \
            == expected
        # A plan runs the same schedules on every call.
        assert engine.fc_matvec(cells, plan=plan, bias=bias) == expected

    @settings(max_examples=25, deadline=None)
    @given(in_dim=dims, seed=seeds, data=st.data())
    def test_single_output_row(self, in_dim, seed, data):
        weights = matrix_of(data, 1, in_dim)
        cells = ciphertexts(in_dim, seed)
        bias = ciphertexts(1, seed + 1)
        engine = make_engine()
        assert engine.matvec(cells, weights, bias) \
            == engine.fc_matvec(cells, weights, bias) \
            == reference(cells, weights, bias)

    @settings(max_examples=25, deadline=None)
    @given(out_dim=dims, in_dim=dims, seed=seeds, data=st.data())
    def test_all_positive_layer_never_inverts(
            self, out_dim, in_dim, seed, data):
        weights = matrix_of(data, out_dim, in_dim, positive_cells)
        cells = ciphertexts(in_dim, seed)
        bias = ciphertexts(out_dim, seed + 1)
        engine = make_engine(backend=NoInvertBackend())
        expected = reference(cells, weights, bias)
        assert engine.matvec(cells, weights, bias) == expected
        assert engine.fc_matvec(cells, weights, bias) == expected

    @settings(max_examples=25, deadline=None)
    @given(out_dim=dims, in_dim=dims, seed=seeds, data=st.data())
    def test_all_negative_row_and_empty_lines(
            self, out_dim, in_dim, seed, data):
        """Row 0 all negative, then an all-zero row and an all-zero
        column spliced into an arbitrary matrix."""
        weights = matrix_of(data, out_dim, in_dim)
        weights[0] = data.draw(st.lists(
            negative_cells, min_size=in_dim, max_size=in_dim))
        weights.append([0] * in_dim)
        weights = [row + [0] for row in weights]
        cells = ciphertexts(in_dim + 1, seed)
        bias = ciphertexts(out_dim + 1, seed + 1)
        engine = make_engine()
        expected = reference(cells, weights, bias)
        assert expected[-1] == bias[-1]
        assert engine.matvec(cells, weights, bias) == expected
        assert engine.fc_matvec(cells, weights, bias) == expected

    @settings(max_examples=25, deadline=None)
    @given(in_dim=dims, seed=seeds, data=st.data())
    def test_clustered_plan_many_rows_per_weight(
            self, in_dim, seed, data):
        """Few distinct weights, each used by many rows: one short
        schedule per column, many uses of each power."""
        palette = data.draw(st.lists(
            st.integers(min_value=-(1 << 16), max_value=1 << 16)
            .filter(bool), min_size=1, max_size=2, unique=True))
        weights = matrix_of(data, 24, in_dim,
                            cells=st.sampled_from(palette))
        cells = ciphertexts(in_dim, seed)
        bias = ciphertexts(24, seed + 1)
        engine = make_engine()
        plan = SparseMatvecPlan.from_dense(weights)
        expected = reference(cells, weights, bias)
        assert engine.conv_im2col(cells, plan=plan, bias=bias) \
            == expected
        assert engine.matvec(cells, weights, bias) == expected

    @settings(max_examples=20, deadline=None)
    @given(out_dim=dims, in_dim=dims, seed=seeds, data=st.data())
    def test_packed_route(self, out_dim, in_dim, seed, data):
        """``fc_matvec_packed`` is the kernel plus a plaintext rebias:
        dense and planned packed products agree, and undoing the
        rebias recovers the scalar reference."""
        weights = matrix_of(
            data, out_dim, in_dim,
            cells=st.integers(min_value=-300, max_value=300))
        packer = LanePacker(PUBLIC, lanes=2, mag_bits=16,
                            guard_bits=24)
        engine = make_engine()
        rng = random.Random(seed)
        cells = [c.ciphertext for c in engine.encrypt_many_packed(
            [[rng.randrange(-200, 200) for _ in range(2)]
             for _ in range(in_dim)], packer, rng=random.Random(seed))]
        bias = [c.ciphertext for c in engine.encrypt_many_packed(
            [[rng.randrange(-200, 200) for _ in range(2)]
             for _ in range(out_dim)], packer,
            rng=random.Random(seed + 1))]
        plan = SparseMatvecPlan.from_dense(weights)
        dense = engine.fc_matvec_packed(cells, weights, bias, packer)
        assert engine.fc_matvec_packed(cells, None, bias, packer,
                                       plan=plan) == dense
        rebias = [
            packer.rebias_residue(
                packer.offset - (packer.offset * sum(row)
                                 + packer.offset))
            for row in weights
        ]
        assert dense == engine.add_plain_many(
            reference(cells, weights, bias), rebias)


def _affine(weights):
    out_dim, in_dim = len(weights), len(weights[0])
    return ScaledAffine(
        weight=np.array(weights, dtype=np.int64),
        raw_bias=np.zeros(out_dim), decimals=0,
        input_shape=(in_dim,), output_shape=(out_dim,),
    )


class TestExecutorRoute:
    @settings(max_examples=20, deadline=None)
    @given(out_dim=dims, in_dim=dims, seed=seeds, data=st.data())
    def test_linear_executor_equals_the_scalar_loop(
            self, out_dim, in_dim, seed, data):
        """A stream executor compiles its plan at construction; its
        folded output is the fold of the scalar loop's ciphertexts."""
        weights = matrix_of(data, out_dim, in_dim)
        executor = LinearStageExecutor(
            0, [_affine(weights)], Obfuscator(1), 1,
            random.Random(seed), final=True,
        )
        assert executor.plans == [SparseMatvecPlan.from_dense(weights)]
        cells = ciphertexts(in_dim, seed)
        tensor = EncryptedTensor(
            PUBLIC, [EncryptedNumber(PUBLIC, c) for c in cells],
            (in_dim,), 0)
        out = executor.process(StreamItem(0, tensor)).tensor
        bias = [c.ciphertext
                for c in executor._bias_cache[(0, 0)].cells()]
        expected = FoldedTensor.fold(
            EncryptedTensor(
                PUBLIC,
                [EncryptedNumber(PUBLIC, c)
                 for c in reference(cells, weights, bias)],
                (out_dim,), 0),
            executor._folder_for(PUBLIC), make_engine())
        assert [c.ciphertext for c in out.cells()] \
            == [c.ciphertext for c in expected.cells()]


class TestTcpRoute:
    def test_remote_stage_equals_the_plaintext_affine(self):
        """The plan crosses the wire as its column index only; the
        worker recompiles the schedules and runs an adversarial layer
        (big weights, an all-negative row, an all-zero column) to the
        plaintext answer."""
        model = model_zoo.conv_fc(
            (1, 4, 4), 3, conv_channels=(2,), fc_hidden=6, seed=3,
            name="multiexp-tcp",
        )
        config = RuntimeConfig(key_size=256, seed=5)
        model_provider = ModelProvider(model, decimals=2, config=config)
        data_provider = DataProvider(value_decimals=2, config=config)
        model_provider.register_public_key(data_provider.public_key)
        plan = allocate_even(model_provider.stages,
                             ClusterSpec.homogeneous(1, 1, 2)).plan
        stage_index = [s.index for s in plan.stages
                       if s.kind is LayerKind.LINEAR][-1]
        stage_plan = model_provider._linear_plans[stage_index]
        affine = stage_plan.affines[0]
        out_dim, in_dim = affine.weight.shape
        rng = random.Random(9)
        weights = [[rng.choice([0, 1, -1, rng.randrange(-(1 << 40),
                                                        1 << 40)])
                    for _ in range(in_dim)] for _ in range(out_dim)]
        weights[0] = [-abs(w) - 1 for w in weights[0]]
        for row in weights:
            row[1] = 0
        affine = dataclasses.replace(
            affine, weight=np.array(weights, dtype=np.int64))
        stage_plan.affines[0] = affine
        stage_plan.matvec_plans[0] = SparseMatvecPlan.from_dense(weights)
        spec = build_worker_spec(model_provider, data_provider, plan,
                                 ROLE_MODEL)
        spec["fold"] = fold_to_wire(
            FoldGeometry.single_lane(config.key_size))

        public = data_provider.public_key
        x = np.array([rng.randrange(-8, 8) for _ in range(in_dim)])
        tensor = EncryptedTensor.encrypt(x, public, exponent=0,
                                         engine=data_provider.engine)
        server = WorkerServer()
        host, port = server.start()
        connection = None
        try:
            connection = dial(host, port)
            assert connection.request(
                Envelope(KIND_HELLO, spec), timeout=5
            ).kind == KIND_WELCOME
            reply = connection.request(Envelope(
                KIND_TASK,
                {"request_id": 0, "stage_index": stage_index,
                 "obfuscation_round": None,
                 "trace_id": None, "trace_parent": None},
                payload=any_tensor_to_bytes(tensor),
            ), timeout=20)
            assert reply.kind == KIND_RESULT
            out = any_tensor_from_bytes(reply.payload, public)
            executor = server._sessions["default"]._executors[stage_index]
            assert executor.plans[0] == stage_plan.matvec_plans[0]
            assert executor.plans[0].schedules \
                == stage_plan.matvec_plans[0].schedules
        finally:
            if connection is not None:
                connection.close()
            server.stop(abort=True)
        assert np.array_equal(out.decrypt(data_provider._private_key),
                              affine.apply_plain(x, input_exponent=0))


class TestNonUnitBase:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_weight_on_a_non_unit_is_a_crypto_error(
            self, backend):
        """A base sharing a factor with n has no inverse: the batched
        inversion must surface that as CryptoError, not ValueError or
        ZeroDivisionError."""
        cells = [PRIVATE.p, ciphertexts(1, 1)[0]]
        bias = ciphertexts(2, 2)
        weights = [[-3, 5], [2, -7]]
        engine = make_engine(backend=backend)
        with pytest.raises(CryptoError):
            engine.matvec(cells, weights, bias)
        with pytest.raises(CryptoError):
            engine.fc_matvec(cells, weights, bias)
        with pytest.raises(CryptoError):
            engine.conv_im2col(
                cells, plan=SparseMatvecPlan.from_dense(weights),
                bias=bias)
