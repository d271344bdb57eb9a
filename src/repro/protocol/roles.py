"""The two protocol parties: model provider and data provider.

Responsibilities follow Section III exactly:

* :class:`ModelProvider` holds the (scaled) model parameters, evaluates
  linear primitive stages homomorphically, and (de)obfuscates tensors.
  It never holds the private key and never sees a plaintext tensor.
* :class:`DataProvider` holds the Paillier keypair and the raw input,
  evaluates non-linear operations on decrypted (permuted) values, and
  re-encrypts results.  It never sees model parameters.

Both roles record what they observe during a session; the security
tests assert over those views (ciphertexts only at the model provider,
only permuted intermediates at the data provider).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..config import DEFAULT_CONFIG, RuntimeConfig
from ..costs import CompressionStats
from ..crypto.encoding import LanePacker
from ..crypto.engine import PaillierEngine
from ..crypto.sparse import SparseMatvecPlan
from ..observability import Observability
from ..crypto.paillier import PaillierPublicKey, generate_keypair
from ..crypto.tensor import (
    EncryptedTensor,
    FoldedTensor,
    PackedEncryptedTensor,
)
from ..errors import EncodingError, ProtocolError, SecurityViolationError
from ..nn.layers import Flatten, LayerKind
from ..nn.model import Sequential
from ..obfuscation.obfuscator import Obfuscator
from ..planner.primitive import MergedPrimitive, model_stages
from ..scaling.fixed_point import ScaledAffine, scaled_affine_for_layer
from ..scaling.headroom import (
    FOLD_INPUT_BOUND,
    FoldGeometry,
    LanePlan,
    fold_geometry,
)
from ..scaling.headroom import plan_lane_packing as _plan_lane_packing

#: Non-linear activations the data provider knows how to execute.
#: ReLU and Sigmoid are permutation-compatible; SoftMax is
#: position-sensitive and only legal in the final (non-obfuscated) round.
ELEMENTWISE_ACTIVATIONS = ("relu", "sigmoid")
FINAL_ACTIVATIONS = ("softmax",)


@dataclass
class LinearStagePlan:
    """The model provider's prepared form of one linear stage.

    ``matvec_plans`` is parallel to ``affines``: every layer's
    :class:`~repro.crypto.sparse.SparseMatvecPlan`, its column
    schedules compiled once at session setup and carried by every
    runtime — in-process sessions, the threaded stream executors, and
    (serialized into the handshake spec, recompiled once per worker
    session) remote workers — so no request compiles anything.  A
    ``None`` entry makes the engine compile that layer per call.
    """

    stage: MergedPrimitive
    affines: List[ScaledAffine] = field(default_factory=list)
    matvec_plans: List[SparseMatvecPlan | None] = \
        field(default_factory=list)


class ModelProvider:
    """Holds model parameters; executes linear stages under encryption."""

    def __init__(
        self,
        model: Sequential,
        decimals: int,
        config: RuntimeConfig = DEFAULT_CONFIG,
        obs: Observability | None = None,
    ):
        self.decimals = decimals
        self.config = config
        self._model = model
        #: Observability sinks.  Defaults from ``config.observability``
        #: (no-op twins when off); pass one shared instance to both
        #: parties to aggregate a session's metrics in one registry.
        self.obs = obs if obs is not None \
            else Observability.from_config(config)
        self._rng = random.Random(config.seed ^ 0x4D50)
        self._obfuscator = Obfuscator(config.seed ^ 0x0BF5)
        self._public_key: PaillierPublicKey | None = None
        #: Batched crypto engine, built when the public key arrives.
        #: The model provider never holds the private key, so its
        #: engine gets no CRT acceleration — only the blinding pool
        #: and (if configured) the process pool.
        self.engine: PaillierEngine | None = None
        self.stages = model_stages(model)
        #: How every linear stage's outputs are folded before they go
        #: to the data provider (protocol-public: derived from the key
        #: size, the scaling exponent and the model's peak bound).
        self.fold: FoldGeometry = fold_geometry(self.stages, decimals,
                                                config.key_size)
        self._folder: LanePacker | None = None
        self._linear_plans: dict[int, LinearStagePlan] = {}
        for stage in self.stages:
            if stage.kind is LayerKind.LINEAR:
                plan = LinearStagePlan(stage)
                shape = stage.input_shape
                for primitive in stage.primitives:
                    if isinstance(primitive.layer, Flatten):
                        # Row-major flattening is a no-op on the flat
                        # ciphertext stream.
                        shape = primitive.output_shape
                        continue
                    affine = scaled_affine_for_layer(
                        primitive.layer, primitive.input_shape,
                        decimals,
                    )
                    plan.affines.append(affine)
                    plan.matvec_plans.append(
                        SparseMatvecPlan.from_dense(affine.weight)
                    )
                    shape = primitive.output_shape
                self._linear_plans[stage.index] = plan
        #: What this party observed (for security tests): payload kinds.
        self.observed: List[str] = []
        # Static-bias encryption cache: the model is fixed, so each
        # affine's encrypted bias at a given input exponent can be
        # computed once and reused across requests.
        self._bias_cache: dict[tuple[int, int, int], object] = {}
        # Lane-packing state: admission plans per batch size, and the
        # packed twin of the bias cache (bias broadcast across lanes).
        self._lane_plans: dict[int, LanePlan] = {}
        self._packed_bias_cache: dict[tuple, object] = {}

    def _encrypted_bias(
        self,
        stage_index: int,
        affine_index: int,
        affine: ScaledAffine,
        input_exponent: int,
        public_key: PaillierPublicKey,
    ):
        from ..crypto.tensor import EncryptedTensor

        key = (stage_index, affine_index, input_exponent)
        cached = self._bias_cache.get(key)
        if cached is None:
            cached = EncryptedTensor.encrypt(
                affine.bias_at(input_exponent), public_key, self._rng,
                exponent=input_exponent + affine.decimals,
            )
            self._bias_cache[key] = cached
        return cached

    def register_public_key(self, public_key: PaillierPublicKey) -> None:
        """Receive the data provider's public key at session setup."""
        self._public_key = public_key
        if self._folder is None \
                or self._folder.public_key.n != public_key.n:
            self._folder = self.fold.packer(public_key)
        if self.engine is None or self.engine.public_key.n != public_key.n:
            self.engine = PaillierEngine(
                public_key,
                workers=self.config.workers,
                pool_size=self.config.blinding_pool_size,
                seed=self.config.seed ^ 0x4D50E,
                obs=self.obs,
                dispatch_min_items=self.config.dispatch_min_items,
                backend=self.config.bigint_backend,
            )

    def nonlinear_activations(self, stage_index: int) -> List[str]:
        """Activation specs of a non-linear stage (protocol-public).

        Parameterized activations carry their (non-secret,
        architectural) parameter in the spec, e.g. ``leaky_relu:0.01``.
        """
        stage = self.stages[stage_index]
        if stage.kind is not LayerKind.NONLINEAR:
            raise ProtocolError(f"stage {stage_index} is not non-linear")
        return [activation_spec(primitive.layer)
                for primitive in stage.primitives]

    def compression_stats(self) -> List[CompressionStats | None]:
        """Per-stage compression structure for the planner cost model.

        One entry per merged stage (aligned with :attr:`stages`):
        ``None`` for non-linear stages (and linear stages without
        plans), else a :class:`~repro.costs.CompressionStats`
        aggregated over the stage's planned affines — feed the list to
        :func:`repro.planner.profiling.profile_primitive_times` so
        stage assignment charges compressed layers their surviving
        exponentiations instead of the dense count.
        """
        out: List[CompressionStats | None] = []
        for stage in self.stages:
            stage_plan = self._linear_plans.get(stage.index)
            plans = ([p for p in stage_plan.matvec_plans
                      if p is not None]
                     if stage_plan is not None else [])
            if not plans:
                out.append(None)
                continue
            total = sum(p.total for p in plans)
            nnz = sum(p.nnz for p in plans)
            ncols = sum(len(p.columns) for p in plans)
            pairs = sum(p.distinct_pairs for p in plans)
            out.append(CompressionStats(
                density=(nnz / total if total else 1.0),
                clusters=max(p.distinct_values for p in plans) or None,
                distinct_per_column=(pairs / ncols if ncols else None),
            ))
        return out

    def process_linear_stage(
        self,
        stage_index: int,
        tensor: EncryptedTensor,
        inbound_obfuscation_round: int | None,
        final: bool,
    ) -> tuple[FoldedTensor, int | None]:
        """Steps (x.5)/(x.6)/(x.7) of Figure 3 for one linear stage.

        The (permuted, or on the final stage unpermuted) outputs leave
        folded :attr:`fold` ``.lanes`` to a ciphertext, so the data
        provider decrypts one ciphertext per ``lanes`` values.

        Args:
            stage_index: index of the linear merged primitive.
            tensor: encrypted (possibly still-permuted) input tensor.
            inbound_obfuscation_round: obfuscator round id the inbound
                tensor is permuted under, or None in the first round.
            final: True for the last linear stage — its output is sent
                back *without* obfuscation (step 3.4).

        Returns:
            (folded output tensor, obfuscation round id or None when
            final).
        """
        if self._public_key is None:
            raise ProtocolError("public key not registered")
        if not isinstance(tensor, EncryptedTensor):
            raise SecurityViolationError(
                "model provider only accepts encrypted tensors"
            )
        plan = self._linear_plans.get(stage_index)
        if plan is None:
            raise ProtocolError(f"stage {stage_index} is not linear")
        self.observed.append("ciphertext")
        stage_start = time.perf_counter()

        cells = list(tensor.flatten().cells())
        if inbound_obfuscation_round is not None:
            cells = self._obfuscator.deobfuscate(
                inbound_obfuscation_round, cells
            )
        current = EncryptedTensor(
            tensor.public_key, cells, (len(cells),), tensor.exponent
        )
        for affine_index, affine in enumerate(plan.affines):
            encrypted_bias = self._encrypted_bias(
                stage_index, affine_index, affine, current.exponent,
                tensor.public_key,
            )
            current = current.affine(
                affine.weight,
                encrypted_bias,
                self._rng,
                weight_exponent=affine.decimals,
                engine=self.engine,
                plan=plan.matvec_plans[affine_index],
            )
        round_id = None
        if not final:
            round_id, permuted = self._obfuscator.obfuscate(
                list(current.cells())
            )
            current = EncryptedTensor(
                current.public_key, permuted, (len(permuted),),
                current.exponent,
            )
        folded = FoldedTensor.fold(current, self._folder, self.engine)
        self.obs.registry.histogram(
            "protocol_linear_stage_seconds", stage=str(stage_index)
        ).observe(time.perf_counter() - stage_start)
        return folded, round_id

    # -- lane packing ---------------------------------------------------

    def plan_lane_packing(self, batch: int) -> LanePlan:
        """Admission analysis for packing ``batch`` samples per
        ciphertext (cached — the model and key size are fixed)."""
        plan = self._lane_plans.get(batch)
        if plan is None:
            plan = _plan_lane_packing(
                self._model, self.decimals, self.config.key_size,
                lanes=batch,
            )
            self._lane_plans[batch] = plan
        return plan

    def lane_packer(self, batch: int) -> LanePacker | None:
        """The packer for an admitted batch size, or None.

        The lane geometry is derived from protocol-public quantities
        (key size, scaling exponent, worst-case magnitude bounds of
        the *scaled* model), so sharing the packer with the data
        provider leaks nothing beyond the batch size.
        """
        if self._public_key is None:
            raise ProtocolError("public key not registered")
        plan = self.plan_lane_packing(batch)
        if not plan.admitted:
            return None
        return LanePacker(
            self._public_key, lanes=batch,
            mag_bits=plan.mag_bits, guard_bits=plan.guard_bits,
        )

    def _encrypted_bias_packed(
        self,
        stage_index: int,
        affine_index: int,
        affine: ScaledAffine,
        input_exponent: int,
        packer: LanePacker,
        batch: int,
    ) -> PackedEncryptedTensor:
        key = (stage_index, affine_index, input_exponent, batch,
               packer.lane_bits)
        cached = self._packed_bias_cache.get(key)
        if cached is None:
            bias = affine.bias_at(input_exponent)
            lanes = [[int(b)] * batch for b in np.asarray(bias).reshape(-1)]
            cells = self.engine.encrypt_many_packed(
                lanes, packer, rng=self._rng
            )
            cached = PackedEncryptedTensor(
                packer.public_key, cells, (len(cells),), packer, batch,
                exponent=input_exponent + affine.decimals,
            )
            self._packed_bias_cache[key] = cached
        return cached

    def process_linear_stage_packed(
        self,
        stage_index: int,
        tensor: PackedEncryptedTensor,
        inbound_obfuscation_round: int | None,
        final: bool,
    ) -> tuple[PackedEncryptedTensor, int | None]:
        """Lane-packed twin of :meth:`process_linear_stage`.

        One homomorphic pass serves every sample in the batch; the
        obfuscator permutes packed cells exactly as it permutes scalar
        ones (all lanes of a position travel together, so the whole
        batch shares one permutation per round).
        """
        if self._public_key is None:
            raise ProtocolError("public key not registered")
        if not isinstance(tensor, PackedEncryptedTensor):
            raise SecurityViolationError(
                "model provider only accepts encrypted tensors"
            )
        plan = self._linear_plans.get(stage_index)
        if plan is None:
            raise ProtocolError(f"stage {stage_index} is not linear")
        self.observed.append("ciphertext")
        stage_start = time.perf_counter()

        cells = list(tensor.flatten().cells())
        if inbound_obfuscation_round is not None:
            cells = self._obfuscator.deobfuscate(
                inbound_obfuscation_round, cells
            )
        current = PackedEncryptedTensor(
            tensor.public_key, cells, (len(cells),), tensor.packer,
            tensor.batch, tensor.exponent,
        )
        for affine_index, affine in enumerate(plan.affines):
            encrypted_bias = self._encrypted_bias_packed(
                stage_index, affine_index, affine, current.exponent,
                tensor.packer, tensor.batch,
            )
            current = current.affine(
                affine.weight,
                encrypted_bias,
                self._rng,
                weight_exponent=affine.decimals,
                engine=self.engine,
                plan=plan.matvec_plans[affine_index],
            )
        histogram = self.obs.registry.histogram(
            "protocol_linear_stage_seconds", stage=str(stage_index)
        )
        if final:
            histogram.observe(time.perf_counter() - stage_start)
            return current, None
        round_id, permuted = self._obfuscator.obfuscate(
            list(current.cells())
        )
        permuted_tensor = PackedEncryptedTensor(
            current.public_key, permuted, (len(permuted),),
            current.packer, current.batch, current.exponent,
        )
        histogram.observe(time.perf_counter() - stage_start)
        return permuted_tensor, round_id


class DataProvider:
    """Holds the keypair and raw input; executes non-linear stages."""

    def __init__(
        self,
        value_decimals: int,
        config: RuntimeConfig = DEFAULT_CONFIG,
        obs: Observability | None = None,
    ):
        if value_decimals < 0:
            raise ProtocolError("value_decimals must be non-negative")
        self.value_decimals = value_decimals
        self.config = config
        #: Observability sinks (see :class:`ModelProvider.obs`).
        self.obs = obs if obs is not None \
            else Observability.from_config(config)
        self._rng = random.Random(config.seed ^ 0x4450)
        self.public_key, self._private_key = generate_keypair(
            config.key_size, seed=config.seed ^ 0x6B65
        )
        #: Batched crypto engine.  As the key holder, the data
        #: provider's engine blinds from the half-width tables mod p^2
        #: and q^2 (sound only on this side of the protocol).
        self.engine = PaillierEngine(
            self.public_key,
            private_key=self._private_key,
            workers=config.workers,
            pool_size=config.blinding_pool_size,
            seed=config.seed ^ 0x4450E,
            obs=self.obs,
            dispatch_min_items=config.dispatch_min_items,
            backend=config.bigint_backend,
        )
        # The paper's offline phase: precompute the blinding-factor
        # pool now, before any request arrives, so online encryption
        # during streaming is one modular multiply per ciphertext.
        self.engine.prefill()
        #: Decrypted intermediate vectors observed (permuted except the
        #: final round) — inspected by the security tests.
        self.observed_plaintexts: List[np.ndarray] = []

    @staticmethod
    def check_input(x: np.ndarray) -> np.ndarray:
        """``x`` as float64, if the fold certifies it exact.

        Linear-stage outputs come back folded in lanes sized for
        ``max|x| <= FOLD_INPUT_BOUND`` (16); a larger input could
        overflow a lane.

        Raises:
            EncodingError: some ``|x_i|`` exceeds the bound (or is not
                finite) — raised before anything is encrypted.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size and not np.all(np.abs(x) <= FOLD_INPUT_BOUND):
            raise EncodingError(
                f"input magnitude {np.abs(x).max()} exceeds the "
                f"certified bound {FOLD_INPUT_BOUND:g}: normalize the "
                "input first"
            )
        return x

    def encrypt_input(self, x: np.ndarray) -> EncryptedTensor:
        """Step (1.1): scale the raw input and encrypt element-wise
        (after :meth:`check_input`)."""
        from ..scaling.fixed_point import scale_to_int

        start = time.perf_counter()
        x = self.check_input(x)
        scaled = scale_to_int(x, self.value_decimals)
        tensor = EncryptedTensor.encrypt(
            scaled, self.public_key,
            exponent=self.value_decimals,
            engine=self.engine,
        )
        self.obs.registry.histogram(
            "protocol_encrypt_seconds"
        ).observe(time.perf_counter() - start)
        return tensor

    def process_nonlinear_stage(
        self,
        tensor: FoldedTensor | EncryptedTensor,
        activations: Sequence[str],
        final: bool,
    ) -> EncryptedTensor | np.ndarray:
        """Steps (2.1)-(2.3) (or (3.5)-(3.7) when final) of Figure 3.

        Decrypt (one CRT decryption per folded ciphertext), run the
        activations on the (permuted) plaintext, and re-encrypt every
        value — or, in the final round, return the inference result as
        floats.
        """
        start = time.perf_counter()
        values = tensor.decrypt_float(self._private_key,
                                      engine=self.engine)
        self.observed_plaintexts.append(values.copy())
        flat = values.reshape(-1)
        for activation in activations:
            flat = self._apply_activation(activation, flat, final)
        histogram = self.obs.registry.histogram(
            "protocol_nonlinear_stage_seconds", final=str(final).lower()
        )
        if final:
            histogram.observe(time.perf_counter() - start)
            return flat
        from ..scaling.fixed_point import scale_to_int

        rescaled = scale_to_int(flat, self.value_decimals)
        result = EncryptedTensor.encrypt(
            rescaled, self.public_key,
            exponent=self.value_decimals,
            engine=self.engine,
        )
        histogram.observe(time.perf_counter() - start)
        return result

    def _apply_activation(
        self, activation: str, flat: np.ndarray, final: bool
    ) -> np.ndarray:
        return apply_activation(activation, flat, final)

    # -- lane packing ---------------------------------------------------

    def encrypt_input_batch(
        self, xs: np.ndarray, packer: LanePacker
    ) -> PackedEncryptedTensor:
        """Packed step (1.1): one ciphertext per position for the
        whole batch of inputs (shape ``(batch, *sample_shape)``)."""
        from ..scaling.fixed_point import scale_to_int

        start = time.perf_counter()
        xs = np.asarray(xs, dtype=np.float64)
        scaled = scale_to_int(xs, self.value_decimals)
        tensor = PackedEncryptedTensor.encrypt_batch(
            scaled, packer,
            exponent=self.value_decimals,
            engine=self.engine,
        )
        self.obs.registry.histogram(
            "protocol_encrypt_seconds"
        ).observe(time.perf_counter() - start)
        return tensor

    def process_nonlinear_stage_packed(
        self,
        tensor: PackedEncryptedTensor,
        activations: Sequence[str],
        final: bool,
    ) -> PackedEncryptedTensor | np.ndarray:
        """Lane-packed twin of :meth:`process_nonlinear_stage`.

        One CRT decryption per position serves the whole batch; the
        activations run row-wise (SoftMax normalizes each sample
        independently).  The decrypted (batch, positions) block is
        recorded in ``observed_plaintexts`` like the scalar path —
        every row is permuted under the same round permutation.
        """
        start = time.perf_counter()
        values = tensor.decrypt_float(self._private_key,
                                      engine=self.engine)
        self.observed_plaintexts.append(values.copy())
        rows = values.reshape(tensor.batch, -1)
        for activation in activations:
            rows = apply_activation_batch(activation, rows, final)
        histogram = self.obs.registry.histogram(
            "protocol_nonlinear_stage_seconds", final=str(final).lower()
        )
        if final:
            histogram.observe(time.perf_counter() - start)
            return rows
        from ..scaling.fixed_point import scale_to_int

        rescaled = scale_to_int(rows, self.value_decimals)
        result = PackedEncryptedTensor.encrypt_batch(
            rescaled, tensor.packer,
            exponent=self.value_decimals,
            engine=self.engine,
        )
        histogram.observe(time.perf_counter() - start)
        return result


def activation_spec(layer) -> str:
    """The protocol-public activation spec string of a layer."""
    from ..nn.layers import LeakyReLU

    if isinstance(layer, LeakyReLU):
        return f"leaky_relu:{layer.alpha}"
    return layer.name


def apply_activation(spec: str, flat: np.ndarray,
                     final: bool) -> np.ndarray:
    """Execute one activation spec on a flat (possibly permuted)
    vector.  ReLU/LeakyReLU/Sigmoid/Tanh are element-wise and legal on
    permuted data; SoftMax is position-sensitive and only legal in the
    final round (Section III-C)."""
    name, _, parameter = spec.partition(":")
    if name == "relu":
        return np.maximum(flat, 0.0)
    if name == "leaky_relu":
        alpha = float(parameter) if parameter else 0.01
        return np.where(flat > 0, flat, alpha * flat)
    if name == "tanh":
        return np.tanh(flat)
    if name == "sigmoid":
        out = np.empty_like(flat)
        positive = flat >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-flat[positive]))
        exp_x = np.exp(flat[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out
    if name == "softmax":
        if not final:
            raise SecurityViolationError(
                "SoftMax is position-sensitive and only legal in the "
                "final, non-obfuscated round (Section III-C)"
            )
        shifted = flat - flat.max()
        exp = np.exp(shifted)
        return exp / exp.sum()
    raise ProtocolError(f"unknown activation {spec!r}")


def apply_activation_batch(spec: str, rows: np.ndarray,
                           final: bool) -> np.ndarray:
    """Batch (row-per-sample) form of :func:`apply_activation`.

    Element-wise activations vectorize over the 2-D block unchanged;
    SoftMax must normalize each sample's row independently."""
    name = spec.partition(":")[0]
    if name == "softmax":
        if not final:
            raise SecurityViolationError(
                "SoftMax is position-sensitive and only legal in the "
                "final, non-obfuscated round (Section III-C)"
            )
        shifted = rows - rows.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)
    return apply_activation(spec, rows, final)
