"""The two protocol parties: model provider and data provider.

Responsibilities follow Section III exactly:

* :class:`ModelProvider` holds the (scaled) model parameters, evaluates
  linear primitive stages homomorphically, and (de)obfuscates tensors.
  It never holds the private key and never sees a plaintext tensor.
* :class:`DataProvider` holds the Paillier keypair and the raw input,
  evaluates non-linear operations on decrypted (permuted) values, and
  re-encrypts results.  It never sees model parameters.

Each party builds one engine and one stage object per stage
(:mod:`repro.protocol.stages`); the ``process_*`` methods run those
stages, and the threaded stream executors wrap the same objects.  Both
roles record what they observe during a session; the security tests
assert over those views (ciphertexts only at the model provider, only
permuted intermediates at the data provider).
"""

from __future__ import annotations

import random
import time
from typing import List, Sequence

import numpy as np

from ..config import DEFAULT_CONFIG, RuntimeConfig
from ..costs import CompressionStats
from ..crypto.encoding import LanePacker
from ..crypto.engine import PaillierEngine, party_engine
from ..crypto.sparse import SparseMatvecPlan
from ..observability import Observability
from ..crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from ..crypto.tensor import (
    EncryptedTensor,
    FoldedTensor,
    PackedEncryptedTensor,
)
from ..errors import EncodingError, ProtocolError, SecurityViolationError
from ..nn.layers import Flatten, LayerKind
from ..nn.model import Sequential
from ..obfuscation.obfuscator import Obfuscator
from ..planner.primitive import model_stages
from ..scaling.fixed_point import scale_to_int, scaled_affine_for_layer
from ..scaling.headroom import (
    FOLD_INPUT_BOUND,
    FoldGeometry,
    LanePlan,
    fold_geometry,
)
from ..scaling.headroom import plan_lane_packing as _plan_lane_packing
from .stages import LinearStage, LinearStagePlan, NonLinearStage

#: Seed salts of the model provider's obfuscator and bias RNG; a remote
#: model-role worker derives its own from the same salts.
OBFUSCATOR_SALT = 0x0BF5
MODEL_RNG_SALT = 0x4D50


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
        self._rng = random.Random(config.seed ^ MODEL_RNG_SALT)
        self._obfuscator = Obfuscator(config.seed ^ OBFUSCATOR_SALT)
        #: The party's engine (:func:`~repro.crypto.engine
        #: .party_engine`, no private key), built when the public key
        #: arrives and shared by every linear stage.
        self.engine: PaillierEngine | None = None
        self.stages = model_stages(model)
        #: How every linear stage's outputs are folded before they go
        #: to the data provider (protocol-public: derived from the key
        #: size, the scaling exponent and the model's peak bound).
        self.fold: FoldGeometry = fold_geometry(self.stages, decimals,
                                                config.key_size)
        self._linear_plans: dict[int, LinearStagePlan] = {}
        for stage in self.stages:
            if stage.kind is LayerKind.LINEAR:
                plan = LinearStagePlan(stage.index)
                for primitive in stage.primitives:
                    if isinstance(primitive.layer, Flatten):
                        # Row-major flattening is a no-op on the flat
                        # ciphertext stream.
                        continue
                    affine = scaled_affine_for_layer(
                        primitive.layer, primitive.input_shape,
                        decimals,
                    )
                    plan.affines.append(affine)
                    plan.matvec_plans.append(
                        SparseMatvecPlan.from_dense(affine.weight)
                    )
                self._linear_plans[stage.index] = plan
        self._linear_stages: dict[int, LinearStage] = {}
        #: What this party observed (for security tests): payload kinds.
        self.observed: List[str] = []
        # Lane-packing admission plans per batch size.
        self._lane_plans: dict[int, LanePlan] = {}

    def register_public_key(self, public_key: PaillierPublicKey) -> None:
        """Receive the data provider's public key at session setup.

        Builds the party's engine and one :class:`~repro.protocol
        .stages.LinearStage` per linear stage for that key; a second
        registration of the same key keeps them (and their cached
        encrypted biases).
        """
        if self.engine is not None \
                and self.engine.public_key.n == public_key.n:
            return
        self.engine = party_engine(public_key, self.config, self.obs)
        last = len(self.stages) - 2
        self._linear_stages = {
            index: LinearStage(plan, self._obfuscator, self.engine,
                               self._rng, self.fold, final=index == last)
            for index, plan in self._linear_plans.items()
        }

    def linear_stage(self, stage_index: int) -> LinearStage:
        """The stage object every runtime runs for a linear stage (the
        threaded stream's executors wrap these; its ``plan`` is what a
        model-role worker's handshake spec carries)."""
        if self.engine is None:
            raise ProtocolError("public key not registered")
        stage = self._linear_stages.get(stage_index)
        if stage is None:
            raise ProtocolError(f"stage {stage_index} is not linear")
        return stage

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
        layers), else a :class:`~repro.costs.CompressionStats`
        aggregated over the stage's planned affines — feed the list to
        :func:`repro.planner.profiling.profile_primitive_times` so
        stage assignment charges compressed layers their surviving
        exponentiations instead of the dense count.
        """
        out: List[CompressionStats | None] = []
        for stage in self.stages:
            stage_plan = self._linear_plans.get(stage.index)
            plans = stage_plan.matvec_plans if stage_plan is not None \
                else []
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
        tensor: EncryptedTensor | PackedEncryptedTensor,
        inbound_obfuscation_round: int | None,
        final: bool,
    ) -> tuple[FoldedTensor | PackedEncryptedTensor, int | None]:
        """Steps (x.5)/(x.6)/(x.7) of Figure 3 for one linear stage:
        :meth:`LinearStage.run <repro.protocol.stages.LinearStage.run>`
        on a scalar or lane-packed tensor.

        Args:
            stage_index: index of the linear merged primitive.
            tensor: encrypted (possibly still-permuted) input tensor.
            inbound_obfuscation_round: obfuscator round id the inbound
                tensor is permuted under, or None in the first round.
            final: True for the last linear stage — its output is sent
                back *without* obfuscation (step 3.4).  Must agree with
                the stage's position.

        Returns:
            (output tensor — folded when scalar — and the obfuscation
            round id, or None when final).

        Raises:
            SecurityViolationError: ``tensor`` is not encrypted.
            ProtocolError: the key is not registered, the stage is not
                linear, or ``final`` disagrees with the stage.
        """
        stage = self.linear_stage(stage_index)
        if not isinstance(tensor, (EncryptedTensor,
                                   PackedEncryptedTensor)):
            raise SecurityViolationError(
                "model provider only accepts encrypted tensors"
            )
        if final != stage.final:
            raise ProtocolError(
                f"final={final} for linear stage {stage_index}, which "
                f"is {'' if stage.final else 'not '}the last one: only "
                "the last linear stage skips obfuscation"
            )
        self.observed.append("ciphertext")
        start = time.perf_counter()
        result = stage.run(tensor, inbound_obfuscation_round)
        self.obs.registry.histogram(
            "protocol_linear_stage_seconds", stage=str(stage_index)
        ).observe(time.perf_counter() - start)
        return result

    #: Kept because ``perfbench/layers.py`` calls it; goes with the
    #: next change to ``perfbench/``.
    process_linear_stage_packed = process_linear_stage

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
        if self.engine is None:
            raise ProtocolError("public key not registered")
        plan = self.plan_lane_packing(batch)
        if not plan.admitted:
            return None
        return LanePacker(
            self.engine.public_key, lanes=batch,
            mag_bits=plan.mag_bits, guard_bits=plan.guard_bits,
        )


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
        self.public_key, self._private_key = generate_keypair(
            config.key_size, seed=config.seed ^ 0x6B65
        )
        #: The key holder's engine (:func:`~repro.crypto.engine
        #: .party_engine`): half-width blinding tables mod p^2 and
        #: q^2, batched CRT decryption, and a blinding-factor pool
        #: precomputed before any request arrives.
        self.engine = party_engine(self.public_key, config, self.obs,
                                   private_key=self._private_key)
        self._nonlinear_stages: dict[tuple, NonLinearStage] = {}
        #: Decrypted intermediate vectors observed (permuted except the
        #: final round) — inspected by the security tests.
        self.observed_plaintexts: List[np.ndarray] = []

    @property
    def private_key(self) -> PaillierPrivateKey:
        """The private key, for this party's own data-role workers."""
        return self._private_key

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

    def nonlinear_stage(self, activations: Sequence[str],
                        final: bool) -> NonLinearStage:
        """The stage object every runtime runs for a non-linear stage
        with these activations (built once; the threaded stream's
        executors wrap these).

        Raises:
            SecurityViolationError: SoftMax outside the final round.
        """
        key = (tuple(activations), final)
        stage = self._nonlinear_stages.get(key)
        if stage is None:
            stage = NonLinearStage(activations, self._private_key,
                                   self.value_decimals, self.engine,
                                   final)
            self._nonlinear_stages[key] = stage
        return stage

    def process_nonlinear_stage(
        self,
        tensor: FoldedTensor | EncryptedTensor | PackedEncryptedTensor,
        activations: Sequence[str],
        final: bool,
    ) -> EncryptedTensor | PackedEncryptedTensor | np.ndarray:
        """Steps (2.1)-(2.3) (or (3.5)-(3.7) when final) of Figure 3:
        :meth:`NonLinearStage.run <repro.protocol.stages
        .NonLinearStage.run>` on a folded, scalar or lane-packed
        tensor.

        The decrypted (permuted) values — a ``(batch, positions)``
        block for a packed tensor, every row permuted under the same
        round permutation — are recorded in
        :attr:`observed_plaintexts`.

        Raises:
            SecurityViolationError: SoftMax outside the final round.
        """
        start = time.perf_counter()
        result = self.nonlinear_stage(activations, final).run(
            tensor, observe=self.observed_plaintexts.append)
        self.obs.registry.histogram(
            "protocol_nonlinear_stage_seconds", final=str(final).lower()
        ).observe(time.perf_counter() - start)
        return result

    #: Kept because ``perfbench/layers.py`` calls it; goes with the
    #: next change to ``perfbench/``.
    process_nonlinear_stage_packed = process_nonlinear_stage

    # -- lane packing ---------------------------------------------------

    def encrypt_input_batch(
        self, xs: np.ndarray, packer: LanePacker
    ) -> PackedEncryptedTensor:
        """Packed step (1.1): one ciphertext per position for the
        whole batch of inputs (shape ``(batch, *sample_shape)``)."""
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


def activation_spec(layer) -> str:
    """The protocol-public activation spec string of a layer."""
    from ..nn.layers import LeakyReLU

    if isinstance(layer, LeakyReLU):
        return f"leaky_relu:{layer.alpha}"
    return layer.name
