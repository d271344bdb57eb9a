"""One protocol round's work at each party, whichever runtime runs it.

In Figure 3 a round is a linear stage at the model provider and a
non-linear stage at the data provider (Sections IV–V); running it
sequentially or as a pipelined stream operator changes only *where* it
runs.  So each stage kind has one implementation, built once per stage
from its party's engine (:func:`repro.crypto.engine.party_engine`),
obfuscator, RNG, plans and certified output bound, and run by the
in-process providers (:mod:`repro.protocol.roles`), the stream executors
(:mod:`repro.stream.executors`) and the TCP worker sessions
(:mod:`repro.net.worker`) alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from ..crypto.engine import PaillierEngine
from ..crypto.paillier import PaillierPrivateKey
from ..crypto.sparse import SparseMatvecPlan
from ..crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from ..errors import KeyMismatchError, ProtocolError, SecurityViolationError
from ..obfuscation.obfuscator import Obfuscator
from ..scaling.fixed_point import ScaledAffine, scale_to_int


@dataclass
class LinearStagePlan:
    """The model provider's prepared form of one linear stage.

    ``matvec_plans`` is parallel to ``affines``: every layer's
    :class:`~repro.crypto.sparse.SparseMatvecPlan`, its column
    schedules compiled once — at session setup in-process, once per
    worker session from the handshake spec — so no request compiles
    anything.
    """

    index: int
    affines: List[ScaledAffine] = field(default_factory=list)
    matvec_plans: List[SparseMatvecPlan] = field(default_factory=list)


def _with_cells(template, cells):
    """Rebuild a flat tensor of ``template``'s type around new cells
    (the permute/deobfuscate steps shuffle cells without touching any
    other tensor state)."""
    if isinstance(template, PackedEncryptedTensor):
        return PackedEncryptedTensor(
            template.public_key, cells, (len(cells),),
            template.packer, template.batch, template.exponent,
        )
    return EncryptedTensor(
        template.public_key, cells, (len(cells),), template.exponent
    )


class LinearStage:
    """Steps (x.5)–(x.7) of Figure 3 for one linear stage.

    Inverse obfuscation, the affines on their compiled plans with a
    cached encrypted bias (the model is fixed), then obfuscation unless
    ``final`` (the last linear stage, step 3.4).  The N output
    ciphertexts leave as they are — the paper's message — a scalar
    tensor stamped with ``bound_bits``, the stage's certified output
    bit length (:func:`repro.scaling.headroom.output_bound_bits`; None
    when the model is not certified), from which the data provider
    sizes the lanes it decrypts them in.  A packed batch runs the same
    body, all lanes of a position permuted together, and leaves under
    its lane packer.  ``engine`` is the model provider's (never the
    private key's); ``rng`` drives the bias encryptions.
    """

    def __init__(self, plan: LinearStagePlan, obfuscator: Obfuscator,
                 engine: PaillierEngine, rng: random.Random,
                 bound_bits: int | None, final: bool):
        if len(plan.matvec_plans) != len(plan.affines):
            raise ProtocolError(
                f"stage {plan.index}: {len(plan.matvec_plans)} matvec "
                f"plans for {len(plan.affines)} affines"
            )
        self.plan = plan
        self.obfuscator = obfuscator
        self.engine = engine
        self.bound_bits = bound_bits
        self.final = final
        self._rng = rng
        self._bias_cache: dict[tuple, EncryptedTensor
                               | PackedEncryptedTensor] = {}

    def run(self, tensor: EncryptedTensor | PackedEncryptedTensor,
            inbound_round: int | None
            ) -> tuple[EncryptedTensor | PackedEncryptedTensor,
                       int | None]:
        """One request through the stage.

        Args:
            tensor: encrypted (possibly still permuted) input.
            inbound_round: obfuscator round id the input is permuted
                under, or None in the first round.

        Returns:
            (output tensor, outbound round id or None when final).
        """
        if tensor.public_key.n != self.engine.public_key.n:
            raise KeyMismatchError(
                f"stage {self.plan.index} got a tensor under another key"
            )
        cells = list(tensor.flatten().cells())
        if inbound_round is not None:
            cells = self.obfuscator.deobfuscate(inbound_round, cells)
        current = _with_cells(tensor, cells)
        for position, (affine, plan) in enumerate(
                zip(self.plan.affines, self.plan.matvec_plans)):
            current = current.affine(
                affine.weight,
                self._bias(position, affine, current),
                weight_exponent=affine.decimals,
                engine=self.engine,
                plan=plan,
            )
        round_id = None
        cells = list(current.cells())
        if not self.final:
            round_id, cells = self.obfuscator.obfuscate(cells)
        if isinstance(current, PackedEncryptedTensor):
            return _with_cells(current, cells), round_id
        return EncryptedTensor(current.public_key, cells, (len(cells),),
                               current.exponent,
                               self.bound_bits), round_id

    def _bias(self, position: int, affine: ScaledAffine, tensor):
        packed = isinstance(tensor, PackedEncryptedTensor)
        key = (position, tensor.exponent) + (
            (tensor.batch, tensor.packer.lane_bits) if packed else ())
        cached = self._bias_cache.get(key)
        if cached is None:
            bias = np.asarray(affine.bias_at(tensor.exponent)).reshape(-1)
            exponent = tensor.exponent + affine.decimals
            if packed:
                cached = PackedEncryptedTensor.encrypt_batch(
                    np.tile(bias, (tensor.batch, 1)), tensor.packer,
                    self._rng, exponent=exponent, engine=self.engine,
                )
            else:
                cached = EncryptedTensor.encrypt(
                    bias, tensor.public_key, self._rng,
                    exponent=exponent, engine=self.engine,
                )
            self._bias_cache[key] = cached
        return cached


class NonLinearStage:
    """Steps (2.1)–(2.3) of Figure 3, or (3.5)–(3.7) when final.

    Decrypts — a run of cells per exponentiation mod ``p^2`` when the
    tensor's lanes fit under ``p`` (:meth:`~repro.crypto.engine
    .PaillierEngine.decrypt_lanes`), one CRT decryption per cell
    otherwise — runs the activations on the still-permuted plaintext
    and re-encrypts every value from the engine's blinding pool — or,
    in the final round, returns the result as floats (one row per
    sample of a packed batch).  A batch arrives and leaves packed
    under its lane packer.

    Raises:
        SecurityViolationError: SoftMax outside the final round — it
            is position-sensitive (Section III-C).
    """

    def __init__(self, activations: Sequence[str],
                 private_key: PaillierPrivateKey, value_decimals: int,
                 engine: PaillierEngine, final: bool):
        self.activations = list(activations)
        if not final and any(spec.partition(":")[0] == "softmax"
                             for spec in self.activations):
            raise SecurityViolationError(
                "SoftMax is position-sensitive and only legal in the "
                "final, non-obfuscated round (Section III-C)"
            )
        self.final = final
        self.engine = engine
        self._private_key = private_key
        self._value_decimals = value_decimals

    def run(
        self,
        tensor: EncryptedTensor | PackedEncryptedTensor,
        observe: Callable[[np.ndarray], object] | None = None,
    ) -> EncryptedTensor | PackedEncryptedTensor | np.ndarray:
        """One request through the stage.

        Args:
            tensor: the linear stage's output.
            observe: called with a copy of the decrypted values.
        """
        tensor = tensor.flatten()
        packed = isinstance(tensor, PackedEncryptedTensor)
        values = tensor.decrypt_float(self._private_key, engine=self.engine)
        if observe is not None:
            observe(values.copy())
        for spec in self.activations:
            values = (apply_activation_batch if packed
                      else apply_activation)(spec, values, self.final)
        if self.final:
            return values
        rescaled = scale_to_int(values, self._value_decimals)
        if packed:
            out = PackedEncryptedTensor.encrypt_batch(
                rescaled, tensor.packer,
                exponent=self._value_decimals, engine=self.engine,
            )
        else:
            out = EncryptedTensor.encrypt(
                rescaled, self.engine.public_key,
                exponent=self._value_decimals, engine=self.engine,
            )
        if out.size != tensor.size:
            raise ProtocolError(
                f"re-encrypted {out.size} of {tensor.size} values"
            )
        return out


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
    if final and spec.partition(":")[0] == "softmax":
        shifted = rows - rows.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)
    return apply_activation(spec, rows, final)
