"""Per-stage executors: the work a stage performs on each stream item.

Executors carry the party-specific state (scaled affines + obfuscator
for linear stages at the model provider; the private key and activation
list for non-linear stages at the data provider) and know how to split
one request into per-thread tasks using tensor partitioning.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Sequence

import numpy as np

from ..config import DEFAULT_CONFIG, RuntimeConfig
from ..crypto.encoding import LanePacker
from ..crypto.engine import PaillierEngine
from ..crypto.paillier import PaillierPrivateKey
from ..crypto.sparse import SparseMatvecPlan
from ..crypto.tensor import (
    EncryptedTensor,
    FoldedTensor,
    PackedEncryptedTensor,
)
from ..errors import ProtocolError, StreamError
from ..nn.layers import LayerKind
from ..obfuscation.obfuscator import Obfuscator
from ..partitioning.partition import partition_elementwise
from ..planner.plan import Plan
from ..protocol.roles import (
    DataProvider,
    ModelProvider,
    apply_activation,
    apply_activation_batch,
)
from ..scaling.fixed_point import ScaledAffine, scale_to_int
from ..scaling.headroom import FoldGeometry
from .retry import DeadLetter


@dataclass
class StreamItem:
    """One inference request flowing through the pipeline.

    Attributes:
        request_id: monotone id assigned by the source.
        tensor: current encrypted tensor — scalar, folded (a linear
            stage's output on its way to the data provider) or
            lane-packed (a packed item carries a whole batch through
            the pipeline as one request); executors branch on the
            tensor type.
        obfuscation_round: outstanding obfuscator round id, if permuted.
        enqueue_time: perf-counter timestamp at admission.
        result: final probabilities once the sink stage ran.
        fault: set when the request was dead-lettered; downstream
            stages forward such tombstones untouched so the sink can
            account for every admitted request.
        trace_id: per-request trace id riding the item so every stage
            span (and retry/restart/dead-letter event) lands on the
            same trace; None when tracing is off.
        trace_parent: span id of the request's root span; stage spans
            attach under it.
    """

    request_id: int
    tensor: EncryptedTensor | FoldedTensor | PackedEncryptedTensor | None
    obfuscation_round: int | None = None
    enqueue_time: float = 0.0
    result: np.ndarray | None = None
    fault: DeadLetter | None = None
    trace_id: str | None = None
    trace_parent: str | None = None


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


class LinearStageExecutor:
    """Model-provider stage: inverse-obfuscate, affine(s), obfuscate,
    fold.

    ``plans`` (parallel to ``affines``) carries each layer's
    :class:`~repro.crypto.sparse.SparseMatvecPlan`; a missing one is
    compiled here, once, so no request ever compiles a schedule.  Each
    affine runs whole-layer through the engine's planned matvec (big-
    int arithmetic holds the GIL, so row-block threads would only
    fragment the per-column schedules; the engine brings its own
    process-pool dispatch for large plans).  ``threads`` is the stage's
    planned allocation, validated like the non-linear stages'.

    ``fold`` is the session's :class:`~repro.scaling.headroom
    .FoldGeometry` (``ModelProvider.fold``; remote workers read it from
    the handshake spec): scalar outputs leave folded that many values
    to a ciphertext.  Without one the fold runs single-lane.
    Lane-packed batch items are already full and leave unfolded.
    """

    def __init__(
        self,
        stage_index: int,
        affines: Sequence[ScaledAffine],
        obfuscator: Obfuscator,
        threads: int,
        rng: random.Random,
        final: bool,
        config: RuntimeConfig = DEFAULT_CONFIG,
        obs=None,
        plans: Sequence[SparseMatvecPlan | None] | None = None,
        fold: FoldGeometry | None = None,
    ):
        if threads < 1:
            raise StreamError("executor needs >= 1 thread")
        self.stage_index = stage_index
        self.fold = fold
        self._folder: LanePacker | None = None
        self.affines = list(affines)
        plans = list(plans) if plans is not None \
            else [None] * len(self.affines)
        if len(plans) != len(self.affines):
            raise StreamError(
                f"got {len(plans)} matvec plans for "
                f"{len(self.affines)} affines"
            )
        self.plans = [
            plan if plan is not None
            else SparseMatvecPlan.from_dense(affine.weight)
            for plan, affine in zip(plans, self.affines)
        ]
        self.obfuscator = obfuscator
        self.threads = threads
        self.final = final
        self._rng = rng
        self._config = config
        self._obs = obs
        # Batched crypto engine, created lazily once the first item
        # reveals the session's public key (the model provider side
        # never holds the private key, so no CRT here).
        self._engine: PaillierEngine | None = None
        # Static-bias encryption cache (model weights never change):
        # keyed by (affine index, input exponent); lane-packed items
        # use a separate cache keyed additionally by lane geometry.
        self._bias_cache: dict[tuple[int, int], EncryptedTensor] = {}
        self._packed_bias_cache: dict[tuple, PackedEncryptedTensor] = {}

    def _engine_for(self, public_key) -> PaillierEngine:
        if self._engine is None or self._engine.public_key.n != public_key.n:
            self._engine = PaillierEngine(
                public_key,
                workers=self._config.workers,
                pool_size=self._config.blinding_pool_size,
                seed=self._config.seed ^ (0x57E << 8) ^ self.stage_index,
                obs=self._obs,
                dispatch_min_items=self._config.dispatch_min_items,
                backend=self._config.bigint_backend,
            )
        return self._engine

    def _folder_for(self, public_key) -> LanePacker:
        if self._folder is None or self._folder.public_key.n != public_key.n:
            fold = (self.fold if self.fold is not None
                    else FoldGeometry.single_lane(public_key.key_size))
            self._folder = fold.packer(public_key)
        return self._folder

    def process(self, item: StreamItem) -> StreamItem:
        if item.tensor is None:
            raise StreamError("linear stage received an empty item")
        cells = list(item.tensor.flatten().cells())
        if item.obfuscation_round is not None:
            cells = self.obfuscator.deobfuscate(
                item.obfuscation_round, cells
            )
        current = _with_cells(item.tensor, cells)
        for affine_index, affine in enumerate(self.affines):
            current = self._apply_affine(affine_index, affine, current)
        item.obfuscation_round = None
        if not self.final:
            item.obfuscation_round, permuted = self.obfuscator.obfuscate(
                list(current.cells())
            )
            current = _with_cells(current, permuted)
        if isinstance(current, EncryptedTensor):
            current = FoldedTensor.fold(
                current, self._folder_for(current.public_key),
                self._engine_for(current.public_key),
            )
        item.tensor = current
        return item

    def _packed_bias(
        self, affine_index: int, affine: ScaledAffine,
        tensor: PackedEncryptedTensor,
    ) -> PackedEncryptedTensor:
        key = (affine_index, tensor.exponent, tensor.batch,
               tensor.packer.lane_bits)
        cached = self._packed_bias_cache.get(key)
        if cached is None:
            engine = self._engine_for(tensor.public_key)
            bias = np.asarray(affine.bias_at(tensor.exponent)).reshape(-1)
            lanes = [[int(b)] * tensor.batch for b in bias]
            cells = engine.encrypt_many_packed(
                lanes, tensor.packer, rng=self._rng
            )
            cached = PackedEncryptedTensor(
                tensor.public_key, cells, (len(cells),),
                tensor.packer, tensor.batch,
                exponent=tensor.exponent + affine.decimals,
            )
            self._packed_bias_cache[key] = cached
        return cached

    def _apply_affine(
        self, affine_index: int, affine: ScaledAffine,
        tensor: EncryptedTensor | PackedEncryptedTensor,
    ) -> EncryptedTensor | PackedEncryptedTensor:
        if isinstance(tensor, PackedEncryptedTensor):
            encrypted_bias = self._packed_bias(affine_index, affine,
                                               tensor)
        else:
            cache_key = (affine_index, tensor.exponent)
            encrypted_bias = self._bias_cache.get(cache_key)
            if encrypted_bias is None:
                encrypted_bias = EncryptedTensor.encrypt(
                    affine.bias_at(tensor.exponent), tensor.public_key,
                    self._rng,
                    exponent=tensor.exponent + affine.decimals,
                )
                self._bias_cache[cache_key] = encrypted_bias
        out = tensor.affine(
            affine.weight,
            encrypted_bias,
            self._rng,
            weight_exponent=affine.decimals,
            engine=self._engine_for(tensor.public_key),
            plan=self.plans[affine_index],
        )
        if out.exponent != tensor.exponent + affine.decimals:
            raise StreamError("affine exponent bookkeeping mismatch")
        return out


class NonLinearStageExecutor:
    """Data-provider stage: decrypt, activations, re-encrypt.

    Threads split a request by ciphertext: each takes a run of whole
    cells (a folded cell's values stay with one thread, so each cell
    is decrypted once) and re-encrypts every value those cells held.
    """

    def __init__(
        self,
        stage_index: int,
        activations: Sequence[str],
        private_key: PaillierPrivateKey,
        value_decimals: int,
        threads: int,
        rng: random.Random,
        final: bool,
        engine: PaillierEngine | None = None,
    ):
        if threads < 1:
            raise StreamError("executor needs >= 1 thread")
        self.stage_index = stage_index
        self.activations = list(activations)
        self.final = final
        self._private_key = private_key
        self._value_decimals = value_decimals
        self.threads = threads
        self._rng = rng
        # The data provider's engine (half-width blinding pool + batched
        # decryption); shared across stages like the private key is.
        self._engine = engine
        # Lazily (re)created: a drained pipeline shuts the pool down,
        # but executors outlive streams — a reused Pipeline must get a
        # fresh pool, not "cannot schedule new futures after shutdown".
        self._pool: ThreadPoolExecutor | None = None
        if not final and any(a == "softmax" for a in self.activations):
            raise ProtocolError(
                "SoftMax only allowed in the final stage (Section III-C)"
            )

    def process(self, item: StreamItem) -> StreamItem:
        if item.tensor is None:
            raise StreamError("non-linear stage received an empty item")
        tensor = item.tensor.flatten()
        packed = isinstance(tensor, PackedEncryptedTensor)
        tasks = _value_blocks(tensor, self.threads)

        def decrypt_task(task):
            sub = tensor.gather(task)
            return sub.decrypt_float(self._private_key,
                                     engine=self._engine)

        if len(tasks) == 1:
            pieces = [decrypt_task(tasks[0])]
        else:
            pieces = list(self._pool_for().map(decrypt_task, tasks))
        # Packed pieces are (batch, k) blocks: join along positions.
        flat = np.concatenate(pieces, axis=-1)
        for activation in self.activations:
            flat = (apply_activation_batch(activation, flat, self.final)
                    if packed
                    else apply_activation(activation, flat, self.final))
        if self.final:
            item.result = flat
            item.tensor = None
            item.obfuscation_round = None
            return item
        rescaled = scale_to_int(flat, self._value_decimals)

        def encrypt_task(task):
            if packed:
                values = rescaled[:, task]
                return PackedEncryptedTensor.encrypt_batch(
                    values, tensor.packer,
                    exponent=self._value_decimals,
                    engine=self._engine,
                )
            values = rescaled[task]
            if self._engine is not None \
                    and self._engine.public_key.n == tensor.public_key.n:
                return EncryptedTensor.encrypt(
                    values, tensor.public_key,
                    exponent=self._value_decimals,
                    engine=self._engine,
                )
            return EncryptedTensor.encrypt(
                values, tensor.public_key, self._rng,
                exponent=self._value_decimals,
            )

        if len(tasks) == 1:
            parts = [encrypt_task(tasks[0])]
        else:
            parts = list(self._pool_for().map(encrypt_task, tasks))
        item.tensor = (PackedEncryptedTensor if packed
                       else EncryptedTensor).concatenate(parts)
        if item.tensor.size != tensor.size:
            raise StreamError(
                f"re-encrypted {item.tensor.size} of {tensor.size} values"
            )
        # The tensor stays in permuted order; the obfuscation round id
        # is carried through untouched for the next linear stage.
        return item

    def _pool_for(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.threads,
                thread_name_prefix=f"repro-nonlinear-{self.stage_index}",
            )
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None


def _value_blocks(tensor, threads: int) -> list[range]:
    """Per-thread runs of value indices covering ``tensor``, split on
    ciphertext boundaries (one value per cell except for a folded
    tensor)."""
    counts = (tensor.counts
              if isinstance(tensor, FoldedTensor) and tensor.contiguous
              else [1] * tensor.size)
    starts = list(accumulate(counts, initial=0))
    return [range(starts[task.input_indices[0]],
                  starts[task.input_indices[-1] + 1])
            for task in partition_elementwise(len(counts), threads)]


def build_executors(
    model_provider: ModelProvider,
    data_provider: DataProvider,
    plan: Plan,
    obs=None,
) -> List[object]:
    """Instantiate one executor per stage from the two parties + plan.

    The linear executors share the model provider's obfuscator and
    scaled affines; the non-linear executors get the data provider's
    private key — mirroring where state physically lives.  ``obs``
    (an :class:`~repro.observability.Observability`) flows into the
    linear executors' lazily-built engines; the non-linear executors
    inherit whatever the data provider's engine was built with.
    """
    executors: List[object] = []
    stages = plan.stages
    rng = random.Random(model_provider.config.seed ^ 0x57)
    num_stages = len(stages)
    for stage in stages:
        threads = plan.threads_for(stage.index)
        final = stage.index >= num_stages - 2
        if stage.kind is LayerKind.LINEAR:
            stage_plan = model_provider._linear_plans[stage.index]
            executors.append(
                LinearStageExecutor(
                    stage.index,
                    stage_plan.affines,
                    model_provider._obfuscator,
                    threads,
                    rng,
                    final=final and stage.index == num_stages - 2,
                    config=model_provider.config,
                    obs=obs,
                    plans=stage_plan.matvec_plans,
                    fold=model_provider.fold,
                )
            )
        else:
            activations = model_provider.nonlinear_activations(
                stage.index
            )
            executors.append(
                NonLinearStageExecutor(
                    stage.index,
                    activations,
                    data_provider._private_key,
                    data_provider.value_decimals,
                    threads,
                    rng,
                    final=stage.index == num_stages - 1,
                    engine=data_provider.engine,
                )
            )
    return executors
