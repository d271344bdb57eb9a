"""Per-operation cost model driving profiling and the simulator.

The paper's latency experiments ran on a 9-server testbed with a
C++/GMP prototype at a 2048-bit key.  This reproduction replaces the
testbed with a discrete-event simulator (DESIGN.md, substitution 1)
whose inputs are the per-operation costs defined here.  Two profiles:

* :meth:`CostModel.reference` — frozen constants consistent with the
  paper's Figure 1 micro-benchmark (seconds-scale tensor encryption,
  milliseconds-scale homomorphic arithmetic at 2048 bits) and typical
  GMP/10 GbE numbers.  Deterministic, used by default in benchmarks.
* :meth:`CostModel.calibrate` — measures this repository's actual
  Paillier/permutation kernels at a chosen key size, so simulated and
  real (threaded-runtime) latencies line up on this machine.

Scalar multiplication ``E(m)^w`` costs work proportional to the bits
of ``w`` — a square-and-multiply loop on its own, the steps of an
addition sequence inside the engine's matvec kernel — so its cost
grows with the bit length of the scaled weight.  That is exactly
the scaling-factor/latency trade-off Figure 6 measures, and the model
captures it via ``ciphertext_mul_per_bit``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

from .errors import ConfigurationError
from .nn.layers import LayerKind


@dataclass(frozen=True)
class CompressionStats:
    """Structure of a compressed (pruned / clustered) linear layer.

    The compression-aware engine path (:mod:`repro.crypto.sparse`)
    changes a linear stage's cost profile in two ways the planner must
    see, or stage assignment will keep over-provisioning layers that
    became cheap:

    * pruning removes ``1 - density`` of the ciphertext scalar
      multiplications outright;
    * clustering caps the *exponentiations* at one per (input
      ciphertext, distinct weight) pair — every further use of a
      cluster value is a single ciphertext multiply (charged as an
      addition, which is exactly what it costs).

    Build one from a real plan via
    :meth:`repro.crypto.sparse.SparseMatvecPlan.compression_stats`, or
    by hand from predicted prune/cluster knobs.

    Attributes:
        density: fraction of nonzero weight cells (1.0 = dense).
        clusters: distinct nonzero weight values in the layer, if
            known (``None`` = unclustered).
        distinct_per_column: mean distinct weights per nonzero column
            — the exact per-ciphertext exponentiation count when
            measured from a plan (overrides the ``clusters`` bound).
    """

    density: float = 1.0
    clusters: int | None = None
    distinct_per_column: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.density <= 1.0:
            raise ConfigurationError(
                f"density must be in [0, 1], got {self.density}"
            )
        if self.clusters is not None and self.clusters < 1:
            raise ConfigurationError(
                f"clusters must be >= 1, got {self.clusters}"
            )
        if self.distinct_per_column is not None \
                and self.distinct_per_column < 0:
            raise ConfigurationError(
                "distinct_per_column must be non-negative, got "
                f"{self.distinct_per_column}"
            )

    def exponentiations(self, dense_muls: float, input_size: int) -> float:
        """Modular exponentiations a compressed evaluation performs,
        given the stage's dense scalar-multiplication count."""
        nnz = dense_muls * self.density
        if input_size <= 0:
            return nnz
        if self.distinct_per_column is not None:
            return min(nnz, input_size * self.distinct_per_column)
        if self.clusters is not None:
            return min(nnz, input_size * self.clusters)
        return nnz

    def reuse_mults(self, dense_muls: float, input_size: int) -> float:
        """Nonzero uses served from the per-cluster dedup — each costs
        one ciphertext multiply (an addition in cost-model terms)."""
        nnz = dense_muls * self.density
        return max(0.0, nnz - self.exponentiations(dense_muls,
                                                   input_size))


@dataclass(frozen=True)
class CostModel:
    """Per-operation execution and communication costs (seconds/bytes).

    Attributes:
        key_size: Paillier modulus bits the costs correspond to.
        encrypt: seconds per element encryption.
        decrypt: seconds per element decryption.
        ciphertext_add: seconds per ciphertext-ciphertext addition.
        ciphertext_mul_base: fixed seconds per scalar multiplication.
        ciphertext_mul_per_bit: additional seconds per bit of the
            plaintext scalar.
        ciphertext_mul_setup: seconds a matvec spends per *input*
            ciphertext however many weights multiply it (the engine
            kernel's per-column overhead).  Zero in profiles that model
            a standalone exponentiation per weight.
        stage_overhead: seconds a stage spends per request outside
            its kernels (tensor wrapping, lane unpacking, activation
            dispatch).  Zero in profiles that price kernels only.
        plain_op: seconds per plaintext elementary operation.
        permute_element: seconds per element moved by (inverse)
            obfuscation.
        serialize_element: seconds per ciphertext (de)serialized at a
            stage boundary.
        network_latency: one-way message latency between servers.
        network_bandwidth: bytes/second between servers.
        ciphertext_bytes: wire size of one ciphertext.
    """

    key_size: int
    encrypt: float
    decrypt: float
    ciphertext_add: float
    ciphertext_mul_base: float
    ciphertext_mul_per_bit: float
    plain_op: float
    permute_element: float
    serialize_element: float
    network_latency: float
    network_bandwidth: float
    ciphertext_bytes: int
    ciphertext_mul_setup: float = 0.0
    stage_overhead: float = 0.0

    def __post_init__(self) -> None:
        for field_name in (
            "encrypt", "decrypt", "ciphertext_add", "ciphertext_mul_base",
            "ciphertext_mul_per_bit", "ciphertext_mul_setup",
            "stage_overhead", "plain_op",
            "permute_element", "serialize_element", "network_latency",
            "network_bandwidth",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(
                    f"cost {field_name} must be non-negative"
                )
        if self.network_bandwidth == 0:
            raise ConfigurationError("network_bandwidth must be positive")

    # ------------------------------------------------------------------

    def ciphertext_mul(self, scalar_bits: int) -> float:
        """Cost of one homomorphic scalar multiplication by a scalar of
        ``scalar_bits`` bits."""
        return self.ciphertext_mul_base \
            + self.ciphertext_mul_per_bit * max(scalar_bits, 1)

    def lane_decrypt_seconds(self, values: int,
                             lane_bits: int | None) -> float:
        """Key-holder cost of decrypting a linear stage's ``values``
        outputs certified to ``lane_bits``-bit lanes
        (:meth:`repro.crypto.engine.PaillierEngine.decrypt_lanes`):
        runs of ``k = ⌊(|p| - 2) / lane_bits⌋`` values with ``|p| =
        key_size / 2``, each run one exponentiation mod ``p^2`` (half a
        CRT decryption) plus ``lane_bits`` squarings mod ``p^2`` per
        value beyond its first (priced at that exponentiation's cost
        per exponent bit), and one unpack (a plaintext op) per value.
        Outputs with no certified width, or lanes too wide for ``p``,
        pay one CRT decryption each."""
        half_bits = self.key_size // 2
        k = (half_bits - 2) // lane_bits if lane_bits else 0
        if k < 1:
            return values * self.decrypt
        runs = -(-values // k)
        exponentiation = self.decrypt / 2
        return (runs * exponentiation
                + (values - runs) * lane_bits
                * exponentiation / half_bits
                + values * self.plain_op)

    def scalar_bits_for_decimals(self, decimals: int,
                                 weight_magnitude: float = 1.0) -> int:
        """Typical bit length of a weight scaled by ``10^decimals``."""
        magnitude = max(weight_magnitude, 1e-12) * 10 ** decimals
        return max(int(math.log2(magnitude)) + 1, 1)

    def transfer_time(self, num_elements: int,
                      encrypted: bool = True) -> float:
        """Network time to ship ``num_elements`` values between servers."""
        element_bytes = self.ciphertext_bytes if encrypted else 8
        return self.network_latency \
            + num_elements * element_bytes / self.network_bandwidth

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly scale all compute costs (not network) by ``factor``."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            encrypt=self.encrypt * factor,
            decrypt=self.decrypt * factor,
            ciphertext_add=self.ciphertext_add * factor,
            ciphertext_mul_base=self.ciphertext_mul_base * factor,
            ciphertext_mul_per_bit=self.ciphertext_mul_per_bit * factor,
            ciphertext_mul_setup=self.ciphertext_mul_setup * factor,
            stage_overhead=self.stage_overhead * factor,
            plain_op=self.plain_op * factor,
            permute_element=self.permute_element * factor,
            serialize_element=self.serialize_element * factor,
        )

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------

    @classmethod
    def reference(cls) -> "CostModel":
        """Frozen 2048-bit GMP-testbed profile (see module docstring).

        Anchors: Figure 1 of the paper shows ~seconds to encrypt/decrypt
        a 784-element tensor at 2048 bits (≈5 ms/element encrypt,
        ≈2.5 ms/element decrypt) and ~milliseconds for the homomorphic
        arithmetic on that tensor (≈5 µs/element additions; scalar
        multiplications of a b-bit scalar ≈ b modular squarings at
        ≈5 µs each).  Network matches the testbed's 10 GbE.
        Serialization is charged at 20 µs per ciphertext element —
        per-element message framing of 512-byte bignums through an
        AF-Stream-style worker framework — which is the overhead tensor
        partitioning (Section IV-D) exists to avoid.
        """
        return cls(
            key_size=2048,
            encrypt=5.0e-3,
            decrypt=2.5e-3,
            ciphertext_add=5.0e-6,
            ciphertext_mul_base=1.0e-5,
            ciphertext_mul_per_bit=5.0e-6,
            plain_op=2.0e-9,
            permute_element=2.0e-8,
            serialize_element=2.0e-5,
            network_latency=5.0e-5,
            network_bandwidth=1.25e9,  # 10 Gbps
            ciphertext_bytes=2 * 2048 // 8,
        )

    @classmethod
    def calibrate(
        cls,
        key_size: int,
        samples: int = 64,
        seed: int = 0,
    ) -> "CostModel":
        """Micro-benchmark this repository's own kernels at ``key_size``.

        Every term is timed through the entry point the runtime calls,
        best of five (the calls are micro- to millisecond-scale, so a
        single pause would dominate one timing): encryption and
        decryption through the key holder's engine — ``encrypt_many``
        with an empty pool, so each ciphertext pays for the blinding
        factor it consumes, and the CRT ``decrypt_many`` — and scalar
        multiplication as linear stages run it, the engine's planned
        matvec (plan compiled before the timed region, as sessions
        compile theirs at setup) split into a per-input setup and a
        per-weight cost by timing a thin and a tall layer, with the
        per-bit slope fitted from two weight widths; the per-request
        overhead of the smallest stage the runtime runs; plus
        homomorphic addition, permutation and plaintext-op costs.
        """
        from .crypto.engine import PaillierEngine
        from .crypto.paillier import generate_keypair
        from .crypto.sparse import SparseMatvecPlan
        from .crypto.tensor import EncryptedTensor
        from .obfuscation.permutation import Permutation
        from .protocol.stages import NonLinearStage

        if samples < 8:
            raise ConfigurationError("need at least 8 calibration samples")
        public, private = generate_keypair(key_size, seed=seed)
        rng = random.Random(seed)
        values = [rng.randrange(1, 10 ** 6) for _ in range(samples)]

        def best_of_five(call) -> float:
            best = float("inf")
            for _ in range(5):
                begin = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - begin)
            return best

        # The data role's engine as the runtime builds it, except for
        # the empty pool: sessions refill inside the op, so a factor's
        # cost belongs to the encryption that consumes it.
        holder = PaillierEngine(public, private_key=private, pool_size=0,
                                seed=seed)
        ciphers = holder.encrypt_many(values)
        encrypt_cost = best_of_five(
            lambda: holder.encrypt_many(values)) / samples
        decrypt_cost = best_of_five(
            lambda: holder.decrypt_many(ciphers)) / samples

        # A stage also pays per request for what its kernels do not
        # cover.  Time the smallest stage the runtime runs — a final
        # non-linear stage decrypting one value, through the stage
        # body every runtime calls — and keep what its one decryption
        # does not explain.
        single = EncryptedTensor(public, ciphers[:1], (1,), 0)
        final_stage = NonLinearStage(["softmax"], private, 0, holder,
                                     final=True)
        stage_overhead = max(best_of_five(
            lambda: final_stage.run(single)
        ) - decrypt_cost, 0.0)

        # The add and permutation loops take microseconds, so one
        # scheduler or GC pause inside a single timing would inflate
        # their per-element cost a hundredfold: best of five as well.
        def add_all():
            for left, right in zip(ciphers, ciphers[1:]):
                _ = left + right

        add_cost = best_of_five(add_all) / (samples - 1)

        # Linear stages never run the scalar ``cipher * w`` loop: every
        # matvec runs the column schedules its layer's plan compiled at
        # session setup — a few steps per distinct weight of a column,
        # then one multiply per use.  Time that planned path on a thin
        # and a tall layer over the same inputs, each plan compiled
        # before timing: the difference is the per-weight cost, the
        # remainder of the thin layer the per-input setup the
        # stage-cost formulas scale by the layer's real input size.
        engine = PaillierEngine(public)
        raw = [cipher.ciphertext for cipher in ciphers]
        thin, tall = 2, samples

        def time_matvec(rows: int, bits: int) -> float:
            plan = SparseMatvecPlan.from_dense([
                [rng.choice((-1, 1))
                 * (rng.getrandbits(bits) | 1 << (bits - 1))
                 for _ in range(samples)]
                for _ in range(rows)
            ])
            return best_of_five(
                lambda: engine.fc_matvec(raw, bias=raw[:rows], plan=plan)
            ) / samples                         # per input ciphertext

        small_bits, large_bits = 8, 40
        thin_time = time_matvec(thin, small_bits)
        small_time = max(time_matvec(tall, small_bits) - thin_time, 0.0) \
            / (tall - thin)
        large_time = (time_matvec(tall, large_bits)
                      - time_matvec(thin, large_bits)) / (tall - thin)
        per_bit = max(
            (large_time - small_time) / (large_bits - small_bits), 0.0
        )
        mul_setup = max(thin_time - thin * small_time, 0.0)
        mul_base = max(small_time - per_bit * small_bits, 1e-9)

        permutation = Permutation.random(4096, seed)
        data = list(range(4096))
        permute_cost = best_of_five(
            lambda: permutation.apply(data)) / 4096

        return cls(
            key_size=key_size,
            encrypt=encrypt_cost,
            decrypt=decrypt_cost,
            ciphertext_add=add_cost,
            ciphertext_mul_base=mul_base,
            ciphertext_mul_per_bit=per_bit,
            ciphertext_mul_setup=mul_setup,
            stage_overhead=stage_overhead,
            plain_op=5.0e-9,
            permute_element=permute_cost,
            serialize_element=2.0e-7,
            network_latency=5.0e-5,
            network_bandwidth=1.25e9,
            ciphertext_bytes=2 * key_size // 8,
        )


def stage_lane_bits(stages, decimals: int,
                    key_size: int) -> list[int | None]:
    """The lane width each stage's input is decrypted in: for a
    non-linear stage after a certified linear stage, that stage's
    certified output bits plus one (:func:`repro.scaling.headroom
    .output_bound_bits`, the bound the runtime's tensors carry); None
    everywhere else.  Pass entry ``i`` to :func:`stage_compute_seconds`
    for stage ``i``."""
    # Deferred: the headroom analysis imports the planner's stages.
    from .scaling.headroom import output_bound_bits

    bounds = output_bound_bits(stages, decimals, key_size)
    out: list[int | None] = []
    for position, stage in enumerate(stages):
        bits = None
        if position and stage.kind is not LayerKind.LINEAR:
            bits = bounds.get(stages[position - 1].index)
        out.append(None if bits is None else bits + 1)
    return out


def stage_compute_seconds(stage, cost_model: CostModel, decimals: int,
                          lane_bits: int | None = None,
                          compression: CompressionStats | None = None
                          ) -> float:
    """Single-thread compute seconds of one merged primitive layer
    serving one input tensor — the one formula the planner's profile
    and the simulator's stage costs share.

    A linear stage pays inverse obfuscation, homomorphic arithmetic at
    the bit length of weights scaled by ``10^decimals`` and
    obfuscation; its N outputs leave as N ciphertexts.  A
    pruned/clustered stage (``compression``) is charged only its
    surviving exponentiations — one per (ciphertext, cluster) pair —
    plus one ciphertext-add-priced multiply per deduplicated reuse.  A
    non-linear stage pays decryption — folded in ``lane_bits``-bit
    lanes (:meth:`CostModel.lane_decrypt_seconds`, the width
    :func:`stage_lane_bits` gives), one CRT decryption per value with
    ``lane_bits=None`` — plaintext non-linear work and re-encryption.
    These are the stage contents of the paper's Figure 4.
    """
    counts = stage.op_counts()
    if stage.kind is not LayerKind.LINEAR:
        return (cost_model.lane_decrypt_seconds(counts.input_size,
                                                lane_bits)
                + counts.plain_ops * cost_model.plain_op
                + counts.output_size * cost_model.encrypt
                + cost_model.stage_overhead)
    muls = counts.ciphertext_muls
    adds = counts.ciphertext_adds
    if compression is not None:
        muls = compression.exponentiations(counts.ciphertext_muls,
                                           counts.input_size)
        adds += compression.reuse_mults(counts.ciphertext_muls,
                                        counts.input_size)
    scalar_bits = cost_model.scalar_bits_for_decimals(decimals)
    total = (
        muls * cost_model.ciphertext_mul(scalar_bits)
        + adds * cost_model.ciphertext_add
        + counts.input_size * cost_model.permute_element
        + counts.output_size * cost_model.permute_element
        + counts.input_size * cost_model.ciphertext_mul_setup
    )
    return total + cost_model.stage_overhead
