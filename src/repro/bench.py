"""Paillier engine benchmark harness: the BENCH_paillier.json emitter.

Times every bulk primitive of the crypto hot path — encrypt, decrypt,
homomorphic add, scalar multiplication, an FC-layer matvec, and an
im2col convolution — once through the scalar reference implementation
(:mod:`repro.crypto.paillier` / the scalar :meth:`EncryptedTensor.affine`
loop) and once through the batched :class:`repro.crypto.engine.
PaillierEngine`, per key size.  Results go to ``BENCH_paillier.json``
so every future PR has a perf trajectory to beat.

Run it via ``python -m repro bench`` or through
``benchmarks/test_fig1_paillier_microbench.py --bench-json``.

Methodology notes:

* The engine's blinding-factor pool is prefilled before timing and the
  prefill cost is reported separately as ``offline_seconds`` — the
  offline/online split is the entire point of the pool.
* Scalar and engine paths are checked to produce bit-identical
  ciphertexts under the same seed before anything is timed; a
  benchmark of a wrong kernel is worse than no benchmark.
* Homomorphic add is one modular multiply; the engine's ``add_many``
  only process-dispatches far above the pow-calibrated break-even, and
  the ``add`` row records which way this batch dispatched.

:func:`run_compress_bench` (``python -m repro bench --compress``) is
the compression-path companion: dense vs pruned vs clustered vs gmpy2
throughput of the engine matvecs, with a decode-identity gate per
variant and the model-zoo accuracy cost of the compression — the
BENCH_compress.json emitter.
"""

from __future__ import annotations

import json
import random
import time
from typing import Sequence

import numpy as np

from .crypto.backend import HAVE_GMPY2
from .crypto.encoding import LanePacker, SignedEncoder
from .crypto.engine import PaillierEngine
from .crypto.paillier import generate_keypair
from .crypto.sparse import SparseMatvecPlan
from .crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from .errors import ReproError
from .observability import Observability

#: Key sizes benchmarked by default; 1024 bits is the acceptance
#: target, 2048 bits (the paper's size) is opt-in via ``full=True``.
DEFAULT_KEY_SIZES = (512, 1024)

#: Elements per encrypt/decrypt/add/scalar-mul batch.
DEFAULT_ELEMENTS = 48

#: FC-layer matvec shape (out_dim, in_dim).
DEFAULT_FC_SHAPE = (64, 64)

#: Conv bench: 1x8x8 input, 4 filters of 3x3 (im2col-unrolled).
DEFAULT_CONV = {"in_shape": (1, 8, 8), "out_channels": 4, "kernel": 3}

#: Magnitude of the scaled integer weights (10^6 = the paper's largest
#: scaling factor, ~20-bit exponents).
WEIGHT_MAGNITUDE = 10 ** 6

#: Batch sizes exercised by the lane-packing benchmark.
DEFAULT_BATCH_SIZES = (4, 8, 16)

#: FC shape of the lane-packing benchmark (smaller than the scalar
#: bench: the unpacked baseline runs the matvec once per sample).
DEFAULT_PACKING_FC_SHAPE = (32, 32)


def _timed(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _op_entry(scalar_seconds: float, engine_seconds: float,
              ops: int, **extra) -> dict:
    entry = {
        "ops": ops,
        "scalar_seconds": scalar_seconds,
        "engine_seconds": engine_seconds,
        "scalar_ops_per_sec": ops / scalar_seconds
        if scalar_seconds > 0 else float("inf"),
        "engine_ops_per_sec": ops / engine_seconds
        if engine_seconds > 0 else float("inf"),
        "speedup": scalar_seconds / engine_seconds
        if engine_seconds > 0 else float("inf"),
    }
    entry.update(extra)
    return entry


def _conv_affine(seed: int):
    """A conv layer's scaled-integer affine (im2col-unrolled matrix)."""
    from .nn.layers import Conv2d
    from .scaling.fixed_point import scaled_affine_for_layer

    spec = DEFAULT_CONV
    layer = Conv2d(
        spec["in_shape"][0], spec["out_channels"], spec["kernel"],
        rng=np.random.default_rng(seed),
    )
    return scaled_affine_for_layer(layer, spec["in_shape"], decimals=4)


def run_paillier_bench(
    key_sizes: Sequence[int] = DEFAULT_KEY_SIZES,
    workers: int = 4,
    elements: int = DEFAULT_ELEMENTS,
    fc_shape: tuple[int, int] = DEFAULT_FC_SHAPE,
    seed: int = 0,
    repeats: int = 1,
    pool_size: int | None = None,
    include_conv: bool = True,
    observe: bool = False,
) -> dict:
    """Benchmark scalar vs engine kernels at each key size.

    With ``observe=True`` each key-size row gains a ``breakdown``
    section: the engine runs with observability enabled (a fresh
    registry per key size) and the metrics snapshot — pool hit/miss
    counts, CRT vs plain blinding, dispatch chunk sizes, batch-size
    histograms — is embedded in the BENCH document.  The timed numbers
    then include the (small) instrumentation overhead, so comparisons
    against un-observed baselines should use ``observe=False``.

    Returns the BENCH JSON document (also see :func:`write_bench_json`).
    """
    if elements < 1 or repeats < 1:
        raise ReproError("elements and repeats must be >= 1")
    results: dict = {
        "benchmark": "paillier_engine",
        "workers": workers,
        "elements": elements,
        "fc_shape": list(fc_shape),
        "repeats": repeats,
        "seed": seed,
        "observed": observe,
        "key_sizes": {},
    }
    out_dim, in_dim = fc_shape
    for key_size in key_sizes:
        t0 = time.perf_counter()
        public, private = generate_keypair(key_size, seed=seed)
        keygen_seconds = time.perf_counter() - t0
        rng = random.Random(seed)
        plaintexts = [rng.randrange(0, 256) for _ in range(elements)]

        obs = Observability(enabled=True) if observe else None
        engine = PaillierEngine(
            public, private_key=private, workers=workers,
            pool_size=pool_size if pool_size is not None
            else max(elements, 2 * out_dim),
            seed=seed + 1,
            obs=obs,
        )
        try:
            row = _bench_key_size(
                public, private, engine, plaintexts, rng,
                out_dim, in_dim, seed, repeats, include_conv,
            )
        finally:
            engine.close()
        row["keygen_seconds"] = keygen_seconds
        if obs is not None:
            row["breakdown"] = obs.registry.snapshot()
        results["key_sizes"][str(key_size)] = row
    return results


def _bench_key_size(public, private, engine, plaintexts, rng,
                    out_dim, in_dim, seed, repeats, include_conv) -> dict:
    row: dict = {}
    elements = len(plaintexts)

    # --- correctness gate: engine must be bit-identical to scalar ----
    check_rng_a, check_rng_b = random.Random(99), random.Random(99)
    scalar_check = [public.encrypt(m, check_rng_a).ciphertext
                    for m in plaintexts[:4]]
    engine_check = [c.ciphertext for c in
                    engine.encrypt_many(plaintexts[:4], rng=check_rng_b)]
    if scalar_check != engine_check:
        raise ReproError(
            "engine encryption diverged from the scalar reference; "
            "refusing to benchmark a wrong kernel"
        )

    # --- encrypt: scalar loop vs pooled engine -----------------------
    offline = _timed(lambda: engine.prefill(elements), 1)
    scalar_rng = random.Random(seed + 2)
    scalar_s = _timed(
        lambda: [public.encrypt(m, scalar_rng) for m in plaintexts],
        repeats,
    )
    engine.prefill(elements)  # re-arm the pool after the timed drain
    engine_s = _timed(lambda: engine.encrypt_many(plaintexts), repeats)
    row["encrypt_many"] = _op_entry(scalar_s, engine_s, elements,
                                    offline_seconds=offline)

    # --- decrypt ------------------------------------------------------
    ciphers = engine.encrypt_many(plaintexts, rng=random.Random(seed + 3))
    scalar_s = _timed(lambda: [private.decrypt(c) for c in ciphers],
                      repeats)
    engine_s = _timed(lambda: engine.decrypt_many(ciphers), repeats)
    row["decrypt_many"] = _op_entry(scalar_s, engine_s, elements)

    # --- homomorphic add ---------------------------------------------
    # One add is a single modular multiply, so process dispatch only
    # pays off far above ``dispatch_min_items`` (ADD_DISPATCH_FACTOR);
    # the row records which way the engine dispatched this batch so a
    # 1.0x speedup reads as "scalar by design", not a missing kernel.
    others = engine.encrypt_many(plaintexts, rng=random.Random(seed + 4))
    add_s = _timed(
        lambda: [a + b for a, b in zip(ciphers, others)], repeats
    )
    raw_left = [c.ciphertext for c in ciphers]
    raw_right = [c.ciphertext for c in others]
    engine_add_s = _timed(
        lambda: engine.add_many(raw_left, raw_right), repeats
    )
    row["add"] = _op_entry(
        add_s, engine_add_s, elements,
        dispatch="pool" if engine.add_dispatch(elements) else "scalar",
    )

    # --- scalar multiplication ---------------------------------------
    weights = [rng.randrange(1, WEIGHT_MAGNITUDE) for _ in plaintexts]
    raw = [c.ciphertext for c in ciphers]
    scalar_s = _timed(
        lambda: [c * w for c, w in zip(ciphers, weights)], repeats
    )
    engine_s = _timed(
        lambda: engine.scalar_mul_many(raw, weights), repeats
    )
    row["scalar_mul"] = _op_entry(scalar_s, engine_s, elements)

    # --- FC-layer matvec ---------------------------------------------
    x = np.array([rng.randrange(-128, 128) for _ in range(in_dim)],
                 dtype=np.int64)
    weight = np.array(
        [[rng.randrange(-WEIGHT_MAGNITUDE, WEIGHT_MAGNITUDE)
          for _ in range(in_dim)] for _ in range(out_dim)],
        dtype=np.int64,
    )
    bias = np.array([rng.randrange(-WEIGHT_MAGNITUDE, WEIGHT_MAGNITUDE)
                     for _ in range(out_dim)], dtype=np.int64)
    tensor = EncryptedTensor.encrypt(x, public, random.Random(seed + 5))
    scalar_out = tensor.affine(weight, bias, random.Random(seed + 6))
    scalar_s = _timed(
        lambda: tensor.affine(weight, bias, random.Random(seed + 6)),
        repeats,
    )
    engine_out = tensor.affine(weight, bias, random.Random(seed + 6),
                               engine=engine)
    if [c.ciphertext for c in scalar_out.cells()] != \
            [c.ciphertext for c in engine_out.cells()]:
        raise ReproError("engine matvec diverged from the scalar path")
    engine_s = _timed(
        lambda: tensor.affine(weight, bias, random.Random(seed + 6),
                              engine=engine),
        repeats,
    )
    row["fc_matvec"] = _op_entry(
        scalar_s, engine_s, out_dim * in_dim,
        shape=[out_dim, in_dim],
    )

    # --- conv (im2col-unrolled sparse affine) ------------------------
    if include_conv:
        affine = _conv_affine(seed)
        conv_x = np.array(
            [rng.randrange(-128, 128) for _ in range(affine.in_dim)],
            dtype=np.int64,
        )
        conv_bias = affine.bias_at(0)
        conv_tensor = EncryptedTensor.encrypt(
            conv_x, public, random.Random(seed + 7)
        )
        scalar_s = _timed(
            lambda: conv_tensor.affine(
                affine.weight, conv_bias, random.Random(seed + 8)
            ),
            repeats,
        )
        engine_s = _timed(
            lambda: conv_tensor.affine(
                affine.weight, conv_bias, random.Random(seed + 8),
                engine=engine,
            ),
            repeats,
        )
        nonzero = int(np.count_nonzero(affine.weight))
        row["conv_im2col"] = _op_entry(
            scalar_s, engine_s, nonzero,
            shape=list(affine.weight.shape), nonzero_weights=nonzero,
        )
    return row


def _packed_entry(unpacked_seconds: float, packed_seconds: float,
                  ops: int, **extra) -> dict:
    entry = {
        "ops": ops,
        "unpacked_seconds": unpacked_seconds,
        "packed_seconds": packed_seconds,
        "unpacked_ops_per_sec": ops / unpacked_seconds
        if unpacked_seconds > 0 else float("inf"),
        "packed_ops_per_sec": ops / packed_seconds
        if packed_seconds > 0 else float("inf"),
        "speedup": unpacked_seconds / packed_seconds
        if packed_seconds > 0 else float("inf"),
    }
    entry.update(extra)
    return entry


def run_packing_bench(
    key_sizes: Sequence[int] = DEFAULT_KEY_SIZES,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    fc_shape: tuple[int, int] = DEFAULT_PACKING_FC_SHAPE,
    seed: int = 0,
    repeats: int = 1,
    workers: int = 0,
) -> dict:
    """Lane-packed vs unpacked engine throughput per key/batch size.

    The unpacked baseline runs the *engine* path (blinding pool, power
    caches) once per batch sample — i.e. the packing win is measured on
    top of every other amortization, not against the scalar loop.
    Before timing, the packed decode is checked value-identical to the
    unpacked reference under the same seed; batch sizes the key cannot
    carry are reported as skipped with the capacity that refused them
    (the same criterion the protocol's admission check applies).
    """
    if repeats < 1:
        raise ReproError("repeats must be >= 1")
    out_dim, in_dim = fc_shape
    results: dict = {
        "benchmark": "paillier_packing",
        "fc_shape": [out_dim, in_dim],
        "batch_sizes": [int(b) for b in batch_sizes],
        "repeats": repeats,
        "seed": seed,
        "workers": workers,
        "key_sizes": {},
    }
    # Worst-case matvec output magnitude for the weight/input ranges
    # drawn below — exactly how the protocol sizes lanes from the
    # headroom peak bound.
    bound = in_dim * (WEIGHT_MAGNITUDE - 1) * 128 + WEIGHT_MAGNITUDE
    mag_bits = bound.bit_length()
    for key_size in key_sizes:
        t0 = time.perf_counter()
        public, private = generate_keypair(key_size, seed=seed)
        keygen_seconds = time.perf_counter() - t0
        rng = random.Random(seed)
        weight = np.array(
            [[rng.randrange(-WEIGHT_MAGNITUDE, WEIGHT_MAGNITUDE)
              for _ in range(in_dim)] for _ in range(out_dim)],
            dtype=np.int64,
        )
        bias = np.array(
            [rng.randrange(-WEIGHT_MAGNITUDE, WEIGHT_MAGNITUDE)
             for _ in range(out_dim)], dtype=np.int64,
        )
        row: dict = {"keygen_seconds": keygen_seconds,
                     "mag_bits": mag_bits, "batches": {}}
        engine = PaillierEngine(
            public, private_key=private, workers=workers,
            pool_size=4 * in_dim, seed=seed + 1,
        )
        try:
            for batch in batch_sizes:
                capacity = LanePacker.capacity(public, mag_bits)
                if capacity < batch:
                    row["batches"][str(batch)] = {
                        "skipped": True,
                        "reason": f"{batch} lanes exceed the "
                                  f"{capacity}-lane capacity",
                        "capacity": capacity,
                    }
                    continue
                packer = LanePacker(public, lanes=batch,
                                    mag_bits=mag_bits)
                row["batches"][str(batch)] = _bench_packing_batch(
                    public, private, engine, packer, weight, bias,
                    batch, in_dim, out_dim, seed, repeats,
                )
        finally:
            engine.close()
        results["key_sizes"][str(key_size)] = row
    return results


def _bench_packing_batch(public, private, engine, packer, weight, bias,
                         batch, in_dim, out_dim, seed, repeats) -> dict:
    rng = random.Random(seed + batch)
    xs = np.array(
        [[rng.randrange(-128, 128) for _ in range(in_dim)]
         for _ in range(batch)],
        dtype=np.int64,
    )

    # -- encrypt: B scalar-cell tensors vs one packed tensor ----------
    unpacked_s = _timed(
        lambda: [EncryptedTensor.encrypt(x, public, engine=engine)
                 for x in xs],
        repeats,
    )
    packed_s = _timed(
        lambda: PackedEncryptedTensor.encrypt_batch(xs, packer,
                                                    engine=engine),
        repeats,
    )
    entry: dict = {
        "lanes": batch,
        "lane_bits": packer.lane_bits,
        "capacity": LanePacker.capacity(public, packer.mag_bits),
        "encrypt": _packed_entry(unpacked_s, packed_s, batch * in_dim),
    }

    # -- correctness gate + fc_matvec ---------------------------------
    tensors = [EncryptedTensor.encrypt(x, public, engine=engine)
               for x in xs]
    packed_tensor = PackedEncryptedTensor.encrypt_batch(
        xs, packer, engine=engine
    )
    encrypted_bias = EncryptedTensor.encrypt(bias, public,
                                             engine=engine)
    packed_bias = PackedEncryptedTensor.encrypt_batch(
        np.tile(bias, (batch, 1)), packer, engine=engine
    )
    unpacked_ref = np.stack([
        t.affine(weight, encrypted_bias, engine=engine)
        .decrypt(private, engine=engine)
        for t in tensors
    ])
    packed_ref = packed_tensor.affine(
        weight, packed_bias, engine=engine
    ).decrypt(private, engine=engine)
    if unpacked_ref.tolist() != packed_ref.tolist():
        raise ReproError(
            "packed matvec decode diverged from the unpacked "
            "reference; refusing to benchmark a wrong kernel"
        )
    entry["decode_identical"] = True
    unpacked_s = _timed(
        lambda: [t.affine(weight, encrypted_bias, engine=engine)
                 for t in tensors],
        repeats,
    )
    packed_s = _timed(
        lambda: packed_tensor.affine(weight, packed_bias,
                                     engine=engine),
        repeats,
    )
    entry["fc_matvec"] = _packed_entry(
        unpacked_s, packed_s, batch * out_dim * in_dim,
        shape=[out_dim, in_dim],
    )

    # -- decrypt ------------------------------------------------------
    unpacked_s = _timed(
        lambda: [t.decrypt(private, engine=engine) for t in tensors],
        repeats,
    )
    packed_s = _timed(
        lambda: packed_tensor.decrypt(private, engine=engine), repeats
    )
    entry["decrypt"] = _packed_entry(unpacked_s, packed_s,
                                     batch * in_dim)
    return entry


def render_packing_bench(results: dict) -> str:
    """Human-readable summary table of a packing BENCH document."""
    lines = [
        "Paillier lane-packing benchmark "
        f"(fc={tuple(results['fc_shape'])}, "
        f"workers={results['workers']})",
        f"{'key':>6} {'batch':>6} {'op':<10} "
        f"{'unpacked ops/s':>15} {'packed ops/s':>14} {'speedup':>9}",
    ]
    for key_size, row in sorted(results["key_sizes"].items(),
                                key=lambda kv: int(kv[0])):
        for batch, entry in sorted(row["batches"].items(),
                                   key=lambda kv: int(kv[0])):
            if entry.get("skipped"):
                lines.append(
                    f"{key_size:>6} {batch:>6} "
                    f"skipped: {entry['reason']}"
                )
                continue
            for op in ("encrypt", "fc_matvec", "decrypt"):
                stats = entry[op]
                lines.append(
                    f"{key_size:>6} {batch:>6} {op:<10} "
                    f"{stats['unpacked_ops_per_sec']:>15.1f} "
                    f"{stats['packed_ops_per_sec']:>14.1f} "
                    f"{stats['speedup']:>8.2f}x"
                )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Compression benchmark (BENCH_compress.json).
# ----------------------------------------------------------------------

#: Key sizes the compression bench covers by default; 1024 bits is the
#: acceptance target.
DEFAULT_COMPRESS_KEY_SIZES = (1024,)

#: Target per-layer sparsity of the pruned variants.
DEFAULT_COMPRESS_SPARSITY = 0.7

#: Shared weight values per layer in the clustered variants.
DEFAULT_COMPRESS_CLUSTERS = 8

#: Model-zoo key used for the accuracy-delta measurement (the fastest
#: model to train).
DEFAULT_COMPRESS_MODEL = "breast"

#: Model-zoo key used for the *session* leg.  The end-to-end cost of a
#: session is input encryption + per-activation decrypt/re-encrypt +
#: linear matvecs; compression only touches the last term, so a model
#: whose linear layers dominate (wide input, ~109K weight cells here)
#: is the honest way to show what compression buys end-to-end.  The
#: breast model (30 inputs) is crypto-overhead-bound and would show a
#: speedup near 1x no matter how good the kernels are.
DEFAULT_COMPRESS_SESSION_MODEL = "mnist-1"


def _compress_matrices(weight: np.ndarray, sparsity: float,
                       clusters: int, seed: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Derive the pruned and pruned+clustered integer matrices."""
    from .scaling.clustering import cluster_values

    dense = np.asarray(weight, dtype=np.float64)
    threshold = float(np.quantile(np.abs(dense), sparsity))
    pruned = np.where(np.abs(dense) <= threshold, 0.0, dense)
    nonzero = pruned != 0.0
    clustered = pruned.copy()
    if np.any(nonzero):
        quantized, _ = cluster_values(pruned[nonzero], clusters,
                                      seed=seed)
        # Centers round back to integers (the weights are already
        # scaled fixed-point ints); a center that rounds to zero just
        # prunes its members a little deeper.
        clustered[nonzero] = np.rint(quantized)
    return pruned.astype(np.int64), clustered.astype(np.int64)


def _bench_compress_op(engine, gmpy2_engine, weight, seed, repeats,
                       sparsity, clusters, op) -> dict:
    """Dense/pruned/clustered/gmpy2 timings for one matvec shape.

    The bias is encrypted **outside** the timed region for every
    variant — production caches the model provider's encrypted bias
    per stage, and re-encrypting it per call would swamp the matvec
    under ~n full-width exponentiations.
    """
    public = engine.public_key
    rng = random.Random(seed)
    out_dim, in_dim = weight.shape
    x = [rng.randrange(-128, 128) for _ in range(in_dim)]
    bias_values = [rng.randrange(-WEIGHT_MAGNITUDE, WEIGHT_MAGNITUDE)
                   for _ in range(out_dim)]
    encoder = SignedEncoder(public)
    cells = engine.raw_encrypt_many(
        [encoder.encode(v) for v in x], rng=random.Random(seed + 1)
    )
    bias_raw = engine.raw_encrypt_many(
        [encoder.encode(v) for v in bias_values],
        rng=random.Random(seed + 2),
    )
    pruned, clustered = _compress_matrices(
        weight, sparsity, clusters, seed
    )
    total = out_dim * in_dim

    def expected(matrix) -> list[int]:
        return [
            int(sum(int(w) * v for w, v in zip(row, x))) + b
            for row, b in zip(matrix, bias_values)
        ]

    def decode(raw: list[int]) -> list[int]:
        return [encoder.decode(r)
                for r in engine.raw_decrypt_many(raw)]

    entry: dict = {"shape": [out_dim, in_dim], "ops": total}

    # -- dense baseline: the pre-compression engine path --------------
    dense_out = engine.matvec(cells, weight, bias_raw)
    if decode(dense_out) != expected(weight):
        raise ReproError(f"dense {op} decode mismatch")
    dense_s = _timed(
        lambda: engine.matvec(cells, weight, bias_raw), repeats
    )
    entry["dense"] = {
        "seconds": dense_s,
        "ops_per_sec": total / dense_s if dense_s > 0 else float("inf"),
        "backend": engine.backend.name,
        "decode_identical": True,
    }

    # -- compressed variants ------------------------------------------
    compressed_fn = getattr(engine, op)
    variants = [
        ("pruned", pruned, engine, compressed_fn),
        ("clustered", clustered, engine, compressed_fn),
    ]
    if gmpy2_engine is not None:
        gmpy2_cells = gmpy2_engine.raw_encrypt_many(
            [encoder.encode(v) for v in x], rng=random.Random(seed + 1)
        )
        gmpy2_bias = gmpy2_engine.raw_encrypt_many(
            [encoder.encode(v) for v in bias_values],
            rng=random.Random(seed + 2),
        )
        variants.append(
            ("gmpy2", clustered, gmpy2_engine,
             getattr(gmpy2_engine, op))
        )
    for label, matrix, variant_engine, fn in variants:
        plan = SparseMatvecPlan.from_dense(matrix)
        variant_cells = (cells if variant_engine is engine
                         else gmpy2_cells)
        variant_bias = (bias_raw if variant_engine is engine
                        else gmpy2_bias)
        # Decode gate: the compressed path must agree with both the
        # plaintext math and the dense engine path on this matrix.
        out = fn(variant_cells, None, variant_bias, plan=plan)
        reference = variant_engine.matvec(variant_cells, matrix,
                                          variant_bias)
        if out != reference:
            raise ReproError(
                f"{label} {op} diverged from the dense engine path"
            )
        decoded = [encoder.decode(r)
                   for r in variant_engine.raw_decrypt_many(out)]
        if decoded != expected(matrix):
            raise ReproError(f"{label} {op} decode mismatch")
        seconds = _timed(
            lambda: fn(variant_cells, None, variant_bias, plan=plan),
            repeats,
        )
        entry[label] = {
            "seconds": seconds,
            "ops_per_sec": total / seconds
            if seconds > 0 else float("inf"),
            "speedup_vs_dense": dense_s / seconds
            if seconds > 0 else float("inf"),
            "backend": variant_engine.backend.name,
            "sparsity": plan.sparsity,
            "distinct_values": plan.distinct_values,
            "decode_identical": True,
        }
    if gmpy2_engine is None:
        entry["gmpy2"] = {
            "skipped": True,
            "reason": "gmpy2 not installed; python backend only",
        }
    return entry


def _compress_model_accuracy(model_key: str, sparsity: float,
                             clusters: int, seed: int) -> dict:
    """Prune + cluster a zoo model and report the accuracy cost."""
    from .experiments.common import prepare_model
    from .nn.rewrite import prune_model
    from .scaling.clustering import cluster_model

    prepared = prepare_model(model_key, seed=seed)
    dataset = prepared.dataset
    pruned, prune_report = prune_model(
        prepared.model, sparsity,
        inputs=dataset.test_x, labels=dataset.test_y,
    )
    clustered, cluster_report = cluster_model(
        pruned, clusters, seed=seed,
        inputs=dataset.test_x, labels=dataset.test_y,
    )
    return {
        "model": model_key,
        "baseline_accuracy": prune_report.baseline_accuracy,
        "pruned_accuracy": prune_report.pruned_accuracy,
        "clustered_accuracy": cluster_report.clustered_accuracy,
        "applied_sparsity": prune_report.applied_sparsity,
        "density": prune_report.density,
        "accuracy_delta": (
            cluster_report.clustered_accuracy
            - prune_report.baseline_accuracy
        ),
    }


def run_compress_bench(
    key_sizes: Sequence[int] = DEFAULT_COMPRESS_KEY_SIZES,
    seed: int = 0,
    repeats: int = 2,
    sparsity: float = DEFAULT_COMPRESS_SPARSITY,
    clusters: int = DEFAULT_COMPRESS_CLUSTERS,
    fc_shape: tuple[int, int] = DEFAULT_FC_SHAPE,
    workers: int = 0,
    model_key: str | None = DEFAULT_COMPRESS_MODEL,
) -> dict:
    """Benchmark the compression-aware engine paths per key size.

    For an FC matrix and a conv im2col matrix, times four variants of
    the same homomorphic affine: the dense engine path (the baseline
    every earlier PR shipped), the pruned sparse plan, the
    pruned+clustered plan, and — when gmpy2 is importable — the
    clustered plan on the gmpy2 bigint backend.  Every variant passes
    a decode-identity gate against the plaintext math *and* the dense
    engine path before it is timed, and each row records the backend
    that produced it.  ``model_key`` (None disables it) adds the
    model-zoo accuracy cost of the same compression settings.
    """
    if repeats < 1:
        raise ReproError("repeats must be >= 1")
    if not 0.0 <= sparsity < 1.0:
        raise ReproError(f"sparsity must be in [0, 1), got {sparsity}")
    results: dict = {
        "benchmark": "paillier_compress",
        "seed": seed,
        "repeats": repeats,
        "sparsity": sparsity,
        "clusters": clusters,
        "fc_shape": list(fc_shape),
        "workers": workers,
        "gmpy2_available": HAVE_GMPY2,
        "key_sizes": {},
    }
    out_dim, in_dim = fc_shape
    rng = random.Random(seed)
    fc_weight = np.array(
        [[rng.randrange(-WEIGHT_MAGNITUDE, WEIGHT_MAGNITUDE)
          for _ in range(in_dim)] for _ in range(out_dim)],
        dtype=np.int64,
    )
    conv_weight = np.asarray(_conv_affine(seed).weight, dtype=np.int64)
    for key_size in key_sizes:
        t0 = time.perf_counter()
        public, private = generate_keypair(key_size, seed=seed)
        keygen_seconds = time.perf_counter() - t0
        engine = PaillierEngine(
            public, private_key=private, workers=workers,
            pool_size=2 * max(conv_weight.shape[1], in_dim),
            seed=seed + 1, backend="python",
        )
        gmpy2_engine = None
        if HAVE_GMPY2:
            gmpy2_engine = PaillierEngine(
                public, private_key=private, workers=workers,
                pool_size=2 * max(conv_weight.shape[1], in_dim),
                seed=seed + 1, backend="gmpy2",
            )
        try:
            row: dict = {"keygen_seconds": keygen_seconds}
            row["fc_matvec"] = _bench_compress_op(
                engine, gmpy2_engine, fc_weight, seed, repeats,
                sparsity, clusters, "fc_matvec",
            )
            row["conv_im2col"] = _bench_compress_op(
                engine, gmpy2_engine, conv_weight, seed, repeats,
                sparsity, clusters, "conv_im2col",
            )
        finally:
            engine.close()
            if gmpy2_engine is not None:
                gmpy2_engine.close()
        results["key_sizes"][str(key_size)] = row
    if model_key is not None:
        results["model_accuracy"] = _compress_model_accuracy(
            model_key, sparsity, clusters, seed
        )
    return results


def _session_model(model_key: str, seed: int):
    """``(model, decimals, eval_inputs, eval_labels, sample)`` for the
    session-level compression bench.

    ``"tiny"`` is the untrained 1-conv+2-FC smoke model (no training
    cost, no accuracy data — the CI-sized leg); any other key is a
    trained Table III model whose test split doubles as the accuracy
    gate's evaluation set.
    """
    if model_key == "tiny":
        from .nn import model_zoo

        model = model_zoo.conv_fc(
            (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8, seed=3,
            name="bench-tiny",
        )
        rng = np.random.default_rng(seed)
        return model, 2, None, None, rng.uniform(0, 1, (1, 8, 8))
    from .experiments.common import prepare_model

    prepared = prepare_model(model_key, seed=seed)
    dataset = prepared.dataset
    return (prepared.model, prepared.decimals, dataset.test_x,
            dataset.test_y, dataset.test_x[0])


def run_compress_session_bench(
    key_sizes: Sequence[int] = DEFAULT_COMPRESS_KEY_SIZES,
    seed: int = 0,
    repeats: int = 1,
    sparsity: float = DEFAULT_COMPRESS_SPARSITY,
    clusters: int = DEFAULT_COMPRESS_CLUSTERS,
    model_key: str = DEFAULT_COMPRESS_SESSION_MODEL,
    accuracy_budget: float = 0.01,
) -> dict:
    """Dense vs compressed *end-to-end inference* per key size.

    Where :func:`run_compress_bench` times isolated engine kernels,
    this leg times whole sessions: the same input runs through the
    in-process :class:`~repro.protocol.session.InferenceSession`, the
    threaded :class:`~repro.stream.pipeline.Pipeline`, and a real TCP
    fleet (:class:`~repro.net.coordinator.Coordinator` + two in-thread
    :class:`~repro.net.worker.WorkerServer`\\ s) — once on the dense
    model and once on its pruned+clustered twin, whose
    :class:`~repro.crypto.sparse.SparseMatvecPlan`\\ s the providers
    build and thread through every runtime automatically.

    Two gates run before anything is recorded:

    * accuracy budget — when ``model_key`` has evaluation data, the
      compressed model's top-1 accuracy must sit within
      ``accuracy_budget`` of the dense baseline (prune backoff plus an
      explicit post-clustering check);
    * bit identity — each runtime's compressed probabilities must be
      byte-for-byte the in-process compressed reference's (and dense
      runtimes the dense reference's): three transports, one result.

    Stage assignment is load-balanced with the planner's
    compression-aware cost profile, so the compressed plan sees its
    linear stages as the cheaper stages they really are.

    Two methodology points keep the comparison honest:

    * the **dense** variant's matvec plans are stripped before any
      spec or executor is built — a trained model's scaled weights are
      often sparse enough that :func:`plan_if_worthwhile` fires on the
      "dense" model too, which would silently benchmark compressed
      against compressed (the stripped plans flow everywhere: the
      in-process session, the threaded pipeline, and the TCP handshake
      spec all read them from the provider);
    * the blinding-factor pool is sized to cover every warm-up and
      timed run, mirroring :func:`run_paillier_bench` — the pool is
      the paper's offline phase, and both variants draw from equally
      prefilled pools so no lazy mid-run refill pollutes either side.
    """
    from .config import RuntimeConfig
    from .costs import CostModel
    from .net import Coordinator, WorkerServer
    from .nn.rewrite import prune_model
    from .planner.allocation import allocate_load_balanced
    from .planner.plan import ClusterSpec
    from .planner.profiling import profile_primitive_times
    from .protocol import DataProvider, InferenceSession, ModelProvider
    from .scaling.clustering import cluster_model
    from .stream import Pipeline, RetryPolicy

    if repeats < 1:
        raise ReproError("repeats must be >= 1")
    model, decimals, eval_x, eval_y, sample = _session_model(
        model_key, seed
    )
    pruned, prune_report = prune_model(
        model, sparsity, inputs=eval_x, labels=eval_y,
        accuracy_budget=accuracy_budget,
    )
    compressed, cluster_report = cluster_model(
        pruned, clusters, seed=seed, inputs=eval_x, labels=eval_y,
    )
    compression: dict = {
        "model": model_key,
        "decimals": decimals,
        "target_sparsity": sparsity,
        "applied_sparsity": prune_report.applied_sparsity,
        "clusters": clusters,
        "baseline_accuracy": prune_report.baseline_accuracy,
        "compressed_accuracy": cluster_report.clustered_accuracy,
        "accuracy_budget": accuracy_budget,
    }
    if prune_report.baseline_accuracy is not None \
            and cluster_report.clustered_accuracy is not None:
        drop = (prune_report.baseline_accuracy
                - cluster_report.clustered_accuracy)
        compression["accuracy_drop"] = drop
        if drop > accuracy_budget + 1e-12:
            raise ReproError(
                f"compressed model accuracy dropped {drop:.4f}, over "
                f"the {accuracy_budget} budget; refusing to benchmark "
                "an undeployable model"
            )
        compression["accuracy_gate_passed"] = True
    cluster = ClusterSpec.homogeneous(1, 1, 2)
    cost_model = CostModel.reference()
    retry_policy = RetryPolicy(max_retries=3, base_delay=0.02)

    def model_provider_for(variant_model, config, planned):
        model_provider = ModelProvider(variant_model, decimals=decimals,
                                       config=config)
        if not planned:
            # The dense baseline must run the dense kernels even when
            # its scaled weights happen to be plan-worthy; blanking
            # the plans here flows through the session, the pipeline,
            # and the handshake spec alike.
            for stage_plan in model_provider._linear_plans.values():
                stage_plan.matvec_plans[:] = \
                    [None] * len(stage_plan.matvec_plans)
        return model_provider

    # Offline-phase pool sizing: one run draws a blinding factor per
    # input cell (encryption) plus one per stage-output cell
    # (re-encryption of permuted activations), so cover the warm-up
    # and every timed run with a margin run to spare.
    cells_per_run = int(np.asarray(sample).size) + sum(
        int(np.prod(stage.primitives[-1].output_shape))
        for stage in model_provider_for(
            model, RuntimeConfig(seed=seed), True).stages
    )
    pool_size = (repeats + 2) * cells_per_run
    results: dict = {
        "benchmark": "compress_session",
        "seed": seed,
        "repeats": repeats,
        "blinding_pool_size": pool_size,
        "compression": compression,
        "key_sizes": {},
    }

    def providers(variant_model, config, planned):
        data_provider = DataProvider(value_decimals=decimals,
                                     config=config)
        return (model_provider_for(variant_model, config, planned),
                data_provider)

    def plan_for(variant_model, config, planned):
        model_provider = model_provider_for(variant_model, config,
                                            planned)
        times = profile_primitive_times(
            model_provider.stages, cost_model, decimals,
            compression=model_provider.compression_stats(),
        )
        return allocate_load_balanced(model_provider.stages, times,
                                      cluster).plan

    def run_in_process(variant_model, config, planned):
        session = InferenceSession(
            *providers(variant_model, config, planned)
        )
        probabilities = session.run(sample).probabilities
        seconds = _timed(lambda: session.run(sample), repeats)
        return probabilities, seconds

    def checked_stream(runner, what):
        # Guard every run, timed ones included: a dead-lettered
        # stream returns instantly and would otherwise be recorded
        # as an impossibly fast (and empty) "result".
        stats = runner([sample])
        if stats.dead_letters or not stats.results:
            raise ReproError(
                f"{what} bench run dead-lettered: {stats.dead_letters}"
            )
        return stats

    def run_threaded(variant_model, config, planned, plan):
        pipeline = Pipeline(
            *providers(variant_model, config, planned), plan
        )
        stats = checked_stream(pipeline.run_stream, "threaded")
        probabilities = stats.results[0].probabilities
        seconds = _timed(
            lambda: checked_stream(pipeline.run_stream, "threaded"),
            repeats,
        )
        return probabilities, seconds

    def run_tcp(variant_model, config, planned, plan):
        servers = [WorkerServer(), WorkerServer()]
        addresses = [server.start() for server in servers]
        try:
            with Coordinator(*providers(variant_model, config,
                                        planned), plan,
                             addresses,
                             retry_policy=retry_policy) as coord:
                stats = checked_stream(coord.run_stream, "TCP")
                probabilities = stats.results[0].probabilities
                seconds = _timed(
                    lambda: checked_stream(coord.run_stream, "TCP"),
                    repeats,
                )
        finally:
            for server in servers:
                server.stop(abort=True)
        return probabilities, seconds

    from .crypto import resolve_backend

    for key_size in key_sizes:
        config = RuntimeConfig(key_size=key_size, seed=seed,
                               blinding_pool_size=pool_size)
        row: dict = {"backend": resolve_backend(
                         config.bigint_backend).name,
                     "runtimes": {}}
        references: dict = {}
        for variant, variant_model in (("dense", model),
                                       ("compressed", compressed)):
            planned = variant == "compressed"
            plan = plan_for(variant_model, config, planned)
            ref, in_process_s = run_in_process(
                variant_model, config, planned
            )
            references[variant] = ref
            threaded_p, threaded_s = run_threaded(
                variant_model, config, planned, plan
            )
            tcp_p, tcp_s = run_tcp(variant_model, config, planned, plan)
            for runtime, probabilities in (("threaded", threaded_p),
                                           ("tcp", tcp_p)):
                if not np.array_equal(probabilities, ref):
                    raise ReproError(
                        f"{variant} {runtime} probabilities diverged "
                        "from the in-process reference; refusing to "
                        "benchmark a wrong runtime"
                    )
            row["runtimes"][variant] = {
                "in_process_seconds": in_process_s,
                "threaded_seconds": threaded_s,
                "tcp_seconds": tcp_s,
                "bit_identical": True,
            }
        for runtime in ("in_process", "threaded", "tcp"):
            dense_s = row["runtimes"]["dense"][f"{runtime}_seconds"]
            compressed_s = \
                row["runtimes"]["compressed"][f"{runtime}_seconds"]
            row["runtimes"].setdefault("speedup", {})[runtime] = (
                dense_s / compressed_s if compressed_s > 0
                else float("inf")
            )
        row["predictions_match"] = bool(
            int(np.argmax(references["dense"]))
            == int(np.argmax(references["compressed"]))
        )
        results["key_sizes"][str(key_size)] = row
    return results


def render_compress_session_bench(results: dict) -> str:
    """Human-readable summary of a session-level compression bench."""
    compression = results["compression"]
    lines = [
        f"Compressed-session benchmark (model={compression['model']}, "
        f"applied sparsity={compression['applied_sparsity']:.2f}, "
        f"clusters={compression['clusters']})",
        f"{'key':>6} {'runtime':<12} {'dense s':>10} "
        f"{'compressed s':>13} {'speedup':>9}",
    ]
    for key_size, row in sorted(results["key_sizes"].items(),
                                key=lambda kv: int(kv[0])):
        for runtime in ("in_process", "threaded", "tcp"):
            dense_s = row["runtimes"]["dense"][f"{runtime}_seconds"]
            compressed_s = \
                row["runtimes"]["compressed"][f"{runtime}_seconds"]
            speedup = row["runtimes"]["speedup"][runtime]
            lines.append(
                f"{key_size:>6} {runtime:<12} {dense_s:>10.3f} "
                f"{compressed_s:>13.3f} {speedup:>8.2f}x"
            )
    if compression.get("accuracy_gate_passed"):
        lines.append(
            f"accuracy gate: {compression['baseline_accuracy']:.4f} -> "
            f"{compression['compressed_accuracy']:.4f} "
            f"(drop {compression['accuracy_drop']:+.4f} within "
            f"{compression['accuracy_budget']} budget)"
        )
    return "\n".join(lines)


def render_compress_bench(results: dict) -> str:
    """Human-readable summary table of a compression BENCH document."""
    lines = [
        "Paillier compression benchmark "
        f"(sparsity={results['sparsity']}, "
        f"clusters={results['clusters']}, "
        f"workers={results['workers']})",
        f"{'key':>6} {'op':<12} {'variant':<10} {'backend':<8} "
        f"{'ops/s':>12} {'vs dense':>9}",
    ]
    for key_size, row in sorted(results["key_sizes"].items(),
                                key=lambda kv: int(kv[0])):
        for op in ("fc_matvec", "conv_im2col"):
            entry = row.get(op)
            if not entry:
                continue
            for variant in ("dense", "pruned", "clustered", "gmpy2"):
                stats = entry.get(variant)
                if stats is None:
                    continue
                if stats.get("skipped"):
                    lines.append(
                        f"{key_size:>6} {op:<12} {variant:<10} "
                        f"skipped: {stats['reason']}"
                    )
                    continue
                speedup = stats.get("speedup_vs_dense", 1.0)
                lines.append(
                    f"{key_size:>6} {op:<12} {variant:<10} "
                    f"{stats['backend']:<8} "
                    f"{stats['ops_per_sec']:>12.1f} "
                    f"{speedup:>8.2f}x"
                )
    model = results.get("model_accuracy")
    if model:
        lines.append(
            f"model {model['model']}: accuracy "
            f"{model['baseline_accuracy']:.4f} -> "
            f"{model['clustered_accuracy']:.4f} "
            f"(delta {model['accuracy_delta']:+.4f}, "
            f"applied sparsity {model['applied_sparsity']:.2f})"
        )
    return "\n".join(lines)


def run_elastic_bench(
    key_size: int = 128,
    seed: int = 0,
    samples: int = 6,
    join_cores: int = 6,
    progress=lambda text: None,
) -> dict:
    """End-to-end elastic-fleet benchmark: the BENCH_elastic.json leg.

    Walks one fleet through its whole elastic lifecycle
    (docs/ELASTIC.md) and records throughput at every step:

    1. **before** — a 2-worker fleet (one model, one data role)
       streams ``samples`` encrypted requests.
    2. **during_join** — the same stream runs again while a third
       worker registers over the wire (``join_fleet`` against the
       membership listener, mid-stream).
    3. **rebalance** — a :class:`~repro.cluster.rebalancer.Rebalancer`
       reads the queue-depth high-water marks and measured service
       times the streams left behind and must apply a plan that moves
       stages onto the joined member (it advertises ``join_cores``
       cores against the originals' two, so water-filling provably
       prefers it).
    4. **after_join** — streams on the new plan; the per-worker
       labeled ``net_stage_roundtrip_seconds`` series must show the
       joined member doing real work.
    5. **during_kill** — an original model worker is hard-killed
       mid-stream; heartbeat failover must finish the stream with
       zero dead letters.
    6. **after_drain** — the dead member's slot is drained
       (``drain_member``), and a final stream runs on the shrunk
       fleet.

    Every streamed phase is gated on zero dead letters and
    bit-identity with an in-process reference pipeline; ``ok`` in the
    returned document ands all gates together (the CLI exits non-zero
    when it is False).
    """
    import threading

    from .cluster import ElasticCoordinator, Rebalancer
    from .config import RuntimeConfig
    from .net import WorkerServer
    from .nn import model_zoo
    from .observability import NULL_TRACER, Observability
    from .planner.allocation import allocate_even
    from .planner.plan import ClusterSpec
    from .protocol import DataProvider, ModelProvider
    from .stream import Pipeline, RetryPolicy

    if samples < 2:
        raise ReproError("the elastic bench needs >= 2 samples "
                         "(joins and kills land mid-stream)")
    model = model_zoo.conv_fc(
        (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8, seed=3,
        name="elastic-bench",
    )
    decimals = 2
    config = RuntimeConfig(
        key_size=key_size, seed=seed,
    ).with_net(
        heartbeat_interval=0.2, heartbeat_timeout=2.0,
    ).with_cluster(
        backlog_high=1.0, backlog_low=0.0, rebalance_cooldown=0.0,
        min_service_samples=1,
    )
    obs = Observability(enabled=True, tracer=NULL_TRACER)
    rng = np.random.default_rng(seed)
    inputs = [rng.uniform(0, 1, (1, 8, 8)) for _ in range(samples)]

    def providers(with_obs):
        return (
            ModelProvider(model, decimals=decimals, config=config,
                          obs=obs if with_obs else None),
            DataProvider(value_decimals=decimals, config=config,
                         obs=obs if with_obs else None),
        )

    # The seed fleet: one model worker, one data worker, two cores
    # each (the 8-stage tiny model needs capacity >= 4 per role for
    # the even baseline to be feasible).
    cluster = ClusterSpec.homogeneous(1, 1, 2)
    model_provider, data_provider = providers(True)
    plan = allocate_even(model_provider.stages, cluster).plan
    reference = {
        r.request_id: r.probabilities
        for r in Pipeline(*providers(False), plan)
        .run_stream(inputs).results
    }

    results: dict = {
        "benchmark": "elastic",
        "schema": "elastic/1",
        "key_size": key_size,
        "seed": seed,
        "samples": samples,
        "phases": {},
        "ok": True,
    }

    def record_phase(name: str, stats) -> None:
        identical = all(
            np.array_equal(r.probabilities, reference[r.request_id])
            for r in stats.results
        ) and len(stats.results) == len(inputs)
        row = {
            "wall_seconds": stats.wall_time,
            "completed": len(stats.results),
            "req_per_s": (len(stats.results) / stats.wall_time
                          if stats.wall_time > 0 else 0.0),
            "dead_letters": len(stats.dead_letters),
            "bit_identical": identical,
        }
        results["phases"][name] = row
        if stats.dead_letters or not identical:
            results["ok"] = False
        progress(f"  {name}: {row['req_per_s']:.2f} req/s, "
                 f"{row['dead_letters']} dead letters, "
                 f"bit-identical={identical}")

    servers = [WorkerServer(obs=obs), WorkerServer(obs=obs)]
    addresses = [server.start() for server in servers]
    spare = WorkerServer(obs=obs)
    spare_address = spare.start()
    coordinator = ElasticCoordinator(
        model_provider, data_provider, plan, addresses,
        retry_policy=RetryPolicy(max_retries=3, base_delay=0.05),
    )
    try:
        with coordinator:
            results["epoch_initial"] = coordinator.state.epoch
            progress("phase: before (2-worker fleet)")
            record_phase("before", coordinator.run_stream(inputs))

            # Join over the wire, mid-stream: the stream runs in the
            # background while the spare dials the membership
            # listener and the coordinator dials back.
            progress("phase: during_join (third worker joins live)")
            membership_host, membership_port = \
                coordinator.membership_address
            stream_box: dict = {}

            def _stream():
                stream_box["stats"] = coordinator.run_stream(inputs)

            streamer = threading.Thread(
                target=_stream, name="repro-elastic-bench-stream",
            )
            streamer.start()
            time.sleep(0.2)
            announce = spare.join_fleet(
                membership_host, membership_port, "model",
                cores=join_cores,
            )
            streamer.join()
            record_phase("during_join", stream_box["stats"])
            joined_id = announce["server_id"]
            results["join"] = {
                "server_id": joined_id,
                "epoch": announce["epoch"],
                "role": announce["role"],
                "cores": join_cores,
            }

            # Telemetry-driven re-plan: the high-water queue depths
            # and measured service times from the first two streams
            # must push stages onto the joined (bigger) member.
            old_assignments = {a.stage_index: a.server_id
                               for a in coordinator.plan.assignments}
            rebalancer = Rebalancer(coordinator, watermark="high")
            applied = rebalancer.step()
            new_assignments = {a.stage_index: a.server_id
                               for a in coordinator.plan.assignments}
            moved = sorted(
                stage for stage, server in new_assignments.items()
                if old_assignments[stage] != server
            )
            on_joined = sorted(
                stage for stage, server in new_assignments.items()
                if server == joined_id
            )
            results["rebalance"] = {
                "applied": applied,
                "moved_stages": moved,
                "stages_on_joined": on_joined,
                "peak_backlog": max(
                    rebalancer.backlog_by_stage().values(),
                    default=0.0,
                ),
            }
            if not applied or not on_joined:
                results["ok"] = False
            progress(f"rebalance: applied={applied}, moved stages "
                     f"{moved} (on joined member: {on_joined})")

            progress("phase: after_join (re-planned fleet)")
            record_phase("after_join", coordinator.run_stream(inputs))
            joined_roundtrips = sum(
                hist.count for labels, hist in obs.registry.find(
                    "histogram", "net_stage_roundtrip_seconds")
                if labels.get("worker") == str(joined_id)
            )
            results["join"]["labeled_roundtrips"] = joined_roundtrips
            if not joined_roundtrips:
                results["ok"] = False

            # Hard-kill an original model worker mid-stream: the
            # heartbeat failover (not the drain path) must carry the
            # stream home.
            progress("phase: during_kill (worker 0 hard-killed)")
            assassin = threading.Timer(
                0.2, lambda: servers[0].stop(abort=True)
            )
            assassin.start()
            try:
                record_phase("during_kill",
                             coordinator.run_stream(inputs))
            finally:
                assassin.join()

            # Retire the dead slot for real: the drain re-plans
            # around it and quiesces whatever is left.
            drain_epoch = coordinator.drain_member(0)
            results["drain"] = {
                "server_id": 0,
                "epoch": drain_epoch,
                "present_members": len(
                    coordinator.state.snapshot().present()
                ),
            }
            progress(f"drained server 0 (epoch {drain_epoch})")
            progress("phase: after_drain (shrunk fleet)")
            record_phase("after_drain",
                         coordinator.run_stream(inputs))
            results["epoch_final"] = coordinator.state.epoch
    finally:
        for server in servers + [spare]:
            server.stop(abort=True)
    return results


def render_elastic_bench(results: dict) -> str:
    """Human-readable summary of an elastic BENCH document."""
    lines = [
        f"Elastic fleet benchmark (key={results['key_size']}, "
        f"{results['samples']} requests per phase)",
        f"{'phase':<14} {'req/s':>8} {'wall s':>8} "
        f"{'dead':>5} {'bit-identical':>14}",
    ]
    for name in ("before", "during_join", "after_join",
                 "during_kill", "after_drain"):
        row = results["phases"].get(name)
        if row is None:
            continue
        lines.append(
            f"{name:<14} {row['req_per_s']:>8.2f} "
            f"{row['wall_seconds']:>8.2f} {row['dead_letters']:>5} "
            f"{str(row['bit_identical']):>14}"
        )
    join = results.get("join", {})
    rebalance = results.get("rebalance", {})
    if join:
        lines.append(
            f"join: server {join['server_id']} "
            f"({join['cores']} cores) at epoch {join['epoch']}, "
            f"{join.get('labeled_roundtrips', 0)} labeled "
            "round trips after re-plan"
        )
    if rebalance:
        lines.append(
            f"rebalance: applied={rebalance['applied']}, stages "
            f"{rebalance['moved_stages']} moved "
            f"(peak backlog {rebalance['peak_backlog']:.1f})"
        )
    if results.get("drain"):
        lines.append(
            f"drain: server {results['drain']['server_id']} retired "
            f"at epoch {results['drain']['epoch']}, "
            f"{results['drain']['present_members']} members remain"
        )
    lines.append("verdict: " + ("OK" if results["ok"] else "BROKEN"))
    return "\n".join(lines)


def write_bench_json(results: dict, path: str) -> None:
    """Write a BENCH JSON document (stable formatting for diffs)."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_bench(results: dict) -> str:
    """Human-readable summary table of a BENCH document."""
    lines = [
        "Paillier engine benchmark "
        f"(workers={results['workers']}, "
        f"elements={results['elements']}, "
        f"fc={tuple(results['fc_shape'])})",
        f"{'key':>6} {'op':<14} {'scalar ops/s':>14} "
        f"{'engine ops/s':>14} {'speedup':>9}",
    ]
    for key_size, row in sorted(results["key_sizes"].items(),
                                key=lambda kv: int(kv[0])):
        for op, entry in row.items():
            if not isinstance(entry, dict) \
                    or "scalar_ops_per_sec" not in entry:
                continue  # keygen_seconds, breakdown, ...
            lines.append(
                f"{key_size:>6} {op:<14} "
                f"{entry['scalar_ops_per_sec']:>14.1f} "
                f"{entry['engine_ops_per_sec']:>14.1f} "
                f"{entry['speedup']:>8.2f}x"
            )
    return "\n".join(lines)
