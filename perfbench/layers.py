"""Per-layer measurements taken from outside the program.

Two tools, both built only on public functions of ``repro``:

* :class:`Replay` walks the protocol round loop that
  ``InferenceSession.run`` / ``run_batch`` walks —
  ``DataProvider.encrypt_input[_batch]`` →
  ``ModelProvider.process_linear_stage[_packed]`` →
  ``DataProvider.process_nonlinear_stage[_packed]`` — with a span
  around each call, and keeps the tensors of the last op.
* :func:`kernel_metrics` times the ``crypto`` / ``serialize`` /
  ``obfuscation`` / ``encoding`` kernels on those tensors.
"""

from __future__ import annotations

import random
import time
from functools import partial
from statistics import median

import numpy as np

from repro.crypto.backend import resolve_backend
from repro.crypto.engine import PaillierEngine
from repro.crypto.serialize import (
    any_tensor_from_bytes,
    any_tensor_to_bytes,
)
from repro.crypto.sparse import plan_if_worthwhile
from repro.crypto.tensor import EncryptedTensor
from repro.nn.layers import Conv2d, Flatten, LayerKind
from repro.obfuscation.obfuscator import Obfuscator
from repro.observability import NULL_TRACER, Observability
from repro.planner.primitive import model_stages
from repro.protocol import DataProvider, ModelProvider
from repro.scaling.fixed_point import scale_to_int, scaled_affine_for_layer

from harness import SpanLog

#: Repeats of each kernel micro-timing (the median is reported).
KERNEL_REPEATS = 5

#: Registry series behind each ``crypto.engine.*`` count.
ENGINE_COUNTS = {
    "crypto.engine.pool_draws": "paillier_pool_draws",
    "crypto.engine.pool_refills": "paillier_pool_refills",
    "crypto.engine.blinding_factors": "paillier_blinding_factors",
    "crypto.engine.compress_ops": "paillier_compress_ops",
    "crypto.engine.compress_zero_skipped":
        "paillier_compress_zero_skipped",
    "crypto.engine.packed_ops": "paillier_packed_ops",
    "crypto.engine.packed_lanes": "paillier_packed_lanes_sum",
    "crypto.engine.dispatch_chunks": "paillier_dispatch_chunks",
}


def flatten_snapshot(snapshot: dict) -> dict[str, float]:
    """``MetricsRegistry.snapshot()`` summed over labels, keyed like
    the Prometheus exposition (histograms as ``_sum`` / ``_count``)."""
    flat: dict[str, float] = {}
    for entry in snapshot["counters"] + snapshot["gauges"]:
        flat[entry["name"]] = flat.get(entry["name"], 0.0) + entry["value"]
    for entry in snapshot["histograms"]:
        for suffix in ("sum", "count"):
            key = f"{entry['name']}_{suffix}"
            flat[key] = flat.get(key, 0.0) + entry[suffix]
    return flat


def engine_counts(before: dict, after: dict, samples: int) -> dict:
    """``crypto.engine.*`` counts per sample between two flat dumps,
    plus the power-cache size at the end (a gauge, not a rate)."""
    out = {
        name: (after.get(series, 0.0) - before.get(series, 0.0)) / samples
        for name, series in ENGINE_COUNTS.items()
    }
    out["crypto.engine.power_cache_entries"] = after.get(
        "paillier_power_cache_entries", 0.0)
    return out


def timed_ms(fn, repeats: int = KERNEL_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1000.0


class Replay:
    """The stepped round loop, one op at a time.

    Observability is on (the registry counts need it); the providers
    are otherwise built exactly as a session's would be.  ``lanes`` > 0
    replays ``run_batch``'s packed path, each op one ``lanes``-sample
    batch.
    """

    def __init__(self, model, decimals: int, config, spans: SpanLog,
                 lanes: int = 0):
        self._obs = Observability(enabled=True, tracer=NULL_TRACER)
        config = config.with_observability()
        self.model_provider = ModelProvider(
            model, decimals=decimals, config=config, obs=self._obs)
        self.data_provider = DataProvider(
            value_decimals=decimals, config=config, obs=self._obs)
        self.model_provider.register_public_key(
            self.data_provider.public_key)
        self.lanes = lanes
        self.packer = self.model_provider.lane_packer(lanes) \
            if lanes else None
        if lanes and self.packer is None:
            raise RuntimeError(f"{lanes}-lane packing was not admitted")
        self._spans = spans
        self._before = flatten_snapshot(self._obs.registry.snapshot())
        self._samples = 0
        #: Tensors of the latest op: ``[(stage, inbound, outbound)]``.
        self.captured: list = []

    def step(self, trace: str, x) -> list:
        """One op; returns ``[(prediction, probabilities)]`` per
        sample."""
        spans, lanes = self._spans, self.lanes
        model, data = self.model_provider, self.data_provider
        pairs = len(model.stages) // 2
        self.captured = []
        with spans.span("protocol.session.replay", trace) as root:
            parent = root["id"]
            with spans.span("protocol.roles.encrypt_input", trace,
                            parent):
                tensor = (data.encrypt_input_batch(x, self.packer)
                          if lanes else data.encrypt_input(x))
            round_in = None
            for pair in range(pairs):
                final = pair == pairs - 1
                inbound = tensor
                with spans.span("protocol.roles.linear_stage", trace,
                                parent, stage=2 * pair):
                    linear = (model.process_linear_stage_packed if lanes
                              else model.process_linear_stage)
                    tensor, round_in = linear(2 * pair, tensor,
                                              round_in, final)
                self.captured.append((2 * pair, inbound, tensor))
                activations = model.nonlinear_activations(2 * pair + 1)
                with spans.span("protocol.roles.nonlinear_stage", trace,
                                parent, stage=2 * pair + 1):
                    nonlinear = (
                        data.process_nonlinear_stage_packed if lanes
                        else data.process_nonlinear_stage)
                    tensor = nonlinear(tensor, activations, final)
        self._samples += lanes or 1
        rows = np.asarray(tensor).reshape(lanes or 1, -1)
        return [(int(row.argmax()), row) for row in rows]

    def counts(self) -> dict:
        """``crypto.engine.*`` per sample over the ops so far."""
        return engine_counts(
            self._before,
            flatten_snapshot(self._obs.registry.snapshot()),
            self._samples)


def replay_metrics(spans: SpanLog) -> dict:
    """Median per-op time in each role call, summed over stages."""
    def per_op_ms(name):
        return median(spans.per_trace_sum(name)) * 1000.0
    return {
        "protocol.roles.encrypt_input_ms":
            per_op_ms("protocol.roles.encrypt_input"),
        "protocol.roles.linear_stage_ms":
            per_op_ms("protocol.roles.linear_stage"),
        "protocol.roles.nonlinear_stage_ms":
            per_op_ms("protocol.roles.nonlinear_stage"),
    }


def backend_canary(config, public_key) -> dict:
    """Raw ``powmod`` cost mod n² — a machine-speed canary."""
    backend = resolve_backend(config.bigint_backend)
    rng = random.Random(0)
    modulus = public_key.n_squared
    bases = [rng.randrange(2, modulus) for _ in range(64)]
    small = [rng.getrandbits(20) | 1 << 19 for _ in bases]
    full = [rng.getrandbits(public_key.key_size)
            | 1 << (public_key.key_size - 1) for _ in bases]

    def run(exponents):
        for base, exponent in zip(bases, exponents):
            backend.powmod(base, exponent, modulus)

    return {
        "crypto.backend.powmod_small_us":
            timed_ms(lambda: run(small)) * 1000.0 / len(bases),
        "crypto.backend.powmod_full_us":
            timed_ms(lambda: run(full)) * 1000.0 / len(bases),
    }


def _stage_affines(model, decimals: int) -> dict:
    """Per linear stage: ``[(affine, plan, is_conv)]``, derived the way
    ``ModelProvider`` derives its own (it keeps them private)."""
    out = {}
    for stage in model_stages(model):
        if stage.kind is not LayerKind.LINEAR:
            continue
        out[stage.index] = [
            (affine, plan_if_worthwhile(affine.weight),
             isinstance(primitive.layer, Conv2d))
            for primitive in stage.primitives
            if not isinstance(primitive.layer, Flatten)
            for affine in [scaled_affine_for_layer(
                primitive.layer, primitive.input_shape, decimals)]
        ]
    return out


def kernel_metrics(model, decimals: int, config, run: Replay) -> dict:
    """Time the public kernels on the tensors of the replay's latest op.

    Uses the replay providers' own engines (so backend, window and
    pool settings are the configured ones); call it only once the
    replay's outputs have been checked, because it consumes their
    blinding pools.
    """
    model_engine = run.model_provider.engine
    data_engine = run.data_provider.engine
    public_key = run.data_provider.public_key
    packed = run.packer is not None
    out = backend_canary(config, public_key)

    # -- crypto.engine matvec kernels ----------------------------------
    matvec_ms = {"fc": 0.0, "conv": 0.0}
    affines = _stage_affines(model, decimals)
    for stage, inbound, _outbound in run.captured:
        cells = [c.ciphertext for c in inbound.flatten().cells()]
        exponent = inbound.exponent
        for affine, plan, is_conv in affines[stage]:
            bias = affine.bias_at(exponent)
            # The engine call the provider makes for this layer.
            if packed:
                raw_bias = [c.ciphertext for c in
                            model_engine.encrypt_many_packed(
                                [[int(b)] * inbound.batch for b in bias],
                                run.packer)]
                call = partial(model_engine.fc_matvec_packed, cells,
                               affine.weight, raw_bias, run.packer,
                               plan=plan)
            else:
                raw_bias = [c.ciphertext for c in EncryptedTensor.encrypt(
                    bias, public_key, engine=model_engine).cells()]
                if plan is None:
                    call = partial(model_engine.matvec, cells,
                                   affine.weight, raw_bias)
                else:
                    call = partial(
                        model_engine.conv_im2col if is_conv
                        else model_engine.fc_matvec,
                        cells, affine.weight, raw_bias, plan=plan)

            def kernel():
                # Requests never share ciphertexts, so a warm
                # cross-call power cache would flatter the kernel.
                model_engine.reset_power_cache()
                return call()

            matvec_ms["conv" if is_conv else "fc"] += timed_ms(kernel)
            cells = kernel()
            exponent += affine.decimals
    out["crypto.engine.fc_matvec_ms"] = 0.0 if packed else matvec_ms["fc"]
    out["crypto.engine.fc_matvec_packed_ms"] = \
        matvec_ms["fc"] + matvec_ms["conv"] if packed else 0.0
    out["crypto.engine.conv_im2col_ms"] = \
        0.0 if packed else matvec_ms["conv"]

    # -- crypto.engine cell kernels (key-holder side) ------------------
    count = min(64, config.blinding_pool_size)
    fresh = PaillierEngine(
        public_key, private_key=data_engine.private_key,
        pool_size=config.blinding_pool_size,
        window_bits=config.power_window_bits, seed=1,
        backend=config.bigint_backend,
    )

    def refill():
        fresh.prefill(len(fresh.pool) + count)
    out["crypto.engine.blinding_ms_per_factor"] = timed_ms(refill) / count
    rng = random.Random(0)
    plaintexts = [rng.randrange(public_key.n) for _ in range(count)]

    def encrypt():
        data_engine.prefill(count)      # warm pool: refill is untimed
        start = time.perf_counter()
        cells = data_engine.encrypt_many(plaintexts)
        return time.perf_counter() - start, cells

    times, encrypted = zip(*(encrypt() for _ in range(KERNEL_REPEATS)))
    out["crypto.engine.encrypt_many_ms_per_cell"] = \
        median(times) * 1000.0 / count
    out["crypto.engine.decrypt_many_ms_per_cell"] = timed_ms(
        lambda: data_engine.decrypt_many(encrypted[0])) / count
    raw = [c.ciphertext for c in encrypted[0]]

    def rerandomize():
        data_engine.prefill(count)
        start = time.perf_counter()
        data_engine.rerandomize_many(raw)
        return time.perf_counter() - start

    out["crypto.engine.rerandomize_ms_per_cell"] = median(
        [rerandomize() for _ in range(KERNEL_REPEATS)]) * 1000.0 / count

    # -- crypto.encoding -----------------------------------------------
    if packed:
        lanes = run.packer.lanes
        rng = np.random.default_rng(0)
        shape = model_stages(model)[0].input_shape
        batch = scale_to_int(rng.uniform(0, 1, (lanes,) + tuple(shape)),
                             decimals).reshape(lanes, -1)
        columns = [[int(v) for v in batch[:, i]]
                   for i in range(batch.shape[1])]
        residues = [run.packer.pack(column) for column in columns]
        out["crypto.encoding.pack_ms"] = timed_ms(
            lambda: [run.packer.pack(column) for column in columns])
        out["crypto.encoding.unpack_ms"] = timed_ms(
            lambda: [run.packer.unpack(r, count=lanes) for r in residues])
    else:
        out["crypto.encoding.pack_ms"] = 0.0
        out["crypto.encoding.unpack_ms"] = 0.0

    # -- crypto.serialize and obfuscation, per wire tensor -------------
    to_ms = from_ms = obfuscate_ms = deobfuscate_ms = 0.0
    frame_bytes = 0
    obfuscator = Obfuscator(config.seed)
    for position, (_stage, inbound, outbound) in enumerate(
            run.captured):
        for tensor in (inbound, outbound):
            blob = any_tensor_to_bytes(tensor)
            frame_bytes += len(blob)
            to_ms += timed_ms(lambda: any_tensor_to_bytes(tensor))
            from_ms += timed_ms(
                lambda: any_tensor_from_bytes(blob, public_key))
        if position < len(run.captured) - 1:
            # Every linear output but the last leaves permuted and
            # comes back to be inverted.
            cells = list(outbound.cells())
            rounds = []
            obfuscate_ms += timed_ms(
                lambda: rounds.append(obfuscator.obfuscate(cells)[0]))
            deobfuscate_ms += timed_ms(
                lambda: obfuscator.deobfuscate(rounds.pop(), cells))
    out["crypto.serialize.to_bytes_ms"] = to_ms
    out["crypto.serialize.from_bytes_ms"] = from_ms
    out["crypto.serialize.frame_bytes"] = float(frame_bytes)
    out["obfuscation.obfuscate_ms"] = obfuscate_ms
    out["obfuscation.deobfuscate_ms"] = deobfuscate_ms
    return out
