"""Orchestration of the Figure 3 workflow over merged stages.

An :class:`InferenceSession` walks the alternating linear/non-linear
stage sequence round by round: the data provider encrypts, the model
provider runs the linear stage and obfuscates (except in the last
round), the data provider decrypts/activates/re-encrypts, and so on,
until the final non-obfuscated round yields the inference result.

Every exchanged tensor is logged into a :class:`Transcript` so tests
can verify the security properties of Section III-D mechanically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..crypto.serialize import frame_bytes
from ..errors import DeadlineExceededError, ProtocolError
from ..nn.layers import LayerKind
from ..observability import OBS_OFF, Observability
from .message import CIPHERTEXT, CIPHERTEXT_OBFUSCATED, Message, Transcript
from .roles import DataProvider, ModelProvider


@dataclass(frozen=True)
class InferenceOutcome:
    """Result of one collaborative inference.

    Attributes:
        probabilities: final activation output (e.g. SoftMax vector).
        prediction: argmax class.
        transcript: all exchanged messages.
        wall_time: end-to-end seconds.
    """

    probabilities: np.ndarray
    prediction: int
    transcript: Transcript
    wall_time: float


class InferenceSession:
    """Binds a model provider and a data provider for inference."""

    def __init__(self, model_provider: ModelProvider,
                 data_provider: DataProvider,
                 rate_limiter=None,
                 obs: Observability | None = None):
        self.model_provider = model_provider
        self.data_provider = data_provider
        #: Observability sinks.  Defaults to whichever party has
        #: observability enabled (model provider first), so a session
        #: built from instrumented parties traces without extra wiring.
        if obs is None:
            for candidate in (getattr(model_provider, "obs", None),
                              getattr(data_provider, "obs", None)):
                if candidate is not None and candidate.enabled:
                    obs = candidate
                    break
        self.obs = obs if obs is not None else OBS_OFF
        #: Optional model-stealing countermeasure (Section II-C): a
        #: :class:`repro.protocol.ratelimit.RateLimiter` consulted
        #: before each request is served.
        self.rate_limiter = rate_limiter
        stages = model_provider.stages
        kinds = [stage.kind for stage in stages]
        if kinds[0] is not LayerKind.LINEAR:
            raise ProtocolError(
                "the protocol assumes the network starts with a linear "
                "layer (Section III-A)"
            )
        if kinds[-1] is not LayerKind.NONLINEAR:
            raise ProtocolError(
                "the protocol assumes the network ends with a non-linear "
                "layer (Section III-A)"
            )
        for position, kind in enumerate(kinds):
            expected = (
                LayerKind.LINEAR if position % 2 == 0
                else LayerKind.NONLINEAR
            )
            if kind is not expected:
                raise ProtocolError(
                    f"stages must alternate linear/non-linear; stage "
                    f"{position} is {kind.value}"
                )
        model_provider.register_public_key(data_provider.public_key)
        self._num_pairs = len(stages) // 2
        self._cipher_bytes = 2 * data_provider.public_key.key_size // 8

    def _message(self, sender: str, tensor, round_index: int,
                 stage_index: int,
                 obfuscation_round: int | None) -> Message:
        """The transcript entry for one tensor on the wire: its
        ciphertext count, the analytic estimate for that many, and the
        exact frame size (:func:`repro.crypto.serialize.frame_bytes` —
        scalar, packed or folded)."""
        elements = len(tensor.cells())
        return Message(
            sender=sender,
            kind=(CIPHERTEXT if obfuscation_round is None
                  else CIPHERTEXT_OBFUSCATED),
            elements=elements,
            bytes_estimate=elements * self._cipher_bytes,
            round_index=round_index,
            stage_index=stage_index,
            obfuscation_round=obfuscation_round,
            bytes_actual=frame_bytes(tensor),
        )

    def run(self, x: np.ndarray,
            deadline: float | None = None) -> InferenceOutcome:
        """Execute the full workflow for one input tensor.

        Args:
            x: raw input tensor.
            deadline: optional end-to-end budget in seconds; checked
                between protocol rounds (the stream runtime's
                per-request deadline, applied to the sequential path).

        Raises:
            RateLimitExceeded: when a rate limiter is configured and
                the data provider exceeded its allowance.
            DeadlineExceededError: the request blew its deadline.
        """
        if deadline is not None and deadline <= 0:
            raise ProtocolError("deadline must be positive seconds")
        if self.rate_limiter is not None:
            self.rate_limiter.admit()
        start = time.perf_counter()
        transcript = Transcript()
        tracer = self.obs.tracer
        trace_id = tracer.new_trace_id("inf")
        with tracer.span("inference", trace_id=trace_id) as root:
            with tracer.span("encrypt-input", trace_id=trace_id,
                             parent_id=root.span_id):
                tensor = self.data_provider.encrypt_input(np.asarray(x))
            probabilities = np.asarray(self._walk(
                tensor, transcript, start, deadline, trace_id, root,
                "inference",
            ))
            elapsed = time.perf_counter() - start
            root.set_attr("prediction", int(probabilities.argmax()))
        return InferenceOutcome(
            probabilities=probabilities,
            prediction=int(probabilities.argmax()),
            transcript=transcript,
            wall_time=elapsed,
        )

    def _walk(self, tensor, transcript: Transcript, start: float,
              deadline: float | None, trace_id, root, label: str):
        """The Figure 3 round loop, scalar or lane-packed alike: from
        the encrypted input to the final non-linear stage's output.
        ``deadline`` is checked between rounds."""
        tracer = self.obs.tracer
        registry = self.obs.registry
        obfuscation_round: int | None = None
        for pair in range(self._num_pairs):
            elapsed = time.perf_counter() - start
            if deadline is not None and elapsed > deadline:
                raise DeadlineExceededError(
                    f"{label} blew its {deadline}s deadline after "
                    f"{elapsed:.3f}s ({pair}/{self._num_pairs} rounds "
                    "complete)"
                )
            linear_index = 2 * pair
            nonlinear_index = 2 * pair + 1
            final = pair == self._num_pairs - 1

            transcript.record(self._message(
                "data", tensor, pair, linear_index, obfuscation_round,
            ))
            round_start = time.perf_counter()
            with tracer.span("linear-round", trace_id=trace_id,
                             parent_id=root.span_id, round=pair,
                             stage=linear_index):
                tensor, obfuscation_round = \
                    self.model_provider.process_linear_stage(
                        linear_index, tensor, obfuscation_round, final,
                    )
            registry.histogram(
                "protocol_round_seconds", kind="linear",
                stage=str(linear_index),
            ).observe(time.perf_counter() - round_start)
            transcript.record(self._message(
                "model", tensor, pair, linear_index, obfuscation_round,
            ))

            activations = self.model_provider.nonlinear_activations(
                nonlinear_index
            )
            round_start = time.perf_counter()
            with tracer.span("nonlinear-round", trace_id=trace_id,
                             parent_id=root.span_id, round=pair,
                             stage=nonlinear_index):
                tensor = self.data_provider.process_nonlinear_stage(
                    tensor, activations, final,
                )
            registry.histogram(
                "protocol_round_seconds", kind="nonlinear",
                stage=str(nonlinear_index),
            ).observe(time.perf_counter() - round_start)
        return tensor

    def run_batch(self, batch: np.ndarray,
                  deadline: float | None = None
                  ) -> list[InferenceOutcome]:
        """Run inference for a batch of samples.

        With ``config.pack_lanes > 1`` and a model the lane headroom
        analysis admits, up to ``pack_lanes`` samples ride in each
        ciphertext (one homomorphic pass per chunk; ``deadline`` then
        applies per packed chunk).  Otherwise every sample runs through
        :meth:`run` individually and ``deadline`` applies per sample.
        The ``packing_requests`` counter records which way each batch
        went; ``packing_fallbacks`` carries the reason.
        """
        batch = np.asarray(batch)
        lanes = getattr(self.model_provider.config, "pack_lanes", 0)
        if lanes <= 1 or len(batch) <= 1:
            return [self.run(sample, deadline=deadline)
                    for sample in batch]
        registry = self.obs.registry
        group = min(lanes, len(batch))
        plan = self.model_provider.plan_lane_packing(group)
        if not plan.admitted:
            registry.counter("packing_requests",
                             result="fallback").inc()
            registry.counter(
                "packing_fallbacks",
                reason=("headroom" if plan.reason is not None
                        and plan.reason.startswith("headroom")
                        else "capacity"),
            ).inc()
            return [self.run(sample, deadline=deadline)
                    for sample in batch]
        registry.counter("packing_requests", result="packed").inc()
        outcomes: list[InferenceOutcome] = []
        for start in range(0, len(batch), group):
            chunk = batch[start:start + group]
            if len(chunk) == 1:
                outcomes.append(self.run(chunk[0], deadline=deadline))
                continue
            packer = self.model_provider.lane_packer(len(chunk))
            outcomes.extend(self._run_packed(chunk, packer, deadline))
        return outcomes

    def _run_packed(self, batch: np.ndarray, packer,
                    deadline: float | None) -> list[InferenceOutcome]:
        """One packed pass of the Figure 3 workflow for a whole chunk.

        The chunk's samples share one transcript (their ciphertexts
        literally share cells on the wire) and one wall time.
        """
        if deadline is not None and deadline <= 0:
            raise ProtocolError("deadline must be positive seconds")
        if self.rate_limiter is not None:
            # Each packed sample is still one request for rate purposes.
            for _ in range(len(batch)):
                self.rate_limiter.admit()
        start = time.perf_counter()
        transcript = Transcript()
        tracer = self.obs.tracer
        trace_id = tracer.new_trace_id("inf")
        with tracer.span("inference-packed", trace_id=trace_id,
                         batch=len(batch)) as root:
            with tracer.span("encrypt-input", trace_id=trace_id,
                             parent_id=root.span_id):
                tensor = self.data_provider.encrypt_input_batch(
                    np.asarray(batch), packer
                )
            rows = np.asarray(self._walk(
                tensor, transcript, start, deadline, trace_id, root,
                "packed inference",
            ))
            elapsed = time.perf_counter() - start
            root.set_attr("predictions",
                          [int(row.argmax()) for row in rows])
        return [
            InferenceOutcome(
                probabilities=row,
                prediction=int(row.argmax()),
                transcript=transcript,
                wall_time=elapsed,
            )
            for row in rows
        ]
