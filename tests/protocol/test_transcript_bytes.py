"""Transcript byte accounting: every message records its exact framed
wire size (``bytes_actual``), the analytic estimate stays available as
a cross-check, and the two agree up to the known frame overhead."""

import numpy as np

from repro.config import RuntimeConfig
from repro.crypto.serialize import ciphertext_bytes, tensor_frame_bytes
from repro.protocol import DataProvider, InferenceSession, ModelProvider

KEY_SIZE = 128

# A rank-1 scalar v2 frame over the analytic estimate: 15-byte header
# + one 4-byte dim word.  Packed frames add the 8-byte lane extension,
# bounded frames (a linear stage's outputs) the 2-byte bound.
SCALAR_RANK1_OVERHEAD = (
    tensor_frame_bytes(KEY_SIZE, rank=1, size=1)
    - ciphertext_bytes(KEY_SIZE)
)
BOUNDED_OVERHEAD = (
    tensor_frame_bytes(KEY_SIZE, rank=1, size=1, bounded=True)
    - ciphertext_bytes(KEY_SIZE)
)


def make_session(model, pack_lanes=0, seed=77):
    config = RuntimeConfig(key_size=KEY_SIZE, seed=seed,
                           pack_lanes=pack_lanes)
    model_provider = ModelProvider(model, decimals=3, config=config)
    data_provider = DataProvider(value_decimals=3, config=config)
    return InferenceSession(model_provider, data_provider)


class TestActualBytes:
    def test_every_message_has_actual_bytes(self, trained_breast,
                                            breast_dataset):
        session = make_session(trained_breast)
        outcome = session.run(breast_dataset.test_x[0])
        assert outcome.transcript.messages
        for message in outcome.transcript.messages:
            assert message.bytes_actual is not None
            assert message.bytes_actual > 0

    def test_totals_prefer_actual_and_keep_estimate(
            self, trained_breast, breast_dataset):
        session = make_session(trained_breast)
        transcript = session.run(breast_dataset.test_x[0]).transcript
        assert transcript.total_bytes == sum(
            m.bytes_actual for m in transcript.messages
        )
        assert transcript.total_bytes_estimate == sum(
            m.bytes_estimate for m in transcript.messages
        )
        assert transcript.total_bytes > transcript.total_bytes_estimate

    def test_agreement_is_exactly_the_frame_overhead(
            self, trained_breast, breast_dataset):
        """The analytic estimate is ``elements * ciphertext_bytes``;
        the actual size adds exactly one frame header per message: the
        data provider sends rank-1 scalar frames, the model provider
        bounded linear outputs, one ciphertext per value."""
        session = make_session(trained_breast)
        transcript = session.run(breast_dataset.test_x[0]).transcript
        cipher = ciphertext_bytes(KEY_SIZE)
        overhead = {"data": SCALAR_RANK1_OVERHEAD,
                    "model": BOUNDED_OVERHEAD}
        for message in transcript.messages:
            assert message.bytes_estimate == message.elements * cipher
            assert (message.bytes_actual - message.bytes_estimate
                    == overhead[message.sender])

    def test_packed_messages_carry_the_lane_extension(
            self, trained_breast, breast_dataset):
        # Lane packing needs headroom a 128-bit modulus can't give;
        # use 256-bit keys like the packed-session suite.
        config = RuntimeConfig(key_size=256, seed=77, pack_lanes=4)
        session = InferenceSession(
            ModelProvider(trained_breast, decimals=3, config=config),
            DataProvider(value_decimals=3, config=config),
        )
        outcomes = session.run_batch(breast_dataset.test_x[:4])
        transcript = outcomes[0].transcript
        packed_overhead = (
            tensor_frame_bytes(256, rank=1, size=1, packed=True)
            - ciphertext_bytes(256)
        )
        overheads = {m.bytes_actual - m.bytes_estimate
                     for m in transcript.messages}
        assert packed_overhead in overheads

    def test_packed_batch_moves_fewer_wire_bytes(self, trained_breast,
                                                 breast_dataset):
        """The point of lane packing: 4 samples in one packed session
        must ship fewer total bytes than 4 scalar sessions."""
        samples = breast_dataset.test_x[:4]

        def session_at(pack_lanes):
            config = RuntimeConfig(key_size=256, seed=77,
                                   pack_lanes=pack_lanes)
            return InferenceSession(
                ModelProvider(trained_breast, decimals=3,
                              config=config),
                DataProvider(value_decimals=3, config=config),
            )

        scalar_bytes = sum(
            session_at(0).run(x).transcript.total_bytes
            for x in samples
        )
        outcomes = session_at(4).run_batch(samples)
        packed_bytes = outcomes[0].transcript.total_bytes
        assert packed_bytes < scalar_bytes

    def test_estimate_tracks_the_paper_figure(self, trained_breast,
                                              breast_dataset):
        """Section V sizing: 2 bytes per modulus bit per element."""
        session = make_session(trained_breast)
        transcript = session.run(breast_dataset.test_x[0]).transcript
        assert transcript.total_bytes_estimate == (
            transcript.total_elements * 2 * KEY_SIZE // 8
        )
