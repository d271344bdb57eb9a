"""Mechanical checks of the Section III-D security guarantees."""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.errors import ProtocolError, SecurityViolationError
from repro.obfuscation.permutation import Permutation
from repro.protocol import DataProvider, InferenceSession, ModelProvider
from repro.protocol.message import Message
from repro.scaling.parameter_scaling import round_parameters


def make_pair(model, decimals=3, key_size=128, seed=5):
    config = RuntimeConfig(key_size=key_size, seed=seed)
    return (
        ModelProvider(model, decimals=decimals, config=config),
        DataProvider(value_decimals=decimals, config=config),
    )


class TestWireSecurity:
    def test_only_ciphertexts_on_the_wire(self, trained_breast,
                                          breast_dataset):
        """Eavesdroppers see ciphertexts only (passive-adversary
        guarantee)."""
        model_provider, data_provider = make_pair(trained_breast)
        session = InferenceSession(model_provider, data_provider)
        outcome = session.run(breast_dataset.test_x[0])
        assert outcome.transcript.all_ciphertext()

    def test_plaintext_message_kind_rejected(self):
        with pytest.raises(ProtocolError):
            Message(sender="data", kind="plaintext", elements=4,
                    bytes_estimate=32, round_index=0, stage_index=0)


class TestModelProviderView:
    def test_model_provider_never_sees_plaintext(self, trained_breast,
                                                 breast_dataset):
        model_provider, data_provider = make_pair(trained_breast)
        session = InferenceSession(model_provider, data_provider)
        session.run(breast_dataset.test_x[0])
        assert model_provider.observed
        assert all(kind == "ciphertext"
                   for kind in model_provider.observed)

    def test_model_provider_rejects_raw_arrays(self, trained_breast):
        model_provider, data_provider = make_pair(trained_breast)
        model_provider.register_public_key(data_provider.public_key)
        with pytest.raises(SecurityViolationError):
            model_provider.process_linear_stage(
                0, np.zeros(30), None, False
            )

    def test_final_must_match_the_stage(self, trained_breast):
        """Only the last linear stage skips obfuscation: a caller's
        ``final`` that disagrees with the stage's position is refused
        before anything runs, so no earlier stage's outputs reach the
        data provider unpermuted."""
        model_provider, data_provider = make_pair(trained_breast)
        model_provider.register_public_key(data_provider.public_key)
        tensor = data_provider.encrypt_input(np.zeros(30))
        last = len(model_provider.stages) - 2
        assert last > 0
        with pytest.raises(ProtocolError):
            model_provider.process_linear_stage(0, tensor, None, True)
        with pytest.raises(ProtocolError):
            model_provider.process_linear_stage(last, tensor, None,
                                                False)
        assert model_provider.observed == []

    def test_ciphertexts_fresh_per_round(self, trained_breast,
                                         breast_dataset):
        """Re-encryption (step 2.3) produces fresh randomness: running
        the same input twice yields different wire bytes."""
        model_provider, data_provider = make_pair(trained_breast)
        session = InferenceSession(model_provider, data_provider)
        tensor_a = data_provider.encrypt_input(breast_dataset.test_x[0])
        tensor_b = data_provider.encrypt_input(breast_dataset.test_x[0])
        cells_a = [c.ciphertext for c in tensor_a.cells()]
        cells_b = [c.ciphertext for c in tensor_b.cells()]
        assert cells_a != cells_b


class TestDataProviderView:
    def test_intermediates_are_permuted(self, trained_breast,
                                        breast_dataset):
        """What the data provider decrypts mid-protocol must be a
        permutation of the true intermediate values, not the values in
        true order (except the final round)."""
        decimals = 3
        model_provider, data_provider = make_pair(trained_breast,
                                                  decimals=decimals)
        session = InferenceSession(model_provider, data_provider)
        sample = breast_dataset.test_x[0]
        session.run(sample)

        # Recompute true intermediates with the rounded model.
        rounded = round_parameters(trained_breast, decimals)
        x = np.round(sample, decimals)[None]
        true_linear_outputs = []
        current = x
        for layer in rounded.layers:
            current = layer.forward(current)
            if layer.kind.value == "linear":
                true_linear_outputs.append(current[0].copy())

        observed = data_provider.observed_plaintexts
        # intermediate observations: all but the last
        for seen, truth in zip(observed[:-1], true_linear_outputs):
            seen_sorted = np.sort(np.round(seen.reshape(-1), 2))
            truth_sorted = np.sort(np.round(truth.reshape(-1), 2))
            assert np.allclose(seen_sorted, truth_sorted, atol=0.02)
            if len(seen) > 4:
                assert not np.allclose(seen.reshape(-1),
                                       truth.reshape(-1), atol=1e-6)

    def test_final_round_not_permuted(self, trained_breast,
                                      breast_dataset):
        """The last tensor must arrive in true order for SoftMax."""
        decimals = 3
        model_provider, data_provider = make_pair(trained_breast,
                                                  decimals=decimals)
        session = InferenceSession(model_provider, data_provider)
        sample = breast_dataset.test_x[0]
        outcome = session.run(sample)
        rounded = round_parameters(trained_breast, decimals)
        expected = rounded.forward(np.round(sample, decimals)[None])[0]
        assert np.allclose(outcome.probabilities, expected, atol=1e-6)

    def test_softmax_on_obfuscated_rejected(self, trained_breast):
        model_provider, data_provider = make_pair(trained_breast)
        tensor = data_provider.encrypt_input(np.zeros(4))
        with pytest.raises(SecurityViolationError):
            data_provider.process_nonlinear_stage(
                tensor, ["softmax"], final=False
            )


class TestObfuscationStrength:
    def test_permutation_space_matches_paper(self):
        """Section III-D: P! possible permutations; for P = 8192 the
        guessing probability 1/P! is negligible.  Sanity-check the
        count for a small P by enumeration."""
        import itertools

        length = 5
        seen = {
            tuple(Permutation.random(length, seed).order)
            for seed in range(2000)
        }
        # all 5! = 120 permutations reachable
        assert seen == set(itertools.permutations(range(length)))

    def test_fresh_seeds_across_rounds(self, trained_breast,
                                       breast_dataset):
        """Steps 1.4 / 2.7: different random permutations per round."""
        model_provider, data_provider = make_pair(trained_breast)
        session = InferenceSession(model_provider, data_provider)
        session.run(breast_dataset.test_x[0])
        history = model_provider._obfuscator.history()
        same_length = {}
        for record in history:
            same_length.setdefault(record.permutation.length,
                                   []).append(record.permutation)
        for permutations in same_length.values():
            if len(permutations) > 1:
                assert len(set(permutations)) == len(permutations)
