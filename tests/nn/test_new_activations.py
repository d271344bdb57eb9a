"""Unit tests for the Tanh and LeakyReLU extension activations."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.layers import LayerKind, LeakyReLU, Tanh
from repro.nn.model import Sequential
from repro.nn.layers import FullyConnected, SoftMax


class TestTanh:
    def test_values(self):
        out = Tanh().forward(np.array([[0.0, 100.0, -100.0]]))
        assert out[0] == pytest.approx([0.0, 1.0, -1.0])

    def test_kind(self):
        assert Tanh().kind is LayerKind.NONLINEAR

    def test_gradient(self):
        layer = Tanh()
        x = np.array([[0.5]])
        out = layer.forward(x, training=True)
        grad = layer.backward(np.array([[1.0]]))
        assert grad[0, 0] == pytest.approx(1.0 - float(out[0, 0]) ** 2)

    def test_permutation_compatible(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        perm = rng.permutation(16)
        layer = Tanh()
        assert np.allclose(
            layer.forward(x[None, perm])[0],
            layer.forward(x[None, :])[0][perm],
        )


class TestLeakyReLU:
    def test_values(self):
        out = LeakyReLU(alpha=0.1).forward(np.array([[-2.0, 3.0]]))
        assert out[0] == pytest.approx([-0.2, 3.0])

    def test_alpha_validation(self):
        with pytest.raises(ModelError):
            LeakyReLU(alpha=1.0)
        with pytest.raises(ModelError):
            LeakyReLU(alpha=-0.1)

    def test_gradient(self):
        layer = LeakyReLU(alpha=0.2)
        x = np.array([[-1.0, 1.0]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[1.0, 1.0]]))
        assert grad[0] == pytest.approx([0.2, 1.0])

    def test_serialization_keeps_alpha(self):
        model = Sequential((2,))
        model.add(LeakyReLU(alpha=0.3))
        clone = Sequential.from_state_dict(model.state_dict())
        assert clone.layers[0].alpha == pytest.approx(0.3)


class TestProtocolSupport:
    def test_activation_specs(self):
        from repro.protocol.roles import activation_spec

        assert activation_spec(Tanh()) == "tanh"
        assert activation_spec(LeakyReLU(0.05)) == "leaky_relu:0.05"

    def test_apply_activation(self):
        from repro.protocol.stages import apply_activation

        flat = np.array([-2.0, 1.0])
        assert apply_activation("tanh", flat, False) == pytest.approx(
            np.tanh(flat)
        )
        assert apply_activation("leaky_relu:0.5", flat, False) == \
            pytest.approx([-1.0, 1.0])

    def test_end_to_end_session_with_new_activations(self):
        from repro.config import RuntimeConfig
        from repro.protocol import DataProvider, InferenceSession, \
            ModelProvider
        from repro.scaling.parameter_scaling import round_parameters

        rng = np.random.default_rng(3)
        model = Sequential((4,))
        model.add(FullyConnected(4, 6, rng=rng))
        model.add(Tanh())
        model.add(FullyConnected(6, 5, rng=rng))
        model.add(LeakyReLU(0.1))
        model.add(FullyConnected(5, 3, rng=rng))
        model.add(SoftMax())
        config = RuntimeConfig(key_size=192, seed=71)
        session = InferenceSession(
            ModelProvider(model, decimals=4, config=config),
            DataProvider(value_decimals=4, config=config),
        )
        x = rng.standard_normal(4)
        outcome = session.run(x)
        expected = round_parameters(model, 4).forward(
            np.round(x, 4)[None]
        )[0]
        assert np.allclose(outcome.probabilities, expected, atol=1e-3)
