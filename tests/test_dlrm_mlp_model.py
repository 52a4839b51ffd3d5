"""Tests for repro.dlrm.mlp and repro.dlrm.model."""

import numpy as np
import pytest

from repro.dlrm.config import RM1_SMALL, scaled_config
from repro.dlrm.mlp import MLP, relu, sigmoid
from repro.dlrm.model import DLRMModel


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])),
                                      np.array([0.0, 0.0, 2.0]))

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        y = sigmoid(x)
        assert (y >= 0).all() and (y <= 1).all()
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_extremes_stable(self):
        y = sigmoid(np.array([-1000.0, 1000.0]))
        assert y[0] == pytest.approx(0.0, abs=1e-6)
        assert y[1] == pytest.approx(1.0, abs=1e-6)


class TestMLP:
    def test_output_shape(self):
        mlp = MLP(16, (32, 8), seed=0)
        output = mlp(np.zeros((4, 16), dtype=np.float32))
        assert output.shape == (4, 8)

    def test_1d_input_promoted(self):
        mlp = MLP(16, (4,), seed=0)
        assert mlp(np.zeros(16, dtype=np.float32)).shape == (1, 4)

    def test_wrong_width_rejected(self):
        mlp = MLP(16, (4,), seed=0)
        with pytest.raises(ValueError):
            mlp(np.zeros((2, 8), dtype=np.float32))

    def test_sigmoid_final_activation_bounds(self):
        mlp = MLP(8, (16, 1), final_activation="sigmoid", seed=1)
        output = mlp(np.random.default_rng(0).standard_normal((10, 8)))
        assert (output >= 0).all() and (output <= 1).all()

    def test_layer_shapes_chain_from_input(self):
        mlp = MLP(8, (4, 2), seed=0)
        assert [w.shape for w in mlp.weights] == [(8, 4), (4, 2)]
        assert [b.shape for b in mlp.biases] == [(4,), (2,)]
        assert all(w.dtype == np.float32 for w in mlp.weights)

    def test_relu_layers_nonnegative(self):
        mlp = MLP(8, (8, 8), final_activation="relu", seed=2)
        output = mlp(np.random.default_rng(1).standard_normal((5, 8)))
        assert (output >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            MLP(0, (4,))
        with pytest.raises(ValueError):
            MLP(4, ())
        with pytest.raises(ValueError):
            MLP(4, (2,), final_activation="tanh")


@pytest.fixture(scope="module")
def tiny_model():
    config = scaled_config(RM1_SMALL, num_embedding_tables=4)
    return DLRMModel(config, rows_override=256, seed=0)


class TestDLRMModel:
    def test_forward_shapes(self, tiny_model):
        output = tiny_model.forward(
            *tiny_model.random_inputs(6, pooling_factor=10))
        assert output.predictions.shape == (6,)
        assert output.bottom_output.shape == (6, 64)
        assert len(output.embedding_outputs) == 4
        assert output.interaction.shape[0] == 6

    def test_predictions_are_probabilities(self, tiny_model):
        output = tiny_model.forward(
            *tiny_model.random_inputs(16, pooling_factor=5))
        assert (output.predictions >= 0).all()
        assert (output.predictions <= 1).all()

    def test_deterministic_given_inputs(self, tiny_model):
        dense, requests = tiny_model.random_inputs(4, pooling_factor=3)
        first = tiny_model.forward(dense, requests)
        second = tiny_model.forward(dense, requests)
        np.testing.assert_allclose(first.predictions, second.predictions)

    def test_interaction_width_matches_config(self, tiny_model):
        output = tiny_model.forward(
            *tiny_model.random_inputs(2, pooling_factor=3))
        assert output.interaction.shape[1] == \
            tiny_model.config.top_mlp_input_width()

    def test_request_count_validated(self, tiny_model):
        dense, requests = tiny_model.random_inputs(2, pooling_factor=3)
        with pytest.raises(ValueError):
            tiny_model.forward(dense, requests[:-1])

    def test_custom_index_sampler_used(self):
        config = scaled_config(RM1_SMALL, num_embedding_tables=2)
        model = DLRMModel(config, rows_override=64, seed=0)
        dense, requests = model.random_inputs(
            2, pooling_factor=4, index_sampler=lambda table, count:
            np.zeros(count, dtype=np.int64))
        for request in requests:
            assert (request.indices == 0).all()

    def test_batch_size_validation(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.random_inputs(0)

    def test_config_type_checked(self):
        with pytest.raises(TypeError):
            DLRMModel("RM1-small")
