"""Unit tests for repro.network.layers."""

import numpy as np
import pytest

from repro.network.layers import BatchNorm, Dense, ReLU, SharedMLP


class TestDense:
    def test_output_shape(self):
        layer = Dense(8, 4, name="t.dense")
        out = layer(np.random.default_rng(0).normal(size=(10, 8)))
        assert out.shape == (10, 4)

    def test_linear_in_input(self):
        layer = Dense(3, 2, name="t.linear")
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert np.allclose(layer(2 * x) - layer.bias, 2 * (layer(x) - layer.bias))

    def test_mac_count(self):
        layer = Dense(16, 32, name="t.macs")
        assert layer.mac_count(100) == 100 * 16 * 32

    def test_shape_mismatch_raises(self):
        layer = Dense(4, 2, name="t.bad")
        with pytest.raises(ValueError):
            layer(np.zeros((3, 5)))

    def test_deterministic_weights_by_name(self):
        a = Dense(6, 3, name="same")
        b = Dense(6, 3, name="same")
        c = Dense(6, 3, name="different")
        assert np.allclose(a.weight, b.weight)
        assert not np.allclose(a.weight, c.weight)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Dense(0, 4)


class TestBatchNormAndReLU:
    def test_identity_batchnorm(self):
        bn = BatchNorm(4)
        x = np.random.default_rng(0).normal(size=(7, 4))
        assert np.allclose(bn(x), x, atol=1e-4)

    def test_batchnorm_scale_shift(self):
        bn = BatchNorm(2, gamma=np.array([2.0, 1.0]), beta=np.array([1.0, 0.0]))
        x = np.zeros((3, 2))
        out = bn(x)
        assert np.allclose(out[:, 0], 1.0, atol=1e-4)
        assert np.allclose(out[:, 1], 0.0, atol=1e-4)

    def test_relu(self):
        relu = ReLU()
        assert np.allclose(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


class TestSharedMLP:
    def test_stack_shapes(self):
        mlp = SharedMLP([3, 8, 16], name="t.mlp")
        out = mlp(np.random.default_rng(0).normal(size=(20, 3)))
        assert out.shape == (20, 16)
        assert mlp.in_features == 3
        assert mlp.out_features == 16

    def test_output_nonnegative_with_final_activation(self):
        mlp = SharedMLP([3, 4, 4], name="t.relu")
        out = mlp(np.random.default_rng(1).normal(size=(50, 3)))
        assert (out >= 0).all()

    def test_mac_count_sums_layers(self):
        mlp = SharedMLP([3, 8, 16], name="t.macsum")
        assert mlp.mac_count(10) == 10 * (3 * 8 + 8 * 16)

    def test_requires_two_channels(self):
        with pytest.raises(ValueError):
            SharedMLP([4])
