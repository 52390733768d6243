"""Forward evaluation, activation patterns, and model file round-trips."""

import json

import numpy as np
import pytest

from relu_unwrap import (
    ActivationPattern,
    DimensionMismatchError,
    ModelFormatError,
    NonFiniteError,
    Layer,
    MLPNetwork,
    activation_pattern,
    dumps_model,
    forward,
    forward_many,
    loads_model,
    pattern_matrix,
    random_init,
)


class TestConstruction:
    def test_layer_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MLPNetwork(
                (Layer(np.ones((3, 2)), np.zeros(2)),),  # bias length != rows
                Layer(np.ones((1, 3)), np.zeros(1)),
            )

    def test_chained_width_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MLPNetwork(
                (Layer(np.ones((3, 2)), np.zeros(3)),),
                Layer(np.ones((1, 4)), np.zeros(1)),
            )

    def test_hidden_width_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError, match="^hidden layer 1 expects 4 inputs, previous width is 3$"):
            MLPNetwork(
                (Layer(np.ones((3, 2)), np.zeros(3)), Layer(np.ones((2, 4)), np.zeros(2))),
                Layer(np.ones((1, 2)), np.zeros(1)),
            )

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (2, 0)])
    def test_weights_not_a_matrix_rejected(self, shape):
        with pytest.raises(DimensionMismatchError) as info:
            Layer(np.ones(shape), np.zeros(1))
        assert str(info.value) == f"layer weights must be a 2-d matrix, got shape {shape}"

    def test_non_finite_weight_rejected(self):
        w = np.ones((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            MLPNetwork((), Layer(w, np.zeros(2)))

    def test_zero_hidden_layers_accepted(self, affine_net):
        assert len(affine_net.hidden) == 0
        assert affine_net.input_dim == 2
        assert affine_net.output_dim == 2

    def test_weights_frozen(self, demo_net_m2):
        with pytest.raises(ValueError):
            demo_net_m2.hidden[0].weights[0, 0] = 5.0


class TestForward:
    def test_demo_net_by_hand(self, demo_net_m2):
        """Output is (relu(x1+x2), relu(x2)) for the demo weights."""
        for x in ([1.0, 2.0], [-3.0, 1.0], [2.0, -5.0], [-1.0, -1.0]):
            expect = [max(x[0] + x[1], 0.0), max(x[1], 0.0)]
            np.testing.assert_allclose(forward(demo_net_m2, x).output, expect)

    def test_affine_net_is_linear_map(self, affine_net):
        rng = np.random.default_rng(3)
        W = affine_net.output.weights
        b = affine_net.output.bias
        for _ in range(50):
            x = rng.normal(size=2)
            np.testing.assert_allclose(forward(affine_net, x).output, W @ x + b)

    def test_forward_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        net = random_init([3, 4, 3], 2, seed=11)
        pts = rng.uniform(-5, 5, size=(40, 3))
        batch = forward_many(net, pts)
        for i, x in enumerate(pts):
            np.testing.assert_allclose(batch[i], forward(net, x).output, atol=1e-12)

    def test_wrong_input_length_rejected(self, demo_net_m2):
        with pytest.raises(DimensionMismatchError):
            forward(demo_net_m2, [1.0, 2.0, 3.0])


class TestActivationPattern:
    def test_bit_is_strict_positivity_of_preactivation(self):
        """bit(l, i) == 1 exactly when the pre-ReLU value is > 0."""
        rng = np.random.default_rng(17)
        net = random_init([2, 5, 7, 4], 3, seed=2)
        for _ in range(200):
            x = rng.uniform(-4, 4, size=2)
            pat = activation_pattern(net, x)
            a = x
            for layer, bits in zip(net.hidden, pat.layers):
                z = layer.weights @ a + layer.bias
                assert bits == tuple(int(v > 0.0) for v in z)
                a = np.maximum(z, 0.0)

    def test_boundary_point_gets_bit_zero(self, demo_net_m2):
        # x2 = 0 puts the second neuron exactly on its boundary
        pat = activation_pattern(demo_net_m2, [3.0, 0.0])
        assert pat.layers[0] == (1, 0)

    def test_pattern_matrix_matches_scalar(self):
        rng = np.random.default_rng(23)
        net = random_init([3, 4, 3], 1, seed=5)
        pts = rng.uniform(-3, 3, size=(60, 3))
        mat = pattern_matrix(net, pts)
        for i, x in enumerate(pts):
            flat = [b for layer in activation_pattern(net, x).layers for b in layer]
            assert list(mat[i]) == flat

    def test_bits_concatenation(self):
        pat = ActivationPattern(((1, 0), (0, 1, 1)))
        assert pat.bits() == (1, 0, 0, 1, 1)

    @pytest.mark.parametrize("layers", [((1, 2),), ((0,), (-1, 1))])
    def test_bits_other_than_0_or_1_rejected(self, layers):
        with pytest.raises(ValueError, match="^pattern entries must be 0 or 1$"):
            ActivationPattern(layers)

    def test_affine_net_has_empty_pattern(self, affine_net):
        assert activation_pattern(affine_net, [1.0, 2.0]).layers == ()

    def test_length_is_the_hidden_layer_count(self, affine_net):
        net = random_init([2, 5, 7, 4], 3, seed=2)
        assert len(activation_pattern(net, [0.5, -1.0])) == net.depth == 3
        assert len(ActivationPattern(((1, 0), (0, 1, 1)))) == 2
        assert len(activation_pattern(affine_net, [1.0, 2.0])) == 0


class TestPiecewiseLinearity:
    def test_segment_with_constant_pattern_is_affine(self):
        """Interpolating two same-pattern points keeps the output affine."""
        rng = np.random.default_rng(31)
        net = random_init([2, 3, 3], 2, seed=1)
        found = 0
        while found < 30:
            x, y = rng.uniform(-3, 3, size=(2, 2))
            px = activation_pattern(net, x)
            if px != activation_pattern(net, y):
                continue
            lam = rng.uniform(0.0, 1.0)
            mid = lam * x + (1 - lam) * y
            if activation_pattern(net, mid) != px:
                continue
            lhs = forward(net, mid).output
            rhs = lam * forward(net, x).output + (1 - lam) * forward(net, y).output
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)
            found += 1


class TestRandomInit:
    def test_same_seed_bit_identical(self):
        a = random_init([3, 4, 3], 2, seed=9)
        b = random_init([3, 4, 3], 2, seed=9)
        for la, lb in zip(a.hidden, b.hidden):
            assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(a.output.weights, b.output.weights)

    def test_weight_bound_per_layer(self):
        net = random_init([4, 6, 2], 3, seed=0)
        fan = [(6, 4), (2, 6), (3, 2)]
        layers = list(net.hidden) + [net.output]
        for layer, (fo, fi) in zip(layers, fan):
            bound = np.sqrt(6.0 / (fi + fo))
            assert np.abs(layer.weights).max() <= bound
            assert np.all(layer.bias == 0.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            random_init([2, 0], 1, seed=0)
        with pytest.raises(ValueError):
            random_init([2, 3], 0, seed=0)


class TestModelSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(41)
        for trial in range(10):
            dims = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
            net = random_init([2] + dims, int(rng.integers(1, 4)), seed=trial)
            back = loads_model(dumps_model(net))
            for la, lb in zip(net.hidden, back.hidden):
                assert np.array_equal(la.weights, lb.weights)
                assert np.array_equal(la.bias, lb.bias)
            assert np.array_equal(net.output.weights, back.output.weights)
            assert np.array_equal(net.output.bias, back.output.bias)

    def test_format_tag_checked(self):
        doc = json.loads(dumps_model(random_init([2, 2], 1, seed=0)))
        doc["format"] = "something-else"
        with pytest.raises(ModelFormatError):
            loads_model(json.dumps(doc))

    def test_non_finite_tokens_rejected(self):
        doc = dumps_model(random_init([2, 2], 1, seed=0))
        bad = doc.replace("0.0", "NaN", 1)
        with pytest.raises(NonFiniteError):
            loads_model(bad)
        bad = doc.replace("0.0", "Infinity", 1)
        with pytest.raises(NonFiniteError):
            loads_model(bad)

    def test_garbage_rejected(self):
        with pytest.raises(ModelFormatError):
            loads_model("{not json")

    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000], ids=["open", "closed"])
    def test_json_nested_too_deep_rejected(self, text):
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            loads_model(text)
