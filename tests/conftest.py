"""Shared fixtures: tiny hand-checked networks with known partitions."""

import json

import numpy as np
import pytest

from relu_unwrap import Layer, MLPNetwork, random_init


def _demo_hidden():
    return (Layer(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2)),)


@pytest.fixture
def demo_net_m2() -> MLPNetwork:
    """One hidden layer [[1,1],[0,1]], zero bias, identity output.

    Splits the plane into four regions along x1 + x2 = 0 and x2 = 0; every
    per-region model is known in closed form.
    """
    return MLPNetwork(_demo_hidden(), Layer(np.eye(2), np.zeros(2)))


@pytest.fixture
def demo_net_m1() -> MLPNetwork:
    """Same hidden layer, scalar output summing both neurons."""
    return MLPNetwork(_demo_hidden(), Layer(np.array([[1.0, 1.0]]), np.zeros(1)))


@pytest.fixture
def affine_net() -> MLPNetwork:
    """No hidden layers: the network is a single affine map on R^2."""
    return MLPNetwork((), Layer(np.array([[2.0, -1.0], [0.5, 3.0]]), np.array([1.0, -2.0])))


def biased_net(dims, output_dim, seed):
    """Xavier weights with N(0, 1) biases on every layer."""
    net = random_init(dims, output_dim, seed)
    rng = np.random.default_rng(10_000 + seed)
    layers = [
        Layer(layer.weights, rng.normal(0.0, 1.0, layer.weights.shape[0]))
        for layer in net.hidden + (net.output,)
    ]
    return MLPNetwork(tuple(layers[:-1]), layers[-1])


def permute_hidden(net: MLPNetwork, seed: int) -> MLPNetwork:
    """Reorder every hidden layer's neurons; the function is unchanged."""
    rng = np.random.default_rng(seed)
    hidden = []
    carry = None  # permutation applied to the previous layer's outputs
    for layer in net.hidden:
        W = layer.weights if carry is None else layer.weights[:, carry]
        perm = rng.permutation(W.shape[0])
        hidden.append(Layer(W[perm], layer.bias[perm]))
        carry = perm
    out_W = net.output.weights if carry is None else net.output.weights[:, carry]
    return MLPNetwork(tuple(hidden), Layer(out_W, net.output.bias))


def pad_identity_layer(net: MLPNetwork) -> MLPNetwork:
    """Insert a do-nothing layer after the first hidden layer.

    Post-ReLU activations are nonnegative, so relu(I a) = a and the
    network's function is untouched while its depth grows.
    """
    h = net.hidden[0].weights.shape[0]
    hidden = (net.hidden[0], Layer(np.eye(h), np.zeros(h))) + net.hidden[1:]
    return MLPNetwork(hidden, net.output)


def interior_samples(d, region, rng, count, spread=0.5):
    """Random points strictly inside a region, seeded from its witness.

    Walks from the witness toward random directions, keeping only points
    whose every bounding condition stays strictly positive.
    """
    reg = d.regions[region]
    ids = list(reg.halfspace_ids)
    H = np.array([d.halfspaces[i].normal for i in ids]).reshape(len(ids), d.input_dim)
    c = np.array([d.halfspaces[i].offset for i in ids])
    out = []
    w = np.asarray(reg.witness, dtype=np.float64)
    tries = 0
    while len(out) < count and tries < 200 * count:
        tries += 1
        x = w + rng.uniform(-spread, spread, size=d.input_dim)
        if ids and (H @ x - c).min() <= 1e-9:
            continue
        out.append(x)
    return np.array(out) if out else np.zeros((0, d.input_dim))


def shallow_v1_text(s) -> str:
    """A shallow network as a ``relu-shallow-v1`` document: every weight
    matrix dense, -inf written as the string "-Infinity".  The package
    neither writes nor reads this format; tests check that it is refused."""

    def dense(W):
        return [["-Infinity" if v == -np.inf else v for v in row] for row in W.tolist()]

    doc = {"format": "relu-shallow-v1", "widths": list(s.widths)}
    for name in ("W1", "b1", "W2", "b2", "W3", "b3", "W4"):
        value = getattr(s, name)
        doc[name] = dense(value) if value.ndim == 2 else value.tolist()
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
