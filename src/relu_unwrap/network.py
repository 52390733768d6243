"""Feed-forward ReLU networks: containers, evaluation, initialisation, file I/O.

A network is a chain of hidden layers ``v -> max(0, W v + b)`` followed by one
affine output layer.  Weight matrices are row-major: row ``i`` holds the
incoming weights of neuron ``i``.

Model files use the ``relu-mlp-v1`` JSON schema::

    {"format": "relu-mlp-v1",
     "hidden_layers": [{"weights": [[...], ...], "bias": [...]}, ...],
     "output": {"weights": [[...], ...], "bias": [...]}}

Numbers may use scientific notation.  Files written by :func:`save_model`
round-trip bit-exactly because floats are serialised with Python's
shortest-round-trip repr.

Every public entry that takes points, here and in the shallow and explain
modules, reads them once through :func:`_points`: one point is ``n``
numbers, a batch an (N, n) array.  Another shape raises
:class:`DimensionMismatchError`, a NaN or infinite coordinate
:class:`NonFiniteError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ModelFormatError, NonFiniteError

MODEL_FORMAT = "relu-mlp-v1"


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# The strict reader shared by the model, decomposition and shallow formats

# entry types of a numeric block (bool is not int here); str only as a token
_BLOCK_TYPES = frozenset((float, int, str))


def _reject_constant(token: str):
    raise NonFiniteError(f"non-finite literal {token!r} is not allowed")


def _read_json(text: str, *formats: str) -> dict:
    """The JSON object of a document tagged with one of ``formats``.

    A bare ``NaN``, ``Infinity`` or ``-Infinity`` literal raises
    :class:`NonFiniteError`; invalid JSON (nesting too deep for the parser
    included), a non-object and a wrong format tag raise
    :class:`ModelFormatError`.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") not in formats:
        tags = " or ".join(map(repr, formats))
        raise ModelFormatError(f"expected a JSON object with format {tags}")
    return doc


def _entries(value, what: str, ndim: int, shape: list | None = None) -> list:
    """The entries of ``value``, lists nested ``ndim`` deep, in row-major order.

    Given ``shape``, sibling lists must have equal lengths, which are
    appended to it level by level.
    """
    level = [value]
    for _ in range(ndim):
        if not set(map(type, level)) <= {list}:
            raise ModelFormatError(f"{what} must be lists nested {ndim} deep")
        if shape is not None:
            sizes = set(map(len, level))
            if len(sizes) > 1:
                raise DimensionMismatchError(f"{what} has rows of unequal lengths")
            shape.append(sizes.pop() if sizes else 0)
        level = list(chain.from_iterable(level))
    return level


def _read_ints(value, what: str, ndim: int = 0):
    """``value``, checked to hold only integers (rows may differ in length)."""
    if not set(map(type, _entries(value, what, ndim))) <= {int}:
        raise ModelFormatError(f"{what} must hold integers")
    return value


def _read_array(value, what: str, ndim: int, token: str | None = None) -> np.ndarray:
    """A block of JSON numbers in lists nested ``ndim`` deep, as float64.

    A string or a boolean entry raises :class:`ModelFormatError`, except
    that the string ``token``, where given, reads as -inf.  Rows of unequal
    lengths raise :class:`DimensionMismatchError`, and a number beyond the
    float range, such as ``1e400``, raises :class:`NonFiniteError`.
    """
    shape: list[int] = []
    entries = _entries(value, what, ndim, shape)
    types = list(map(type, entries))
    tokens = 0 if token is None else entries.count(token)
    if not set(types) <= _BLOCK_TYPES or types.count(str) != tokens:
        allowed = "numbers" if token is None else f"numbers or {token!r}"
        raise ModelFormatError(f"{what} entries must be {allowed}")
    try:
        block = np.array(entries, dtype=np.float64).reshape(shape)
    except OverflowError:  # an integer beyond the float range counts as infinite
        block = np.full(shape, np.inf)
    if np.count_nonzero(np.isinf(block)) != tokens:
        raise NonFiniteError(f"{what} holds a number beyond the float range")
    return block


def _read_entries(value, what: str, token: str | None = None):
    """A matrix block ``{"shape", "rows", "cols", "values"}`` of row-major entries.

    Returns ``(shape, rows, cols, values)`` with integer index arrays and
    ``values`` read as :func:`_read_array` reads a flat list.  Index lists
    must hold integers inside ``shape``; whether the lists agree in length
    and order is left to the matrix they build.
    """
    if not isinstance(value, dict) or set(value) != {"shape", "rows", "cols", "values"}:
        raise ModelFormatError(f"{what} must be an object of shape, rows, cols and values")
    shape = _read_ints(value["shape"], f"{what} shape", 1)
    if len(shape) != 2 or min(shape) < 0:
        raise ModelFormatError(f"{what} shape must be two sizes")
    if shape[0] * shape[1] > np.iinfo(np.intp).max:  # cells are numbered in intp
        raise ModelFormatError(f"{what} shape {shape} has more cells than an index can count")
    index = []
    for key, size in zip(("rows", "cols"), shape):
        ids = _read_ints(value[key], f"{what} {key}", 1)
        if min(ids, default=0) < 0 or max(ids, default=-1) >= size:
            raise ModelFormatError(f"{what} {key} holds an index outside the shape {shape}")
        index.append(np.array(ids, dtype=np.intp))
    return tuple(shape), *index, _read_array(value["values"], f"{what} values", 1, token)


@dataclass(frozen=True)
class Layer:
    """One affine layer ``v -> weights @ v + bias``."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise DimensionMismatchError(
                f"layer weights must be a 2-d matrix, got shape {w.shape}"
            )
        if b.shape != (w.shape[0],):
            raise DimensionMismatchError(
                f"bias length {b.shape[0]} does not match {w.shape[0]} neurons"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NonFiniteError("layer entries must be finite")
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "bias", _frozen_array(b))

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class MLPNetwork:
    """A ReLU network: zero or more hidden layers plus an affine output layer."""

    hidden: tuple[Layer, ...]
    output: Layer

    def __post_init__(self):
        hidden = tuple(self.hidden)
        object.__setattr__(self, "hidden", hidden)
        prev = hidden[0].in_dim if hidden else self.output.in_dim
        for pos, layer in enumerate(hidden):
            if layer.in_dim != prev:
                raise DimensionMismatchError(
                    f"hidden layer {pos} expects {layer.in_dim} inputs, "
                    f"previous width is {prev}"
                )
            prev = layer.out_dim
        if self.output.in_dim != prev:
            raise DimensionMismatchError(
                f"output layer expects {self.output.in_dim} inputs, "
                f"last hidden width is {prev}"
            )

    @property
    def input_dim(self) -> int:
        return self.hidden[0].in_dim if self.hidden else self.output.in_dim

    @property
    def output_dim(self) -> int:
        return self.output.out_dim

    @property
    def depth(self) -> int:
        """Number of hidden (ReLU) layers."""
        return len(self.hidden)

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.out_dim for layer in self.hidden)


@dataclass(frozen=True)
class ActivationPattern:
    """Binary on/off state of every hidden neuron, one 0/1 vector per layer."""

    layers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        layers = tuple([tuple(map(int, layer)) for layer in self.layers])
        if not {0, 1}.issuperset(chain.from_iterable(layers)):
            raise ValueError("pattern entries must be 0 or 1")
        object.__setattr__(self, "layers", layers)

    def bits(self) -> tuple[int, ...]:
        """All layers concatenated; also the canonical sort key."""
        return tuple(v for layer in self.layers for v in layer)

    def __len__(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class Trace:
    """Per-layer post-ReLU activations plus the network output."""

    activations: tuple[np.ndarray, ...]
    output: np.ndarray


# messages of _points, given {k} coordinates in {shape} where {n} are expected
_BATCH = "expected (N, {n}) points, got shape {shape}"
_POINT = "point has {k} coordinates, network has {n}"


def _points(values, n: int, message: str = _BATCH, *, one: bool = False) -> np.ndarray:
    """``values`` as a finite float64 (N, n) batch: an (N, n) array, or with
    ``one`` a single point of ``n`` coordinates in any shape, as (1, n).

    A wrong shape raises :class:`DimensionMismatchError` with ``message``
    filled in, a NaN or infinite coordinate :class:`NonFiniteError`; the
    functions the batch is handed to check nothing again.
    """
    a = np.asarray(values, dtype=np.float64)
    if (a.size != n) if one else (a.ndim != 2 or a.shape[1] != n):
        raise DimensionMismatchError(message.format(k=a.size, n=n, shape=a.shape))
    if not np.isfinite(a).all():
        raise NonFiniteError("points must be finite")
    return a.reshape(-1, n)


def _layers(net: MLPNetwork, a: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each hidden layer's post-ReLU activations and the output of the (N, n)
    batch ``a``, as :func:`_points` returns it."""
    activations = []
    for layer in net.hidden:
        a = np.maximum(a @ layer.weights.T + layer.bias, 0.0)
        activations.append(a)
    return activations, a @ net.output.weights.T + net.output.bias


def forward(net: MLPNetwork, x) -> Trace:
    """Evaluate the network at the point ``x`` and keep every hidden activation."""
    activations, out = _layers(net, _points(x, net.input_dim, _POINT, one=True))
    return Trace(tuple(a[0] for a in activations), out[0])


def activation_pattern(net: MLPNetwork, x) -> ActivationPattern:
    """Pattern of ``x``: bit 1 iff the pre-activation is strictly positive.

    Zero pre-activations get bit 0, so points on a neuron's boundary
    belong to the closed side of that neuron's region.  A pre-activation is
    positive exactly when its ReLU is, so the bits are read off the
    activations.
    """
    activations, _ = _layers(net, _points(x, net.input_dim, _POINT, one=True))
    return ActivationPattern(tuple(a[0] > 0.0 for a in activations))


def forward_many(net: MLPNetwork, points) -> np.ndarray:
    """Vectorised forward pass: ``points`` is (N, n), result is (N, m)."""
    return _layers(net, _points(points, net.input_dim))[1]


def pattern_matrix(net: MLPNetwork, points) -> np.ndarray:
    """Concatenated pattern bits of many points as a (N, total_neurons) uint8."""
    a = _points(points, net.input_dim)
    activations, _ = _layers(net, a)
    return (np.hstack([a[:, :0], *activations]) > 0.0).astype(np.uint8)


def random_init(dims: Sequence[int], output_dim: int, seed: int) -> MLPNetwork:
    """Xavier-uniform network: ``dims`` is input width plus hidden widths.

    Weights of a layer with fan-in ``a`` and fan-out ``b`` are drawn uniformly
    from ``[-sqrt(6/(a+b)), +sqrt(6/(a+b))]``; biases are zero.  The same seed
    always produces bit-identical weights.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 1 or any(d < 1 for d in dims) or output_dim < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)

    def draw(fan_out: int, fan_in: int) -> Layer:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        return Layer(w, np.zeros(fan_out))

    hidden = tuple(draw(dims[i + 1], dims[i]) for i in range(len(dims) - 1))
    output = draw(output_dim, dims[-1])
    return MLPNetwork(hidden, output)


# ---------------------------------------------------------------------------
# File I/O


def _layer_to_jsonable(layer: Layer) -> dict:
    return {"weights": layer.weights.tolist(), "bias": layer.bias.tolist()}


def _layer_from_jsonable(obj, what: str) -> Layer:
    if not isinstance(obj, dict) or not obj.get("weights") or "bias" not in obj:
        raise ModelFormatError(f"{what} must be an object with non-empty weights and a bias")
    return Layer(
        _read_array(obj["weights"], f"{what} weights", 2),
        _read_array(obj["bias"], f"{what} bias", 1),
    )


def loads_model(text: str) -> MLPNetwork:
    """Parse a ``relu-mlp-v1`` JSON document."""
    doc = _read_json(text, MODEL_FORMAT)
    raw_hidden = doc.get("hidden_layers")
    if not isinstance(raw_hidden, list):
        raise ModelFormatError("hidden_layers must be a list")
    hidden = tuple(
        _layer_from_jsonable(item, f"hidden layer {i}")
        for i, item in enumerate(raw_hidden)
    )
    output = _layer_from_jsonable(doc.get("output"), "output layer")
    return MLPNetwork(hidden, output)


def dumps_model(net: MLPNetwork) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "hidden_layers": [_layer_to_jsonable(layer) for layer in net.hidden],
        "output": _layer_to_jsonable(net.output),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def load_model(path) -> MLPNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())


def save_model(net: MLPNetwork, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(net))
