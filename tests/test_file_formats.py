"""The JSON formats share one strict reader: malformed documents fail loudly."""

import copy
import json
import re

import pytest

from relu_unwrap import (
    DimensionMismatchError,
    ModelFormatError,
    NonFiniteError,
    build_shallow,
    decompose,
    dumps_decomposition,
    dumps_model,
    dumps_shallow,
    loads_decomposition,
    loads_model,
    loads_shallow,
)

from conftest import biased_net, shallow_v1_text

_NET = biased_net([2, 4, 4], 2, seed=0)
_D = decompose(_NET)
_S = build_shallow(_D)
# "shallow" and "shallow-v2" are both the v2 document, the only one read:
# the dense blocks under "shallow", the entry blocks under "shallow-v2"
DOCS = {
    "model": (json.loads(dumps_model(_NET)), loads_model),
    "decomposition": (json.loads(dumps_decomposition(_D)), loads_decomposition),
    "shallow": (json.loads(dumps_shallow(_S)), loads_shallow),
    "shallow-v2": (json.loads(dumps_shallow(_S)), loads_shallow),
}

NAN, INF, HUGE = "@NaN@", "@Infinity@", "@1e400@"  # written as bare literals

# (format, path to a value, what replaces it, expected error); a callable
# maps the old value, so only its JSON type changes.  The error may be an
# (error, message) pair, pinning the whole message.
CASES = [
    ("model", ("hidden_layers", 0, "weights", 0, 0), NAN, NonFiniteError),
    ("model", ("hidden_layers", 0, "bias", 1), INF, NonFiniteError),
    ("model", ("output", "weights", 0, 0), HUGE, NonFiniteError),
    ("model", ("output", "weights", 0, 1), 10**400, NonFiniteError),
    ("model", ("hidden_layers", 0, "weights", 1, 0), str, ModelFormatError),
    ("model", ("output", "bias", 0), True, ModelFormatError),
    ("model", ("hidden_layers", 0, "weights", 0), [1.0], DimensionMismatchError),
    ("model", ("output", "weights", 0), 1.0, (ModelFormatError, "output layer weights must be lists nested 2 deep")),
    ("model", ("output",), [], (ModelFormatError, "output layer must be an object with non-empty weights and a bias")),
    ("model", ("hidden_layers", 1), "layer", (ModelFormatError, "hidden layer 1 must be an object with non-empty weights and a bias")),
    ("model", ("hidden_layers",), {}, (ModelFormatError, "hidden_layers must be a list")),
    ("decomposition", ("regions", 0, "alpha", 0, 0), NAN, ModelFormatError),
    ("decomposition", ("regions", 0, "witness", 1), INF, ModelFormatError),
    ("decomposition", ("regions", 0, "beta", 0), HUGE, ModelFormatError),
    ("decomposition", ("halfspaces", 0, "h", 0), NAN, ModelFormatError),
    ("decomposition", ("halfspaces", 0, "c"), HUGE, ModelFormatError),
    ("decomposition", ("regions", 0, "alpha", 0, 1), str, ModelFormatError),
    ("decomposition", ("regions", 0, "beta", 1), True, ModelFormatError),
    ("decomposition", ("halfspaces", 1, "c"), str, ModelFormatError),
    ("decomposition", ("input_dim",), str, ModelFormatError),
    ("decomposition", ("output_dim",), float, ModelFormatError),
    ("decomposition", ("regions", 0, "pattern", 0, 3), bool, ModelFormatError),
    ("decomposition", ("regions", 0, "pattern", 1, 0), float, ModelFormatError),
    ("decomposition", ("regions", 0, "halfspace_ids", 0), float, ModelFormatError),
    ("decomposition", ("regions", 0, "nonstrict_ids", 1), str, ModelFormatError),
    ("decomposition", ("regions", 0, "alpha", 1), [1.0], ModelFormatError),
    ("decomposition", ("partial",), "no", ModelFormatError),
    ("decomposition", ("partial",), 0, ModelFormatError),
    ("shallow", ("W1", 0, 0), NAN, ModelFormatError),
    ("shallow", ("b1", 0), INF, ModelFormatError),
    ("shallow", ("W1", 0, 0), "-Infinity", ModelFormatError),
    ("shallow", ("W4", 0, 0), str, ModelFormatError),
    ("shallow", ("b3", 0), True, ModelFormatError),
    ("shallow", ("widths", 0), float, ModelFormatError),
    ("shallow-v2", ("W2", "values", 0), NAN, ModelFormatError),
    ("shallow-v2", ("W3", "values", 0), HUGE, ModelFormatError),
    ("shallow-v2", ("W2", "values", 1), "-Infinity", ModelFormatError),
    ("shallow-v2", ("W2", "rows", 0), float, ModelFormatError),
    ("shallow-v2", ("W3", "cols", 0), bool, ModelFormatError),
    ("shallow-v2", ("W3", "rows", 1), str, ModelFormatError),
    ("shallow-v2", ("W3", "cols", -1), lambda col: col + 1, ModelFormatError),  # out of range
    ("shallow-v2", ("W2", "rows", 0), -1, ModelFormatError),
    ("shallow-v2", ("W3", "cols", 1), lambda col: col - 1, ModelFormatError),  # a cell twice
    ("shallow-v2", ("W3", "cols", 0), lambda col: col + 2, ModelFormatError),  # out of order
    ("shallow-v2", ("W3", "values"), lambda values: values[:-1], ModelFormatError),
    ("shallow-v2", ("W2", "rows"), lambda rows: rows + [rows[-1]], ModelFormatError),
    ("shallow-v2", ("W3", "shape", 0), lambda rows: rows + 2, ModelFormatError),
    ("shallow-v2", ("W2", "shape", 1), lambda cols: cols - 1, ModelFormatError),
    ("shallow-v2", ("W3",), lambda W3: {**W3, "extra": []}, ModelFormatError),
    ("shallow-v2", ("W2",), lambda W2: _S.W2.tolist(), ModelFormatError),  # a dense block
    ("shallow-v2", ("W2", "shape"), lambda shape: shape[:1], (ModelFormatError, "W2 shape must be two sizes")),
    ("shallow-v2", ("W3", "shape", 1), -1, (ModelFormatError, "W3 shape must be two sizes")),
    # more cells than int64 counts: 10**30 overflowed the row-major check
    ("shallow-v2", ("W2", "shape"), [10**30, 10**30], ModelFormatError),
    ("shallow-v2", ("W3", "shape"), [10**30, 10**30], ModelFormatError),
    ("shallow-v2", ("W3", "shape"), [2**40, 2**40], ModelFormatError),
]


def _malformed(fmt, path, value) -> str:
    doc = copy.deepcopy(DOCS[fmt][0])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    # "@NaN@" becomes the bare literal NaN, which json.dumps cannot write
    return re.sub(r'"@(.*?)@"', r"\1", json.dumps(doc))


@pytest.mark.parametrize("fmt", list(DOCS))
def test_well_formed_documents_load(fmt):
    doc, loads = DOCS[fmt]
    loads(json.dumps(doc))


@pytest.mark.parametrize(
    "fmt,path,value,error",
    CASES,
    ids=[
        f"{fmt}-{'.'.join(map(str, path))}-{getattr(value, '__name__', value)!r}"[:60]
        for fmt, path, value, _ in CASES
    ],
)
def test_malformed_document_rejected(fmt, path, value, error):
    error, message = error if isinstance(error, tuple) else (error, None)
    with pytest.raises(error) as info:
        DOCS[fmt][1](_malformed(fmt, path, value))
    assert message is None or str(info.value) == message



def test_v1_shallow_document_refused():
    """A dense relu-shallow-v1 file is refused with a pointer to rebuilding it."""
    with pytest.raises(ModelFormatError, match="relu-shallow-v1.*relu-unwrap shallowize"):
        loads_shallow(shallow_v1_text(_S))
