"""The three JSON formats share one strict reader: malformed documents fail loudly."""

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

from conftest import biased_net

_NET = biased_net([2, 4, 4], 2, seed=0)
_D = decompose(_NET)
DOCS = {
    "model": (json.loads(dumps_model(_NET)), loads_model),
    "decomposition": (json.loads(dumps_decomposition(_D)), loads_decomposition),
    "shallow": (json.loads(dumps_shallow(build_shallow(_D))), loads_shallow),
}

NAN, INF, HUGE = "@NaN@", "@Infinity@", "@1e400@"  # written as bare literals

# (format, path to a value, what replaces it, expected error); a callable
# maps the old value, so only its JSON type changes
CASES = [
    ("model", ("hidden_layers", 0, "weights", 0, 0), NAN, NonFiniteError),
    ("model", ("hidden_layers", 0, "bias", 1), INF, NonFiniteError),
    ("model", ("output", "weights", 0, 0), HUGE, NonFiniteError),
    ("model", ("output", "weights", 0, 1), 10**400, NonFiniteError),
    ("model", ("hidden_layers", 0, "weights", 1, 0), str, ModelFormatError),
    ("model", ("output", "bias", 0), True, ModelFormatError),
    ("model", ("hidden_layers", 0, "weights", 0), [1.0], DimensionMismatchError),
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
    ("shallow", ("W2", 0, 0), HUGE, ModelFormatError),
    ("shallow", ("W3", 0, 0), "@-1e400@", ModelFormatError),
    ("shallow", ("W3", 0, 0), "-inf", ModelFormatError),
    ("shallow", ("W1", 0, 0), "-Infinity", ModelFormatError),
    ("shallow", ("W4", 0, 0), str, ModelFormatError),
    ("shallow", ("b3", 0), True, ModelFormatError),
    ("shallow", ("widths", 0), float, ModelFormatError),
    ("shallow", ("W2", 1), [0.0], ModelFormatError),
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
    with pytest.raises(error):
        DOCS[fmt][1](_malformed(fmt, path, value))

