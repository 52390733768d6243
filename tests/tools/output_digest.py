"""Digest of the library's outputs over a fixed sweep of networks.

    python3 tests/tools/output_digest.py [SRC]

Imports ``relu_unwrap`` from ``SRC`` (default: this checkout's ``src/``)
and prints one line per network: its label, the SHA-256 of
``dumps_decomposition`` and of ``dumps_shallow`` (first 16 hex digits),
and the search's ``layer_feasible``, ``candidates_checked`` and
``solver_fallbacks``.  Two checkouts give the same outputs on the sweep
when their printouts are equal; run this script with the other
checkout's ``src/`` as ``SRC`` and diff the two printouts.

The sweep is the benchmark's networks (both workloads), the nets of the
golden files in ``tests/data/``, every shape ``tests/conftest.biased_net``
is called with in the tests, with seeds 0-2, and biased [4,8,8,2] with
one output, seed 0 (p=3,186).  Pytest does not collect this file.
"""

import hashlib
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
SRC = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else TESTS.parent / "src"
sys.path[:0] = [str(SRC), str(TESTS)]

import numpy as np  # noqa: E402

import relu_unwrap as ru  # noqa: E402
from conftest import biased_net  # noqa: E402

# (dims, outputs) that the tests build with biased_net
BIASED_SHAPES = [
    ([2, 3, 3], 2),
    ([2, 4, 4], 2),
    ([2, 4, 4, 3], 2),
    ([2, 5, 5, 3], 1),
    ([2, 5, 5, 3], 2),
    ([2, 8, 8, 4], 2),
    ([3, 4, 3], 2),
    ([3, 5, 5, 3], 1),
    ([3, 5, 5, 3], 2),
    ([3, 6, 6, 3], 2),
]


def sweep():
    """``(label, build)`` per network, each network once, in a fixed order."""
    nets = {
        "xavier[2,8,8,8]x1#0": lambda: ru.random_init([2, 8, 8, 8], 1, 0),
        "demo[2,2]x2": lambda: ru.MLPNetwork(
            (ru.Layer(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2)),), ru.Layer(np.eye(2), np.zeros(2))
        ),
        "xavier[2,5,7,4]x3#2": lambda: ru.random_init([2, 5, 7, 4], 3, 2),
    }
    for dims, outputs in BIASED_SHAPES:
        for seed in range(3):
            nets[f"biased{dims}x{outputs}#{seed}"] = lambda d=dims, m=outputs, s=seed: biased_net(d, m, s)
    nets["biased[4,8,8,2]x1#0"] = lambda: biased_net([4, 8, 8, 2], 1, 0)
    return nets.items()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def main():
    print(f"relu_unwrap from {Path(ru.__file__).resolve().parent}", file=sys.stderr)
    for label, build in sweep():
        net = build()
        found = ru.enumerate_feasible(net)
        d = ru.build_decomposition(net, found)
        try:
            shallow = sha(ru.dumps_shallow(ru.build_shallow(d)))
        except ru.UnwrapError as exc:
            shallow = f"{type(exc).__name__}"
        print(
            label,
            sha(ru.dumps_decomposition(d)),
            shallow,
            list(found.layer_feasible),
            found.candidates_checked,
            found.solver_fallbacks,
        )


if __name__ == "__main__":
    main()
