"""Outputs stay byte-identical on every run, not only when compared by hand.

``tests/data/output_digest.txt`` holds the lines ``tests/tools/output_digest.py``
printed for the sweep's networks with at most 300 regions: the SHA-256 of
``dumps_decomposition`` and ``dumps_shallow``, and the search's counts.
Each line is recomputed here from this checkout.
"""

import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("output_digest", TESTS / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(output_digest)

NETS = dict(output_digest.sweep())
LINES = (TESTS / "data" / "output_digest.txt").read_text(encoding="utf-8").splitlines()
LABELS = [next(label for label in NETS if line.startswith(f"{label} ")) for line in LINES]


def test_digest_covers_the_merge_path_and_far_witnesses():
    merging = {f"xavier[2,6,6,6]x1#{seed}" for seed in range(3)}
    assert merging | {"xavier[4,5,5]x2#2"} <= set(LABELS)
    assert len(set(LABELS)) == len(LINES)


@pytest.mark.parametrize("label,line", zip(LABELS, LINES), ids=LABELS)
def test_digest_line_is_unchanged(label, line):
    assert output_digest.digest(label, NETS[label]()) == line
