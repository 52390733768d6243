"""Exact linear-region decomposition of a ReLU network.

A network is affine on each set of inputs sharing one activation pattern.
The affine maps

    M(1) = W(1),              o(1) = b(1)
    M(l) = W(l) diag(P(l-1)) M(l-1)
    o(l) = W(l) diag(P(l-1)) o(l-1) + b(l)

give the layer-l pre-activations of any input realising the pattern prefix
P(1), ..., P(l-1).  Realisable patterns are found by splitting live cells
one neuron at a time: neuron i of layer l cuts every cell along the
hyperplane ``M(l)[i] . x + o(l)[i] = 0``.  Bit 1 adds a strict row
(pre-activation > 0), bit 0 a closed one (<= 0), so every input belongs to
exactly one pattern.  A child whose rows have no strict interior is dropped:
it covers no open set, its points lie on the closed faces of neighbouring
regions, and since added rows never create an interior, no extension of it
is realisable either.  For the same reason, a side of a neuron's hyperplane
with no interior in the cell that opens the neuron's layer has none in any
sub-cell.  So the search runs layer by layer: every cell that completes a
layer is collected, one stacked solve tests every neuron of the next layer
in all of them, and their sub-cells skip the empty sides found.  A cell
keeps points inside it, its witness first, then the pre-test's; a child
takes the first of them on its side, or else solves one LP of its own
(see :func:`enumerate_feasible`), so the work grows with the cells found
rather than with the 2^width patterns of a layer.  Every search program
is its parent cell's rows plus one neuron's row from :func:`_with_row`,
which also grows every row of :func:`global_lp`, so a leaf's rows are
exactly its :func:`global_lp`.  A cell holds only its open layer's
prefix; a pattern leaves the search as a record of its rows, its affine
model, read off its last prefix, and a witness (:func:`_witnesses`).

Each record yields a region: that model and witness, and the minimal set
of oriented half-spaces ``h . x > c`` its rows give, each unit-normalised
and oriented (both sides of one hyperplane are separate table entries).
The records share their row count, so their candidates are read off one
stacked array (:func:`_candidates`).  A region's duplicate rows are merged
within ``TOL_CANON``; its facets are found first among the rows whose
one-flip pattern is another found region (:func:`_facet_hints`), by
:func:`~relu_unwrap.lp.is_redundant`, whose rays from the witness prove
many of them kept with no LP; the regions' conditions share one table
entry when their floats are equal.  A :class:`Decomposition` holds the
table and the regions as arrays, the patterns as one bit matrix in
:func:`~relu_unwrap.network.pattern_matrix`'s form; its :class:`Region` and
:class:`OrientedHalfspace` items are views.  Its canonical form
(:func:`canonicalize`) orders the table by the same rounded keys and the
regions by model and id run, so functionally identical networks compare
entry-wise (:func:`canonical_equal`, :func:`equivalence_report`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InconsistentConstantRowError,
    IterationLimitError,
    ModelFormatError,
    NonFiniteError,
    UnwrapError,
)
from .lp import (
    _INTERIOR,
    _LIMIT,
    TOL_SLACK,
    Feasibility,
    LinearProgram,
    _groups,
    _implied,
    _solve,
    check_feasible,
    is_redundant,
)
from .network import (
    ActivationPattern,
    Layer,
    MLPNetwork,
    _frozen_array,
    _read_array,
    _read_ints,
    _read_json,
    forward_many,
)

DECOMP_FORMAT = "relu-decomp-v1"

TOL_CANON = 1e-8        # merge tolerance on (normal, offset) within a region
TOL_DEGENERATE = 1e-12  # rows with a smaller normal are constant constraints
_SORT_DECIMALS = 9      # rounding for order keys, keeps runs comparable
_PAIR_BLOCK = 1 << 18   # row pairs in one block of the pairwise merge test
_FLOAT_FIELDS = ("halfspace_normals", "halfspace_offsets", "alphas", "betas", "witnesses")


@dataclass(frozen=True)
class GlobalAffinePrefix:
    """Affine map from network input to layer ``layer`` pre-activations."""

    matrix: np.ndarray
    offset: np.ndarray
    layer: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))
        object.__setattr__(self, "offset", _frozen_array(self.offset).reshape(-1))
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise DimensionMismatchError("prefix matrix and offset disagree")


@dataclass(frozen=True)
class OrientedHalfspace:
    """Strict condition ``normal . x > offset`` with a unit normal (a view)."""

    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class Region:
    """One linear region: its pattern, affine model, and bounding conditions.

    ``halfspace_ids`` index conditions that hold strictly on the region's
    interior.  ``nonstrict_ids`` is the subset whose faces the region owns
    (pattern bit 0, closed side), used to resolve points lying exactly on a
    boundary.  A read-only view of one region of a decomposition.
    """

    pattern: ActivationPattern
    alpha: np.ndarray
    beta: np.ndarray
    halfspace_ids: tuple[int, ...]
    witness: np.ndarray
    nonstrict_ids: tuple[int, ...] = ()


def _block(values, shape: tuple[int, ...], what: str, dtype=np.float64) -> np.ndarray:
    """``values`` as a read-only array of ``shape``, which any empty block takes."""
    try:
        out = _frozen_array(values, dtype)
    except ValueError as exc:
        raise DimensionMismatchError(f"{what} do not stack into an array: {exc}") from exc
    if out.size == 0 and 0 in shape:
        out = out.reshape(shape)
    if out.shape != shape:
        raise DimensionMismatchError(f"{what} is shaped {out.shape}, expected {shape}")
    return out


def _region_rows(region_ids, region_owned) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:attr:`Decomposition.region_rows` of each region's ids and owned ids."""
    ids, owned, lengths = [], [], [0]
    for run, own in zip(region_ids, region_owned):
        own = set(own)
        if not own <= set(run):
            raise ValueError("nonstrict_ids must be a subset of halfspace_ids")
        ids.extend(run)
        owned.extend(i in own for i in run)
        lengths.append(len(run))
    try:
        ids = np.array(ids, dtype=np.intp)
    except OverflowError as exc:  # no table has an entry beyond the index range
        raise ValueError("region references a missing half-space") from exc
    return ids, np.array(owned, dtype=bool), np.cumsum(lengths)


def _split(values: np.ndarray, starts: np.ndarray) -> list[list]:
    """``values`` cut into the runs ``values[starts[r]:starts[r + 1]]``, as lists."""
    flat, cuts = values.tolist(), starts.tolist()
    return [flat[a:b] for a, b in zip(cuts, cuts[1:])]


def _read_lists(group: np.ndarray, source: np.ndarray, groups: int) -> tuple[np.ndarray, list]:
    """(ranked, reads): the read lists of ``groups`` groups from their (group,
    source) pairs, sorted by group, slot by slot.  ``ranked`` orders the groups
    by read count, most first; ``reads[j][i]`` is the j-th read of group
    ``ranked[i]``, so ``reads[j]`` covers the groups with more than j reads."""
    count = np.bincount(group, minlength=groups)
    ranked = np.argsort(-count, kind="stable")
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(ranked.size)
    j = np.arange(group.size) - (np.cumsum(count) - count)[group]
    source = source[np.argsort(j * ranked.size + rank[group])]
    cuts = [0, *np.cumsum(np.bincount(j)).tolist()]
    return ranked, [source[a:b] for a, b in zip(cuts, cuts[1:])]


def _any_read(rows: np.ndarray, ranked: np.ndarray, reads) -> np.ndarray:
    """(groups, N) bool: whether a group reads a source that is true at each
    point, ``rows`` being (sources, N), with :func:`_read_lists`' lists."""
    hit = np.zeros((ranked.size, rows.shape[1]), dtype=bool)
    for read in reads:
        hit[: read.size] |= rows[read]
    out = np.empty_like(hit)
    out[ranked] = hit
    return out


def _sort_keys(rows: np.ndarray, offsets: np.ndarray | None = None) -> list[list[float]]:
    """Order keys of a matrix's rows, rounded so equal geometry sorts alike:
    entries by numpy to ``_SORT_DECIMALS`` decimals, ``offsets`` by ``round``."""
    keys = np.round(rows, _SORT_DECIMALS).tolist()
    for key, offset in zip(keys, [] if offsets is None else offsets.tolist()):
        key.append(round(offset, _SORT_DECIMALS))
    return keys


def _sort_order(keys: list) -> np.ndarray:
    """Stable sort permutation of ``keys``, as :func:`_sort_keys` gives them."""
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)


def _renumber(region_rows, order: np.ndarray, regions: np.ndarray):
    """``region_rows`` for the table reordered so that entry ``t`` was entry
    ``order[t]``, and the regions so that region ``r`` was ``regions[r]``:
    ids mapped, each run sorted, owned flags following their ids."""
    ids, owned, starts = region_rows
    sizes = np.diff(starts)
    ids = np.argsort(order)[ids]
    at = np.lexsort((ids, np.repeat(np.argsort(regions), sizes)))
    return ids[at], owned[at], np.concatenate([[0], np.cumsum(sizes[regions])])


def _stack(patterns) -> tuple[list[list[int]], tuple[int, ...]]:
    """The bit rows and the shared layer widths of patterns, each given as
    its layers' bits; patterns of unequal layer widths are refused."""
    widths = {tuple(map(len, layers)) for layers in patterns}
    if len(widths) > 1:
        raise DimensionMismatchError("region patterns have unequal layer widths")
    return [list(chain.from_iterable(layers)) for layers in patterns], widths.pop() if widths else ()


@dataclass(frozen=True)
class Decomposition:
    """Half-space table plus all regions of one network, held as arrays.

    Condition ``i`` is ``halfspace_normals[i] . x > halfspace_offsets[i]``.
    Region ``r`` has pattern ``patterns[r]``, a row of the (p, N) uint8
    bit matrix :func:`~relu_unwrap.network.pattern_matrix` returns, whose
    columns split into layers of ``hidden_widths``; model ``x -> alphas[r]
    @ x + betas[r]`` and witness ``witnesses[r]`` (interior unless the cell
    is a single point, see :func:`enumerate_feasible`); in ``region_rows
    = (ids, owned, starts)`` its conditions are ``ids[starts[r]:starts[r +
    1]]``, and ``owned[t]`` tells whether it owns the face of ``ids[t]``.
    The arrays are read-only and checked once, here.  :attr:`halfspaces`
    and :attr:`regions` are per-item views built on first use; :meth:`of`
    builds a decomposition from such items.  ``_host_reads``, the lists
    through which :func:`_any_read` locates points, is built on first use too.
    """

    input_dim: int
    output_dim: int
    halfspace_normals: np.ndarray
    halfspace_offsets: np.ndarray
    patterns: np.ndarray
    hidden_widths: tuple[int, ...]
    alphas: np.ndarray
    betas: np.ndarray
    witnesses: np.ndarray
    region_rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    partial: bool = False

    def __post_init__(self):
        n, m = self.input_dim, self.output_dim
        k, p = np.size(self.halfspace_offsets), len(self.patterns)
        for name, shape in zip(_FLOAT_FIELDS, ((k, n), (k,), (p, m, n), (p, m), (p, n))):
            object.__setattr__(self, name, _block(getattr(self, name), shape, name))
        ids, owned, starts = self.region_rows
        ids = _block(ids, (np.size(ids),), "region ids", np.intp)
        owned = _block(owned, ids.shape, "owned mask", bool)
        starts = _block(starts, (p + 1,), "region starts", np.intp)
        object.__setattr__(self, "region_rows", (ids, owned, starts))
        widths = tuple(map(int, self.hidden_widths))
        bits = _block(self.patterns, (p, sum(widths)), "patterns", None)
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("pattern entries must be 0 or 1")
        object.__setattr__(self, "patterns", _frozen_array(bits, np.uint8))
        object.__setattr__(self, "hidden_widths", widths)
        if not all(np.isfinite(getattr(self, name)).all() for name in _FLOAT_FIELDS):
            raise NonFiniteError("decomposition entries must be finite")
        lengths = np.linalg.norm(self.halfspace_normals, axis=1)
        bad = np.flatnonzero(np.abs(lengths - 1.0) > 1e-6)
        if bad.size:
            length = lengths[bad[0]]
            raise ValueError(f"half-space normal {bad[0]} has length {length}, expected 1")
        if ids.size and not 0 <= ids.min() <= ids.max() < k:
            raise ValueError("region references a missing half-space")
        if starts[0] != 0 or starts[-1] != ids.size or (np.diff(starts) < 0).any():
            raise ValueError("region starts do not split the region ids into runs")
        if len(_pattern_index(self.patterns)) != p:
            raise ValueError("region patterns must be pairwise distinct")

    @classmethod
    def of(cls, input_dim, output_dim, halfspaces, regions, partial=False) -> Decomposition:
        """The decomposition of :class:`OrientedHalfspace` and :class:`Region`
        items; owned ids outside a region's ``halfspace_ids`` and patterns of
        unequal layer widths are refused."""
        halfspaces, regions = tuple(halfspaces), tuple(regions)
        return cls(
            input_dim, output_dim, [h.normal for h in halfspaces], [h.offset for h in halfspaces],
            *_stack([r.pattern.layers for r in regions]),
            [r.alpha for r in regions], [r.beta for r in regions], [r.witness for r in regions],
            _region_rows([r.halfspace_ids for r in regions], [r.nonstrict_ids for r in regions]),
            partial=partial,
        )

    @property
    def num_halfspaces(self) -> int:
        return len(self.halfspace_offsets)

    @property
    def num_regions(self) -> int:
        return len(self.patterns)

    @cached_property
    def halfspaces(self) -> tuple[OrientedHalfspace, ...]:
        """The half-space table as items, built on first use."""
        offsets = self.halfspace_offsets.tolist()
        return tuple(map(OrientedHalfspace, self.halfspace_normals, offsets))

    @cached_property
    def regions(self) -> tuple[Region, ...]:
        """The regions as items, built on first use."""
        patterns = map(ActivationPattern, self._pattern_layers())
        ids, own = (map(tuple, runs) for runs in self._id_lists())
        return tuple(map(Region, patterns, self.alphas, self.betas, ids, self.witnesses, own))

    @cached_property
    def _host_reads(self) -> tuple[np.ndarray, list]:
        """:func:`_read_lists` of 2p + 1 groups over 2k sources: ``i`` is
        true where condition ``i`` fails or holds only within the face
        tolerance, ``k + i`` where it fails beyond it.  Group ``r`` reads
        ``i`` for each condition of region ``r`` (it is missed strictly inside
        ``r``), group ``p + r`` ``k + i`` for the faces ``r`` owns and ``i``
        for the others (missed in ``r`` through owned faces), group 2p nothing."""
        ids, owned, starts = self.region_rows
        group = np.repeat(np.arange(2 * self.num_regions), np.tile(np.diff(starts), 2))
        source = np.concatenate([ids, ids + self.num_halfspaces * owned])
        return _read_lists(group, source, 2 * self.num_regions + 1)

    def _pattern_layers(self) -> list[list[list[int]]]:
        """Each region's pattern as its layers' bit lists."""
        cuts = list(accumulate(self.hidden_widths, initial=0))
        layers = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        return [[row[layer] for layer in layers] for row in self.patterns.tolist()]

    def _id_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """Each region's half-space ids and the ids it owns, as lists."""
        ids, owned, starts = self.region_rows
        runs = _split(ids, starts)
        return runs, [list(compress(run, own)) for run, own in zip(runs, _split(owned, starts))]


@dataclass(frozen=True)
class PatternRecord:
    """A realisable pattern as the search leaves it: its rows ``(A, b, strict)``,
    bitwise its :func:`global_lp`, its model ``x -> alpha @ x + beta``, a witness."""

    pattern: ActivationPattern
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    alpha: np.ndarray
    beta: np.ndarray
    witness: np.ndarray


@dataclass(frozen=True)
class EnumerationResult:
    """Found patterns and the search's counters (see :func:`enumerate_feasible`:
    ``solver_fallbacks`` counts every solve that ran out of pivots);
    ``partial`` when a budget cut left the patterns incomplete."""

    records: tuple[PatternRecord, ...]
    layer_feasible: tuple[int, ...]
    candidates_checked: int
    solver_fallbacks: int = 0
    partial: bool = False


# ---------------------------------------------------------------------------
# Feasibility programs


def local_lp(weights, bias, bits, *, nonneg_inputs: bool = True) -> LinearProgram:
    """Single-layer pattern program over the layer's own input space.

    Bit 1 rows demand ``W[i] . v + b[i] > 0`` (strict), bit 0 rows the closed
    complement.  ``nonneg_inputs`` appends ``v >= 0`` rows; use it for every
    layer except the first, whose input is the unconstrained network input.
    """
    W = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    b = np.asarray(bias, dtype=np.float64).reshape(-1)
    bits = tuple(int(v) for v in bits)
    if W.shape[0] != b.shape[0] or W.shape[0] != len(bits):
        raise DimensionMismatchError("weights, bias, and bits disagree")
    root = (np.zeros((0, W.shape[1])), np.zeros(0), np.zeros(0, dtype=bool))
    A, rhs, strict = _with_layer(root, GlobalAffinePrefix(W, b, 1), bits)
    if nonneg_inputs:
        A = np.vstack([A, -np.eye(W.shape[1])])
        rhs = np.concatenate([rhs, np.zeros(W.shape[1])])
        strict = np.concatenate([strict, np.zeros(W.shape[1], dtype=bool)])
    return LinearProgram(A, rhs, strict)


def _bits_of(prefix) -> tuple[tuple[int, ...], ...]:
    if isinstance(prefix, ActivationPattern):
        return prefix.layers
    return tuple(tuple(int(v) for v in layer) for layer in prefix)


def _next_prefix(prev: GlobalAffinePrefix, gate_bits, layer: Layer) -> GlobalAffinePrefix:
    """Affine map to the pre-activations of ``layer``, which follows ``prev``;
    one that overflows raises :class:`NonFiniteError` naming the layer, so
    every row made from a prefix is finite."""
    gate = np.asarray(gate_bits, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = layer.weights @ (gate[:, None] * prev.matrix)
        offset = layer.weights @ (gate * prev.offset) + layer.bias
    if not (np.isfinite(matrix).all() and np.isfinite(offset).all()):
        raise NonFiniteError(f"the affine map to layer {prev.layer + 1} overflows")
    return GlobalAffinePrefix(matrix, offset, prev.layer + 1)


def _with_row(rows, prefix: GlobalAffinePrefix, i: int, bit: int) -> tuple:
    """``rows`` plus neuron ``i`` of ``prefix`` on side ``bit``: bit 1 the strict row
    ``-M[i] . x < o[i]`` (pre-activation > 0), any other bit the closed ``M[i] . x <= -o[i]``."""
    strict = bit == 1
    row, o = (-prefix.matrix[i], prefix.offset[i]) if strict else (prefix.matrix[i], -prefix.offset[i])
    return tuple(np.concatenate((old, new)) for old, new in zip(rows, (row[None], (o,), (strict,))))


def _with_layer(rows, prefix: GlobalAffinePrefix, bits) -> tuple:
    """``rows`` plus every neuron of ``prefix``'s layer, on the sides ``bits``."""
    for i, bit in enumerate(bits):
        rows = _with_row(rows, prefix, i, bit)
    return rows


def _prefix_chain(layer_bits, net: MLPNetwork) -> tuple[GlobalAffinePrefix, tuple]:
    """The deepest prefix of a pattern prefix of ``net``'s shape, and the rows
    ``(A, b, strict)`` of its program ``A x <= b``, grown as the search grows them."""
    layer_bits = _bits_of(layer_bits)
    if not 1 <= len(layer_bits) <= net.depth:
        raise DimensionMismatchError(f"prefix has {len(layer_bits)} layers, network has {net.depth}")
    prefix = GlobalAffinePrefix(net.hidden[0].weights, net.hidden[0].bias, 1)
    rows = (np.zeros((0, net.input_dim)), np.zeros(0), np.zeros(0, dtype=bool))
    for l, bits in enumerate(layer_bits, 1):
        last = l == len(layer_bits)
        if len(bits) != prefix.matrix.shape[0]:
            raise DimensionMismatchError(
                "last prefix layer width does not match" if last
                else f"prefix layer {l} width does not match the network"
            )
        rows = _with_layer(rows, prefix, bits)
        if not last:
            prefix = _next_prefix(prefix, bits, net.hidden[l])
    return prefix, rows


def global_prefix(prefix, net: MLPNetwork) -> GlobalAffinePrefix:
    """Affine map for the deepest layer of a pattern prefix."""
    return _prefix_chain(prefix, net)[0]


def global_lp(prefix, net: MLPNetwork) -> LinearProgram:
    """Stacked input-space program of a pattern prefix (all layers so far)."""
    return LinearProgram(*_prefix_chain(prefix, net)[1])


def _row_lengths(A: np.ndarray) -> np.ndarray:
    """Length of each row of ``A``, bitwise as ``np.linalg.norm(row)`` gives it,
    so every test of a row against ``TOL_DEGENERATE`` sees the same floats."""
    return np.sqrt((A[:, None, :] @ A[:, :, None]).reshape(-1))


def _finite(b: np.ndarray) -> np.ndarray:
    """``b``, the right-hand sides of programs shifted to their points,
    refused with :class:`NonFiniteError` where a far point overflowed one."""
    if not np.isfinite(b).all():
        raise NonFiniteError("linear program entries must be finite")
    return b


def _witnesses(rows: Sequence[tuple], known=None) -> tuple[list, list[bool]]:
    """A point of each program, given as its rows ``(A, b, strict)``, in stacked solves.

    A feasibility witness is only pushed off the strict rows, so it may sit
    exactly on a closed row, which is a face shared with a neighbouring
    region.  Re-solving with every non-degenerate row marked strict yields a
    point in the polytope's topological interior; zero rows (constant
    constraints from gated-off neurons) can never clear a margin and are
    skipped.  Only where that finds nothing is the program itself solved,
    all of those in one stacked call: ``known[i]`` is taken if given, but
    only if program ``i`` is found to have an interior (else
    :class:`UnwrapError`), and otherwise the program's own witness (a region
    with only closed faces may be a point).  Returns ``(points, failed)``: a
    point, or None when none is found, and whether a solve ran out of pivots.
    """
    pushed = []
    for A, b, _ in rows:
        keep = _row_lengths(A) > TOL_DEGENERATE
        pushed.append((A, b) if keep.all() else (A[keep], b[keep]))
    strict = np.ones(max((len(b) for _, b in pushed), default=0), dtype=bool)
    order, groups = _groups(*zip(*pushed), [strict[: len(b)] for _, b in pushed]) if pushed else ([], [])
    status, x, _ = _solve(groups)
    points, failed = [None] * len(rows), [False] * len(rows)
    for i, st, w in zip(order, status.tolist(), x):
        points[i], failed[i] = (w if st == _INTERIOR else None), st == _LIMIT
    known = known or [None] * len(rows)
    rest = [i for i, w in enumerate(points) if w is None]
    order, groups = _groups(*zip(*[rows[i] for i in rest])) if rest else ([], [])
    status, x, _ = _solve(groups)
    for k, st, w in zip(order, status.tolist(), x):
        i = rest[k]
        failed[i] |= st == _LIMIT
        if known[i] is not None:
            if st != _LIMIT and st != _INTERIOR:
                raise UnwrapError(
                    f"program {i} has no interior point, yet the search kept a witness for it"
                )
            points[i] = known[i]
        elif st == _INTERIOR:
            points[i] = w
    return points, failed


# ---------------------------------------------------------------------------
# Pattern enumeration


def _sides(prefix: GlobalAffinePrefix, points) -> list[list[int | None]]:
    """Each point's side of every neuron of ``prefix``'s layer, which settles
    that neuron's child without a solve, from one product: 1 where the
    neuron's value is above ``TOL_SLACK``, 0 at or below 0, and None in the
    gray zone between."""
    zs = np.array(points) @ prefix.matrix.T + prefix.offset
    return [[1 if z > TOL_SLACK else 0 if z <= 0.0 else None for z in row] for row in zs.tolist()]


@dataclass(frozen=True)
class _Cell:
    """A live cell: the inputs realising a pattern prefix.

    The last layer of ``bits`` may be incomplete; ``prefix`` maps the input
    to its pre-activations, ``rows`` is the program ``(A, b, strict)`` in
    :func:`global_lp`'s order.  ``empty`` holds the ``(neuron, bit)``
    children of the last layer that have no interior in the cell that
    opened the layer, so in none of its sub-cells either.  ``points`` are
    points that clear every strict row by more than ``TOL_SLACK`` and meet
    the closed ones, each paired with its side of every neuron of the last
    layer (:func:`_sides`, or the side a program proved); the first is the
    cell's ``witness``, and there is none when a solver failure kept the
    cell.  A child keeps the points on its side.
    """

    bits: tuple[tuple[int, ...], ...]
    prefix: GlobalAffinePrefix
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    empty: frozenset[tuple[int, int]] = frozenset()
    points: tuple[tuple[np.ndarray, list[int | None]], ...] = ()

    @property
    def witness(self) -> np.ndarray | None:
        return self.points[0][0] if self.points else None


class _Search:
    """LP budget, counters and finished cells of one enumeration of ``net``."""

    def __init__(self, net: MLPNetwork, budget: int | None):
        self.budget = budget
        self.output = net.output
        self.lps = 0
        self.fallbacks = 0
        self.layer_cells = [0] * net.depth
        self.leaves: list[_Cell] = []

    def _charge(self, count: int) -> int:
        """Charge up to ``count`` LPs to the budget; how many it allowed."""
        room = count if self.budget is None else max(0, min(count, self.budget - self.lps))
        self.lps += room
        return room

    def _exceeded(self) -> BudgetExceededError:
        return BudgetExceededError(
            f"pattern search exceeded the budget of {self.budget} feasibility LPs",
            partial=self.result(partial=True),
        )

    @staticmethod
    def _shift(A, b, strict, start) -> tuple[LinearProgram, np.ndarray | None]:
        """The program of rows ``(A, b, strict)`` shifted to ``start``, the
        parent cell's witness, and the start; unshifted, with None, when
        there is none or the origin violates fewer rows (a cell of a network
        without biases is a cone at the origin).  The rows are the search's
        own, finite as their prefixes are; a far start may still overflow."""
        if start is not None:
            moved = b - A @ start
            if np.count_nonzero(moved < 0) <= np.count_nonzero(b < 0):
                return LinearProgram._of(A, _finite(moved), strict), start
        return LinearProgram._of(A, b, strict), None

    def _verdict(self, status: int, point) -> tuple[bool, np.ndarray | None]:
        """(keep, witness) of a program from its feasibility code (see
        :func:`~relu_unwrap.lp._solve`) and its point; a solver failure
        keeps it unwitnessed, counted in ``fallbacks``."""
        if status == _LIMIT:
            self.fallbacks += 1
            return True, None
        return (True, point) if status == _INTERIOR else (False, None)

    def interior(self, rows, start) -> tuple[bool, np.ndarray | None]:
        """(keep, witness) of a system's rows (see :meth:`_verdict`).

        ``start``, the parent cell's witness, meets every row but the new
        one.  The program is solved shifted to it (see :meth:`_shift`), so
        the simplex starts from a basis feasible but for at most that row.
        """
        if not self._charge(1):
            raise self._exceeded()
        lp, start = self._shift(*rows, start)
        try:
            res = check_feasible(lp)
        except IterationLimitError:
            return self._verdict(_LIMIT, None)
        if res.status is not Feasibility.INTERIOR:
            return False, None
        return True, res.witness if start is None else start + res.witness

    def open_layers(self, cells: Sequence[_Cell], layer: Layer) -> list[_Cell]:
        """The cells opening ``layer``, one per cell that completes the layer
        before it, with every neuron pre-tested in one stacked solve.

        Neuron ``j``'s program for a cell with witness ``w`` is the cell's
        rows plus row ``j`` on the side ``w`` does not settle, from
        :func:`_with_row`, shifted as in :meth:`interior`.  Nothing is tested
        without a witness, nor a neuron for which :func:`_sides` puts ``w``
        in the gray zone.  A side found to have no interior (hence none
        in any sub-cell) goes into the opened cell's ``empty``; the witness
        of a program found to have one follows ``w`` in its ``points``, in
        neuron order, marked with the side its program proved for its own
        neuron.  A program that runs out of pivots settles nothing and
        counts a fallback.  The whole layer is charged first: when the
        budget runs out, only the programs left under it are built and
        solved, then :class:`BudgetExceededError` is raised.
        """
        plans = []  # (cell, prefix of ``layer``, sides of the witness, tested neurons)
        for cell in cells:
            nxt = _next_prefix(cell.prefix, cell.bits[-1], layer)
            settled = [] if cell.witness is None else _sides(nxt, [cell.witness])[0]
            plans.append((cell, nxt, settled, [j for j, bit in enumerate(settled) if bit is not None]))
        total = sum(len(tested) for *_, tested in plans)
        room, programs = self._charge(total), []
        for cell, nxt, settled, tested in plans:
            tested = tested[: room - len(programs)]
            programs += [(cell, _with_row(cell.rows, nxt, j, 1 - settled[j])) for j in tested]
        verdicts = zip(programs, *self._pretest(programs))
        opened = []
        for cell, nxt, settled, tested in plans:
            empty, found, proved = set(), [], []
            # zip draws a neuron before a verdict, so each cell takes its own
            for j, (_, st, point) in zip(tested, verdicts):
                keep, point = self._verdict(st, point)
                if not keep:
                    empty.add((j, 1 - settled[j]))
                elif point is not None:
                    found.append(point)
                    proved.append(j)
            sides = _sides(nxt, found) if found else []
            for side, j in zip(sides, proved):
                side[j] = 1 - settled[j]
            points = () if cell.witness is None else tuple(zip([cell.witness, *found], [settled, *sides]))
            opened.append(_Cell(cell.bits + ((),), nxt, cell.rows, frozenset(empty), points))
        if room < total:
            raise self._exceeded()
        return opened

    @staticmethod
    def _pretest(programs) -> tuple[list[int], np.ndarray]:
        """Feasibility codes of :func:`~relu_unwrap.lp._solve` and points of
        ``(cell, rows)`` programs of one row count, each shifted as in
        :meth:`_shift` to its cell's witness, solved as one stack: a point
        is in the input coordinates."""
        if not programs:
            return [], np.zeros((0, 0))
        A, b, strict = (np.array(arrays) for arrays in zip(*(rows for _, rows in programs)))
        start = np.array([cell.witness for cell, _ in programs])
        # one product per program, bitwise as each program's own ``A @ start``
        moved = b - (A @ start[:, :, None])[:, :, 0]
        shift = np.count_nonzero(moved < 0, axis=1) <= np.count_nonzero(b < 0, axis=1)
        status, x, _ = _solve([(A, _finite(np.where(shift[:, None], moved, b)), strict)])
        return status.tolist(), np.where(shift[:, None], start + x, x)

    def result(self, *, partial: bool = False) -> EnumerationResult:
        """Records of the finished cells: rows, models and :func:`_witnesses` of the rows.

        A cell a solver failure kept and no point certifies raises
        :class:`UnwrapError`; a ``partial`` result, built and flagged when the
        budget runs out, leaves such cells out instead (``layer_feasible``
        still counts them).
        """
        points, failed = _witnesses([c.rows for c in self.leaves], [c.witness for c in self.leaves])
        self.fallbacks += sum(failed)
        if not partial and any(w is None for w in points):
            raise UnwrapError(
                "pattern kept after an iteration-limit failure could not be certified"
            )
        records = [
            PatternRecord(ActivationPattern(c.bits), c.rows, *_model(c.prefix, c.bits[-1], self.output), w)
            for c, w in zip(self.leaves, points) if w is not None
        ]
        records.sort(key=lambda rec: rec.pattern.bits())
        return EnumerationResult(
            tuple(records), tuple(self.layer_cells), self.lps, self.fallbacks, partial
        )


def enumerate_feasible(net: MLPNetwork, *, budget: int | None = None) -> EnumerationResult:
    """Find every activation pattern that passes the strict-interior test.

    A pattern passes when a point clears its strict rows by more than
    ``TOL_SLACK`` and meets its closed rows, so one with no strict row may
    be a single point: ``random_init([2, 3, 3], 1, 0)`` keeps the all-zero
    pattern, whose cone is the origin alone, with witness ``[0, 0]``.

    Live cells are split one neuron at a time, layer by layer.  Neuron ``i``
    of layer ``l`` cuts a cell along ``M[i] . x + o[i] = 0``, which is affine
    in the input under the cell's prefix.  One rule settles each child: a
    side in the cell's ``empty`` set is skipped; otherwise the child takes
    the first of the cell's points on its side (:class:`_Cell`: the witness
    ``w`` is on side 1 if ``M[i] . w + o[i] > TOL_SLACK`` and on side 0 if
    it is ``<= 0``), or, with none there, costs one feasibility LP and is
    dropped when its rows have no strict interior.  Rows only shrink a
    cell, so a dropped child has no realisable extension.  A split or
    pre-test that runs out of pivots prunes nothing and counts in
    ``solver_fallbacks``.  Records carry rows, model and witness
    (:class:`PatternRecord`); a kept pattern that no point certifies
    raises :class:`UnwrapError`.

    The search is layer-synchronous at layer boundaries.  Each layer is
    split depth-first, one cell at a time; the cells completing layer ``l -
    1`` are collected, and one stacked solve pre-tests all of them for layer
    ``l >= 2`` (:meth:`_Search.open_layers`): per cell and neuron, the
    cell's rows plus the neuron's row on the side the cell's witness does
    not settle.  A side with no interior goes into the opened cell's
    ``empty``, and the point of a side with one joins its ``points``.  The
    pre-tests of a layer share one row count, so they form one stack,
    handed to the array entry :func:`~relu_unwrap.lp._solve` with no
    padding and no per-program object.  The splits inside a layer stay
    one-program :func:`check_feasible` calls, each on a
    :class:`LinearProgram` over the search's own arrays: the benchmark's
    tracer (``perfbench/spans.py``) wraps that function and reads
    ``num_rows`` off its one program; stacking them would need a search
    over neuron-level frontiers and a tracer that reads stacked calls.

    ``layer_feasible[l]`` counts the live cells after layer ``l + 1``; the
    last entry is the number of patterns.  ``candidates_checked`` counts
    every feasibility LP the search solves, pre-test programs included;
    ``budget``, at least 0, caps it (a negative one is a ``ValueError``).
    The solve that would cross it raises :class:`BudgetExceededError` (in a
    layer's pre-test, after the programs left under the budget are solved),
    whose ``partial`` field, flagged ``partial``, carries the patterns
    completed so far, less any kept pattern that no point certifies.  No
    pattern is complete before the last layer's splits, so a cut before
    them leaves none.  Records are sorted by concatenated pattern bits.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    L, n = net.depth, net.input_dim
    root = (np.zeros((0, n)), np.zeros(0), np.zeros(0, dtype=bool))
    if L == 0:
        record = PatternRecord(ActivationPattern(()), root, *_model(None, (), net.output), np.zeros(n))
        return EnumerationResult((record,), (), 0)

    search = _Search(net, budget)
    first, origin = GlobalAffinePrefix(net.hidden[0].weights, net.hidden[0].bias, 1), np.zeros(n)
    stack = [_Cell(((),), first, root, points=((origin, _sides(first, [origin])[0]),))]
    for layer, width in enumerate(net.hidden_widths, 1):
        done = search.leaves if layer == L else []
        while stack:
            cell = stack.pop()
            bits, prefix, empty = cell.bits, cell.prefix, cell.empty
            i = len(bits[-1])
            for bit in (0, 1):
                if (i, bit) in empty:
                    continue
                grown = _with_row(cell.rows, prefix, i, bit)
                mine = tuple(point for point in cell.points if point[1][i] == bit)
                if not mine:
                    keep, witness = search.interior(grown, cell.witness)
                    if not keep:
                        continue
                    mine = () if witness is None else ((witness, _sides(prefix, [witness])[0]),)
                child = _Cell(bits[:-1] + (bits[-1] + (bit,),), prefix, grown, empty, mine)
                if i + 1 < width:
                    stack.append(child)
                else:
                    search.layer_cells[layer - 1] += 1
                    done.append(child)
        if layer < L:
            stack = search.open_layers(done, net.hidden[layer])
    return search.result()


# ---------------------------------------------------------------------------
# Region models and half-spaces


def _model(prefix, gate_bits, output: Layer) -> tuple[np.ndarray, np.ndarray]:
    """Affine model ``(alpha, beta)`` from a pattern's last prefix (None at depth 0) and bits."""
    if prefix is None:
        return np.array(output.weights), np.array(output.bias)
    out = _next_prefix(prefix, gate_bits, output)
    return out.matrix, out.offset


def local_linear_model(pattern: ActivationPattern, net: MLPNetwork):
    """Affine model ``x -> alpha @ x + beta`` of the pattern's region."""
    if net.depth == 0:
        return _model(None, (), net.output)
    layers = _bits_of(pattern)
    if len(layers) != net.depth:
        raise DimensionMismatchError(
            f"pattern has {len(layers)} layers, network has {net.depth}"
        )
    return _model(_prefix_chain(layers, net)[0], layers[-1], net.output)


def _close_pairs(normals: np.ndarray, offsets: np.ndarray, live: np.ndarray) -> np.ndarray:
    """(..., N, N) bool: whether live rows ``i`` and ``j`` of a region are
    within ``TOL_CANON`` of each other, in offset and in every normal entry."""
    near = live[..., :, None] & live[..., None, :]
    near &= np.abs(offsets[..., :, None] - offsets[..., None, :]) <= TOL_CANON
    for column in np.moveaxis(normals, -1, 0):
        near &= np.abs(column[..., :, None] - column[..., None, :]) <= TOL_CANON
    return near


def _candidates(records: Sequence[PatternRecord], net: MLPNetwork):
    """The regions' candidate conditions as flat arrays ``(normals, offsets,
    any_strict, neurons, starts)``: region ``r``'s are entries
    ``starts[r]:starts[r + 1]``.

    Each row ``A[i] . x <= b[i]`` of a record's rows gives the condition
    ``-A[i] . x > -b[i]``, unit-normalised.  Rows within ``TOL_CANON`` of
    an earlier candidate of their region merge into it, in row order;
    ``any_strict`` tells whether a strict (bit 1) row produced the
    candidate.  ``neurons`` gives each candidate's row, which is its
    neuron's column in the pattern bits; it is -1 throughout a region
    where rows merged or a zero row's offset is within ``TOL_CANON`` of 0,
    as then a neuron may vanish on a facet (see :func:`_facet_hints`).

    Every record has one row per neuron, so the rows stack as (p, N, n) and
    all of the above is computed on the stack at once, the pairwise merge
    test in blocks of regions; only a region that has a close pair runs
    the in-order merge.
    """
    p, N, n = len(records), sum(net.hidden_widths), net.input_dim
    A = np.array([rec.rows[0] for rec in records], dtype=np.float64).reshape(p, N, n)
    b = np.array([rec.rows[1] for rec in records], dtype=np.float64).reshape(p, N)
    strict = np.array([rec.rows[2] for rec in records], dtype=bool).reshape(p, N)
    lengths = _row_lengths(A.reshape(p * N, n)).reshape(p, N)
    live = lengths > TOL_DEGENERATE
    shift = np.where(strict, b, -b)
    bad = ~live & ~np.where(strict, shift > -TOL_CANON, shift <= TOL_CANON)
    if bad.any():
        r, i = np.argwhere(bad)[0]
        names = [(l, j) for l, g in enumerate(records[r].pattern.layers, 1) for j in range(len(g))]
        raise InconsistentConstantRowError(
            f"layer {names[i][0]} neuron {names[i][1]}: zero row with "
            f"offset {float(shift[r, i])} contradicts bit {int(strict[r, i])}"
        )
    # a dead row is divided by 1, so no zero divides; its entries are never read
    lengths = np.where(live, lengths, 1.0)
    unit, offset = -A / lengths[..., None], -b / lengths
    merging = np.zeros(p, dtype=bool)
    upper = np.triu(np.ones((N, N), dtype=bool), 1)
    step = max(1, _PAIR_BLOCK // max(1, N * N))
    for lo in range(0, p, step):
        block = slice(lo, lo + step)
        merging[block] = (_close_pairs(unit[block], offset[block], live[block]) & upper).any(axis=(1, 2))
    sizes = np.count_nonzero(live, axis=1)
    region, neurons = np.nonzero(live)
    normals, offsets, any_strict = unit[live], offset[live], strict[live]
    vanishing = (~live & (np.abs(b) <= TOL_CANON)).any(axis=1)
    neurons[(merging | vanishing)[region]] = -1
    keep = np.ones(region.size, dtype=bool)
    for r in np.flatnonzero(merging).tolist():
        first = int(sizes[:r].sum())
        close = _close_pairs(unit[r], offset[r], live[r])[live[r]][:, live[r]]
        kept: list[int] = []
        for i in range(sizes[r]):
            hit = next((j for j in kept if close[i, j]), None)
            if hit is None:
                kept.append(i)
            else:
                keep[first + i] = False
                any_strict[first + hit] |= any_strict[first + i]
    starts = np.concatenate([[0], np.cumsum(np.bincount(region[keep], minlength=p))]).astype(np.intp)
    return normals[keep], offsets[keep], any_strict[keep], neurons[keep], starts


def _pattern_index(patterns: np.ndarray) -> dict[bytes, int]:
    """The region of each pattern, keyed by its row's bytes in a (p, N) uint8
    bit matrix of :attr:`Decomposition.patterns` form."""
    return {row.tobytes(): r for r, row in enumerate(patterns)}


def _facet_hints(patterns: np.ndarray, neurons: np.ndarray, starts: np.ndarray) -> list[np.ndarray | None]:
    """Per region, the candidates whose one-flip pattern is a region of
    ``patterns``, the ``(p, N)`` bit matrix; ``neurons`` and ``starts`` are
    :func:`_candidates`', and a region whose neurons are -1 gets None.

    Across a facet from neuron ``j`` the pattern differs in bit ``j`` alone,
    unless another neuron vanishes on the facet, so other rows are in
    general not facets; :func:`_facets` tests the rows these hints miss.
    The flipped patterns are looked up at once, packed into bytes, by a
    binary search of the sorted packed patterns.
    """
    region = np.repeat(np.arange(len(patterns)), np.diff(starts))
    hinted = neurons >= 0
    found = np.zeros(neurons.size, dtype=bool)
    if hinted.any():
        packed = np.packbits(patterns, axis=1)
        flips = np.packbits(np.eye(patterns.shape[1], dtype=np.uint8), axis=1)
        wanted = packed[region[hinted]] ^ flips[neurons[hinted]]  # one flipped pattern per candidate
        key = np.dtype((np.void, packed.shape[1]))
        table = packed[np.argsort(packed.view(key).reshape(-1))]
        at = np.searchsorted(table.view(key).reshape(-1), wanted.view(key).reshape(-1))
        found[hinted] = (table[np.minimum(at, len(table) - 1)] == wanted).all(axis=1)
    unhinted = np.zeros(len(patterns), dtype=bool)
    unhinted[region[~hinted]] = True
    rows = np.arange(neurons.size) - starts[region]
    runs = np.split(rows[found], np.cumsum(np.bincount(region[found], minlength=len(patterns)))[:-1])
    return [None if none else run for run, none in zip(runs, unhinted.tolist())]


def _prune_sequential(lp: LinearProgram) -> list[int]:
    """Drop redundant rows one at a time, each tested against the rows still
    kept, in row order."""
    active, rest = list(range(lp.num_rows)), lp
    for j in range(lp.num_rows):
        if len(active) < 2:
            break
        if rest.num_rows > len(active):
            rest = LinearProgram._of(lp.A[active], lp.b[active], lp.strict[active])
        if is_redundant(active.index(j), rest):
            active.remove(j)
    return active


def _facets(lps: Sequence[LinearProgram], hints=None) -> list[list[int]]:
    """Rows of each closed region program that bound it, as the sequential
    loop finds them.

    Each program is shifted to a point of its region, so a feasible start
    is at hand when that point clears every row.  Then two passes, each a
    stacked call over all regions, suffice: the hinted rows tested against
    all the others give facets F, and when every other row is redundant
    against F alone, F is what the sequential loop keeps (a facet stays one
    against any subset of the rows, and every other row is implied by the
    facets it keeps, so a facet left out of the hints would fail that test).
    ``hints[j]`` lists the rows pass 1 tests in program ``j``, ascending
    (:func:`_facet_hints`); all of them where it, or ``hints``, is None.
    Pass 1's rays leave the region's point, the origin of its program, so
    :func:`is_redundant` proves many facets kept with no LP.  A region runs
    the loop instead when it has fewer than two rows, its point sits on a
    row, F is empty, a row is not implied by F, or one of its own programs
    ran out of pivots.
    """
    hints = hints or [None] * len(lps)
    quick = [j for j, lp in enumerate(lps) if lp.num_rows >= 2 and (lp.b > 0.0).all()]
    tested = [
        np.arange(lps[j].num_rows) if hints[j] is None else np.asarray(hints[j], dtype=np.intp) for j in quick
    ]
    first = is_redundant(tested, [lps[j] for j in quick])
    facets: list[list[int] | None] = [None] * len(lps)
    checks = []  # (region, facets F, rows to test against F)
    for j, rows, redundant in zip(quick, tested, first):
        if redundant is None or redundant.all():
            continue
        kept = rows[~redundant]
        rest = np.delete(np.arange(lps[j].num_rows), kept)
        if rest.size:
            checks.append((j, kept, rest))
        else:
            facets[j] = kept.tolist()
    if checks:  # pass 2: each other row maximised over F, its verdicts read off arrays
        order, groups = _groups(*zip(*[(lps[j].A[kept], lps[j].b[kept]) for j, kept, _ in checks]))
        checks = [checks[k] for k in order]
        c = np.concatenate([lps[j].A[rest] for j, _, rest in checks])
        status, _, value = _solve(groups, c, [rest.size for *_, rest in checks])
        implied = _implied(status, value, np.concatenate([lps[j].b[rest] for j, _, rest in checks]))
        starts = np.cumsum([0] + [rest.size for *_, rest in checks[:-1]])
        for (j, kept, _), ok in zip(checks, np.logical_and.reduceat(implied, starts).tolist()):
            if ok:
                facets[j] = kept.tolist()
    return [_prune_sequential(lp) if f is None else f for lp, f in zip(lps, facets)]


def _closed_rows(normals, offsets, point=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``(A, b, strict)`` of :func:`closed_lp`, shifted to ``point`` if
    given, bitwise as :meth:`LinearProgram.shifted` shifts (``b - A @ point``)."""
    A = -np.asarray(normals, dtype=np.float64)
    b = -np.asarray(offsets, dtype=np.float64).reshape(-1)
    b = b if point is None else b - A @ np.asarray(point, dtype=np.float64).reshape(-1)
    return A, b, np.zeros(b.shape[0], dtype=bool)


def closed_lp(normals, offsets) -> LinearProgram:
    """Closed program ``-h . x <= -c`` of the conditions ``h . x > c``: its
    feasible set is the closure of the region the conditions bound."""
    return LinearProgram(*_closed_rows(normals, offsets))


def _first_occurrences(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, ids) of a float matrix's rows, two rows being one entry when
    their floats are equal (0.0 equals -0.0): the index of each entry's
    first row, ascending, and each row's entry, numbered in that order."""
    order = np.lexsort(rows.T[::-1])  # stable, so each run of equal rows starts at its first row
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    firsts = order[new]
    rank = np.empty_like(firsts)
    rank[np.argsort(firsts)] = np.arange(firsts.size)
    ids = np.empty_like(order)
    ids[order] = rank[np.cumsum(new) - 1]
    return np.sort(firsts), ids


def extract_halfspaces(records: Sequence[PatternRecord], net: MLPNetwork):
    """Minimal oriented half-space set of every region.

    Each pattern row of a region's stacked program contributes the candidate
    condition that holds strictly on the region's interior: bit 1 rows give
    ``(M[i], -o[i])``, bit 0 rows the opposite orientation.  Zero-normal rows
    are constant constraints: they are checked for consistency and dropped.
    Duplicates are merged per region (:func:`_candidates`, on all records
    at once), and redundant conditions are removed by LP in two stacked
    passes over all regions (:func:`_facets`, each region's program shifted
    to its witness); the first pass tests only the rows whose one-flip
    pattern is among the records' patterns (:func:`_facet_hints`), many of
    them proven facets by a ray from the witness with no LP, and the second
    every other row.  Survivors are pooled into one table, where conditions
    with equal floats share an entry, numbered by first occurrence, then
    sorted by (normal, offset).
    Returns ``(normals, offsets, region_rows)``: the table as (k, n) and
    (k,) arrays, and its :attr:`Decomposition.region_rows`.
    """
    p, n = len(records), net.input_dim
    normals, offsets, any_strict, neurons, starts = _candidates(records, net)
    patterns = np.array([rec.pattern.bits() for rec in records], dtype=np.uint8)
    patterns = patterns.reshape(p, sum(net.hidden_widths))
    cuts = starts.tolist()
    rows = [_closed_rows(normals[a:b], offsets[a:b], rec.witness) for a, b, rec in zip(cuts, cuts[1:], records)]
    _finite(np.concatenate([b for _, b, _ in rows] or [np.zeros(0)]))
    lps = [LinearProgram._of(*r) for r in rows]
    active = _facets(lps, _facet_hints(patterns, neurons, starts))
    sizes = [len(rows) for rows in active]
    kept = np.array(list(chain.from_iterable(active)), dtype=np.intp) + np.repeat(starts[:-1], sizes)
    firsts, ids = _first_occurrences(np.column_stack([normals[kept], offsets[kept]]))
    table_normals, table_offsets = normals[kept][firsts].reshape(-1, n), offsets[kept][firsts]
    order = _sort_order(_sort_keys(table_normals, table_offsets))
    rows = (ids, ~any_strict[kept], np.array([0, *accumulate(sizes)], dtype=np.intp))
    return table_normals[order], table_offsets[order], _renumber(rows, order, np.arange(p))


def build_decomposition(net: MLPNetwork, enumeration: EnumerationResult) -> Decomposition:
    """Assemble regions from found patterns (models, witnesses, half-spaces of
    their rows); the decomposition is partial when ``enumeration`` is."""
    records = enumeration.records
    normals, offsets, region_rows = extract_halfspaces(records, net)
    return Decomposition(
        net.input_dim, net.output_dim, normals, offsets,
        [rec.pattern.bits() for rec in records], net.hidden_widths,
        [rec.alpha for rec in records], [rec.beta for rec in records],
        [rec.witness for rec in records], region_rows, partial=enumeration.partial,
    )


def decompose(
    net: MLPNetwork, *, budget: int | None = None, threads: int = 1
) -> Decomposition:
    """Full decomposition of a network into its linear regions.

    Pure and deterministic: the same network gives an identical result.
    Regions are ordered by pattern bits and the half-space table by (normal,
    offset).  ``threads`` is accepted for compatibility and ignored.
    """
    return build_decomposition(net, enumerate_feasible(net, budget=budget))


# ---------------------------------------------------------------------------
# Canonical form and functional equivalence


def canonicalize(d: Decomposition) -> Decomposition:
    """Reorder a decomposition into its canonical form.

    Half-spaces sort by (normal, offset), as the decomposition's own table,
    and regions by (flattened model matrix, model offset, half-space id
    run), with the table's rounded keys, so equal geometry sorts alike
    across runs.  Functionally identical networks decompose to canonical
    forms that agree entry-wise, whatever architecture produced them.
    """
    n, m, p = d.input_dim, d.output_dim, d.num_regions
    order = _sort_order(_sort_keys(d.halfspace_normals, d.halfspace_offsets))
    ids, _, starts = _renumber(d.region_rows, order, np.arange(p))
    models = _sort_keys(np.hstack([d.alphas.reshape(p, m * n), d.betas]))
    perm = _sort_order([model + run for model, run in zip(models, _split(ids, starts))])
    return Decomposition(
        n, m, d.halfspace_normals[order], d.halfspace_offsets[order], d.patterns[perm],
        d.hidden_widths, d.alphas[perm], d.betas[perm], d.witnesses[perm],
        _renumber(d.region_rows, order, perm), partial=d.partial,
    )


def canonical_equal(a: Decomposition, b: Decomposition, tol: float = 1e-7) -> bool:
    """Entry-wise agreement of two canonical decompositions.

    Compares the half-space tables, the per-region models, and the region
    id sets; activation patterns and witnesses are architecture-specific and
    excluded.  Inputs must already be canonicalized.
    """
    if a.halfspace_normals.shape != b.halfspace_normals.shape or a.output_dim != b.output_dim:
        return False
    if not all(map(np.array_equal, a.region_rows[::2], b.region_rows[::2])):  # ids and starts
        return False
    fields = ("halfspace_normals", "halfspace_offsets", "alphas", "betas")
    return all(np.abs(getattr(a, f) - getattr(b, f)).max(initial=0.0) <= tol for f in fields)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing two networks for functional identity."""

    max_abs_diff: float
    canonical_equal: bool
    witness_of_difference: np.ndarray | None


def _first_unmatched_witness(a: Decomposition, b: Decomposition, tol: float):
    """Witness of the first region of ``a`` matched by no region of ``b``
    with the same half-space ids and a model within ``tol`` per entry."""
    if a.alphas.shape[1:] != b.alphas.shape[1:]:
        return a.witnesses[0] if a.num_regions else None
    rivals: dict[tuple[int, ...], list[int]] = {}
    for r, run in enumerate(_split(*b.region_rows[::2])):
        rivals.setdefault(tuple(run), []).append(r)
    pairs = [(r, s) for r, run in enumerate(_split(*a.region_rows[::2])) for s in rivals.get(tuple(run), ())]
    ra, rb = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    gap = np.abs(a.alphas[ra] - b.alphas[rb]).max(axis=(1, 2), initial=0.0)
    gap = np.maximum(gap, np.abs(a.betas[ra] - b.betas[rb]).max(axis=1, initial=0.0))
    unmatched = np.flatnonzero(np.bincount(ra[gap <= tol], minlength=a.num_regions) == 0)
    return a.witnesses[unmatched[0]] if unmatched.size else None


def equivalence_report(
    net_a: MLPNetwork,
    net_b: MLPNetwork,
    samples: int = 10_000,
    seed: int = 0,
    *,
    tol: float = 1e-7,
) -> EquivalenceReport:
    """Compare two networks structurally and by sampling.

    Both are decomposed and canonicalized; structural agreement within
    ``tol`` per entry is the ``canonical_equal`` verdict.  Outputs are also
    compared at ``samples`` uniform points on [-10, 10]^n.  When the forms
    differ, the witness is an interior point of a region present in one
    network but matched by nothing in the other.  ``samples`` must be >= 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if net_a.input_dim != net_b.input_dim or net_a.output_dim != net_b.output_dim:
        raise DimensionMismatchError("networks must share input and output sizes")
    da = canonicalize(decompose(net_a))
    db = canonicalize(decompose(net_b))
    equal = canonical_equal(da, db, tol=tol)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-10.0, 10.0, size=(samples, net_a.input_dim))
    gaps = np.abs(forward_many(net_a, X) - forward_many(net_b, X)).max(axis=1)
    diff = float(gaps.max())
    witness = None
    if not equal:
        witness = _first_unmatched_witness(da, db, tol)
        if witness is None:
            witness = _first_unmatched_witness(db, da, tol)
        if witness is None and diff > 0:
            witness = X[int(np.argmax(gaps))]
    return EquivalenceReport(diff, equal, witness)


# ---------------------------------------------------------------------------
# File I/O


def dumps_decomposition(d: Decomposition) -> str:
    doc = {
        "format": DECOMP_FORMAT,
        "input_dim": d.input_dim,
        "output_dim": d.output_dim,
        "halfspaces": [
            {"h": h, "c": c}
            for h, c in zip(d.halfspace_normals.tolist(), d.halfspace_offsets.tolist())
        ],
        "regions": [
            {
                "pattern": pattern,
                "alpha": alpha,
                "beta": beta,
                "halfspace_ids": ids,
                "witness": witness,
                "nonstrict_ids": owned,
            }
            for pattern, alpha, beta, witness, ids, owned in zip(
                d._pattern_layers(), d.alphas.tolist(), d.betas.tolist(), d.witnesses.tolist(),
                *d._id_lists(),
            )
        ],
    }
    if d.partial:
        doc["partial"] = True
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def loads_decomposition(text: str) -> Decomposition:
    try:
        doc = _read_json(text, DECOMP_FORMAT)
        halfspaces, regions = doc["halfspaces"], doc["regions"]
        partial = doc.get("partial", False)
        if type(partial) is not bool:
            raise ModelFormatError(f"partial must be true or false, got {partial!r}")
        patterns = _read_ints([item["pattern"] for item in regions], "pattern", 3)
        return Decomposition(
            _read_ints(doc["input_dim"], "input_dim"),
            _read_ints(doc["output_dim"], "output_dim"),
            _read_array([item["h"] for item in halfspaces], "half-space normals", 2),
            _read_array([item["c"] for item in halfspaces], "half-space offsets", 1),
            *_stack(patterns),
            _read_array([item["alpha"] for item in regions], "alpha", 3),
            _read_array([item["beta"] for item in regions], "beta", 2),
            _read_array([item["witness"] for item in regions], "witness", 2),
            _region_rows(
                _read_ints([r["halfspace_ids"] for r in regions], "halfspace_ids", 2),
                _read_ints([r.get("nonstrict_ids", []) for r in regions], "nonstrict_ids", 2),
            ),
            partial=partial,
        )
    except (KeyError, TypeError, ValueError, DimensionMismatchError, NonFiniteError) as exc:
        raise ModelFormatError(f"malformed decomposition: {exc}") from exc


def load_decomposition(path) -> Decomposition:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_decomposition(fh.read())


def save_decomposition(d: Decomposition, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_decomposition(d))
