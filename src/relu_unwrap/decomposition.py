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
is realisable either.  The parent cell's witness settles one child without
a solve, so the work grows with the cells found rather than with the 2^width
patterns of a layer.  Every pattern program comes from one helper,
:func:`_rows`, so a leaf's rows are exactly its :func:`global_lp`, and the
search settles every pattern's witness once (:func:`_witnesses`).

Each surviving pattern yields a region: its affine model, read off its last
prefix, that witness, and the minimal set of oriented half-spaces
``h . x > c`` bounding it.  Half-spaces keep their orientation (both sides
of one hyperplane are separate table entries) and are unit-normalised.
A region's duplicate rows are merged within ``TOL_CANON``; the regions'
conditions share one table entry when their floats are equal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
    TOL_SLACK,
    Feasibility,
    LinearProgram,
    check_feasible,
    check_feasible_many,
    dominated,
    extremize,
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
)

DECOMP_FORMAT = "relu-decomp-v1"

TOL_CANON = 1e-8        # merge tolerance on (normal, offset) within a region
TOL_DEGENERATE = 1e-12  # rows with a smaller normal are constant constraints
_SORT_DECIMALS = 9      # rounding for order keys, keeps runs comparable


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
    """Strict condition ``normal . x > offset`` with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = _frozen_array(self.normal).reshape(-1)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))
        # Python floats: faster than numpy checks on arrays this small
        entries = normal.tolist()
        if not math.isfinite(self.offset) or not all(map(math.isfinite, entries)):
            raise NonFiniteError("half-space entries must be finite")
        length = math.hypot(*entries)
        if abs(length - 1.0) > 1e-6:
            raise ValueError(f"half-space normal has length {length}, expected 1")


@dataclass(frozen=True)
class Region:
    """One linear region: its pattern, affine model, and bounding conditions.

    ``halfspace_ids`` index conditions that hold strictly on the region's
    interior.  ``nonstrict_ids`` is the subset whose faces the region owns
    (pattern bit 0, closed side), used to resolve points lying exactly on a
    boundary.
    """

    pattern: ActivationPattern
    alpha: np.ndarray
    beta: np.ndarray
    halfspace_ids: tuple[int, ...]
    witness: np.ndarray
    nonstrict_ids: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen_array(self.alpha))
        object.__setattr__(self, "beta", _frozen_array(self.beta).reshape(-1))
        object.__setattr__(self, "witness", _frozen_array(self.witness).reshape(-1))
        object.__setattr__(self, "halfspace_ids", tuple(map(int, self.halfspace_ids)))
        object.__setattr__(self, "nonstrict_ids", tuple(map(int, self.nonstrict_ids)))
        if self.alpha.ndim != 2 or self.alpha.shape[0] != self.beta.shape[0]:
            raise DimensionMismatchError("region model shapes disagree")
        # Python floats: faster than numpy checks on arrays this small
        entries = chain(self.alpha.ravel().tolist(), self.beta.tolist(), self.witness.tolist())
        if not all(map(math.isfinite, entries)):
            raise NonFiniteError("region model and witness must be finite")
        if not set(self.nonstrict_ids) <= set(self.halfspace_ids):
            raise ValueError("nonstrict_ids must be a subset of halfspace_ids")


@dataclass(frozen=True)
class Decomposition:
    """Half-space table plus all regions of one network.

    The read-only arrays below are derived once, on first use, and shared
    by every later query.
    """

    input_dim: int
    output_dim: int
    halfspaces: tuple[OrientedHalfspace, ...]
    regions: tuple[Region, ...]
    partial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        object.__setattr__(self, "regions", tuple(self.regions))
        k, n = len(self.halfspaces), self.input_dim
        if any(hs.normal.shape != (n,) for hs in self.halfspaces):
            raise DimensionMismatchError(f"a half-space normal does not have {n} entries")
        seen = set()
        for r, region in enumerate(self.regions):
            if region.pattern.layers in seen:
                raise ValueError("region patterns must be pairwise distinct")
            seen.add(region.pattern.layers)
            if any(not 0 <= i < k for i in region.halfspace_ids):
                raise ValueError("region references a missing half-space")
            if region.alpha.shape != (self.output_dim, n):
                raise DimensionMismatchError(
                    f"region {r}: alpha is {region.alpha.shape}, expected {(self.output_dim, n)}"
                )
            if region.witness.shape != (n,):
                raise DimensionMismatchError(
                    f"region {r}: witness is {region.witness.shape}, expected {(n,)}"
                )

    @property
    def num_halfspaces(self) -> int:
        return len(self.halfspaces)

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @cached_property
    def halfspace_normals(self) -> np.ndarray:
        """Unit normals of the half-space table stacked as a (k, n) array."""
        return _frozen_array(
            [hs.normal for hs in self.halfspaces] or np.zeros((0, self.input_dim))
        )

    @cached_property
    def halfspace_offsets(self) -> np.ndarray:
        """Offsets of the half-space table as a (k,) array."""
        return _frozen_array([hs.offset for hs in self.halfspaces])

    @cached_property
    def region_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every region's conditions as flat arrays ``(ids, owned, starts)``.

        ``ids`` concatenates the regions' ``halfspace_ids`` in region order,
        ``owned[t]`` tells whether the region listing ``ids[t]`` owns that
        face, and region ``r`` occupies ``ids[starts[r]:starts[r + 1]]``.
        """
        ids, owned = [], []
        for region in self.regions:
            own = set(region.nonstrict_ids)
            ids.extend(region.halfspace_ids)
            owned.extend(i in own for i in region.halfspace_ids)
        lengths = [len(region.halfspace_ids) for region in self.regions]
        return (
            _frozen_array(ids, dtype=np.intp),
            _frozen_array(owned, dtype=bool),
            _frozen_array(np.cumsum([0] + lengths), dtype=np.intp),
        )


@dataclass(frozen=True)
class PatternRecord:
    """A realisable pattern with its per-layer affine maps and a witness."""

    pattern: ActivationPattern
    prefixes: tuple[GlobalAffinePrefix, ...]
    witness: np.ndarray


@dataclass(frozen=True)
class EnumerationResult:
    """Found patterns and the search's counters (see :func:`enumerate_feasible`)."""

    records: tuple[PatternRecord, ...]
    layer_feasible: tuple[int, ...]
    candidates_checked: int
    solver_fallbacks: int = 0


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
    A, rhs, strict = _rows((GlobalAffinePrefix(W, b, 1),), (bits,))
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
    """Affine map to the pre-activations of ``layer``, which follows ``prev``."""
    gate = np.asarray(gate_bits, dtype=np.float64)
    return GlobalAffinePrefix(
        layer.weights @ (gate[:, None] * prev.matrix),
        layer.weights @ (gate * prev.offset) + layer.bias,
        prev.layer + 1,
    )


def _prefix_chain(layer_bits, net: MLPNetwork) -> list[GlobalAffinePrefix]:
    layer_bits = _bits_of(layer_bits)
    if not 1 <= len(layer_bits) <= net.depth:
        raise DimensionMismatchError(
            f"prefix has {len(layer_bits)} layers, network has {net.depth}"
        )
    chain = [GlobalAffinePrefix(net.hidden[0].weights, net.hidden[0].bias, 1)]
    for l in range(2, len(layer_bits) + 1):
        if len(layer_bits[l - 2]) != chain[-1].matrix.shape[0]:
            raise DimensionMismatchError(
                f"prefix layer {l - 1} width does not match the network"
            )
        chain.append(_next_prefix(chain[-1], layer_bits[l - 2], net.hidden[l - 1]))
    last_gate = layer_bits[-1]
    if len(last_gate) != chain[-1].matrix.shape[0]:
        raise DimensionMismatchError("last prefix layer width does not match")
    return chain


def global_prefix(prefix, net: MLPNetwork) -> GlobalAffinePrefix:
    """Affine map for the deepest layer of a pattern prefix."""
    return _prefix_chain(prefix, net)[-1]


def _rows(chain, bits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``(A, b, strict)`` of a pattern prefix's program ``A x <= b``.

    ``chain[l]`` maps the input to the pre-activations of the prefix's layer
    ``l + 1`` and ``bits[l]`` holds that layer's bits, which may cover only
    its first neurons.  Bit 1 gives the strict row ``-M[i] . x < o[i]``
    (pre-activation > 0), bit 0 the closed row ``M[i] . x <= -o[i]``.
    """
    M = np.concatenate([p.matrix[: len(e)] for p, e in zip(chain, bits)])
    o = np.concatenate([p.offset[: len(e)] for p, e in zip(chain, bits)])
    strict = np.array(sum(bits, ())) == 1
    return np.where(strict[:, None], -M, M), np.where(strict, o, -o), strict


def global_lp(prefix, net: MLPNetwork) -> LinearProgram:
    """Stacked input-space program of a pattern prefix (all layers so far)."""
    layer_bits = _bits_of(prefix)
    return LinearProgram(*_rows(_prefix_chain(layer_bits, net), layer_bits))


def _witnesses(lps: Sequence[LinearProgram], known=None) -> tuple[list, list[bool]]:
    """A point of each program, settled in stacked solves.

    A feasibility witness is only pushed off the strict rows, so it may sit
    exactly on a closed row, which is a face shared with a neighbouring
    region.  Re-solving with every non-degenerate row marked strict yields a
    point in the polytope's topological interior; zero rows (constant
    constraints from gated-off neurons) can never clear a margin and are
    skipped.  Where that finds nothing, ``known[i]`` is taken, else the
    program's own witness (a region with only closed faces may be a point).
    Returns ``(points, failed)``: a point, or None when none is found, and
    whether a solve of the program ran out of pivots.
    """
    pushed = []
    for lp in lps:
        keep = np.linalg.norm(lp.A, axis=1) > TOL_DEGENERATE
        pushed.append(LinearProgram(lp.A[keep], lp.b[keep], np.ones(int(keep.sum()), dtype=bool)))
    first = check_feasible_many(pushed)
    points = [
        res.witness if res is not None and res.status is Feasibility.INTERIOR else w
        for res, w in zip(first, known or [None] * len(lps))
    ]
    failed = [res is None for res in first]
    rest = [i for i, w in enumerate(points) if w is None]
    for i, res in zip(rest, check_feasible_many([lps[i] for i in rest])):
        failed[i] |= res is None
        if res is not None and res.status is Feasibility.INTERIOR:
            points[i] = res.witness
    return points, failed


# ---------------------------------------------------------------------------
# Pattern enumeration


@dataclass(frozen=True)
class _Cell:
    """A live cell: the inputs realising a pattern prefix.

    The last layer of ``bits`` may be incomplete; ``chain`` holds the
    prefix's affine maps.  ``witness`` clears every strict row of the
    prefix's program by more than ``TOL_SLACK`` and meets the closed ones;
    it is None when a solver failure kept the cell.
    """

    bits: tuple[tuple[int, ...], ...]
    chain: tuple[GlobalAffinePrefix, ...]
    witness: np.ndarray | None


class _Search:
    """LP budget, counters and finished cells of one enumeration."""

    def __init__(self, depth: int, budget: int | None):
        self.budget = budget
        self.lps = 0
        self.fallbacks = 0
        self.layer_cells = [0] * depth
        self.leaves: list[_Cell] = []

    def interior(self, lp: LinearProgram, start) -> tuple[bool, np.ndarray | None]:
        """(keep, witness) of a system; a solver failure keeps it unwitnessed.

        ``start``, the parent cell's witness, meets every row but the new
        one.  The program is solved shifted to it, unless the origin violates
        fewer rows (a cell of a network without biases is a cone at the
        origin), so the simplex starts from a basis feasible but for at most
        that row.
        """
        if self.budget is not None and self.lps >= self.budget:
            raise BudgetExceededError(
                f"pattern search exceeded the budget of {self.budget} feasibility LPs",
                partial=self.result(partial=True),
            )
        self.lps += 1
        if start is not None:
            moved = lp.shifted(start)
            if np.count_nonzero(moved.b < 0) > np.count_nonzero(lp.b < 0):
                start = None
            else:
                lp = moved
        try:
            res = check_feasible(lp)
        except IterationLimitError:
            self.fallbacks += 1
            return True, None
        if res.status is Feasibility.INTERIOR:
            return True, res.witness if start is None else start + res.witness
        return False, None

    def result(self, *, partial: bool = False) -> EnumerationResult:
        """Records of the finished cells, with witnesses from :func:`_witnesses`.

        A cell a solver failure kept and no point certifies raises
        :class:`UnwrapError`; a ``partial`` result, built when the budget
        runs out, leaves such cells out instead (``layer_feasible`` still
        counts them).
        """
        points, failed = _witnesses(
            [LinearProgram(*_rows(cell.chain, cell.bits)) for cell in self.leaves],
            [cell.witness for cell in self.leaves],
        )
        self.fallbacks += sum(failed)
        if not partial and any(w is None for w in points):
            raise UnwrapError(
                "pattern kept after an iteration-limit failure could not be certified"
            )
        records = [
            PatternRecord(ActivationPattern(cell.bits), cell.chain, w)
            for cell, w in zip(self.leaves, points)
            if w is not None
        ]
        records.sort(key=lambda rec: rec.pattern.bits())
        return EnumerationResult(
            tuple(records), tuple(self.layer_cells), self.lps, self.fallbacks
        )


def enumerate_feasible(net: MLPNetwork, *, budget: int | None = None) -> EnumerationResult:
    """Find every activation pattern realised on a set with interior.

    Live cells are split one neuron at a time, layer by layer.  Neuron ``i``
    of layer ``l`` cuts a cell along ``M[i] . x + o[i] = 0``, which is affine
    in the input under the cell's prefix.  The cell's witness ``w`` settles
    one child without a solve (bit 1 if ``M[i] . w + o[i] > TOL_SLACK``, bit 0
    if it is ``<= 0``); every other child costs one feasibility LP and is
    dropped when its rows have no strict interior.  Rows only shrink a cell,
    so a dropped child has no realisable extension.  A solver failure keeps
    the child without a witness and is counted in ``solver_fallbacks``.
    Every record carries a witness (see :func:`_witnesses`); a kept pattern
    that no point certifies raises :class:`UnwrapError`.

    ``layer_feasible[l]`` counts the live cells after layer ``l + 1``; the
    last entry is the number of patterns.  ``candidates_checked`` counts the
    feasibility LPs solved to split cells; ``budget`` caps it, and the solve
    that would cross it raises :class:`BudgetExceededError`, whose
    ``partial`` field carries the patterns completed so far, less any kept
    pattern that no point certifies.  Records are sorted by concatenated
    pattern bits.
    """
    L, n = net.depth, net.input_dim
    if L == 0:
        record = PatternRecord(ActivationPattern(()), (), np.zeros(n))
        return EnumerationResult((record,), (), 0)

    widths = net.hidden_widths
    search = _Search(L, budget)
    first = GlobalAffinePrefix(net.hidden[0].weights, net.hidden[0].bias, 1)
    stack = [_Cell(((),), (first,), np.zeros(n))]
    while stack:
        cell = stack.pop()
        bits, chain = cell.bits, cell.chain
        if len(bits[-1]) == widths[len(chain) - 1]:
            # the cell's last layer is complete: open the next one
            nxt = _next_prefix(chain[-1], bits[-1], net.hidden[len(chain)])
            bits, chain = bits + ((),), chain + (nxt,)
        layer, i = len(chain), len(bits[-1])
        row, shift = chain[-1].matrix[i], chain[-1].offset[i]
        w = cell.witness
        z = None if w is None else float(row @ w + shift)
        for bit in (0, 1):
            child = bits[:-1] + (bits[-1] + (bit,),)
            if z is not None and (z > TOL_SLACK if bit else z <= 0.0):
                witness = w
            else:
                keep, witness = search.interior(LinearProgram(*_rows(chain, child)), w)
                if not keep:
                    continue
            layer_done = i + 1 == widths[layer - 1]
            search.layer_cells[layer - 1] += layer_done
            (search.leaves if layer_done and layer == L else stack).append(
                _Cell(child, chain, witness)
            )
    return search.result()


# ---------------------------------------------------------------------------
# Region models and half-spaces


def _model(chain, bits, net: MLPNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Affine model ``(alpha, beta)`` of a full pattern from its prefix chain."""
    if not chain:
        return np.array(net.output.weights), np.array(net.output.bias)
    out = _next_prefix(chain[-1], bits[-1], net.output)
    return out.matrix, out.offset


def local_linear_model(pattern: ActivationPattern, net: MLPNetwork):
    """Affine model ``x -> alpha @ x + beta`` of the pattern's region."""
    if net.depth == 0:
        return _model((), (), net)
    layers = _bits_of(pattern)
    if len(layers) != net.depth:
        raise DimensionMismatchError(
            f"pattern has {len(layers)} layers, network has {net.depth}"
        )
    return _model(_prefix_chain(layers, net), layers, net)


def _sort_key(normal: np.ndarray, offset: float) -> tuple:
    """Order key of a half-space, rounded so equal geometry sorts alike."""
    return tuple(np.round(normal, _SORT_DECIMALS)) + (round(offset, _SORT_DECIMALS),)


def _candidates(rec: PatternRecord, dim: int) -> tuple[np.ndarray, list[float], list[bool]]:
    """A region's candidate conditions ``(normals, offsets, any_strict)``.

    Each row ``A[i] . x <= b[i]`` of the pattern's program gives the
    condition ``-A[i] . x > -b[i]``, unit-normalised.  Rows within
    ``TOL_CANON`` of an earlier candidate merge into it, in row order;
    ``any_strict`` tells whether a strict (bit 1) row produced the
    candidate.
    """
    if not rec.prefixes:
        return np.zeros((0, dim)), [], []
    A, b, strict = _rows(rec.prefixes, rec.pattern.layers)
    lengths = np.array([float(np.linalg.norm(row)) for row in A])
    live = lengths > TOL_DEGENERATE
    for i in np.flatnonzero(~live):
        bit = int(strict[i])
        shift = float(b[i] if bit else -b[i])
        if not (shift > -TOL_CANON if bit else shift <= TOL_CANON):
            layer, neuron = [(p.layer, j) for p in rec.prefixes for j in range(len(p.offset))][i]
            raise InconsistentConstantRowError(
                f"layer {layer} neuron {neuron}: zero row with "
                f"offset {shift} contradicts bit {bit}"
            )
    normals = -A[live] / lengths[live, None]
    offsets = -b[live] / lengths[live]
    strict = strict[live].tolist()
    close = (np.abs(offsets[:, None] - offsets) <= TOL_CANON) & (
        np.abs(normals[:, None] - normals).max(axis=2, initial=0.0) <= TOL_CANON
    )
    if not np.triu(close, 1).any():
        return normals, offsets.tolist(), strict
    keep, any_strict = [], []
    for i in range(len(offsets)):
        hit = next((t for t, j in enumerate(keep) if close[i, j]), None)
        if hit is None:
            keep.append(i)
            any_strict.append(strict[i])
        else:
            any_strict[hit] = any_strict[hit] or strict[i]
    return normals[keep], offsets[keep].tolist(), any_strict


def _prune_sequential(lp: LinearProgram) -> list[int]:
    """Drop redundant rows one at a time, each tested against the rows still
    kept, in row order."""
    active = list(range(lp.num_rows))
    for j in range(lp.num_rows):
        if len(active) < 2:
            break
        rest = LinearProgram(lp.A[active], lp.b[active], lp.strict[active])
        if is_redundant(active.index(j), rest):
            active.remove(j)
    return active


def _facets(lps: Sequence[LinearProgram]) -> list[list[int]]:
    """Rows of each closed region program that bound it, as the sequential
    loop finds them.

    Each program is shifted to a point of its region, so a feasible start
    is at hand when that point clears every row.  Then two passes, each a
    stacked call over all regions, suffice: every row tested against all
    the others gives a region's facets F, and when every other row is
    redundant against F alone, F is what the sequential loop keeps (a facet
    stays one against any subset of the rows, and every other row is
    implied by the facets it keeps).  A region runs the loop instead when it
    has fewer than two rows, its point sits on a row, F is empty, a row is
    not implied by F, or one of its own programs ran out of pivots.
    """
    quick = [j for j, lp in enumerate(lps) if lp.num_rows >= 2 and (lp.b > 0.0).all()]
    first = is_redundant([np.arange(lps[j].num_rows) for j in quick], [lps[j] for j in quick])
    facets: list[list[int] | None] = [None] * len(lps)
    checks = []  # (region, facets F, rows to test against F)
    for j, redundant in zip(quick, first):
        if redundant is None or redundant.all():
            continue
        kept, rest = np.flatnonzero(~redundant), np.flatnonzero(redundant)
        if rest.size:
            checks.append((j, kept, rest))
        else:
            facets[j] = kept.tolist()
    tops = extremize(
        [lps[j].A[rest] for j, _, rest in checks],
        [LinearProgram(lps[j].A[kept], lps[j].b[kept], lps[j].strict[kept]) for j, kept, _ in checks],
    )
    for (j, kept, rest), top in zip(checks, tops):
        if top is not None and all(map(dominated, top, lps[j].b[rest].tolist())):
            facets[j] = kept.tolist()
    return [_prune_sequential(lp) if f is None else f for lp, f in zip(lps, facets)]


def closed_lp(normals, offsets) -> LinearProgram:
    """Closed program ``-h . x <= -c`` of the conditions ``h . x > c``.

    Its feasible set is the closure of the region the conditions bound.
    """
    normals = np.asarray(normals, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64).reshape(-1)
    return LinearProgram(-normals, -offsets, np.zeros(offsets.shape[0], dtype=bool))


def extract_halfspaces(records: Sequence[PatternRecord], net: MLPNetwork):
    """Minimal oriented half-space set of every region.

    Each pattern row of a region's stacked program contributes the candidate
    condition that holds strictly on the region's interior: bit 1 rows give
    ``(M[i], -o[i])``, bit 0 rows the opposite orientation.  Zero-normal rows
    are constant constraints: they are checked for consistency and dropped.
    Duplicates are merged per region, and redundant conditions are removed
    by LP in two stacked passes over all regions (:func:`_facets`, each
    region's program shifted to its witness); survivors are pooled into one
    table, where conditions with equal floats share an entry, sorted by
    (normal, offset).  Returns
    ``(table, region_ids, region_nonstrict_ids)``.
    """
    n = net.input_dim
    index: dict[tuple[bytes, float], int] = {}
    items: list[tuple[np.ndarray, float]] = []
    raw_ids: list[list[int]] = []
    raw_nonstrict: list[list[int]] = []

    candidates = [_candidates(rec, n) for rec in records]
    lps = [closed_lp(c[0], c[1]).shifted(rec.witness) for c, rec in zip(candidates, records)]
    for (normals, offsets, any_strict), active in zip(candidates, _facets(lps)):
        ids, owned = [], []
        for j in active:
            normal, offset = normals[j], offsets[j]
            # the first occurrence of the exact floats; + 0.0 folds -0.0 into 0.0
            hit = index.setdefault(((normal + 0.0).tobytes(), offset + 0.0), len(items))
            if hit == len(items):
                items.append((normal, offset))
            ids.append(hit)
            if not any_strict[j]:
                owned.append(hit)
        raw_ids.append(ids)
        raw_nonstrict.append(owned)

    order = sorted(range(len(items)), key=lambda i: _sort_key(*items[i]))
    remap = {old: new for new, old in enumerate(order)}
    table = tuple(OrientedHalfspace(*items[i]) for i in order)
    region_ids = [tuple(sorted(remap[i] for i in ids)) for ids in raw_ids]
    region_nonstrict = [tuple(sorted(remap[i] for i in ids)) for ids in raw_nonstrict]
    return table, region_ids, region_nonstrict


def build_decomposition(
    net: MLPNetwork, enumeration: EnumerationResult, *, partial: bool = False
) -> Decomposition:
    """Assemble regions (models, witnesses, half-spaces) from found patterns."""
    records = enumeration.records
    table, region_ids, region_nonstrict = extract_halfspaces(records, net)
    regions = [
        Region(rec.pattern, *_model(rec.prefixes, rec.pattern.layers, net), ids, rec.witness, owned)
        for rec, ids, owned in zip(records, region_ids, region_nonstrict)
    ]
    return Decomposition(
        net.input_dim, net.output_dim, table, tuple(regions), partial=partial
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
# File I/O


def dumps_decomposition(d: Decomposition) -> str:
    doc = {
        "format": DECOMP_FORMAT,
        "input_dim": d.input_dim,
        "output_dim": d.output_dim,
        "halfspaces": [
            {"h": hs.normal.tolist(), "c": hs.offset} for hs in d.halfspaces
        ],
        "regions": [
            {
                "pattern": [list(layer) for layer in region.pattern.layers],
                "alpha": region.alpha.tolist(),
                "beta": region.beta.tolist(),
                "halfspace_ids": list(region.halfspace_ids),
                "witness": region.witness.tolist(),
                "nonstrict_ids": list(region.nonstrict_ids),
            }
            for region in d.regions
        ],
    }
    if d.partial:
        doc["partial"] = True
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def loads_decomposition(text: str) -> Decomposition:
    try:
        doc = _read_json(text, DECOMP_FORMAT)
        halfspaces, regions = doc["halfspaces"], doc["regions"]
        normals = _read_array([item["h"] for item in halfspaces], "half-space normals", 2)
        offsets = _read_array([item["c"] for item in halfspaces], "half-space offsets", 1)
        alphas = _read_array([item["alpha"] for item in regions], "alpha", 3)
        betas = _read_array([item["beta"] for item in regions], "beta", 2)
        witnesses = _read_array([item["witness"] for item in regions], "witness", 2)
        patterns = _read_ints([item["pattern"] for item in regions], "pattern", 3)
        ids = _read_ints([item["halfspace_ids"] for item in regions], "halfspace_ids", 2)
        owned = _read_ints(
            [item.get("nonstrict_ids", []) for item in regions], "nonstrict_ids", 2
        )
        partial = doc.get("partial", False)
        if type(partial) is not bool:
            raise ModelFormatError(f"partial must be true or false, got {partial!r}")
        return Decomposition(
            _read_ints(doc["input_dim"], "input_dim"),
            _read_ints(doc["output_dim"], "output_dim"),
            tuple(map(OrientedHalfspace, normals, offsets)),
            tuple(
                map(Region, map(ActivationPattern, patterns), alphas, betas, ids, witnesses, owned)
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
