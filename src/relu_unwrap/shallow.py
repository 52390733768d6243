"""Three-hidden-layer reconstruction of a decomposed ReLU network.

Any network with p linear regions and k oriented bounding half-spaces can be
rewritten with exactly three hidden layers of widths 2n+k, 2n+p, and 2pm:

  layer 1  splits x into relu(x) / relu(-x) and computes one violation score
           relu(c_i - h_i . x) per half-space (zero iff ``h_i . x >= c_i``);
  layer 2  passes the split input through and sums, per region, the scores
           of that region's own half-spaces (zero iff x is in the region's
           closure);
  layer 3  evaluates every region's affine model in a +/- pair and adds
           -inf times the region's summed score, so all models except the
           hosting region's are annihilated;
  output   sums the surviving pair back into signed coordinates.

The -inf weights make this exact: a finite penalty could be undercut by
points arbitrarily close to a region boundary, where scores are positive but
tiny.  Evaluation therefore runs under extended-real arithmetic with the
convention that infinity times zero is zero (the native float product is
NaN, so products are wrapped).

Cost of evaluating N points: layer 1 is a dense product of about N(2n+k)n
multiply-adds.  Layer 3 reads a region's layer-2 score only through its
sign, and the score is positive exactly when one of the region's half-spaces
is violated, so the region scores are never computed: each region's gate
ORs the positivity of its own half-space units, read from a list of them,
about N * (sum of the regions' half-space counts) boolean operations; a
region is alive exactly where none is violated.
Only the 2n pass-through units of layer 2 are computed in float64, from the
2n layer-1 units they copy.  The -inf weights then leave only the 2m rows of
the alive regions (the hosting region at an interior point, a few more on
shared faces), so layer 3 is computed for those rows alone, at 2n
multiply-adds each, instead of as a dense N(2n+p)(2pm) product.  The
ambiguity check and the output cost O(Nm).

Memory: dense, W2 would hold (2n+p)(2n+k) floats and W3 2pm(2n+p), both
growing with p^2, yet only 2n + (sum of the regions' half-space counts) and
2pm(2n+1) of their entries are not structural zeros.  So W2 and W3 are
stored, built, gated and written to ``relu-shallow-v2`` files as those
entries alone, and every other weight is linear in p.  The largest array
evaluation keeps is layer 3's finite weights on the pass-through units,
2pm x 2n; the gate's read lists hold one integer per region half-space.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .decomposition import Decomposition, _any_read, _closed_rows, _read_lists, _witnesses
from .errors import (
    AmbiguousSelectionError,
    ArithmeticFault,
    DimensionMismatchError,
    IterationLimitError,
    ModelFormatError,
    NonFiniteError,
    UnwrapError,
)
from .network import (
    _frozen_array,
    _read_array,
    _read_entries,
    _read_ints,
    _read_json,
    _points,
)

__all__ = [
    "SHALLOW_FORMAT",
    "ShallowNetwork",
    "build_shallow",
    "dumps_shallow",
    "eval_shallow",
    "eval_shallow_many",
    "load_shallow",
    "loads_shallow",
    "save_shallow",
    "shallow_to_decomposition",
    "xr_add",
    "xr_matvec",
    "xr_mul",
    "xr_relu",
]

SHALLOW_FORMAT = "relu-shallow-v2"
EVAL_BLOCK = 1024  # points per block of eval_shallow_many

_NEG_INF_TOKEN = "-Infinity"


# ---------------------------------------------------------------------------
# Extended-real arithmetic

def xr_mul(a: float, b: float) -> float:
    """Product over the extended reals: infinity times zero is zero.

    Otherwise signs follow the usual rules.  NaN inputs are invalid.
    """
    if a == 0.0 or b == 0.0:
        return 0.0
    return float(a * b)


def xr_add(a: float, b: float) -> float:
    """Sum over the extended reals; opposite infinities are a fault."""
    if np.isinf(a) and np.isinf(b) and a != b:
        raise ArithmeticFault("sum of opposite infinities")
    return float(a + b)


def xr_relu(values, out=None):
    """ReLU over the extended reals: relu(-inf) = 0, relu(inf) = inf."""
    return np.maximum(values, 0.0, out=out)


def xr_matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product under xr_mul/xr_add, vectorised.

    Every product where either factor is exactly zero contributes zero,
    including infinity times zero.  A row mixing +inf and -inf contributions
    raises :class:`ArithmeticFault`.
    """
    W = np.asarray(W, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if W.shape[1] != x.shape[0]:
        raise DimensionMismatchError(
            f"matrix has {W.shape[1]} columns, vector has {x.shape[0]} entries"
        )
    with np.errstate(invalid="ignore"):
        raw = W * x[None, :]
    raw[(W == 0.0) | (x == 0.0)[None, :]] = 0.0
    pos = (raw == np.inf).any(axis=1)
    neg = (raw == -np.inf).any(axis=1)
    if (pos & neg).any():
        raise ArithmeticFault("sum of opposite infinities in a dot product")
    total = np.where(np.isfinite(raw), raw, 0.0).sum(axis=1)
    return np.where(pos, np.inf, np.where(neg, -np.inf, total))


# ---------------------------------------------------------------------------
# The shallow network


def _check_weight(name: str, W: np.ndarray, allow_neg_inf: bool):
    if np.isnan(W).any() or (W == np.inf).any():
        raise NonFiniteError(f"{name} must be NaN-free with no +inf entries")
    if not allow_neg_inf and (W == -np.inf).any():
        raise NonFiniteError(f"{name} must be finite")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Entries(NamedTuple):
    """A matrix as its ``(row, col, value)`` entries in row-major order.

    Every cell without an entry is +0.0, and no cell has two entries.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def of_dense(cls, W) -> Entries:
        """The entries of a dense matrix that are nonzero or -0.0."""
        W = np.asarray(W, dtype=np.float64)
        if W.ndim != 2:
            raise DimensionMismatchError(f"expected a matrix, got shape {W.shape}")
        rows, cols = np.nonzero((W != 0.0) | np.signbit(W))
        return cls(W.shape, rows, cols, W[rows, cols])

    def dense(self) -> np.ndarray:
        """The matrix as a new read-only float64 array."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return _readonly(out)


def _checked_entries(name: str, W, allow_neg_inf: bool) -> Entries:
    """``W`` (dense or :class:`Entries`) as read-only entries, checked."""
    if not isinstance(W, Entries):
        W = Entries.of_dense(W)
    shape = tuple(map(int, W.shape))
    rows, cols = (np.asarray(a) for a in (W.rows, W.cols))
    if any(a.size and a.dtype.kind not in "iu" for a in (rows, cols)):
        raise ValueError(f"{name} entry indices must be integers")
    rows, cols = (_frozen_array(a, dtype=np.intp) for a in (rows, cols))
    values = _frozen_array(W.values)
    if not rows.shape == cols.shape == values.shape == (values.size,):
        raise DimensionMismatchError(f"{name} rows, cols and values differ in length")
    if rows.size and not (
        0 <= rows.min() <= rows.max() < shape[0] and 0 <= cols.min() <= cols.max() < shape[1]
    ):
        raise DimensionMismatchError(f"{name} has an entry outside its shape {shape}")
    if (np.diff(rows * shape[1] + cols) <= 0).any():
        raise ValueError(f"{name} entries must be in row-major order, one per cell")
    _check_weight(name, values, allow_neg_inf)
    return Entries(shape, rows, cols, values)


class _Gates(NamedTuple):
    """:attr:`ShallowNetwork.gates`; the fields are described there."""

    units: np.ndarray
    cols: np.ndarray
    units_W2: np.ndarray
    units_W3: np.ndarray
    sources: np.ndarray
    ranked: np.ndarray
    reads: tuple[np.ndarray, ...]
    rows: np.ndarray
    starts: np.ndarray


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``lo[i]:hi[i]`` concatenated, and the ``i`` each entry is from."""
    sizes = hi - lo
    owner = np.repeat(np.arange(sizes.size), sizes)
    return np.arange(owner.size) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes), owner


class ShallowNetwork:
    """Immutable three-hidden-layer network; only W3 may hold -inf entries.

    W1, W4 and the biases are stored dense; their sizes grow linearly with
    the region count p.  W2 and W3, dense sizes (2n+p)(2n+k) and 2pm(2n+p),
    are stored only as their :class:`Entries`, ``W2_entries`` and
    ``W3_entries``: a built net keeps every entry :func:`build_shallow`
    writes (2n + sum of region half-space counts, and 2pm(2n+1)), a dense
    matrix passed in keeps its entries that are nonzero or -0.0.  ``W2``
    and ``W3`` are read-only dense views built on each access, for tests
    and dense readers; evaluation never builds them.  :attr:`gates` is
    derived from the entries once, on first evaluation.
    """

    def __init__(self, W1, b1, W2, b2, W3, b3, W4):
        values = {"W1": _frozen_array(W1), "W4": _frozen_array(W4)}
        for name, b in (("b1", b1), ("b2", b2), ("b3", b3)):
            values[name] = _frozen_array(b).reshape(-1)
        values["W2_entries"] = _checked_entries("W2", W2, False)
        values["W3_entries"] = _checked_entries("W3", W3, True)
        _check_weight("W1", values["W1"], False)
        _check_weight("W4", values["W4"], False)
        for name in ("b1", "b2", "b3"):
            if not np.isfinite(values[name]).all():
                raise NonFiniteError(f"{name} must be finite")
        self.__dict__.update(values)
        n, k, p, m = self.input_dim, self.num_halfspaces, self.num_regions, self.output_dim
        if k < 0 or p < 1:
            raise DimensionMismatchError("layer widths do not fit 2n+k / 2n+p")
        expected = [
            (self.W1.shape, (2 * n + k, n)),
            (self.b1.shape, (2 * n + k,)),
            (self.W2_entries.shape, (2 * n + p, 2 * n + k)),
            (self.b2.shape, (2 * n + p,)),
            (self.W3_entries.shape, (2 * p * m, 2 * n + p)),
            (self.b3.shape, (2 * p * m,)),
            (self.W4.shape, (m, 2 * p * m)),
        ]
        for got, want in expected:
            if got != want:
                raise DimensionMismatchError(f"weight shape {got}, expected {want}")

    def __setattr__(self, name, value):
        raise AttributeError(f"ShallowNetwork is immutable: cannot set {name!r}")

    @property
    def W2(self) -> np.ndarray:
        """Dense read-only W2, built from ``W2_entries`` on each access."""
        return self.W2_entries.dense()

    @property
    def W3(self) -> np.ndarray:
        """Dense read-only W3, built from ``W3_entries`` on each access."""
        return self.W3_entries.dense()

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def output_dim(self) -> int:
        return self.W4.shape[0]

    @property
    def num_halfspaces(self) -> int:
        return self.W1.shape[0] - 2 * self.input_dim

    @property
    def num_regions(self) -> int:
        return self.W2_entries.shape[0] - 2 * self.input_dim

    @property
    def widths(self) -> tuple[int, int, int]:
        """Hidden-layer widths, always (2n+k, 2n+p, 2pm)."""
        return (self.W1.shape[0], self.W2_entries.shape[0], self.W3_entries.shape[0])

    @cached_property
    def gates(self) -> _Gates:
        """Layers 2 and 3 split for gated evaluation, read off the entries.

        Layer 3 reads a layer-2 unit through finite weights or through -inf
        weights, and a -inf weight only asks whether the unit is positive.  A
        unit read only through -inf weights, with a 0/1 W2 row and a zero
        bias, is *counted*: it is positive exactly when one of its ReLU'd
        layer-1 inputs is, because ``1 * a == a`` and a float sum of
        nonnegative terms is zero only when every term is.  The other units,
        ``units``, are computed in float64 through ``units_W2``, their W2
        rows restricted to ``cols``, the layer-1 columns those rows touch; in
        a built net these are the 2n pass-through units, each reading one of
        the first 2n columns.  Layer 3 reads them through ``units_W3``, the
        dense W3 columns of ``units`` with -inf read as zero.

        W3 rows that share one set of -inf columns form a group, and groups
        are ordered by their first row: a built net has one group of 2m rows
        per region.  Group ``g`` owns rows ``rows[starts[g]:starts[g + 1]]``.
        A group reads a layer-1 unit through a counted unit, or a float64
        unit directly, and is alive exactly where none of its reads is
        positive.  The inputs some group reads are ``sources``, numbered as
        the layer-1 units and then ``n_in + i`` for ``units[i]``, ascending.
        Each group's read list holds positions in ``sources``, once each and
        ascending; a built net's group r reads region r's half-space units.
        ``ranked`` and ``reads`` are those lists from
        :func:`~relu_unwrap.decomposition._read_lists`, one integer per read,
        for :func:`~relu_unwrap.decomposition._any_read`, which also locates
        points in a decomposition.
        """
        W2, W3 = self.W2_entries, self.W3_entries
        width, n_in = W2.shape
        neg = W3.values == -np.inf
        finite = ~neg & (W3.values != 0.0)
        read = np.zeros(width, dtype=bool)
        read[W3.cols[finite]] = True
        not_01 = np.zeros(width, dtype=bool)
        not_01[W2.rows[(W2.values != 0.0) & (W2.values != 1.0)]] = True
        counted = ~read & (self.b2 == 0.0) & ~not_01
        units = np.flatnonzero(~counted)
        slot = np.full(width, -1)  # each unit's position in `units`
        slot[units] = np.arange(units.size)
        mine = slot[W2.rows] >= 0
        touched = np.zeros(n_in, dtype=bool)
        touched[W2.cols[mine]] = True
        units_W2 = np.zeros((units.size, np.count_nonzero(touched)))
        units_W2[slot[W2.rows[mine]], np.cumsum(touched)[W2.cols[mine]] - 1] = W2.values[mine]
        mine = ~neg & (slot[W3.cols] >= 0)
        units_W3 = np.zeros((W3.shape[0], units.size))
        units_W3[W3.rows[mine], slot[W3.cols[mine]]] = W3.values[mine]
        # each W3 row's -inf columns (split at each row's first entry, so
        # piece 0 is empty) and its group, numbered in order of first row
        sets = np.split(W3.cols[neg], np.searchsorted(W3.rows[neg], np.arange(W3.shape[0])))[1:]
        group_of: dict[tuple[int, ...], int] = {}
        label = [group_of.setdefault(tuple(c.tolist()), len(group_of)) for c in sets]
        label = np.array(label, dtype=np.intp)
        unit = np.fromiter(itertools.chain.from_iterable(group_of), dtype=np.intp)
        group = np.repeat(np.arange(len(group_of)), [len(c) for c in group_of])
        # what each group reads: a float64 unit directly, a counted unit
        # through the layer-1 units of its nonzero W2 entries; sorted
        # (group, source) keys, once each
        direct = ~counted[unit]
        nonzero = W2.values != 0.0
        feed_rows, feed_cols = W2.rows[nonzero], W2.cols[nonzero]
        via = unit[~direct]
        at, pair = _ranges(np.searchsorted(feed_rows, via), np.searchsorted(feed_rows, via + 1))
        span = n_in + units.size
        keys = np.sort(np.concatenate([
            group[~direct][pair] * span + feed_cols[at],
            group[direct] * span + n_in + slot[unit[direct]],
        ]))
        group, source = np.divmod(keys[np.diff(keys, prepend=-1) != 0], span)
        used = np.zeros(span, dtype=bool)
        used[source] = True
        source = np.cumsum(used)[source] - 1  # position in `sources`
        ranked, reads = _read_lists(group, source, len(group_of))
        return _Gates(
            _readonly(units),
            _readonly(np.flatnonzero(touched)),
            _readonly(units_W2),
            _readonly(units_W3),
            _readonly(np.flatnonzero(used)),
            _readonly(ranked),
            tuple(map(_readonly, reads)),
            _readonly(np.argsort(label, kind="stable")),
            _readonly(np.concatenate([[0], np.cumsum(np.bincount(label, minlength=len(group_of)))])),
        )


def build_shallow(d: Decomposition) -> ShallowNetwork:
    """Assemble the shallow network of a decomposition.

    Model rows are stacked region-major: layer-3 row ``r*m + j`` carries
    output coordinate ``j`` of region ``r``, and its twin ``p*m + r*m + j``
    the negated copy.  W2 and W3 are written as their entries, so the
    build takes memory linear in p.  The decomposition must be complete: a
    net built from a partial one would read 0 outside the regions found, so
    it is refused like an empty one.
    """
    n, m = d.input_dim, d.output_dim
    p, k = d.num_regions, d.num_halfspaces
    if p == 0:
        raise ValueError("decomposition has no regions")
    if d.partial:
        raise ValueError("decomposition is partial: the regions found do not cover the input space")

    W1 = np.vstack([np.eye(n), -np.eye(n), -d.halfspace_normals])
    b1 = np.concatenate([np.zeros(2 * n), d.halfspace_offsets])

    # W2: the identity on the split input, then one selector row per region;
    # each region's ids sorted, once each (np.unique would import numpy.ma,
    # about 20 ms, on a process's first build)
    ids, _, starts = d.region_rows
    keys = np.sort(np.repeat(np.arange(p), np.diff(starts)) * k + ids)
    region_rows, region_cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], max(k, 1))
    W2 = Entries(
        (2 * n + p, 2 * n + k),
        np.concatenate([np.arange(2 * n), 2 * n + region_rows]),
        np.concatenate([np.arange(2 * n), 2 * n + region_cols]),
        np.ones(2 * n + region_rows.size),
    )
    b2 = np.zeros(2 * n + p)

    # W3 row r*m + j reads (alpha, -alpha) off the split input, its twin
    # (-alpha, alpha), and both read region r's unit through -inf
    alpha = d.alphas.reshape(p * m, n)
    beta = d.betas.reshape(-1)
    values = np.empty((2, p * m, 2 * n + 1))
    values[0, :, :n] = values[1, :, n : 2 * n] = alpha
    values[0, :, n : 2 * n] = values[1, :, :n] = -alpha
    values[:, :, 2 * n] = -np.inf
    cols = np.empty((2, p * m, 2 * n + 1), dtype=np.intp)
    cols[:, :, : 2 * n] = np.arange(2 * n)
    cols[:, :, 2 * n] = 2 * n + np.arange(p * m) // m
    W3 = Entries(
        (2 * p * m, 2 * n + p),
        np.repeat(np.arange(2 * p * m), 2 * n + 1),
        cols.reshape(-1),
        values.reshape(-1),
    )
    b3 = np.concatenate([beta, -beta])

    project = np.kron(np.ones((1, p)), np.eye(m))
    W4 = np.hstack([project, -project])
    return ShallowNetwork(W1, b1, W2, b2, W3, b3, W4)


def eval_shallow(s: ShallowNetwork, x) -> np.ndarray:
    """Evaluate the shallow network at one point as :func:`eval_shallow_many` does."""
    message = "point has {k} coordinates, shallow network has {n}"
    return _eval(s, _points(x, s.input_dim, message, one=True))[0]


def eval_shallow_many(s: ShallowNetwork, points) -> np.ndarray:
    """Evaluate many points at once; rows of the result match the input.

    The only infinite weights are -inf entries of W3.  One of them against a
    positive layer-2 activation sends its row to -inf, which the ReLU turns
    into zero, while a zero activation contributes nothing (infinity times
    zero is zero).  So layer 3 is computed gate-first: only the (point, row)
    pairs whose -inf columns all meet zero activations are evaluated, with
    their finite weights, and everything else is known to be zero; which
    activations are zero is read as :attr:`ShallowNetwork.gates` says.  Points
    are evaluated in blocks of ``EVAL_BLOCK`` rows, which bounds the
    intermediate arrays.  Raises :class:`AmbiguousSelectionError` if two
    rows feed one output coordinate of a point (a shared face with a nonzero
    output).
    """
    return _eval(s, _points(points, s.input_dim))


def _eval(s: ShallowNetwork, X: np.ndarray) -> np.ndarray:
    """:func:`eval_shallow_many` of points already read by ``_points``."""
    out = np.empty((X.shape[0], s.output_dim))
    for start in range(0, X.shape[0], EVAL_BLOCK):
        out[start : start + EVAL_BLOCK] = _eval_block(s, X[start : start + EVAL_BLOCK], start)
    return out


def _eval_block(s: ShallowNetwork, X: np.ndarray, first: int) -> np.ndarray:
    """:func:`eval_shallow_many` on one block whose first row is point ``first``."""
    N, m = X.shape[0], s.output_dim
    g = s.gates
    n_in = s.W1.shape[0]
    Z = X @ s.W1.T
    Z += s.b1
    A1 = Z[:, g.cols]
    A2 = xr_relu(A1, out=A1) @ g.units_W2.T
    A2 += s.b2[g.units]
    xr_relu(A2, out=A2)
    # which inputs some group reads are positive, one row per input
    positive = np.empty((g.sources.size, N), dtype=bool)
    q = np.searchsorted(g.sources, n_in)
    np.take((Z > 0.0).T, g.sources[:q], axis=0, out=positive[:q])
    np.take((A2 > 0.0).T, g.sources[q:] - n_in, axis=0, out=positive[q:])
    del Z, A1
    # a group is dead at a point where one of its reads is positive; the
    # alive (point, group) pairs, point-major, then expanded to W3 rows
    groups, pts = np.divmod(np.flatnonzero(~_any_read(positive, g.ranked, g.reads)), N)
    order = np.argsort(pts * g.ranked.size + groups)
    pts, groups = pts[order], groups[order]
    at, pair = _ranges(g.starts[groups], g.starts[groups + 1])
    pts, rows = pts[pair], g.rows[at]
    z = np.einsum("ij,ij->i", A2[pts], g.units_W3[rows]) + s.b3[rows]
    a3 = xr_relu(z)
    selected = a3 > 0
    # layer-3 row r*m + j (and its twin) carries output coordinate j
    counts = np.bincount(
        pts[selected] * m + rows[selected] % m, minlength=N * m
    ).reshape(N, m)
    if (counts > 1).any():
        row, j = np.argwhere(counts > 1)[0]
        raise AmbiguousSelectionError(
            f"point {first + int(row)}: {int(counts[row, j])} regions selected for "
            f"output coordinate {int(j)}"
        )
    out = np.empty((N, m))
    for j in range(m):
        out[:, j] = np.bincount(pts, weights=a3 * s.W4[j, rows], minlength=N)
    return out


def shallow_to_decomposition(s: ShallowNetwork) -> Decomposition:
    """Read the region structure back out of a shallow network's blocks.

    Half-spaces come from the rows below the +/- identity in the first
    layer, region id sets from the selector block of the second, and the
    affine models from the positive half of the third.  The original
    activation patterns are gone, so region ``r`` gets the synthetic one-hot
    pattern ``e_r``, one layer of width p; witnesses are re-solved from the
    region's conditions, as the pattern search settles them (a point off
    every face where one exists, else a point of the region's closure,
    which may be a single point).
    The result canonicalizes like the decomposition the network was built
    from.
    """
    n, m = s.input_dim, s.output_dim
    p = s.num_regions
    W2, W3 = s.W2_entries, s.W3_entries
    normals, offsets = -s.W1[2 * n :], s.b1[2 * n :]
    selector = (W2.rows >= 2 * n) & (W2.cols >= 2 * n) & (W2.values > 0.5)
    ids = W2.cols[selector] - 2 * n
    starts = np.searchsorted(W2.rows[selector], 2 * n + np.arange(p + 1))
    models = (W3.rows < p * m) & (W3.cols < n)
    alphas = np.zeros((p * m, n))
    alphas[W3.rows[models], W3.cols[models]] = W3.values[models]
    rows = [_closed_rows(normals[ids[a:b]], offsets[ids[a:b]]) for a, b in zip(starts, starts[1:])]
    witnesses, failed = _witnesses(rows)
    for r, witness in enumerate(witnesses):
        if failed[r]:
            raise IterationLimitError(f"region {r}: the interior solve ran out of pivots")
        if witness is None:
            raise UnwrapError(f"region {r} of the shallow network is empty")
    return Decomposition(
        n, m, normals, offsets, np.eye(p, dtype=np.uint8), (p,), alphas.reshape(p, m, n),
        s.b3[: p * m].reshape(p, m), witnesses, (ids, np.zeros(ids.size, dtype=bool), starts),
    )


# ---------------------------------------------------------------------------
# File I/O


def _encode_entries(W: Entries) -> dict:
    return {
        "shape": list(W.shape),
        "rows": W.rows.tolist(),
        "cols": W.cols.tolist(),
        "values": [_NEG_INF_TOKEN if v == -np.inf else v for v in W.values.tolist()],
    }


def dumps_shallow(s: ShallowNetwork) -> str:
    """A ``relu-shallow-v2`` document: W2 and W3 as their entries, the rest dense."""
    doc = {
        "format": SHALLOW_FORMAT,
        "widths": list(s.widths),
        "W1": s.W1.tolist(),
        "b1": s.b1.tolist(),
        "W2": _encode_entries(s.W2_entries),
        "b2": s.b2.tolist(),
        "W3": _encode_entries(s.W3_entries),
        "b3": s.b3.tolist(),
        "W4": s.W4.tolist(),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def loads_shallow(text: str) -> ShallowNetwork:
    """Read a ``relu-shallow-v2`` document; a dense ``relu-shallow-v1`` one is refused."""
    try:
        doc = _read_json(text, SHALLOW_FORMAT, "relu-shallow-v1")
        if doc["format"] != SHALLOW_FORMAT:
            raise ModelFormatError(
                f"{doc['format']} files are no longer read; rebuild the file "
                "from its model with `relu-unwrap shallowize`"
            )
        net = ShallowNetwork(
            _read_array(doc["W1"], "W1", 2),
            _read_array(doc["b1"], "b1", 1),
            Entries(*_read_entries(doc["W2"], "W2")),
            _read_array(doc["b2"], "b2", 1),
            Entries(*_read_entries(doc["W3"], "W3", token=_NEG_INF_TOKEN)),
            _read_array(doc["b3"], "b3", 1),
            _read_array(doc["W4"], "W4", 2),
        )
        if "widths" in doc and _read_ints(doc["widths"], "widths", 1) != list(net.widths):
            raise ModelFormatError(
                f"declared widths {doc['widths']} do not match weights {list(net.widths)}"
            )
    except (KeyError, ValueError, NonFiniteError, DimensionMismatchError) as exc:
        raise ModelFormatError(f"malformed shallow network: {exc}") from exc
    return net


def load_shallow(path) -> ShallowNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_shallow(fh.read())


def save_shallow(s: ShallowNetwork, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_shallow(s))
