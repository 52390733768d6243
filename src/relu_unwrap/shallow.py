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

Cost of evaluating N points: layers 1 and 2 are dense products of about
N(2n+k)n and N(2n+k)(2n+p) multiply-adds.  Layer 3 is gated first: the
-inf weights leave only the 2m rows of the hosting region alive at an
interior point (a few more on shared faces), so it is computed for those
rows alone, at 2n multiply-adds each, instead of as a dense
N(2n+p)(2pm) product.  The ambiguity check and the output then cost O(Nm).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decomposition import (
    _SORT_DECIMALS,
    Decomposition,
    OrientedHalfspace,
    Region,
    _sort_key,
    _witnesses,
    closed_lp,
    decompose,
)
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
    ActivationPattern,
    MLPNetwork,
    _frozen_array,
    _read_array,
    _read_ints,
    _read_json,
    forward_many,
)

SHALLOW_FORMAT = "relu-shallow-v1"
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


@dataclass(frozen=True)
class ShallowNetwork:
    """Immutable three-hidden-layer network; only W3 may hold -inf entries.

    :attr:`gates` is derived from W3 once, on first evaluation.
    """

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray
    W4: np.ndarray

    def __post_init__(self):
        for name in ("W1", "W2", "W3", "W4"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        for name in ("b1", "b2", "b3"):
            object.__setattr__(
                self, name, _frozen_array(getattr(self, name)).reshape(-1)
            )
        _check_weight("W1", self.W1, False)
        _check_weight("W2", self.W2, False)
        _check_weight("W3", self.W3, True)
        _check_weight("W4", self.W4, False)
        for name in ("b1", "b2", "b3"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFiniteError(f"{name} must be finite")
        n, k, p, m = self.input_dim, self.num_halfspaces, self.num_regions, self.output_dim
        if k < 0 or p < 1:
            raise DimensionMismatchError("layer widths do not fit 2n+k / 2n+p")
        expected = [
            (self.W1.shape, (2 * n + k, n)),
            (self.b1.shape, (2 * n + k,)),
            (self.W2.shape, (2 * n + p, 2 * n + k)),
            (self.b2.shape, (2 * n + p,)),
            (self.W3.shape, (2 * p * m, 2 * n + p)),
            (self.b3.shape, (2 * p * m,)),
            (self.W4.shape, (m, 2 * p * m)),
        ]
        for got, want in expected:
            if got != want:
                raise DimensionMismatchError(f"weight shape {got}, expected {want}")

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
        return self.W2.shape[0] - 2 * self.input_dim

    @property
    def widths(self) -> tuple[int, int, int]:
        """Hidden-layer widths, always (2n+k, 2n+p, 2pm)."""
        return (self.W1.shape[0], self.W2.shape[0], self.W3.shape[0])

    @cached_property
    def gates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """W3 split for gate-first evaluation: ``(mask_cols, live_cols, live_W3)``.

        Row ``r`` of ``mask_cols`` lists the columns where W3 row ``r`` is
        -inf, padded with the out-of-range column ``W3.shape[1]``.
        ``live_cols`` are the columns holding a finite nonzero weight and
        ``live_W3`` is W3 on those columns, with -inf read as zero.
        """
        neg = self.W3 == -np.inf
        rows, cols = np.nonzero(neg)
        mask_cols = np.full(
            (self.W3.shape[0], int(neg.sum(axis=1).max(initial=0))),
            self.W3.shape[1],
            dtype=np.intp,
        )
        mask_cols[rows, np.arange(rows.size) - np.searchsorted(rows, rows)] = cols
        finite = np.where(neg, 0.0, self.W3)
        live_cols = np.flatnonzero((finite != 0.0).any(axis=0))
        return (
            _frozen_array(mask_cols, dtype=np.intp),
            _frozen_array(live_cols, dtype=np.intp),
            _frozen_array(finite[:, live_cols]),
        )


def build_shallow(d: Decomposition) -> ShallowNetwork:
    """Assemble the shallow network of a decomposition.

    Model rows are stacked region-major: layer-3 row ``r*m + j`` carries
    output coordinate ``j`` of region ``r``, and its twin ``p*m + r*m + j``
    the negated copy.
    """
    n, m = d.input_dim, d.output_dim
    p, k = d.num_regions, d.num_halfspaces
    if p == 0:
        raise ValueError("decomposition has no regions")

    W1 = np.vstack([np.eye(n), -np.eye(n), -d.halfspace_normals])
    b1 = np.concatenate([np.zeros(2 * n), d.halfspace_offsets])

    ids, _, starts = d.region_rows
    R = np.zeros((p, k))
    R[np.repeat(np.arange(p), np.diff(starts)), ids] = 1.0
    W2 = np.zeros((2 * n + p, 2 * n + k))
    W2[: 2 * n, : 2 * n] = np.eye(2 * n)
    W2[2 * n :, 2 * n :] = R
    b2 = np.zeros(2 * n + p)

    alpha = np.vstack([region.alpha for region in d.regions])
    beta = np.concatenate([region.beta for region in d.regions])
    penalty = np.zeros((p * m, p))
    penalty[np.arange(p * m), np.arange(p * m) // m] = -np.inf
    W3 = np.vstack(
        [
            np.hstack([alpha, -alpha, penalty]),
            np.hstack([-alpha, alpha, penalty]),
        ]
    )
    b3 = np.concatenate([beta, -beta])

    project = np.kron(np.ones((1, p)), np.eye(m))
    W4 = np.hstack([project, -project])
    return ShallowNetwork(W1, b1, W2, b2, W3, b3, W4)


def eval_shallow(s: ShallowNetwork, x) -> np.ndarray:
    """Evaluate the shallow network at one finite point.

    A one-row call of :func:`eval_shallow_many`; raises
    :class:`AmbiguousSelectionError` if two regions contribute to one output
    coordinate (the point lies on a shared face with a nonzero output there).
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return eval_shallow_many(s, x)[0]


def eval_shallow_many(s: ShallowNetwork, points) -> np.ndarray:
    """Evaluate many points at once; rows of the result match the input.

    The only infinite weights are -inf entries of W3.  One of them against a
    positive layer-2 activation sends its row to -inf, which the ReLU turns
    into zero, while a zero activation contributes nothing (infinity times
    zero is zero).  So layer 3 is computed gate-first: only the (point, row)
    pairs whose -inf columns all meet zero activations are evaluated, with
    their finite weights, and everything else is known to be zero.  Points
    are evaluated in blocks of ``EVAL_BLOCK`` rows, which bounds the
    intermediate arrays.  Raises :class:`AmbiguousSelectionError` if two
    rows feed one output coordinate of a point (a shared face with a nonzero
    output).
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != s.input_dim:
        raise DimensionMismatchError(
            f"expected points shaped (N, {s.input_dim}), got {X.shape}"
        )
    if not np.isfinite(X).all():
        raise NonFiniteError("input points must be finite")
    out = np.empty((X.shape[0], s.output_dim))
    for start in range(0, X.shape[0], EVAL_BLOCK):
        out[start : start + EVAL_BLOCK] = _eval_block(s, X[start : start + EVAL_BLOCK], start)
    return out


def _eval_block(s: ShallowNetwork, X: np.ndarray, first: int) -> np.ndarray:
    """:func:`eval_shallow_many` on one block whose first row is point ``first``."""
    N, m = X.shape[0], s.output_dim
    # layers 1 and 2 in place: fewer and smaller temporaries per block
    A1 = X @ s.W1.T
    A1 += s.b1
    A2 = xr_relu(A1, out=A1) @ s.W2.T
    del A1
    A2 += s.b2
    xr_relu(A2, out=A2)
    mask_cols, live_cols, live_W3 = s.gates
    # the padding column past the end of A2 is never positive
    positive = np.zeros((N, A2.shape[1] + 1), dtype=bool)
    np.greater(A2, 0, out=positive[:, :-1])
    alive = positive[:, mask_cols].any(axis=2)
    np.logical_not(alive, out=alive)
    pts, rows = np.divmod(np.flatnonzero(alive), alive.shape[1])
    z = np.einsum("ij,ij->i", A2[:, live_cols][pts], live_W3[rows]) + s.b3[rows]
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
    activation patterns are gone, so each region gets a synthetic one-hot
    pattern; witnesses are re-solved from the region's conditions, as the
    pattern search settles them (a point off every face where one exists,
    else a point of the region's closure, which may be a single point).
    The result canonicalizes like the decomposition the network was built
    from.
    """
    n, m = s.input_dim, s.output_dim
    p, k = s.num_regions, s.num_halfspaces
    normals, offsets = -s.W1[2 * n :], s.b1[2 * n :]
    halfspaces = tuple(OrientedHalfspace(normals[i], offsets[i]) for i in range(k))
    selector = s.W2[2 * n :, 2 * n :]
    region_ids = [np.flatnonzero(selector[r] > 0.5) for r in range(p)]
    witnesses, failed = _witnesses(
        [closed_lp(normals[ids], offsets[ids]) for ids in region_ids]
    )
    regions = []
    for r, (ids, witness) in enumerate(zip(region_ids, witnesses)):
        if failed[r]:
            raise IterationLimitError(f"region {r}: the interior solve ran out of pivots")
        if witness is None:
            raise UnwrapError(f"region {r} of the shallow network is empty")
        alpha = s.W3[r * m : (r + 1) * m, :n]
        beta = s.b3[r * m : (r + 1) * m]
        pattern = ActivationPattern((tuple(int(i == r) for i in range(p)),))
        regions.append(Region(pattern, alpha, beta, ids, witness))
    return Decomposition(n, m, halfspaces, tuple(regions))


# ---------------------------------------------------------------------------
# Canonical form and functional equivalence


def canonicalize(d: Decomposition) -> Decomposition:
    """Reorder a decomposition into its canonical form.

    Half-spaces sort lexicographically by (normal, offset) and regions by
    (flattened model matrix, model offset, half-space id set), keys rounded
    to ``_SORT_DECIMALS`` decimals (as the decomposition's own table order)
    so equal geometry sorts identically across runs.  Functionally
    identical networks decompose to canonical forms that agree entry-wise,
    whatever architecture produced them.
    """
    hs_order = sorted(
        range(d.num_halfspaces),
        key=lambda i: _sort_key(d.halfspaces[i].normal, d.halfspaces[i].offset),
    )
    remap = {old: new for new, old in enumerate(hs_order)}
    halfspaces = tuple(d.halfspaces[i] for i in hs_order)
    regions = [
        Region(
            region.pattern,
            region.alpha,
            region.beta,
            tuple(sorted(remap[i] for i in region.halfspace_ids)),
            region.witness,
            tuple(sorted(remap[i] for i in region.nonstrict_ids)),
        )
        for region in d.regions
    ]
    regions.sort(
        key=lambda region: (
            tuple(np.round(region.alpha, _SORT_DECIMALS).ravel()),
            tuple(np.round(region.beta, _SORT_DECIMALS)),
            region.halfspace_ids,
        )
    )
    return Decomposition(
        d.input_dim, d.output_dim, halfspaces, tuple(regions), partial=d.partial
    )


def canonical_equal(a: Decomposition, b: Decomposition, tol: float = 1e-7) -> bool:
    """Entry-wise agreement of two canonical decompositions.

    Compares the half-space tables, the per-region models, and the region
    id sets; activation patterns and witnesses are architecture-specific and
    excluded.  Inputs must already be canonicalized.
    """
    if (a.input_dim, a.output_dim) != (b.input_dim, b.output_dim):
        return False
    if a.num_halfspaces != b.num_halfspaces or a.num_regions != b.num_regions:
        return False
    for ha, hb in zip(a.halfspaces, b.halfspaces):
        if abs(ha.offset - hb.offset) > tol:
            return False
        if np.abs(ha.normal - hb.normal).max() > tol:
            return False
    for ra, rb in zip(a.regions, b.regions):
        if ra.halfspace_ids != rb.halfspace_ids:
            return False
        if np.abs(ra.alpha - rb.alpha).max() > tol:
            return False
        if np.abs(ra.beta - rb.beta).max() > tol:
            return False
    return True


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing two networks for functional identity."""

    max_abs_diff: float
    canonical_equal: bool
    witness_of_difference: np.ndarray | None


def _first_unmatched_witness(a: Decomposition, b: Decomposition, tol: float):
    """Witness of the first region of ``a`` whose model has no match in ``b``."""
    for ra in a.regions:
        for rb in b.regions:
            if ra.alpha.shape != rb.alpha.shape:
                continue
            if (
                np.abs(ra.alpha - rb.alpha).max() <= tol
                and np.abs(ra.beta - rb.beta).max() <= tol
                and ra.halfspace_ids == rb.halfspace_ids
            ):
                break
        else:
            return ra.witness
    return None


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
    network but matched by nothing in the other.
    """
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


def _encode_matrix(W: np.ndarray):
    return [
        [_NEG_INF_TOKEN if v == -np.inf else float(v) for v in row] for row in W
    ]


def dumps_shallow(s: ShallowNetwork) -> str:
    doc = {
        "format": SHALLOW_FORMAT,
        "widths": list(s.widths),
        "W1": _encode_matrix(s.W1),
        "b1": s.b1.tolist(),
        "W2": _encode_matrix(s.W2),
        "b2": s.b2.tolist(),
        "W3": _encode_matrix(s.W3),
        "b3": s.b3.tolist(),
        "W4": _encode_matrix(s.W4),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def loads_shallow(text: str) -> ShallowNetwork:
    try:
        doc = _read_json(text, SHALLOW_FORMAT)
        net = ShallowNetwork(
            _read_array(doc["W1"], "W1", 2),
            _read_array(doc["b1"], "b1", 1),
            _read_array(doc["W2"], "W2", 2),
            _read_array(doc["b2"], "b2", 1),
            _read_array(doc["W3"], "W3", 2, token=_NEG_INF_TOKEN),
            _read_array(doc["b3"], "b3", 1),
            _read_array(doc["W4"], "W4", 2),
        )
        if "widths" in doc and _read_ints(doc["widths"], "widths", 1) != list(net.widths):
            raise ModelFormatError(
                f"declared widths {doc['widths']} do not match weights {list(net.widths)}"
            )
    except (KeyError, NonFiniteError, DimensionMismatchError) as exc:
        raise ModelFormatError(f"malformed shallow network: {exc}") from exc
    return net


def load_shallow(path) -> ShallowNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_shallow(fh.read())


def save_shallow(s: ShallowNetwork, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_shallow(s))
