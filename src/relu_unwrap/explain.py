"""Explanations read directly off a decomposition.

Because the network is affine within each region, classic attribution
questions have closed-form answers there: SHAP values of a linear model
reduce to ``alpha * (x - mu)`` element-wise, a region's spatial footprint is
its bounding box (summarised as the smallest enclosing hypercube), and 2-D
partitions can be drawn exactly.  A brute-force Shapley enumeration over all
2^n feature coalitions is included as an oracle for the closed form.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from .decomposition import _SORT_DECIMALS, Decomposition, closed_lp
from .errors import DimensionMismatchError, NonFiniteError, PointNotLocatedError, UnwrapError
from .lp import Extremum, extremize

_EPS_FACE = 1e-12  # margin below which a point counts as on a face

_SHAP_DIM_CAP = 20  # brute force enumerates 2^n coalitions


@dataclass(frozen=True)
class ShapResult:
    """Per-feature attribution matrix phi[i, j] for feature i, output j."""

    phi: np.ndarray
    region: int
    mu: np.ndarray
    approximate: bool

    def to_jsonable(self) -> dict:
        return {
            "phi": self.phi.tolist(),
            "region": self.region,
            "mu": self.mu.tolist(),
            "approximate": self.approximate,
        }


@dataclass(frozen=True)
class HypercubeSummary:
    """Smallest axis-aligned cube enclosing a region's bounding box.

    ``side`` is the largest bounded extent (infinite when no coordinate is
    bounded).  Coordinates unbounded in either direction are listed in
    ``unbounded_dims``; their center entry falls back to the region witness.
    """

    center: np.ndarray
    side: float
    unbounded_dims: tuple[int, ...]


def _runs(ufunc, values: np.ndarray, starts: np.ndarray, empty) -> np.ndarray:
    """``ufunc`` reduced over each region's run of columns, shaped (N, p).

    Region ``r`` owns columns ``starts[r]:starts[r + 1]``; a region without
    conditions gets ``empty``.
    """
    out = np.full((values.shape[0], len(starts) - 1), empty, dtype=values.dtype)
    bounded = np.flatnonzero(np.diff(starts))
    if bounded.size:
        out[:, bounded] = ufunc.reduceat(values, starts[bounded], axis=1)
    return out


def _face_ok(margins: np.ndarray, owned: np.ndarray) -> np.ndarray:
    """Per condition: it holds strictly, or the point lies within
    ``_EPS_FACE`` on a face the region owns.  A margin ``h . x - c`` is
    positive where the condition holds."""
    return ~(margins < -_EPS_FACE) & (~(margins <= _EPS_FACE) | owned)


def _inside(d: Decomposition, region: int, X: np.ndarray) -> np.ndarray:
    """Whether each row of X lies in one region, face ownership honoured."""
    if not np.isfinite(X).all():
        raise NonFiniteError("query points must be finite")
    ids, owned, starts = d.region_rows
    r = range(d.num_regions)[region]  # a negative index counts from the end
    run = slice(starts[r], starts[r + 1])
    margins = X @ d.halfspace_normals[ids[run]].T - d.halfspace_offsets[ids[run]]
    return _face_ok(margins, owned[run]).all(axis=1)


def _hosts(d: Decomposition, X: np.ndarray):
    """(hosts, margins): the host region of each row of X, -1 where none.

    The host is the first region the point lies in strictly (every margin
    above ``_EPS_FACE``), else the first region containing it through owned
    faces.  ``margins`` holds every region's conditions in ``region_rows``
    order.
    """
    if not np.isfinite(X).all():
        raise NonFiniteError("query points must be finite")
    ids, owned, starts = d.region_rows
    margins = (X @ d.halfspace_normals.T - d.halfspace_offsets)[:, ids]
    hosts = np.full(X.shape[0], -1, dtype=np.intp)
    if d.num_regions:
        strict = _runs(np.logical_and, margins > _EPS_FACE, starts, True)
        inside = _runs(np.logical_and, _face_ok(margins, owned), starts, True)
        hosts = np.where(inside.any(axis=1), inside.argmax(axis=1), hosts)
        hosts = np.where(strict.any(axis=1), strict.argmax(axis=1), hosts)
    return hosts, margins


def region_contains(d: Decomposition, region: int, x) -> bool:
    """Membership test honouring face ownership.

    A point belongs to a region when every bounding condition holds
    strictly, or lies (within ``_EPS_FACE``) on faces the region owns.
    Raises :class:`NonFiniteError` for a NaN or infinite coordinate.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return bool(_inside(d, region, x)[0])


def locate_many(d: Decomposition, X) -> np.ndarray:
    """Index of the region containing each row of X, as :func:`locate_region`
    finds it.

    Raises :class:`PointNotLocatedError` for the first row no region
    contains, and :class:`NonFiniteError` if any coordinate is NaN or
    infinite.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d.input_dim:
        raise DimensionMismatchError(
            f"expected points shaped (N, {d.input_dim}), got {X.shape}"
        )
    hosts, margins = _hosts(d, X)
    missing = np.flatnonzero(hosts < 0)
    if missing.size:
        i = int(missing[0])
        slack = _runs(np.minimum, margins[i : i + 1], d.region_rows[2], np.inf)[0]
        # the first region of largest slack; a NaN slack never qualifies
        valid = slack > -np.inf
        best = int(np.argmax(np.where(valid, slack, -np.inf))) if valid.any() else None
        worst = -np.inf if best is None else slack[best]
        raise PointNotLocatedError(
            f"point {i} lies on an unowned boundary (worst margin {worst:.3e}); "
            f"nearest region is {best}",
            nearest_region=best,
        )
    return hosts


def locate_region(d: Decomposition, x) -> int:
    """Index of the region containing x.

    Strict containment wins; points on a face resolve to the region owning
    it.  If nothing matches (a numerically ambiguous boundary point), raises
    :class:`PointNotLocatedError` carrying the nearest region by violation.
    A NaN or infinite coordinate raises :class:`NonFiniteError`.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != d.input_dim:
        raise DimensionMismatchError(
            f"point has {x.shape[0]} coordinates, decomposition has {d.input_dim}"
        )
    return int(locate_many(d, x[None, :])[0])


def exact_shap(d: Decomposition, x, background) -> ShapResult:
    """Closed-form SHAP values of the model hosting x.

    The background mean is taken over the background points lying in the
    same region; if none do, the full-background mean is used and the result
    is flagged approximate.  phi[i, j] = alpha[j, i] * (x[i] - mu[i]).
    A NaN or infinite coordinate of x or of a background point raises
    :class:`NonFiniteError`.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    bg = np.atleast_2d(np.asarray(background, dtype=np.float64))
    if bg.size == 0:
        raise ValueError("background must contain at least one point")
    if bg.shape[1] != d.input_dim:
        raise DimensionMismatchError(
            f"background points have {bg.shape[1]} coordinates, "
            f"decomposition has {d.input_dim}"
        )
    r = locate_region(d, x)
    inside = bg[_inside(d, r, bg)]
    approximate = len(inside) == 0
    mu = np.mean(bg if approximate else inside, axis=0)
    phi = d.regions[r].alpha.T * (x - mu)[:, None]
    return ShapResult(phi, r, mu, approximate)


def brute_force_shap(f, x, baseline) -> np.ndarray:
    """Shapley values by exhaustive coalition enumeration.

    Masked coordinates are replaced by the baseline.  For each feature i the
    sum runs over all coalitions z containing i, weighting the marginal
    contribution f(z) - f(z minus i) by s!(n-s-1)!/n! where s is the
    coalition size without i.  Exact but exponential; n is capped at 20.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    baseline = np.asarray(baseline, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    if baseline.shape[0] != n:
        raise DimensionMismatchError("baseline and point lengths differ")
    if n > _SHAP_DIM_CAP:
        raise ValueError(f"brute force supports at most {_SHAP_DIM_CAP} features")

    outputs = []
    for mask in range(2**n):
        hybrid = np.where(
            [(mask >> i) & 1 for i in range(n)], x, baseline
        )
        outputs.append(np.atleast_1d(np.asarray(f(hybrid), dtype=np.float64)))
    F = np.array(outputs)

    fact = [math.factorial(v) for v in range(n + 1)]
    phi = np.zeros((n, F.shape[1]))
    for i in range(n):
        for mask in range(2**n):
            if not (mask >> i) & 1:
                continue
            s = bin(mask).count("1") - 1
            weight = fact[s] * fact[n - s - 1] / fact[n]
            phi[i] += weight * (F[mask] - F[mask & ~(1 << i)])
    return phi


def hypercube(d: Decomposition, region: int) -> HypercubeSummary:
    """Smallest enclosing hypercube of a region's closed polytope.

    Each coordinate is pushed to both extremes by LP over the region's
    bounding conditions, all 2n extremes in one stacked solve shifted to the
    region's witness; directions without a finite extreme are reported in
    ``unbounded_dims`` instead of clipped.
    """
    if not 0 <= region < d.num_regions:
        raise IndexError(f"region {region} out of range")
    reg = d.regions[region]
    n = d.input_dim
    ids = list(reg.halfspace_ids)
    witness = reg.witness
    lp = closed_lp(d.halfspace_normals[ids], d.halfspace_offsets[ids]).shifted(witness)
    extremes = extremize(np.vstack([np.eye(n), -np.eye(n)]), lp)
    if any(res.status is Extremum.INFEASIBLE for res in extremes):
        raise UnwrapError(f"region {region} solved as empty while boxed")

    center = np.array(witness, dtype=np.float64)
    extents = []
    unbounded = []
    for i in range(n):
        hi, lo = extremes[i], extremes[n + i]
        if hi.status is Extremum.UNBOUNDED or lo.status is Extremum.UNBOUNDED:
            unbounded.append(i)
            continue
        top, bottom = witness[i] + hi.value, witness[i] - lo.value
        center[i] = (top + bottom) / 2.0
        extents.append(top - bottom)
    side = max(extents) if extents else np.inf
    return HypercubeSummary(center, float(side), tuple(unbounded))


# ---------------------------------------------------------------------------
# 2-D SVG plot

_SVG_SIZE = 640.0
_SVG_MARGIN = 40.0


def _clip_line(normal, offset, bounds):
    """Endpoints of the line normal . x = offset inside the rectangle."""
    x0, y0, x1, y1 = bounds
    a, b = float(normal[0]), float(normal[1])
    pts = []
    if abs(b) > 1e-15:
        for xe in (x0, x1):
            ye = (offset - a * xe) / b
            if y0 - 1e-9 <= ye <= y1 + 1e-9:
                pts.append((xe, ye))
    if abs(a) > 1e-15:
        for ye in (y0, y1):
            xe = (offset - b * ye) / a
            if x0 - 1e-9 <= xe <= x1 + 1e-9:
                pts.append((xe, ye))
    unique = []
    for pt in pts:
        if all(abs(pt[0] - q[0]) > 1e-9 or abs(pt[1] - q[1]) > 1e-9 for q in unique):
            unique.append(pt)
    if len(unique) < 2:
        return None
    unique.sort()
    return unique[0], unique[-1]


def plot_regions_2d(d: Decomposition, points, bounds, out, labels=None):
    """Write an SVG of a 2-D decomposition.

    Draws every boundary line (green) clipped to ``bounds`` =
    (x0, y0, x1, y1), the given points as crosses with optional labels, and
    for each bounded region containing at least one point its enclosing
    hypercube as a red square.  Only 2-input decompositions can be drawn.
    """
    if d.input_dim != 2:
        raise DimensionMismatchError(
            f"plot needs a 2-input decomposition, got {d.input_dim} inputs"
        )
    x0, y0, x1, y1 = (float(v) for v in bounds)
    if not (x0 < x1 and y0 < y1):
        raise ValueError("bounds must satisfy x0 < x1 and y0 < y1")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2) if len(points) else np.zeros((0, 2))
    if labels is not None and len(labels) != len(pts):
        raise DimensionMismatchError("one label per point required")

    span = max(x1 - x0, y1 - y0)
    scale = (_SVG_SIZE - 2 * _SVG_MARGIN) / span

    def to_px(x, y):
        return (
            _SVG_MARGIN + (x - x0) * scale,
            _SVG_SIZE - _SVG_MARGIN - (y - y0) * scale,
        )

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": f"{_SVG_SIZE:g}",
            "height": f"{_SVG_SIZE:g}",
            "viewBox": f"0 0 {_SVG_SIZE:g} {_SVG_SIZE:g}",
        },
    )
    fx0, fy1 = to_px(x0, y0)
    fx1, fy0 = to_px(x1, y1)
    ET.SubElement(
        svg,
        "rect",
        {
            "x": f"{fx0:.2f}",
            "y": f"{fy0:.2f}",
            "width": f"{fx1 - fx0:.2f}",
            "height": f"{fy1 - fy0:.2f}",
            "fill": "white",
            "stroke": "#333333",
            "stroke-width": "1",
        },
    )

    # each hyperplane once, whichever orientations reference it
    seen = set()
    for hs in d.halfspaces:
        h = np.round(hs.normal, _SORT_DECIMALS)
        c = round(hs.offset, _SORT_DECIMALS)
        if h[0] < 0 or (h[0] == 0 and h[1] < 0):
            h, c = -h, -c
        key = (h[0], h[1], c)
        if key in seen:
            continue
        seen.add(key)
        seg = _clip_line(hs.normal, hs.offset, (x0, y0, x1, y1))
        if seg is None:
            continue
        (ax, ay), (bx, by) = (to_px(*seg[0]), to_px(*seg[1]))
        ET.SubElement(
            svg,
            "line",
            {
                "x1": f"{ax:.2f}",
                "y1": f"{ay:.2f}",
                "x2": f"{bx:.2f}",
                "y2": f"{by:.2f}",
                "stroke": "#2e8b57",
                "stroke-width": "1.5",
            },
        )

    # red squares for bounded regions hosting points
    # points on unowned faces (host -1) get no square
    hosts = _hosts(d, pts)[0]
    for r in np.unique(hosts[hosts >= 0]).tolist():
        cube = hypercube(d, r)
        if cube.unbounded_dims or not np.isfinite(cube.side):
            continue
        half = cube.side / 2.0
        cx0, cy0 = max(cube.center[0] - half, x0), max(cube.center[1] - half, y0)
        cx1, cy1 = min(cube.center[0] + half, x1), min(cube.center[1] + half, y1)
        if cx0 >= cx1 or cy0 >= cy1:
            continue
        px, py = to_px(cx0, cy1)
        qx, qy = to_px(cx1, cy0)
        ET.SubElement(
            svg,
            "rect",
            {
                "x": f"{px:.2f}",
                "y": f"{py:.2f}",
                "width": f"{qx - px:.2f}",
                "height": f"{qy - py:.2f}",
                "fill": "none",
                "stroke": "#d62728",
                "stroke-width": "1.5",
            },
        )

    for idx, pt in enumerate(pts):
        px, py = to_px(pt[0], pt[1])
        for dx0, dy0, dx1, dy1 in ((-4, 0, 4, 0), (0, -4, 0, 4)):
            ET.SubElement(
                svg,
                "line",
                {
                    "x1": f"{px + dx0:.2f}",
                    "y1": f"{py + dy0:.2f}",
                    "x2": f"{px + dx1:.2f}",
                    "y2": f"{py + dy1:.2f}",
                    "stroke": "#222222",
                    "stroke-width": "1.5",
                },
            )
        if labels is not None:
            text = ET.SubElement(
                svg,
                "text",
                {
                    "x": f"{px + 5:.2f}",
                    "y": f"{py - 5:.2f}",
                    "font-size": "10",
                    "font-family": "sans-serif",
                    "fill": "#222222",
                },
            )
            text.text = str(labels[idx])

    ET.ElementTree(svg).write(out, encoding="utf-8", xml_declaration=True)
