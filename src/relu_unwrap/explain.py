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

from .decomposition import Decomposition, _any_read, _closed_rows, _sort_keys
from .errors import DimensionMismatchError, NonFiniteError, PointNotLocatedError, UnwrapError
from .lp import Extremum, LinearProgram, _alone, extremize
from .network import _points

_EPS_FACE = 1e-12  # margin below which a point counts as on a face
_HOST_BLOCK = 1024  # points per block of _hosts, which bounds its margins

_SHAP_DIM_CAP = 20  # brute force enumerates 2^n coalitions

_POINT = "point has {k} coordinates, decomposition has {n}"  # for network._points


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


def _region(d: Decomposition, region: int) -> int:
    """``region`` as an index of d's regions, counting from the end if
    negative; a bool or any other non-integer raises IndexError."""
    if isinstance(region, bool) or not isinstance(region, (int, np.integer)):
        raise IndexError(f"region must be an integer, not {type(region).__name__}")
    try:
        return range(d.num_regions)[region]
    except IndexError:
        raise IndexError(f"region {region} out of range") from None


def _inside(d: Decomposition, r: int, X: np.ndarray) -> np.ndarray:
    """Whether each row of X lies in region ``r`` through owned faces, as in ``_hosts``."""
    ids, owned, starts = d.region_rows
    run = slice(starts[r], starts[r + 1])
    with np.errstate(over="ignore"):  # an infinite margin keeps its sign
        margins = X @ d.halfspace_normals[ids[run]].T - d.halfspace_offsets[ids[run]]
    return ~((margins < -_EPS_FACE) | (margins <= _EPS_FACE) & ~owned[run]).any(axis=1)


def _hosts(d: Decomposition, X: np.ndarray):
    """(hosts, lost): the host region of each row of X, -1 where none.

    The host is the first region the point lies in strictly (every margin
    above ``_EPS_FACE``), else the first region containing it through owned
    faces: the first group of ``d._host_reads`` that :func:`_any_read` does
    not hit.  Rows go ``_HOST_BLOCK`` at a time.  ``lost`` holds the (k,)
    margins of the first row without a host, else None.
    """
    region = np.concatenate([np.arange(d.num_regions)] * 2 + [[-1]])  # of each group; 2p: no host
    hosts = np.empty(X.shape[0], dtype=np.intp)
    lost = None
    for first in range(0, X.shape[0], _HOST_BLOCK):
        rows = slice(first, first + _HOST_BLOCK)
        with np.errstate(over="ignore"):  # an infinite margin keeps its sign
            margins = X[rows] @ d.halfspace_normals.T - d.halfspace_offsets
        sources = np.concatenate([(margins <= _EPS_FACE).T, (margins < -_EPS_FACE).T])
        found = hosts[rows] = region[_any_read(sources, *d._host_reads).argmin(axis=0)]
        if lost is None and found.min() < 0:
            lost = margins[np.argmax(found < 0)]
    return hosts, lost


def region_contains(d: Decomposition, region: int, x) -> bool:
    """Membership test honouring face ownership.

    A point belongs to a region when every bounding condition holds
    strictly, or lies (within ``_EPS_FACE``) on faces the region owns.  A
    negative ``region`` counts from the end, as in :func:`hypercube`.
    """
    x = _points(x, d.input_dim, _POINT, one=True)
    return bool(_inside(d, _region(d, region), x)[0])


def locate_many(d: Decomposition, X) -> np.ndarray:
    """Index of the region containing each row of X, as :func:`locate_region`
    finds it.

    Raises :class:`PointNotLocatedError` for the first row no region
    contains.
    """
    return _locate(d, _points(X, d.input_dim))


def locate_region(d: Decomposition, x) -> int:
    """Index of the region containing x.

    Strict containment wins; points on a face resolve to the region owning
    it.  If nothing matches (a numerically ambiguous boundary point), raises
    :class:`PointNotLocatedError` carrying the nearest region by violation.
    """
    return int(_locate(d, _points(x, d.input_dim, _POINT, one=True))[0])


def _locate(d: Decomposition, X: np.ndarray) -> np.ndarray:
    """:func:`locate_many` of points already read by ``_points``."""
    hosts, lost = _hosts(d, X)
    if lost is not None:
        i = int(np.argmax(hosts < 0))
        ids, _, starts = d.region_rows
        slack = np.full(d.num_regions, np.inf)  # each region's smallest margin
        np.minimum.at(slack, np.repeat(np.arange(d.num_regions), np.diff(starts)), lost[ids])
        best = int(np.argmax(slack)) if slack.size else None  # the first of largest slack
        worst = -np.inf if best is None else slack[best]
        raise PointNotLocatedError(
            f"point {i} lies on an unowned boundary (worst margin {worst:.3e}); "
            f"nearest region is {best}",
            nearest_region=best,
        )
    return hosts


def exact_shap(d: Decomposition, x, background) -> ShapResult:
    """Closed-form SHAP values of the model hosting x.

    The background mean is taken over the background points lying in the
    same region; if none do, the full-background mean is used and the result
    is flagged approximate.  phi[i, j] = alpha[j, i] * (x[i] - mu[i]).
    ``background`` is one point or a (B, n) array of at least one point.
    """
    x = _points(x, d.input_dim, _POINT, one=True)
    message = "background must be one point or (B, {n}) points, got shape {shape}"
    bg = _points(np.atleast_2d(background), d.input_dim, message)
    if len(bg) == 0:
        raise ValueError("background must contain at least one point")
    r = int(_locate(d, x)[0])
    inside = bg[_inside(d, r, bg)]
    approximate = len(inside) == 0
    mu = np.mean(bg if approximate else inside, axis=0)
    phi = d.alphas[r].T * (x[0] - mu)[:, None]
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
    ``unbounded_dims`` instead of clipped.  A negative ``region`` counts
    from the end.
    """
    return _boxes(d, [_region(d, region)])[0]


def _boxes(d: Decomposition, regions) -> list[HypercubeSummary]:
    """:func:`hypercube` of every region in ``regions``, all of their
    extremes in one :func:`~relu_unwrap.lp.extremize` call."""
    ids, _, starts = d.region_rows
    n = d.input_dim
    lps = []
    for r in regions:
        run = ids[starts[r] : starts[r + 1]]
        rows = _closed_rows(d.halfspace_normals[run], d.halfspace_offsets[run], d.witnesses[r])
        lps.append(LinearProgram(*rows))
    directions = np.vstack([np.eye(n), -np.eye(n)])
    cubes = []
    for region, lp, extremes in zip(regions, lps, extremize([directions] * len(lps), lps)):
        extremes = _alone(extremes, lp)
        if any(res.status is Extremum.INFEASIBLE for res in extremes):
            raise UnwrapError(f"region {region} solved as empty while boxed")
        witness = d.witnesses[region]
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
        cubes.append(HypercubeSummary(center, float(side), tuple(unbounded)))
    return cubes


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


def _element(parent, tag, text=None, **attrs):
    """Append a ``tag`` child holding ``text`` to ``parent``.

    A float attribute is a pixel coordinate, written to two decimals; any
    other is written as given.  An ``_`` in a keyword reads as ``-``.
    """
    child = ET.SubElement(
        parent,
        tag,
        {
            name.replace("_", "-"): f"{value:.2f}" if isinstance(value, float) else value
            for name, value in attrs.items()
        },
    )
    child.text = text


def plot_regions_2d(d: Decomposition, points, bounds, out, labels=None):
    """Write an SVG of a 2-D decomposition.

    Draws every boundary line (green) clipped to ``bounds`` =
    (x0, y0, x1, y1), the given points as crosses with optional labels, and
    for each bounded region containing at least one point its enclosing
    hypercube as a red square.  Only 2-input decompositions can be drawn,
    within finite bounds of a finite span.
    """
    if d.input_dim != 2:
        raise DimensionMismatchError(
            f"plot needs a 2-input decomposition, got {d.input_dim} inputs"
        )
    x0, y0, x1, y1 = (float(v) for v in bounds)
    if not all(map(math.isfinite, (x0, y0, x1, y1))):
        raise NonFiniteError(f"bounds must be finite, got {(x0, y0, x1, y1)}")
    if not (x0 < x1 and y0 < y1):
        raise ValueError("bounds must satisfy x0 < x1 and y0 < y1")
    span = max(x1 - x0, y1 - y0)
    if not math.isfinite(span):
        raise ValueError(f"bounds must span a finite width and height, got {(x0, y0, x1, y1)}")
    pts = _points(points, 2)
    if labels is not None and len(labels) != len(pts):
        raise DimensionMismatchError("one label per point required")

    scale = (_SVG_SIZE - 2 * _SVG_MARGIN) / span

    def to_px(x, y):
        return (
            _SVG_MARGIN + (x - x0) * scale,
            _SVG_SIZE - _SVG_MARGIN - (y - y0) * scale,
        )

    def line(a, b, stroke):
        _element(svg, "line", x1=a[0], y1=a[1], x2=b[0], y2=b[1], stroke=stroke, stroke_width="1.5")

    def rect(lo_x, lo_y, hi_x, hi_y, **style):
        (px, py), (qx, qy) = to_px(lo_x, hi_y), to_px(hi_x, lo_y)
        _element(svg, "rect", x=px, y=py, width=qx - px, height=qy - py, **style)

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
    rect(x0, y0, x1, y1, fill="white", stroke="#333333", stroke_width="1")

    # each hyperplane once, whichever orientations reference it
    seen = set()
    keys = _sort_keys(d.halfspace_normals, d.halfspace_offsets)
    for normal, offset, (a, b, c) in zip(d.halfspace_normals, d.halfspace_offsets.tolist(), keys):
        key = (-a, -b, -c) if a < 0 or (a == 0 and b < 0) else (a, b, c)
        seg = None if key in seen else _clip_line(normal, offset, (x0, y0, x1, y1))
        seen.add(key)
        if seg is not None:
            line(to_px(*seg[0]), to_px(*seg[1]), "#2e8b57")

    # red squares for bounded regions hosting points
    # points on unowned faces (host -1) get no square
    hosts = _hosts(d, pts)[0]
    # np.unique would import numpy.ma, which no other command loads
    for cube in _boxes(d, np.flatnonzero(np.bincount(hosts[hosts >= 0])).tolist()):
        if cube.unbounded_dims or not np.isfinite(cube.side):
            continue
        half = cube.side / 2.0
        cx0, cy0 = max(cube.center[0] - half, x0), max(cube.center[1] - half, y0)
        cx1, cy1 = min(cube.center[0] + half, x1), min(cube.center[1] + half, y1)
        if cx0 < cx1 and cy0 < cy1:
            rect(cx0, cy0, cx1, cy1, fill="none", stroke="#d62728", stroke_width="1.5")

    for idx, pt in enumerate(pts):
        px, py = to_px(pt[0], pt[1])
        for dx0, dy0, dx1, dy1 in ((-4, 0, 4, 0), (0, -4, 0, 4)):
            line((px + dx0, py + dy0), (px + dx1, py + dy1), "#222222")
        if labels is not None:
            _element(
                svg, "text", str(labels[idx]), x=px + 5, y=py - 5,
                font_size="10", font_family="sans-serif", fill="#222222",
            )

    ET.ElementTree(svg).write(out, encoding="utf-8", xml_declaration=True)
