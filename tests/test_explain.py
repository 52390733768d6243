"""Feature attributions, region geometry summaries, and the 2-D plot."""

import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from relu_unwrap import (
    ActivationPattern,
    BudgetExceededError,
    Decomposition,
    DimensionMismatchError,
    NonFiniteError,
    OrientedHalfspace,
    PointNotLocatedError,
    Region,
    UnwrapError,
    activation_pattern,
    brute_force_shap,
    build_decomposition,
    build_shallow,
    decompose,
    eval_shallow,
    eval_shallow_many,
    exact_shap,
    forward,
    forward_many,
    hypercube,
    loads_decomposition,
    locate_many,
    locate_region,
    pattern_matrix,
    plot_regions_2d,
    random_init,
    region_contains,
)

import relu_unwrap.explain as explain

from conftest import biased_net, interior_samples

SQ2 = np.sqrt(2.0)
DATA = Path(__file__).parent / "data"


def single_region_decomposition(alpha, beta, halfspaces, ids, witness, owned=()):
    regs = (
        Region(
            ActivationPattern(((1,),)),
            np.asarray(alpha, dtype=np.float64),
            np.asarray(beta, dtype=np.float64),
            tuple(ids),
            np.asarray(witness, dtype=np.float64),
            nonstrict_ids=tuple(owned),
        ),
    )
    return Decomposition.of(len(witness), len(beta), tuple(halfspaces), regs)


@pytest.fixture
def triangle():
    """One linear model on the open triangle x > 0, y > 0, x + y < 2."""
    hs = (
        OrientedHalfspace(np.array([1.0, 0.0]), 0.0),
        OrientedHalfspace(np.array([0.0, 1.0]), 0.0),
        OrientedHalfspace(np.array([-1.0, -1.0]) / SQ2, -2.0 / SQ2),
    )
    return single_region_decomposition(
        [[1.0, 0.5]], [0.25], hs, (0, 1, 2), (0.5, 0.5)
    )


@pytest.fixture
def quadrant():
    hs = (
        OrientedHalfspace(np.array([1.0, 0.0]), 0.0),
        OrientedHalfspace(np.array([0.0, 1.0]), 0.0),
    )
    return single_region_decomposition([[1.0, 0.0]], [0.0], hs, (0, 1), (1.0, 1.0))


class TestLocateRegion:
    def test_interior_point(self, demo_net_m2):
        d = decompose(demo_net_m2)
        r = locate_region(d, [3.0, 2.0])
        assert d.regions[r].pattern.layers == ((1, 1),)

    def test_face_resolves_to_owner(self, demo_net_m2):
        """Points on shared faces go to the region owning the face."""
        d = decompose(demo_net_m2)
        r = locate_region(d, [-2.0, 0.0])
        assert d.regions[r].pattern.layers == ((0, 0),)
        r = locate_region(d, [0.0, 0.0])
        assert d.regions[r].pattern.layers == ((0, 0),)

    def test_every_sample_locates_to_its_pattern(self):
        rng = np.random.default_rng(5)
        net = random_init([2, 3, 3], 1, seed=0)
        d = decompose(net)
        from relu_unwrap import activation_pattern

        for _ in range(500):
            x = rng.uniform(-8, 8, size=2)
            r = locate_region(d, x)
            assert d.regions[r].pattern == activation_pattern(net, x)

    def test_missing_region_reports_nearest(self, demo_net_m2):
        d = decompose(demo_net_m2)
        keep = [
            r
            for r in range(d.num_regions)
            if d.regions[r].pattern.layers != ((0, 0),)
        ]
        partial = Decomposition.of(
            d.input_dim,
            d.output_dim,
            d.halfspaces,
            tuple(d.regions[r] for r in keep),
            partial=True,
        )
        with pytest.raises(PointNotLocatedError) as info:
            locate_region(partial, [-4.0, -4.0])
        assert info.value.nearest_region is not None

    def test_dimension_checked(self, demo_net_m2):
        d = decompose(demo_net_m2)
        with pytest.raises(DimensionMismatchError):
            locate_region(d, [1.0, 2.0, 3.0])

    def test_overflowing_margins_keep_their_sign(self):
        """A finite point whose margins overflow to infinity locates, with no
        overflow warning, as its direction does at a large finite scale: an
        infinite margin keeps its sign."""
        d = decompose(biased_net([2, 4, 4], 2, seed=0))
        x = [1.7e308, -1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert locate_many(d, [x]).tolist() == [32] == locate_many(d, [[1e12, -1e12]]).tolist()
            assert [r for r in range(d.num_regions) if region_contains(d, r, x)] == [32]


class TestRegionContains:
    def test_strict_interior_and_owned_face(self, demo_net_m2):
        d = decompose(demo_net_m2)
        r00 = next(
            r
            for r in range(d.num_regions)
            if d.regions[r].pattern.layers == ((0, 0),)
        )
        assert region_contains(d, r00, [-3.0, -1.0])
        assert region_contains(d, r00, [-2.0, 0.0])  # owned face
        assert not region_contains(d, r00, [1.0, 1.0])

    def test_unowned_face_excluded(self, demo_net_m2):
        d = decompose(demo_net_m2)
        r11 = next(
            r
            for r in range(d.num_regions)
            if d.regions[r].pattern.layers == ((1, 1),)
        )
        # the face x2 = 0 belongs to the inactive side, not to (1,1)
        assert not region_contains(d, r11, [2.0, 0.0])

    @pytest.mark.parametrize("x", [[0.5, -1.0, 2.0], [0.5]], ids=["3", "1"])
    def test_dimension_checked_as_locate_region_checks_it(self, x):
        """A point of another length raises as :func:`locate_region` raises."""
        d = decompose(biased_net([2, 4, 4], 2, seed=0))
        with pytest.raises(DimensionMismatchError) as want:
            locate_region(d, x)
        for r in (0, d.num_regions - 1):
            with pytest.raises(DimensionMismatchError) as got:
                region_contains(d, r, x)
            assert str(got.value) == str(want.value) == f"point has {len(x)} coordinates, decomposition has 2"


class TestExactShap:
    def test_linear_model_formula(self, triangle):
        """phi[i, j] = alpha[j, i] * (x[i] - mu[i]) for a single region."""
        x = np.array([0.75, 0.25])
        bg = np.array([[0.5, 0.5], [0.25, 0.75]])
        res = exact_shap(triangle, x, bg)
        mu = bg.mean(axis=0)
        want = np.array(
            [
                [1.0 * (x[0] - mu[0])],
                [0.5 * (x[1] - mu[1])],
            ]
        )
        np.testing.assert_allclose(res.phi, want, atol=1e-12)
        assert not res.approximate
        assert res.region == 0

    def test_background_at_query_point_gives_zero(self, triangle):
        x = np.array([0.6, 0.9])
        res = exact_shap(triangle, x, [x])
        np.testing.assert_allclose(res.phi, 0.0, atol=1e-15)

    def test_efficiency(self):
        """Attributions sum to the output difference against the mean."""
        rng = np.random.default_rng(9)
        for seed, dims, m in [(0, [2, 3, 3], 1), (1, [3, 4, 3], 2)]:
            net = random_init(dims, m, seed)
            d = decompose(net)
            for r in range(d.num_regions):
                pts = interior_samples(d, r, rng, 6, spread=0.2)
                if len(pts) < 3:
                    continue
                x, bg = pts[0], pts[1:]
                res = exact_shap(d, x, bg)
                reg = d.regions[res.region]
                fx = reg.alpha @ x + reg.beta
                fmu = reg.alpha @ res.mu + reg.beta
                np.testing.assert_allclose(res.phi.sum(axis=0), fx - fmu, atol=1e-9)

    def test_out_of_region_background_flagged(self, demo_net_m2):
        d = decompose(demo_net_m2)
        x = np.array([2.0, 1.0])  # both neurons active
        bg = np.array([[-3.0, -2.0], [-1.0, -4.0]])  # both inactive
        res = exact_shap(d, x, bg)
        assert res.approximate
        np.testing.assert_allclose(res.mu, bg.mean(axis=0))

    def test_in_region_background_filtered(self, demo_net_m2):
        d = decompose(demo_net_m2)
        x = np.array([2.0, 1.0])
        inside = np.array([[3.0, 1.0], [1.0, 2.0]])
        outside = np.array([[-5.0, -5.0]])
        res = exact_shap(d, x, np.vstack([inside, outside]))
        assert not res.approximate
        np.testing.assert_allclose(res.mu, inside.mean(axis=0))

    @pytest.mark.parametrize("shape", [(4, 2, 2), (1, 1, 2), (3,), (2, 3)])
    def test_background_of_another_shape(self, triangle, shape):
        """The background is one point or a (B, n) array; any other shape is
        refused before it is indexed."""
        with pytest.raises(DimensionMismatchError, match="one point or"):
            exact_shap(triangle, [0.5, 0.5], np.full(shape, 0.5))

    def test_empty_background(self, triangle):
        """A (0, n) background is refused as empty; a bare empty list has
        no point's shape."""
        with pytest.raises(ValueError, match="^background must contain at least one point$"):
            exact_shap(triangle, [0.5, 0.5], np.zeros((0, 2)))
        with pytest.raises(DimensionMismatchError, match=r"got shape \(1, 0\)$"):
            exact_shap(triangle, [0.5, 0.5], [])

    def test_jsonable_payload(self, triangle):
        res = exact_shap(triangle, [0.5, 1.0], [[1.0, 0.5]])
        doc = res.to_jsonable()
        assert set(doc) == {"phi", "region", "mu", "approximate"}
        assert isinstance(doc["phi"], list)
        assert doc["region"] == 0
        assert doc["approximate"] is False


def _point_entries(net, tmp_path):
    """Every public entry that takes points, by name, as (form, call): form
    "one" takes one point, "many" an (N, n) batch, "background" either."""
    d = decompose(net)
    s = build_shallow(d)
    svg = str(tmp_path / "p.svg")
    return {
        "forward": ("one", lambda x: forward(net, x)),
        "activation_pattern": ("one", lambda x: activation_pattern(net, x)),
        "forward_many": ("many", lambda X: forward_many(net, X)),
        "pattern_matrix": ("many", lambda X: pattern_matrix(net, X)),
        "eval_shallow": ("one", lambda x: eval_shallow(s, x)),
        "eval_shallow_many": ("many", lambda X: eval_shallow_many(s, X)),
        "locate_region": ("one", lambda x: locate_region(d, x)),
        "locate_many": ("many", lambda X: locate_many(d, X)),
        "region_contains": ("one", lambda x: region_contains(d, 0, x)),
        "exact_shap": ("one", lambda x: exact_shap(d, x, [[1.0, 1.0]])),
        "exact_shap background": ("background", lambda bg: exact_shap(d, [1.0, 1.0], bg)),
        "plot_regions_2d": ("many", lambda X: plot_regions_2d(d, X, (-2, -2, 2, 2), svg)),
    }


_ENTRIES = [
    "forward", "activation_pattern", "forward_many", "pattern_matrix", "eval_shallow",
    "eval_shallow_many", "locate_region", "locate_many", "region_contains", "exact_shap",
    "exact_shap background", "plot_regions_2d",
]
_OWNERS = {"forward": "network", "activation_pattern": "network", "eval_shallow": "shallow network"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(demo_net_m2, tmp_path, bad):
    """A NaN or infinite coordinate is refused wherever points enter, before
    any arithmetic on it (no numpy warning) and before anything is written."""
    entries = _point_entries(demo_net_m2, tmp_path)
    assert list(entries) == _ENTRIES
    point = [bad, 1.0]
    for form, call in entries.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^points must be finite$"):
                call(point if form == "one" else [[1.0, 1.0], point])
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("shape", [(6,), (3, 3), (3,)], ids=["1-d batch", "(N, n+1)", "n+1 point"])
def test_points_of_another_shape_rejected(demo_net_m2, tmp_path, shape, entry):
    """Points of the wrong shape for n = 2 are refused with the entry's message."""
    form, call = _point_entries(demo_net_m2, tmp_path)[entry]
    values = np.ones(shape)
    with pytest.raises(DimensionMismatchError) as info:
        call(values)
    if form == "one":
        owner = _OWNERS.get(entry, "decomposition")
        want = f"point has {values.size} coordinates, {owner} has 2"
    elif form == "many":
        want = f"expected (N, 2) points, got shape {shape}"
    else:
        want = f"background must be one point or (B, 2) points, got shape {np.atleast_2d(values).shape}"
    assert str(info.value) == want


class TestBruteForceShap:
    def test_baseline_of_another_length(self):
        with pytest.raises(DimensionMismatchError, match="^baseline and point lengths differ$"):
            brute_force_shap(lambda z: z.sum(), [1.0, 2.0], [0.0, 0.0, 0.0])

    def test_linear_function_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            W = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            x = rng.normal(size=n)
            base = rng.normal(size=n)
            phi = brute_force_shap(lambda z: W @ z + b, x, base)
            want = W.T * (x - base)[:, None]
            np.testing.assert_allclose(phi, want, atol=1e-9)

    def test_additive_in_the_function(self):
        rng = np.random.default_rng(23)
        f = random_init([3, 4, 3], 2, seed=6)
        g = random_init([3, 3], 2, seed=7)
        x, base = rng.normal(size=3), rng.normal(size=3)
        fg = lambda z: forward(f, z).output + forward(g, z).output
        phi = brute_force_shap(fg, x, base)
        want = brute_force_shap(lambda z: forward(f, z).output, x, base)
        want = want + brute_force_shap(lambda z: forward(g, z).output, x, base)
        np.testing.assert_allclose(phi, want, atol=1e-9)

    def test_coordinate_swap_symmetry(self):
        """Swapping two input coordinates swaps the attribution rows."""
        rng = np.random.default_rng(25)
        net = random_init([3, 4, 3], 2, seed=8)
        f = lambda z: forward(net, z).output
        swap = lambda z: np.array([z[1], z[0], z[2]])
        x, base = rng.normal(size=3), rng.normal(size=3)
        phi = brute_force_shap(f, x, base)
        phi_sw = brute_force_shap(lambda z: f(swap(z)), swap(x), swap(base))
        np.testing.assert_allclose(phi_sw[0], phi[1], atol=1e-9)
        np.testing.assert_allclose(phi_sw[1], phi[0], atol=1e-9)
        np.testing.assert_allclose(phi_sw[2], phi[2], atol=1e-9)

    def test_matches_exact_inside_one_region(self):
        """Exhaustive coalition sums agree with the closed form in-region."""
        rng = np.random.default_rng(27)
        checked = 0
        for seed, dims, m in [(0, [2, 3, 3], 1), (1, [3, 4, 3], 2)]:
            net = random_init(dims, m, seed)
            d = decompose(net)
            for r in range(d.num_regions):
                pts = interior_samples(d, r, rng, 2, spread=0.05)
                if len(pts) < 2:
                    continue
                x, mu = pts[0], pts[1]
                hybrids_ok = all(
                    region_contains(d, r, np.where(mask, x, mu))
                    for mask in _masks(d.input_dim)
                )
                if not hybrids_ok:
                    continue
                res = exact_shap(d, x, [mu])
                phi = brute_force_shap(lambda z: forward(net, z).output, x, mu)
                np.testing.assert_allclose(res.phi, phi, atol=1e-9)
                checked += 1
        assert checked >= 10

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            brute_force_shap(lambda z: z[:1], np.zeros(21), np.zeros(21))


def _masks(n):
    for bits in range(2**n):
        yield np.array([(bits >> i) & 1 == 1 for i in range(n)])


class TestHypercube:
    def test_triangle_bounding_box(self, triangle):
        """The triangle x, y > 0, x + y < 2 boxes to [0, 2] squared."""
        cube = hypercube(triangle, 0)
        np.testing.assert_allclose(cube.center, [1.0, 1.0], atol=1e-9)
        assert abs(cube.side - 2.0) < 1e-9
        assert cube.unbounded_dims == ()

    def test_quadrant_reports_unbounded(self, quadrant):
        cube = hypercube(quadrant, 0)
        assert set(cube.unbounded_dims) == {0, 1}
        assert not np.isfinite(cube.side)
        np.testing.assert_allclose(cube.center, [1.0, 1.0])  # witness fallback

    def test_slab_partially_unbounded(self):
        hs = (
            OrientedHalfspace(np.array([1.0, 0.0]), 0.0),
            OrientedHalfspace(np.array([-1.0, 0.0]), -1.0),
        )
        d = single_region_decomposition([[1.0, 0.0]], [0.0], hs, (0, 1), (0.5, 3.0))
        cube = hypercube(d, 0)
        assert cube.unbounded_dims == (1,)
        assert abs(cube.side - 1.0) < 1e-9
        assert abs(cube.center[0] - 0.5) < 1e-9
        assert cube.center[1] == 3.0

    def test_interior_samples_inside_cube(self):
        """Sampled region points always fall inside the reported cube."""
        rng = np.random.default_rng(31)
        net = random_init([2, 3, 3], 1, seed=0)
        d = decompose(net)
        for r in range(d.num_regions):
            cube = hypercube(d, r)
            if cube.unbounded_dims:
                continue
            pts = interior_samples(d, r, rng, 1000, spread=2.0)
            if not len(pts):
                continue
            half = cube.side / 2.0 + 1e-9
            gap = np.abs(pts - cube.center).max()
            assert gap <= half

    def test_bad_region_index(self, triangle):
        with pytest.raises(IndexError):
            hypercube(triangle, 5)

    def test_region_of_contradicting_conditions_raises(self):
        """x > 1 and x < -1: the region's closed program is empty, which a
        region of a decomposition never is, so boxing it is an error."""
        hs = (
            OrientedHalfspace(np.array([1.0, 0.0]), 1.0),
            OrientedHalfspace(np.array([-1.0, 0.0]), 1.0),
        )
        d = single_region_decomposition([[1.0, 0.0]], [0.0], hs, (0, 1), (0.0, 0.0))
        with pytest.raises(UnwrapError, match="^region 0 solved as empty while boxed$"):
            hypercube(d, 0)

    def test_region_index_read_as_region_contains_reads_it(self):
        """A negative index counts from the end in both queries, and an index
        outside the regions raises one message in both."""
        d = decompose(biased_net([2, 4, 4], 2, seed=0))
        p, x = d.num_regions, d.witnesses[-1]
        last, tail = hypercube(d, p - 1), hypercube(d, -1)
        np.testing.assert_array_equal(tail.center, last.center)
        assert (tail.side, tail.unbounded_dims) == (last.side, last.unbounded_dims)
        assert region_contains(d, -1, x) and region_contains(d, p - 1, x)
        for r in (p, -p - 1):
            with pytest.raises(IndexError, match=f"^region {r} out of range$"):
                hypercube(d, r)
            with pytest.raises(IndexError, match=f"^region {r} out of range$"):
                region_contains(d, r, x)


class TestPlot:
    def test_svg_structure(self, tmp_path, demo_net_m2):
        d = decompose(demo_net_m2)
        out = tmp_path / "plot.svg"
        pts = np.array([[1.0, 1.0], [-1.5, -1.0]])
        plot_regions_2d(d, pts, (-2.0, -2.0, 2.0, 2.0), out, labels=["a", "b"])
        tree = ET.parse(out)
        root = tree.getroot()
        assert root.tag.endswith("svg")
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        greens = [el for el in lines if el.get("stroke") == "#2e8b57"]
        crosses = [el for el in lines if el.get("stroke") == "#222222"]
        # two distinct hyperplanes, two stroke segments per point marker
        assert len(greens) == 2
        assert len(crosses) == 4
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        assert [t.text for t in texts] == ["a", "b"]

    def test_no_points_plot(self, tmp_path, demo_net_m2):
        d = decompose(demo_net_m2)
        out = tmp_path / "bare.svg"
        plot_regions_2d(d, np.zeros((0, 2)), (-2.0, -2.0, 2.0, 2.0), out)
        root = ET.parse(out).getroot()
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(lines) == 2

    def test_bounded_host_region_gets_square(self, tmp_path, triangle):
        out = tmp_path / "tri.svg"
        plot_regions_2d(triangle, np.array([[0.5, 0.5]]), (-1.0, -1.0, 3.0, 3.0), out)
        root = ET.parse(out).getroot()
        rects = [
            el
            for el in root.iter()
            if el.tag.endswith("rect") and el.get("stroke") == "#d62728"
        ]
        assert len(rects) == 1

    def test_host_regions_boxed_in_one_solve(self, tmp_path, monkeypatch):
        """The plot boxes all its host regions in one ``extremize`` call,
        each box bitwise the region's own :func:`hypercube`."""
        d = decompose(biased_net([2, 4, 4], 2, seed=0))
        regions = list(range(d.num_regions))
        for box, r in zip(explain._boxes(d, regions), regions):
            cube = hypercube(d, r)
            np.testing.assert_array_equal(box.center, cube.center)
            assert (box.side, box.unbounded_dims) == (cube.side, cube.unbounded_dims)
        real, calls = explain.extremize, []
        monkeypatch.setattr(explain, "extremize", lambda *args: calls.append(args) or real(*args))
        grid = np.stack(np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7)), -1).reshape(-1, 2)
        plot_regions_2d(d, grid, (-3.0, -3.0, 3.0, 3.0), tmp_path / "p.svg")
        assert len(calls) == 1 and len(calls[0][1]) > 1

    def test_non_planar_rejected(self, tmp_path):
        net = random_init([3, 3], 1, seed=0)
        d = decompose(net)
        with pytest.raises(DimensionMismatchError):
            plot_regions_2d(d, np.zeros((0, 3)), (-1, -1, 1, 1), tmp_path / "x.svg")

    def test_bad_bounds_rejected(self, tmp_path, triangle):
        with pytest.raises(ValueError):
            plot_regions_2d(
                triangle, np.zeros((0, 2)), (1.0, 0.0, -1.0, 2.0), tmp_path / "x.svg"
            )

    @pytest.mark.parametrize(
        "bounds", [(-1.0, -1.0, np.inf, 1.0), (np.nan, -1.0, 1.0, 1.0), (-1.0, -np.inf, 1.0, 1.0)]
    )
    def test_non_finite_bounds_rejected(self, tmp_path, triangle, bounds):
        out = tmp_path / "x.svg"
        with pytest.raises(NonFiniteError, match=r"^bounds must be finite, got \("):
            plot_regions_2d(triangle, np.zeros((0, 2)), bounds, out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds", [(-1e308, 0.0, 1e308, 1.0), (0.0, -1e308, 1.0, 1e308)], ids=["width", "height"]
    )
    def test_overflowing_span_rejected(self, tmp_path, triangle, bounds):
        """Finite bounds whose width or height overflows to infinity."""
        out = tmp_path / "x.svg"
        with pytest.raises(ValueError, match="^bounds must span a finite width and height, got "):
            plot_regions_2d(triangle, np.zeros((0, 2)), bounds, out)
        assert not out.exists()

    def test_svg_bytes_pinned(self, tmp_path):
        """The drawing of a golden decomposition is byte for byte the
        committed SVG: an escaped label, a square clipped by the bounds, a
        square of an off-frame point lying wholly outside them (not drawn)
        and a host without a bounded box (no square)."""
        d = loads_decomposition((DATA / "biased_2_4_4_seed0.json").read_text(encoding="utf-8"))
        points = np.array(
            [[0.34229408, 0.34098541], [-0.65544642, 1.71180731], [14.23458438, -9.10651184], [2.5, 2.5]]
        )
        labels = ["x < 1 & y > 0", "clipped", "off the frame", "unbounded"]
        hosts = explain._hosts(d, points)[0].tolist()
        boxes = explain._boxes(d, hosts)
        assert [cube.unbounded_dims for cube in boxes] == [(), (), (), (0, 1)]
        assert boxes[1].center[1] + boxes[1].side / 2 > 3.0  # clipped at y = 3
        assert boxes[2].center[0] - boxes[2].side / 2 > 3.0  # wholly right of x = 3
        out = tmp_path / "plot.svg"
        plot_regions_2d(d, points, (-3.0, -3.0, 3.0, 3.0), out, labels=labels)
        assert out.read_bytes() == (DATA / "plot_biased_2_4_4_seed0.svg").read_bytes()

    def test_label_count_must_match_the_points(self, tmp_path, triangle):
        out = tmp_path / "x.svg"
        with pytest.raises(DimensionMismatchError, match="^one label per point required$"):
            plot_regions_2d(triangle, np.zeros((2, 2)), (-1, -1, 1, 1), out, labels=["a"])
        assert not out.exists()


# ---------------------------------------------------------------------------
# Reference: the per-region loops the array queries replaced


def _ref_margins(d, x):
    if d.num_halfspaces == 0:
        return np.zeros(0)
    H = np.array([hs.normal for hs in d.halfspaces])
    c = np.array([hs.offset for hs in d.halfspaces])
    return H @ x - c


def _ref_contains(region, margins, eps=1e-12):
    for i in region.halfspace_ids:
        if margins[i] < -eps:
            return False
        if margins[i] <= eps and i not in region.nonstrict_ids:
            return False
    return True


def _ref_locate(d, x, eps=1e-12):
    """(region, None) when located, else (None, nearest region)."""
    margins = _ref_margins(d, x)
    best, best_slack = None, -np.inf
    for r, region in enumerate(d.regions):
        slack = (
            float(margins[list(region.halfspace_ids)].min())
            if region.halfspace_ids
            else np.inf
        )
        if slack > eps:
            return r, None
        if slack > best_slack:
            best, best_slack = r, slack
    for r, region in enumerate(d.regions):
        if _ref_contains(region, margins, eps):
            return r, None
    return None, best


def _ref_shap(d, x, bg, eps=1e-12):
    r, _ = _ref_locate(d, x, eps)
    region = d.regions[r]
    inside = [q for q in bg if _ref_contains(region, _ref_margins(d, q), eps)]
    mu = np.mean(inside if inside else bg, axis=0)
    return region.alpha.T * (x - mu)[:, None], r, mu, not inside


def _face_points(d):
    """Each witness moved onto each of its region's bounding hyperplanes.

    The margin of the hyperplane it lands on is rounding noise, far inside
    the face tolerance, so these exercise owned and unowned faces.
    """
    pts = []
    for region in d.regions:
        for i in region.halfspace_ids:
            hs = d.halfspaces[i]
            pts.append(region.witness - (hs.normal @ region.witness - hs.offset) * hs.normal)
    return np.array(pts).reshape(-1, d.input_dim)


def _without_region(d, r):
    rest = tuple(reg for k, reg in enumerate(d.regions) if k != r)
    return Decomposition.of(d.input_dim, d.output_dim, d.halfspaces, rest, partial=True)


QUERY_NETS = [
    ("[2,3,3]", lambda: random_init([2, 3, 3], 1, seed=0)),
    ("biased[2,4,4]", lambda: biased_net([2, 4, 4], 2, seed=0)),
    ("biased[3,4,3]", lambda: biased_net([3, 4, 3], 2, seed=1)),
]


class TestQueriesMatchReferenceLoops:
    @pytest.fixture(params=QUERY_NETS, ids=[label for label, _ in QUERY_NETS])
    def decomposition(self, request):
        return decompose(request.param[1]())

    def _query_points(self, d, seed):
        rng = np.random.default_rng(seed)
        witnesses = np.array([r.witness for r in d.regions])
        uniform = rng.uniform(-4.0, 4.0, size=(300, d.input_dim))
        return np.vstack([uniform, witnesses, _face_points(d)])

    def _check_locate(self, d, X):
        """locate_region and locate_many agree with the loop, errors included."""
        want = [_ref_locate(d, x) for x in X]
        for x, (r, nearest) in zip(X, want):
            if r is not None:
                assert locate_region(d, x) == r
            else:
                with pytest.raises(PointNotLocatedError) as info:
                    locate_region(d, x)
                assert info.value.nearest_region == nearest
        missing = [i for i, (r, _) in enumerate(want) if r is None]
        if missing:
            with pytest.raises(PointNotLocatedError) as info:
                locate_many(d, X)
            assert info.value.nearest_region == want[missing[0]][1]
            assert f"point {missing[0]} " in str(info.value)
        else:
            assert locate_many(d, X).tolist() == [r for r, _ in want]
        return want

    def test_locate_matches_reference(self, decomposition):
        d = decomposition
        X = self._query_points(d, seed=3)
        want = self._check_locate(d, X)
        assert all(r is not None for r, _ in want)
        # face points resolve through a face their host owns, not strictly
        owned_face = [
            _ref_margins(d, x)[list(d.regions[r].halfspace_ids)].min() <= 1e-12
            for x, (r, _) in zip(X, want)
        ]
        assert sum(owned_face) >= len(_face_points(d)) // 2

    def test_unlocated_points_match_reference(self, decomposition):
        """Without one region, its points and unowned faces go unlocated."""
        d = decomposition
        errors = 0
        for r in range(min(d.num_regions, 4)):
            partial = _without_region(d, r)
            want = self._check_locate(partial, self._query_points(d, seed=r))
            errors += sum(host is None for host, _ in want)
        assert errors > 0

    def test_region_contains_matches_reference(self, decomposition):
        d = decomposition
        for x in self._query_points(d, seed=5)[::7]:
            margins = _ref_margins(d, x)
            for r, region in enumerate(d.regions):
                assert region_contains(d, r, x) == _ref_contains(region, margins)
        assert region_contains(d, -1, d.regions[-1].witness)

    def test_exact_shap_bitwise_equal(self, decomposition):
        d = decomposition
        rng = np.random.default_rng(11)
        bg = np.vstack(
            [rng.uniform(-3.0, 3.0, size=(120, d.input_dim)), _face_points(d)]
        )
        for x in np.vstack(
            [rng.uniform(-3.0, 3.0, size=(40, d.input_dim)), _face_points(d)[:10]]
        ):
            phi, r, mu, approx = _ref_shap(d, x, bg)
            res = exact_shap(d, x, bg)
            assert res.region == r and res.approximate == approx
            assert np.array_equal(res.phi, phi) and np.array_equal(res.mu, mu)
        # a background far outside the witness's region leaves it approximate
        far = np.full((3, d.input_dim), 1e6)
        x = d.regions[0].witness
        phi, r, mu, approx = _ref_shap(d, x, far)
        res = exact_shap(d, x, far)
        assert approx and res.approximate
        assert np.array_equal(res.phi, phi) and np.array_equal(res.mu, mu)

    def test_blocks_match_the_reference(self, decomposition):
        """A batch spanning several blocks of rows answers as the loop does,
        and the first unlocated row, in a later block, is the one reported."""
        d = decomposition
        X = self._query_points(d, seed=7)
        partial = _without_region(d, int(np.bincount(locate_many(d, X)).argmax()))
        want = [_ref_locate(partial, x) for x in X]
        located = np.array([r is not None for r, _ in want])
        reps = 2 * explain._HOST_BLOCK // int(located.sum()) + 1
        tiled = np.vstack([X[located]] * reps)
        assert len(tiled) > 2 * explain._HOST_BLOCK
        assert locate_many(partial, tiled).tolist() == [r for r, _ in want if r is not None] * reps
        with pytest.raises(PointNotLocatedError) as info:
            locate_many(partial, np.vstack([tiled, X[~located]]))
        assert info.value.nearest_region == want[int(np.argmax(~located))][1]
        assert f"point {len(tiled)} " in str(info.value)

    def test_strict_containment_wins_over_an_earlier_owned_face(self):
        """Overlapping regions: region 0 is x >= 0 (owning x = 0), region 1
        is x > -1.  A point on x = 0 is strictly inside region 1 only."""
        hs = (
            OrientedHalfspace(np.array([1.0, 0.0]), -1.0),
            OrientedHalfspace(np.array([1.0, 0.0]), 0.0),
        )
        regions = tuple(
            Region(ActivationPattern(((bit,),)), np.eye(2), np.zeros(2), ids, w, owned)
            for bit, ids, w, owned in [(0, (1,), (1.0, 0.0), (1,)), (1, (0,), (-0.5, 0.0), ())]
        )
        d = Decomposition.of(2, 2, hs, regions)
        X = np.array([[0.0, 3.0], [2.0, -1.0], [-0.5, 0.0]])
        assert [_ref_locate(d, x)[0] for x in X] == [1, 0, 1]
        self._check_locate(d, X)

    def test_affine_decomposition(self, affine_net):
        """A region without conditions contains everything."""
        d = decompose(affine_net)
        X = np.random.default_rng(2).uniform(-5.0, 5.0, size=(20, 2))
        assert locate_many(d, X).tolist() == [0] * 20
        assert region_contains(d, 0, X[0])

    def test_locate_many_checks_shape(self, demo_net_m2):
        d = decompose(demo_net_m2)
        with pytest.raises(DimensionMismatchError):
            locate_many(d, np.zeros((4, 3)))
        with pytest.raises(DimensionMismatchError):
            locate_many(d, np.zeros(2))

    def test_decomposition_without_regions(self):
        """A budget of 0 leaves a partial decomposition with p = k = 0: no
        point has a host, the nearest region is None, and an empty batch
        locates to an empty array."""
        net = random_init([2, 3, 3], 1, 0)
        with pytest.raises(BudgetExceededError) as cut:
            decompose(net, budget=0)
        d = build_decomposition(net, cut.value.partial)
        assert (d.num_regions, d.num_halfspaces, d.partial) == (0, 0, True)
        message = "point 0 lies on an unowned boundary (worst margin -inf); nearest region is None"
        for query in (
            lambda: locate_region(d, [0.5, -1.0]),
            lambda: locate_many(d, np.zeros((3, 2))),
            lambda: exact_shap(d, [0.5, -1.0], [[1.0, 1.0]]),
        ):
            with pytest.raises(PointNotLocatedError) as info:
                query()
            assert (str(info.value), info.value.nearest_region) == (message, None)
        assert locate_many(d, np.zeros((0, 2))).shape == (0,)


def test_locate_many_memory_is_bounded_by_its_blocks():
    """Biased [3,5,5,3] seed 0 (p=294, 1,576 region conditions): locating
    4,096 points peaks below half of one margins array over all of them
    (4,096 x 1,576 float64, 49.3 MB), which an unblocked evaluation, or
    blocks that gather margins per region condition, exceed."""
    d = decompose(biased_net([3, 5, 5, 3], 2, seed=0))
    assert (d.num_regions, d.region_rows[0].size) == (294, 1576)
    X = np.random.default_rng(0).uniform(-3.0, 3.0, size=(4096, 3))
    want = locate_many(d, X)  # also imports what numpy loads lazily
    tracemalloc.start()
    try:
        hosts = locate_many(d, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hosts.tolist() == want.tolist()
    assert peak < len(X) * d.region_rows[0].size * 4
