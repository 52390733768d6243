"""Feature attributions, region geometry summaries, and the 2-D plot."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from relu_unwrap import (
    ActivationPattern,
    Decomposition,
    DimensionMismatchError,
    NonFiniteError,
    OrientedHalfspace,
    PointNotLocatedError,
    Region,
    brute_force_shap,
    decompose,
    exact_shap,
    forward,
    hypercube,
    locate_many,
    locate_region,
    plot_regions_2d,
    random_init,
    region_contains,
)

from conftest import biased_net, interior_samples

SQ2 = np.sqrt(2.0)


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
    return Decomposition(len(witness), len(beta), tuple(halfspaces), regs)


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
        partial = Decomposition(
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

    def test_jsonable_payload(self, triangle):
        res = exact_shap(triangle, [0.5, 1.0], [[1.0, 0.5]])
        doc = res.to_jsonable()
        assert set(doc) == {"phi", "region", "mu", "approximate"}
        assert isinstance(doc["phi"], list)
        assert doc["region"] == 0
        assert doc["approximate"] is False


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(demo_net_m2, tmp_path, bad):
    """A NaN or infinite coordinate is refused wherever points meet the table."""
    d = decompose(demo_net_m2)
    point = [bad, 1.0]
    for query in (
        lambda: locate_region(d, point),
        lambda: locate_many(d, [[1.0, 1.0], point]),
        lambda: region_contains(d, 0, point),
        lambda: exact_shap(d, point, [[1.0, 1.0]]),
        lambda: exact_shap(d, [1.0, 1.0], [[1.0, 1.0], point]),
        lambda: plot_regions_2d(d, [point], (-2, -2, 2, 2), str(tmp_path / "p.svg")),
    ):
        with pytest.raises(NonFiniteError):
            query()


class TestBruteForceShap:
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
    return Decomposition(d.input_dim, d.output_dim, d.halfspaces, rest, partial=True)


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
        d = Decomposition(2, 2, hs, regions)
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
