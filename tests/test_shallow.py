"""Extended-real arithmetic and the three-hidden-layer reconstruction."""

import dataclasses
import functools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from relu_unwrap import (
    ActivationPattern,
    AmbiguousSelectionError,
    ArithmeticFault,
    BudgetExceededError,
    Decomposition,
    DimensionMismatchError,
    Feasibility,
    IterationLimitError,
    Layer,
    LinearProgram,
    MLPNetwork,
    ModelFormatError,
    NonFiniteError,
    OrientedHalfspace,
    Region,
    ShallowNetwork,
    UnwrapError,
    build_decomposition,
    build_shallow,
    canonical_equal,
    canonicalize,
    check_feasible,
    decompose,
    dumps_shallow,
    equivalence_report,
    eval_shallow,
    eval_shallow_many,
    forward,
    forward_many,
    loads_decomposition,
    loads_shallow,
    random_init,
    shallow_to_decomposition,
    xr_add,
    xr_matvec,
    xr_mul,
    xr_relu,
)

import relu_unwrap.decomposition as decomposition_module
import relu_unwrap.lp as lp_module
import relu_unwrap.shallow as shallow_module
from conftest import (
    biased_net,
    interior_samples,
    pad_identity_layer,
    permute_hidden,
    shallow_v1_text,
)

INF = np.inf


class TestExtendedRealScalars:
    """Exhaustive special-value table for the wrapped arithmetic."""

    def test_multiplication_table(self):
        cases = [
            (INF, 0.0, 0.0),
            (0.0, INF, 0.0),
            (-INF, 0.0, 0.0),
            (0.0, -INF, 0.0),
            (INF, 2.0, INF),
            (INF, -2.0, -INF),
            (-INF, 2.0, -INF),
            (-INF, -2.0, INF),
            (2.0, INF, INF),
            (-2.0, INF, -INF),
            (2.0, -INF, -INF),
            (-2.0, -INF, INF),
            (INF, INF, INF),
            (INF, -INF, -INF),
            (-INF, -INF, INF),
            (3.0, 4.0, 12.0),
            (-3.0, 4.0, -12.0),
            (0.0, 0.0, 0.0),
        ]
        for a, b, want in cases:
            assert xr_mul(a, b) == want, (a, b)

    def test_addition_table(self):
        cases = [
            (INF, INF, INF),
            (-INF, -INF, -INF),
            (INF, 5.0, INF),
            (5.0, INF, INF),
            (-INF, 5.0, -INF),
            (5.0, -INF, -INF),
            (2.0, 3.0, 5.0),
        ]
        for a, b, want in cases:
            assert xr_add(a, b) == want, (a, b)

    def test_opposite_infinities_fault(self):
        with pytest.raises(ArithmeticFault):
            xr_add(INF, -INF)
        with pytest.raises(ArithmeticFault):
            xr_add(-INF, INF)

    def test_relu_table(self):
        assert xr_relu(-INF) == 0.0
        assert xr_relu(INF) == INF
        assert xr_relu(-3.5) == 0.0
        assert xr_relu(4.25) == 4.25
        assert xr_relu(0.0) == 0.0

    def test_relu_vectorized(self):
        got = xr_relu(np.array([-INF, -1.0, 0.0, 2.0, INF]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 2.0, INF])


class TestExtendedRealMatvec:
    def test_matches_scalar_fold(self):
        """The vectorized product agrees with elementwise fold semantics."""
        rng = np.random.default_rng(7)
        pool = np.array([-2.5, -1.0, 0.0, 0.0, 1.0, 3.75, -INF])
        for _ in range(300):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            W = rng.choice(pool, size=(rows, cols))
            x = rng.choice(np.array([-2.0, 0.0, 0.0, 1.5, 4.0]), size=cols)
            try:
                got = xr_matvec(W, x)
            except ArithmeticFault:
                got = None
            for i in range(rows):
                terms = [xr_mul(W[i, j], x[j]) for j in range(cols)]
                try:
                    want = functools.reduce(xr_add, terms)
                except ArithmeticFault:
                    assert got is None or not np.isfinite(got[i])
                    continue
                if got is not None:
                    assert got[i] == want

    def test_inf_times_zero_column(self):
        W = np.array([[-INF, 2.0]])
        np.testing.assert_array_equal(xr_matvec(W, np.array([0.0, 3.0])), [6.0])

    def test_opposite_infinity_row_faults(self):
        W = np.array([[INF, -INF]])
        with pytest.raises(ArithmeticFault):
            xr_matvec(W, np.array([1.0, 1.0]))

    def test_vector_of_another_length(self):
        with pytest.raises(DimensionMismatchError, match="^matrix has 2 columns, vector has 3 entries$"):
            xr_matvec(np.ones((1, 2)), np.ones(3))


class TestConstruction:
    def test_width_formula(self):
        """Hidden widths are exactly 2n+k, 2n+p, 2pm."""
        for seed, dims, m in [(0, [2, 3, 3], 1), (1, [3, 4, 3], 2), (4, [2, 4], 2)]:
            net = random_init(dims, m, seed)
            d = decompose(net)
            s = build_shallow(d)
            n, k, p = d.input_dim, d.num_halfspaces, d.num_regions
            assert s.widths == (2 * n + k, 2 * n + p, 2 * p * m)

    def test_first_layer_blocks(self, demo_net_m1):
        d = decompose(demo_net_m1)
        s = build_shallow(d)
        n, k = d.input_dim, d.num_halfspaces
        np.testing.assert_array_equal(s.W1[:n], np.eye(n))
        np.testing.assert_array_equal(s.W1[n : 2 * n], -np.eye(n))
        for i, hs in enumerate(d.halfspaces):
            np.testing.assert_allclose(s.W1[2 * n + i], -hs.normal)
            assert s.b1[2 * n + i] == hs.offset

    def test_only_selector_entries_are_infinite(self, demo_net_m1):
        d = decompose(demo_net_m1)
        s = build_shallow(d)
        assert np.isfinite(s.W1).all() and np.isfinite(s.W2).all()
        assert np.isfinite(s.W4).all()
        bad = ~np.isfinite(s.W3)
        assert (s.W3[bad] == -INF).all()
        p, m, n = d.num_regions, d.output_dim, d.input_dim
        # exactly one mask entry per row, on the row's own selector column
        assert bad[:, : 2 * n].sum() == 0
        assert (bad.sum(axis=1) == 1).all()
        for r in range(p):
            for j in range(m):
                assert bad[r * m + j, 2 * n + r]
                assert bad[p * m + r * m + j, 2 * n + r]

    def test_plus_inf_rejected_anywhere(self):
        with pytest.raises(NonFiniteError):
            ShallowNetwork(
                np.array([[INF]]),
                np.zeros(1),
                np.ones((1, 1)),
                np.zeros(1),
                np.ones((1, 1)),
                np.zeros(1),
                np.ones((1, 1)),
            )

    def test_neg_inf_only_in_third_weight(self):
        with pytest.raises(NonFiniteError):
            ShallowNetwork(
                np.array([[-INF]]),
                np.zeros(1),
                np.ones((1, 1)),
                np.zeros(1),
                np.ones((1, 1)),
                np.zeros(1),
                np.ones((1, 1)),
            )

    @pytest.mark.parametrize(
        "name,value,error,message",
        [
            ("W2", np.ones(6), DimensionMismatchError, "expected a matrix, got shape (6,)"),
            (
                "W2",
                shallow_module.Entries((3, 2), np.array([0.0]), np.array([0]), np.ones(1)),
                ValueError,
                "W2 entry indices must be integers",
            ),
            (
                "W3",
                shallow_module.Entries((2, 3), np.array([0, 2]), np.array([0, 0]), np.ones(2)),
                DimensionMismatchError,
                "W3 has an entry outside its shape (2, 3)",
            ),
            ("b2", np.array([0.0, np.nan, 0.0]), NonFiniteError, "b2 must be finite"),
            ("W1", np.ones((1, 1)), DimensionMismatchError, "layer widths do not fit 2n+k / 2n+p"),
        ],
        ids=["W2-not-a-matrix", "W2-float-index", "W3-outside", "b2-nan", "W1-too-narrow"],
    )
    def test_malformed_weights_rejected(self, name, value, error, message):
        """A net of n = 1, k = 0, p = 1, m = 1 with one weight replaced."""
        weights = {
            "W1": np.ones((2, 1)), "b1": np.zeros(2), "W2": np.ones((3, 2)), "b2": np.zeros(3),
            "W3": np.ones((2, 3)), "b3": np.zeros(2), "W4": np.ones((1, 2)),
        }
        ShallowNetwork(**weights)
        with pytest.raises(error) as info:
            ShallowNetwork(**{**weights, name: value})
        assert str(info.value) == message

    def test_empty_decomposition_rejected(self):
        with pytest.raises(ValueError):
            build_shallow(Decomposition.of(2, 1, (), ()))

    def test_partial_decomposition_rejected(self):
        """A budget cut in the last layer's splits (LPs 59 to 88) leaves 18
        regions of 41; the decomposition built from that partial result is
        partial by itself, and a net built from it would read 0 everywhere
        else, so it is refused."""
        net = biased_net([2, 4, 4], 2, seed=0)
        with pytest.raises(BudgetExceededError) as info:
            decompose(net, budget=70)
        d = build_decomposition(net, info.value.partial)
        assert d.partial and d.num_regions == 18
        with pytest.raises(ValueError, match="partial"):
            build_shallow(d)


class TestFunctionalIdentity:
    def test_matches_deep_network_on_samples(self):
        """The rebuilt network reproduces the original everywhere sampled."""
        for seed, dims, m in [(0, [2, 3, 3], 1), (1, [3, 4, 3], 2)]:
            net = random_init(dims, m, seed)
            s = build_shallow(decompose(net))
            rng = np.random.default_rng(seed + 31)
            pts = rng.uniform(-10, 10, size=(2000, dims[0]))
            gap = np.abs(eval_shallow_many(s, pts) - forward_many(net, pts)).max()
            assert gap <= 1e-6

    def test_scalar_and_batch_agree(self, demo_net_m2):
        s = build_shallow(decompose(demo_net_m2))
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, size=(200, 2))
        batch = eval_shallow_many(s, pts)
        for i, x in enumerate(pts):
            np.testing.assert_allclose(eval_shallow(s, x), batch[i], atol=1e-12)

    def test_affine_network_round_trip(self, affine_net):
        s = build_shallow(decompose(affine_net))
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-7, 7, size=2)
            np.testing.assert_allclose(
                eval_shallow(s, x), forward(affine_net, x).output, atol=1e-9
            )


class TestSelector:
    def test_single_region_survives_masking(self, demo_net_m1):
        """Interior points leave finite third-layer rows only for their host."""
        d = decompose(demo_net_m1)
        s = build_shallow(d)
        p, m = d.num_regions, d.output_dim
        rng = np.random.default_rng(11)
        for r in range(p):
            for x in interior_samples(d, r, rng, 20):
                a1 = xr_relu(xr_matvec(s.W1, np.asarray(x)) + s.b1)
                a2 = xr_relu(xr_matvec(s.W2, a1) + s.b2)
                z3 = xr_matvec(s.W3, a2) + s.b3
                finite = np.flatnonzero(np.isfinite(z3))
                assert set(finite) == {r * m, (p + r) * m}
                val = forward(demo_net_m1, x).output[0]
                if abs(val) > 1e-12:
                    assert (z3[finite] >= 0).sum() == 1

    def test_shared_face_with_nonzero_output_is_ambiguous(self, demo_net_m2):
        s = build_shallow(decompose(demo_net_m2))
        with pytest.raises(AmbiguousSelectionError):
            eval_shallow(s, [2.0, 0.0])

    def test_shared_face_with_zero_output_evaluates(self, demo_net_m2):
        s = build_shallow(decompose(demo_net_m2))
        np.testing.assert_allclose(eval_shallow(s, [-2.0, 0.0]), [0.0, 0.0])
        np.testing.assert_allclose(eval_shallow(s, [0.0, 0.0]), [0.0, 0.0])


class TestCanonicalForm:
    def test_canonicalize_idempotent(self):
        net = random_init([3, 4, 3], 2, seed=1)
        d = canonicalize(decompose(net))
        again = canonicalize(d)
        assert canonical_equal(d, again)
        for ra, rb in zip(d.regions, again.regions):
            np.testing.assert_array_equal(ra.alpha, rb.alpha)
            assert ra.halfspace_ids == rb.halfspace_ids

    def test_neuron_permutation_same_canonical_form(self):
        net = random_init([2, 3, 3], 1, seed=0)
        variant = permute_hidden(net, seed=9)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, size=(500, 2))
        np.testing.assert_allclose(
            forward_many(net, pts), forward_many(variant, pts), atol=1e-9
        )
        assert canonical_equal(
            canonicalize(decompose(net)), canonicalize(decompose(variant))
        )

    def test_identity_padding_same_canonical_form(self):
        net = random_init([2, 3, 3], 1, seed=0)
        variant = pad_identity_layer(net)
        assert canonical_equal(
            canonicalize(decompose(net)), canonicalize(decompose(variant))
        )

    def test_different_functions_not_equal(self):
        a = decompose(random_init([2, 3, 3], 1, seed=0))
        b = decompose(random_init([2, 3, 3], 1, seed=3))
        assert not canonical_equal(canonicalize(a), canonicalize(b))

    def test_regions_of_other_conditions_not_equal(self):
        """One table, one model: the region bounded by x > 0 and y > 0 is
        not the region bounded by x > 0 alone."""
        hs = (OrientedHalfspace(np.array([1.0, 0.0]), 0.0), OrientedHalfspace(np.array([0.0, 1.0]), 0.0))

        def quadrant(ids):
            region = Region(ActivationPattern(((1,),)), np.ones((1, 2)), np.zeros(1), ids, np.ones(2))
            return canonicalize(Decomposition.of(2, 1, hs, (region,)))

        assert canonical_equal(quadrant((0, 1)), quadrant((0, 1)))
        assert not canonical_equal(quadrant((0, 1)), quadrant((0,)))


def _reference_canonicalize(d):
    """The canonical form as it was built from per-item views: a rounded
    tuple key per half-space and per region, ``dataclasses.replace`` and
    ``Decomposition.of``."""
    places = decomposition_module._SORT_DECIMALS

    def key(h):
        return tuple(np.round(h.normal, places)) + (round(h.offset, places),)

    order = sorted(range(d.num_halfspaces), key=lambda i: key(d.halfspaces[i]))
    remap = {old: new for new, old in enumerate(order)}
    regions = [
        dataclasses.replace(
            r,
            halfspace_ids=tuple(sorted(remap[i] for i in r.halfspace_ids)),
            nonstrict_ids=tuple(sorted(remap[i] for i in r.nonstrict_ids)),
        )
        for r in d.regions
    ]
    regions.sort(
        key=lambda r: (
            tuple(np.round(r.alpha, places).ravel()), tuple(np.round(r.beta, places)), r.halfspace_ids
        )
    )
    halfspaces = [d.halfspaces[i] for i in order]
    return Decomposition.of(d.input_dim, d.output_dim, halfspaces, regions, partial=d.partial)


def _reference_unmatched_witness(a, b, tol):
    """The first unmatched witness found by comparing every pair of regions."""
    for ra in a.regions:
        for rb in b.regions:
            if (
                ra.alpha.shape == rb.alpha.shape
                and np.abs(ra.alpha - rb.alpha).max() <= tol
                and np.abs(ra.beta - rb.beta).max() <= tol
                and ra.halfspace_ids == rb.halfspace_ids
            ):
                break
        else:
            return ra.witness
    return None


def _same_arrays(a, b):
    """Bitwise equality of every array of two decompositions."""
    names = ["halfspace_normals", "halfspace_offsets", "patterns", "alphas", "betas", "witnesses"]
    pairs = [(getattr(a, f), getattr(b, f)) for f in names] + list(zip(a.region_rows, b.region_rows))
    return (a.input_dim, a.output_dim, a.hidden_widths, a.partial) == (
        b.input_dim, b.output_dim, b.hidden_widths, b.partial
    ) and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs)


GOLDEN_FILES = sorted((Path(__file__).parent / "data").glob("*.json"))
TINY_NETS = {
    "biased[2,4,4]#2": lambda: biased_net([2, 4, 4], 2, seed=2),
    "biased[3,4,3]#0": lambda: biased_net([3, 4, 3], 2, seed=0),
    "biased[2,5,5,3]#1": lambda: biased_net([2, 5, 5, 3], 2, seed=1),
    "xavier[2,4,4]#1": lambda: random_init([2, 4, 4], 2, seed=1),
    "xavier[3,4,3]#2": lambda: random_init([3, 4, 3], 2, seed=2),
    "xavier[2,6,6,6]#0": lambda: random_init([2, 6, 6, 6], 2, seed=0),
}


@pytest.fixture(scope="module")
def reference_decompositions():
    """The golden files and the tiny nets' decompositions, by name; the
    zero-bias [2,6,6,6] net merges rows within ``TOL_CANON``."""
    found = {f.name: loads_decomposition(f.read_text(encoding="utf-8")) for f in GOLDEN_FILES}
    found.update((name, decompose(make())) for name, make in TINY_NETS.items())
    return found


class TestArrayPathsMatchItemReferences:
    """Canonical forms and unmatched witnesses, computed on the arrays, are
    bitwise what the per-item code computed."""

    @pytest.mark.parametrize("name", [f.name for f in GOLDEN_FILES] + list(TINY_NETS))
    def test_canonicalize_bitwise(self, reference_decompositions, name):
        d = reference_decompositions[name]
        got = canonicalize(d)
        assert _same_arrays(got, _reference_canonicalize(d))
        assert _same_arrays(canonicalize(got), got)

    def test_unmatched_witness_same_as_per_pair_search(self, reference_decompositions):
        """Each decomposition against itself (every region matched), and
        every ordered pair of distinct ones, whose model sizes may differ."""
        forms = [canonicalize(d) for d in reference_decompositions.values()]
        kinds = set()
        for a in forms:
            for b in forms:
                got = decomposition_module._first_unmatched_witness(a, b, 1e-7)
                want = _reference_unmatched_witness(a, b, 1e-7)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                kinds.add((a is b, got is None, a.alphas.shape[1:] == b.alphas.shape[1:]))
        # matched to itself, unmatched pairs of equal and of unequal model sizes
        assert {(True, True, True), (False, False, True), (False, False, False)} <= kinds

    def test_canonical_form_of_a_perturbed_twin_has_one_unmatched_region(self):
        """A region's model moved by more than ``tol`` is the one witness
        found, in both directions, as the per-pair search finds it."""
        d = canonicalize(decompose(biased_net([2, 4, 4], 2, seed=0)))
        betas = d.betas.copy()
        betas[3, 1] += 1e-3
        twin = dataclasses.replace(d, betas=betas)
        for a, b in ((d, twin), (twin, d)):
            got = decomposition_module._first_unmatched_witness(a, b, 1e-7)
            assert got.tobytes() == _reference_unmatched_witness(a, b, 1e-7).tobytes()
            assert got.tobytes() == d.witnesses[3].tobytes()
        assert decomposition_module._first_unmatched_witness(d, twin, 1e-2) is None


class TestShallowRoundTrip:
    def test_decomposition_recovered_from_weights(self):
        """Reading the construction back yields the same canonical partition."""
        for seed, dims, m in [(0, [2, 3, 3], 1), (1, [3, 4, 3], 2)]:
            net = random_init(dims, m, seed)
            d = decompose(net)
            back = shallow_to_decomposition(build_shallow(d))
            assert canonical_equal(canonicalize(d), canonicalize(back))

    def test_round_trip_preserves_evaluation(self, demo_net_m1):
        d = decompose(demo_net_m1)
        back = shallow_to_decomposition(build_shallow(d))
        s2 = build_shallow(back)
        rng = np.random.default_rng(17)
        pts = rng.uniform(-6, 6, size=(400, 2))
        np.testing.assert_allclose(
            eval_shallow_many(s2, pts), forward_many(demo_net_m1, pts), atol=1e-9
        )

    def test_contradictory_region_is_empty(self):
        """A region bounded by x > 1 and x < -1 has no point."""
        halfspaces = (OrientedHalfspace([1.0], 1.0), OrientedHalfspace([-1.0], 1.0))
        region = Region(ActivationPattern(((1,),)), [[1.0]], [0.0], (0, 1), [0.0])
        s = build_shallow(Decomposition.of(1, 1, halfspaces, (region,)))
        with pytest.raises(UnwrapError, match="region 0 of the shallow network is empty"):
            shallow_to_decomposition(s)

    def test_refinement_out_of_pivots(self, monkeypatch, demo_net_m1):
        s = build_shallow(decompose(demo_net_m1))
        real = decomposition_module._solve

        def out_of_pivots(groups, c=None, *args):
            status, x, slack = real(groups, c, *args)
            return np.full_like(status, lp_module._LIMIT), x, slack

        monkeypatch.setattr(decomposition_module, "_solve", out_of_pivots)
        with pytest.raises(IterationLimitError, match="ran out of pivots"):
            shallow_to_decomposition(s)

    def test_pointlike_region_gets_a_closure_witness(self):
        """The all-off region of this net is the origin alone, so no point
        clears its faces; the witness comes from its closed program."""
        d = decompose(random_init([2, 3, 3], 1, seed=0))
        r = next(i for i, reg in enumerate(d.regions) if not any(reg.pattern.bits()))
        ids = list(d.regions[r].halfspace_ids)
        H, c = d.halfspace_normals[ids], d.halfspace_offsets[ids]
        pushed = LinearProgram(-H, -c, np.ones(len(ids), dtype=bool))
        assert check_feasible(pushed).status is not Feasibility.INTERIOR
        back = shallow_to_decomposition(build_shallow(d))
        assert back.regions[r].halfspace_ids == tuple(ids)
        assert (H @ back.regions[r].witness - c).min() >= -1e-9


def _scaled_first_layer(seed, scale):
    net = biased_net([2, 5, 5, 3], 1, seed)
    first = Layer(net.hidden[0].weights * scale, net.hidden[0].bias)
    return MLPNetwork((first,) + net.hidden[1:], net.output)


@functools.lru_cache(maxsize=None)
def _unscaled_counts(seed):
    d = decompose(_scaled_first_layer(seed, 1.0))
    return d.num_regions, d.num_halfspaces


SCALE_CASES = [(seed, scale) for seed in range(3) for scale in (1e-3, 1e-2, 1e2, 1e4, 3e4)] + [
    pytest.param(
        seed,
        1e5,
        marks=pytest.mark.xfail(
            strict=True,
            raises=AmbiguousSelectionError,
            reason="absolute tolerances break the rebuilt net on small regions",
        ),
    )
    for seed in (0, 2)
]


@pytest.mark.parametrize("seed,scale", SCALE_CASES)
def test_first_layer_scale(seed, scale):
    """Scaling the first-layer weights keeps p and k, and the rebuilt net
    agrees with the deep one at every witness."""
    net = _scaled_first_layer(seed, scale)
    d = decompose(net)
    assert (d.num_regions, d.num_halfspaces) == _unscaled_counts(seed)
    W = np.array([region.witness for region in d.regions])
    y = forward_many(net, W)
    assert (np.abs(eval_shallow_many(build_shallow(d), W) - y) <= 1e-9 * np.maximum(1.0, np.abs(y))).all()


class TestEquivalenceReport:
    def test_identical_networks(self):
        net = random_init([2, 3, 3], 1, seed=0)
        rep = equivalence_report(net, permute_hidden(net, seed=4), samples=2000, seed=1)
        assert rep.canonical_equal
        assert rep.max_abs_diff <= 1e-9
        assert rep.witness_of_difference is None

    def test_perturbed_bias_detected(self):
        net = random_init([2, 3, 3], 1, seed=0)
        other = MLPNetwork(
            net.hidden,
            Layer(net.output.weights, net.output.bias + 0.5),
        )
        rep = equivalence_report(net, other, samples=2000, seed=1)
        assert not rep.canonical_equal
        assert abs(rep.max_abs_diff - 0.5) < 1e-9
        assert rep.witness_of_difference is not None

    def test_unequal_networks_give_a_witness_where_outputs_differ(self):
        """The witness is the first region of the first network that nothing
        in the second matches, and the two outputs differ there."""
        a, b = biased_net([2, 4, 4], 2, seed=0), biased_net([2, 4, 4], 2, seed=1)
        rep = equivalence_report(a, b, samples=2000, seed=1)
        assert not rep.canonical_equal
        w = rep.witness_of_difference
        assert w.tobytes() == canonicalize(decompose(a)).regions[0].witness.tobytes()
        assert np.abs(forward_many(a, w[None]) - forward_many(b, w[None])).max() > 1e-3

    def test_witness_from_the_second_network_then_from_samples(self, monkeypatch):
        """With every region of the first network matched, the witness is an
        unmatched region of the second; with none unmatched either, it is the
        sample with the largest output gap."""
        a, b = biased_net([2, 4, 4], 2, seed=0), biased_net([2, 4, 4], 2, seed=1)
        real = decomposition_module._first_unmatched_witness
        searched = []

        def first_matched(da, db, tol):
            searched.append(da)
            return None if len(searched) == 1 else real(da, db, tol)

        monkeypatch.setattr(decomposition_module, "_first_unmatched_witness", first_matched)
        w = equivalence_report(a, b, samples=2000, seed=1).witness_of_difference
        assert len(searched) == 2
        assert any(w.tobytes() == r.witness.tobytes() for r in searched[1].regions)
        assert np.abs(forward_many(a, w[None]) - forward_many(b, w[None])).max() > 1e-3

        monkeypatch.setattr(decomposition_module, "_first_unmatched_witness", lambda da, db, tol: None)
        rep = equivalence_report(a, b, samples=2000, seed=1)
        X = np.random.default_rng(1).uniform(-10.0, 10.0, size=(2000, 2))
        gaps = np.abs(forward_many(a, X) - forward_many(b, X)).max(axis=1)
        (at,) = np.flatnonzero((X == rep.witness_of_difference).all(axis=1))
        assert gaps[at] == rep.max_abs_diff == gaps.max()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_below_one_refused_before_decomposing(self, monkeypatch, samples):
        def no_decomposition(net):
            raise AssertionError("decomposed before the sample count was checked")

        monkeypatch.setattr(decomposition_module, "decompose", no_decomposition)
        net = random_init([2, 3, 3], 1, seed=0)
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            equivalence_report(net, net, samples=samples)

    @pytest.mark.parametrize("dims,m", [([3, 3, 3], 1), ([2, 3, 3], 2)], ids=["inputs", "outputs"])
    def test_nets_of_other_sizes_refused(self, dims, m):
        net = random_init([2, 3, 3], 1, seed=0)
        with pytest.raises(DimensionMismatchError, match="^networks must share input and output sizes$"):
            equivalence_report(net, random_init(dims, m, seed=0))


class TestShallowSerialization:
    def test_round_trip_bit_exact(self, demo_net_m1):
        s = build_shallow(decompose(demo_net_m1))
        back = loads_shallow(dumps_shallow(s))
        for name in ("W1", "b1", "W2", "b2", "W3", "b3", "W4"):
            np.testing.assert_array_equal(getattr(s, name), getattr(back, name))

    def test_negative_infinity_token_used(self, demo_net_m1):
        text = dumps_shallow(build_shallow(decompose(demo_net_m1)))
        assert '"-Infinity"' in text
        json.loads(text)  # the document itself is plain JSON

    def test_bare_infinity_literal_rejected(self, demo_net_m1):
        text = dumps_shallow(build_shallow(decompose(demo_net_m1)))
        bad = text.replace('"-Infinity"', "-Infinity", 1)
        with pytest.raises((ModelFormatError, NonFiniteError)):
            loads_shallow(bad)

    def test_width_metadata_checked(self, demo_net_m1):
        doc = json.loads(dumps_shallow(build_shallow(decompose(demo_net_m1))))
        doc["widths"][0] += 1
        with pytest.raises(ModelFormatError):
            loads_shallow(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000], ids=["open", "closed"])
    def test_json_nested_too_deep_rejected(self, text):
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            loads_shallow(text)


# ---------------------------------------------------------------------------
# Reference: the extended-real chain the gate-first evaluation replaced


def _ref_eval(s, x):
    """Former scalar evaluation: every layer as a full xr_matvec."""
    a1 = xr_relu(xr_matvec(s.W1, x) + s.b1)
    a2 = xr_relu(xr_matvec(s.W2, a1) + s.b2)
    a3 = xr_relu(xr_matvec(s.W3, a2) + s.b3)
    if (a3 == np.inf).any():
        raise ArithmeticFault("+inf reached the gated layer")
    counts = (a3 > 0).reshape(2, s.num_regions, s.output_dim).sum(axis=(0, 1))
    if (counts > 1).any():
        raise AmbiguousSelectionError("several regions selected")
    return xr_matvec(s.W4, a3)


def _ref_eval_dense(s, X):
    """Former batch evaluation: dense layer-3 products, -inf rows overwritten."""
    A1 = xr_relu(X @ s.W1.T + s.b1)
    A2 = xr_relu(A1 @ s.W2.T + s.b2)
    neg_inf = s.W3 == -np.inf
    Z3 = A2 @ np.where(neg_inf, 0.0, s.W3).T + s.b3
    Z3[(A2 @ neg_inf.T.astype(np.float64)) > 0] = -np.inf
    A3 = xr_relu(Z3)
    counts = (A3 > 0).reshape(-1, 2, s.num_regions, s.output_dim).sum(axis=(1, 2))
    if (counts > 1).any():
        raise AmbiguousSelectionError("several regions selected")
    return A3 @ s.W4.T


def _close(got, want):
    return (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


def _assert_matches_reference(s, X, ref=_ref_eval):
    """Per point, ``ref`` and eval_shallow raise alike or agree to 1e-12
    relative.  Returns the points ``ref`` evaluates and its values there."""
    kept, want = [], []
    for x in X:
        try:
            y = ref(s, x)
        except AmbiguousSelectionError:
            with pytest.raises(AmbiguousSelectionError):
                eval_shallow(s, x)
            continue
        assert _close(eval_shallow(s, x), y)
        kept.append(x)
        want.append(y)
    return np.array(kept).reshape(-1, s.input_dim), np.array(want).reshape(-1, s.output_dim)


def _hand_built_weights(seed, m=2):
    """Random weights everywhere, with -inf entries in W3: most rows hold two
    (anywhere, selector columns included), one holds one and one none."""
    rng = np.random.default_rng(seed)
    n, k, p = 2, 3, 3
    W3 = rng.normal(size=(2 * p * m, 2 * n + p))
    for row in range(2, 2 * p * m):
        W3[row, rng.choice(2 * n + p, size=2, replace=False)] = -INF
    W3[1, rng.integers(2 * n + p)] = -INF
    return (
        rng.normal(size=(2 * n + k, n)),
        rng.normal(size=2 * n + k),
        rng.normal(size=(2 * n + p, 2 * n + k)),
        rng.normal(size=2 * n + p),
        W3,
        rng.normal(size=2 * p * m),
        rng.normal(size=(m, 2 * p * m)),
    )


def _hand_built_net(seed):
    return ShallowNetwork(*_hand_built_weights(seed))


def _mixed_weights():
    """The built net of biased [2,4,4] seed 0 with three region units that
    must stay float64 beside counted ones: region 0's has bias 0.5; region
    1's also reads, with weight 0.5, a new layer-1 unit that is always the
    smallest subnormal (so the product rounds to zero and the unit is zero
    in region 1, as the float64 layer computes it); and W3 reads region 2's
    through finite weights in region 3's first row pair.  Returns the
    decomposition and the dense weights."""
    d = decompose(biased_net([2, 4, 4], 2, seed=0))
    s = build_shallow(d)
    n, p, m = d.input_dim, d.num_regions, d.output_dim
    W2 = np.hstack([s.W2, np.zeros((s.W2.shape[0], 1))])
    W2[2 * n + 1, -1] = 0.5
    b2 = s.b2.copy()
    b2[2 * n] = 0.5
    W3 = s.W3.copy()
    W3[3 * m, 2 * n + 2] = 0.25
    W3[(p + 3) * m, 2 * n + 2] = -0.25
    weights = (
        np.vstack([s.W1, np.zeros((1, n))]),
        np.append(s.b1, 5e-324),
        W2,
        b2,
        W3,
        s.b3,
        s.W4,
    )
    return d, weights


def _mixed_net():
    d, weights = _mixed_weights()
    return d, ShallowNetwork(*weights)


def _face_points(d):
    """Each region's witness projected onto each of its half-spaces."""
    return np.array(
        [
            reg.witness
            - (d.halfspaces[i].normal @ reg.witness - d.halfspaces[i].offset)
            * d.halfspaces[i].normal
            for reg in d.regions
            for i in reg.halfspace_ids
        ]
    )


def _read_lists(g):
    """Each group's reads from ``g.reads``, in group order, numbered as the
    layer-1 units and then ``n_in + i`` for the float64 unit ``units[i]``."""
    lists = [[] for _ in g.ranked]
    for read in g.reads:
        for group, source in zip(g.ranked, g.sources[read]):
            lists[group].append(int(source))
    return lists


GATE_NETS = [
    ("[2,3,3]", lambda: random_init([2, 3, 3], 1, seed=0)),
    ("biased[2,4,4]", lambda: biased_net([2, 4, 4], 2, seed=0)),
    ("biased[3,4,3]", lambda: biased_net([3, 4, 3], 2, seed=1)),
]


class TestGateFirstMatchesReference:
    @pytest.mark.parametrize("make", [m for _, m in GATE_NETS], ids=[l for l, _ in GATE_NETS])
    def test_built_nets(self, make):
        """Uniform points and witnesses against the xr_matvec chain; points
        on region faces, whose layer-2 scores are rounding noise, against
        the former batch path, which computes layers 1 and 2 identically."""
        d = decompose(make())
        s = build_shallow(d)
        rng = np.random.default_rng(4)
        X = np.vstack(
            [rng.uniform(-6.0, 6.0, size=(300, d.input_dim))]
            + [reg.witness for reg in d.regions]
        )
        kept, want = _assert_matches_reference(s, X)
        assert len(kept) == len(X)
        assert _close(eval_shallow_many(s, X), want)
        # one point per call: a batch's layer-1 product may round these
        # scores differently (see test_face_points_alone_and_in_one_batch)
        dense = lambda s, x: _ref_eval_dense(s, x[None, :])[0]
        _assert_matches_reference(s, _face_points(d), ref=dense)

    @pytest.mark.parametrize("make", [m for _, m in GATE_NETS], ids=[l for l, _ in GATE_NETS])
    def test_face_point_batches_match_dense_layers(self, make):
        """The count gate and the dense float64 layer 2 read the same
        layer-1 product, so on any batch of face points they raise alike or
        agree."""
        d = decompose(make())
        s = build_shallow(d)
        faces = _face_points(d)
        rng = np.random.default_rng(8)
        for _ in range(30):
            X = faces[rng.choice(len(faces), size=rng.integers(2, len(faces) + 1), replace=False)]
            try:
                want = _ref_eval_dense(s, X)
            except AmbiguousSelectionError:
                with pytest.raises(AmbiguousSelectionError):
                    eval_shallow_many(s, X)
                continue
            assert _close(eval_shallow_many(s, X), want)

    @pytest.mark.parametrize("make", [m for _, m in GATE_NETS], ids=[l for l, _ in GATE_NETS])
    def test_built_nets_count_every_region_unit(self, make):
        """Only the 2n pass-through units are computed in float64; each
        region's group counts that region's half-space units."""
        d = decompose(make())
        s = build_shallow(d)
        n = d.input_dim
        g = s.gates
        np.testing.assert_array_equal(g.units, np.arange(2 * n))
        np.testing.assert_array_equal(g.cols, np.arange(2 * n))
        assert _read_lists(g) == [sorted(2 * n + i for i in reg.halfspace_ids) for reg in d.regions]

    @pytest.mark.parametrize("seed", range(4))
    def test_hand_built_masks_and_selector_weights(self, seed):
        """No W2 row is 0/1, so every layer-2 unit is computed in float64 and
        each group reads its rows' -inf columns directly."""
        s = _hand_built_net(seed)
        g = s.gates
        n_in, width = s.W1.shape[0], s.W2.shape[0]
        np.testing.assert_array_equal(g.units, np.arange(width))
        np.testing.assert_array_equal(g.units_W3, np.where(s.W3 == -INF, 0.0, s.W3))
        firsts = g.rows[g.starts[:-1]]
        assert (np.diff(firsts) > 0).all()  # groups in order of their first row
        assert firsts[0] == 0 and firsts[1] == 1  # rows with no and one -inf entry
        for group, reads in enumerate(_read_lists(g)):
            for row in g.rows[g.starts[group] : g.starts[group + 1]]:
                assert reads == list(n_in + np.flatnonzero(s.W3[row] == -INF))
        X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(400, s.input_dim))
        kept, want = _assert_matches_reference(s, X)
        assert 0 < len(kept) < len(X)  # both outcomes occur
        assert _close(eval_shallow_many(s, kept), want)

    def test_gates_of_a_built_net(self, demo_net_m1):
        """One group of 2m rows per region, in region order, reading the
        region's half-space units; layer 3 reads the pass-through units."""
        d = decompose(demo_net_m1)
        s = build_shallow(d)
        n, p, m = d.input_dim, d.num_regions, d.output_dim
        g = s.gates
        np.testing.assert_array_equal(g.units, np.arange(2 * n))
        np.testing.assert_array_equal(g.units_W3, s.W3[:, : 2 * n])
        np.testing.assert_array_equal(g.starts, 2 * m * np.arange(p + 1))
        r, j = np.arange(p)[:, None], np.arange(m)
        np.testing.assert_array_equal(g.rows.reshape(p, 2 * m), np.hstack([r * m + j, (p + r) * m + j]))
        assert _read_lists(g) == [list(np.flatnonzero(row)) for row in s.W2[2 * n :]]

    def test_counted_and_float64_units_mixed(self):
        """Units that break one condition of the count gate stay float64 and
        are still evaluated as the xr_matvec chain does."""
        d, s = _mixed_net()
        n, m = d.input_dim, d.output_dim
        np.testing.assert_array_equal(s.gates.units, np.arange(2 * n + 3))
        X = np.vstack(
            [np.random.default_rng(6).uniform(-6.0, 6.0, size=(300, n))]
            + [reg.witness for reg in d.regions]
        )
        kept, want = _assert_matches_reference(s, X)
        assert len(kept) == len(X)
        assert _close(eval_shallow_many(s, X), want)
        w0, w1 = d.regions[0].witness, d.regions[1].witness
        # region 0's bias kills it; the subnormal input leaves region 1 alive
        np.testing.assert_array_equal(eval_shallow(s, w0), np.zeros(m))
        assert (eval_shallow(s, w0) != forward(biased_net([2, 4, 4], 2, seed=0), w0).output).all()
        assert _close(eval_shallow(s, w1), d.regions[1].alpha @ w1 + d.regions[1].beta)

    def test_ambiguity_raised_through_batch(self, demo_net_m2):
        s = build_shallow(decompose(demo_net_m2))
        X = np.array([[1.0, 1.0], [-2.0, 0.0], [2.0, 0.0], [3.0, 3.0], [5.0, 0.0]])
        with pytest.raises(AmbiguousSelectionError, match="point 2:"):
            eval_shallow_many(s, X)
        np.testing.assert_allclose(
            eval_shallow_many(s, X[:2]), forward_many(demo_net_m2, X[:2]), atol=1e-12
        )

    def test_empty_batch(self, demo_net_m2):
        s = build_shallow(decompose(demo_net_m2))
        assert eval_shallow_many(s, np.zeros((0, 2))).shape == (0, 2)


@pytest.mark.xfail(
    strict=True,
    raises=AmbiguousSelectionError,
    reason="layer 1's batched product X @ W1.T rounds face points differently from "
    "one-row products; layer 2's signs follow from layer 1 alike in any batch",
)
def test_face_points_alone_and_in_one_batch():
    """The 114 of 144 face points of biased [2,4,4] seed 0 that evaluate
    alone give the same outputs as one batch."""
    d = decompose(biased_net([2, 4, 4], 2, seed=0))
    s = build_shallow(d)
    faces = _face_points(d)
    one_row = np.vstack([x[None, :] @ s.W1.T for x in faces])
    assert (one_row != faces @ s.W1.T).any(axis=1).all()  # the cause, on every point
    alone = {}
    for i, x in enumerate(faces):
        try:
            alone[i] = eval_shallow(s, x)
        except AmbiguousSelectionError:
            pass
    assert len(alone) == 114
    np.testing.assert_array_equal(eval_shallow_many(s, faces[list(alone)]), list(alone.values()))


class TestEvaluationBlocks:
    """eval_shallow_many works through its points in blocks of EVAL_BLOCK rows."""

    def test_block_size(self):
        assert shallow_module.EVAL_BLOCK == 1024

    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
    def test_rows_around_block_boundaries(self, rows):
        net = biased_net([2, 4, 4], 2, seed=0)
        s = build_shallow(decompose(net))
        X = np.random.default_rng(rows).uniform(-8.0, 8.0, size=(rows, 2))
        got = eval_shallow_many(s, X)
        assert got.shape == (rows, 2)
        np.testing.assert_allclose(got, forward_many(net, X), rtol=1e-12, atol=1e-12)
        # each row is evaluated as it would be alone in its block
        np.testing.assert_array_equal(got[1024:], eval_shallow_many(s, X[1024:]))

    @pytest.mark.parametrize("at", [1023, 1024, 1030, 2048])
    def test_ambiguity_names_the_global_row(self, demo_net_m2, at):
        s = build_shallow(decompose(demo_net_m2))
        X = np.random.default_rng(at).uniform(1.0, 4.0, size=(2049, 2))  # inside one region
        X[at] = [2.0, 0.0]  # on a shared face with a nonzero output
        with pytest.raises(AmbiguousSelectionError, match=f"point {at}:"):
            eval_shallow_many(s, X)
        X[at] = [3.0, 3.0]
        np.testing.assert_allclose(eval_shallow_many(s, X), forward_many(demo_net_m2, X), atol=1e-12)


# ---------------------------------------------------------------------------
# Entry storage: the dense construction it replaced, as references

WEIGHT_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "W4")


def _dense_weights(d):
    """The weights as build_shallow assembled them densely, before it wrote
    W2 and W3 as entries."""
    n, m = d.input_dim, d.output_dim
    p, k = d.num_regions, d.num_halfspaces
    W1 = np.vstack([np.eye(n), -np.eye(n), -d.halfspace_normals])
    b1 = np.concatenate([np.zeros(2 * n), d.halfspace_offsets])
    ids, _, starts = d.region_rows
    R = np.zeros((p, k))
    R[np.repeat(np.arange(p), np.diff(starts)), ids] = 1.0
    W2 = np.zeros((2 * n + p, 2 * n + k))
    W2[: 2 * n, : 2 * n] = np.eye(2 * n)
    W2[2 * n :, 2 * n :] = R
    alpha = np.vstack([region.alpha for region in d.regions])
    beta = np.concatenate([region.beta for region in d.regions])
    penalty = np.zeros((p * m, p))
    penalty[np.arange(p * m), np.arange(p * m) // m] = -np.inf
    W3 = np.vstack([np.hstack([alpha, -alpha, penalty]), np.hstack([-alpha, alpha, penalty])])
    project = np.kron(np.ones((1, p)), np.eye(m))
    return W1, b1, W2, np.zeros(2 * n + p), W3, np.concatenate([beta, -beta]), np.hstack([project, -project])


def _dense_gates(W2, b2, W3):
    """ShallowNetwork.gates as derived from dense W2 and W3, without
    ``reads``, and the 0/1 (groups x inputs) matrix of what each group reads,
    the former count gate's incidence (inputs numbered as in
    :func:`_read_lists`)."""
    width, n_in = W2.shape
    neg = W3 == -np.inf
    finite = np.where(neg, 0.0, W3)
    read = (finite != 0.0).any(axis=0)
    counted = ~read & (b2 == 0.0) & ((W2 == 0.0) | (W2 == 1.0)).all(axis=1)
    units = np.flatnonzero(~counted)
    rows, cols = np.nonzero(neg)
    lists = np.full((W3.shape[0], max(1, int(neg.sum(axis=1).max(initial=0)))), width, dtype=np.intp)
    lists[rows, np.arange(rows.size) - np.searchsorted(rows, rows)] = cols
    _, first, label = np.unique(lists, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    label = np.argsort(order)[label.reshape(-1)]
    feeds = np.zeros((width + 1, n_in + units.size), dtype=bool)
    feeds[:width, :n_in] = (W2 != 0.0) & counted[:, None]
    feeds[units, n_in + np.arange(units.size)] = True
    inputs = feeds[lists[first[order]]].any(axis=1)
    touched = ((W2[units] != 0.0) | np.signbit(W2[units])).any(axis=0)
    fields = {
        "units": units.astype(np.intp),
        "cols": np.flatnonzero(touched),
        "units_W2": np.array(W2[units][:, touched]),
        "units_W3": np.array(finite[:, units]),
        "sources": np.flatnonzero(inputs.any(axis=0)),
        "ranked": np.argsort(-inputs.sum(axis=1), kind="stable"),
        "rows": np.argsort(label, kind="stable").astype(np.intp),
        "starts": np.concatenate([[0], np.cumsum(np.bincount(label, minlength=order.size))]).astype(np.intp),
    }
    return fields, inputs


def _count_blocks(s, X):
    """eval_shallow_many as the dense count gate computed it, block by block:
    one float32 product of the 0/1 matrix of positive layer-1 and float64
    units with the incidence of :func:`_dense_gates` counts each group's
    positive reads, and layer 2 reads every layer-1 column.  Yields each
    block's first row, its (points x outputs) counts of selected rows, and
    its outputs."""
    f, inputs = _dense_gates(s.W2, s.b2, s.W3)
    incidence = np.ascontiguousarray(inputs.T, dtype=np.float32)
    m = s.output_dim
    for first in range(0, len(X), 1024):
        B = X[first : first + 1024]
        N = len(B)
        A1 = xr_relu(B @ s.W1.T + s.b1)
        A2 = xr_relu(A1 @ s.W2[f["units"]].T + s.b2[f["units"]])
        positive = np.hstack([A1 > 0.0, A2 > 0.0]).astype(np.float32)
        pts, groups = np.divmod(np.flatnonzero(positive @ incidence == 0.0), incidence.shape[1])
        starts = f["starts"]
        sizes = starts[groups + 1] - starts[groups]
        pts = np.repeat(pts, sizes)
        rows = f["rows"][np.arange(pts.size) + np.repeat(starts[groups] - np.cumsum(sizes) + sizes, sizes)]
        a3 = xr_relu(np.einsum("ij,ij->i", A2[pts], f["units_W3"][rows]) + s.b3[rows])
        selected = a3 > 0
        counts = np.bincount(pts[selected] * m + rows[selected] % m, minlength=N * m).reshape(N, m)
        out = np.empty((N, m))
        for j in range(m):
            out[:, j] = np.bincount(pts, weights=a3 * s.W4[j, rows], minlength=N)
        yield first, counts, out


def _count_reference(s, X):
    """The dense count gate's outputs, or the ambiguity it raises."""
    out = np.empty((len(X), s.output_dim))
    for first, counts, block in _count_blocks(s, X):
        if (counts > 1).any():
            row, j = np.argwhere(counts > 1)[0]
            raise AmbiguousSelectionError(
                f"point {first + int(row)}: {int(counts[row, j])} regions selected for "
                f"output coordinate {int(j)}"
            )
        out[first : first + len(block)] = block
    return out


def _unambiguous_rows(s, X):
    """The rows of X the dense count gate finds unambiguous in this batch."""
    return np.concatenate([~(counts > 1).any(axis=1) for _, counts, _ in _count_blocks(s, X)])


def _same_bytes(got, want):
    want = np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _outputs(s, X, evaluate=eval_shallow_many):
    """``evaluate``'s outputs as bytes, or the ambiguity it raises."""
    try:
        return evaluate(s, X).tobytes()
    except AmbiguousSelectionError as exc:
        return str(exc)


def _built(make):
    """(decomposition, built net, its weights as the dense construction made them)."""
    d = decompose(make())
    return d, build_shallow(d), _dense_weights(d)


def _given(d, weights):
    """(decomposition or None, the net of dense ``weights``, the weights)."""
    return d, ShallowNetwork(*weights), weights


STORED_NETS = (
    [(label, functools.partial(_built, make)) for label, make in GATE_NETS]
    + [(f"hand-built#{seed}", lambda seed=seed: _given(None, _hand_built_weights(seed))) for seed in range(4)]
    + [("mixed", lambda: _given(*_mixed_weights()))]
)


class TestEntryStorage:
    @pytest.mark.parametrize("make", [m for _, m in STORED_NETS], ids=[l for l, _ in STORED_NETS])
    def test_v2_and_v1_files_load_bitwise(self, make):
        """A net and its v2 file give byte-equal dense weights (-0.0
        included) and gates equal to the dense construction's.  So they
        evaluate alike, at random points and at face points.  Its dense v1
        file is no longer read."""
        d, s, weights = make()
        want, inputs = _dense_gates(weights[2], weights[3], weights[4])
        rng = np.random.default_rng(2)
        batches = [rng.uniform(-6.0, 6.0, size=(500, s.input_dim))]
        if d is not None:
            batches += [_face_points(d)] + list(_face_points(d)[:40, None])
        outputs = [_outputs(s, X) for X in batches]
        with pytest.raises(ModelFormatError, match="shallowize"):
            loads_shallow(shallow_v1_text(s))
        for net in (s, loads_shallow(dumps_shallow(s))):
            for name, w in zip(WEIGHT_NAMES, weights):
                assert _same_bytes(getattr(net, name), np.asarray(w, dtype=np.float64).reshape(getattr(net, name).shape)), name
            for field, w in want.items():
                assert _same_bytes(getattr(net.gates, field), w), field
            assert _read_lists(net.gates) == [list(np.flatnonzero(row)) for row in inputs]
            assert [_outputs(net, X) for X in batches] == outputs

    @pytest.mark.parametrize("rows", [1023, 1024, 1025])
    @pytest.mark.parametrize("make", [m for _, m in STORED_NETS], ids=[l for l, _ in STORED_NETS])
    def test_sparse_gate_matches_the_dense_count(self, make, rows):
        """Random, witness and face-point batches around a block boundary
        give the same bytes, or the same error text, as the dense float32
        count gate; so do the batches of their rows it finds unambiguous,
        repeated to the same length, which most hand-built and face-point
        batches need to reach an output."""
        d, s, _ = make()
        rng = np.random.default_rng(rows)
        batches = [rng.uniform(-6.0, 6.0, size=(rows, s.input_dim))]
        if d is not None:
            batches += [np.resize(d.witnesses, (rows, s.input_dim)), np.resize(_face_points(d), (rows, s.input_dim))]
        for X in batches:
            kept = X[_unambiguous_rows(s, X)]
            assert len(kept) > 0
            for batch in (X, np.resize(kept, X.shape)):
                assert _outputs(s, batch) == _outputs(s, batch, _count_reference)

    def test_alive_rows_summed_in_group_order(self):
        """With three outputs, a hand-built W4 sums up to three nonzero
        terms per output (three selected rows at most points here), so the
        alive rows must be summed point by point in group order, as the
        dense count gate sums them, and not in order of read count: the
        group of row 0 reads nothing, so it is ranked last."""
        s = ShallowNetwork(*_hand_built_weights(1, m=3))
        X = np.random.default_rng(3).uniform(-3.0, 3.0, size=(1025, s.input_dim))
        X = np.resize(X[_unambiguous_rows(s, X)], X.shape)
        assert _same_bytes(eval_shallow_many(s, X), _count_reference(s, X))

    def test_read_lists_hold_one_integer_per_read(self):
        """Biased [3,5,5,3] seed 0 (p=294, k=398): the read lists hold
        sum|halfspace_ids| entries, and no array of the gates has k*p cells,
        as the dense count's incidence did."""
        d = decompose(biased_net([3, 5, 5, 3], 2, seed=0))
        g = build_shallow(d).gates
        k, p = d.num_halfspaces, d.num_regions
        assert sum(read.size for read in g.reads) == sum(len(r.halfspace_ids) for r in d.regions)
        arrays = [a for a in g if isinstance(a, np.ndarray)] + list(g.reads)
        assert max(a.size for a in arrays) < k * p

    def test_built_net_keeps_written_entries(self):
        """Explicit zeros of a region model stay entries, as +0.0 and -0.0;
        a dense matrix passed in keeps only entries that are nonzero or -0.0."""
        layer = Layer(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        d = decompose(MLPNetwork((layer,), Layer(np.array([[1.0, 0.0]]), np.zeros(1))))
        s = build_shallow(d)
        n, p, m = d.input_dim, d.num_regions, d.output_dim
        assert s.W3_entries.values.size == 2 * p * m * (2 * n + 1)
        zeros = s.W3_entries.values == 0.0
        assert np.signbit(s.W3_entries.values[zeros]).any() and not np.signbit(s.W3_entries.values[zeros]).all()
        again = ShallowNetwork(s.W1, s.b1, s.W2, s.b2, s.W3, s.b3, s.W4)
        kept = again.W3_entries.values
        assert kept.size == np.count_nonzero(s.W3_entries.values) + np.count_nonzero(np.signbit(s.W3_entries.values[zeros]))
        assert _same_bytes(again.W3, s.W3)

    def test_dense_views_are_read_only_and_not_cached(self, demo_net_m1):
        s = build_shallow(decompose(demo_net_m1))
        assert s.W2 is not s.W2 and s.W3 is not s.W3
        assert not s.W2.flags.writeable and not s.W3.flags.writeable
        with pytest.raises(AttributeError):
            s.W1 = s.W1

    def test_linear_entries_and_memory(self):
        """Biased [3,5,5,3] seed 0 (p=294, k=398, m=2): the built net stores
        2n + sum|halfspace_ids| W2 entries and 2pm(2n+1) W3 entries, and
        build_shallow followed by gates allocates less than one dense float64
        W3 (2pm(2n+p) * 8 bytes, 2.8 MB); the dense build peaked at 10.4 MB."""
        d = decompose(biased_net([3, 5, 5, 3], 2, seed=0))
        n, m, p = d.input_dim, d.output_dim, d.num_regions
        assert (p, d.num_halfspaces) == (294, 398)
        build_shallow(d).gates  # first calls import lazily loaded numpy modules
        tracemalloc.start()
        try:
            s = build_shallow(d)
            s.gates
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.W2_entries.values.size == 2 * n + sum(len(r.halfspace_ids) for r in d.regions)
        assert s.W3_entries.values.size == 2 * p * m * (2 * n + 1)
        assert peak < 2 * p * m * (2 * n + p) * 8
