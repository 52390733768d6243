"""Region enumeration: exactness, pruning soundness, and serialization."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from relu_unwrap import (
    ActivationPattern,
    BudgetExceededError,
    Decomposition,
    DimensionMismatchError,
    Feasibility,
    InconsistentConstantRowError,
    IterationLimitError,
    Layer,
    LinearProgram,
    MLPNetwork,
    ModelFormatError,
    NonFiniteError,
    OrientedHalfspace,
    PatternRecord,
    Region,
    TOL_SLACK,
    UnwrapError,
    activation_pattern,
    build_shallow,
    check_feasible,
    closed_lp,
    decompose,
    dumps_decomposition,
    enumerate_feasible,
    eval_shallow_many,
    forward,
    forward_many,
    global_lp,
    global_prefix,
    is_redundant,
    loads_decomposition,
    local_linear_model,
    local_lp,
    pattern_matrix,
    random_init,
)
import relu_unwrap.decomposition as decomposition
import relu_unwrap.lp as lp_module
from relu_unwrap.explain import locate_region, region_contains

from conftest import biased_net, interior_samples


def brute_force_patterns(net):
    """Every full pattern whose stacked program has a strict interior."""
    widths = net.hidden_widths
    found = set()
    for flat in itertools.product((0, 1), repeat=sum(widths)):
        layers, at = [], 0
        for width in widths:
            layers.append(flat[at : at + width])
            at += width
        if check_feasible(global_lp(layers, net)).status is Feasibility.INTERIOR:
            found.add(flat)
    return found


def region_by_pattern(d, bits):
    for i, reg in enumerate(d.regions):
        if reg.pattern.layers == (tuple(bits),):
            return i
    raise AssertionError(f"pattern {bits} missing")


class TestDemoNetGroundTruth:
    """The two-neuron example has a fully hand-checkable partition."""

    def test_four_regions_and_four_halfspaces(self, demo_net_m2):
        d = decompose(demo_net_m2)
        assert d.num_regions == 4
        assert d.num_halfspaces == 4

    def test_boundary_normals(self, demo_net_m2):
        d = decompose(demo_net_m2)
        diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
        vert = np.array([0.0, 1.0])
        for hs in d.halfspaces:
            n = hs.normal
            ok = any(
                np.abs(n - s * ref).max() < 1e-12
                for ref in (diag, vert)
                for s in (+1.0, -1.0)
            )
            assert ok, f"unexpected normal {n}"
            assert abs(hs.offset) < 1e-12

    def test_region_models(self, demo_net_m2):
        d = decompose(demo_net_m2)
        expect = {
            (0, 0): np.zeros((2, 2)),
            (0, 1): np.array([[0.0, 0.0], [0.0, 1.0]]),
            (1, 0): np.array([[1.0, 1.0], [0.0, 0.0]]),
            (1, 1): np.array([[1.0, 1.0], [0.0, 1.0]]),
        }
        for bits, alpha in expect.items():
            reg = d.regions[region_by_pattern(d, bits)]
            np.testing.assert_allclose(reg.alpha, alpha, atol=1e-12)
            np.testing.assert_allclose(reg.beta, 0.0, atol=1e-12)

    def test_face_ownership_follows_inactive_side(self, demo_net_m2):
        """A region owns exactly the faces of its bit-0 conditions."""
        d = decompose(demo_net_m2)
        owned = {
            (0, 0): 2,
            (0, 1): 1,
            (1, 0): 1,
            (1, 1): 0,
        }
        for bits, count in owned.items():
            reg = d.regions[region_by_pattern(d, bits)]
            assert len(reg.nonstrict_ids) == count
            assert set(reg.nonstrict_ids) <= set(reg.halfspace_ids)

    def test_two_conditions_per_region(self, demo_net_m2):
        d = decompose(demo_net_m2)
        for reg in d.regions:
            assert len(reg.halfspace_ids) == 2


class TestGlobalAffine:
    def test_prefix_reproduces_preactivations(self):
        """The input-space affine form equals the layer's pre-ReLU values."""
        rng = np.random.default_rng(11)
        net = random_init([2, 5, 7, 4], 3, seed=2)
        for _ in range(100):
            x = rng.uniform(-4, 4, size=2)
            pat = activation_pattern(net, x)
            a = x
            for layer_idx in range(len(net.hidden)):
                prefix = global_prefix(pat.layers[: layer_idx + 1], net)
                z = net.hidden[layer_idx].weights @ a + net.hidden[layer_idx].bias
                np.testing.assert_allclose(
                    prefix.matrix @ x + prefix.offset, z, atol=1e-9
                )
                a = np.maximum(z, 0.0)

    def test_sampled_points_satisfy_their_lps(self):
        """Each point's pattern passes its local and global systems."""
        rng = np.random.default_rng(13)
        net = random_init([3, 4, 3], 2, seed=1)
        for _ in range(200):
            x = rng.uniform(-6, 6, size=3)
            pat = activation_pattern(net, x)
            lp = global_lp(pat.layers, net)
            vals = lp.A @ x - lp.b
            assert vals.max() <= TOL_SLACK
            a = x
            for layer_idx, layer in enumerate(net.hidden):
                loc = local_lp(
                    layer.weights,
                    layer.bias,
                    pat.layers[layer_idx],
                    nonneg_inputs=layer_idx > 0,
                )
                lv = loc.A @ a - loc.b
                assert lv.max() <= TOL_SLACK
                a = np.maximum(layer.weights @ a + layer.bias, 0.0)


class TestEnumeration:
    def test_sampled_patterns_are_enumerated(self):
        """No input ever exhibits a pattern missing from the search output."""
        for seed, dims, m in [(0, [2, 3, 3], 1), (1, [3, 4, 3], 2)]:
            net = random_init(dims, m, seed)
            res = enumerate_feasible(net)
            known = {rec.pattern.bits() for rec in res.records}
            rng = np.random.default_rng(seed + 77)
            pts = rng.uniform(-10, 10, size=(10_000, dims[0]))
            mat = pattern_matrix(net, pts)
            observed = {tuple(int(v) for v in row) for row in np.unique(mat, axis=0)}
            assert observed <= known

    def test_affine_net_single_empty_pattern(self, affine_net):
        res = enumerate_feasible(affine_net)
        assert len(res.records) == 1
        assert res.records[0].pattern.layers == ()

    def test_layer_feasible_counts_monotone_in_candidates(self):
        net = random_init([2, 3, 3], 1, seed=0)
        res = enumerate_feasible(net)
        assert len(res.layer_feasible) == 2
        assert all(v >= 1 for v in res.layer_feasible)
        assert res.candidates_checked >= sum(res.layer_feasible)

    def test_budget_exhaustion_carries_partial_result(self):
        net = random_init([2, 5, 7, 4], 3, seed=2)
        with pytest.raises(BudgetExceededError) as info:
            enumerate_feasible(net, budget=6)
        partial = info.value.partial
        assert partial.candidates_checked <= 6

    def test_budget_large_enough_never_raises(self):
        net = random_init([2, 3, 3], 1, seed=0)
        full = enumerate_feasible(net)
        again = enumerate_feasible(net, budget=full.candidates_checked)
        assert len(again.records) == len(full.records)

    def test_budget_boundary_is_the_lp_count(self):
        """The budget counts feasibility LPs: the exact count passes, one less raises."""
        net = random_init([2, 5, 7, 4], 3, seed=2)
        full = enumerate_feasible(net)
        exact = enumerate_feasible(net, budget=full.candidates_checked)
        assert exact.candidates_checked == full.candidates_checked
        with pytest.raises(BudgetExceededError) as info:
            enumerate_feasible(net, budget=full.candidates_checked - 1)
        partial = info.value.partial
        assert partial.candidates_checked == full.candidates_checked - 1
        complete = {rec.pattern.bits() for rec in full.records}
        assert {rec.pattern.bits() for rec in partial.records} <= complete

    @pytest.mark.parametrize(
        "net",
        [
            random_init([2, 3, 3], 1, seed=0),
            biased_net([2, 4, 4], 2, seed=0),
            random_init([3, 3, 2, 2], 1, seed=0),
        ],
        ids=["[2,3,3]", "biased[2,4,4]", "[3,3,2,2]"],
    )
    def test_matches_brute_force_oracle(self, net):
        """The split finds exactly the patterns whose full program is feasible."""
        res = enumerate_feasible(net)
        assert {rec.pattern.bits() for rec in res.records} == brute_force_patterns(net)
        assert res.layer_feasible[-1] == len(res.records)
        assert res.solver_fallbacks == 0

    def test_solver_fallback_keeps_cell_and_is_counted(self, monkeypatch):
        """A pivot-limit failure keeps the cell; its children are still tested."""
        net = random_init([2, 5, 7, 4], 3, seed=2)
        reference = enumerate_feasible(net)
        real = decomposition.check_feasible
        calls, raised = [], []

        def flaky(lp):
            res = real(lp)
            calls.append(lp)
            # fail once on a non-final cut that the solver would have pruned
            if not raised and res.status is not Feasibility.INTERIOR and lp.num_rows < 16:
                raised.append(lp)
                raise IterationLimitError("forced")
            return res

        monkeypatch.setattr(decomposition, "check_feasible", flaky)
        res = enumerate_feasible(net)
        assert len(raised) == 1
        kept = raised[0]
        at = next(i for i, lp in enumerate(calls) if lp is kept)
        split = [
            lp
            for lp in calls[at + 1 :]
            if lp.num_rows == kept.num_rows + 1 and np.array_equal(lp.A[:-1], kept.A)
        ]
        assert len(split) == 2, "the kept cell was not split on"
        assert res.solver_fallbacks == 1
        assert reference.solver_fallbacks == 0
        assert [rec.pattern for rec in res.records] == [rec.pattern for rec in reference.records]


class TestDecomposition:
    def test_model_agreement_on_interior_samples(self):
        """alpha x + beta equals the network inside every region."""
        rng = np.random.default_rng(19)
        for seed, dims, m in [(0, [2, 3, 3], 1), (1, [3, 4, 3], 2)]:
            net = random_init(dims, m, seed)
            d = decompose(net)
            for r, reg in enumerate(d.regions):
                pts = interior_samples(d, r, rng, 100)
                for x in pts:
                    want = forward(net, x).output
                    got = reg.alpha @ x + reg.beta
                    err = np.abs(got - want).max()
                    assert err <= 1e-9 * (1.0 + np.abs(want).max())

    def test_partition_away_from_boundaries(self):
        """Points clear of every hyperplane sit strictly inside one region."""
        rng = np.random.default_rng(23)
        net = random_init([2, 3, 3], 1, seed=0)
        d = decompose(net)
        H = np.array([hs.normal for hs in d.halfspaces])
        c = np.array([hs.offset for hs in d.halfspaces])
        count = 0
        for _ in range(2000):
            x = rng.uniform(-8, 8, size=2)
            if np.abs(H @ x - c).min() <= 1e-6:
                continue
            count += 1
            strict_hosts = 0
            for reg in d.regions:
                ids = list(reg.halfspace_ids)
                if ids and (H[ids] @ x - c[ids]).min() > 0:
                    strict_hosts += 1
                elif not ids:
                    strict_hosts += 1
            assert strict_hosts == 1
        assert count > 1500

    def test_witness_locates_to_own_region(self):
        for seed, dims, m in [(0, [2, 3, 3], 1), (1, [3, 4, 3], 2), (2, [2, 5, 7, 4], 3)]:
            net = random_init(dims, m, seed)
            d = decompose(net)
            for r, reg in enumerate(d.regions):
                assert locate_region(d, reg.witness) == r
                assert region_contains(d, r, reg.witness)

    def test_determinism_and_thread_independence(self):
        net = random_init([3, 4, 3], 2, seed=1)
        a = decompose(net)
        b = decompose(net)
        c = decompose(net, threads=2)
        for other in (b, c):
            assert a.num_regions == other.num_regions
            assert a.num_halfspaces == other.num_halfspaces
            for ra, rb in zip(a.regions, other.regions):
                assert ra.pattern == rb.pattern
                assert ra.halfspace_ids == rb.halfspace_ids
                np.testing.assert_array_equal(ra.alpha, rb.alpha)
                np.testing.assert_array_equal(ra.witness, rb.witness)
            for ha, hb in zip(a.halfspaces, other.halfspaces):
                np.testing.assert_array_equal(ha.normal, hb.normal)
                assert ha.offset == hb.offset

    def test_affine_net_single_region(self, affine_net):
        d = decompose(affine_net)
        assert d.num_regions == 1
        assert d.num_halfspaces == 0
        reg = d.regions[0]
        np.testing.assert_allclose(reg.alpha, affine_net.output.weights)
        np.testing.assert_allclose(reg.beta, affine_net.output.bias)

    def test_halfspace_normals_are_unit(self):
        net = random_init([2, 5, 7, 4], 3, seed=2)
        d = decompose(net)
        for hs in d.halfspaces:
            assert abs(np.linalg.norm(hs.normal) - 1.0) < 1e-9

    def test_region_output_shapes(self):
        net = random_init([3, 4, 3], 2, seed=1)
        d = decompose(net)
        for reg in d.regions:
            assert reg.alpha.shape == (2, 3)
            assert reg.beta.shape == (2,)


class TestHalfspaceTable:
    def test_no_duplicate_entries(self):
        net = random_init([2, 5, 7, 4], 3, seed=2)
        d = decompose(net)
        keys = {
            (tuple(np.round(hs.normal, 9)), round(hs.offset, 9))
            for hs in d.halfspaces
        }
        assert len(keys) == d.num_halfspaces

    def test_every_halfspace_is_referenced(self):
        net = random_init([3, 4, 3], 2, seed=1)
        d = decompose(net)
        used = set()
        for reg in d.regions:
            used |= set(reg.halfspace_ids)
        assert used == set(range(d.num_halfspaces))

    def test_table_is_sorted(self):
        net = random_init([2, 3, 3], 1, seed=0)
        d = decompose(net)
        keys = [
            (tuple(np.round(hs.normal, 9)), round(hs.offset, 9))
            for hs in d.halfspaces
        ]
        assert keys == sorted(keys)


class TestSerialization:
    def test_round_trip_exact(self):
        net = random_init([3, 4, 3], 2, seed=1)
        d = decompose(net)
        back = loads_decomposition(dumps_decomposition(d))
        assert back.num_regions == d.num_regions
        assert back.num_halfspaces == d.num_halfspaces
        for ra, rb in zip(d.regions, back.regions):
            assert ra.pattern == rb.pattern
            assert ra.halfspace_ids == rb.halfspace_ids
            assert ra.nonstrict_ids == rb.nonstrict_ids
            np.testing.assert_array_equal(ra.alpha, rb.alpha)
            np.testing.assert_array_equal(ra.beta, rb.beta)
            np.testing.assert_array_equal(ra.witness, rb.witness)

    def test_partial_flag_round_trips(self, demo_net_m1):
        d = decompose(demo_net_m1)
        flagged = Decomposition(
            d.input_dim, d.output_dim, d.halfspaces, d.regions, partial=True
        )
        back = loads_decomposition(dumps_decomposition(flagged))
        assert back.partial is True

    def test_bad_format_tag_rejected(self, demo_net_m1):
        doc = json.loads(dumps_decomposition(decompose(demo_net_m1)))
        doc["format"] = "nope"
        with pytest.raises(ModelFormatError):
            loads_decomposition(json.dumps(doc))

    def test_out_of_range_id_rejected(self, demo_net_m1):
        doc = json.loads(dumps_decomposition(decompose(demo_net_m1)))
        doc["regions"][0]["halfspace_ids"] = [999]
        with pytest.raises(ModelFormatError):
            loads_decomposition(json.dumps(doc))


class TestRegionValidation:
    def test_nonstrict_must_be_subset(self):
        hs = OrientedHalfspace(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            Region(
                ActivationPattern(((1,),)),
                np.zeros((1, 2)),
                np.zeros(1),
                (0,),
                np.zeros(2),
                nonstrict_ids=(1,),
            )

    def test_duplicate_patterns_rejected(self):
        hs = OrientedHalfspace(np.array([1.0, 0.0]), 0.0)
        reg = Region(
            ActivationPattern(((1,),)),
            np.zeros((1, 2)),
            np.zeros(1),
            (0,),
            np.array([1.0, 0.0]),
        )
        with pytest.raises(ValueError):
            Decomposition(2, 1, (hs,), (reg, reg))

    @pytest.mark.parametrize("field", ["alpha", "beta", "witness"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_model_or_witness_rejected(self, field, bad):
        parts = {"alpha": np.zeros((1, 2)), "beta": np.zeros(1), "witness": np.zeros(2)}
        parts[field].flat[0] = bad
        with pytest.raises(NonFiniteError):
            Region(ActivationPattern(((1,),)), parts["alpha"], parts["beta"], (), parts["witness"])


# ---------------------------------------------------------------------------
# Half-space pruning, golden outputs and the biased [3,6,6,3] regression

DATA = Path(__file__).parent / "data"


def sequential_facets(normals, offsets):
    """The pruning loop the two-pass form replaces, kept as the reference:
    drop redundant rows one at a time, each tested against the rows still
    kept, on the region's closed program (not shifted)."""
    active = list(range(len(offsets)))
    for j in range(len(offsets)):
        if len(active) < 2:
            break
        rest = LinearProgram(
            -np.asarray(normals)[active],
            -np.asarray(offsets)[active],
            np.zeros(len(active), dtype=bool),
        )
        if is_redundant(active.index(j), rest):
            active.remove(j)
    return active


PRUNING_NETS = [
    ("[2,3,3]", lambda: random_init([2, 3, 3], 1, seed=0)),
    ("[3,4,3]", lambda: random_init([3, 4, 3], 2, seed=1)),
    ("[2,5,7,4]", lambda: random_init([2, 5, 7, 4], 3, seed=2)),
    ("[3,3,2,2]", lambda: random_init([3, 3, 2, 2], 1, seed=0)),
    ("biased[2,4,4]", lambda: biased_net([2, 4, 4], 2, seed=0)),
    ("biased[3,4,3]", lambda: biased_net([3, 4, 3], 2, seed=1)),
]


def region_programs(net):
    """Each region's closed program shifted to its witness, and the rows the
    sequential loop keeps."""
    lps, wants = [], []
    for rec in enumerate_feasible(net).records:
        normals, offsets, _ = decomposition._candidates(rec, net.input_dim)
        lps.append(closed_lp(normals, offsets).shifted(rec.witness))
        wants.append(sequential_facets(normals, offsets))
    return lps, wants


class TestFacetPruning:
    @pytest.mark.parametrize("label,make", PRUNING_NETS, ids=[n for n, _ in PRUNING_NETS])
    def test_two_pass_equals_sequential_loop(self, label, make):
        """Every region keeps exactly the rows the sequential loop keeps."""
        lps, wants = region_programs(make())
        assert decomposition._facets(lps) == wants

    def test_fallbacks_give_the_same_rows(self, monkeypatch):
        """A witness on a row, a failed pass and a pass-2 disagreement all run
        the sequential loop, which keeps the same rows."""
        net = biased_net([2, 4, 4], 2, seed=0)
        cases = []
        for rec in enumerate_feasible(net).records:
            normals, offsets, _ = decomposition._candidates(rec, net.input_dim)
            cases.append((closed_lp(normals, offsets), rec.witness, sequential_facets(normals, offsets)))
        wants = [want for _, _, want in cases]
        calls = []
        real_loop = decomposition._prune_sequential

        def loop(lp):
            calls.append(lp)
            return real_loop(lp)

        monkeypatch.setattr(decomposition, "_prune_sequential", loop)
        mirrored = []
        for closed, witness, _ in cases:
            # the witness mirrored across the first row: no feasible start
            step = (closed.b[0] - closed.A[0] @ witness) / (closed.A[0] @ closed.A[0])
            mirrored.append(closed.shifted(witness + 2.0 * step * closed.A[0]))
        assert decomposition._facets(mirrored) == wants
        assert len(calls) == len(cases)

        shifted = [closed.shifted(witness) for closed, witness, _ in cases]
        monkeypatch.setattr(decomposition, "dominated", lambda res, bound: False)
        calls.clear()
        assert decomposition._facets(shifted) == wants
        assert calls  # every region with a non-facet row fell back

        monkeypatch.setattr(decomposition, "extremize", lambda directions, lps: [None] * len(lps))
        calls.clear()
        assert decomposition._facets(shifted) == wants
        assert calls

    def test_duplicate_rows_fall_back(self):
        """Two copies of a row are each redundant against the other, so pass 1
        finds no facet among them; the loop keeps one."""
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        lp = LinearProgram(A, np.ones(3), np.zeros(3, dtype=bool)).shifted(np.zeros(2))
        pair = LinearProgram(A[:2], np.ones(2), np.zeros(2, dtype=bool))
        assert decomposition._facets([lp]) == [[1, 2]]
        assert decomposition._facets([pair]) == [[1]]
        assert decomposition._facets([lp, pair]) == [[1, 2], [1]]

    def test_one_region_out_of_pivots_falls_back_alone(self, monkeypatch):
        """A region one of whose stacked programs runs out of pivots runs the
        sequential loop; every other region keeps its stacked answer."""
        lps, wants = region_programs(biased_net([2, 4, 4], 2, seed=0))
        calls = []
        real_loop = decomposition._prune_sequential

        def loop(lp):
            calls.append(lp)
            return real_loop(lp)

        monkeypatch.setattr(decomposition, "_prune_sequential", loop)
        assert decomposition._facets(lps) == wants
        assert not calls  # every region is settled by the two passes

        target = lps[len(lps) // 2]
        real_simplex = lp_module._simplex

        def simplex(G, h, c, limit):
            # the target's programs are the only ones holding its right-hand sides
            limit = np.broadcast_to(limit, len(c)).copy()
            if not calls:
                limit[np.isin(h, target.b).any(axis=1)] = -1
            return real_simplex(G, h, c, limit)

        monkeypatch.setattr(lp_module, "_simplex", simplex)
        assert decomposition._facets(lps) == wants
        assert len(calls) == 1 and calls[0] is target

    def test_stacks_hold_at_most_stack_size_programs(self, monkeypatch):
        """Pruning builds one stack at a time, so no solve is given more than
        ``STACK_SIZE`` programs however many regions there are."""
        sizes = []
        real_simplex = lp_module._simplex

        def simplex(G, h, c, limit):
            sizes.append(G.shape[0])
            return real_simplex(G, h, c, limit)

        monkeypatch.setattr(lp_module, "_simplex", simplex)
        net = biased_net([3, 4, 3], 2, seed=1)
        records = enumerate_feasible(net).records
        sizes.clear()
        decomposition.extract_halfspaces(records, net)
        assert max(sizes) == lp_module.STACK_SIZE  # the passes filled a stack


GOLDEN = [
    ("demo_net.json", lambda: MLPNetwork(
        (Layer(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2)),), Layer(np.eye(2), np.zeros(2))
    )),
    ("biased_2_4_4_seed0.json", lambda: biased_net([2, 4, 4], 2, seed=0)),
    ("biased_2_4_4_seed1.json", lambda: biased_net([2, 4, 4], 2, seed=1)),
    ("biased_3_4_3_seed1.json", lambda: biased_net([3, 4, 3], 2, seed=1)),
    ("random_2_5_7_4_m3_seed2.json", lambda: random_init([2, 5, 7, 4], 3, seed=2)),
]


class TestGoldenOutputs:
    """Decompositions are byte-identical to files written by the sequential
    pruning loop and the unshifted solver."""

    @pytest.mark.parametrize("name,make", GOLDEN, ids=[n for n, _ in GOLDEN])
    def test_dumps_byte_identical(self, name, make):
        assert dumps_decomposition(decompose(make())) == (DATA / name).read_text(encoding="utf-8")


class TestLocalLinearModel:
    @pytest.mark.parametrize("name,make", GOLDEN, ids=[n for n, _ in GOLDEN])
    def test_matches_every_golden_region(self, name, make):
        """The model of each stored region's pattern is bitwise its stored
        ``(alpha, beta)``."""
        net = make()
        d = loads_decomposition((DATA / name).read_text(encoding="utf-8"))
        for region in d.regions:
            alpha, beta = local_linear_model(region.pattern, net)
            assert alpha.shape == region.alpha.shape and beta.shape == region.beta.shape
            assert alpha.tobytes() == region.alpha.tobytes()
            assert beta.tobytes() == region.beta.tobytes()

    def test_prefix_one_layer_short_raises(self):
        net = biased_net([3, 4, 3], 2, seed=1)
        pattern = decompose(net).regions[0].pattern
        with pytest.raises(DimensionMismatchError):
            local_linear_model(ActivationPattern(pattern.layers[:-1]), net)


class TestBiased3663Regression:
    """Biased [3,6,6,3] net 2 ran out of pivots while its half-spaces were
    pruned one LP at a time; from the witness it completes."""

    def test_decomposes_and_rebuilds(self):
        net = biased_net([3, 6, 6, 3], 2, seed=2)
        res = enumerate_feasible(net)
        assert res.solver_fallbacks == 0
        d = decomposition.build_decomposition(net, res)
        assert (d.num_regions, d.num_halfspaces) == (500, 666)
        s = build_shallow(d)
        witnesses = np.array([r.witness for r in d.regions])
        samples = np.random.default_rng(3).uniform(-10.0, 10.0, size=(10_000, 3))
        for X in (witnesses, samples):
            assert np.abs(eval_shallow_many(s, X) - forward_many(net, X)).max() <= 1e-6


def test_contradicting_constant_row_is_reported():
    """A zero row whose offset contradicts its bit names its layer and neuron."""
    first = global_prefix(((1, 0),), MLPNetwork((Layer(np.eye(2), np.zeros(2)),), Layer(np.eye(2), np.zeros(2))))
    dead = decomposition.GlobalAffinePrefix(np.zeros((2, 2)), np.array([0.5, -0.5]), 2)
    for bits, neuron in ((((1, 0), (1, 1)), 1), (((1, 0), (0, 0)), 0)):
        rec = PatternRecord(ActivationPattern(bits), (first, dead), np.array([1.0, -1.0]))
        with pytest.raises(InconsistentConstantRowError, match=f"layer 2 neuron {neuron}:"):
            decomposition.extract_halfspaces([rec], random_init([2, 2, 2], 1, seed=0))


class TestWitnessPaths:
    """Every record leaves the search with a witness: the interior re-solve,
    else the split's witness, else a point of the pattern's own program."""

    def _keep_one_final_cut(self, monkeypatch, net, interior):
        """Raise on the first full-pattern split LP whose real status is
        (or, with ``interior`` False, is not) INTERIOR; returns its bits."""
        real, raised = decomposition.check_feasible, []
        full = sum(net.hidden_widths)

        def flaky(lp):
            res = real(lp)
            if not raised and lp.num_rows == full and (res.status is Feasibility.INTERIOR) == interior:
                raised.append(tuple(int(v) for v in lp.strict))
                raise IterationLimitError("forced")
            return res

        monkeypatch.setattr(decomposition, "check_feasible", flaky)
        return raised

    def test_failed_refinement_takes_the_program_witness(self, monkeypatch):
        net = biased_net([2, 4, 4], 2, seed=0)
        reference = enumerate_feasible(net)
        raised = self._keep_one_final_cut(monkeypatch, net, interior=True)
        real_many, calls = decomposition.check_feasible_many, []

        def refinement_fails(lps):
            calls.append(len(lps))
            # the first stacked call is the interior re-solve of every leaf
            return [None] * len(lps) if len(calls) == 1 else real_many(lps)

        monkeypatch.setattr(decomposition, "check_feasible_many", refinement_fails)
        res = enumerate_feasible(net)
        assert len(raised) == 1 and calls == [len(res.records), 1]
        assert res.solver_fallbacks == 1 + len(res.records)
        assert [rec.pattern for rec in res.records] == [rec.pattern for rec in reference.records]
        kept = next(rec for rec in res.records if rec.pattern.bits() == raised[0])
        own = check_feasible(global_lp(kept.pattern, net))
        assert own.status is Feasibility.INTERIOR
        np.testing.assert_array_equal(kept.witness, own.witness)

    def test_kept_empty_leaf_is_not_certified(self, monkeypatch):
        net = biased_net([2, 4, 4], 2, seed=0)
        raised = self._keep_one_final_cut(monkeypatch, net, interior=False)
        with pytest.raises(UnwrapError, match="could not be certified"):
            enumerate_feasible(net)
        assert len(raised) == 1

    def test_budget_cut_leaves_out_a_kept_empty_leaf(self, monkeypatch):
        """A budget cut still raises BudgetExceededError; its partial result
        holds only certified patterns."""
        net = biased_net([2, 4, 4], 2, seed=0)
        reference = enumerate_feasible(net)
        raised = self._keep_one_final_cut(monkeypatch, net, interior=False)
        with pytest.raises(BudgetExceededError) as info:
            enumerate_feasible(net, budget=reference.candidates_checked - 1)
        assert len(raised) == 1
        partial = info.value.partial
        found = [rec.pattern.bits() for rec in partial.records]
        assert raised[0] not in found
        assert set(found) < {rec.pattern.bits() for rec in reference.records}
        assert all(rec.witness is not None for rec in partial.records)
        assert partial.layer_feasible[-1] == len(found) + 1


class TestShapeChecks:
    """A decomposition rejects regions and half-spaces of the wrong shape."""

    @pytest.fixture
    def d(self):
        return decompose(biased_net([2, 4, 4], 2, seed=0))

    @pytest.mark.parametrize(
        "fields",
        [
            {"alpha": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "beta": [0.0, 0.0, 0.0]},
            {"alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            {"witness": [0.0, 0.0, 0.0]},
        ],
        ids=["alpha-rows", "alpha-columns", "witness"],
    )
    def test_bad_region_shape(self, d, fields):
        doc = json.loads(dumps_decomposition(d))
        doc["regions"][0].update(fields)
        with pytest.raises(ModelFormatError):
            loads_decomposition(json.dumps(doc))
        region = d.regions[0]
        bad = Region(
            region.pattern,
            np.array(fields.get("alpha", region.alpha)),
            np.array(fields.get("beta", region.beta)),
            region.halfspace_ids,
            np.array(fields.get("witness", region.witness)),
            region.nonstrict_ids,
        )
        with pytest.raises(DimensionMismatchError):
            Decomposition(d.input_dim, d.output_dim, d.halfspaces, (bad,) + d.regions[1:])

    def test_bad_normal_length(self, d):
        doc = json.loads(dumps_decomposition(d))
        doc["halfspaces"][0]["h"] = [1.0, 0.0, 0.0]
        with pytest.raises(ModelFormatError):
            loads_decomposition(json.dumps(doc))
        halfspaces = (OrientedHalfspace(np.array([1.0, 0.0, 0.0]), 0.0),) + d.halfspaces[1:]
        with pytest.raises(DimensionMismatchError):
            Decomposition(d.input_dim, d.output_dim, halfspaces, d.regions)
