"""Region enumeration: exactness, pruning soundness, and serialization."""

import dataclasses
import io
import itertools
import json
import re
import warnings
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
    canonical_equal,
    canonicalize,
    check_feasible,
    check_feasible_many,
    closed_lp,
    decompose,
    dumps_decomposition,
    enumerate_feasible,
    equivalence_report,
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
    shallow_to_decomposition,
)
import relu_unwrap.decomposition as decomposition
import relu_unwrap.explain as explain_module
import relu_unwrap.lp as lp_module
import relu_unwrap.shallow as shallow_module
from relu_unwrap.explain import (
    exact_shap,
    hypercube,
    locate_many,
    locate_region,
    plot_regions_2d,
    region_contains,
)

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


# ``candidates_checked`` of ``enumerate_feasible(net)`` under the search's
# earlier settle rule, per hidden shape: Xavier nets (``random_init``) for
# seeds 0-3, then biased ones (``biased_net``); the output width plays no part
PRIOR_CANDIDATES = {
    (2, 8, 8, 8): ([472, 509, 469, 503], [1832, 1902, 2524, 1688]),
    (3, 5, 5, 3): ([487, 367, 443, 494], [810, 739, 753, 802]),
    (3, 6, 6, 3): ([829, 694, 817, 712], [1658, 1277, 1497, 1172]),
    (2, 8, 8, 4): ([342, 366, 332, 360], [1183, 1216, 1501, 1076]),
    (2, 4, 4, 3): ([108, 101, 111, 99], [246, 159, 259, 179]),
    (2, 4, 4): ([56, 54, 56, 53], [90, 70, 94, 76]),
    (3, 4, 3): ([72, 59, 71, 64], [92, 80, 94, 71]),
    (4, 5, 5): ([357, 314, 363, 404], [468, 555, 459, 490]),
    (2, 3, 3): ([29, 29, 30, 34], [32, 36, 43, 39]),
    (2, 6, 6, 6): ([292, 307, 246, 275], [899, 879, 822, 830]),
    (3, 4, 4, 4): ([288, 185, 294, 213], [517, 516, 583, 276]),
}


def route_stacked(monkeypatch, *, search=None, witness=None):
    """Route the feasibility stacks ``decomposition`` hands to the array
    entry ``_solve`` through :func:`check_feasible_many`: those of
    ``_witnesses`` go to ``witness(many, lps)``, the others (the search's
    layer pre-tests, one call per layer) to ``search(many, lps)``, given the
    stacks' programs as :class:`LinearProgram` s and answering as
    ``check_feasible_many`` does; either defaults to the real solve."""
    real, real_witnesses, inside = decomposition._solve, decomposition._witnesses, []

    def witnesses(rows, known=None):
        inside.append(True)
        try:
            return real_witnesses(rows, known)
        finally:
            inside.pop()

    def solve(groups, c=None, *args):
        hook = witness if inside else search
        if c is not None or hook is None:
            return real(groups, c, *args)
        lps = [LinearProgram(*program) for stack in groups for program in zip(*stack)]
        return as_codes(hook(check_feasible_many, lps), groups)

    monkeypatch.setattr(decomposition, "_witnesses", witnesses)
    monkeypatch.setattr(decomposition, "_solve", solve)


def as_codes(results, groups):
    """``check_feasible_many``'s results for the programs of ``groups`` as the
    ``(status, x, slack)`` arrays ``lp._solve`` returns for them."""
    d = groups[0][0].shape[2] if groups else 0
    status = [lp_module._LIMIT if res is None else lp_module._FEASIBILITY.index(res.status) for res in results]
    x = [np.full(d, np.nan) if res is None or res.witness is None else res.witness for res in results]
    slack = [np.nan if res is None or res.slack is None else res.slack for res in results]
    return np.array(status, dtype=np.intp), np.array(x).reshape(len(results), d), np.array(slack)


def test_overflowing_prefix_names_its_layer():
    """Hidden weights scaled by 1e160 overflow the affine map to layer 2 of
    biased [2,4,4] seed 0: the search refuses it there, naming the layer,
    with no overflow warning and before any program is built."""
    net = biased_net([2, 4, 4], 2, seed=0)
    big = MLPNetwork(tuple(Layer(layer.weights * 1e160, layer.bias) for layer in net.hidden), net.output)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="affine map to layer 2 overflows"):
            decompose(big)
        with pytest.raises(NonFiniteError, match="affine map to layer 2 overflows"):
            global_lp(((1, 1, 1, 1), (0, 0, 0, 0)), big)


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

    @pytest.mark.parametrize(
        "prefix,message",
        [
            ((), "prefix has 0 layers, network has 2"),
            (((1,) * 4, (1,) * 3, (1,)), "prefix has 3 layers, network has 2"),
            (((1, 1), (1, 1, 1)), "prefix layer 1 width does not match the network"),
            (((1,) * 4, (1,)), "last prefix layer width does not match"),
        ],
        ids=["none", "too-many", "first-narrow", "last-narrow"],
    )
    def test_prefix_of_another_shape_rejected(self, prefix, message):
        """Biased [3,4,3]: two hidden layers, of widths 4 and 3."""
        net = biased_net([3, 4, 3], 2, seed=1)
        for build in (global_prefix, global_lp):
            with pytest.raises(DimensionMismatchError) as info:
                build(prefix, net)
            assert str(info.value) == message

    def test_prefix_matrix_and_offset_must_agree(self):
        with pytest.raises(DimensionMismatchError, match="^prefix matrix and offset disagree$"):
            decomposition.GlobalAffinePrefix(np.ones((2, 3)), np.zeros(3), 1)

    @pytest.mark.parametrize("bias,bits", [(np.zeros(3), (1, 0)), (np.zeros(2), (1,))])
    def test_local_lp_of_disagreeing_sizes_rejected(self, bias, bits):
        with pytest.raises(DimensionMismatchError, match="^weights, bias, and bits disagree$"):
            local_lp(np.ones((2, 2)), bias, bits)

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
        assert exact.candidates_checked == full.candidates_checked and not exact.partial
        with pytest.raises(BudgetExceededError) as info:
            enumerate_feasible(net, budget=full.candidates_checked - 1)
        partial = info.value.partial
        assert partial.candidates_checked == full.candidates_checked - 1 and partial.partial
        complete = {rec.pattern.bits() for rec in full.records}
        assert {rec.pattern.bits() for rec in partial.records} <= complete

    def test_budget_cut_inside_a_pretest_stack(self, monkeypatch):
        """Every budget within one LP of an edge of a layer's pre-test stack
        raises after solving exactly that many LPs, with a certified subset
        of the patterns; the full count passes.  Each net has one stack per
        layer it opens, so [2,4,4,3] gives the edges of two stacks."""
        real, solved, edges = decomposition.check_feasible, [0], set()

        def count(lp):
            solved[0] += 1
            return real(lp)

        def stack(many, lps):
            edges.update((solved[0], solved[0] + len(lps)))
            solved[0] += len(lps)
            return many(lps)

        monkeypatch.setattr(decomposition, "check_feasible", count)
        route_stacked(monkeypatch, search=stack)
        for net in (biased_net([2, 4, 4], 2, seed=0), biased_net([2, 4, 4, 3], 2, seed=0)):
            solved[0] = 0
            edges.clear()
            full = enumerate_feasible(net)
            assert solved[0] == full.candidates_checked and len(edges) == 2 * (net.depth - 1)
            complete = {rec.pattern.bits() for rec in full.records}
            budgets = {e + d for e in edges for d in (-1, 0, 1)} & set(range(full.candidates_checked))
            for budget in sorted(budgets):
                solved[0] = 0
                with pytest.raises(BudgetExceededError) as info:
                    enumerate_feasible(net, budget=budget)
                partial = info.value.partial
                assert partial.candidates_checked == solved[0] == budget
                assert {rec.pattern.bits() for rec in partial.records} <= complete
                for rec in partial.records:
                    assert activation_pattern(net, rec.witness) == rec.pattern
            exact = enumerate_feasible(net, budget=full.candidates_checked)
            assert [rec.pattern for rec in exact.records] == [rec.pattern for rec in full.records]

    @pytest.mark.parametrize(
        "kept, fallbacks", [(1, 165), (0, 167)], ids=["first-solved", "all-out-of-pivots"]
    )
    def test_pretest_out_of_pivots_settles_nothing(self, monkeypatch, kept, fallbacks):
        """A pre-test program that runs out of pivots settles no neuron, the
        layer's first neuron included: the child it would have settled
        solves its own split LP.  Each such program counts one fallback:
        11 cells times 4 neurons plus 41 times 3, less each stack's first
        program where it is solved.  Patterns and witnesses are the
        reference's either way."""
        net = biased_net([2, 4, 4, 3], 2, seed=0)
        reference = enumerate_feasible(net)
        stacks = []

        def fail(many, lps):
            stacks.append(len(lps))
            return many(lps[:kept]) + [None] * (len(lps) - kept)

        route_stacked(monkeypatch, search=fail)
        res = enumerate_feasible(net)
        opening = reference.layer_feasible[:-1]
        # every neuron of every opening cell is tested, each cell's neuron 0 first
        assert stacks == [cells * width for cells, width in zip(opening, net.hidden_widths[1:])]
        assert res.candidates_checked > reference.candidates_checked
        assert res.layer_feasible == reference.layer_feasible
        assert reference.solver_fallbacks == 0
        assert res.solver_fallbacks == sum(stacks) - kept * len(stacks) == fallbacks
        assert [rec.pattern for rec in res.records] == [rec.pattern for rec in reference.records]
        for rec, ref in zip(res.records, reference.records):
            np.testing.assert_array_equal(rec.witness, ref.witness)

    def test_pretest_points_are_interior(self, monkeypatch):
        """Every point a cell opening a layer keeps, its witness first, clears
        the cell's strict rows by more than ``TOL_SLACK`` and meets its closed
        rows, up to the rounding of a point on one (``TOL_SLACK``, as every
        system check here); so a pre-test point can stand in for a split LP."""
        real, opened = decomposition._Search.open_layers, []

        def spy(search, cells, layer):
            out = real(search, cells, layer)
            opened.extend(out)
            return out

        monkeypatch.setattr(decomposition._Search, "open_layers", spy)
        enumerate_feasible(biased_net([2, 4, 4, 3], 2, seed=0))
        points = [(cell.rows, point) for cell in opened for point, _ in cell.points]
        assert len(points) > 2 * len(opened)  # more pre-test points than cells, besides the witnesses
        for (A, b, strict), point in points:
            margin = b - A @ point
            assert (margin[strict] > TOL_SLACK).all() and (margin[~strict] >= -TOL_SLACK).all()

    def test_pretest_points_only_save_lps(self, monkeypatch):
        """Withholding the pre-test points (every point but the witness)
        costs split LPs and changes nothing else: patterns, witnesses and
        layer counts are the same."""
        net = biased_net([2, 4, 4, 3], 2, seed=0)
        reference, real = enumerate_feasible(net), decomposition._Search.open_layers

        def bare(search, cells, layer):
            return [dataclasses.replace(cell, points=cell.points[:1]) for cell in real(search, cells, layer)]

        monkeypatch.setattr(decomposition._Search, "open_layers", bare)
        res = enumerate_feasible(net)
        assert res.candidates_checked > reference.candidates_checked
        assert res.layer_feasible == reference.layer_feasible
        assert [rec.pattern for rec in res.records] == [rec.pattern for rec in reference.records]
        for rec, ref in zip(res.records, reference.records):
            np.testing.assert_array_equal(rec.witness, ref.witness)

    @pytest.mark.parametrize(
        "net",
        [
            biased_net([2, 4, 4, 3], 2, seed=0),
            random_init([2, 4, 4, 4], 1, seed=0),
            biased_net([3, 5, 5, 3], 1, seed=1),
        ],
        ids=["biased[2,4,4,3]", "[2,4,4,4]", "biased[3,5,5,3]"],
    )
    def test_pretest_points_read_their_proved_side(self, monkeypatch, net):
        """A cell opening a layer holds its parent's witness as ``points[0]``,
        then the point of every pre-tested side found to have an interior,
        in neuron order.  Each reads, for its own neuron, the side its
        program proved, also where its value there lies in the gray zone
        ``(0, TOL_SLACK]``, so it settles that neuron's child without an LP."""
        real, opened = decomposition._Search.open_layers, []

        def spy(search, cells, layer):
            out = real(search, cells, layer)
            opened.extend(zip(cells, out))
            return out

        monkeypatch.setattr(decomposition._Search, "open_layers", spy)
        enumerate_feasible(net)
        gray = 0
        for parent, cell in opened:
            (witness, settled), *found = cell.points
            assert witness is parent.witness is cell.witness
            tested = [j for j, side in enumerate(settled) if side is not None and (j, 1 - side) not in cell.empty]
            assert len(found) == len(tested)
            for (point, sides), j in zip(found, tested):
                z = float(cell.prefix.matrix[j] @ point + cell.prefix.offset[j])
                assert sides[j] == 1 - settled[j]
                assert z > TOL_SLACK if sides[j] else z <= TOL_SLACK
                gray += 0.0 < z <= TOL_SLACK
        assert gray > 0

    @pytest.mark.parametrize("dims", list(PRIOR_CANDIDATES), ids=str)
    def test_settle_rule_never_costs_more_lps(self, dims):
        """On Xavier and biased nets of each shape, seeds 0-3, the search
        solves no more LPs than it did when neuron 0's pre-test verdict rode
        beside the cell and a pre-test point in its own neuron's gray zone
        settled nothing (the pinned counts)."""
        for make, prior in zip((random_init, biased_net), PRIOR_CANDIDATES[dims]):
            counts = [enumerate_feasible(make(list(dims), 1, seed)).candidates_checked for seed in range(4)]
            assert all(map(int.__le__, counts, prior)), (make.__name__, counts, prior)

    def test_negative_budget_is_refused(self):
        """A budget below 0 is a ``ValueError``; 0 is valid and cuts the
        search at its first LP."""
        net = biased_net([2, 4, 4], 2, seed=0)
        with pytest.raises(ValueError, match="budget must be at least 0, got -3"):
            enumerate_feasible(net, budget=-3)
        with pytest.raises(BudgetExceededError) as info:
            enumerate_feasible(net, budget=0)
        assert info.value.partial.candidates_checked == 0 and info.value.partial.records == ()

    @pytest.mark.parametrize(
        "net",
        [biased_net([2, 4, 4, 3], 2, seed=0), random_init([2, 4, 4, 4], 1, seed=0)],
        ids=["biased[2,4,4,3]", "[2,4,4,4]"],
    )
    def test_records_do_not_depend_on_stack_size(self, monkeypatch, net):
        """A layer's pre-test is cut into stacks of ``STACK_SIZE`` programs,
        each solved bitwise as alone: records and counters are the same at
        any stack size."""
        reference = enumerate_feasible(net)
        counters = (reference.candidates_checked, reference.layer_feasible, reference.solver_fallbacks)
        for size in (1, 3):
            monkeypatch.setattr(lp_module, "STACK_SIZE", size)
            res = enumerate_feasible(net)
            assert (res.candidates_checked, res.layer_feasible, res.solver_fallbacks) == counters
            assert [rec.pattern for rec in res.records] == [rec.pattern for rec in reference.records]
            for rec, ref in zip(res.records, reference.records):
                np.testing.assert_array_equal(rec.witness, ref.witness)

    @pytest.mark.parametrize(
        "net",
        [
            biased_net([2, 4, 4], 2, seed=0),
            biased_net([2, 4, 4, 3], 2, seed=0),
            random_init([2, 4, 4, 4], 1, seed=0),
            random_init([3, 3, 2, 2], 1, seed=0),
            random_init([2, 3], 1, seed=0),
        ],
        ids=["biased[2,4,4]", "biased[2,4,4,3]", "[2,4,4,4]", "[3,3,2,2]", "[2,3]"],
    )
    def test_one_pretest_call_per_opened_layer(self, monkeypatch, net):
        """Every cell that opens hidden layer l >= 2 is pre-tested in one
        stacked call for the whole layer; layer 1 has none."""
        calls = []
        route_stacked(monkeypatch, search=lambda many, lps: calls.append(len(lps)) or many(lps))
        enumerate_feasible(net)
        assert len(calls) == net.depth - 1 and all(calls)

    @pytest.mark.parametrize(
        "net", [biased_net([2, 3, 3], 2, seed=0), random_init([2, 3, 2], 1, seed=1)],
        ids=["biased[2,3,3]", "[2,3,2]"],
    )
    def test_splits_go_through_check_feasible(self, monkeypatch, net):
        """Splits inside a layer are solved one at a time through
        :func:`check_feasible`, which the benchmark traces; those calls and
        the pre-test programs are every LP ``candidates_checked`` counts."""
        real, split, stacked = decomposition.check_feasible, [0], [0]

        def count(lp):
            split[0] += 1
            return real(lp)

        def stack(many, lps):
            stacked[0] += len(lps)
            return many(lps)

        monkeypatch.setattr(decomposition, "check_feasible", count)
        route_stacked(monkeypatch, search=stack)
        res = enumerate_feasible(net)
        assert split[0] >= 1 and split[0] + stacked[0] == res.candidates_checked

    @pytest.mark.parametrize(
        "net,budget",
        [
            (biased_net([2, 4, 4, 3], 2, seed=0), None),
            (random_init([2, 8, 8, 8], 1, seed=0), None),
            (biased_net([2, 4, 4, 3], 2, seed=0), 230),
        ],
        ids=["biased[2,4,4,3]", "[2,8,8,8]", "biased[2,4,4,3]-cut"],
    )
    def test_search_builds_no_whole_pattern_rows(self, monkeypatch, net, budget):
        """Every search program is its parent cell's rows plus one row, and
        the records carry their leaves' rows on to the table, so the
        whole-pattern walk ``_prefix_chain`` is never called in
        ``decompose``, nor for the partial result of a budget cut that
        finished some patterns."""
        real, calls = decomposition._prefix_chain, []
        monkeypatch.setattr(decomposition, "_prefix_chain", lambda *args: calls.append(args) or real(*args))
        if budget is None:
            assert decompose(net).num_regions
        else:
            with pytest.raises(BudgetExceededError) as info:
                decompose(net, budget=budget)
            assert info.value.partial.records
            assert decomposition.build_decomposition(net, info.value.partial).partial
        assert calls == []

    @pytest.mark.parametrize(
        "net",
        [
            biased_net([2, 4, 4, 3], 2, seed=0),
            biased_net([3, 5, 5, 3], 2, seed=0),
            random_init([2, 8, 8, 8], 1, seed=0),
        ],
        ids=["biased[2,4,4,3]", "biased[3,5,5,3]", "[2,8,8,8]"],
    )
    def test_leaf_rows_are_their_global_lp(self, net):
        """A record's rows, grown one split at a time, are bitwise the program
        :func:`global_lp` builds for its pattern, whose bits its strict flags
        spell."""
        cuts = list(itertools.accumulate(net.hidden_widths, initial=0))
        for rec in enumerate_feasible(net).records:
            A, b, strict = rec.rows
            bits = strict.astype(int).tolist()
            assert rec.pattern == ActivationPattern([bits[a:z] for a, z in zip(cuts, cuts[1:])])
            want = global_lp(rec.pattern, net)
            assert A.tobytes() == want.A.tobytes() and A.shape == want.A.shape
            assert b.tobytes() == want.b.tobytes() and strict.tobytes() == want.strict.tobytes()

    @pytest.mark.parametrize(
        "net,budgets",
        [
            (biased_net([2, 4, 4, 3], 2, seed=0), (None, 230, 260)),
            (biased_net([3, 5, 5, 3], 2, seed=0), (None,)),
            (random_init([2, 8, 8, 8], 1, seed=0), (None,)),
            (MLPNetwork((), Layer(np.array([[2.0, -1.0]]), np.array([0.5]))), (None,)),
        ],
        ids=["biased[2,4,4,3]", "biased[3,5,5,3]", "[2,8,8,8]", "no-hidden"],
    )
    def test_record_models_are_their_local_linear_model(self, net, budgets):
        """Each record's ``(alpha, beta)`` is bitwise the model
        :func:`local_linear_model` builds for its pattern, also on the
        partial records of a budget cut."""
        for budget in budgets:
            try:
                records = enumerate_feasible(net, budget=budget).records
            except BudgetExceededError as exc:
                records = exc.partial.records
            assert records
            for rec in records:
                for got, want in zip((rec.alpha, rec.beta), local_linear_model(rec.pattern, net)):
                    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize(
        "net",
        [
            random_init([2, 3, 3], 1, seed=0),
            biased_net([2, 4, 4], 2, seed=0),
            random_init([3, 3, 2, 2], 1, seed=0),
            biased_net([2, 4, 4, 3], 2, seed=0),
            random_init([2, 4, 4, 3], 1, seed=0),
        ],
        ids=["[2,3,3]", "biased[2,4,4]", "[3,3,2,2]", "biased[2,4,4,3]", "[2,4,4,3]"],
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

    def test_search_witness_of_an_empty_program_raises(self, monkeypatch):
        """Clamping the negative right-hand sides of every split program's
        parent rows to 0.0 (one at a time or in a layer's pre-test stack)
        makes the search keep pattern (1,1,0,0 | 0,0,1,0) of biased [2,4,4]
        seed 0, whose own program has no interior.  Its all-strict solve
        fails, so only the search's witness stands for it: that program is
        solved and found empty, which raises."""
        net = biased_net([2, 4, 4], 2, seed=0)
        extra = ((1, 1, 0, 0), (0, 0, 1, 0))
        assert check_feasible(global_lp(extra, net)).status is not Feasibility.INTERIOR
        real = decomposition.check_feasible

        def clamp(lp):
            b = lp.b.copy()
            b[:-1] = np.maximum(b[:-1], 0.0)
            return LinearProgram(lp.A, b, lp.strict)

        route_stacked(monkeypatch, search=lambda many, lps: many([clamp(lp) for lp in lps]))
        real_witnesses, seen = decomposition._witnesses, []

        def spy(rows, known=None):
            seen.extend(rows)
            return real_witnesses(rows, known)

        monkeypatch.setattr(decomposition, "check_feasible", lambda lp: real(clamp(lp)))
        monkeypatch.setattr(decomposition, "_witnesses", spy)
        with pytest.raises(UnwrapError, match="has no interior point") as info:
            enumerate_feasible(net)
        A, b, _ = seen[int(re.search(r"program (\d+)", str(info.value)).group(1))]
        empty = global_lp(extra, net)
        assert np.array_equal(A, empty.A) and np.array_equal(b, empty.b)


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
        alpha, beta = local_linear_model(reg.pattern, affine_net)
        assert alpha.tobytes() == reg.alpha.tobytes() and beta.tobytes() == reg.beta.tobytes()

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
        flagged = Decomposition.of(
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

    @pytest.mark.parametrize(
        "ids,owned,reason",
        [
            ([10**30], [], "missing half-space"),
            ([-(10**30)], [], "missing half-space"),
            ([10**30], [10**30], "missing half-space"),
            ([0], [10**30], "subset"),
        ],
        ids=["beyond", "below", "beyond-owned", "owned-only"],
    )
    def test_id_beyond_the_index_range_rejected(self, demo_net_m1, ids, owned, reason):
        """An id no index array can hold names no entry of any table."""
        doc = json.loads(dumps_decomposition(decompose(demo_net_m1)))
        doc["regions"][0]["halfspace_ids"], doc["regions"][0]["nonstrict_ids"] = ids, owned
        with pytest.raises(ModelFormatError, match=reason):
            loads_decomposition(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000], ids=["open", "closed"])
    def test_json_nested_too_deep_rejected(self, text):
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            loads_decomposition(text)


def _one_region(**fields):
    """A one-region decomposition of R^2 bounded by x > 0, built from items."""
    parts = {
        "pattern": ActivationPattern(((1,),)),
        "alpha": np.zeros((1, 2)),
        "beta": np.zeros(1),
        "halfspace_ids": (0,),
        "witness": np.array([1.0, 0.0]),
    }
    parts.update(fields)
    return Decomposition.of(2, 1, (OrientedHalfspace(np.array([1.0, 0.0]), 0.0),), (Region(**parts),))


class TestRegionValidation:
    def test_nonstrict_must_be_subset(self):
        with pytest.raises(ValueError):
            _one_region(nonstrict_ids=(1,))

    def test_duplicate_patterns_rejected(self):
        d = _one_region()
        with pytest.raises(ValueError):
            Decomposition.of(2, 1, d.halfspaces, d.regions + d.regions)

    @pytest.mark.parametrize("field", ["alpha", "beta", "witness"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_model_or_witness_rejected(self, field, bad):
        parts = {"alpha": np.zeros((1, 2)), "beta": np.zeros(1), "witness": np.zeros(2)}
        parts[field].flat[0] = bad
        with pytest.raises(NonFiniteError):
            _one_region(**parts)


class TestArrayValidation:
    """The constructor checks the arrays once; each defect raises the class
    the per-item checks raised, and a file holding it is malformed."""

    @pytest.fixture(scope="class")
    def d(self):
        return decompose(biased_net([2, 4, 4], 2, seed=0))

    @staticmethod
    def _fields(d, **changes):
        fields = {f.name: getattr(d, f.name) for f in dataclasses.fields(d)}
        fields.update(changes)
        return fields

    @pytest.mark.parametrize("name", ["halfspace_normals", "halfspace_offsets", "alphas", "betas", "witnesses"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, d, name, bad):
        block = np.array(getattr(d, name))
        block.flat[block.size // 2] = bad
        with pytest.raises(NonFiniteError):
            Decomposition(**self._fields(d, **{name: block}))

    def test_normal_not_of_unit_length(self, d):
        normals = np.array(d.halfspace_normals)
        normals[3] *= 1.0 + 1e-5
        with pytest.raises(ValueError, match="half-space normal 3 has length"):
            Decomposition(**self._fields(d, halfspace_normals=normals))
        doc = json.loads(dumps_decomposition(d))
        doc["halfspaces"][3]["h"] = normals[3].tolist()
        with pytest.raises(ModelFormatError, match="length"):
            loads_decomposition(json.dumps(doc))

    @pytest.mark.parametrize("bad", [-1, "k"])
    def test_id_outside_the_table(self, d, bad):
        ids, owned, starts = d.region_rows
        ids = np.array(ids)
        ids[-1] = d.num_halfspaces if bad == "k" else bad
        with pytest.raises(ValueError, match="missing half-space"):
            Decomposition(**self._fields(d, region_rows=(ids, owned, starts)))

    @pytest.mark.parametrize("change", ["first", "last", "order"])
    def test_starts_that_do_not_cover_the_ids(self, d, change):
        ids, owned, starts = d.region_rows
        starts = np.array(starts)
        if change == "first":
            starts[0] = 1
        elif change == "last":
            starts[-1] -= 1
        else:
            starts[1], starts[2] = starts[2], starts[1]
        with pytest.raises(ValueError, match="region starts"):
            Decomposition(**self._fields(d, region_rows=(ids, owned, starts)))

    def test_owned_mask_of_another_size(self, d):
        ids, owned, starts = d.region_rows
        with pytest.raises(DimensionMismatchError, match="owned mask"):
            Decomposition(**self._fields(d, region_rows=(ids, owned[:-1], starts)))

    def test_equal_patterns(self, d):
        patterns = np.vstack([d.patterns[:1], d.patterns[:-1]])
        with pytest.raises(ValueError, match="pairwise distinct"):
            Decomposition(**self._fields(d, patterns=patterns))
        doc = json.loads(dumps_decomposition(d))
        doc["regions"][1]["pattern"] = doc["regions"][0]["pattern"]
        with pytest.raises(ModelFormatError, match="pairwise distinct"):
            loads_decomposition(json.dumps(doc))

    def test_patterns_of_unequal_layer_widths(self, d):
        doc = json.loads(dumps_decomposition(d))
        doc["regions"][0]["pattern"] = [[1]]
        with pytest.raises(ModelFormatError, match="unequal layer widths"):
            loads_decomposition(json.dumps(doc))
        short = dataclasses.replace(d.regions[0], pattern=ActivationPattern(((1,),)))
        with pytest.raises(DimensionMismatchError, match="unequal layer widths"):
            Decomposition.of(d.input_dim, d.output_dim, d.halfspaces, (short,) + d.regions[1:])

    def test_pattern_matrix_of_other_widths(self, d):
        with pytest.raises(DimensionMismatchError, match="patterns is shaped"):
            Decomposition(**self._fields(d, hidden_widths=(4, 3)))

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_pattern_entry_not_a_bit(self, d, bad):
        patterns = np.array(d.patterns, dtype=np.float64)
        patterns[0, 0] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            Decomposition(**self._fields(d, patterns=patterns))
        if bad != 0.5:  # a float bit is refused by the reader itself
            doc = json.loads(dumps_decomposition(d))
            doc["regions"][0]["pattern"][0][0] = bad
            with pytest.raises(ModelFormatError, match="0 or 1"):
                loads_decomposition(json.dumps(doc))

    def test_owned_ids_outside_the_region_in_a_file(self, d):
        doc = json.loads(dumps_decomposition(d))
        region = doc["regions"][0]
        other = next(i for i in range(d.num_halfspaces) if i not in region["halfspace_ids"])
        region["nonstrict_ids"] = region["nonstrict_ids"] + [other]
        with pytest.raises(ModelFormatError, match="subset"):
            loads_decomposition(json.dumps(doc))

    def test_arrays_are_read_only_copies(self, d):
        ids, owned, starts = (np.array(a) for a in d.region_rows)
        again = Decomposition(**self._fields(d, region_rows=(ids, owned, starts)))
        ids[0] += 1
        assert again.region_rows[0][0] == d.region_rows[0][0]
        for block in (again.halfspace_normals, again.alphas, again.patterns, *again.region_rows):
            assert not block.flags.writeable
        assert again.patterns.dtype == np.uint8


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


RAY_NETS = PRUNING_NETS + [
    ("biased[3,5,5,3]", lambda: biased_net([3, 5, 5, 3], 2, seed=0)),
    *(
        (f"xavier[2,6,6,6]#{seed}", lambda seed=seed: random_init([2, 6, 6, 6], 1, seed=seed))
        for seed in range(3)
    ),
    ("xavier[4,5,5]#2", lambda: random_init([4, 5, 5], 2, seed=2)),
]


def no_rays(A, b):
    """``lp._ray_proofs`` proving nothing: every tested row goes to the simplex."""
    return np.zeros(b.shape, dtype=bool)


def candidate_runs(net):
    """Each record of ``net`` with its region's candidate normals and offsets."""
    records = enumerate_feasible(net).records
    normals, offsets, _, _, starts = decomposition._candidates(records, net)
    return [(rec, normals[a:b], offsets[a:b]) for rec, a, b in zip(records, starts, starts[1:])]


def hinted_programs(net):
    """Each region's closed program shifted to its witness, its candidate
    normals and offsets, and the rows the pattern set hints at."""
    records = enumerate_feasible(net).records
    normals, offsets, _, neurons, starts = decomposition._candidates(records, net)
    runs = [(normals[a:b], offsets[a:b]) for a, b in zip(starts, starts[1:])]
    lps = [closed_lp(*run).shifted(rec.witness) for run, rec in zip(runs, records)]
    patterns = np.array([rec.pattern.bits() for rec in records], dtype=np.uint8).reshape(len(records), -1)
    return lps, runs, decomposition._facet_hints(patterns, neurons, starts)


def region_programs(net):
    """Each region's closed program shifted to its witness, the rows the
    sequential loop keeps, and the rows the pattern set hints at."""
    lps, runs, hints = hinted_programs(net)
    return lps, [sequential_facets(*run) for run in runs], hints


def counting_loop(monkeypatch):
    """Patch ``_prune_sequential`` to record the programs it is given."""
    calls, real_loop = [], decomposition._prune_sequential

    def loop(lp):
        calls.append(lp)
        return real_loop(lp)

    monkeypatch.setattr(decomposition, "_prune_sequential", loop)
    return calls


class TestFacetPruning:
    @pytest.mark.parametrize("label,make", PRUNING_NETS, ids=[n for n, _ in PRUNING_NETS])
    def test_two_pass_equals_sequential_loop(self, label, make):
        """Every region keeps exactly the rows the sequential loop keeps, with
        pass 1 over every row and over the hinted rows alone."""
        lps, wants, hints = region_programs(make())
        assert decomposition._facets(lps) == wants
        assert decomposition._facets(lps, hints) == wants

    def test_hints_hold_every_facet(self):
        """On a biased net every facet's one-flip pattern is found, so each
        region's hints hold every row the sequential loop keeps, and fewer
        rows than its program has in all."""
        lps, wants, hints = region_programs(biased_net([3, 4, 3], 2, seed=1))
        for want, hint in zip(wants, hints):
            assert set(want) <= set(hint.tolist())
        assert sum(map(len, hints)) < sum(lp.num_rows for lp in lps)

    def test_hint_missing_a_facet_falls_back(self, monkeypatch):
        """A region whose hints leave out a facet finds in pass 2 a row the
        hinted facets do not imply, so it runs the sequential loop and keeps
        the sequential rows; every other region keeps its two-pass answer."""
        lps, wants, hints = region_programs(biased_net([2, 4, 4], 2, seed=0))
        calls = counting_loop(monkeypatch)
        assert decomposition._facets(lps, hints) == wants
        assert not calls
        target = next(r for r, want in enumerate(wants) if len(want) >= 3)
        hints[target] = hints[target][hints[target] != wants[target][0]]
        assert decomposition._facets(lps, hints) == wants
        assert len(calls) == 1 and calls[0] is lps[target]

    def test_fallbacks_give_the_same_rows(self, monkeypatch):
        """A witness on a row, a failed pass and a pass-2 disagreement all run
        the sequential loop, which keeps the same rows."""
        cases = [
            (closed_lp(normals, offsets), rec.witness, sequential_facets(normals, offsets))
            for rec, normals, offsets in candidate_runs(biased_net([2, 4, 4], 2, seed=0))
        ]
        wants = [want for _, _, want in cases]
        calls = counting_loop(monkeypatch)
        mirrored = []
        for closed, witness, _ in cases:
            # the witness mirrored across the first row: no feasible start
            step = (closed.b[0] - closed.A[0] @ witness) / (closed.A[0] @ closed.A[0])
            mirrored.append(closed.shifted(witness + 2.0 * step * closed.A[0]))
        assert decomposition._facets(mirrored) == wants
        assert len(calls) == len(cases)

        shifted = [closed.shifted(witness) for closed, witness, _ in cases]
        monkeypatch.setattr(decomposition, "_implied", lambda status, value, bound: np.zeros(len(status), dtype=bool))
        calls.clear()
        assert decomposition._facets(shifted) == wants
        assert calls  # every region with a non-facet row fell back

        monkeypatch.undo()
        calls = counting_loop(monkeypatch)
        real = decomposition._solve

        def out_of_pivots(groups, c=None, *args):
            status, y, value = real(groups, c, *args)
            return np.full_like(status, lp_module._LIMIT), y, value

        monkeypatch.setattr(decomposition, "_solve", out_of_pivots)
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
        lps, wants, _ = region_programs(biased_net([2, 4, 4], 2, seed=0))
        calls = counting_loop(monkeypatch)
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

    @pytest.mark.parametrize("label,make", RAY_NETS, ids=[n for n, _ in RAY_NETS])
    def test_ray_facets_are_kept_by_is_redundant(self, label, make, monkeypatch):
        """Every row a ray proves kept, in the programs pass 1 hands to
        ``is_redundant``, is kept by the LP alone on the same shifted
        program, on nets with merged rows and with witnesses near 1e13 among
        them."""
        lps = [lp for lp in hinted_programs(make())[0] if lp.num_rows >= 2 and (lp.b > 0.0).all()]
        rows = [np.flatnonzero(lp_module._ray_proofs(lp.A[None], lp.b[None])[0]) for lp in lps]
        assert sum(map(len, rows)) > 0
        monkeypatch.setattr(lp_module, "_ray_proofs", no_rays)
        for verdict in is_redundant(rows, lps):
            assert verdict is not None and not verdict.any()

    @pytest.mark.parametrize("label,make", RAY_NETS, ids=[n for n, _ in RAY_NETS])
    def test_rays_leave_every_verdict_as_the_lps_give_it(self, label, make, monkeypatch):
        """``is_redundant`` of every row of every region's shifted program,
        its point on a row or not, is bitwise the same with rays proving
        nothing."""
        lps = hinted_programs(make())[0]
        rows = [np.arange(lp.num_rows) for lp in lps]
        got = is_redundant(rows, lps)
        monkeypatch.setattr(lp_module, "_ray_proofs", no_rays)
        want = is_redundant(rows, lps)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_rays_spare_pass_one_programs(self, monkeypatch):
        """Of the 1,586 rows pass 1 hands to ``is_redundant`` on biased
        [3,5,5,3] seed 0 (all of them solved by LP without rays), rays prove
        885 kept; only the other 701 reach the simplex, and the table is the
        one the LPs alone give."""
        net = biased_net([3, 5, 5, 3], 2, seed=0)
        records = enumerate_feasible(net).records
        handed, solved = [], []
        real, real_solve = decomposition.is_redundant, lp_module._solve

        def spy(rows, lps):
            if isinstance(lps, LinearProgram):
                return real(rows, lps)
            before = len(solved)
            verdicts = real(rows, lps)
            handed.append((sum(np.size(r) for r in rows), sum(solved[before:])))
            return verdicts

        def solve(groups, c=None, *args, **kwargs):
            solved.append(0 if c is None else len(c))
            return real_solve(groups, c, *args, **kwargs)

        monkeypatch.setattr(decomposition, "is_redundant", spy)
        monkeypatch.setattr(lp_module, "_solve", solve)
        got = decomposition.extract_halfspaces(records, net)
        assert handed == [(1586, 701)]
        assert sum(map(len, hinted_programs(net)[2])) == 1586

        monkeypatch.setattr(lp_module, "_ray_proofs", no_rays)
        handed.clear()
        want = decomposition.extract_halfspaces(records, net)
        assert handed == [(1586, 1586)]
        for x, y in zip((got[0], got[1], *got[2]), (want[0], want[1], *want[2])):
            assert x.tobytes() == y.tobytes()

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
        # passes 1 and 2 on this net have 103 and 117 programs: a smaller stack size is filled
        monkeypatch.setattr(lp_module, "STACK_SIZE", 64)
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

    @pytest.mark.parametrize("name", [name for name, _ in GOLDEN])
    def test_items_rebuild_the_arrays_bitwise(self, name):
        """The per-item views hold the arrays' data exactly: rebuilding from
        them gives every array back, bit for bit."""
        d = loads_decomposition((DATA / name).read_text(encoding="utf-8"))
        again = Decomposition.of(d.input_dim, d.output_dim, d.halfspaces, d.regions, partial=d.partial)
        assert again.hidden_widths == d.hidden_widths and again.partial == d.partial
        names = ["halfspace_normals", "halfspace_offsets", "patterns", "alphas", "betas", "witnesses"]
        for x, y in zip([getattr(again, f) for f in names] + list(again.region_rows),
                        [getattr(d, f) for f in names] + list(d.region_rows)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize(
        "name,make",
        GOLDEN + [(None, lambda: biased_net([2, 8, 8, 4], 2, seed=0))],
        ids=[n for n, _ in GOLDEN] + ["biased[2,8,8,4]"],
    )
    def test_witnesses_realise_their_patterns(self, name, make):
        """Every region's witness has the region's own pattern, read as the
        network computes it, in the golden files and the decomposition of a
        deeper net."""
        net = make()
        d = decompose(net) if name is None else loads_decomposition((DATA / name).read_text(encoding="utf-8"))
        assert d.hidden_widths == net.hidden_widths
        got = pattern_matrix(net, d.witnesses)
        assert got.dtype == d.patterns.dtype and np.array_equal(got, d.patterns)


class TestOneStorage:
    """Pipelines, file I/O and queries read the arrays: they build no
    per-item :class:`Region`, :class:`OrientedHalfspace` or
    :class:`ActivationPattern`."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {Region: 0, OrientedHalfspace: 0, ActivationPattern: 0}
        for cls in counts:

            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                counts[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return counts

    def test_build_load_and_query_build_no_items(self, built):
        net = biased_net([2, 4, 4], 2, seed=0)
        res = enumerate_feasible(net)
        built[ActivationPattern] = 0  # each of the search's records carries one
        none = {Region: 0, OrientedHalfspace: 0, ActivationPattern: 0}
        assert built == none
        d = decomposition.build_decomposition(net, res)
        assert built == none
        back = loads_decomposition(dumps_decomposition(d))
        X = np.random.default_rng(4).uniform(-3.0, 3.0, size=(50, 2))
        exact_shap(back, X[0], X)
        hosts = locate_many(back, X)
        for r in np.unique(hosts).tolist():
            hypercube(back, r)
        plot_regions_2d(back, X, (-3.0, -3.0, 3.0, 3.0), io.BytesIO())
        s = build_shallow(back)
        shallow_to_decomposition(s)
        assert dumps_decomposition(back) == dumps_decomposition(d)
        assert built == none
        # the views are where items come from
        assert len(back.regions) == built[Region] == built[ActivationPattern] == d.num_regions
        assert len(back.halfspaces) == built[OrientedHalfspace] == d.num_halfspaces
        assert back.regions is back.regions

    def test_canonical_forms_build_no_items(self, built):
        a, b = (
            loads_decomposition((DATA / name).read_text(encoding="utf-8"))
            for name in ("biased_2_4_4_seed0.json", "biased_2_4_4_seed1.json")
        )
        ca, cb = canonicalize(a), canonicalize(b)
        assert canonical_equal(ca, canonicalize(ca)) and not canonical_equal(ca, cb)
        assert decomposition._first_unmatched_witness(ca, ca, 1e-7) is None
        for x, y in ((ca, cb), (cb, ca)):
            assert decomposition._first_unmatched_witness(x, y, 1e-7) is not None
        assert built == {Region: 0, OrientedHalfspace: 0, ActivationPattern: 0}

    def test_equivalence_report_builds_only_the_search_records(self, built):
        """The one item each found pattern's record carries, p_a + p_b in all."""
        a, b = biased_net([2, 4, 4], 2, seed=0), biased_net([2, 4, 4], 2, seed=1)
        found = decompose(a).num_regions + decompose(b).num_regions
        built[ActivationPattern] = 0
        rep = equivalence_report(a, b, samples=100)
        assert not rep.canonical_equal and rep.witness_of_difference is not None
        assert built == {Region: 0, OrientedHalfspace: 0, ActivationPattern: found}

    def test_only_the_decomposition_rounds_sort_keys(self):
        for module in (shallow_module, explain_module):
            assert not {"_SORT_DECIMALS", "_sort_key"} & set(vars(module)), module.__name__


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


@pytest.mark.parametrize(
    "make",
    [lambda: biased_net([3, 4, 3], 2, seed=1), lambda: random_init([2, 6, 6, 6], 2, seed=0)],
    ids=["biased[3,4,3]", "xavier[2,6,6,6]"],
)
def test_extract_halfspaces_returns_region_rows(make):
    """The table comes with :attr:`Decomposition.region_rows` as (intp,
    bool, intp) arrays, one run per record, every run sorted; they are the
    decomposition's own."""
    net = make()
    res = enumerate_feasible(net)
    normals, offsets, (ids, owned, starts) = decomposition.extract_halfspaces(res.records, net)
    assert (ids.dtype, owned.dtype, starts.dtype) == (np.dtype(np.intp), np.dtype(bool), np.dtype(np.intp))
    assert ids.shape == owned.shape and starts.shape == (len(res.records) + 1,)
    assert starts[0] == 0 and starts[-1] == ids.size
    assert all((np.diff(ids[a:b]) > 0).all() for a, b in zip(starts, starts[1:]))
    d = decomposition.build_decomposition(net, res)
    wants = (d.halfspace_normals, d.halfspace_offsets, *d.region_rows)
    for got, want in zip((normals, offsets, ids, owned, starts), wants):
        assert got.tobytes() == want.tobytes()


def per_region_candidates(rec):
    """One region's candidates ``(normals, offsets, any_strict, neurons)`` as
    the per-region loop gave them, kept as the reference for the
    whole-array form: ``neurons`` is None where rows merged or a zero row
    vanishes, and rows merge into the first earlier candidate within
    ``TOL_CANON``, in row order."""
    A, b, strict = rec.rows
    lengths = decomposition._row_lengths(A)
    live = lengths > decomposition.TOL_DEGENERATE
    vanishing = bool((np.abs(b[~live]) <= decomposition.TOL_CANON).any())
    normals = -A[live] / lengths[live, None]
    offsets = -b[live] / lengths[live]
    strict = strict[live].tolist()
    close = (np.abs(offsets[:, None] - offsets) <= decomposition.TOL_CANON) & (
        np.abs(normals[:, None] - normals).max(axis=2, initial=0.0) <= decomposition.TOL_CANON
    )
    if not np.triu(close, 1).any():
        return normals, offsets.tolist(), strict, None if vanishing else np.flatnonzero(live)
    keep, any_strict = [], []
    for i in range(len(offsets)):
        hit = next((t for t, j in enumerate(keep) if close[i, j]), None)
        if hit is None:
            keep.append(i)
            any_strict.append(strict[i])
        else:
            any_strict[hit] = any_strict[hit] or strict[i]
    return normals[keep], offsets[keep].tolist(), any_strict, None


@pytest.mark.parametrize(
    "make,records,merged",
    [
        (lambda: random_init([2, 6, 6, 6], 1, seed=0), slice(None), 30),
        (lambda: random_init([2, 6, 6, 6], 1, seed=1), slice(None), 6),
        (lambda: random_init([2, 6, 6, 6], 1, seed=2), slice(None), 12),
        (lambda: biased_net([2, 4, 4, 3], 2, seed=0), slice(None), 0),
        (lambda: biased_net([2, 4, 4, 3], 2, seed=0), slice(1), 0),
        (lambda: biased_net([2, 4, 4, 3], 2, seed=0), slice(0), 0),
    ],
    ids=[*(f"xavier[2,6,6,6]#{seed}" for seed in range(3)), "biased[2,4,4,3]", "one record", "no records"],
)
def test_candidates_of_all_records_are_the_per_region_ones(make, records, merged):
    """The whole-array candidates are bitwise the per-region loop's, region by
    region: normals, offsets, ``any_strict``, and neurons, -1 throughout a
    region where the loop gives None.  The Xavier nets merge rows (30, 6
    and 12 in all), the biased net has gated-off zero rows."""
    net = make()
    records = enumerate_feasible(net).records[records]
    normals, offsets, any_strict, neurons, starts = decomposition._candidates(records, net)
    assert starts.tolist()[:1] == [0] and starts.size == len(records) + 1 and starts[-1] == offsets.size
    assert normals.shape == (offsets.size, 2)
    assert (any_strict.dtype, neurons.dtype) == (np.dtype(bool), np.dtype(np.intp))
    rows = zero = 0
    for rec, a, b in zip(records, starts, starts[1:]):
        want = per_region_candidates(rec)
        assert normals[a:b].tobytes() == want[0].tobytes()
        assert offsets[a:b].tobytes() == np.array(want[1]).tobytes()
        assert any_strict[a:b].tolist() == want[2]
        if want[3] is None:
            assert (neurons[a:b] == -1).all()
        else:
            assert neurons[a:b].tobytes() == want[3].tobytes()
        lengths = decomposition._row_lengths(rec.rows[0])
        rows += int(np.count_nonzero(lengths > decomposition.TOL_DEGENERATE))
        zero += int(np.count_nonzero(lengths <= decomposition.TOL_DEGENERATE))
    assert rows - offsets.size == merged
    if len(records) > 1 and merged == 0:
        assert zero > 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: biased_net([2, 4, 4, 3], 2, seed=0),
        lambda: biased_net([3, 5, 5, 3], 2, seed=0),
        lambda: random_init([2, 8, 8, 8], 1, seed=0),
    ],
    ids=["biased[2,4,4,3]", "biased[3,5,5,3]", "[2,8,8,8]"],
)
def test_row_lengths_are_the_per_row_norm(make):
    """``_row_lengths``, which both the witness refinement and the candidate
    conditions test against ``TOL_DEGENERATE``, gives each leaf row's length
    bitwise as ``np.linalg.norm(row)`` does, zero rows of a net without
    biases included."""
    net = make()
    for rec in enumerate_feasible(net).records:
        A = global_lp(rec.pattern, net).A
        want = np.array([np.linalg.norm(row) for row in A])
        assert decomposition._row_lengths(A).tobytes() == want.tobytes()


def test_sort_keys_round_rows_by_numpy_and_offsets_by_python():
    """Order keys round a row's entries by numpy and its offset by Python's
    ``round``, which split a halfway value, and equal keys keep their
    first-seen order."""
    low, high = -0.0029999995, -0.002999999
    assert np.round(low, 9) < high == round(low, 9)
    order = decomposition._sort_order(decomposition._sort_keys(np.ones((2, 1)), np.array([high, low])))
    assert order.dtype == np.intp and order.tolist() == [0, 1]
    assert decomposition._sort_order(decomposition._sort_keys(np.array([[high], [low]]))).tolist() == [1, 0]


def test_shift_builds_one_program(monkeypatch):
    """A split program is built once, over the search's own arrays with no
    copy, shifted to the parent witness as :meth:`LinearProgram.shifted`
    shifts it, or left unshifted when the start violates more rows than the
    origin."""
    built, real_of = [], LinearProgram._of

    def counted(A, b, strict):
        built.append(real_of(A, b, strict))
        return built[-1]

    monkeypatch.setattr(LinearProgram, "_of", staticmethod(counted))
    rng = np.random.default_rng(0)
    A, b, strict = rng.normal(size=(6, 3)), rng.uniform(1.0, 2.0, 6), rng.random(6) < 0.5
    lp = LinearProgram(A, b, strict)
    for start, shifted in ((rng.normal(size=3) * 0.1, True), (A[0] * 10.0, False), (None, False)):
        built.clear()
        got, used = decomposition._Search._shift(A, b, strict, start)
        assert len(built) == 1 and (used is start if shifted else used is None)
        assert got.A is A and got.strict is strict and (got.b is b) is not shifted
        want = lp.shifted(start) if shifted else lp
        assert all(getattr(got, f).tobytes() == getattr(want, f).tobytes() for f in ("A", "b", "strict"))


class TestShiftOverflow:
    """A program shifted to a far point whose right-hand sides overflow is
    refused by ``decomposition._finite`` with the message the validating
    :class:`LinearProgram` constructor gives.  The overflow itself is
    numpy's, so its warning is silenced here."""

    message = "^linear program entries must be finite$"

    def test_split_shift_overflowing_to_infinity(self):
        """``A @ start`` overflows to -inf on row 0, so the moved right-hand
        side is +inf there: no row is violated and the shift is chosen."""
        A, b, strict = np.array([[-2.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0]), np.array([True, False])
        start = np.array([1e308, 0.0])
        with np.errstate(over="ignore"):
            assert np.isposinf(b - A @ start).tolist() == [True, False]
            with pytest.raises(NonFiniteError, match=self.message):
                decomposition._Search._shift(A, b, strict, start)
            # overflowing to -inf violates the row, so the program stays unshifted
            lp, used = decomposition._Search._shift(-A, b, strict, start)
        assert used is None and lp.b is b

    def test_region_witness_near_the_float_limit(self):
        """A record whose witness is about 1e308 overflows its region's
        shifted closed program in ``extract_halfspaces``."""
        net = biased_net([2, 4, 4], 2, seed=0)
        records = list(enumerate_feasible(net).records)
        records[3] = dataclasses.replace(records[3], witness=np.full(2, 1.7e308))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=self.message):
            decomposition.extract_halfspaces(records, net)

    def test_hypercube_of_a_far_witness(self):
        """``hypercube`` shifts the region's rows to its stored witness."""
        hs = (OrientedHalfspace(np.array([0.6, 0.8]), 1.0),)
        region = Region(ActivationPattern(((1,),)), np.ones((1, 2)), np.zeros(1), (0,), np.full(2, 1.7e308))
        d = Decomposition.of(2, 1, hs, (region,))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=self.message):
            hypercube(d, 0)


@pytest.mark.parametrize(
    "name,make",
    GOLDEN + [("xavier[2,8,8,8]", lambda: random_init([2, 8, 8, 8], 1, seed=0))],
    ids=[n for n, _ in GOLDEN] + ["xavier[2,8,8,8]"],
)
def test_closed_rows_are_the_shifted_closed_program(name, make):
    """``_closed_rows(N, c, w)`` is bitwise ``closed_lp(N, c).shifted(w)``,
    for every region's candidate rows at its witness and every region's
    table rows at its stored witness.  The zero-bias net has rows with
    ``c = 0`` at the witness 0, whose right-hand side is -0.0, where ``N @ w
    - c`` would give 0.0."""
    net = make()
    d = decompose(net)
    ids, _, starts = d.region_rows
    cases = [(normals, offsets, rec.witness) for rec, normals, offsets in candidate_runs(net)]
    cases += [(d.halfspace_normals[ids[a:b]], d.halfspace_offsets[ids[a:b]], w)
              for a, b, w in zip(starts, starts[1:], d.witnesses)]
    negative_zeros = 0
    for normals, offsets, w in cases:
        want = closed_lp(normals, offsets).shifted(w)
        for got, field in zip(decomposition._closed_rows(normals, offsets, w), ("A", "b", "strict")):
            same = getattr(want, field)
            assert (got.dtype, got.shape, got.tobytes()) == (same.dtype, same.shape, same.tobytes())
        negative_zeros += int(np.count_nonzero(np.signbit(want.b) & (want.b == 0.0)))
    if name == "xavier[2,8,8,8]":
        assert negative_zeros > 0


class TestProgramsBuiltOnce:
    """Every :class:`LinearProgram` the library builds is solved as built,
    and each stage builds only the programs it solves; the stacks the
    library builds as arrays go straight to the array entry ``lp._solve``."""

    @pytest.fixture
    def ledger(self, monkeypatch):
        """``(built, solved, stacked)``: every program built, by its
        constructor or over the library's own arrays (``_of``), every program
        passed to the solver's public drivers, kept as objects, and the
        program count of every stack ``decomposition`` hands to ``_solve``
        (``shallow`` reaches it through ``_witnesses``)."""
        built, solved, stacked = [], [], []
        real_init, real_of, real_solve = LinearProgram.__post_init__, LinearProgram._of, decomposition._solve

        def counted(self):
            real_init(self)
            built.append(self)

        def owned(A, b, strict):
            built.append(real_of(A, b, strict))
            return built[-1]

        def solve(groups, c=None, *args):
            stacked.append(sum(len(b) for _, b, _ in groups) if c is None else len(c))
            return real_solve(groups, c, *args)

        monkeypatch.setattr(LinearProgram, "__post_init__", counted)
        monkeypatch.setattr(LinearProgram, "_of", staticmethod(owned))
        monkeypatch.setattr(decomposition, "_solve", solve)
        for name in ("check_feasible_many", "_extrema", "_redundant"):

            def spy(*args, _real=getattr(lp_module, name)):
                lps = list(args[-1])
                solved.extend(lps)
                return _real(*args[:-1], lps)

            monkeypatch.setattr(lp_module, name, spy)
        return built, solved, stacked

    def test_every_program_built_is_solved(self, ledger):
        built, solved, stacked = ledger
        X = np.random.default_rng(3).uniform(-3.0, 3.0, size=(40, 2))
        for net in (random_init([2, 8, 8, 8], 1, seed=0), biased_net([3, 4, 3], 2, seed=1)):
            d = decompose(net)
            for r in range(d.num_regions):
                hypercube(d, r)
            if net.input_dim == 2:
                plot_regions_2d(d, X, (-3.0, -3.0, 3.0, 3.0), io.BytesIO())
            shallow_to_decomposition(build_shallow(d))
        equivalence_report(biased_net([2, 4, 4], 2, seed=0), biased_net([2, 4, 4], 2, seed=1), samples=100)
        net = biased_net([2, 4, 4], 2, seed=0)
        for budget in range(1, enumerate_feasible(net).candidates_checked, 4):
            with pytest.raises(BudgetExceededError):
                enumerate_feasible(net, budget=budget)
        once = {id(lp) for lp in solved}
        # the search's pre-tests and witnesses and pass 2 are stacks, not objects
        assert len(built) > 500 and [lp for lp in built if id(lp) not in once] == []
        assert sum(stacked) > 1000

    @pytest.mark.parametrize(
        "make",
        [lambda: random_init([2, 8, 8, 8], 1, seed=0), lambda: biased_net([3, 4, 3], 2, seed=1)],
        ids=["xavier[2,8,8,8]", "biased[3,4,3]"],
    )
    def test_stage_counts(self, ledger, monkeypatch, make):
        """Per stage, the programs built as objects and as stacks.  The
        search builds one object per split LP and stacks one program per
        pre-test, which together are every LP it counts, then the witness
        stage stacks one program per leaf and one more per leaf whose pushed
        solve fails.  The pruning builds one object per region and per row
        its loop drops before another test, and stacks one program per
        second-pass check; ``hypercube`` builds one object;
        ``shallow_to_decomposition`` builds none and stacks one program per
        region, and one per region whose pushed solve fails."""
        built, _, stacked = ledger
        net = make()
        splits, loops = [0], []
        real_split, real_loop = decomposition.check_feasible, decomposition._prune_sequential

        def split(lp):
            splits[0] += 1
            return real_split(lp)

        def loop(lp):
            before = len(built)
            kept = real_loop(lp)
            loops.append((len(built) - before, lp.num_rows - len(kept)))
            return kept

        monkeypatch.setattr(decomposition, "check_feasible", split)
        monkeypatch.setattr(decomposition, "_prune_sequential", loop)
        res = enumerate_feasible(net)
        p = len(res.records)
        # the witness stage's two stacked calls come last: every leaf, then the fallbacks
        pretests, (leaves, fallbacks) = stacked[:-2], stacked[-2:]
        assert leaves == p and len(pretests) <= net.depth - 1
        assert len(built) == splits[0] and res.candidates_checked == splits[0] + sum(pretests)
        built.clear()
        stacked.clear()
        d = decomposition.build_decomposition(net, res)
        assert len(built) == p + sum(n for n, _ in loops) and len(stacked) <= 1
        assert all(n <= dropped for n, dropped in loops)
        built.clear()
        for r in range(p):
            hypercube(d, r)
        assert len(built) == p
        s = build_shallow(d)
        built.clear()
        stacked.clear()
        shallow_to_decomposition(s)
        assert built == [] and stacked[0] == p and len(stacked) == 2


def test_contradicting_constant_row_is_reported():
    """A zero row whose offset contradicts its bit names its layer and neuron."""
    first = global_lp(((1, 0),), MLPNetwork((Layer(np.eye(2), np.zeros(2)),), Layer(np.eye(2), np.zeros(2))))
    dead = decomposition.GlobalAffinePrefix(np.zeros((2, 2)), np.array([0.5, -0.5]), 2)
    model = (np.zeros((1, 2)), np.zeros(1))
    for bits, neuron in ((((1, 0), (1, 1)), 1), (((1, 0), (0, 0)), 0)):
        rows = (first.A, first.b, first.strict)
        for i, bit in enumerate(bits[1]):
            rows = decomposition._with_row(rows, dead, i, bit)
        rec = PatternRecord(ActivationPattern(bits), rows, *model, np.array([1.0, -1.0]))
        with pytest.raises(InconsistentConstantRowError, match=f"layer 2 neuron {neuron}:"):
            decomposition.extract_halfspaces([rec], random_init([2, 2, 2], 1, seed=0))


class TestWitnessPaths:
    """Every record leaves the search with a witness: the interior re-solve,
    else the split's witness once the pattern's own program is found to have
    an interior, else a point of that program."""

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
        calls = []

        def refinement_fails(real_many, lps):
            calls.append(len(lps))
            # the witness stage's first stacked call is the interior re-solve of every leaf
            return [None] * len(lps) if len(calls) == 1 else real_many(lps)

        route_stacked(monkeypatch, witness=refinement_fails)
        res = enumerate_feasible(net)
        # every leaf falls back, so every leaf's own program is solved: the
        # kept cell's for its witness, the others' to certify the split's
        assert len(raised) == 1 and calls == [len(res.records), len(res.records)]
        assert res.solver_fallbacks == 1 + len(res.records)
        assert [rec.pattern for rec in res.records] == [rec.pattern for rec in reference.records]
        kept = next(rec for rec in res.records if rec.pattern.bits() == raised[0])
        own = check_feasible(global_lp(kept.pattern, net))
        assert own.status is Feasibility.INTERIOR
        np.testing.assert_array_equal(kept.witness, own.witness)

    def test_uncertified_split_witness_counts_as_a_fallback(self, monkeypatch):
        """When both stacked calls of the witness stage run out of pivots,
        each leaf keeps its split's witness and counts once in
        ``solver_fallbacks``."""
        net = biased_net([2, 4, 4], 2, seed=0)
        reference = enumerate_feasible(net)
        route_stacked(monkeypatch, witness=lambda real_many, lps: [None] * len(lps))
        res = enumerate_feasible(net)
        assert [rec.pattern for rec in res.records] == [rec.pattern for rec in reference.records]
        assert res.solver_fallbacks == len(res.records)

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
            Decomposition.of(d.input_dim, d.output_dim, d.halfspaces, (bad,) + d.regions[1:])

    def test_bad_normal_length(self, d):
        doc = json.loads(dumps_decomposition(d))
        doc["halfspaces"][0]["h"] = [1.0, 0.0, 0.0]
        with pytest.raises(ModelFormatError):
            loads_decomposition(json.dumps(doc))
        halfspaces = (OrientedHalfspace(np.array([1.0, 0.0, 0.0]), 0.0),) + d.halfspaces[1:]
        with pytest.raises(DimensionMismatchError):
            Decomposition.of(d.input_dim, d.output_dim, halfspaces, d.regions)
