"""LP core checked against a brute-force grid oracle, one-at-a-time solves and HiGHS."""

import numpy as np
import pytest

from relu_unwrap import (
    DimensionMismatchError,
    Extremum,
    Feasibility,
    IterationLimitError,
    LinearProgram,
    NonFiniteError,
    TOL_REDUNDANT,
    TOL_SLACK,
    check_feasible,
    check_feasible_many,
    extremize,
    is_redundant,
)
import relu_unwrap.lp as lp_module


def grid_interior_point(A, b, strict, lo, hi, step, margin):
    """First grid point whose strict rows clear ``margin`` and the rest hold.

    Scans [lo, hi]^d at the given step.  Returns None when no grid point
    qualifies; that proves nothing, a hit certifies an interior point.
    """
    d = A.shape[1]
    axes = [np.arange(lo, hi + step / 2, step) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = pts @ A.T - b  # row satisfied when <= 0
    ok = np.ones(len(pts), dtype=bool)
    for i in range(A.shape[0]):
        if strict[i]:
            ok &= vals[:, i] <= -margin
        else:
            ok &= vals[:, i] <= 1e-12
    idx = np.flatnonzero(ok)
    return pts[idx[0]] if idx.size else None


def grid_closed_point(A, b, lo, hi, step):
    """Any grid point satisfying every row in the closed sense, else None."""
    d = A.shape[1]
    axes = [np.arange(lo, hi + step / 2, step) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    ok = ((pts @ A.T - b) <= 1e-12).all(axis=1)
    idx = np.flatnonzero(ok)
    return pts[idx[0]] if idx.size else None


def random_pm1_system(rng, d, r):
    A = rng.integers(-1, 2, size=(r, d)).astype(np.float64)
    # all-zero rows encode no geometry; reroll them
    for i in range(r):
        while not A[i].any():
            A[i] = rng.integers(-1, 2, size=d).astype(np.float64)
    b = rng.integers(-3, 4, size=r).astype(np.float64)
    strict = rng.integers(0, 2, size=r).astype(bool)
    if not strict.any():
        strict[rng.integers(0, r)] = True
    return LinearProgram(A, b, strict)


class TestGridOracle:
    """Solver verdicts are consistent with exhaustive grid scans."""

    @pytest.mark.parametrize("d,step,margin", [(1, 0.01, 0.02), (2, 0.01, 0.02)])
    def test_fine_grid_agreement(self, d, step, margin):
        rng = np.random.default_rng(100 + d)
        for _ in range(120):
            lp = random_pm1_system(rng, d, int(rng.integers(1, 7)))
            res = check_feasible(lp)
            hit = grid_interior_point(lp.A, lp.b, lp.strict, -5, 5, step, margin)
            if hit is not None:
                # the oracle found a robust interior point
                assert res.status is Feasibility.INTERIOR
            if res.status is Feasibility.INFEASIBLE:
                assert grid_closed_point(lp.A, lp.b, -5, 5, step) is None
            if res.status is Feasibility.BOUNDARY_ONLY:
                assert hit is None

    def test_coarse_grid_agreement_3d(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            lp = random_pm1_system(rng, 3, int(rng.integers(1, 7)))
            res = check_feasible(lp)
            hit = grid_interior_point(lp.A, lp.b, lp.strict, -5, 5, 0.25, 0.3)
            if hit is not None:
                assert res.status is Feasibility.INTERIOR
            if res.status is Feasibility.INFEASIBLE:
                assert grid_closed_point(lp.A, lp.b, -5, 5, 0.25) is None


class TestWitness:
    def test_witness_satisfies_every_row(self):
        """Returned witnesses respect all rows within the slack tolerance."""
        rng = np.random.default_rng(200)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            lp = random_pm1_system(rng, d, int(rng.integers(1, 7)))
            res = check_feasible(lp)
            if res.status is Feasibility.INFEASIBLE:
                continue
            vals = lp.A @ res.witness - lp.b
            assert vals.max() <= TOL_SLACK
            if res.status is Feasibility.INTERIOR:
                assert vals[lp.strict].max() < 0.0

    def test_interior_slack_value(self):
        # 0 < x < 1 has best margin 0.5 at the midpoint; t is capped at 1;
        # a 1-D ``A`` holds one coefficient per row
        for A in ([[-1.0], [1.0]], [-1.0, 1.0]):
            lp = LinearProgram(np.array(A), np.array([0.0, 1.0]), np.array([True, True]))
            assert lp.A.shape == (2, 1)
            res = check_feasible(lp)
            assert res.status is Feasibility.INTERIOR
            assert abs(res.slack - 0.5) < 1e-9
            assert abs(res.witness[0] - 0.5) < 1e-9

    def test_empty_system_is_interior(self):
        lp = LinearProgram(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=bool))
        res = check_feasible(lp)
        assert res.status is Feasibility.INTERIOR
        assert res.witness.shape == (3,)


class TestStatusCases:
    def test_opposite_strict_rows_boundary_only(self):
        # x > 0 and x < 0: closed version meets exactly at the origin
        lp = LinearProgram(
            np.array([[-1.0], [1.0]]), np.zeros(2), np.array([True, True])
        )
        assert check_feasible(lp).status is Feasibility.BOUNDARY_ONLY

    def test_disjoint_closed_rows_infeasible(self):
        # x >= 1 and x <= 0
        lp = LinearProgram(
            np.array([[-1.0], [1.0]]), np.array([-1.0, 0.0]), np.zeros(2, dtype=bool)
        )
        assert check_feasible(lp).status is Feasibility.INFEASIBLE

    def test_unbounded_wedge_interior(self):
        lp = LinearProgram(
            np.array([[-1.0, 0.0], [0.0, -1.0]]), np.zeros(2), np.ones(2, dtype=bool)
        )
        assert check_feasible(lp).status is Feasibility.INTERIOR

    def test_duplicated_and_permuted_rows_same_status(self):
        """Row order and duplication never change the verdict."""
        rng = np.random.default_rng(300)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            lp = random_pm1_system(rng, d, int(rng.integers(1, 6)))
            base = check_feasible(lp).status
            perm = rng.permutation(lp.A.shape[0])
            shuffled = LinearProgram(lp.A[perm], lp.b[perm], lp.strict[perm])
            assert check_feasible(shuffled).status is base
            dup = LinearProgram(
                np.vstack([lp.A, lp.A[:1]]),
                np.concatenate([lp.b, lp.b[:1]]),
                np.concatenate([lp.strict, lp.strict[:1]]),
            )
            assert check_feasible(dup).status is base


class TestExtremize:
    def test_box_maximum_at_vertex(self):
        # unit box [0,1]^2, maximize x + 2y
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0, 0.0, 1.0, 0.0])
        lp = LinearProgram(A, b, np.zeros(4, dtype=bool))
        res = extremize(np.array([1.0, 2.0]), lp)
        assert res.status is Extremum.BOUNDED
        assert abs(res.value - 3.0) < 1e-9
        np.testing.assert_allclose(res.argpoint, [1.0, 1.0], atol=1e-9)

    def test_unbounded_direction_detected(self):
        lp = LinearProgram(
            np.array([[-1.0, 0.0]]), np.zeros(1), np.zeros(1, dtype=bool)
        )
        assert extremize(np.array([1.0, 0.0]), lp).status is Extremum.UNBOUNDED

    def test_infeasible_system_detected(self):
        lp = LinearProgram(
            np.array([[-1.0], [1.0]]), np.array([-1.0, 0.0]), np.zeros(2, dtype=bool)
        )
        assert extremize(np.array([1.0]), lp).status is Extremum.INFEASIBLE

    def test_optimum_sandwiched_by_samples(self):
        """No feasible sample of the closed polytope beats the LP optimum."""
        rng = np.random.default_rng(400)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            r = int(rng.integers(d + 1, 7))
            lp = random_pm1_system(rng, d, r)
            closed = LinearProgram(lp.A, lp.b, np.zeros(r, dtype=bool))
            c = rng.normal(size=d)
            res = extremize(c, closed)
            if res.status is not Extremum.BOUNDED:
                continue
            pts = rng.uniform(-5, 5, size=(4000, d))
            ok = (pts @ lp.A.T - lp.b <= 0).all(axis=1)
            if ok.any():
                assert (pts[ok] @ c).max() <= res.value + 1e-7


class TestRedundancy:
    def test_obviously_redundant_row(self):
        # x <= 2 is implied by x <= 1
        A = np.array([[1.0], [1.0]])
        b = np.array([1.0, 2.0])
        lp = LinearProgram(A, b, np.zeros(2, dtype=bool))
        assert is_redundant(1, lp)
        assert not is_redundant(0, lp)

    def test_binding_row_is_kept(self):
        # triangle x >= 0, y >= 0, x + y <= 1: every row supports a facet
        A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        b = np.array([0.0, 0.0, 1.0])
        lp = LinearProgram(A, b, np.zeros(3, dtype=bool))
        for i in range(3):
            assert not is_redundant(i, lp)

    def test_no_ray_proves_a_row_within_the_redundancy_bound(self):
        """x <= 1 is redundant against x <= 1 + 1e-8, within TOL_REDUNDANT:
        the ray along x hits it first, but its point lifts the row by less
        than the bound, so the LP decides, alone or with the rows stacked."""
        A = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        lp = LinearProgram(A, np.array([1.0, 1.0 + 1e-8, 1.0, 1.0, 1.0]), np.zeros(5, dtype=bool))
        assert lp_module._ray_proofs(lp.A[None], lp.b[None])[0].tolist() == [False, False, True, True, True]
        assert is_redundant(0, lp) and is_redundant(1, lp)
        assert is_redundant(np.arange(5), lp).tolist() == [True, True, False, False, False]

    def test_sequential_elimination_preserves_feasible_set(self):
        """Dropping redundant rows one at a time keeps sampled membership."""
        rng = np.random.default_rng(500)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            r = int(rng.integers(2, 7))
            lp = random_pm1_system(rng, d, r)
            keep = list(range(r))
            # re-test against the surviving rows after every removal
            changed = True
            while changed:
                changed = False
                for pos in range(len(keep)):
                    sub = LinearProgram(
                        lp.A[keep], lp.b[keep], np.zeros(len(keep), dtype=bool)
                    )
                    if is_redundant(pos, sub):
                        del keep[pos]
                        changed = True
                        break
            pts = rng.uniform(-6, 6, size=(3000, d))
            full = (pts @ lp.A.T - lp.b <= 1e-9).all(axis=1)
            if keep:
                sub_ok = (pts @ lp.A[keep].T - lp.b[keep] <= 1e-9).all(axis=1)
            else:
                sub_ok = np.ones(len(pts), dtype=bool)
            assert np.array_equal(full, sub_ok)


# ---------------------------------------------------------------------------
# Stacked solves and the shifted start


def _bits(x):
    """The bytes of a float or None, so -0.0 and 0.0 differ."""
    return None if x is None else np.float64(x).tobytes()


def _same_extremum(a, b):
    if a.status is not b.status or _bits(a.value) != _bits(b.value):
        return False
    if a.argpoint is None or b.argpoint is None:
        return a.argpoint is None and b.argpoint is None
    return a.argpoint.tobytes() == b.argpoint.tobytes()


def _same_feasibility(a, b):
    if a is None or b is None:
        return a is None and b is None
    if a.status is not b.status or _bits(a.slack) != _bits(b.slack):
        return False
    if a.witness is None or b.witness is None:
        return a.witness is None and b.witness is None
    return a.witness.tobytes() == b.witness.tobytes()


def _ordered_dot(a, x):
    """``a . x`` as the library computes it: the products added left to right."""
    terms = [float(p) * float(q) for p, q in zip(a, x)]
    total = terms[0] if terms else 0.0
    for term in terms[1:]:
        total += term
    return total


def _mixed_programs(rng, d, count):
    """Programs of dimension ``d`` with 0 to 12 rows, shuffled: +-1 rows
    with random strict flags, real rows with some right-hand sides
    negative, and empty programs."""
    out = []
    for i in range(count):
        r = int(rng.integers(1, 13))
        if i % 3 == 0:
            out.append(random_pm1_system(rng, d, r))
        elif i % 3 == 1:
            strict = rng.integers(0, 2, size=r).astype(bool)
            out.append(LinearProgram(rng.normal(size=(r, d)), rng.normal(size=r) + 0.5, strict))
        else:
            r = int(rng.integers(0, 3))
            out.append(LinearProgram(rng.normal(size=(r, d)), np.abs(rng.normal(size=r)), np.ones(r, dtype=bool)))
    return [out[i] for i in rng.permutation(count)]


def _programs(rng, count):
    """Random, degenerate, unbounded and infeasible closed programs."""
    out = []
    for i in range(count):
        d = int(rng.integers(1, 4))
        r = int(rng.integers(1, 9))
        kind = i % 4
        if kind == 0:  # random real rows, some right-hand sides negative
            A, b = rng.normal(size=(r, d)), rng.normal(size=r)
        elif kind == 1:  # degenerate: +-1 entries, many rows through one point
            A = rng.integers(-1, 2, size=(r, d)).astype(np.float64)
            b = np.zeros(r)
        elif kind == 2:  # unbounded: a cone opening towards +x0
            A = np.hstack([-np.abs(rng.normal(size=(r, 1))), rng.normal(size=(r, d - 1))])
            b = np.abs(rng.normal(size=r))
        else:  # infeasible: x0 >= 1 and x0 <= 0 plus random rows
            A = np.vstack([-np.eye(d)[:1], np.eye(d)[:1], rng.normal(size=(r, d))])
            b = np.concatenate([[-1.0, 0.0], np.abs(rng.normal(size=r))])
        out.append(LinearProgram(A, b, np.zeros(len(b), dtype=bool)))
    return out


class TestStackedSolves:
    """A stacked solve returns bitwise what one-at-a-time solves return."""

    def test_extremize_stack_matches_single_solves(self):
        rng = np.random.default_rng(600)
        statuses = set()
        for lp in _programs(rng, 80):
            D = rng.normal(size=(int(rng.integers(1, 9)), lp.dim))
            D[0] = np.eye(lp.dim)[0]  # +x0: unbounded on the cones
            many = extremize(D, lp)
            assert len(many) == len(D)
            for direction, res in zip(D, many):
                assert _same_extremum(extremize(direction, lp), res)
                statuses.add(res.status)
        assert statuses == set(Extremum)

    def test_is_redundant_rows_match_single_calls(self):
        rng = np.random.default_rng(601)
        for lp in _programs(rng, 80):
            rows = np.arange(lp.num_rows)
            many = is_redundant(rows, lp)
            assert many.dtype == bool and many.shape == rows.shape
            assert [is_redundant(int(i), lp) for i in rows] == many.tolist()
            # any order and repeats of the rows
            perm = rng.permutation(np.concatenate([rows, rows[:2]]))
            assert is_redundant(perm, lp).tolist() == [bool(many[i]) for i in perm]

    def test_check_feasible_many_matches_single_calls(self):
        """Programs of different lengths are padded without changing a bit,
        also over several stacks of programs of many row counts in shuffled
        order."""
        rng = np.random.default_rng(602)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            lps = [random_pm1_system(rng, d, int(rng.integers(1, 8))) for _ in range(7)]
            lps.append(LinearProgram(np.zeros((0, d)), np.zeros(0), np.zeros(0, dtype=bool)))
            for single, stacked in zip(lps, check_feasible_many(lps)):
                assert _same_feasibility(check_feasible(single), stacked)
        for d in (2, 3):
            lps = _mixed_programs(rng, d, 320)
            assert len(lps) > lp_module.STACK_SIZE and len({lp.num_rows for lp in lps}) >= 10
            results = check_feasible_many(lps)
            assert len(results) == len(lps)
            assert {res.status for res in results} == set(Feasibility)
            for single, stacked in zip(lps, results):
                assert _same_feasibility(check_feasible(single), stacked)

    def test_array_entry_matches_public_calls(self):
        """``lp._solve``, the array entry every solve goes through, given
        stacks of shuffled programs of mixed row counts, strict rows,
        shifted and unshifted, returns per program bitwise what the public
        one-program calls return: feasibility codes, witnesses and slacks,
        and statuses, argpoints and values of directions."""
        rng = np.random.default_rng(611)
        lps = _mixed_programs(rng, 2, 300)
        lps = [lp.shifted(rng.normal(size=2)) if k % 2 else lp for k, lp in enumerate(lps)]
        order, groups = lp_module._groups([lp.A for lp in lps], [lp.b for lp in lps], [lp.strict for lp in lps])
        assert len(groups) >= 10 and len(lps) > lp_module.STACK_SIZE
        status, x, slack = lp_module._solve(groups)
        for j, st, w, s in zip(order, status.tolist(), x, slack.tolist()):
            res = check_feasible_many([lps[j]])[0]
            if res is None:
                assert st == lp_module._LIMIT
                continue
            assert lp_module._FEASIBILITY[st] is res.status
            if res.status is not Feasibility.INFEASIBLE:
                assert w.tobytes() == res.witness.tobytes() and _bits(s) == _bits(res.slack)
        assert set(status.tolist()) == {lp_module._INTERIOR, lp_module._BOUNDARY, lp_module._EMPTY}
        directions = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in lps]
        c = np.concatenate([directions[j] for j in order])
        status, y, value = lp_module._solve(groups, c, [len(directions[j]) for j in order])
        at = 0
        for j in order:
            for direction in directions[j]:
                res = extremize(direction, lps[j])
                assert res.status is (Extremum.BOUNDED, Extremum.INFEASIBLE, Extremum.UNBOUNDED)[status[at]]
                if res.status is Extremum.BOUNDED:
                    assert y[at].tobytes() == res.argpoint.tobytes() and _bits(value[at]) == _bits(res.value)
                at += 1
        assert set(status.tolist()) == {lp_module._OPTIMAL, lp_module._INFEASIBLE, lp_module._UNBOUNDED}

    def test_long_sequences_match_single_calls(self):
        """``extremize`` and ``is_redundant`` over 300 programs of many row
        counts, in shuffled order, fill several stacks and return every
        field bitwise as one-program calls."""
        rng = np.random.default_rng(609)
        lps = [lp for lp in _mixed_programs(rng, 2, 360) if lp.num_rows]
        assert len(lps) >= 300
        directions = [rng.normal(size=(int(rng.integers(0, 4)), 2)) for _ in lps]
        directions[0] = rng.normal(size=2)  # one direction, as in a call on one program
        tops = extremize(directions, lps)
        assert sum(len(np.atleast_2d(D)) for D in directions) > lp_module.STACK_SIZE
        assert _same_extremum(tops[0], extremize(directions[0], lps[0]))
        for D, lp, got in zip(directions[1:], lps[1:], tops[1:]):
            assert isinstance(got, tuple) and len(got) == len(D)
            assert all(_same_extremum(extremize(c, lp), res) for c, res in zip(D, got))
        rows = [rng.permutation(lp.num_rows) for lp in lps]
        rows[0] = 0  # an index, as in a call on one program
        assert sum(np.size(r) for r in rows) > 2 * lp_module.STACK_SIZE
        verdicts = is_redundant(rows, lps)
        assert verdicts[0] is is_redundant(0, lps[0])
        for r, lp, got in zip(rows[1:], lps[1:], verdicts[1:]):
            assert got.dtype == bool and got.tolist() == [is_redundant(int(i), lp) for i in r]

    def test_slack_and_value_are_recomputed_in_one_order(self):
        """``slack`` is the smallest strict margin ``b[i] - A[i] . w`` of the
        witness, capped below at 0 for BOUNDARY_ONLY, and ``value`` is
        ``direction . argpoint``, each with its products added left to right,
        alone or stacked; the value of a unit direction ``+-e_i`` is exactly
        ``+-argpoint[i]``."""
        rng = np.random.default_rng(610)
        for d in (1, 2, 3, 4):
            lps = [lp for lp in _mixed_programs(rng, d, 120) if lp.strict.any()]
            for lp, res in zip(lps, check_feasible_many(lps)):
                if res.status is Feasibility.INFEASIBLE:
                    continue
                rows = np.flatnonzero(lp.strict)
                smallest = min(float(lp.b[i]) - _ordered_dot(lp.A[i], res.witness) for i in rows)
                want = smallest if res.status is Feasibility.INTERIOR else max(smallest, 0.0)
                assert _bits(res.slack) == _bits(want)
            units = np.vstack([np.eye(d), -np.eye(d)])
            D = np.vstack([units, rng.normal(size=(4, d)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))])
            for lp, tops in zip(lps, extremize([D] * len(lps), lps)):
                for c, res in zip(D, tops):
                    if res.status is Extremum.BOUNDED:
                        assert _bits(res.value) == _bits(_ordered_dot(c, res.argpoint))
                for i in range(d):
                    hi, lo = tops[i], tops[d + i]
                    if hi.status is Extremum.BOUNDED:
                        assert hi.value == hi.argpoint[i]
                    if lo.status is Extremum.BOUNDED:
                        assert lo.value == -lo.argpoint[i]

    def test_one_program_past_its_pivot_budget(self):
        """Only the program that runs out of pivots is marked; the others
        finish as they would alone."""
        rng = np.random.default_rng(603)
        G = rng.normal(size=(6, 8, 2))
        h = np.abs(rng.normal(size=(6, 8)))
        h[2, :4] *= -1.0  # a phase 1 for one program
        c = rng.normal(size=(6, 2))
        for limit in (0, 1, 2, 3, 50):
            status, y = lp_module._simplex(G, h, c, limit)
            alone = [lp_module._simplex(G[k : k + 1], h[k : k + 1], c[k : k + 1], limit) for k in range(6)]
            assert status.tolist() == [s[0] for s, _ in alone]
            assert all(y[k].tobytes() == alone[k][1][0].tobytes() for k in range(6))
        status, _ = lp_module._simplex(G, h, c, 1)
        assert lp_module._LIMIT in status.tolist()
        assert lp_module._LIMIT not in lp_module._simplex(G, h, c, 50)[0].tolist()

    def test_budget_per_program(self):
        """A stack may give each program its own pivot budget."""
        rng = np.random.default_rng(604)
        G = rng.normal(size=(4, 8, 2))
        h = np.abs(rng.normal(size=(4, 8)))
        c = rng.normal(size=(4, 2))
        status, _ = lp_module._simplex(G, h, c, [0, 50, 0, 50])
        for k, limit in enumerate([0, 50, 0, 50]):
            assert status[k] == lp_module._simplex(G[k : k + 1], h[k : k + 1], c[k : k + 1], limit)[0][0]

    def test_stacked_iteration_limit_raises(self):
        rng = np.random.default_rng(605)
        lp = LinearProgram(rng.normal(size=(12, 3)), np.abs(rng.normal(size=12)), np.zeros(12, dtype=bool))
        D = rng.normal(size=(5, 3))
        try:
            original = lp_module.ITERATION_FACTOR
            lp_module.ITERATION_FACTOR = 0
            with pytest.raises(IterationLimitError):
                extremize(D, lp)
            with pytest.raises(IterationLimitError):
                is_redundant(np.arange(12), lp)
            assert check_feasible_many([lp])[0] is None
            with pytest.raises(IterationLimitError):
                check_feasible(lp)
        finally:
            lp_module.ITERATION_FACTOR = original

    def test_sequences_match_single_calls(self, monkeypatch):
        """A call over many programs of different row counts returns, per
        program, bitwise what one-at-a-time calls return; small stacks make
        programs of one system straddle stacks."""
        monkeypatch.setattr(lp_module, "STACK_SIZE", 7)
        rng = np.random.default_rng(607)
        lps = _programs(rng, 120)
        for d in (1, 2, 3):
            group = [lp for lp in lps if lp.dim == d]
            rows = [rng.permutation(lp.num_rows) for lp in group]
            rows[0] = 0  # an index, as in a call on one program
            verdicts = is_redundant(rows, group)
            assert len(verdicts) == len(group)
            for r, lp, got in zip(rows, group, verdicts):
                assert np.ndim(got) == np.ndim(r)
                assert np.reshape(got, -1).tolist() == [is_redundant(int(i), lp) for i in np.reshape(r, -1)]
            directions = [rng.normal(size=(int(rng.integers(0, 5)), d)) for _ in group]
            directions[0] = rng.normal(size=d)  # one direction, as in a call on one program
            tops = extremize(directions, group)
            assert _same_extremum(tops[0], extremize(directions[0], group[0]))
            for D, lp, got in zip(directions[1:], group[1:], tops[1:]):
                assert isinstance(got, tuple) and len(got) == len(D)
                assert all(_same_extremum(extremize(c, lp), res) for c, res in zip(D, got))
        assert is_redundant([], []) == [] and extremize([], []) == []

    def test_sequences_keep_each_program_budget(self, monkeypatch):
        """Each program of a call keeps the pivot budget of its own system,
        however its stack is padded; a program past its budget gives None for
        its system alone."""
        rng = np.random.default_rng(608)
        group = [lp for lp in _programs(rng, 160) if lp.dim == 2]
        rows = [np.arange(lp.num_rows) for lp in group]
        directions = [rng.normal(size=(3, 2)) for _ in group]
        budgets = [lambda rows, dim, f=f: f * (rows + dim) for f in (0, 1, 2)]
        # no pivots for short systems, which share stacks padded to longer ones
        budgets.append(lambda rows, dim: np.where(np.asarray(rows) < 5, 0, 1000))
        mixed = 0
        for budget in budgets:
            monkeypatch.setattr(lp_module, "iteration_limit", budget)
            for call, args in ((is_redundant, rows), (extremize, directions)):
                results = call(args, group)
                for arg, lp, got in zip(args, group, results):
                    try:
                        alone = call(arg, lp)
                    except IterationLimitError:
                        assert got is None
                        continue
                    assert got is not None
                    if call is is_redundant:
                        assert got.tolist() == alone.tolist()
                    else:
                        assert all(map(_same_extremum, got, alone))
                failed = [r is None for r in results]
                mixed += any(failed) and not all(failed)
        assert mixed  # some call had programs both past and within their budgets

    def test_sequences_reject_mismatched_arguments(self):
        lp = LinearProgram(np.eye(2), np.ones(2), np.zeros(2, dtype=bool))
        other = LinearProgram(np.eye(3), np.ones(3), np.zeros(3, dtype=bool))
        with pytest.raises(DimensionMismatchError):
            is_redundant([0, 0], [lp, other])
        with pytest.raises(DimensionMismatchError):
            extremize([np.ones(2)], [lp, lp])
        with pytest.raises(IndexError):
            is_redundant([0, 2], [lp, lp])
        with pytest.raises(DimensionMismatchError, match="^1 row sets for 2 programs$"):
            is_redundant([0], [lp, lp])
        with pytest.raises(DimensionMismatchError):
            extremize([np.ones(2), np.ones(2)], [lp, other])

    def test_shifted_program_has_the_same_answers(self):
        """Solving in coordinates centred on a point of the system and moving
        back gives the same optimum value, and the same verdicts."""
        rng = np.random.default_rng(606)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            A = rng.normal(size=(int(rng.integers(d + 1, 9)), d))
            w = rng.normal(size=d)
            b = A @ w + rng.uniform(0.1, 1.0, size=A.shape[0])
            lp = LinearProgram(A, b, np.zeros(len(b), dtype=bool))
            moved = lp.shifted(w)
            assert (moved.b > 0).all()
            c = rng.normal(size=d)
            here, there = extremize(c, lp), extremize(c, moved)
            assert here.status is there.status
            if here.status is Extremum.BOUNDED:
                assert abs(here.value - (there.value + c @ w)) <= 1e-9 * max(1.0, abs(here.value))
            rows = np.arange(len(b))
            assert is_redundant(rows, lp).tolist() == is_redundant(rows, moved).tolist()

    def test_pivot_row_keeps_the_sign_of_zero(self):
        """A pivot leaves a -0.0 of the pivot row as +0.0, as subtracting
        0 times the row from itself does, so optima print as 0.0."""
        A = np.array([[2.0], [-2.0], [1.0], [-1.0], [2.0]])
        lp = LinearProgram(A, np.full(5, -0.0), np.zeros(5, dtype=bool))
        res = extremize(np.array([1.0]), lp)
        assert res.status is Extremum.BOUNDED and res.argpoint.tolist() == [0.0]
        assert not np.signbit(res.argpoint).any()
        assert not np.signbit(extremize(np.array([[1.0], [2.0]]), lp)[1].argpoint).any()

    def test_row_indices_must_be_integers(self):
        """A bool or float row index is refused with one IndexError naming
        its dtype, in the scalar, array and sequence forms."""
        lp = LinearProgram(np.eye(2), np.ones(2), np.zeros(2, dtype=bool))
        one = LinearProgram(np.eye(1), np.ones(1), np.zeros(1, dtype=bool))
        cases = [
            (True, lp, "bool"),
            (False, one, "bool"),
            (np.True_, lp, "bool"),
            (1.0, lp, "float64"),
            (np.array([True, False]), lp, "bool"),
            (np.array([0.0, 1.0]), lp, "float64"),
            ([0, True], [lp, lp], "bool"),
            ([np.array([0, 1]), np.array([0.5])], [lp, lp], "float64"),
        ]
        for row, target, dtype in cases:
            with pytest.raises(IndexError, match=f"^row indices must be integers, not {dtype}$"):
                is_redundant(row, target)
        # integers of any width are indices, and an empty list is no rows
        assert is_redundant(np.uint8(1), lp) is is_redundant(1, lp)
        assert is_redundant(np.array([1, 0], dtype=np.int32), lp).tolist() == [is_redundant(1, lp), is_redundant(0, lp)]
        assert is_redundant([], lp).shape == (0,)

    def test_bad_rows_and_directions_rejected(self):
        lp = LinearProgram(np.eye(2), np.ones(2), np.zeros(2, dtype=bool))
        with pytest.raises(IndexError):
            is_redundant(np.array([0, 2]), lp)
        with pytest.raises(IndexError):
            is_redundant(-1, lp)
        with pytest.raises(DimensionMismatchError):
            extremize(np.ones((2, 3)), lp)
        with pytest.raises(DimensionMismatchError):
            check_feasible_many([lp, LinearProgram(np.eye(3), np.ones(3), np.zeros(3, dtype=bool))])


@pytest.mark.parametrize(
    "b,strict,message",
    [
        (np.ones(3), np.zeros(2, dtype=bool), "rows disagree: A has 2, b has 3, strict has 2"),
        (np.ones(2), np.zeros(1, dtype=bool), "rows disagree: A has 2, b has 2, strict has 1"),
    ],
)
def test_program_rows_must_agree(b, strict, message):
    with pytest.raises(DimensionMismatchError) as info:
        LinearProgram(np.eye(2), b, strict)
    assert str(info.value) == message


@pytest.mark.parametrize("where,bad", [("A", np.nan), ("b", np.inf), ("b", -np.inf)])
def test_program_entries_must_be_finite(where, bad):
    A, b = np.eye(2), np.ones(2)
    {"A": A, "b": b}[where].flat[1] = bad
    with pytest.raises(NonFiniteError, match="^linear program entries must be finite$"):
        LinearProgram(A, b, np.zeros(2, dtype=bool))


def test_program_matrix_must_have_at_most_two_dimensions():
    with pytest.raises(DimensionMismatchError, match="^A must have at most 2 dimensions, not 3$"):
        LinearProgram(np.ones((2, 2, 2)), [1.0, 1.0], [False, False])
    # a vector is one column, and an empty A no rows
    assert LinearProgram(np.ones(2), [1.0, 1.0], [False, False]).A.shape == (2, 1)
    assert LinearProgram([], [], []).A.shape == (0, 0)


@pytest.mark.parametrize("strict", [[0.5, 2], [np.nan, 0.0], [1, -1], ["yes", "no"], [None, None]])
def test_program_strict_flags_must_be_bits(strict):
    with pytest.raises(ValueError, match="^strict flags must be booleans, 0 or 1$"):
        LinearProgram(np.eye(2), np.ones(2), strict)


def test_program_strict_flags_of_zeros_and_ones_are_bools():
    for strict in ([1, 0], [1.0, 0.0], np.array([True, False]), [np.True_, False]):
        lp = LinearProgram(np.eye(2), np.ones(2), strict)
        assert lp.strict.dtype == bool and lp.strict.tolist() == [True, False]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_directions_must_be_finite(bad):
    """A NaN or infinite direction is refused before any solve, in the
    one-program form (one direction or a stack) and the sequence form."""
    lp = LinearProgram(np.eye(2), np.ones(2), np.zeros(2, dtype=bool))
    for call in (
        lambda: extremize([bad, 0.0], lp),
        lambda: extremize([[1.0, 0.0], [0.0, bad]], lp),
        lambda: extremize([[1.0, 0.0], [bad, 0.0]], [lp, lp]),
        lambda: extremize([np.ones(2), np.array([[0.0, 1.0], [bad, 1.0]])], [lp, lp]),
    ):
        with pytest.raises(NonFiniteError, match="^directions must be finite$"):
            call()


def test_program_holds_copies_of_the_callers_arrays():
    """The caller's arrays stay writeable, and writing to them leaves the
    program as it was built."""
    A, b, strict = np.eye(2), np.ones(2), np.array([True, False])
    lp = LinearProgram(A, b, strict)
    assert A.flags.writeable and b.flags.writeable and strict.flags.writeable
    assert not (lp.A.flags.writeable or lp.b.flags.writeable or lp.strict.flags.writeable)
    A[0, 0], b[1], strict[0] = 5.0, -3.0, False
    assert lp.A.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert lp.b.tolist() == [1.0, 1.0] and lp.strict.tolist() == [True, False]
    assert check_feasible(lp).status is Feasibility.INTERIOR


# ---------------------------------------------------------------------------
# HiGHS oracle


def _ill_conditioned(rng, d, r, decades=3.0, spread=1e-4):
    """Rows close to parallel (``spread``), scaled over ``2 * decades``
    decades, around a point of the system."""
    base = rng.normal(size=d)
    A = base + spread * rng.normal(size=(r, d))
    A *= 10.0 ** rng.uniform(-decades, decades, size=(r, 1))
    w = rng.normal(size=d)
    b = A @ w + np.abs(A).sum(axis=1) * rng.uniform(0.01, 1.0, size=r)
    return A, b


class TestHighsOracle:
    """check_feasible, extremize and is_redundant against scipy's HiGHS.

    The random programs below are well scaled.  Programs whose rows are near
    parallel and scaled over several decades expose a known defect (the
    simplex's absolute pivot tolerance), recorded by the strict xfail tests
    at the end."""

    @pytest.fixture(autouse=True)
    def _linprog(self):
        self.linprog = pytest.importorskip("scipy.optimize").linprog

    def _max(self, c, A, b, presolve=True):
        """HiGHS maximum of c . x over A x <= b: (status, value).  Presolve
        can call an unbounded program infeasible, so an infeasible answer
        counts only once a solve without presolve confirms it."""
        res = self.linprog(
            -c, A_ub=A, b_ub=b, bounds=[(None, None)] * len(c), method="highs", options={"presolve": presolve}
        )
        if res.status == 2 and presolve:
            return self._max(c, A, b, presolve=False)
        if res.status == 2:
            return Extremum.INFEASIBLE, None
        if res.status == 3:
            return Extremum.UNBOUNDED, None
        assert res.status == 0, res.message
        return Extremum.BOUNDED, -res.fun

    def _random(self, rng, count=120):
        for _ in range(count):
            d = int(rng.integers(1, 4))
            r = int(rng.integers(d + 1, 9))
            yield rng.normal(size=(r, d)), rng.normal(size=r)

    def _check_extremum(self, c, A, b, res):
        status, value = self._max(c, A, b)
        assert res.status is status
        if status is Extremum.BOUNDED:
            assert abs(res.value - value) <= 1e-6 * max(1.0, abs(value))

    def _check_extremize(self, rng, systems):
        for A, b in systems:
            c = rng.normal(size=A.shape[1])
            self._check_extremum(c, A, b, extremize(c, LinearProgram(A, b, np.zeros(len(b), dtype=bool))))

    def _check_is_redundant(self, systems):
        for A, b in systems:
            verdicts = is_redundant(np.arange(len(b)), LinearProgram(A, b, np.zeros(len(b), dtype=bool)))
            self._check_verdicts(A, b, verdicts)

    def _check_verdicts(self, A, b, verdicts):
        for i in range(len(b)):
            keep = np.arange(len(b)) != i
            status, value = self._max(A[i], A[keep], b[keep])
            if status is Extremum.INFEASIBLE:
                assert verdicts[i]
            elif status is Extremum.UNBOUNDED:
                assert not verdicts[i]
            else:
                gap = value - b[i]
                scale = max(1.0, abs(value), abs(b[i]))
                if gap > TOL_REDUNDANT + 1e-6 * scale:
                    assert not verdicts[i]
                elif gap < TOL_REDUNDANT - 1e-6 * scale:
                    assert verdicts[i]

    def test_extremize(self):
        rng = np.random.default_rng(700)
        self._check_extremize(rng, self._random(rng))

    def test_is_redundant(self):
        rng = np.random.default_rng(702)
        self._check_is_redundant(self._random(rng))

    def test_rows_a_ray_proves_are_kept(self):
        """Every row one ray proves kept is one HiGHS keeps: a point of the
        other rows lifts it above its redundancy bound.  The programs are
        random ones, whose origin violates rows, and programs around their
        origin, as a shifted region's program is."""
        rng = np.random.default_rng(706)
        systems = list(self._random(rng, 300))
        systems += [(A, np.abs(b)) for A, b in systems]
        proven = {True: 0, False: 0}
        for A, b in systems:
            for i in np.flatnonzero(lp_module._ray_proofs(A[None], b[None])[0]):
                proven[bool((b >= 0.0).all())] += 1
                keep = np.arange(len(b)) != i
                # HiGHS's presolve can call an unbounded program infeasible
                status, value = self._max(A[i], A[keep], b[keep], presolve=False)
                assert status is not Extremum.INFEASIBLE
                if status is Extremum.BOUNDED:
                    assert value - b[i] > TOL_REDUNDANT - 1e-6 * max(1.0, abs(value), abs(b[i]))
        assert proven[True] > 100 and proven[False] > 100

    def test_presolve_infeasible_is_confirmed(self):
        """Seed 706's 6x3 program with b > 0, so a feasible origin: without
        row 3, HiGHS's presolve calls the maximum of that row infeasible.
        ``_max`` confirms the answer with presolve off, which finds the row
        unbounded, as ``is_redundant`` keeps it."""
        A, b = list(self._random(np.random.default_rng(706), 300))[10]
        A, b, keep = A, np.abs(b), np.arange(6) != 3
        assert A.shape == (6, 3)
        bounds = [(None, None)] * 3
        assert self.linprog(-A[3], A_ub=A[keep], b_ub=b[keep], bounds=bounds, method="highs").status == 2
        assert self._max(A[3], A[keep], b[keep]) == (Extremum.UNBOUNDED, None)
        assert not is_redundant(3, LinearProgram(A, b, np.zeros(6, dtype=bool)))

    def test_sequence_form(self):
        """One call over the programs of each dimension agrees with HiGHS."""
        rng = np.random.default_rng(705)
        systems = list(self._random(rng))
        for d in (1, 2, 3):
            group = [(A, b) for A, b in systems if A.shape[1] == d]
            lps = [LinearProgram(A, b, np.zeros(len(b), dtype=bool)) for A, b in group]
            directions = [rng.normal(size=(2, d)) for _ in group]
            for (A, b), D, tops in zip(group, directions, extremize(directions, lps)):
                for c, res in zip(D, tops):
                    self._check_extremum(c, A, b, res)
            verdicts = is_redundant([np.arange(len(b)) for _, b in group], lps)
            for (A, b), v in zip(group, verdicts):
                self._check_verdicts(A, b, v)

    def test_check_feasible(self):
        """The verdict follows HiGHS's optimum of the slack program."""
        rng = np.random.default_rng(701)
        systems = list(self._random(rng, 60))
        for _ in range(60):  # degenerate: +-1 rows through few points
            lp = random_pm1_system(rng, int(rng.integers(1, 4)), int(rng.integers(2, 8)))
            systems.append((lp.A, lp.b))
        for A, b in systems:
            strict = rng.integers(0, 2, size=len(b)).astype(bool)
            d = A.shape[1]
            G = np.vstack([np.hstack([A, strict[:, None].astype(float)]), np.eye(d + 1)[-1]])
            t_status, t = self._max(np.eye(d + 1)[-1], G, np.append(b, 1.0))
            res = check_feasible(LinearProgram(A, b, strict))
            if t_status is Extremum.INFEASIBLE:
                assert res.status is Feasibility.INFEASIBLE
                continue
            scale = max(1.0, float(np.abs(b).max()))
            if t > TOL_SLACK + 1e-6 * scale:
                assert res.status is Feasibility.INTERIOR
            elif t < TOL_SLACK - 1e-6 * scale:
                assert res.status is not Feasibility.INTERIOR
            if res.status is Feasibility.INTERIOR:
                # the witness clears every strict row by its reported slack
                margins = b - A @ res.witness
                assert (margins[~strict] >= -1e-9 * scale).all()
                assert (margins[strict] >= res.slack - 1e-9 * scale).all()

    @pytest.mark.xfail(
        strict=True,
        raises=(AssertionError, IterationLimitError),
        reason="known defect: on near-parallel rows scaled over six decades the "
        "simplex, whose pivot tolerance is absolute, runs out of pivots or "
        "calls a bounded row unbounded",
    )
    def test_is_redundant_ill_conditioned(self):
        rng = np.random.default_rng(704)
        self._check_is_redundant(
            _ill_conditioned(rng, d, int(rng.integers(d + 1, 9)))
            for d in rng.integers(1, 4, size=120)
        )

    @pytest.mark.xfail(
        strict=True,
        raises=(AssertionError, IterationLimitError),
        reason="known defect: on near-parallel rows scaled over twelve decades the "
        "simplex runs out of pivots or returns a wrong optimum",
    )
    def test_extremize_twelve_decades(self):
        rng = np.random.default_rng(703)
        self._check_extremize(
            rng,
            (
                _ill_conditioned(rng, d, int(rng.integers(d + 1, 9)), decades=6.0, spread=1e-6)
                for d in rng.integers(1, 4, size=300)
            ),
        )
