"""Command-line surface: payloads, exit codes, and determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from relu_unwrap import (
    ActivationPattern,
    Decomposition,
    IterationLimitError,
    Layer,
    MLPNetwork,
    ShapResult,
    build_shallow,
    decompose,
    dumps_decomposition,
    eval_shallow_many,
    forward_many,
    load_decomposition,
    load_shallow,
    random_init,
    save_model,
    save_shallow,
)
import relu_unwrap.cli as cli
import relu_unwrap.decomposition as decomposition
from relu_unwrap.cli import main

from conftest import biased_net


@pytest.fixture
def demo_m2_file(tmp_path, demo_net_m2):
    path = tmp_path / "demo_m2.json"
    save_model(demo_net_m2, path)
    return str(path)


@pytest.fixture
def demo_m1_file(tmp_path, demo_net_m1):
    path = tmp_path / "demo_m1.json"
    save_model(demo_net_m1, path)
    return str(path)


@pytest.fixture
def affine_m1_file(tmp_path):
    net = MLPNetwork((), Layer(np.array([[2.0, -1.0]]), np.zeros(1)))
    path = tmp_path / "affine.json"
    save_model(net, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_demo_counts(self, capsys, tmp_path, demo_m2_file):
        out = str(tmp_path / "d.json")
        code, stdout, _ = run(capsys, "decompose", "--model", demo_m2_file, "--out", out)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["p"] == 4
        assert payload["k"] == 4
        assert payload["layer_feasible"] == [4]
        d = load_decomposition(out)
        assert d.num_regions == 4

    def test_affine_single_region(self, capsys, tmp_path, affine_m1_file):
        out = str(tmp_path / "d.json")
        code, stdout, _ = run(capsys, "decompose", "--model", affine_m1_file, "--out", out)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["p"] == 1 and payload["k"] == 0

    def test_corrupt_model_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, stderr = run(
            capsys, "decompose", "--model", str(bad), "--out", str(tmp_path / "d.json")
        )
        assert code == 1
        assert stderr.strip()

    def test_missing_model_exit_1(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "decompose",
            "--model",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path / "d.json"),
        )
        assert code == 1
        assert stderr.strip()

    def test_budget_exceeded_writes_partial(self, capsys, tmp_path):
        model = tmp_path / "wide.json"
        save_model(random_init([2, 5, 7, 4], 3, seed=2), model)
        out = tmp_path / "d.json"
        code, stdout, stderr = run(
            capsys,
            "decompose",
            "--model",
            str(model),
            "--out",
            str(out),
            "--budget",
            "5",
        )
        assert code == 2
        payload = json.loads(stdout)
        assert payload["partial"] is True
        assert load_decomposition(out).partial is True

    def test_solver_fallback_reported_on_stderr(self, capsys, tmp_path, demo_m2_file, monkeypatch):
        out = str(tmp_path / "d.json")
        _, clean, clean_err = run(capsys, "decompose", "--model", demo_m2_file, "--out", out)
        assert clean_err == ""
        real, raised = decomposition.check_feasible, []

        def flaky(lp):
            if not raised:
                raised.append(lp)
                raise IterationLimitError("forced")
            return real(lp)

        monkeypatch.setattr(decomposition, "check_feasible", flaky)
        code, stdout, stderr = run(capsys, "decompose", "--model", demo_m2_file, "--out", out)
        assert code == 0
        assert len(stderr.splitlines()) == 1 and "1 feasibility solve" in stderr
        payload, reference = json.loads(stdout), json.loads(clean)
        assert payload.keys() == reference.keys()
        for key in ("p", "k", "layer_feasible"):
            assert payload[key] == reference[key]

    def test_pretest_fallbacks_reported_on_stderr(self, capsys, tmp_path, monkeypatch):
        """Layer pre-tests that run out of pivots count as fallbacks too: one
        warning line, and the payload the unforced run gives."""
        model, out = tmp_path / "deep.json", str(tmp_path / "d.json")
        save_model(biased_net([2, 4, 4, 3], 2, seed=0), model)
        _, clean, clean_err = run(capsys, "decompose", "--model", str(model), "--out", out)
        assert clean_err == ""
        real_open, real_many, inside = decomposition._Search.open_layers, decomposition.check_feasible_many, []

        def opening(search, cells, layer):
            inside.append(True)
            try:
                return real_open(search, cells, layer)
            finally:
                inside.pop()

        def many(lps):
            return [None] * len(lps) if inside else real_many(lps)

        monkeypatch.setattr(decomposition._Search, "open_layers", opening)
        monkeypatch.setattr(decomposition, "check_feasible_many", many)
        code, stdout, stderr = run(capsys, "decompose", "--model", str(model), "--out", out)
        assert code == 0
        assert len(stderr.splitlines()) == 1 and stderr.startswith("warning: 167 feasibility solve(s)")
        payload, reference = json.loads(stdout), json.loads(clean)
        assert payload.keys() == reference.keys()
        for key in ("p", "k", "layer_feasible"):
            assert payload[key] == reference[key]

    def test_env_thread_override(self, capsys, tmp_path, demo_m2_file, monkeypatch):
        monkeypatch.setenv("RELU_UNWRAP_THREADS", "2")
        out = str(tmp_path / "d.json")
        code, stdout, _ = run(capsys, "decompose", "--model", demo_m2_file, "--out", out)
        assert code == 0
        assert json.loads(stdout)["p"] == 4


class TestShallowize:
    def test_demo_widths(self, capsys, tmp_path, demo_m1_file):
        out = str(tmp_path / "s.json")
        code, stdout, _ = run(capsys, "shallowize", "--model", demo_m1_file, "--out", out)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["widths"] == [8, 8, 8]
        s = load_shallow(out)
        assert s.widths == (8, 8, 8)

    def test_affine_widths(self, capsys, tmp_path, affine_m1_file):
        out = str(tmp_path / "s.json")
        code, stdout, _ = run(capsys, "shallowize", "--model", affine_m1_file, "--out", out)
        assert code == 0
        assert json.loads(stdout)["widths"] == [4, 5, 2]

    def test_budget_exceeded_exit_2(self, capsys, tmp_path, demo_m1_file):
        """A search cut by ``--budget`` prints nothing on stdout and writes no
        file."""
        out = tmp_path / "s.json"
        code, stdout, stderr = run(
            capsys, "shallowize", "--model", demo_m1_file, "--out", str(out), "--budget", "1"
        )
        assert code == 2
        assert stdout == ""
        assert "budget exceeded" in stderr
        assert not out.exists()

    def test_missing_out_usage_error(self, capsys, demo_m1_file):
        code, _, _ = run(capsys, "shallowize", "--model", demo_m1_file)
        assert code == 64


class TestVerify:
    def test_matched_pair_passes(self, capsys, tmp_path, demo_m2_file):
        s = str(tmp_path / "s.json")
        assert run(capsys, "shallowize", "--model", demo_m2_file, "--out", s)[0] == 0
        code, stdout, _ = run(
            capsys,
            "verify",
            "--model",
            demo_m2_file,
            "--shallow",
            s,
            "--samples",
            "2000",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["pass"] is True
        assert payload["max_abs_diff"] <= 1e-6

    def test_perturbed_entry_fails_with_unit_gap(self, capsys, tmp_path, demo_m1_file):
        s = tmp_path / "s.json"
        assert run(capsys, "shallowize", "--model", demo_m1_file, "--out", str(s))[0] == 0
        doc = json.loads(s.read_text())
        doc["b3"][0] += 1.0
        s.write_text(json.dumps(doc))
        code, stdout, stderr = run(
            capsys,
            "verify",
            "--model",
            demo_m1_file,
            "--shallow",
            str(s),
            "--samples",
            "2000",
        )
        assert code == 3
        payload = json.loads(stdout)
        assert payload["pass"] is False
        assert abs(payload["max_abs_diff"] - 1.0) < 1e-9
        assert "worst_x" in payload
        assert stderr.strip()

    def test_ambiguous_selection_exit_3(self, capsys, tmp_path, demo_net_m1, demo_m1_file):
        """A shallow file holding one region twice, the copy under a new
        pattern, selects two regions at that region's witness: verify fails
        without a gap."""
        d = decompose(demo_net_m1)
        # patterns share their layer widths: each grows a third bit, 0 but the copy's
        regions = tuple(
            dataclasses.replace(r, pattern=ActivationPattern((r.pattern.bits() + (0,),)))
            for r in d.regions
        )
        twin = dataclasses.replace(regions[-1], pattern=ActivationPattern(((1, 1, 1),)))
        s = tmp_path / "s.json"
        twins = Decomposition.of(d.input_dim, d.output_dim, d.halfspaces, regions + (twin,))
        save_shallow(build_shallow(twins), s)
        code, stdout, stderr = run(capsys, "verify", "--model", demo_m1_file, "--shallow", str(s))
        assert code == 3
        assert stdout == '{"max_abs_diff": null, "pass": false}\n'
        assert "verification failed" in stderr

    def test_dimension_mismatch_exit_1(self, capsys, tmp_path, demo_m2_file):
        other = tmp_path / "other.json"
        save_model(random_init([3, 3], 1, seed=0), other)
        s = str(tmp_path / "s.json")
        assert run(capsys, "shallowize", "--model", str(other), "--out", s)[0] == 0
        code, _, stderr = run(
            capsys, "verify", "--model", demo_m2_file, "--shallow", s
        )
        assert code == 1
        assert "mismatch" in stderr

    def test_negative_sample_count_is_a_usage_error(self, capsys, tmp_path):
        """Refused before any file is read: the model does not exist."""
        missing = str(tmp_path / "missing.json")
        code, stdout, stderr = run(
            capsys, "verify", "--model", missing, "--shallow", missing, "--samples", "-1"
        )
        assert (code, stdout) == (64, "")
        assert "--samples must be at least 0, got -1" in stderr

    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path):
        """Refused before any file is read: the model does not exist."""
        missing = str(tmp_path / "missing.json")
        code, stdout, stderr = run(
            capsys, "verify", "--model", missing, "--shallow", missing, "--seed", "-1"
        )
        assert (code, stdout, stderr) == (64, "", "error: --seed must be at least 0, got -1\n")

    @pytest.mark.parametrize(
        "flag,value,shown",
        [
            ("--tol", "nan", "nan"),
            ("--tol", "-1", "-1.0"),
            ("--tol", "inf", "inf"),
            ("--range", "nan", "nan"),
            ("--range", "inf", "inf"),
            ("--range", "-5", "-5.0"),
        ],
    )
    def test_bad_tolerance_or_range_is_a_usage_error(self, capsys, tmp_path, flag, value, shown):
        """Refused before any file is read: the model does not exist."""
        missing = str(tmp_path / "missing.json")
        code, stdout, stderr = run(capsys, "verify", "--model", missing, "--shallow", missing, flag, value)
        assert (code, stdout) == (64, "")
        assert stderr == f"error: {flag} must be finite and at least 0, got {shown}\n"

    def test_zero_tolerance_and_range_are_accepted(self, capsys, tmp_path):
        """Both bounds may be 0: every sample is then the origin, and only an
        exact agreement passes."""
        net = biased_net([2, 4, 4], 2, seed=0)
        model, s = tmp_path / "m.json", str(tmp_path / "s.json")
        save_model(net, model)
        assert run(capsys, "shallowize", "--model", str(model), "--out", s)[0] == 0
        argv = ["verify", "--model", str(model), "--shallow", s, "--samples", "3", "--range", "0"]
        code, stdout, _ = run(capsys, *argv, "--tol", "0")
        W = np.vstack([np.zeros((3, 2)), decompose(net).witnesses])
        gap = float(np.abs(eval_shallow_many(load_shallow(s), W) - forward_many(net, W)).max())
        assert (code, json.loads(stdout)["max_abs_diff"]) == (0 if gap == 0.0 else 3, gap)

    def test_zero_samples_checks_the_witnesses(self, capsys, tmp_path):
        net = biased_net([2, 4, 4], 2, seed=0)
        model, s = tmp_path / "m.json", str(tmp_path / "s.json")
        save_model(net, model)
        assert run(capsys, "shallowize", "--model", str(model), "--out", s)[0] == 0
        code, stdout, _ = run(capsys, "verify", "--model", str(model), "--shallow", s, "--samples", "0")
        assert code == 0
        W = decompose(net).witnesses
        gap = np.abs(eval_shallow_many(load_shallow(s), W) - forward_many(net, W))
        assert json.loads(stdout) == {"max_abs_diff": float(gap.max()), "pass": True}

    def test_witnesses_come_from_the_search(self, capsys, tmp_path, monkeypatch):
        """verify builds no half-space table: it checks the samples and the
        witnesses the pattern search settled."""
        net = biased_net([2, 4, 4], 2, seed=0)
        model, s = tmp_path / "m.json", str(tmp_path / "s.json")
        save_model(net, model)
        assert run(capsys, "shallowize", "--model", str(model), "--out", s)[0] == 0

        def no_table(*args, **kwargs):
            raise AssertionError("verify built a decomposition")

        monkeypatch.setattr(cli, "build_decomposition", no_table)
        code, stdout, _ = run(
            capsys, "verify", "--model", str(model), "--shallow", s, "--samples", "500", "--seed", "4"
        )
        assert code == 0
        X = np.random.default_rng(4).uniform(-10.0, 10.0, size=(500, 2))
        points = np.vstack([X, [region.witness for region in decompose(net).regions]])
        gap = np.abs(eval_shallow_many(load_shallow(s), points) - forward_many(net, points))
        assert json.loads(stdout) == {"max_abs_diff": float(gap.max(axis=1).max()), "pass": True}


class TestShap:
    @pytest.fixture
    def linear_decomp_file(self, capsys, tmp_path, affine_m1_file):
        out = str(tmp_path / "d.json")
        assert run(capsys, "decompose", "--model", affine_m1_file, "--out", out)[0] == 0
        return out

    def test_point_equal_to_background_gives_zero(self, capsys, tmp_path, linear_decomp_file):
        bg = tmp_path / "bg.csv"
        bg.write_text("1.5,-0.5\n")
        code, stdout, _ = run(
            capsys,
            "shap",
            "--decomp",
            linear_decomp_file,
            "--point",
            "1.5,-0.5",
            "--background",
            str(bg),
        )
        assert code == 0
        payload = json.loads(stdout)
        np.testing.assert_allclose(payload["phi"], [[0.0], [0.0]], atol=1e-15)

    def test_linear_model_formula(self, capsys, tmp_path, linear_decomp_file):
        bg = tmp_path / "bg.csv"
        bg.write_text("0.0,0.0\n2.0,2.0\n")
        code, stdout, _ = run(
            capsys,
            "shap",
            "--decomp",
            linear_decomp_file,
            "--point",
            "3.0,-1.0",
            "--background",
            str(bg),
        )
        assert code == 0
        payload = json.loads(stdout)
        # alpha = [[2, -1]], mu = (1, 1): phi = (2*(3-1), -1*(-1-1))
        np.testing.assert_allclose(payload["phi"], [[4.0], [2.0]], atol=1e-12)
        assert payload["approximate"] is False

    def test_negative_coordinates_accepted(self, capsys, tmp_path, linear_decomp_file):
        bg = tmp_path / "bg.csv"
        bg.write_text("-1.0,-1.0\n")
        code, stdout, _ = run(
            capsys,
            "shap",
            "--decomp",
            linear_decomp_file,
            "--point",
            "-2.5,-3.5",
            "--background",
            str(bg),
        )
        assert code == 0

    def test_deterministic_output(self, capsys, tmp_path, linear_decomp_file):
        bg = tmp_path / "bg.csv"
        bg.write_text("0.5,0.5\n1.5,0.5\n")
        args = (
            "shap",
            "--decomp",
            linear_decomp_file,
            "--point",
            "2.0,1.0",
            "--background",
            str(bg),
        )
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_region_of_the_wrong_shape_exit_1(self, capsys, tmp_path):
        """A 3-row model in a 2-output decomposition is refused, not explained."""
        doc = json.loads(dumps_decomposition(decompose(biased_net([2, 4, 4], 2, seed=0))))
        doc["regions"][0]["alpha"] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        doc["regions"][0]["beta"] = [0.0, 0.0, 0.0]
        bad, bg = tmp_path / "bad.json", tmp_path / "bg.csv"
        bad.write_text(json.dumps(doc))
        bg.write_text("0.0,0.0\n")
        code, stdout, stderr = run(
            capsys, "shap", "--decomp", str(bad), "--point", "0.1,0.2", "--background", str(bg)
        )
        assert code == 1 and stdout == ""
        assert "alpha" in stderr

    @pytest.mark.parametrize(
        "nan_alpha,point,code", [(True, "0.1,0.2", 1), (False, "nan,0", 64)], ids=["nan-alpha", "nan-point"]
    )
    def test_non_finite_input_exit_1(self, capsys, tmp_path, nan_alpha, point, code):
        """A NaN in the region table (exit 1) or in the point (a usage error)
        gives no attributions."""
        doc = json.loads(dumps_decomposition(decompose(biased_net([2, 4, 4], 2, seed=0))))
        if nan_alpha:
            doc["regions"][0]["alpha"][0][0] = float("nan")  # written as a bare NaN
        path, bg = tmp_path / "d.json", tmp_path / "bg.csv"
        path.write_text(json.dumps(doc))
        bg.write_text("0.0,0.0\n")
        got, stdout, _ = run(
            capsys, "shap", "--decomp", str(path), "--point", point, "--background", str(bg)
        )
        assert got == code and stdout == ""

    @pytest.mark.parametrize("point", ["nan,1", "1,inf", "0,-inf", "-inf,0", "-NaN,1"])
    def test_non_finite_point_is_a_usage_error(self, capsys, tmp_path, point):
        """A NaN or infinite --point is refused before the decomposition is
        read: the path given does not exist."""
        missing, bg = str(tmp_path / "missing.json"), str(tmp_path / "missing.csv")
        code, stdout, stderr = run(capsys, "shap", "--decomp", missing, "--point", point, "--background", bg)
        assert (code, stdout) == (64, "")
        assert stderr.splitlines()[-1] == (
            f"relu-unwrap shap: error: argument --point: invalid point {point!r}: coordinates must be finite"
        )

    def test_point_starting_with_a_bare_fraction(self, capsys, tmp_path, linear_decomp_file):
        """A value like -.5 is data, not a flag."""
        bg = tmp_path / "bg.csv"
        bg.write_text("-0.5,1.0\n")
        argv = ["shap", "--decomp", linear_decomp_file, "--point", "-.5,1", "--background", str(bg)]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        np.testing.assert_allclose(json.loads(stdout)["phi"], [[0.0], [0.0]], atol=1e-15)

    def test_unparsable_point_is_a_usage_error(self, capsys, tmp_path):
        """A bad --point is refused before the decomposition is read: the
        path given does not exist."""
        missing, bg = str(tmp_path / "missing.json"), str(tmp_path / "missing.csv")
        code, stdout, stderr = run(capsys, "shap", "--decomp", missing, "--point", "1,x", "--background", bg)
        assert (code, stdout) == (64, "")
        assert stderr.splitlines()[-1] == (
            "relu-unwrap shap: error: argument --point: "
            "invalid point '1,x': could not convert string to float: 'x'"
        )

    @pytest.mark.parametrize("content", ["", "# x,y\n\n"], ids=["empty", "comments"])
    def test_background_without_points_exit_1(self, capsys, tmp_path, linear_decomp_file, content):
        """One error line, and no numpy warning (warnings fail the tests)."""
        bg = tmp_path / "bg.csv"
        bg.write_text(content)
        argv = ["shap", "--decomp", linear_decomp_file, "--point", "1,1", "--background", str(bg)]
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout, stderr) == (1, "", f"error: background file {bg} holds no points\n")

    @pytest.mark.parametrize(
        "content,reason",
        [
            ("1,1\n1,2,3\n", "row 2 has a different number of columns (3) than row 1 (2)"),
            ("1,1\n1,y\n", "row 2, column 2 is not a number: 'y'"),
            ("# x,y\n1,1\n\n2,2 # note\n1, y\n", "row 3, column 2 is not a number: 'y'"),
            ("1,1\n1_0,2\n", "row 2, column 1 is not a number: '1_0'"),
            ("1,1\n\u0661,2\n", "row 2, column 1 is not a number: '\u0661'"),
        ],
        ids=["ragged", "text", "text-after-comments", "underscore", "non-ascii-digit"],
    )
    def test_background_not_numbers_exit_1(self, capsys, tmp_path, linear_decomp_file, content, reason):
        """One error line that names the file and the data row, counted from
        1 past comments and blank lines as for a non-finite coordinate."""
        bg = tmp_path / "bg.csv"
        bg.write_text(content)
        argv = ["shap", "--decomp", linear_decomp_file, "--point", "1,1", "--background", str(bg)]
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout, stderr) == (1, "", f"error: background file {bg}: {reason}\n")

    @pytest.mark.parametrize(
        "edit,reason",
        [
            (
                lambda text: text.replace('"halfspace_ids": []', f'"halfspace_ids": [{10**30}]'),
                "malformed decomposition: region references a missing half-space\n",
            ),
            (lambda text: "[" * 100_000, "invalid JSON: "),
        ],
        ids=["id-beyond-index-range", "nested-too-deep"],
    )
    def test_malformed_decomposition_exit_1(self, capsys, tmp_path, linear_decomp_file, edit, reason):
        """One error line, not a traceback, for a file the reader refuses."""
        path = Path(linear_decomp_file)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        bg = tmp_path / "bg.csv"
        bg.write_text("0.0,0.0\n")
        argv = ["shap", "--decomp", str(path), "--point", "1,1", "--background", str(bg)]
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"error: {reason}") and stderr.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_background_not_finite_exit_1(self, capsys, tmp_path, linear_decomp_file, value):
        """The error names the file and the data row, counted from 1 past
        comments and blank lines."""
        bg = tmp_path / "bg.csv"
        bg.write_text(f"# x,y\n1,1\n\n2,{value}\n3,3\n")
        argv = ["shap", "--decomp", linear_decomp_file, "--point", "1,1", "--background", str(bg)]
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert stderr == f"error: background file {bg}: row 2 holds a non-finite coordinate\n"

    def test_nan_payload_not_printed(self, capsys, tmp_path, linear_decomp_file, monkeypatch):
        """stdout is strict JSON: a payload holding NaN is exit 1 with nothing printed."""
        nan_result = ShapResult(np.full((2, 1), np.nan), 0, np.zeros(2), False)
        monkeypatch.setattr(cli, "exact_shap", lambda d, x, background: nan_result)
        bg = tmp_path / "bg.csv"
        bg.write_text("0.0,0.0\n")
        code, stdout, _ = run(
            capsys, "shap", "--decomp", linear_decomp_file, "--point", "1,1", "--background", str(bg)
        )
        assert code == 1 and stdout == ""


class TestBench:
    def test_help_names_what_pattern_count_holds(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--help")
        assert code == 0
        assert "pattern_count holds candidates_checked" in " ".join(stdout.split())

    def test_grid_row_count_and_round_trip(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run(
            capsys,
            "bench",
            "--min-w1",
            "2",
            "--max-w1",
            "3",
            "--min-w2",
            "2",
            "--max-w2",
            "3",
            "--w3",
            "2",
            "--repeats",
            "2",
            "--seed",
            "0",
            "--out",
            str(out),
        )
        assert code == 0
        assert json.loads(stdout)["rows"] == 8
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert set(rows[0]) == {
            "widths",
            "seed",
            "wall_time_seconds",
            "pattern_count",
            "region_count",
        }
        for row in rows:
            w1, w2, w3 = (int(v) for v in row["widths"].split("x"))
            assert (w1, w2, w3) in {(a, b, 2) for a in (2, 3) for b in (2, 3)}
            assert float(row["wall_time_seconds"]) >= 0.0
            assert int(row["region_count"]) <= int(row["pattern_count"])

    def test_same_seed_same_counts(self, capsys, tmp_path):
        def counts(path):
            code, _, _ = run(
                capsys,
                "bench",
                "--min-w1",
                "2",
                "--max-w1",
                "2",
                "--min-w2",
                "2",
                "--max-w2",
                "3",
                "--w3",
                "2",
                "--repeats",
                "2",
                "--seed",
                "5",
                "--out",
                str(path),
            )
            assert code == 0
            with open(path, newline="") as fh:
                return [
                    (r["widths"], r["seed"], r["pattern_count"], r["region_count"])
                    for r in csv.DictReader(fh)
                ]

        assert counts(tmp_path / "a.csv") == counts(tmp_path / "b.csv")

    def test_budget_cut_gives_a_row_and_goes_on(self, capsys, tmp_path):
        """A net that runs out of budget gets wall time -1, the LPs spent and
        the patterns finished (none before the last layer), a line on
        stderr, and the grid goes on."""
        out = tmp_path / "bench.csv"
        grid = ["--min-w1", "2", "--max-w1", "2", "--min-w2", "2", "--max-w2", "3", "--repeats", "1"]
        code, stdout, stderr = run(capsys, "bench", *grid, "--budget", "5", "--out", str(out))
        assert code == 0 and json.loads(stdout)["rows"] == 2
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows == [f"2x{w2}x3,0,-1.000000,5,0" for w2 in (2, 3)]
        assert stderr.splitlines() == [f"budget exceeded for 2x{w2}x3 seed 0" for w2 in (2, 3)]

    def test_passes_time_every_net_and_warn_once(self, capsys, tmp_path, monkeypatch):
        """Every net runs in the counting pass and once per timed pass, and its
        pivot-limit warning is printed once; a net cut by the budget runs once."""
        real, runs = cli.enumerate_feasible, []

        def flagged(net, budget):
            runs.append(net.hidden_widths)
            return dataclasses.replace(real(net, budget=budget), solver_fallbacks=1)

        monkeypatch.setattr(cli, "enumerate_feasible", flagged)
        grid = ["--min-w1", "2", "--max-w1", "2", "--min-w2", "2", "--max-w2", "3", "--repeats", "1"]
        code, _, stderr = run(capsys, "bench", *grid, "--out", str(tmp_path / "a.csv"))
        assert code == 0 and runs == [(2, 2, 3), (2, 3, 3)] * (1 + cli.BENCH_PASSES)
        assert stderr.count("warning: 1 feasibility solve(s)") == 2 == len(stderr.splitlines())
        runs.clear()
        code, _, stderr = run(capsys, "bench", *grid, "--budget", "5", "--out", str(tmp_path / "b.csv"))
        assert code == 0 and runs == [(2, 2, 3), (2, 3, 3)]
        assert stderr.splitlines() == [f"budget exceeded for 2x{w2}x3 seed 0" for w2 in (2, 3)]

    def test_timed_passes_run_seed_by_seed(self, capsys, tmp_path, monkeypatch):
        """The counting pass runs in grid order, each timed pass every cell of
        one seed before the next seed; rows stay in grid order."""
        real, runs = cli._timed_build, []

        def recorded(net, budget):
            runs.append(net.hidden_widths[1])
            return real(net, budget)

        monkeypatch.setattr(cli, "BENCH_PASSES", 2)
        monkeypatch.setattr(cli, "_timed_build", recorded)
        out = tmp_path / "bench.csv"
        grid = ["--min-w1", "2", "--max-w1", "2", "--min-w2", "2", "--max-w2", "3", "--repeats", "2"]
        assert run(capsys, "bench", *grid, "--out", str(out))[0] == 0
        assert runs == [2, 2, 3, 3] + [2, 3, 2, 3] * 2
        rows = [line.split(",")[:2] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert rows == [["2x2x3", "0"], ["2x2x3", "1"], ["2x3x3", "0"], ["2x3x3", "1"]]

    def test_row_holds_the_mean_of_the_timed_passes(self, capsys, tmp_path, monkeypatch):
        """The counting pass's time is dropped; the row is the mean of the rest."""
        real, seconds = cli._timed_build, iter([9.0, 0.5, 0.3, 0.4, 0.2])
        monkeypatch.setattr(cli, "BENCH_PASSES", 4)
        monkeypatch.setattr(cli, "_timed_build", lambda net, budget: (next(seconds),) + real(net, budget)[1:])
        out = tmp_path / "bench.csv"
        grid = ["--min-w1", "2", "--max-w1", "2", "--min-w2", "2", "--max-w2", "2", "--repeats", "1"]
        assert run(capsys, "bench", *grid, "--out", str(out))[0] == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[:3] == ["2x2x3", "0", "0.350000"]

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--repeats", "-2"], "--repeats must be at least 1, got -2"),
            (["--repeats", "0"], "--repeats must be at least 1, got 0"),
            (["--w3", "0"], "--w3 must be at least 1, got 0"),
            (["--min-w1", "0"], "--min-w1 must be at least 1, got 0"),
            (["--min-w2", "-1"], "--min-w2 must be at least 1, got -1"),
            (["--seed", "-1"], "--seed must be at least 0, got -1"),
            (["--min-w1", "4", "--max-w1", "3"], "--max-w1 must be at least 4, got 3"),
            (["--min-w2", "3", "--max-w2", "2"], "--max-w2 must be at least 3, got 2"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, tmp_path, args, message):
        """A bad count, width, seed or width range prints one error line and
        exits 64 before ``--out`` is opened."""
        out = tmp_path / "bench.csv"
        out.write_text("kept\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "bench", *args, "--out", str(out))
        assert (code, stdout, stderr) == (64, "", f"error: {message}\n")
        assert out.read_text(encoding="utf-8") == "kept\n"


class TestPlot:
    @pytest.fixture
    def demo_decomp_file(self, capsys, tmp_path, demo_m2_file):
        out = str(tmp_path / "d.json")
        assert run(capsys, "decompose", "--model", demo_m2_file, "--out", out)[0] == 0
        return out

    def test_plot_with_points_and_labels(self, capsys, tmp_path, demo_decomp_file):
        pts = tmp_path / "pts.csv"
        pts.write_text("1.0,1.0,first\n-1.5,-1.0,second\n")
        out = tmp_path / "plot.svg"
        code, stdout, _ = run(
            capsys,
            "plot",
            "--decomp",
            demo_decomp_file,
            "--points",
            str(pts),
            "--bounds",
            "-2,-2,2,2",
            "--out",
            str(out),
        )
        assert code == 0
        assert json.loads(stdout)["points"] == 2
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")

    def test_plot_without_points(self, capsys, tmp_path, demo_decomp_file):
        out = tmp_path / "plot.svg"
        code, _, _ = run(
            capsys,
            "plot",
            "--decomp",
            demo_decomp_file,
            "--bounds",
            "-2,-2,2,2",
            "--out",
            str(out),
        )
        assert code == 0
        assert out.exists()

    def test_points_file_skips_comments_and_blank_lines(self, capsys, tmp_path, demo_decomp_file):
        pts, out = tmp_path / "pts.csv", tmp_path / "plot.svg"
        pts.write_text("# x,y,label\n\n1.0,1.0,first\n   \n# more\n-1.5,-1.0\n")
        argv = ["plot", "--decomp", demo_decomp_file, "--points", str(pts)]
        code, stdout, _ = run(capsys, *argv, "--bounds", "-2,-2,2,2", "--out", str(out))
        assert (code, json.loads(stdout)["points"]) == (0, 2)
        texts = [el.text for el in ET.parse(out).getroot().iter() if el.tag.endswith("text")]
        assert texts == ["first", None]  # an empty label is an empty text element

    def test_points_line_of_one_field_exit_1(self, capsys, tmp_path, demo_decomp_file):
        pts, out = tmp_path / "pts.csv", tmp_path / "plot.svg"
        pts.write_text("1.0,1.0\n# next\n2.0\n")
        argv = ["plot", "--decomp", demo_decomp_file, "--points", str(pts)]
        code, stdout, stderr = run(capsys, *argv, "--bounds", "-2,-2,2,2", "--out", str(out))
        assert (code, stdout, stderr) == (1, "", f"error: {pts}:3: expected at least x,y\n")
        assert not out.exists()

    def test_points_coordinate_not_a_number_exit_1(self, capsys, tmp_path, demo_decomp_file):
        pts, out = tmp_path / "pts.csv", tmp_path / "plot.svg"
        pts.write_text("1.0,1.0\n\nx,2,label\n")
        argv = ["plot", "--decomp", demo_decomp_file, "--points", str(pts)]
        code, stdout, stderr = run(capsys, *argv, "--bounds", "-2,-2,2,2", "--out", str(out))
        assert (code, stdout, stderr) == (1, "", f"error: {pts}:3: could not convert string to float: 'x'\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_points_coordinate_not_finite_exit_1(self, capsys, tmp_path, demo_decomp_file, value):
        pts, out = tmp_path / "pts.csv", tmp_path / "plot.svg"
        pts.write_text(f"1.0,1.0\n\n2,{value},label\n")
        argv = ["plot", "--decomp", demo_decomp_file, "--points", str(pts)]
        code, stdout, stderr = run(capsys, *argv, "--bounds", "-2,-2,2,2", "--out", str(out))
        assert (code, stdout, stderr) == (1, "", f"error: {pts}:3: coordinates must be finite\n")
        assert not out.exists()

    def test_bounds_starting_with_a_bare_fraction(self, capsys, tmp_path, demo_decomp_file):
        out = tmp_path / "plot.svg"
        argv = ["plot", "--decomp", demo_decomp_file, "--bounds", "-.5,-1,1,1", "--out", str(out)]
        code, _, _ = run(capsys, *argv)
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("bounds", ["1,2,3", "-3,-3,inf,3", "nan,-3,3,3", "1,2,x,4"])
    def test_bad_bounds_are_usage_errors(self, capsys, tmp_path, bounds):
        """Bounds that are not four finite numbers are refused before the
        decomposition is read (the path given does not exist) and no SVG is
        written."""
        out = tmp_path / "plot.svg"
        argv = ["plot", "--decomp", str(tmp_path / "missing.json"), "--bounds", bounds, "--out", str(out)]
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (64, "")
        assert stderr.splitlines()[-1] == (
            f"relu-unwrap plot: error: argument --bounds: expected four finite numbers x0,y0,x1,y1, got {bounds!r}"
        )
        assert not out.exists()

    def test_bounds_of_an_infinite_span_exit_1(self, capsys, tmp_path, demo_decomp_file):
        """Finite bounds whose width overflows are refused by the plot,
        before the SVG is opened."""
        out = tmp_path / "plot.svg"
        big = "-1e308,-1e308,1e308,1e308"
        code, stdout, stderr = run(capsys, "plot", "--decomp", demo_decomp_file, "--bounds", big, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert stderr == (
            "error: bounds must span a finite width and height, "
            "got (-1e+308, -1e+308, 1e+308, 1e+308)\n"
        )
        assert not out.exists()

    def test_three_input_decomposition_exit_1(self, capsys, tmp_path):
        model = tmp_path / "m3.json"
        save_model(random_init([3, 3], 1, seed=0), model)
        d = str(tmp_path / "d3.json")
        assert run(capsys, "decompose", "--model", str(model), "--out", d)[0] == 0
        code, _, stderr = run(
            capsys,
            "plot",
            "--decomp",
            d,
            "--bounds",
            "-1,-1,1,1",
            "--out",
            str(tmp_path / "x.svg"),
        )
        assert code == 1
        assert stderr.strip()


class TestComposition:
    def test_decompose_shallowize_verify_chain(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        save_model(random_init([2, 3, 3], 1, seed=0), model)
        d = str(tmp_path / "d.json")
        s = str(tmp_path / "s.json")
        assert run(capsys, "decompose", "--model", str(model), "--out", d)[0] == 0
        assert run(capsys, "shallowize", "--model", str(model), "--out", s)[0] == 0
        code, stdout, _ = run(
            capsys,
            "verify",
            "--model",
            str(model),
            "--shallow",
            s,
            "--samples",
            "3000",
        )
        assert code == 0
        assert json.loads(stdout)["pass"] is True


    def test_readme_example_payloads(self, capsys, tmp_path):
        """README's command-line example, whose ``model.json`` is
        ``random_init([2, 3, 3], 1, 0)`` saved with ``save_model``: decompose
        and shallowize print exactly the payloads of its ``# {...}`` lines."""
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
        model = tmp_path / "model.json"
        save_model(random_init([2, 3, 3], 1, seed=0), model)
        for command in ("decompose", "shallowize"):
            at = next(i for i, line in enumerate(lines) if line.startswith(f"relu-unwrap {command} "))
            words = lines[at].split()
            assert words[2:] == ["--model", "model.json", "--out", words[-1]], lines[at]
            code, stdout, _ = run(capsys, command, "--model", str(model), "--out", str(tmp_path / words[-1]))
            assert code == 0
            assert "# " + stdout.strip() == lines[at + 1]


class TestColdStart:
    def test_no_command_imports_numpy_ma(self, tmp_path):
        """numpy.ma costs about 15 ms to import (np.unique is one way in);
        decompose, shallowize, verify, shap and plot run without it, each in
        a fresh interpreter.  Nor do they load any top-level module outside
        the standard library but numpy, beyond what a bare interpreter's
        site setup loads: numpy is the one runtime dependency."""
        model = tmp_path / "m.json"
        save_model(biased_net([2, 4, 4], 2, seed=0), model)
        (tmp_path / "bg.csv").write_text("0.5,0.5\n-1.0,2.0\n")
        (tmp_path / "pts.csv").write_text("0.5,0.5,a\n-1.0,2.0,b\n2.5,-2.5,c\n")
        d, s = str(tmp_path / "d.json"), str(tmp_path / "s.json")
        commands = [
            ["decompose", "--model", str(model), "--out", d],
            ["shallowize", "--model", str(model), "--out", s],
            ["verify", "--model", str(model), "--shallow", s, "--samples", "200"],
            ["shap", "--decomp", d, "--point", "0.5,0.5", "--background", str(tmp_path / "bg.csv")],
            ["plot", "--decomp", d, "--points", str(tmp_path / "pts.csv"), "--bounds", "-3,-3,3,3",
             "--out", str(tmp_path / "p.svg")],
        ]
        # top-level modules loaded from files outside the standard library,
        # after the command less those the interpreter had loaded before it
        script = (
            "import json, sys\n"
            "def top():\n"
            "    files = {m for m, mod in list(sys.modules.items()) if getattr(mod, '__file__', None)}\n"
            "    return {m for m in files if '.' not in m} - set(sys.stdlib_module_names)\n"
            "site = top()\n"
            "from relu_unwrap.cli import main\n"
            "code = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, 'numpy.ma' in sys.modules, sorted(top() - site)]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(argv)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result == [0, False, ["numpy", "relu_unwrap"]], argv[0]


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys)[0] == 64

    @pytest.mark.parametrize("command", ["decompose", "shallowize", "verify", "bench"])
    def test_negative_budget_is_a_usage_error(self, capsys, tmp_path, command):
        """Refused before any file is read or written: the model does not
        exist, and no output appears."""
        missing, out = str(tmp_path / "missing.json"), tmp_path / "out"
        files = {"verify": ["--model", missing, "--shallow", missing], "bench": ["--out", str(out)]}
        argv = files.get(command, ["--model", missing, "--out", str(out)])
        code, stdout, stderr = run(capsys, command, *argv, "--budget", "-3")
        assert (code, stdout) == (64, "")
        assert stderr == "error: --budget must be at least 0, got -3\n"
        assert not out.exists()

    def test_zero_budget_is_accepted(self, capsys, tmp_path, affine_m1_file):
        """A budget of 0 is valid: a net without hidden layers needs no LP."""
        out = tmp_path / "d.json"
        argv = ["decompose", "--model", affine_m1_file, "--out", str(out), "--budget", "0"]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and json.loads(stdout)["candidates_checked"] == 0

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_unknown_flag(self, capsys, demo_m1_file):
        code, _, _ = run(
            capsys, "decompose", "--model", demo_m1_file, "--nope", "x"
        )
        assert code == 64
