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
        "nan_alpha,point", [(True, "0.1,0.2"), (False, "nan,0")], ids=["nan-alpha", "nan-point"]
    )
    def test_non_finite_input_exit_1(self, capsys, tmp_path, nan_alpha, point):
        """A NaN in the region table or in the point gives no attributions."""
        doc = json.loads(dumps_decomposition(decompose(biased_net([2, 4, 4], 2, seed=0))))
        if nan_alpha:
            doc["regions"][0]["alpha"][0][0] = float("nan")  # written as a bare NaN
        path, bg = tmp_path / "d.json", tmp_path / "bg.csv"
        path.write_text(json.dumps(doc))
        bg.write_text("0.0,0.0\n")
        code, stdout, _ = run(
            capsys, "shap", "--decomp", str(path), "--point", point, "--background", str(bg)
        )
        assert code == 1 and stdout == ""

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


class TestColdStart:
    def test_no_command_imports_numpy_ma(self, tmp_path):
        """numpy.ma costs about 15 ms to import (np.unique is one way in);
        decompose, shallowize, verify, shap and plot run without it, each in
        a fresh interpreter."""
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
        script = (
            "import json, sys\n"
            "from relu_unwrap.cli import main\n"
            "code = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, 'numpy.ma' in sys.modules]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(argv)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout.splitlines()[-1]) == [0, False], argv[0]


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
