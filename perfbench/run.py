"""relu-unwrap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout: the package is imported from ``src/`` and
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the environment,
round and operation counts, structural counts and any differences from
``perfbench/reference_counts.json``.

``--trace 0`` measures the end-to-end metrics with tracing off, each time
scaled to a fixed host speed by probes timed around every step.  ``--trace
1`` runs one round traced and reports the per-layer metrics plus the tracing
overhead.  The exit code is 1 when an output is wrong.  ``--smoke`` runs
every workload on tiny shapes, traced and untraced, and fails unless every
named metric is emitted and every wrapped function was called.
``perfbench/DESIGN.md`` describes the workloads and metrics.
"""

import os

# BLAS threads would spread eval_shallow_many over every core; the CLI
# reads RELU_UNWRAP_THREADS before its --threads flag.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RELU_UNWRAP_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_ROUNDS = 3  # every untraced run has at least these, --seconds 0 (smoke) exactly these
SETUP_REPS = 2  # rounds that repeat the set-up; setup_s is the median of these and the first


def _import_package():
    """Import relu_unwrap from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "relu_unwrap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/relu_unwrap under {ROOT}; run from a checkout root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import relu_unwrap

    if Path(relu_unwrap.__file__).resolve().parent != (src / "relu_unwrap").resolve():
        sys.exit(f"perfbench: relu_unwrap imported from {relu_unwrap.__file__}, not {src}")


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} not found")
    return json.loads(path.read_text())


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RELU_UNWRAP_THREADS")},
    }


def _ms(values, q):
    """Percentile q of a list of seconds, in milliseconds."""
    return float(np.percentile(np.asarray(values) * 1e3, q))


def _end_to_end(rounds, first_setup, gate, scaled=True) -> dict:
    """Latency percentiles over all the run's calls; per-round totals as medians over rounds.

    With ``scaled``, every time is first multiplied by the host factor of the
    step it was measured in (see ``workloads.run_round``): the BLAS factor
    for ``eval_shallow_many`` batches, the interpreter factor for the rest.
    """

    def scale(t, factors, key):
        return t * factors["blas" if key == "eval" else "host"] if scaled else t

    def times(r, key):
        return [scale(t, r["factors"][step], key) for t, step in r[key]]

    def median(f):
        return statistics.median(f(r) for r in rounds)

    def pooled(key, q):
        return _ms([t for r in rounds for t in times(r, key)], q)

    return {
        "setup_s": statistics.median([scale(*first_setup, "setup")] + [t for r in rounds for t in times(r, "setup")]),
        "pipeline_s": median(lambda r: sum(times(r, "pipeline"))),
        "regions_per_s": median(lambda r: r["regions"] / sum(times(r, "pipeline"))),
        "locate_ms_p50": pooled("locate", 50),
        "locate_ms_p90": pooled("locate", 90),
        "shap_ms_p50": pooled("shap", 50),
        "shap_ms_p90": pooled("shap", 90),
        "hypercube_ms_p50": pooled("hypercube", 50),
        "eval_points_per_s": median(lambda r: r["eval_points"] / sum(times(r, "eval"))),
        "session_s": median(lambda r: sum(times(r, "session"))),
        "cli_shap_ms_p50": pooled("cli_shap", 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": gate.success_rate(),
    }


# counts that depend only on the workload's networks, not on the run seed
_TRACE_COUNTS = (
    "lp.check_feasible.calls",
    "lp.is_redundant.calls",
    "lp.iteration_limit_errors",
    "decomposition.candidates",
    "decomposition.regions",
    "decomposition.halfspaces",
    "shallow.w3_cells",
    "cli.enumerations",
)


def _count_changes(name: str, counts: dict) -> list[str]:
    """Differences from the recorded reference counts of this workload."""
    path = HERE / "reference_counts.json"
    if not path.is_file():
        return []
    ref = json.loads(path.read_text()).get(name, {})
    changes = []
    for key, value in counts.items():
        if key in ref and ref[key] != value:
            changes.append(f"{key}: reference {ref[key]}, now {value}")
    return changes


def run_workload(
    w, seed: int, seconds: float, trace: bool, workdir_root: Path, trace_dir: Path | None, smoke: bool = False
) -> dict:
    """Set up, then run rounds until ``seconds`` would pass (at least MIN_ROUNDS)."""
    import spans as tr
    import workloads as wl

    workdir_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=workdir_root)
    try:
        gate = wl.Gate()

        def setup(name):
            return wl.set_up(w, np.random.default_rng(seed), os.path.join(workdir, name))

        before = wl.probe()
        start = time.perf_counter()
        fx = setup("fixtures")
        first_setup = (time.perf_counter() - start, wl.host_factors(before, wl.probe()))
        wl.check_fixture(fx, gate)
        fx_counts = {"query": {"p": fx.query_decomp.num_regions, "k": fx.query_decomp.num_halfspaces}}

        rng = np.random.default_rng([seed, 1])
        mix = wl.SMOKE_MIX if smoke else wl.MIX
        if trace:
            tracer = tr.Tracer()
            with tracer:
                rounds = [wl.run_round(fx, w, mix, rng, gate)]
            metrics = tr.layer_metrics(tracer)
            metrics["trace.overhead_share"] = len(tracer.spans) * tr.span_cost() / rounds[0]["wall"]
        else:
            # the first rounds repeat the set-up as one of their steps, so
            # setup_s is a median over several stretches of the run
            rounds = []
            start = time.perf_counter()
            while True:
                i = len(rounds) + 1
                again = functools.partial(setup, f"setup{i}") if i <= SETUP_REPS else None
                rounds.append(wl.run_round(fx, w, mix, rng, gate, again))
                expected = statistics.median(r["wall"] for r in rounds)
                if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + expected > seconds:
                    break
            metrics = _end_to_end(rounds, first_setup, gate)

        counts = {**fx_counts, **rounds[0]["counts"]}
        for i, r in enumerate(rounds[1:], 1):
            gate.check(
                r["counts"] == rounds[0]["counts"],
                f"nondeterminism: round {i} counts {r['counts']} differ from round 0 {rounds[0]['counts']}",
            )
        if trace:
            counts.update({k: metrics[k] for k in _TRACE_COUNTS})
            if trace_dir is not None:
                trace_dir.mkdir(exist_ok=True)
                (trace_dir / f"trace-{w.name}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
        return {
            "metrics": metrics,
            "gate": gate,
            "info": {
                "workload": w.name,
                "seed": seed,
                "trace": int(trace),
                "rounds": len(rounds),
                "round_wall_s": [round(r["wall"], 4) for r in rounds],
                "pipeline_net_s": {k: round(statistics.median(r["net_s"][k] for r in rounds), 4) for k in rounds[0]["net_s"]},
                "first_setup_s": round(first_setup[0], 4),
                "host_factor": {
                    kind: [round(statistics.median(f[kind] for f in r["factors"]), 4) for r in rounds]
                    for kind in wl.PROBES
                },
                "unscaled": None if trace else _end_to_end(rounds, first_setup, gate, scaled=False),
                "samples": {k: sum(len(r[k]) for r in rounds) for k in ("locate", "shap", "hypercube", "cli_shap")},
                "attempts": dict(gate.attempts),
                "counts": counts,
                "calls": tr.call_counts(tracer) if trace else None,
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _with_units(values: dict, spec: dict, kind: str) -> dict:
    declared = spec[kind]
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(f"{kind} metrics disagree with BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def _result(run: dict, spec: dict) -> dict:
    gate = run["gate"]
    kind = "per_layer" if run["info"]["trace"] else "end_to_end"
    return {
        "correct": not gate.wrong,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": _with_units(run["metrics"], spec, kind),
    }


def _info(run: dict) -> dict:
    gate = run["gate"]
    info = dict(run["info"])
    info["env"] = _environment()
    info["errors"] = gate.errors
    info["wrong"] = gate.wrong[:20]
    info["count_changes"] = _count_changes(info["workload"], info["counts"])
    return info


def smoke(spec: dict) -> int:
    """Tiny shapes, every workload, traced and untraced; fails loudly."""
    import spans as tr
    import workloads as wl

    problems = []
    called = dict.fromkeys(tr.call_counts(tr.Tracer()), 0)
    for w in wl.WORKLOADS.values():
        tiny = wl.smoke_workload(w)
        for trace in (False, True):
            run = run_workload(tiny, 0, 0.0, trace, ROOT / ".perfbench_work", None, smoke=True)
            try:
                result = _result(run, spec)
            except RuntimeError as exc:
                problems.append(f"{w.name} trace={int(trace)}: {exc}")
                continue
            if not result["correct"]:
                problems.append(f"{w.name} trace={int(trace)}: wrong outputs {run['gate'].wrong[:3]}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{w.name} trace={int(trace)}: non-finite metrics {bad}")
            if trace:
                for name, n in run["info"]["calls"].items():
                    called[name] += n
    never = sorted(name for name, n in called.items() if n == 0)
    if never:
        problems.append(f"wrapped functions never called (calls bypass the tracer): {never}")
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = _load_spec()
    _import_package()
    if args.smoke:
        return smoke(spec)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    run = run_workload(
        wl.WORKLOADS[args.workload], args.seed, seconds, bool(args.trace),
        ROOT / ".perfbench_work", ROOT / ".perfbench_out",
    )
    result = _result(run, spec)
    info = _info(run)
    for line in info["count_changes"]:
        print(f"perfbench: count changed vs reference: {line}", file=sys.stderr)
    for line in info["wrong"]:
        print(f"perfbench: WRONG OUTPUT: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
