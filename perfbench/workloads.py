"""Workloads, fixtures, timed operations and the correctness gate.

Every workload runs the same kinds of operation in each round, so that every
end-to-end metric is measured on every workload:

* pipeline: ``decompose -> build_shallow -> eval_shallow_many`` on each of
  the workload's pipeline networks, compared against ``forward_many``;
* queries: ``locate_region``, ``exact_shap``, ``hypercube`` and batched
  ``eval_shallow_many`` on a decomposition built during set-up;
* cli: one ``relu_unwrap.cli.main`` session (decompose, shallowize, verify,
  repeated shap, plot) on a model file written during set-up.

A workload makes some kinds heavy and runs the rest on a small light network.
A run repeats short rounds of all three kinds, interleaved (see
:func:`run_round`), and reports medians over its rounds.

Networks are part of the workload definition (fixed shapes and network
seeds, like a fixed shape set); the run seed draws every point: pipeline
samples, query points, SHAP backgrounds, hypercube regions and the CLI's
verify seed, shap points and plot points.  Every library call uses
``threads=1`` and every CLI call ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import relu_unwrap as ru
import relu_unwrap.cli as ru_cli

SAMPLES_PER_NET = 10_000  # pipeline evaluation points per network
SAMPLE_RANGE = 10.0       # samples uniform on [-10, 10]^n, as `verify` draws them
QUERY_RANGE = 3.0         # query and background points uniform on [-3, 3]^n
BACKGROUND = 256          # SHAP background points
EVAL_BATCH = 1000         # points per query eval_shallow_many call
PLOT_POINTS = 20
PLOT_BOUNDS = "-3,-3,3,3"
CLI_VERIFY_SAMPLES = 10_000
QUERY_CHUNKS = 32          # query steps per round, spread between the other steps
FAR = 1e6                  # half-width of the squares the hypercube check clips
PROBE_REPS = 3             # calls per probe; their median is used

TOL_SHALLOW = 1e-6  # rebuilt vs original network
TOL_EXACT = 1e-9    # affine model vs forward, SHAP efficiency (relative above 1)


@dataclass(frozen=True)
class NetSpec:
    """A network of the workload: Xavier weights, optionally N(0,1) biases.

    ``biased`` nets draw their biases from ``default_rng(10000 + net_seed)``,
    hidden layers first, then the output layer.
    """

    dims: tuple[int, ...]
    output_dim: int
    net_seed: int
    biased: bool

    @property
    def label(self) -> str:
        kind = "biased" if self.biased else "xavier"
        return f"{kind}{list(self.dims)}x{self.output_dim}#{self.net_seed}"

    def build(self) -> ru.MLPNetwork:
        net = ru.random_init(list(self.dims), self.output_dim, self.net_seed)
        if not self.biased:
            return net
        rng = np.random.default_rng(10_000 + self.net_seed)
        layers = [
            ru.Layer(layer.weights, rng.normal(0.0, 1.0, layer.weights.shape[0]))
            for layer in net.hidden + (net.output,)
        ]
        return ru.MLPNetwork(tuple(layers[:-1]), layers[-1])


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: tuple[NetSpec, ...]
    query: NetSpec
    cli: NetSpec


@dataclass(frozen=True)
class Mix:
    """Operations per round; the same on every workload.

    Every round also boxes each region of the query network once with
    ``hypercube``, so its latency percentiles do not depend on a draw.
    """

    locate_grid: int  # locate_grid**2 locate points, one in each cell of a grid
    shaps: int
    eval_batches: int
    cli_shaps: int  # per CLI session (one session per round)


MIX = Mix(locate_grid=30, shaps=40, eval_batches=5, cli_shaps=10)
SMOKE_MIX = Mix(locate_grid=2, shaps=3, eval_batches=2, cli_shaps=2)

LIGHT_NET = NetSpec((2, 4, 4), 2, 0, True)

WORKLOADS = {
    w.name: w
    for w in (
        # enumeration-bound sparse net, a half-space-heavy biased net and the
        # biased net that fails today; the queries and the CLI run on the light net
        Workload(
            "pipeline",
            pipeline=(
                NetSpec((2, 8, 8, 8), 1, 0, False),
                NetSpec((3, 5, 5, 3), 2, 0, True),
                NetSpec((3, 6, 6, 3), 2, 2, True),
            ),
            query=LIGHT_NET,
            cli=LIGHT_NET,
        ),
        # single queries on a set-up decomposition and CLI sessions; the
        # pipeline runs on two nets of the light net's shape
        Workload(
            "interactive",
            pipeline=tuple(NetSpec((2, 4, 4), 2, s, True) for s in range(2)),
            query=NetSpec((2, 8, 8, 4), 2, 0, True),
            cli=NetSpec((2, 4, 4, 3), 2, 0, True),
        ),
    )
}


def smoke_workload(w: Workload) -> Workload:
    """The same workload on tiny shapes, for the smoke mode (with SMOKE_MIX)."""
    tiny = NetSpec((2, 3, 3), 2, 0, True)
    return Workload(w.name, pipeline=(tiny, NetSpec((2, 3, 2), 1, 1, False)), query=tiny, cli=tiny)


# ---------------------------------------------------------------------------
# Run state


class Gate:
    """Wrong outputs fail the run; raised library errors count as failed ops.

    Attempts and failures are kept per kind of operation (pipeline, locate,
    shap, hypercube, eval, cli), so that one more failure shows in the
    success rate of its kind however many operations of other kinds ran.
    """

    def __init__(self):
        self.wrong: list[str] = []
        self.attempts: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.errors: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def success_rate(self) -> float:
        """The lowest share of successful operations over the kinds."""
        return min((n - self.failures.get(k, 0)) / n for k, n in self.attempts.items())

    def check(self, ok: bool, what: str):
        if not ok:
            self.wrong.append(what)

    def op(self, kind: str):
        self.attempts[kind] = self.attempts.get(kind, 0) + 1

    def fail(self, kind: str, where: str, error: str):
        self.failures[kind] = self.failures.get(kind, 0) + 1
        key = f"{where}: {error}"
        self.errors[key] = self.errors.get(key, 0) + 1


@dataclass
class Fixtures:
    """Everything set-up builds: networks, the query decomposition, CLI files."""

    pipeline_nets: list
    samples: list
    query_net: ru.MLPNetwork
    query_decomp: ru.Decomposition
    query_shallow: ru.ShallowNetwork
    cli_net: ru.MLPNetwork
    files: dict


def _close(a, b, tol):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol * np.maximum(1.0, np.abs(b))))


def set_up(w: Workload, rng: np.random.Generator, workdir: str) -> Fixtures:
    """Build the workload's inputs; the first rounds of a run repeat and time this."""
    nets = [spec.build() for spec in w.pipeline]
    samples = [
        rng.uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=(SAMPLES_PER_NET, net.input_dim))
        for net in nets
    ]
    query_net = w.query.build()
    query_decomp = ru.decompose(query_net, threads=1)
    query_shallow = ru.build_shallow(query_decomp)
    cli_net = w.cli.build()
    os.makedirs(workdir, exist_ok=True)
    files = {
        key: os.path.join(workdir, name)
        for key, name in (
            ("model", "model.json"),
            ("decomp", "decomp.json"),
            ("shallow", "shallow.json"),
            ("background", "background.csv"),
            ("points", "points.csv"),
            ("svg", "regions.svg"),
        )
    }
    ru.save_model(cli_net, files["model"])
    background = rng.uniform(-QUERY_RANGE, QUERY_RANGE, size=(BACKGROUND, cli_net.input_dim))
    np.savetxt(files["background"], background, delimiter=",", fmt="%.17g")
    plot_points = rng.uniform(-QUERY_RANGE, QUERY_RANGE, size=(PLOT_POINTS, 2))
    np.savetxt(files["points"], plot_points, delimiter=",", fmt="%.17g")
    return Fixtures(nets, samples, query_net, query_decomp, query_shallow, cli_net, files)


def check_fixture(fx: Fixtures, gate: Gate):
    """The set-up decomposition must rebuild exactly at its witnesses."""
    d, net = fx.query_decomp, fx.query_net
    witnesses = np.array([r.witness for r in d.regions])
    gate.check(
        _close(ru.eval_shallow_many(fx.query_shallow, witnesses), ru.forward_many(net, witnesses), TOL_SHALLOW),
        "query fixture: shallow disagrees with forward at a witness",
    )


# ---------------------------------------------------------------------------
# One round.  Only the library calls are timed; checks run outside the timer.


def run_round(fx: Fixtures, w: Workload, mix: Mix, rng: np.random.Generator, gate: Gate, setup=None) -> dict:
    """One round: the pipeline nets, one CLI session and the queries, merged.

    Each stream's steps are spread evenly over the round by their index, so
    every metric samples the whole round instead of one stretch of it.
    ``setup``, if given, is one more step, timed as the round's set-up.  Every
    input is drawn before the first step, so the merge order cannot change
    what is drawn.

    Each time is recorded as ``(seconds, step)``.  The host is probed before
    the first step and after every step; ``factors[step]`` holds the host
    factors of the probes around that step.
    """
    out = {
        "step": 0, "regions": 0, "eval_points": 0, "net_s": {}, "counts": {},
        "pipeline": [], "locate": [], "shap": [], "hypercube": [], "eval": [],
        "session": [], "cli_shap": [], "setup": [],
    }
    n = fx.query_net.input_dim
    background = rng.uniform(-QUERY_RANGE, QUERY_RANGE, size=(BACKGROUND, n))
    locate = _jittered_grid(rng, mix.locate_grid)
    regions = rng.permutation(fx.query_decomp.num_regions)

    def share(items, c):
        return items[len(items) * c // QUERY_CHUNKS:len(items) * (c + 1) // QUERY_CHUNKS]

    chunks = [
        {
            "locate": share(locate, c),
            "shap": rng.uniform(-QUERY_RANGE, QUERY_RANGE, size=(len(share(range(mix.shaps), c)), n)),
            "hypercube": share(regions, c),
            "eval": [
                rng.uniform(-QUERY_RANGE, QUERY_RANGE, size=(EVAL_BATCH, n))
                for _ in share(range(mix.eval_batches), c)
            ],
        }
        for c in range(QUERY_CHUNKS)
    ]
    session = _CliSession(fx, mix, rng, gate, out)
    streams = [
        [
            functools.partial(_pipeline_one, spec, net, X, gate, out)
            for spec, net, X in zip(w.pipeline, fx.pipeline_nets, fx.samples)
        ],
        session.steps(),
        [functools.partial(_queries, fx, gate, out, background, chunk) for chunk in chunks],
        [] if setup is None else [functools.partial(_timed_setup, setup, out)],
    ]
    schedule = sorted(
        ((i + 0.5) / len(steps), k, i) for k, steps in enumerate(streams) for i in range(len(steps))
    )
    probes = [probe()]
    start = time.perf_counter()
    for step, (_, k, i) in enumerate(schedule):
        out["step"] = step
        streams[k][i]()
        probes.append(probe())
    out["wall"] = time.perf_counter() - start
    out["factors"] = [host_factors(a, b) for a, b in zip(probes, probes[1:])]
    return out


def _record(out: dict, key: str, seconds: float):
    out[key].append((seconds, out["step"]))


def _timed_setup(setup, out: dict):
    start = time.perf_counter()
    setup()
    _record(out, "setup", time.perf_counter() - start)


_PROBE_RNG = np.random.default_rng(12345)
_PROBE_T = _PROBE_RNG.uniform(1.0, 2.0, size=(16, 32))
_PROBE_A = _PROBE_RNG.uniform(-1.0, 1.0, size=(250, 128))
_PROBE_B = _PROBE_RNG.uniform(-1.0, 1.0, size=(128, 256))


def host_probe() -> float:
    """Seconds of fixed reference work: small numpy pivots in a Python loop.

    The work is the benchmark's own, so a change to relu_unwrap cannot move
    it; only the host's speed can.
    """
    start = time.perf_counter()
    for k in range(50):
        r, c = k % 16, (5 * k) % 32
        T = _PROBE_T.copy()
        T -= np.outer(T[:, c], T[r]) / T[r, c]
        int(np.argmin(T[:, c]))
    return time.perf_counter() - start


def blas_probe() -> float:
    """Seconds of one fixed matrix product and ReLU, the kind of work of
    ``eval_shallow_many``; the host slows it less than interpreted code."""
    start = time.perf_counter()
    Z = _PROBE_A @ _PROBE_B
    np.maximum(Z, 0.0, out=Z)
    float(Z.sum())
    return time.perf_counter() - start


# kind of probe -> (probe, the time it is scaled to)
PROBES = {"host": (host_probe, 5e-4), "blas": (blas_probe, 4e-4)}


def probe() -> dict:
    """Seconds of each kind of probe: the median of PROBE_REPS calls."""
    return {kind: float(np.median([f() for _ in range(PROBE_REPS)])) for kind, (f, _) in PROBES.items()}


def host_factors(before: dict, after: dict) -> dict:
    """Host factor of each kind for the stretch between two probes.

    It is the reference time over the mean of the two probe times, so a time
    measured in the stretch, multiplied by it, reads as the time on a host
    where the probe takes its reference time.
    """
    return {kind: 2 * reference / (before[kind] + after[kind]) for kind, (_, reference) in PROBES.items()}


def _jittered_grid(rng: np.random.Generator, side: int) -> np.ndarray:
    """side**2 points in [-QUERY_RANGE, QUERY_RANGE]^2, one uniform in each grid cell.

    A stratified draw: every seed covers the square evenly, so a latency
    percentile over the points moves with the program, not with the draw.
    The points come in random order.
    """
    cells = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
    unit = (cells + rng.uniform(0.0, 1.0, size=cells.shape)) / side
    return rng.permutation(QUERY_RANGE * (2.0 * unit - 1.0))


def _pipeline_one(spec: NetSpec, net, X, gate: Gate, out: dict):
    gate.op("pipeline")
    start = time.perf_counter()
    try:
        d = ru.decompose(net, threads=1)
        s = ru.build_shallow(d)
        points = np.vstack([X, np.array([r.witness for r in d.regions])])
        got = ru.eval_shallow_many(s, points)
        want = ru.forward_many(net, points)
    except ru.UnwrapError as exc:
        elapsed = time.perf_counter() - start  # a failed attempt counts up to the raise
        gate.fail("pipeline", f"pipeline {spec.label}", type(exc).__name__)
        out["counts"][f"pipeline.{spec.label}"] = {"error": type(exc).__name__}
    else:
        elapsed = time.perf_counter() - start
        out["regions"] += d.num_regions
        gate.check(
            float(np.abs(got - want).max()) <= TOL_SHALLOW,
            f"pipeline {spec.label}: shallow vs forward_many beyond {TOL_SHALLOW}",
        )
        out["counts"][f"pipeline.{spec.label}"] = {"p": d.num_regions, "k": d.num_halfspaces}
    _record(out, "pipeline", elapsed)
    out["net_s"][spec.label] = elapsed


def _queries(fx: Fixtures, gate: Gate, out: dict, background, chunk: dict):
    d, net, s = fx.query_decomp, fx.query_net, fx.query_shallow

    for x in chunk["locate"]:
        gate.op("locate")
        start = time.perf_counter()
        try:
            r = ru.locate_region(d, x)
        except ru.UnwrapError as exc:
            gate.fail("locate", "locate_region", type(exc).__name__)
            continue
        _record(out, "locate", time.perf_counter() - start)
        region = d.regions[r]
        gate.check(
            region.pattern == ru.activation_pattern(net, x),
            "locate_region: region pattern differs from activation_pattern",
        )
        gate.check(
            _close(region.alpha @ x + region.beta, ru.forward(net, x).output, TOL_EXACT),
            "locate_region: region model differs from forward",
        )

    for x in chunk["shap"]:
        gate.op("shap")
        start = time.perf_counter()
        try:
            res = ru.exact_shap(d, x, background)
        except ru.UnwrapError as exc:
            gate.fail("shap", "exact_shap", type(exc).__name__)
            continue
        _record(out, "shap", time.perf_counter() - start)
        _check_shap(gate, net, d, x, res.phi, res.region, res.mu, "exact_shap")

    for r in chunk["hypercube"]:
        gate.op("hypercube")
        start = time.perf_counter()
        try:
            cube = ru.hypercube(d, int(r))
        except ru.UnwrapError as exc:
            gate.fail("hypercube", "hypercube", type(exc).__name__)
            continue
        _record(out, "hypercube", time.perf_counter() - start)
        _check_hypercube(gate, d, int(r), cube)

    for X in chunk["eval"]:
        gate.op("eval")
        start = time.perf_counter()
        try:
            got = ru.eval_shallow_many(s, X)
        except ru.UnwrapError as exc:
            gate.fail("eval", "eval_shallow_many", type(exc).__name__)
            continue
        _record(out, "eval", time.perf_counter() - start)
        out["eval_points"] += len(X)
        gate.check(
            float(np.abs(got - ru.forward_many(net, X)).max()) <= TOL_SHALLOW,
            f"eval_shallow_many: batch differs from forward_many beyond {TOL_SHALLOW}",
        )


def _box_2d(d, r, far):
    """Bounding box of region r within the square [-far, far]^2.

    The square is clipped by the region's half-planes (query networks have
    2 inputs); returns (lo, hi), or None if nothing is left.
    """
    poly = np.array([(-far, -far), (far, -far), (far, far), (-far, far)])
    for i in d.regions[r].halfspace_ids:
        h = d.halfspaces[i]  # interior: normal . x > offset
        margin = poly @ h.normal - h.offset
        kept = []
        for j in range(len(poly)):
            k = (j + 1) % len(poly)
            if margin[j] >= 0:
                kept.append(poly[j])
            if (margin[j] >= 0) != (margin[k] >= 0):
                kept.append(poly[j] + margin[j] / (margin[j] - margin[k]) * (poly[k] - poly[j]))
        if len(kept) < 3:
            return None
        poly = np.array(kept)
    return poly.min(axis=0), poly.max(axis=0)


def _check_hypercube(gate, d, r, cube):
    """Compare the cube with the region's bounding box, found by clipping.

    A coordinate whose extent changes when the clipping square doubles is
    unbounded.  Otherwise the cube's center must be the box's midpoint, and
    its side the widest bounded extent.
    """
    box, wide = _box_2d(d, r, FAR), _box_2d(d, r, 2 * FAR)
    ok = box is not None and wide is not None
    if ok:
        (lo, hi), (wide_lo, wide_hi) = box, wide
        unbounded = tuple(
            i for i in range(2)
            if not (_close(lo[i], wide_lo[i], TOL_SHALLOW) and _close(hi[i], wide_hi[i], TOL_SHALLOW))
        )
        extents = [hi[i] - lo[i] for i in range(2) if i not in unbounded]
        ok = unbounded == tuple(cube.unbounded_dims) and all(
            _close(cube.center[i], (lo[i] + hi[i]) / 2, TOL_SHALLOW) for i in range(2) if i not in unbounded
        )
        ok = ok and (_close(cube.side, max(extents), TOL_SHALLOW) if extents else cube.side == np.inf)
    gate.check(ok, f"hypercube: region {r} cube differs from its polygon's bounding box")


def _check_shap(gate, net, d, x, phi, r, mu, what):
    """Efficiency: sum_i phi[i, j] = f(x)_j - (alpha_j . mu + beta_j)."""
    region = d.regions[r]
    f = ru.forward(net, x).output
    gate.check(
        _close(np.asarray(phi).sum(axis=0), f - (region.alpha @ mu + region.beta), TOL_EXACT),
        f"{what}: attributions do not sum to f(x) - f(mu)",
    )


def _cli(argv: list[str], gate: Gate) -> tuple[float, dict | None]:
    """Run one CLI command in-process; returns (seconds, payload or None)."""
    gate.op("cli")
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = ru_cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != ru_cli.EXIT_OK:
        gate.fail("cli", f"cli {argv[0]}", f"exit {code}: {stderr.getvalue().strip()[:120]}")
        return elapsed, None
    lines = stdout.getvalue().splitlines()
    try:
        payload = json.loads(lines[0]) if len(lines) == 1 else None
    except json.JSONDecodeError:
        payload = None
    gate.check(isinstance(payload, dict), f"cli {argv[0]}: stdout is not one JSON line")
    return elapsed, payload if isinstance(payload, dict) else None


class _CliSession:
    """One relu-unwrap session on the CLI model; each command is one step."""

    def __init__(self, fx: Fixtures, mix: Mix, rng, gate: Gate, out: dict):
        self.f, self.net, self.gate, self.out = fx.files, fx.cli_net, gate, out
        self.verify_seed = str(int(rng.integers(0, 2**31)))
        self.shap_points = rng.uniform(-QUERY_RANGE, QUERY_RANGE, size=(mix.cli_shaps, fx.cli_net.input_dim))
        self.decomp = self.payload = None

    def steps(self) -> list:
        shaps = [functools.partial(self.shap, x) for x in self.shap_points]
        return [self.decompose, self.shallowize, self.verify, *shaps, self.plot]

    def _run(self, *argv):
        t, payload = _cli(list(argv), self.gate)
        _record(self.out, "session", t)
        return t, payload

    def decompose(self):
        f = self.f
        _, self.payload = self._run("decompose", "--model", f["model"], "--out", f["decomp"], "--threads", "1")
        if self.payload is not None:
            self.decomp = ru.load_decomposition(f["decomp"])
            self.out["counts"]["cli"] = {
                k: self.payload[k] for k in ("p", "k", "candidates_checked", "layer_feasible")
            }

    def shallowize(self):
        f = self.f
        _, sha = self._run("shallowize", "--model", f["model"], "--out", f["shallow"], "--threads", "1")
        if sha is not None and self.payload is not None:
            self.gate.check(
                (sha["p"], sha["k"]) == (self.payload["p"], self.payload["k"]),
                "cli: decompose and shallowize disagree on p, k (nondeterminism)",
            )

    def verify(self):
        f = self.f
        _, ver = self._run(
            "verify", "--model", f["model"], "--shallow", f["shallow"],
            "--samples", str(CLI_VERIFY_SAMPLES), "--seed", self.verify_seed, "--threads", "1",
        )
        if ver is not None:
            self.gate.check(ver.get("pass") is True, "cli verify: pass is not true")

    def shap(self, x):
        point = ",".join(repr(float(v)) for v in x)
        t, res = self._run("shap", "--decomp", self.f["decomp"], "--point", point,
                           "--background", self.f["background"])
        if res is not None:
            _record(self.out, "cli_shap", t)
            if self.decomp is not None:
                _check_shap(self.gate, self.net, self.decomp, x, res["phi"], res["region"],
                            np.array(res["mu"]), "cli shap")

    def plot(self):
        f = self.f
        _, res = self._run("plot", "--decomp", f["decomp"], "--points", f["points"],
                           "--bounds", PLOT_BOUNDS, "--out", f["svg"])
        if res is not None:
            self.gate.check(res.get("points") == PLOT_POINTS, "cli plot: wrong point count")
