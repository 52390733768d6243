"""Command-line interface.

Subcommands: decompose, shallowize, verify, shap, bench, plot.  Every
command writes a single line of JSON to standard output and keeps
diagnostics on standard error.  Exit codes: 0 success, 1 input error,
2 pattern-search budget exceeded, 3 verification failure, 64 usage error.
Usage errors are found before any file is read or opened: argparse refuses
a --point that is not comma-separated finite numbers and --bounds that are
not four finite numbers, among its own checks; besides, --budget, --samples
and --seed must be at least 0, --tol and --range finite and at least 0,
--min-w1, --min-w2, --w3 and --repeats at least 1, and --max-w1 and --max-w2
at least their --min- flags.  All randomness flows from --seed flags, so
runs are reproducible.  The pattern search runs in one thread: --threads
is accepted for compatibility and ignored, and the RELU_UNWRAP_THREADS
environment variable is never read.  bench runs its grid once to count
patterns and regions, then times it in BENCH_PASSES more passes, every
network once per pass, seed by seed in grid order, and writes each
network's mean time.perf_counter wall time over those passes; a network
whose search budget runs out runs once and gets -1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
import warnings

import numpy as np

from .decomposition import (
    build_decomposition,
    enumerate_feasible,
    load_decomposition,
    save_decomposition,
)
from .errors import AmbiguousSelectionError, BudgetExceededError, UnwrapError
from .explain import exact_shap, plot_regions_2d
from .network import forward_many, load_model, random_init
from .shallow import build_shallow, eval_shallow_many, load_shallow, save_shallow

DEFAULT_BUDGET = 2**22
BENCH_PASSES = 20  # timed passes of bench over its grid, after the counting pass

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64

# the least value of each numeric flag, or the flag holding it; a float flag
# must also be finite.  main checks them in this order before a command runs.
_FLAG_LEAST = {
    "--budget": 0, "--samples": 0, "--seed": 0, "--tol": 0, "--range": 0,
    "--min-w1": 1, "--min-w2": 1, "--w3": 1, "--repeats": 1,
    "--max-w1": "--min-w1", "--max-w2": "--min-w2",
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-2,-2,2,2", "-.5,1" or "-inf,0" (bounds, points) must
        # not parse as flags; no option here starts with a digit, ".<digit>",
        # "inf" or "nan", so such a value is always data
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload: dict):
    # a NaN or infinity raises ValueError (exit 1) before anything is printed
    print(json.dumps(payload, allow_nan=False))


def _diag(message: str):
    print(message, file=sys.stderr)


def _note_fallbacks(enum):
    """One stderr line when search or witness solves ran out of pivots."""
    if enum.solver_fallbacks:
        _diag(
            f"warning: {enum.solver_fallbacks} feasibility solve(s) hit the simplex "
            "pivot limit; none of them pruned a cell"
        )
    return enum


def _enumerate(net, budget: int):
    return _note_fallbacks(enumerate_feasible(net, budget=budget))


def _point_flag(text: str) -> list[float]:
    """--point: comma-separated finite numbers."""
    try:
        point = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid point {text!r}: {exc}") from None
    if not all(map(math.isfinite, point)):
        raise argparse.ArgumentTypeError(f"invalid point {text!r}: coordinates must be finite")
    return point


def _bounds_flag(text: str) -> tuple[float, ...]:
    """--bounds: four finite numbers x0,y0,x1,y1."""
    try:
        bounds = tuple(map(float, text.split(",")))
    except ValueError:
        bounds = ()
    if len(bounds) != 4 or not all(map(math.isfinite, bounds)):
        raise argparse.ArgumentTypeError(f"expected four finite numbers x0,y0,x1,y1, got {text!r}")
    return bounds


def _read_points_csv(path):
    """Rows of ``x,y[,label]``; returns (points array, labels or None)."""
    points, labels, any_label = [], [], False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected at least x,y")
            try:
                points.append([float(parts[0]), float(parts[1])])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, points[-1])):
                raise ValueError(f"{path}:{lineno}: coordinates must be finite")
            label = ",".join(parts[2:]) if len(parts) > 2 else ""
            labels.append(label)
            any_label = any_label or bool(label)
    pts = np.array(points, dtype=np.float64).reshape(-1, 2)
    return pts, (labels if any_label else None)


def _bad_row(path) -> str | None:
    """Why the first bad data row of a CSV of numbers is bad, or None.

    Lines are read as ``np.loadtxt`` reads them: a comment runs from "#" to
    the end of its line, and only lines left empty are skipped, so rows and
    columns are counted from 1 past those.  A row is bad if its cell count
    differs from the first row's or a cell is not a number.
    """
    width, row = None, 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            text = line.split("#", 1)[0].rstrip("\n")
            if not text:
                continue
            row += 1
            cells = [cell.strip() for cell in text.split(",")]
            width = width or len(cells)
            if len(cells) != width:
                return f"row {row} has a different number of columns ({len(cells)}) than row 1 ({width})"
            for col, cell in enumerate(cells, 1):
                try:
                    # float() also reads "1_0" and non-ASCII digits; numpy does not
                    if "_" in cell or not cell.isascii():
                        raise ValueError
                    float(cell)
                except ValueError:
                    return f"row {row}, column {col} is not a number: {cell!r}"
    return None


def cmd_decompose(args) -> int:
    net = load_model(args.model)
    try:
        enum = _enumerate(net, args.budget)
    except BudgetExceededError as exc:
        _diag(str(exc))
        enum = _note_fallbacks(exc.partial)
    d = build_decomposition(net, enum)
    save_decomposition(d, args.out)
    payload = {
        "p": d.num_regions,
        "k": d.num_halfspaces,
        "layer_feasible": list(enum.layer_feasible),
        "candidates_checked": enum.candidates_checked,
    }
    if enum.partial:
        payload["partial"] = True
    _emit(payload)
    return EXIT_BUDGET if enum.partial else EXIT_OK


def cmd_shallowize(args) -> int:
    net = load_model(args.model)
    d = build_decomposition(net, _enumerate(net, args.budget))
    s = build_shallow(d)
    save_shallow(s, args.out)
    _emit({"widths": list(s.widths), "p": d.num_regions, "k": d.num_halfspaces})
    return EXIT_OK


def cmd_verify(args) -> int:
    net = load_model(args.model)
    shallow = load_shallow(args.shallow)
    if (net.input_dim, net.output_dim) != (shallow.input_dim, shallow.output_dim):
        raise UnwrapError(
            f"dimension mismatch: model is {net.input_dim}->{net.output_dim}, "
            f"shallow is {shallow.input_dim}->{shallow.output_dim}"
        )
    enum = _enumerate(net, args.budget)
    rng = np.random.default_rng(args.seed)
    X = rng.uniform(-args.range, args.range, size=(args.samples, net.input_dim))
    witnesses = np.array([rec.witness for rec in enum.records]).reshape(-1, net.input_dim)
    points = np.vstack([X, witnesses])
    try:
        diff = np.abs(eval_shallow_many(shallow, points) - forward_many(net, points))
    except AmbiguousSelectionError as exc:
        _diag(f"verification failed: {exc}")
        _emit({"max_abs_diff": None, "pass": False})
        return EXIT_VERIFY
    per_point = diff.max(axis=1)
    worst = int(np.argmax(per_point))
    max_abs_diff = float(per_point[worst])
    ok = max_abs_diff <= args.tol
    payload = {"max_abs_diff": max_abs_diff, "pass": bool(ok)}
    if not ok:
        payload["worst_x"] = points[worst].tolist()
        _diag(f"worst point: {points[worst].tolist()} (|diff| = {max_abs_diff:g})")
    _emit(payload)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_shap(args) -> int:
    d = load_decomposition(args.decomp)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            background = np.loadtxt(args.background, delimiter=",", ndmin=2)
        except ValueError as exc:
            # numpy's reason, without its advice to pass `usecols`, if the
            # line reader finds no bad row
            reason = _bad_row(args.background) or str(exc).split("; use `usecols`")[0].rstrip(".")
            raise ValueError(f"background file {args.background}: {reason}") from None
    if background.size == 0:
        raise ValueError(f"background file {args.background} holds no points")
    bad = np.flatnonzero(~np.isfinite(background).all(axis=1))
    if bad.size:
        raise ValueError(f"background file {args.background}: row {bad[0] + 1} holds a non-finite coordinate")
    result = exact_shap(d, args.point, background)
    _emit(result.to_jsonable())
    return EXIT_OK


def _timed_build(net, budget: int):
    """(seconds, enumeration, decomposition) of one decompose-and-rebuild."""
    start = time.perf_counter()
    enum = enumerate_feasible(net, budget=budget)
    d = build_decomposition(net, enum)
    build_shallow(d)
    return time.perf_counter() - start, enum, d


def cmd_bench(args) -> int:
    rows, timed = [], []
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        for w1 in range(args.min_w1, args.max_w1 + 1):
            for w2 in range(args.min_w2, args.max_w2 + 1):
                for seed in range(args.seed, args.seed + args.repeats):
                    widths = f"{w1}x{w2}x{args.w3}"
                    net = random_init([2, w1, w2, args.w3], 1, seed)
                    try:
                        _, enum, d = _timed_build(net, args.budget)
                    except BudgetExceededError as exc:
                        _diag(f"budget exceeded for {widths} seed {seed}")
                        partial = exc.partial
                        rows.append([widths, seed, -1.0, partial.candidates_checked, len(partial.records)])
                        continue
                    _note_fallbacks(enum)
                    rows.append([widths, seed, 0.0, enum.candidates_checked, d.num_regions])
                    timed.append((rows[-1], net))
        # the counting pass also warms up, so only the passes after it are
        # timed, every net once per pass; a net keeps its mean time, which a
        # shared CPU's jitter moves less than the fastest.  A pass runs seed
        # by seed, so one jitter burst rarely slows two nets of one cell
        timed.sort(key=lambda item: item[0][1])
        for _ in range(BENCH_PASSES):
            for row, net in timed:
                row[2] += _timed_build(net, args.budget)[0] / BENCH_PASSES
        writer = csv.writer(fh)
        writer.writerow(["widths", "seed", "wall_time_seconds", "pattern_count", "region_count"])
        writer.writerows([widths, seed, f"{wall:.6f}", *counts] for widths, seed, wall, *counts in rows)
    _emit({"rows": len(rows), "csv": args.out})
    return EXIT_OK


def cmd_plot(args) -> int:
    d = load_decomposition(args.decomp)
    if args.points is not None:
        points, labels = _read_points_csv(args.points)
    else:
        points, labels = np.zeros((0, 2)), None
    plot_regions_2d(d, points, args.bounds, args.out, labels=labels)
    _emit({"out": args.out, "points": int(points.shape[0])})
    return EXIT_OK


def _add_common(sub):
    sub.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=(
            f"cap on the feasibility LPs of the pattern search, at least 0 (default "
            f"{DEFAULT_BUDGET}); no pattern is complete before the last layer's splits, "
            "so a cut before them finds no region"
        ),
    )
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and ignored: the search runs in one thread",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="relu-unwrap", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = subs.add_parser("decompose", help="write the linear-region decomposition")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_decompose)

    p = subs.add_parser("shallowize", help="write the three-hidden-layer network")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_shallowize)

    p = subs.add_parser("verify", help="compare a model against a shallow file")
    p.add_argument("--model", required=True)
    p.add_argument("--shallow", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--range", type=float, default=10.0)
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("shap", help="exact SHAP values at a point")
    p.add_argument("--decomp", required=True)
    p.add_argument("--point", required=True, type=_point_flag, help="comma-separated coordinates")
    p.add_argument("--background", required=True, help="CSV of background points")
    p.set_defaults(fn=cmd_shap)

    p = subs.add_parser(
        "bench",
        help="decomposition timing grid to CSV",
        description=(
            "Decompose and rebuild random [2, w1, w2, w3] networks over a width "
            "grid and write one CSV row per network: widths, seed, "
            "wall_time_seconds, pattern_count, region_count.  pattern_count "
            "holds candidates_checked, the number of feasibility LPs the "
            "pattern search solved, not a number of patterns; the number of "
            "patterns found is region_count.  wall_time_seconds is the "
            f"mean of {BENCH_PASSES} timings of the network's decompose and "
            f"rebuild (time.perf_counter), taken in {BENCH_PASSES} passes over "
            "the grid that time every network once, seed by seed in grid "
            "order, after an untimed pass that counts; it is -1, from one "
            "run, when the search budget ran out."
        ),
    )
    p.add_argument("--min-w1", type=int, default=2)
    p.add_argument("--max-w1", type=int, default=5)
    p.add_argument("--min-w2", type=int, default=2)
    p.add_argument("--max-w2", type=int, default=5)
    p.add_argument("--w3", type=int, default=3)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_bench)

    p = subs.add_parser("plot", help="SVG of a 2-D decomposition")
    p.add_argument("--decomp", required=True)
    p.add_argument("--points", default=None, help="CSV rows x,y[,label]")
    p.add_argument("--bounds", required=True, type=_bounds_flag, help="finite x0,y0,x1,y1")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "fn", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    given = {"--" + name.replace("_", "-"): value for name, value in vars(args).items()}
    for flag, least in _FLAG_LEAST.items():
        if flag not in given:
            continue
        got = given[flag]
        least = given[least] if isinstance(least, str) else least
        finite = isinstance(got, float)
        if got < least or finite and not math.isfinite(got):
            _diag(f"error: {flag} must be {'finite and ' if finite else ''}at least {least}, got {got}")
            return EXIT_USAGE
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        _diag(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except (UnwrapError, OSError, ValueError, KeyError, IndexError) as exc:
        _diag(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
