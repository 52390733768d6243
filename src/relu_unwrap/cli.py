"""Command-line interface.

Subcommands: decompose, shallowize, verify, shap, bench, plot.  Every
command writes a single line of JSON to standard output and keeps
diagnostics on standard error.  Exit codes: 0 success, 1 input error,
2 pattern-search budget exceeded, 3 verification failure, 64 usage error.
All randomness flows from --seed flags, so runs are reproducible.  The
pattern search runs in one thread: --threads is accepted for compatibility
and ignored, and the RELU_UNWRAP_THREADS environment variable is never read.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time

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

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-2,-2,2,2" (bounds, points) must not parse as flags;
        # no option here starts with a digit, so -<digit>... is always data
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload: dict):
    # a NaN or infinity raises ValueError (exit 1) before anything is printed
    print(json.dumps(payload, allow_nan=False))


def _diag(message: str):
    print(message, file=sys.stderr)


def _note_fallbacks(enum):
    """One stderr line when solver failures kept cells unpruned."""
    if enum.solver_fallbacks:
        _diag(
            f"warning: {enum.solver_fallbacks} feasibility solve(s) hit the simplex "
            "pivot limit; the cells they tested were kept"
        )
    return enum


def _enumerate(net, budget: int):
    return _note_fallbacks(enumerate_feasible(net, budget=budget))


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"invalid point {text!r}: {exc}") from exc


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
            points.append([float(parts[0]), float(parts[1])])
            label = ",".join(parts[2:]) if len(parts) > 2 else ""
            labels.append(label)
            any_label = any_label or bool(label)
    pts = np.array(points, dtype=np.float64).reshape(-1, 2)
    return pts, (labels if any_label else None)


def cmd_decompose(args) -> int:
    net = load_model(args.model)
    partial = False
    try:
        enum = _enumerate(net, args.budget)
    except BudgetExceededError as exc:
        _diag(str(exc))
        enum = _note_fallbacks(exc.partial)
        partial = True
    d = build_decomposition(net, enum, partial=partial)
    save_decomposition(d, args.out)
    payload = {
        "p": d.num_regions,
        "k": d.num_halfspaces,
        "layer_feasible": list(enum.layer_feasible),
        "candidates_checked": enum.candidates_checked,
    }
    if partial:
        payload["partial"] = True
    _emit(payload)
    return EXIT_BUDGET if partial else EXIT_OK


def cmd_shallowize(args) -> int:
    net = load_model(args.model)
    d = build_decomposition(net, _enumerate(net, args.budget))
    s = build_shallow(d)
    save_shallow(s, args.out)
    _emit({"widths": list(s.widths), "p": d.num_regions, "k": d.num_halfspaces})
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 0:
        _diag(f"error: --samples must be at least 0, got {args.samples}")
        return EXIT_USAGE
    for flag, value in (("--tol", args.tol), ("--range", args.range)):
        if not (np.isfinite(value) and value >= 0.0):
            _diag(f"error: {flag} must be finite and at least 0, got {value}")
            return EXIT_USAGE
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
    x = _parse_point(args.point)
    background = np.loadtxt(args.background, delimiter=",", ndmin=2)
    result = exact_shap(d, x, background)
    _emit(result.to_jsonable())
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.max_w1 < args.min_w1 or args.max_w2 < args.min_w2:
        raise ValueError("width ranges must satisfy min <= max")
    rows = 0
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["widths", "seed", "wall_time_seconds", "pattern_count", "region_count"]
        )
        for w1 in range(args.min_w1, args.max_w1 + 1):
            for w2 in range(args.min_w2, args.max_w2 + 1):
                for rep in range(args.repeats):
                    seed = args.seed + rep
                    net = random_init([2, w1, w2, args.w3], 1, seed)
                    start = time.monotonic()
                    try:
                        enum = _enumerate(net, args.budget)
                        d = build_decomposition(net, enum)
                        build_shallow(d)
                        wall = time.monotonic() - start
                        pattern_count = enum.candidates_checked
                        region_count = d.num_regions
                    except BudgetExceededError as exc:
                        _diag(f"budget exceeded for {w1}x{w2}x{args.w3} seed {seed}")
                        wall = -1.0
                        pattern_count = exc.partial.candidates_checked
                        region_count = len(exc.partial.records)
                    writer.writerow(
                        [
                            f"{w1}x{w2}x{args.w3}",
                            seed,
                            f"{wall:.6f}",
                            pattern_count,
                            region_count,
                        ]
                    )
                    rows += 1
    _emit({"rows": rows, "csv": args.out})
    return EXIT_OK


def cmd_plot(args) -> int:
    d = load_decomposition(args.decomp)
    if args.points is not None:
        points, labels = _read_points_csv(args.points)
    else:
        points, labels = np.zeros((0, 2)), None
    bounds = _parse_point(args.bounds)
    if bounds.shape[0] != 4:
        raise ValueError("--bounds needs x0,y0,x1,y1")
    plot_regions_2d(d, points, tuple(bounds), args.out, labels=labels)
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
    p.add_argument("--point", required=True, help="comma-separated coordinates")
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
            "patterns found is region_count.  wall_time_seconds is -1 when "
            "the search budget ran out."
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
    p.add_argument("--bounds", required=True, help="x0,y0,x1,y1")
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
    if getattr(args, "budget", 0) < 0:
        _diag(f"error: --budget must be at least 0, got {args.budget}")
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
