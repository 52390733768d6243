"""Span tracing around the public functions of each relu_unwrap module.

The tracer replaces a module-level function with a wrapper in every
``relu_unwrap`` namespace that holds it, so calls made between modules
(``decompose`` calling ``enumerate_feasible``, ``cli`` calling ``load_shallow``)
are recorded as nested spans.  Spans (name, start, end, parent) are kept in
memory; :func:`layer_metrics` turns them into the per-layer numbers.  Nothing
in ``src/`` is edited: :meth:`Tracer.uninstall` restores every original.

A wrapped name that no longer exists raises :class:`LookupError` when the
tracer is installed, so a renamed function fails the run instead of reading
as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer (module of relu_unwrap) -> public functions wrapped in that layer
WRAPPED = {
    "network": ("forward_many",),
    "lp": ("check_feasible", "is_redundant", "extremize"),
    "decomposition": (
        "decompose",
        "enumerate_feasible",
        "build_decomposition",
        "extract_halfspaces",
        "load_decomposition",
        "save_decomposition",
    ),
    "shallow": ("build_shallow", "eval_shallow_many", "load_shallow", "save_shallow"),
    "explain": ("locate_region", "exact_shap", "hypercube", "plot_regions_2d"),
    "cli": (
        "main",
        "cmd_decompose",
        "cmd_shallowize",
        "cmd_verify",
        "cmd_shap",
        "cmd_plot",
    ),
}

LAYERS = tuple(WRAPPED)
CLI_COMMANDS = ("decompose", "shallowize", "verify", "shap", "plot")


def _observe(name, args, result, counters):
    """Counts read off a wrapped call's arguments and result."""
    if name == "lp.check_feasible":
        counters["check_feasible_rows"] += args[0].num_rows
    elif name == "decomposition.enumerate_feasible":
        counters["candidates"] += result.candidates_checked
        counters["enumerated_regions"] += len(result.records)
    elif name == "decomposition.build_decomposition":
        counters["regions"] += result.num_regions
        counters["halfspaces"] += result.num_halfspaces
    elif name == "shallow.build_shallow":
        d = args[0]
        n, m, p = d.input_dim, d.output_dim, d.num_regions
        counters["w3_cells"] += 2 * p * m * (2 * n + p)
    elif name == "explain.exact_shap":
        counters["shap_approximate"] += int(result.approximate)


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters = {
            key: 0
            for key in (
                "check_feasible_rows",
                "candidates",
                "enumerated_regions",
                "regions",
                "halfspaces",
                "w3_cells",
                "shap_approximate",
            )
        }
        self.errors: dict[int, BaseException] = {}  # id -> exception, each once
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.errors.setdefault(id(exc), exc)
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            _observe(name, args, result, tracer.counters)
            return result

        return wrapper

    def install(self):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "relu_unwrap" or key.startswith("relu_unwrap.")
        ]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"relu_unwrap.{layer}")
            for attr in names:
                original = getattr(home, attr, None)
                if not callable(original):
                    self.uninstall()
                    raise LookupError(
                        f"relu_unwrap.{layer}.{attr} is gone; the benchmark "
                        f"wraps it and must be updated"
                    )
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counters": dict(self.counters),
            "errors": sorted(type(exc).__name__ for exc in self.errors.values()),
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the recorded spans and counters.

    Times are inclusive unless named ``self_s``: a span's self time is its
    duration minus the time its child spans cover (calls are sequential, so
    children never overlap).
    """
    spans = tracer.spans
    c = tracer.counters
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def under(i, prefix):
        """True if span i has an ancestor whose name starts with prefix."""
        j = spans[i][3]
        while j >= 0:
            if spans[j][0].startswith(prefix):
                return True
            j = spans[j][3]
        return False

    calls = call_counts(tracer)
    secs = dict.fromkeys(calls, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (name, _, _, _) in enumerate(spans):
        secs[name] += dur[i]
        self_s[name.split(".", 1)[0]] += dur[i] - child[i]

    def in_cli(name):
        idx = [i for i, s in enumerate(spans) if s[0] == name and under(i, "cli.")]
        return len(idx), sum(dur[i] for i in idx)

    feas_in_enum = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "lp.check_feasible" and under(i, "decomposition.enumerate_feasible")
    )
    extremize = [
        i
        for i, s in enumerate(spans)
        if s[0] == "lp.extremize" and s[3] >= 0 and spans[s[3]][0].startswith("explain.")
    ]
    iteration_limits = sum(
        type(exc).__name__ == "IterationLimitError" for exc in tracer.errors.values()
    )

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "lp.check_feasible.calls": calls["lp.check_feasible"],
        "lp.check_feasible.s": secs["lp.check_feasible"],
        "lp.check_feasible.rows_mean": ratio(
            c["check_feasible_rows"], calls["lp.check_feasible"]
        ),
        "lp.is_redundant.calls": calls["lp.is_redundant"],
        "lp.is_redundant.s": secs["lp.is_redundant"],
        "lp.extremize.calls": len(extremize),
        "lp.extremize.s": sum(dur[i] for i in extremize),
        "lp.iteration_limit_errors": iteration_limits,
        "decomposition.enumerate_s": secs["decomposition.enumerate_feasible"],
        "decomposition.candidates": c["candidates"],
        "decomposition.yield": ratio(c["enumerated_regions"], c["candidates"]),
        "decomposition.lp_per_region": ratio(feas_in_enum, c["enumerated_regions"]),
        "decomposition.build_s": secs["decomposition.build_decomposition"],
        "decomposition.extract_halfspaces_s": secs["decomposition.extract_halfspaces"],
        "decomposition.regions": c["regions"],
        "decomposition.halfspaces": c["halfspaces"],
        "decomposition.redundancy_lp_per_halfspace": ratio(
            calls["lp.is_redundant"], c["halfspaces"]
        ),
        "shallow.build_s": secs["shallow.build_shallow"],
        "shallow.eval_s": secs["shallow.eval_shallow_many"],
        "shallow.w3_cells": c["w3_cells"],
        "network.forward_many_s": secs["network.forward_many"],
        "explain.locate_s": secs["explain.locate_region"],
        "explain.exact_shap_s": secs["explain.exact_shap"],
        "explain.hypercube_s": secs["explain.hypercube"],
        "explain.shap_approximate_share": ratio(
            c["shap_approximate"], calls["explain.exact_shap"]
        ),
        "cli.enumerations": in_cli("decomposition.enumerate_feasible")[0],
        "cli.load_decomposition_s": in_cli("decomposition.load_decomposition")[1],
        "cli.save_shallow_s": in_cli("shallow.save_shallow")[1],
        "cli.load_shallow_s": in_cli("shallow.load_shallow")[1],
        "trace.spans": len(spans),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = secs[f"cli.cmd_{cmd}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds, measured on a wrapped no-op function.

    The traced run multiplies this by its span count to give its overhead;
    comparing a traced round with an untraced one instead would mostly
    measure how the host's speed drifted between the two.
    """

    def noop(x):
        return x

    wrapped = Tracer()._wrap("bench.noop", noop)
    start = time.perf_counter()
    for i in range(calls):
        noop(i)
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    return max(time.perf_counter() - start - plain, 0.0) / calls


def call_counts(tracer: Tracer) -> dict[str, int]:
    """Calls per wrapped function, including the ones never called."""
    counts = {f"{layer}.{a}": 0 for layer in WRAPPED for a in WRAPPED[layer]}
    for name, *_ in tracer.spans:
        counts[name] += 1
    return counts
