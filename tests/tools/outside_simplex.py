"""Time spent outside the simplex when decomposing the benchmark's pipeline nets.

    python3 tests/tools/outside_simplex.py [SRC]

Imports ``relu_unwrap`` from ``SRC`` (default: this checkout's ``src/``)
and builds the three networks of the benchmark's ``pipeline`` workload.
For each it records every answer of ``lp._simplex`` over one
``decompose``, then times ``decompose`` (best of 7) with ``_simplex``
replaced by a replay of those answers, so the time printed is the
library's own work around the simplex.  It then prints the
``LinearProgram`` objects built per call site over one ``decompose`` of
each net, and the programs handed as stacks to the array entry
``lp._solve`` per call site, where ``SRC`` has one.  Run it on two
checkouts to compare them.  Pytest does not collect this file.
"""

import collections
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    SRC = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT / "src"
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import relu_unwrap as ru  # noqa: E402
import relu_unwrap.decomposition as decomposition  # noqa: E402
import relu_unwrap.lp as lp  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPEATS = 7


def replayed_seconds(net) -> float:
    """Best ``decompose`` time of ``net`` with ``_simplex`` answered from a recording."""
    real, answers = lp._simplex, []

    def record(*args):
        answers.append(real(*args))
        return answers[-1]

    lp._simplex = record
    try:
        ru.decompose(net)
        best = float("inf")
        for _ in range(REPEATS):
            replay = iter(answers)
            lp._simplex = lambda *args: next(replay)
            start = time.perf_counter()
            ru.decompose(net)
            best = min(best, time.perf_counter() - start)
    finally:
        lp._simplex = real
    return best


def call_site(depth: int) -> str:
    """``module.function`` of the first frame above ``depth`` outside ``lp.py``
    and the dataclass ``__init__``."""
    frame = sys._getframe(depth)
    while frame.f_code.co_filename == lp.__file__ or frame.f_code.co_name == "__init__":
        frame = frame.f_back
    return f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name}"


def programs_per_site(nets) -> tuple[collections.Counter, collections.Counter]:
    """Objects built and stacked programs solved per call site over one
    ``decompose`` of each net."""
    built, stacked = collections.Counter(), collections.Counter()
    real_init = lp.LinearProgram.__post_init__
    real_of = getattr(lp.LinearProgram, "_of", None)
    descriptor = lp.LinearProgram.__dict__.get("_of")
    real_solve = getattr(decomposition, "_solve", None)

    def init(self):
        built[call_site(2)] += 1
        real_init(self)

    def of(A, b, strict):
        built[call_site(2)] += 1
        return real_of(A, b, strict)

    def solve(groups, c=None, *args):
        stacked[call_site(2)] += sum(len(b) for _, b, _ in groups) if c is None else len(c)
        return real_solve(groups, c, *args)

    lp.LinearProgram.__post_init__ = init
    if real_of is not None:
        lp.LinearProgram._of = staticmethod(of)
    if real_solve is not None:
        decomposition._solve = solve
    try:
        for net in nets:
            ru.decompose(net)
    finally:
        lp.LinearProgram.__post_init__ = real_init
        if real_of is not None:
            lp.LinearProgram._of = descriptor
        if real_solve is not None:
            decomposition._solve = real_solve
    return built, stacked


def main():
    print(f"relu_unwrap from {Path(ru.__file__).parent}")
    specs = WORKLOADS["pipeline"].pipeline
    nets = [spec.build() for spec in specs]
    total = 0.0
    for spec, net in zip(specs, nets):
        seconds = replayed_seconds(net)
        total += seconds
        print(f"{spec.label}: {seconds * 1e3:.1f} ms outside the simplex")
    print(f"all three: {total * 1e3:.1f} ms")
    built, stacked = programs_per_site(nets)
    print(f"LinearProgram objects built: {sum(built.values())}")
    for site, count in built.most_common():
        print(f"  {site}: {count}")
    if stacked:
        print(f"programs handed as stacks to lp._solve, one per objective: {sum(stacked.values())}")
        for site, count in stacked.most_common():
            print(f"  {site}: {count}")


if __name__ == "__main__":
    main()
