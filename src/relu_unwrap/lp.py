"""Linear-program core: feasibility with strict rows, extremization, redundancy.

Systems are rows ``A[i] . x <= b[i]`` over a free variable ``x``; rows flagged
strict mean ``A[i] . x < b[i]``.  Strictness is decided by a slack program:
maximise ``t`` subject to ``A[i] . x + t <= b[i]`` on strict rows,
``A[i] . x <= b[i]`` on the rest, and ``t <= 1``.  A positive optimum means
some point satisfies every strict row with real margin.

All programs are solved by a dense two-phase simplex with Bland's rule
(smallest eligible index enters; smallest basis index among minimum ratios
leaves), which cannot cycle.  Rows with a negative right-hand side start
infeasible and cost a phase 1.  A caller that knows a point ``w`` meeting
the closed rows solves the program shifted to it
(:meth:`LinearProgram.shifted`: right-hand side ``b - A w``, solution
``w + y``): every right-hand side is then nonnegative, the slack basis is a
feasible start and phase 1 is skipped.

The simplex takes a stack of same-shaped programs and pivots them in
lockstep; each program follows exactly the pivots it would follow alone, so
a stacked solve returns bitwise what one-at-a-time solves return, and a
scalar call is a stack of one.  One routine, ``_maximise``, answers all
three questions, each a maximisation over plain ``(A, b)`` systems:
feasibility maximises ``t`` over the slack system
``[A | strict; 0 | 1] (x, t) <= [b; 1]``, :func:`extremize` each direction
and :func:`is_redundant` each tested row over the closed rows; the callers
read their answers off the optima.  It takes one system or a sequence of
them, in order of row count so padding stays short, pads shorter programs
with rows ``0 . x <= 1`` that no pivot touches, and puts at most
``STACK_SIZE`` programs in a stack.  Every program has its own pivot budget
of ``ITERATION_FACTOR * (rows + dim)``, counted on its unpadded rows, a
guard against numerical pathology.  A program whose budget runs out gives
None, in a call on a sequence for that program alone; a call on one program
is the call on a list of one, and ``_alone`` turns that None into
:class:`IterationLimitError`.  Callers in the pattern search keep the
candidate rather than prune it, and count the failure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, IterationLimitError, NonFiniteError

TOL_SLACK = 1e-9        # minimum margin for interior feasibility
TOL_REDUNDANT = 1e-7    # slack under which a row is declared redundant
ITERATION_FACTOR = 50   # pivot budget multiplier
STACK_SIZE = 256        # programs per stacked solve

_PIVOT_EPS = 1e-10
_RATIO_TIE = 1e-12
_PHASE1_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """Row system ``A x <= b`` with per-row strict flags, held as read-only
    copies of the caller's arrays."""

    A: np.ndarray
    b: np.ndarray
    strict: np.ndarray

    def __post_init__(self):
        a = np.array(self.A, dtype=np.float64)
        if a.ndim != 2:
            a = a.reshape(len(a), -1) if a.size else a.reshape(0, 0)
        b = np.array(self.b, dtype=np.float64).reshape(-1)
        s = np.array(self.strict, dtype=bool).reshape(-1)
        if a.shape[0] != b.shape[0] or a.shape[0] != s.shape[0]:
            raise DimensionMismatchError(
                f"rows disagree: A has {a.shape[0]}, b has {b.shape[0]}, "
                f"strict has {s.shape[0]}"
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NonFiniteError("linear program entries must be finite")
        for name, arr in (("A", a), ("b", b), ("strict", s)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def shifted(self, point) -> "LinearProgram":
        """The same rows in coordinates centred on ``point``: ``A y <= b - A point``.

        A point ``y`` of the shifted program is ``point + y`` here.  When
        ``point`` meets every row, the shifted right-hand side is
        nonnegative and the simplex starts feasible.
        """
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        return LinearProgram(self.A, self.b - self.A @ point, self.strict)


class Feasibility(enum.Enum):
    INTERIOR = "feasible-interior"
    BOUNDARY_ONLY = "feasible-boundary-only"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FeasibilityResult:
    status: Feasibility
    witness: np.ndarray | None = None
    slack: float | None = None


class Extremum(enum.Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ExtremizeResult:
    status: Extremum
    value: float | None = None
    argpoint: np.ndarray | None = None


def iteration_limit(rows: int, dim: int) -> int:
    """Pivot budget for a program of the given size."""
    return ITERATION_FACTOR * (rows + dim)


# per-program outcome of _simplex
_OPTIMAL, _INFEASIBLE, _UNBOUNDED, _LIMIT = range(4)
_NO_ROW = np.iinfo(np.intp).max  # basis index that never wins a ratio tie


def _pivot(T, basis, k, rows, cols, column):
    """Pivot tableau ``k[j]`` at ``(rows[j], cols[j])``; ``k`` is
    ``arange(len(T))`` and ``column[j]`` is tableau ``j``'s column ``cols[j]``.
    """
    prow = T[k, rows]
    prow /= column[k, rows][:, None]
    T -= column[:, :, None] * prow[:, None, :]
    # the pivot row is the scaled row, as ``row - 0 * row`` leaves it
    T[k, rows] = prow + 0.0
    basis[k, rows] = cols


def _price_out(T: np.ndarray, basis: np.ndarray):
    """Make the objective row of every tableau zero on its basic columns."""
    k = np.arange(T.shape[0])
    coef = T[k[:, None], -1, basis]
    # a basic column is a unit vector, so pricing out one row leaves the
    # coefficients of the other basic columns as they were
    nonzero = coef != 0.0
    for r in nonzero.any(axis=0).nonzero()[0]:
        sel = k[nonzero[:, r]]
        T[sel, -1] -= coef[sel, r][:, None] * T[sel, r]


def _run(T, basis, status, pivots, limits, idx, width):
    """Pivot programs ``idx`` in lockstep until each is optimal, unbounded, or
    past its pivot budget ``limits``.

    Columns below ``width`` may enter; column ``width - 1`` is a sentinel:
    zero in every row and always eligible, so a program that selects it has
    no eligible column left and is optimal.  When some programs stop and
    others go on, the running ones are copied out, so every pivot works on
    one whole stack; the copies are written back as they stop.
    """
    if not idx.size:
        return
    m = T.shape[1] - 1
    inplace = idx.size == T.shape[0]
    if inplace:
        Tw, bw, pw, lw = T, basis, pivots, limits
    else:
        Tw, bw, pw, lw = T[idx], basis[idx], pivots[idx], limits[idx]
    k = np.arange(idx.size)
    steps, headroom = 0, int((lw - pw).min())  # pivots until a budget runs out
    while True:
        enter = (Tw[:, -1, :width] < -_PIVOT_EPS).argmax(axis=1)
        column = Tw[k, :, enter]
        pos = column[:, :m] > _PIVOT_EPS
        ratios = np.where(pos, Tw[:, :m, -1], np.inf) / np.where(pos, column[:, :m], 1.0)
        best = np.minimum.reduce(ratios, axis=1, initial=np.inf)
        if steps > headroom or np.maximum.reduce(best) == np.inf:
            pw, steps = pw + steps, 0
            over = pw > lw
            go = (best < np.inf) & ~over
            outcome = np.where(over, _LIMIT, np.where(enter == width - 1, _OPTIMAL, _UNBOUNDED))
            if not go.any():
                status[idx], pivots[idx] = outcome, pw
                if not inplace:
                    T[idx], basis[idx] = Tw, bw
                return
            stop = ~go
            status[idx[stop]], pivots[idx[stop]] = outcome[stop], pw[stop]
            if not inplace:
                T[idx[stop]], basis[idx[stop]] = Tw[stop], bw[stop]
            idx, Tw, bw, pw, lw = idx[go], Tw[go], bw[go], pw[go], lw[go]
            enter, column, ratios, best = enter[go], column[go], ratios[go], best[go]
            k = k[: idx.size]
            inplace, headroom = False, int((lw - pw).min())
        tied = ratios <= best[:, None] + _RATIO_TIE
        leave = np.where(tied, bw, _NO_ROW).argmin(axis=1)
        _pivot(Tw, bw, k, leave, enter, column)
        steps += 1


def _simplex(G: np.ndarray, h: np.ndarray, c: np.ndarray, limit):
    """Maximise ``c[k] . y`` over ``G[k] y <= h[k]`` with ``y`` free, for
    every program ``k`` of a stack.

    ``G`` is (B, m, d), ``h`` (B, m) and ``c`` (B, d); ``limit`` is one
    pivot budget or one per program.  Returns ``(status, y)``: per program
    one of ``_OPTIMAL``, ``_INFEASIBLE``, ``_UNBOUNDED`` or ``_LIMIT`` (more
    pivots than its budget, or a phase 1 reported unbounded), and the
    optimum (NaN unless optimal).  Free variables are split into positive
    and negative parts; rows with negative right-hand side get artificial
    variables eliminated in phase 1.  Each program pivots exactly as it
    would alone.

    Columns: the 2d split variables and m slacks, the phase-2 sentinel, the
    artificials, the phase-1 sentinel, the right-hand side.
    """
    B, m, dim = G.shape
    ncore = 2 * dim + m
    neg = h < 0
    nart = int(neg.sum(axis=1).max()) if neg.any() else 0
    ncols = ncore + nart + 2
    T = np.zeros((B, m + 1, ncols + 1))
    T[:, :m, :dim] = G
    T[:, :m, dim : 2 * dim] = -G
    T[:, :m, 2 * dim : ncore] = np.eye(m)
    T[:, :m, -1] = h
    basis = np.repeat(2 * dim + np.arange(m)[None], B, axis=0)
    status = np.zeros(B, dtype=np.intp)  # _OPTIMAL
    pivots = np.zeros(B, dtype=np.intp)
    limits = pivots + limit

    if nart:
        rows = T[:, :m]
        flipped = rows[neg]
        flipped[:, :ncore] *= -1.0
        flipped[:, -1] *= -1.0
        rows[neg] = flipped
        # program k's j-th violated row gets artificial column ncore + 1 + j
        prog, row = np.nonzero(neg)
        art = ncore + np.cumsum(neg, axis=1)[prog, row]
        T[prog, row, art] = 1.0
        basis[prog, row] = art
        T[prog, -1, art] = 1.0
        T[:, -1, ncols - 1] = -1.0
        _price_out(T, basis)
        phase1 = neg.any(axis=1)
        _run(T, basis, status, pivots, limits, phase1.nonzero()[0], ncols)
        # a sum of nonnegative variables cannot be unbounded below
        status[status == _UNBOUNDED] = _LIMIT
        status[phase1 & (status == _OPTIMAL) & (-T[:, -1, -1] > _PHASE1_TOL)] = _INFEASIBLE
        # drive artificials still basic (at zero) out of the basis, row by row
        left = (status == _OPTIMAL)[:, None] & (basis > ncore)
        for r in left.any(axis=0).nonzero()[0]:
            idx = (left[:, r] & (status == _OPTIMAL)).nonzero()[0]
            nonzero = np.abs(T[idx, r, :ncore]) > _PIVOT_EPS
            # without a nonzero the row is redundant; its artificial stays basic at zero
            found = nonzero.any(axis=1)
            idx = idx[found]
            if idx.size:
                sub, sub_basis, k = T[idx], basis[idx], np.arange(idx.size)
                cols = nonzero[found].argmax(axis=1)
                _pivot(sub, sub_basis, k, np.full(idx.size, r), cols, sub[k, :, cols])
                T[idx], basis[idx] = sub, sub_basis
                pivots[idx] += 1
                status[idx[pivots[idx] > limits[idx]]] = _LIMIT

    if nart:
        T[:, -1] = 0.0
    T[:, -1, :dim] = -c
    T[:, -1, dim : 2 * dim] = c
    T[:, -1, ncore] = -1.0
    if nart:
        # phase 1 may have made split variables basic; the slack basis of a
        # program that skipped it costs nothing
        _price_out(T, basis)
    _run(T, basis, status, pivots, limits, (status == _OPTIMAL).nonzero()[0], ncore + 1)
    values = np.zeros((B, ncols))
    values[np.arange(B)[:, None], basis] = T[:, :m, -1]
    y = values[:, :dim] - values[:, dim : 2 * dim]
    y[status != _OPTIMAL] = np.nan
    return status, y


def check_feasible(lp: LinearProgram) -> FeasibilityResult:
    """Classify a system with strict rows.

    INTERIOR: some point satisfies every strict row with margin above
    ``TOL_SLACK`` (the witness and its exact minimum strict margin are
    returned).  BOUNDARY_ONLY: the closed system is feasible but no point
    clears the strict rows by more than ``TOL_SLACK``.  INFEASIBLE: even the
    closed system is empty.
    """
    return _alone(check_feasible_many([lp])[0], lp)


def check_feasible_many(lps: Sequence[LinearProgram]) -> list[FeasibilityResult | None]:
    """:func:`check_feasible` of every program, in stacked solves.

    The programs share one dimension.  Each result is bitwise what
    :func:`check_feasible` returns alone; None marks a program
    :func:`check_feasible` would raise :class:`IterationLimitError` on.
    """
    systems, objectives = [], []
    for lp in lps:
        m, d = lp.A.shape
        # column d is the slack t, on the strict rows and in the last row t <= 1
        A = np.zeros((m + 1, d + 1))
        A[:m, :d] = lp.A
        A[:m, d] = lp.strict
        A[m, d] = 1.0
        systems.append((A, np.concatenate((lp.b, [1.0]))))
        objectives.append(A[m:])  # maximise t
    return list(map(_feasible, lps, _maximise(systems, objectives)))


def _feasible(lp: LinearProgram, top) -> FeasibilityResult | None:
    """Classify ``lp`` by its slack program's ``[(status, (x, t))]``; None
    where that program ran out of pivots."""
    # an unbounded slack program is impossible (t <= 1): pathology
    if top is None or top[0][0] == _UNBOUNDED:
        return None
    status, y = top[0]
    if status == _INFEASIBLE:
        return FeasibilityResult(Feasibility.INFEASIBLE)
    x, t = y[:-1], float(y[-1])
    if lp.strict.any():
        slack = float((lp.b[lp.strict] - lp.A[lp.strict] @ x).min())
    else:
        slack = t
    if slack > TOL_SLACK:
        return FeasibilityResult(Feasibility.INTERIOR, x, slack)
    if t >= -TOL_SLACK:
        return FeasibilityResult(Feasibility.BOUNDARY_ONLY, x, max(slack, 0.0))
    return FeasibilityResult(Feasibility.INFEASIBLE)


def _extremum(direction: np.ndarray, top) -> ExtremizeResult:
    """The maximum of ``direction . x`` from its program's ``(status, y)``."""
    status, y = top
    if status == _INFEASIBLE:
        return ExtremizeResult(Extremum.INFEASIBLE)
    if status == _UNBOUNDED:
        return ExtremizeResult(Extremum.UNBOUNDED)
    return ExtremizeResult(Extremum.BOUNDED, float(direction @ y), y)


def _stacks(sizes: Sequence[int], order: Sequence[int]):
    """Stacks of at most ``STACK_SIZE`` programs, as ``(system, lo, hi)``
    slices: programs ``lo`` to ``hi`` of each system, systems in ``order``."""
    stack, room = [], STACK_SIZE
    for j in order:
        lo = 0
        while lo < sizes[j]:
            hi = min(sizes[j], lo + room)
            stack.append((j, lo, hi))
            room -= hi - lo
            lo = hi
            if not room:
                yield stack
                stack, room = [], STACK_SIZE
    if stack:
        yield stack


def _maximise(systems, objectives, dropped=None) -> list[list | None]:
    """Maximise every row of ``objectives[j]`` over ``A x <= b``, the pair
    ``systems[j]``, for every system ``j``, in stacked solves.

    Systems are taken in order of row count, so padding stays short, and
    their programs cut into stacks of at most ``STACK_SIZE``.  A program's
    rows past its system's are ``0 . x <= 1``, which no pivot touches, so
    it pivots as it would alone, on the budget of its unpadded system.
    With ``dropped``, the program of ``objectives[j][t]`` has row
    ``dropped[j][t]`` replaced by ``0 . x <= 1``, and the budget of a
    system one row shorter.  Returns per system its programs' ``(status,
    y)`` (see :func:`_simplex`), or None where one of them ran out of
    pivots.
    """
    dims = {A.shape[1] for A, _ in systems}
    if len(dims) > 1:
        raise DimensionMismatchError("stacked programs must share one dimension")
    d = dims.pop() if dims else 0
    spare = 0 if dropped is None else 1
    results: list[list] = [[] for _ in systems]
    failed = [False] * len(systems)
    rows = [len(b) for _, b in systems]
    order = sorted(range(len(systems)), key=rows.__getitem__)
    for stack in _stacks([len(c) for c in objectives], order):
        c = np.concatenate([objectives[j][lo:hi] for j, lo, hi in stack])
        G = np.zeros((len(c), max(rows[j] for j, _, _ in stack), d))
        h = np.ones(G.shape[:2])
        spans, limits = [], []
        for j, lo, hi in stack:
            A, b = systems[j]
            span = slice(len(limits), len(limits) + hi - lo)
            G[span, : rows[j]] = A
            h[span, : rows[j]] = b
            spans.append(span)
            limits += [iteration_limit(rows[j] - spare, d)] * (hi - lo)
        if dropped is not None:
            k = np.arange(len(c))
            cut = np.concatenate([dropped[j][lo:hi] for j, lo, hi in stack])
            G[k, cut] = 0.0
            h[k, cut] = 1.0
        status, y = _simplex(G, h, c, limits)
        status = status.tolist()
        for (j, _, _), span in zip(stack, spans):
            failed[j] |= _LIMIT in status[span]
            results[j].extend(zip(status[span], y[span]))
    return [None if fail else res for fail, res in zip(failed, results)]


def _alone(result, lp: LinearProgram):
    """The result of a call on one program; None means it ran out of pivots."""
    if result is None:
        raise IterationLimitError(f"simplex ran out of pivots on a {lp.num_rows}x{lp.dim} program")
    return result


def extremize(direction, lp):
    """Maximise ``direction . x`` over the closed system (strictness ignored).

    ``direction`` is one vector, giving one :class:`ExtremizeResult`, or a
    (B, dim) stack of directions, giving a tuple of B results.  ``lp`` may
    also be a sequence of programs sharing one dimension, with ``direction``
    a matching sequence: the result is then a list holding, per program,
    bitwise what the call on that program alone returns, or None where that
    call would raise :class:`IterationLimitError`.  Every program of a call
    goes to stacked solves.
    """
    # the one-program entries never call each other, so a traced call is one span
    if isinstance(lp, LinearProgram):
        return _alone(_extrema([direction], [lp])[0], lp)
    return _extrema(direction, lp)


def _extrema(directions, lps) -> list:
    """:func:`extremize` on a sequence of programs."""
    lps = list(lps)
    stacks = [np.asarray(D, dtype=np.float64) for D in directions]
    if len(stacks) != len(lps):
        raise DimensionMismatchError(f"{len(stacks)} directions for {len(lps)} programs")
    for D, lp in zip(stacks, lps):
        if D.ndim not in (1, 2) or D.shape[-1] != lp.dim:
            raise DimensionMismatchError(
                f"direction has length {D.shape[-1] if D.ndim else 1}, "
                f"program dim is {lp.dim}"
            )
    # contiguous rows, so each value is one dot product whatever the caller's strides
    objectives = [np.ascontiguousarray(np.atleast_2d(D)) for D in stacks]
    tops = _maximise([(lp.A, lp.b) for lp in lps], objectives)
    results = []
    for D, c, top in zip(stacks, objectives, tops):
        if top is not None:
            top = tuple(map(_extremum, c, top)) if D.ndim == 2 else _extremum(c[0], top[0])
        results.append(top)
    return results


def dominated(res: ExtremizeResult, bound: float) -> bool:
    """Whether a row ``a . x <= bound`` is implied by a system, given the
    maximum ``res`` of ``a . x`` over it.

    A bounded maximum at most ``bound + TOL_REDUNDANT`` implies it; an
    unbounded one means the row genuinely cuts; an empty system implies
    every row.
    """
    if res.status is Extremum.INFEASIBLE:
        return True
    if res.status is Extremum.UNBOUNDED:
        return False
    return res.value <= bound + TOL_REDUNDANT


def is_redundant(row, lp):
    """True iff dropping ``row`` cannot enlarge the closed feasible set.

    Decided by maximising the row over the remaining closed rows (see
    :func:`dominated`).  ``row`` is one index, giving a bool, or an array of
    indices, giving a bool array.  Each program keeps the system's shape:
    the tested row is replaced by ``0 . x <= 1``, which every point meets.
    ``lp`` may also be a sequence of programs sharing one dimension, with
    ``row`` a matching sequence: the result is then a list holding, per
    program, what the call on that program alone returns, or None where
    that call would raise :class:`IterationLimitError`.  Every program of a
    call goes to stacked solves.
    """
    if isinstance(lp, LinearProgram):
        return _alone(_redundant([row], [lp])[0], lp)
    return _redundant(row, lp)


def _redundant(rows, lps) -> list:
    """:func:`is_redundant` on a sequence of programs."""
    lps = list(lps)
    indices = [np.asarray(r) for r in rows]
    if len(indices) != len(lps):
        raise DimensionMismatchError(f"{len(indices)} row sets for {len(lps)} programs")
    flat = [r.reshape(-1) for r in indices]
    for f, lp in zip(flat, lps):
        bad = (f < 0) | (f >= lp.num_rows)
        if bad.any():
            raise IndexError(f"row {f[bad][0]} out of range")
    objectives = [lp.A[f] for f, lp in zip(flat, lps)]
    tops = _maximise([(lp.A, lp.b) for lp in lps], objectives, flat)
    verdicts = []
    for r, f, c, lp, top in zip(indices, flat, objectives, lps, tops):
        if top is not None:
            top = list(map(dominated, map(_extremum, c, top), lp.b[f].tolist()))
            top = top[0] if r.ndim == 0 else np.array(top, dtype=bool)
        verdicts.append(top)
    return verdicts
