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
scalar call is a stack of one.  One array entry, ``_solve``, answers all
three questions, each a maximisation over the rows of the caller's
programs, given as stacks of one row count, (G, r, n), (G, r) and (G, r),
with per-program objectives and cuts, and returns status, optimum and
value arrays: feasibility maximises ``t`` over the slack system
``[A | strict; 0 | 1] (x, t) <= [b; 1]`` and reads the verdict, witness
and slack of each program, :func:`extremize` each direction and
:func:`is_redundant` each tested row over the closed rows, less the rows
one ray proves kept on the same call's stacks (:func:`_ray_proofs`).
:func:`check_feasible`, :func:`check_feasible_many`, :func:`extremize`
and :func:`is_redundant` are thin wrappers over it: they stack their
programs once per row count (``_groups``) and build result objects; the
pattern search and the half-space pruning hand it stacks they build
themselves.  It takes the programs in order of row count, so padding
stays short, pads shorter programs with rows ``0 . x <= 1`` that no pivot
touches, and puts at most ``STACK_SIZE`` programs in a stack, filled with
one copy per row count it holds, the slack column and row written in the
same copies, so the fill runs no Python per program.  Every program has
its own pivot budget of ``ITERATION_FACTOR * (rows + dim)``, counted on
its unpadded rows, a guard against numerical pathology.  A
:class:`LinearProgram` the library builds over arrays it made and checked
(``LinearProgram._of``) holds them with no copy.

The answers are read off whole arrays before any result object is built.
Statuses, witnesses and optima are copied from the tableau.  Strict
margins ``b[i] - A[i] . x`` and objective values ``c . y`` are recomputed
by ``_dot``, the products added left to right, so a number has the same
bits alone or stacked; the value of a unit direction ``+-e_i`` is exactly
``+-y[i]``.  A program whose budget runs out gives None, in a call on a
sequence for that program alone; a call on one program is the call on a
list of one, and ``_alone`` turns that None into
:class:`IterationLimitError`.  Callers in the pattern search keep the
candidate rather than prune it, and count the failure.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, IterationLimitError, NonFiniteError

TOL_SLACK = 1e-9        # minimum margin for interior feasibility
TOL_REDUNDANT = 1e-7    # slack under which a row is declared redundant
ITERATION_FACTOR = 50   # pivot budget multiplier
STACK_SIZE = 256        # programs per stacked solve
_RAY_ROUNDING = 1e-10   # a ray's lift must clear this share of its program's largest |b|

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
        if a.ndim > 2:
            raise DimensionMismatchError(f"A must have at most 2 dimensions, not {a.ndim}")
        if a.ndim != 2:
            a = a.reshape(len(a), -1) if a.size else a.reshape(0, 0)
        b = np.array(self.b, dtype=np.float64).reshape(-1)
        s = np.array(self.strict).reshape(-1)
        if s.dtype != bool and not ((s == 0) | (s == 1)).all():
            raise ValueError("strict flags must be booleans, 0 or 1")
        s = s.astype(bool, copy=False)
        if a.shape[0] != b.shape[0] or a.shape[0] != s.shape[0]:
            rows = f"A has {a.shape[0]}, b has {b.shape[0]}, strict has {s.shape[0]}"
            raise DimensionMismatchError(f"rows disagree: {rows}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NonFiniteError("linear program entries must be finite")
        for name, arr in (("A", a), ("b", b), ("strict", s)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _of(cls, A: np.ndarray, b: np.ndarray, strict: np.ndarray) -> "LinearProgram":
        """A program over arrays the library made and checked: float64 ``A``
        (m, n), finite ``b`` (m,) and bool ``strict`` (m,), held with no copy."""
        lp = object.__new__(cls)
        for name, arr in (("A", A), ("b", b), ("strict", strict)):
            arr.flags.writeable = False
            object.__setattr__(lp, name, arr)
        return lp

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
_OPTIMAL, _INFEASIBLE, _UNBOUNDED, _LIMIT = range(4)  # in this order: see _solve
# per-program feasibility verdict of _solve, in the order of Feasibility (or _LIMIT)
_INTERIOR, _BOUNDARY, _EMPTY = range(3)
_FEASIBILITY = tuple(Feasibility)
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
    lps = list(lps)
    _dim(lps)
    order, groups = _groups([lp.A for lp in lps], [lp.b for lp in lps], [lp.strict for lp in lps])
    status, x, slack = _solve(groups)
    results: list[FeasibilityResult | None] = [None] * len(lps)
    for j, st, w, s in zip(order, status.tolist(), x, slack.tolist()):
        if st == _EMPTY:
            results[j] = FeasibilityResult(Feasibility.INFEASIBLE)
        elif st != _LIMIT:
            results[j] = FeasibilityResult(_FEASIBILITY[st], w, s)
    return results


def _dim(lps: Sequence[LinearProgram]) -> int:
    """The one dimension of programs solved together."""
    dims = {lp.dim for lp in lps}
    if len(dims) > 1:
        raise DimensionMismatchError("stacked programs must share one dimension")
    return dims.pop() if dims else 0


def _groups(A: Sequence[np.ndarray], b: Sequence[np.ndarray], strict=None):
    """Programs given by their arrays ``A[j]``, ``b[j]`` (and ``strict[j]``)
    in order of row count, ties in their own order, as ``(order, groups)``:
    their indices in that order, and per row count ``m`` the ``(A, b,
    strict)`` of its programs stacked, (n, m, d), (n, m) and (n, m), each in
    one copy; ``strict`` is None unless given."""
    rows = [len(v) for v in b]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    groups = []
    for _, run in itertools.groupby(order, rows.__getitem__):
        run = list(run)
        flags = None if strict is None else np.array([strict[j] for j in run])
        groups.append((np.array([A[j] for j in run]), np.array([b[j] for j in run]), flags))
    return order, groups


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a . b`` over the last axis, ``b`` broadcast to ``a``: the products
    summed left to right, so a number has the same bits whichever programs
    share its call."""
    if not a.shape[-1]:
        return np.zeros(a.shape[:-1])
    return np.add.accumulate(a * b, axis=-1)[..., -1]


def _solve(groups, c=None, counts=None, cut=None):
    """The array entry of every solve: maximise each objective ``c[p]`` over
    the system of its program, in stacked solves; returns ``(status, y,
    value)``, one entry per program in the order of ``c``.

    ``groups`` holds systems ``A x <= b`` by row count, ascending, each a
    stack of one row count, shapes (n, m, d), (n, m) and (n, m), as
    :func:`_groups` stacks them.  Taken in that order, system ``s`` owns
    the next ``counts[s]`` rows of ``c``, or one without ``counts``.  With
    ``cut``, program ``p`` has row ``cut[p]`` replaced by ``0 . x <= 1``.
    ``status`` and ``y`` are :func:`_simplex`'s and ``value`` is ``c[p]
    . y[p]`` (:func:`_dot`).

    Without ``c``, each system's feasibility is decided: its program is
    the slack system ``[A | strict; 0 | 1] (x, t) <= [b; 1]`` maximising
    ``t``; ``status`` is ``_INTERIOR``, ``_BOUNDARY``, ``_EMPTY`` or
    ``_LIMIT`` (an unbounded slack program, impossible as ``t <= 1``, is
    pathology too), ``y`` the witness ``x`` and ``value`` the slack of
    :class:`FeasibilityResult` (NaN when empty).

    The programs are cut, in order, into stacks of at most ``STACK_SIZE``,
    padded with rows ``0 . x <= 1``, which no pivot touches; a stack is
    filled with one copy of each array per group it draws on.  Every
    program has the pivot budget of its unpadded system, one row shorter
    with ``cut``.
    """
    slack = c is None
    if slack:
        P, d = sum(len(b) for _, b, _ in groups), groups[0][0].shape[2] if groups else 0
        c = np.zeros((P, d + 1))
        c[:, d] = 1.0  # maximise t
    P, width = c.shape
    spans, lo, s = [], 0, 0  # per group: its programs lo:hi, the system of each, its arrays, their budget
    for A, b, strict in groups:
        n, m = b.shape
        owner = None if counts is None else np.arange(n).repeat(counts[s : s + n])
        hi = lo + (n if owner is None else len(owner))
        spans.append((lo, hi, owner, A, b, strict, iteration_limit(m + slack - (cut is not None), width)))
        lo, s = hi, s + n
    status, y = np.empty(P, dtype=np.intp), np.empty((P, width))
    for p0 in range(0, P, STACK_SIZE):
        p1 = min(P, p0 + STACK_SIZE)
        runs = [span for span in spans if max(span[0], p0) < min(span[1], p1)]
        rows = runs[-1][4].shape[1] + slack  # the last group has the most rows
        G, h, limit = np.zeros((p1 - p0, rows, width)), np.ones((p1 - p0, rows)), np.empty(p1 - p0, dtype=np.intp)
        for start, stop, owner, A, b, strict, budget in runs:
            a, z = max(start, p0), min(stop, p1)
            at = slice(a - start, z - start) if owner is None else owner[a - start : z - start]
            to, (m, d) = slice(a - p0, z - p0), A.shape[1:]
            G[to, :m, :d] = A[at]
            h[to, :m] = b[at]
            limit[to] = budget
            if slack:
                G[to, :m, d] = strict[at]
                G[to, m, d] = 1.0
        if cut is not None:
            k = np.arange(p1 - p0)
            G[k, cut[p0:p1]] = 0.0
            h[k, cut[p0:p1]] = 1.0
        status[p0:p1], y[p0:p1] = _simplex(G, h, c[p0:p1], limit)
    if not slack:
        return status, y, _dot(c, y)
    x, top = y[:, :-1], y[:, -1]
    s, lo = top.copy(), 0  # per program: its witness's smallest strict margin, or t with no strict row
    for A, b, strict in groups:
        hi = lo + len(b)
        smallest = np.minimum.reduce(b - _dot(A, x[lo:hi, None]), axis=1, initial=np.inf, where=strict)
        s[lo:hi] = np.where(np.logical_or.reduce(strict, axis=1), smallest, s[lo:hi])
        lo = hi
    code, value = [], []
    for st, margin, t in zip(status.tolist(), s.tolist(), top.tolist()):
        if st == _OPTIMAL and margin > TOL_SLACK:
            code.append(_INTERIOR), value.append(margin)
        elif st == _OPTIMAL and t >= -TOL_SLACK:
            code.append(_BOUNDARY), value.append(max(margin, 0.0))
        else:
            code.append(_LIMIT if st >= _UNBOUNDED else _EMPTY), value.append(np.nan)
    return np.array(code, dtype=np.intp), x, np.array(value)


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
            length = D.shape[-1] if D.ndim else 1
            raise DimensionMismatchError(f"direction has length {length}, program dim is {lp.dim}")
    d = _dim(lps)
    order, groups = _groups([lp.A for lp in lps], [lp.b for lp in lps])
    objectives = [stacks[j] if stacks[j].ndim == 2 else stacks[j][None] for j in order]
    c = np.concatenate(objectives or [np.zeros((0, d))])
    if not np.isfinite(c).all():
        raise NonFiniteError("directions must be finite")
    counts = [len(D) for D in objectives]
    status, y, value = _solve(groups, c, counts)
    statuses, values = status.tolist(), value.tolist()
    results: list = [None] * len(lps)
    for j, lo, hi in _solved(order, counts, statuses):
        tops = tuple(map(_extremum, statuses[lo:hi], values[lo:hi], y[lo:hi]))
        results[j] = tops if stacks[j].ndim == 2 else tops[0]
    return results


def _solved(order, counts, statuses):
    """``(j, lo, hi)`` for each caller's program ``j = order[s]`` none of
    whose stacked programs, entries ``lo:hi`` of ``statuses`` (the next
    ``counts[s]``), ran out of pivots."""
    lo = 0
    for j, n in zip(order, counts):
        if _LIMIT not in statuses[lo : lo + n]:
            yield j, lo, lo + n
        lo += n


def _extremum(status: int, value: float, y: np.ndarray) -> ExtremizeResult:
    """The maximum of a direction from its program's status, value and optimum."""
    if status == _INFEASIBLE:
        return ExtremizeResult(Extremum.INFEASIBLE)
    if status == _UNBOUNDED:
        return ExtremizeResult(Extremum.UNBOUNDED)
    return ExtremizeResult(Extremum.BOUNDED, value, y)


def _implied(status: np.ndarray, value: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Whether rows ``a . x <= bound`` are implied by their systems, given
    the maxima of ``a . x`` over them as :func:`_solve` returns them.

    A bounded maximum at most ``bound + TOL_REDUNDANT`` implies a row; an
    unbounded one means the row genuinely cuts; an empty system implies
    every row; a solve out of pivots implies nothing.
    """
    return (status == _INFEASIBLE) | ((status == _OPTIMAL) & (value <= bound + TOL_REDUNDANT))


def is_redundant(row, lp):
    """True iff dropping ``row`` cannot enlarge the closed feasible set.

    Decided by maximising the row over the remaining closed rows (see
    :func:`_implied`); a row one ray proves kept is answered with no LP
    (:func:`_ray_proofs`).  ``row`` is one index, giving a bool, or an
    array of indices, giving a bool array.  Each program keeps the
    system's shape: the tested row is replaced by ``0 . x <= 1``.  ``lp``
    may also be a sequence of programs sharing one dimension, with ``row``
    a matching sequence: the result is then a list holding, per program,
    what the call on that program alone returns, or None where that call
    would raise :class:`IterationLimitError`.  Rows no ray proves kept go
    to stacked solves.
    """
    if isinstance(lp, LinearProgram):
        return _alone(_redundant([row], [lp])[0], lp)
    return _redundant(row, lp)


def _ray_proofs(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per program of a stack, (n, m, d) rows and (n, m) right-hand sides,
    the (n, m) mask of rows one ray proves that :func:`is_redundant` keeps.

    The ray for row ``i`` leaves the origin along the row's normal ``a_i``
    and meets row ``k`` at ``s_k = b[k] / (a_k . a_i)`` where that rate is
    positive.  Row ``i`` is proven when it is hit strictly first and the
    point ``x`` halfway between its hit and the next (at ``2 s_i + 1``
    with none ahead) meets every other row in floats and lifts row ``i``
    above ``b[i] + TOL_REDUNDANT`` by more than ``_RAY_ROUNDING`` times the
    program's largest ``|b|`` (at least 1).  Such an ``x`` is a point of
    the program without row ``i``, so ``a_i . x`` bounds from below the
    maximum compared with ``b[i] + TOL_REDUNDANT``, and the margin covers
    the rounding of both.
    """
    diagonal = (slice(None), *np.diag_indices(b.shape[1]))
    # far programs may overflow; an infinite or NaN value proves nothing
    with np.errstate(over="ignore", invalid="ignore"):
        rates = A @ A.transpose(0, 2, 1)  # rates[g, i, k]: row k's growth along ray i
        hits = np.full(rates.shape, np.inf)
        np.divide(b[:, None, :], rates, out=hits, where=rates > 0.0)
        own = hits[diagonal]
        hits[diagonal] = np.inf
        ahead = hits.min(axis=2, initial=np.inf)
        first = own < ahead
        s = np.where(first, np.where(ahead < np.inf, own + (ahead - own) / 2.0, 2.0 * own + 1.0), 0.0)
        values = (s[..., None] * A) @ A.transpose(0, 2, 1)  # values[g, i, k] = a_k . x_i
        met = values <= b[:, None, :]
        met[diagonal] = True
        margin = _RAY_ROUNDING * np.maximum(1.0, np.abs(b).max(axis=1, initial=0.0))
        lifted = values[diagonal] - (b + TOL_REDUNDANT) > margin[:, None]
    return first & met.all(axis=2) & lifted


def _redundant(rows, lps) -> list:
    """:func:`is_redundant` on a sequence of programs."""
    lps = list(lps)
    indices = [np.asarray(r) for r in rows]
    if len(indices) != len(lps):
        raise DimensionMismatchError(f"{len(indices)} row sets for {len(lps)} programs")
    for r in indices:
        if r.size and r.dtype.kind not in "iu":
            raise IndexError(f"row indices must be integers, not {r.dtype}")
    flat = [r.reshape(-1).astype(np.intp, copy=False) for r in indices]
    tested = np.concatenate(flat or [np.zeros(0, dtype=np.intp)])
    bad = (tested < 0) | (tested >= np.repeat([lp.num_rows for lp in lps], [len(f) for f in flat]))
    if bad.any():
        raise IndexError(f"row {tested[bad][0]} out of range")
    d = _dim(lps)
    order, groups = _groups([lp.A for lp in lps], [lp.b for lp in lps])
    counts = [len(flat[j]) for j in order]
    cut = np.concatenate([flat[j] for j in order] or [np.zeros(0, dtype=np.intp)])
    # each program maximises its tested row, against that row's bound, read
    # off the stacks with the rays' proofs; a row a ray proves kept takes no LP
    owner = np.repeat(np.arange(len(order)), counts)
    picked, lo, s = [(np.zeros((0, d)), np.zeros(0), np.zeros(0, dtype=bool))], 0, 0
    for A, b, _ in groups:
        hi = lo + sum(counts[s : s + len(b)])
        at = (owner[lo:hi] - s, cut[lo:hi])
        picked.append((A[at], b[at], ~_ray_proofs(A, b)[at]))
        lo, s = hi, s + len(b)
    c, bound, ask = map(np.concatenate, zip(*picked))
    c, bound = c[ask], bound[ask]
    solved, _, value = _solve(groups, c, np.bincount(owner[ask], minlength=len(order)), cut[ask])
    status, implied = np.full(len(cut), _OPTIMAL), np.zeros(len(cut), dtype=bool)
    status[ask] = solved
    implied[ask] = _implied(solved, value, bound)
    verdicts: list = [None] * len(lps)
    for j, lo, hi in _solved(order, counts, status.tolist()):
        verdicts[j] = bool(implied[lo]) if indices[j].ndim == 0 else implied[lo:hi]
    return verdicts
