"""Control functions, contraction-direction selection, the scaling-limit
construction of the exact involution, and its error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import algebra
from .algebra import AlgebraKind, AlgebraSpec
from .errors import IterateOverflow, NoContraction, NonCauchy, OutOfRange, SpecMismatch
from .maps import ApproxMap, PerturbationKind, eval_f_rows


class ControlKind(str, Enum):
    POWER_SUM = "power_sum"
    POWER_PRODUCT = "power_product"


@dataclass(frozen=True)
class ControlFunction:
    """Perturbation envelope phi(x, y): theta*(||x||^r + ||y||^r) for
    PowerSum, theta*||xy||^r for PowerProduct."""

    kind: ControlKind
    theta: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ControlKind(self.kind))
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.r <= 0:
            raise ValueError("exponent r must be > 0")


def power_sum(theta: float, r: float) -> ControlFunction:
    return ControlFunction(ControlKind.POWER_SUM, theta, r)


def power_product(theta: float, r: float) -> ControlFunction:
    return ControlFunction(ControlKind.POWER_PRODUCT, theta, r)


@np.errstate(over="ignore", invalid="ignore")
def control_rows(phi: ControlFunction, spec: AlgebraSpec, X: np.ndarray,
                 Y: np.ndarray) -> list[float]:
    """phi(x, y) on the row pairs of two stacks shaped (N, *spec.shape).
    phi(x, 0) is identically zero for the product control (superstability)."""
    try:
        if phi.kind is ControlKind.POWER_SUM:
            return [phi.theta * (a ** phi.r + b ** phi.r) for a, b in zip(
                algebra.stacked_norms(spec, X), algebra.stacked_norms(spec, Y))]
        XY = algebra.finite_rows("power_product control", algebra.mul_rows(spec, X, Y))
        return [phi.theta * a ** phi.r for a in algebra.stacked_norms(spec, XY)]
    except OverflowError:
        raise OutOfRange(f"{phi.kind.value} control overflows at r = {phi.r}") from None


@dataclass(frozen=True)
class ScalingDirection:
    """q = 2 (index 0) scales arguments up; q = 1/2 (index 1) scales down."""

    q: float
    i: int
    L: float

    def __post_init__(self):
        if (self.q, self.i) not in ((2.0, 0), (2, 0), (0.5, 1)):
            raise ValueError(f"(q, i) must be (2, 0) or (0.5, 1), got ({self.q}, {self.i})")
        if not (0 < self.L < 1):
            raise ValueError(f"L must lie in (0,1), got {self.L}")


def select_direction(phi: ControlFunction) -> ScalingDirection:
    """Pick (q, i, L) with phi(qx, qy) <= q*L*phi(x, y) and L < 1, from
    the closed-form constants of the control's kind."""
    def analytic(q: float, i: int, L: float) -> ScalingDirection:
        if L == 0.0:
            raise OutOfRange(f"{phi.kind.value} control with r = {phi.r}: L underflows to 0")
        return ScalingDirection(q, i, L)

    if phi.kind is ControlKind.POWER_SUM:
        if phi.r < 1:
            return analytic(2.0, 0, 2.0 ** (phi.r - 1.0))
        if phi.r > 1:
            return analytic(0.5, 1, 2.0 ** (1.0 - phi.r))
        raise NoContraction("power-sum control with r = 1 gives L = 1 in both directions")
    if phi.r < 0.5:
        return analytic(2.0, 0, 2.0 ** (2.0 * phi.r - 1.0))
    if phi.r > 0.5:
        return analytic(0.5, 1, 2.0 ** (1.0 - 2.0 * phi.r))
    raise NoContraction("power-product control with r = 1/2 gives L = 1 in both directions")


@dataclass
class StabilizationTrace:
    """One point's orbit: `iterates` is a read-only (n_used + 1, *shape)
    array of a_0 .. a_{n_used}, whose last row is the stabilized value, and
    diffs[n] = ||a_{n+1} - a_n||."""

    iterates: np.ndarray
    diffs: list[float]
    n_used: int
    converged: bool


def _eval_steps(f: ApproxMap, X: np.ndarray,
                norms: np.ndarray | None) -> tuple[np.ndarray, dict[int, OutOfRange]]:
    """eval_f_rows(f, X, norms), with NaN rows where a perturbation
    amplitude overflows, and the OutOfRange of each such row by index.
    When the stacked call raises, the rows are evaluated one at a time: a
    row's value does not depend on the others, so theirs stay bit for bit."""
    try:
        return eval_f_rows(f, X, norms), {}
    except OutOfRange:
        pass
    values = np.full(X.shape, np.nan, dtype=np.complex128)
    raised = {}
    for i in range(len(X)):
        try:
            values[i] = eval_f_rows(f, X[i:i + 1], None if norms is None else norms[i:i + 1])[0]
        except OutOfRange as exc:
            raised[i] = exc
    return values, raised


def _meets_tol(spec: AlgebraSpec, diffs: np.ndarray, P: np.ndarray, rows: np.ndarray,
               tol_rel: float, norms: np.ndarray | None = None) -> np.ndarray:
    """The stop test d <= tol_rel * max(1, ||p||) of each step, from its
    diff d and previous iterate p (the rows of P).  `rows` numbers each
    step's orbit row, a row's steps in order; `norms` are the ||p|| where
    the caller has them.  A row stops at its first step that meets the
    test, so the steps after it may read the bound's answer.

    An operator norm costs an svd, so a matrix step is first tested against
    an upper bound on ||p||: a step that fails that test fails the exact
    one, rounding being monotone, and a bound that is not finite leaves its
    step open.  Each row's first open step computes ||p||, and its later
    open steps do only if that one fails the exact test."""
    if norms is None and spec.kind is not AlgebraKind.MATRIX:
        norms = np.array(algebra.stacked_norms(spec, P))
    if norms is not None:
        return diffs <= tol_rel * np.maximum(1.0, norms)
    met = diffs <= tol_rel * np.maximum(1.0, algebra.operator_norm_bounds(P))
    open_steps = np.flatnonzero(met)
    if not open_steps.size:
        return met

    def test(steps):
        exact = np.array(algebra.stacked_norms(spec, P[steps]))
        met[steps] = diffs[steps] <= tol_rel * np.maximum(1.0, exact)

    first = np.diff(rows[open_steps], prepend=-1) != 0
    heads, later = open_steps[first], open_steps[~first]
    test(heads)
    missed = rows[heads[~met[heads]]]
    if missed.size:
        test(later[np.isin(rows[later], missed)])
    return met


def _batch_outcome(failed: dict[int, tuple[int, Exception]]) -> Exception:
    """The exception of the batch whose rows failed at the given (step,
    exception), stepped together: an OutOfRange is raised at its step unless
    a row before it failed at an earlier step, which ends the rows after it;
    else the first failing row's exception is raised."""
    lowest = math.inf
    for step in sorted({n for n, _ in failed.values()}):
        live = [k for k, (n, _) in failed.items() if n == step and k < lowest]
        for k in live:
            if isinstance(failed[k][1], OutOfRange):
                return failed[k][1]
        lowest = min([lowest, *live])
    return failed[min(failed)][1]


@np.errstate(over="ignore", invalid="ignore")
def stabilize_points(
    f: ApproxMap,
    direction: ScalingDirection,
    X: np.ndarray,
    max_n: int = 48,
    tol_rel: float = 1e-10,
    resume: Sequence[StabilizationTrace | None] | None = None,
) -> list[StabilizationTrace]:
    """Orbits a_n = q^{-n} f(q^n x) of the scaling operator for every row x
    of X, each stopped when ||a_{n+1} - a_n|| <= tol_rel * max(1, ||a_n||) or
    at max_n.

    Every row advances in blocks of 1, 2, 4, 8, ... steps, its arguments
    q^n x built by repeated multiplication by q.  A block is one stacked f
    evaluation over the running rows' next steps and one stacked norm call
    for their differences; then each row applies its rules step by step, in
    order.  The stop test reads a matrix's ||a_n|| from its Frobenius bound,
    and computes the operator norm only where the bound leaves the test open
    (`_meets_tol`); scalar and sup norms come from the differences' call.
    The steps of a block past a row's stop are evaluated but raise
    nothing.  The perturbation amplitude reads ||q^n x|| as q^n ||x||, with
    ||x|| computed once per row, wherever algebra.exact_scaling_rows
    vouches for the bits; eval_f_rows computes the rest (`norms=`).  A map
    with no perturbation computes no ||x||.

    A row fails at the first step whose argument has an entry above 1e300
    in modulus, or whose f value is not finite (IterateOverflow), or whose
    difference grew for the 8th step running (NonCauchy).  The outcome is
    that of stepping every row together: a perturbation amplitude that
    overflows raises OutOfRange at its step, a failing row ends the rows
    after it, and at the end the exception of the first failing row of X
    is raised.

    Every row of X must be finite: a row that is not raises ValueError,
    naming the first, before any evaluation.

    `resume`, one trace or None per row, continues rows instead of starting
    them at a_0.  A row's trace must be its orbit under the same f and
    direction at a depth no deeper and no stricter (max_n no larger,
    tol_rel no smaller); the row goes on from the trace's last step, and
    its result is the fresh orbit's bit for bit."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if tol_rel <= 0:
        raise ValueError("tol_rel must be > 0")
    if X.shape[1:] != f.spec.shape:
        raise SpecMismatch(f"map spec {f.spec} vs stack shape {X.shape}")
    # A non-finite row would reach LAPACK through its norm, which prints to
    # stdout and returns NaN.
    bad = (~np.isfinite(X).all(axis=tuple(range(1, X.ndim)))).nonzero()[0]
    if len(bad):
        raise ValueError(f"row {bad[0]} of X is not finite")
    resume = [None] * len(X) if resume is None else list(resume)
    if len(resume) != len(X):
        raise ValueError(f"{len(resume)} resumed traces for {len(X)} rows")
    for k, tr in enumerate(resume):
        if tr is not None and (tr.iterates.shape[1:] != f.spec.shape or tr.n_used > max_n):
            raise ValueError(f"trace of row {k} does not fit the orbit "
                             f"(shape {tr.iterates.shape}, max_n {max_n})")
    if not len(X):
        return []
    spec = f.spec
    q = complex(direction.q)
    column = (-1,) + (1,) * len(spec.shape)
    # Each row's iterates, as the chunks its orbit added them in.
    iterates: list[list[np.ndarray]] = [[] for _ in resume]
    diffs: list[list[float]] = [[] for _ in resume]
    increasing_run = [0] * len(resume)
    converged = [False] * len(resume)
    # The step each failed row failed at, and its exception.  A row runs to
    # max_n at most, and a row after a failed row no further than the step
    # that row failed at: the batch stepped together drops it there.
    failed: dict[int, tuple[int, Exception]] = {}
    limit = [max_n] * len(X)

    def fail(k: int, n: int, exc: Exception) -> None:
        failed[k] = (n, exc)
        limit[k + 1:] = [min(m, n) for m in limit[k + 1:]]

    norms = None
    if f.perturbation.kind is not PerturbationKind.NONE:
        norms = np.array(algebra.stacked_norms(spec, X))
    # Fresh rows start at a_0 = f(x).
    fresh = [k for k, tr in enumerate(resume) if tr is None]
    if fresh:
        A = eval_f_rows(f, X[fresh], None if norms is None else norms[fresh])
        finite = np.isfinite(A).reshape(len(A), -1).all(axis=1).tolist()
        for j, (k, ok) in enumerate(zip(fresh, finite)):
            if ok:
                iterates[k].append(A[j:j + 1])
            else:
                fail(k, 0, IterateOverflow("iterate f value is not finite"))
    # A resumed row takes over its trace: the iterates, the diffs and the
    # run of increasing diffs so far.  A row the trace saw converge stops
    # if its last step also meets tol_rel; one at max_n stops there.
    resumed = [k for k, tr in enumerate(resume) if tr is not None]
    for k in resumed:
        tr = resume[k]
        iterates[k], diffs[k] = [tr.iterates], list(tr.diffs)
        for a, b in zip(tr.diffs, tr.diffs[1:]):
            increasing_run[k] = increasing_run[k] + 1 if b > a else 0
    stopped = [k for k in resumed if resume[k].converged]
    if stopped:
        met = _meets_tol(spec, np.array([diffs[k][-1] for k in stopped]),
                         np.stack([resume[k].iterates[-2] for k in stopped]),
                         np.arange(len(stopped)), tol_rel)
        for k, ok in zip(stopped, met.tolist()):
            converged[k] = ok

    # q^{-n} and q^n for n = 0 .. max_n, by the repeated division and
    # multiplication of a step-by-step orbit.
    scales, powers = [1.0], [1.0]
    for _ in range(max_n):
        scales.append(scales[-1] / direction.q)
        powers.append(powers[-1] * direction.q)
    scales, powers = np.array(scales, dtype=np.complex128), np.array(powers)
    if norms is not None:
        # NaN where ||x|| may not scale exactly: eval_f_rows computes those.
        norms = np.where(algebra.exact_scaling_rows(X), norms, np.nan)
    # The running rows, each at its own depth, with its argument q^depth x
    # (from `depth` multiplications, as a fresh orbit builds it) and its
    # last iterate.
    rows = np.array([k for k, its in enumerate(iterates) if its and not converged[k]
                     and len(diffs[k]) < limit[k]], dtype=np.intp)
    depth = np.array([len(diffs[k]) for k in rows.tolist()], dtype=np.intp)
    cur = X[rows]
    for step in range(depth.max(initial=0)):
        deeper = depth > step
        cur[deeper] = q * cur[deeper]
    prev = np.array([iterates[k][-1][-1] for k in rows.tolist()],
                    dtype=np.complex128).reshape(len(rows), *spec.shape)
    block = 1
    while len(rows):
        steps = np.minimum(block, np.array(limit)[rows] - depth)
        width = int(steps.max())
        args = np.empty((len(rows), width, *spec.shape), dtype=np.complex128)
        arg = cur
        for j in range(width):
            arg = q * arg
            args[:, j] = arg
        ns = depth[:, None] + np.arange(1, width + 1)
        within = np.arange(width) < steps[:, None]
        # A row's block ends at its first argument past the guard.
        guarded = within & (np.abs(args).reshape(*ns.shape, -1).max(axis=2) > 1e300)
        evaluate = within & (np.cumsum(guarded, axis=1) == 0)
        A = np.full(args.shape, np.nan, dtype=np.complex128)
        raised: dict[tuple[int, int], OutOfRange] = {}
        if evaluate.any():
            lent = None
            if norms is not None:
                lent = powers[ns[evaluate]] * np.broadcast_to(norms[rows][:, None], ns.shape)[evaluate]
                lent[~algebra.exact_scaling_rows(args[evaluate])] = np.nan
            values, overflows = _eval_steps(f, args[evaluate], lent)
            A[evaluate] = scales[ns[evaluate]].reshape(column) * values
            if overflows:
                cells = np.argwhere(evaluate).tolist()
                raised = {tuple(cells[index]): exc for index, exc in overflows.items()}
        # A guarded, overflowing or non-finite step ends the row's block.
        bad = within & ~np.isfinite(A).reshape(*ns.shape, -1).all(axis=2)
        end = np.where(bad.any(axis=1), bad.argmax(axis=1), steps)
        # ||a_n - a_{n-1}|| and the stop test of every step up to each row's
        # end.  Scalar and sup norms are cheap: one call gives the diffs and
        # ||a_{n-1}|| too.
        kept = np.arange(width) < end[:, None]
        P = np.concatenate([prev[:, None], A[:, :-1]], axis=1)[kept]
        if spec.kind is AlgebraKind.MATRIX:
            step_diffs, prev_norms = algebra.stacked_norms(spec, A[kept] - P), None
        else:
            step_norms = algebra.stacked_norms(spec, np.concatenate([A[kept] - P, P]))
            step_diffs, prev_norms = step_norms[:len(P)], np.array(step_norms[len(P):])
        met = _meets_tol(spec, np.array(step_diffs), P, np.nonzero(kept)[0], tol_rel,
                         prev_norms).tolist()
        going = []
        pos = 0
        for i, (k, n, e, b) in enumerate(zip(rows.tolist(), depth.tolist(), end.tolist(),
                                            steps.tolist())):
            ds = diffs[k]
            taken = e
            for j in range(e):
                d = step_diffs[pos + j]
                if ds and d > ds[-1]:
                    increasing_run[k] += 1
                    if increasing_run[k] >= 8:
                        fail(k, n + j + 1, NonCauchy("successive differences grew 8 consecutive steps"))
                        taken = j
                        break
                else:
                    increasing_run[k] = 0
                ds.append(d)
                if met[pos + j]:
                    converged[k] = True
                    taken = j + 1
                    break
            else:
                if e < b:
                    if guarded[i, e]:
                        exc = IterateOverflow("iterate argument norm exceeded 1e300")
                    else:
                        exc = raised.get((i, e)) or IterateOverflow("iterate f value is not finite")
                    fail(k, n + e + 1, exc)
                elif n + b < limit[k]:
                    # Rows run in order: a failure has already cut this
                    # row's limit if it is going to.
                    going.append(i)
            if taken:
                iterates[k].append(A[i, :taken])
            pos += e
        last = steps[going] - 1
        rows, depth = rows[going], depth[going] + steps[going]
        cur, prev = args[going, last], A[going, last]
        block *= 2
    if failed:
        raise _batch_outcome(failed)
    traces = []
    for chunks, ds, conv in zip(iterates, diffs, converged):
        its = np.concatenate(chunks)
        its.setflags(write=False)
        traces.append(StabilizationTrace(its, ds, len(ds), conv))
    return traces


def error_bounds(direction: ScalingDirection, phi: ControlFunction, spec: AlgebraSpec,
                 X: np.ndarray) -> list[float]:
    """The closeness bound L^{1-i}/(1-L) * phi(x, 0) on each row x of a
    stack X shaped (N, *spec.shape)."""
    factor = direction.L ** (1 - direction.i) / (1.0 - direction.L)
    return [factor * c for c in control_rows(phi, spec, X, np.zeros_like(X))]


class Regime(str, Enum):
    SUM_R_LT_1 = "sum_r_lt_1"
    SUM_R_GT_1 = "sum_r_gt_1"
    PRODUCT = "product"


@dataclass(frozen=True)
class CorollaryAudit:
    derived: float
    paper_stated: float
    sign_anomaly: bool


def corollary_constant(r: float, regime: Regime) -> CorollaryAudit:
    """Coefficient of theta*||x||^r in the closeness bound: the value derived
    by substituting the selected L, next to the printed corollary value.
    The printed r > 1 coefficient is negative; it is flagged, not corrected.
    """
    regime = Regime(regime)
    if regime is Regime.SUM_R_LT_1:
        if not 0 < r < 1:
            raise OutOfRange(f"regime {regime.value} needs 0 < r < 1, got {r}")
        derived = 2.0**r / (2.0 - 2.0**r)
        paper = 2.0 / (2.0 - 2.0**r)
    elif regime is Regime.SUM_R_GT_1:
        if r <= 1:
            raise OutOfRange(f"regime {regime.value} needs r > 1, got {r}")
        derived = 2.0**r / (2.0**r - 2.0)
        paper = 2.0**r / (2.0 - 2.0**r)
    else:
        if r <= 0 or r == 0.5:
            raise OutOfRange(f"regime {regime.value} needs r > 0, r != 1/2, got {r}")
        derived = 0.0
        paper = 0.0
    return CorollaryAudit(derived=derived, paper_stated=paper, sign_anomaly=paper < 0)

