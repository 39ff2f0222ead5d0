"""Control functions, contraction-direction selection, the scaling-limit
construction of the exact involution, and its error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import algebra
from .algebra import AlgebraSpec
from .errors import IterateOverflow, NoContraction, NonCauchy, OutOfRange, SpecMismatch
from .maps import ApproxMap, eval_f_rows


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
    at max_n.  The running points advance together: one stacked f
    evaluation per step.  A point that fails leaves the batch; at the end
    the exception of the first failing row of X is raised.  A non-finite
    f value fails its row with IterateOverflow, not with a warning.

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
    resume = [None] * len(X) if resume is None else list(resume)
    if len(resume) != len(X):
        raise ValueError(f"{len(resume)} resumed traces for {len(X)} rows")
    if not len(X):
        return []
    spec = f.spec
    q = complex(direction.q)
    failures: dict[int, Exception] = {}
    iterates: list[list[np.ndarray]] = [[] for _ in resume]
    diffs: list[list[float]] = [[] for _ in resume]
    increasing_run = [0] * len(resume)
    converged = [False] * len(resume)

    def drop_nonfinite(rows, arrays):
        bad = ~np.isfinite(arrays[-1]).reshape(len(rows), -1).all(axis=1)
        for k in rows[bad].tolist():
            failures[k] = IterateOverflow("iterate f value is not finite")
        return [a[~bad] for a in (rows, *arrays)] if bad.any() else [rows, *arrays]

    # Fresh rows start at a_0 = f(x).
    running = np.array([k for k, tr in enumerate(resume) if tr is None], dtype=np.intp)
    prev = np.empty((0, *spec.shape), dtype=np.complex128)
    if len(running):
        running, prev = drop_nonfinite(running, [eval_f_rows(f, X[running])])
        for k, a in zip(running.tolist(), prev):
            iterates[k].append(a)
    # A resumed row takes over its trace: the iterates, the diffs and the
    # run of increasing diffs so far.  A row the trace saw converge stops
    # if its last step also meets tol_rel; one at max_n stops there.
    resumed = [k for k, tr in enumerate(resume) if tr is not None]
    for k in resumed:
        tr = resume[k]
        if tr.iterates.shape[1:] != spec.shape or tr.n_used > max_n:
            raise ValueError(f"trace of row {k} does not fit the orbit "
                             f"(shape {tr.iterates.shape}, max_n {max_n})")
        iterates[k], diffs[k] = list(tr.iterates), list(tr.diffs)
        for a, b in zip(tr.diffs, tr.diffs[1:]):
            increasing_run[k] = increasing_run[k] + 1 if b > a else 0
    stopped = [k for k in resumed if resume[k].converged]
    if stopped:
        last_norms = algebra.stacked_norms(spec, np.stack([iterates[k][-2] for k in stopped]))
        for k, norm in zip(stopped, last_norms):
            converged[k] = diffs[k][-1] <= tol_rel * max(1.0, norm)
    wait_rows = np.array([k for k in resumed if not converged[k] and len(diffs[k]) < max_n],
                         dtype=np.intp)
    # A waiting row joins when the loop reaches the step its trace ended
    # at; until then its argument is scaled along, so q^n x comes from the
    # same n multiplications as in a fresh orbit.
    wait_steps = np.array([len(diffs[k]) for k in wait_rows.tolist()], dtype=np.intp)
    wait_X, X = X[wait_rows], X[running]
    scale_n = 1.0
    for step in range(max_n):
        if len(wait_rows):
            joins = wait_steps == step
            if joins.any():
                rows = wait_rows[joins]
                running = np.concatenate([running, rows])
                X = np.concatenate([X, wait_X[joins]])
                prev = np.concatenate([prev, np.stack([iterates[k][-1] for k in rows.tolist()])])
                stay = ~joins
                wait_rows, wait_steps, wait_X = wait_rows[stay], wait_steps[stay], wait_X[stay]
            wait_X = q * wait_X
        if failures:
            # Points after the first failure cannot change what is raised.
            keep = running < min(failures)
            running, X, prev = running[keep], X[keep], prev[keep]
            keep = wait_rows < min(failures)
            wait_rows, wait_steps, wait_X = wait_rows[keep], wait_steps[keep], wait_X[keep]
        scale_n /= direction.q
        if not len(running):
            if not len(wait_rows):
                break
            continue
        X = q * X
        bad = np.abs(X).reshape(len(running), -1).max(axis=1) > 1e300
        for k in running[bad].tolist():
            failures[k] = IterateOverflow("iterate argument norm exceeded 1e300")
        running, X, prev = running[~bad], X[~bad], prev[~bad]
        if not len(running):
            continue
        running, X, prev, A = drop_nonfinite(
            running, [X, prev, complex(scale_n) * eval_f_rows(f, X)])
        # ||a - prev|| and ||prev|| of every running point in one call.
        norms = algebra.stacked_norms(spec, np.concatenate([A - prev, prev]))
        step_diffs, prev_norms = norms[:len(A)], norms[len(A):]
        going = np.zeros(len(running), dtype=bool)
        for j, k in enumerate(running.tolist()):
            d = step_diffs[j]
            if diffs[k] and d > diffs[k][-1]:
                increasing_run[k] += 1
                if increasing_run[k] >= 8:
                    failures[k] = NonCauchy("successive differences grew 8 consecutive steps")
                    continue
            else:
                increasing_run[k] = 0
            iterates[k].append(A[j])
            diffs[k].append(d)
            if d <= tol_rel * max(1.0, prev_norms[j]):
                converged[k] = True
            else:
                going[j] = True
        running, X, prev = running[going], X[going], A[going]
    if failures:
        raise failures[min(failures)]
    traces = []
    for its, ds, conv in zip(iterates, diffs, converged):
        its = np.stack(its)
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

