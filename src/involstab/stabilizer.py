"""Control functions, contraction-direction selection, the scaling-limit
construction of the exact involution, and its error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import algebra
from .algebra import Element
from .errors import IterateOverflow, NoContraction, NonCauchy, OutOfRange, SpecMismatch
from .maps import ApproxMap, eval_f_rows


class ControlKind(str, Enum):
    POWER_SUM = "power_sum"
    POWER_PRODUCT = "power_product"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ControlFunction:
    """Perturbation envelope phi(x, y): theta*(||x||^r + ||y||^r) for
    PowerSum, theta*||xy||^r for PowerProduct, or a caller-supplied
    non-negative function."""

    kind: ControlKind
    theta: float = 0.0
    r: float = 1.0
    custom_eval: Callable[[Element, Element], float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ControlKind(self.kind))
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.r <= 0:
            raise ValueError("exponent r must be > 0")
        if (self.kind is ControlKind.CUSTOM) != (self.custom_eval is not None):
            raise ValueError("custom_eval is required exactly for the custom kind")


def power_sum(theta: float, r: float) -> ControlFunction:
    return ControlFunction(ControlKind.POWER_SUM, theta, r)


def power_product(theta: float, r: float) -> ControlFunction:
    return ControlFunction(ControlKind.POWER_PRODUCT, theta, r)


def control_eval(phi: ControlFunction, x: Element, y: Element) -> float:
    if x.spec != y.spec:
        raise SpecMismatch(f"{x.spec} vs {y.spec}")
    try:
        if phi.kind is ControlKind.POWER_SUM:
            return phi.theta * (algebra.norm(x) ** phi.r + algebra.norm(y) ** phi.r)
        if phi.kind is ControlKind.POWER_PRODUCT:
            return phi.theta * algebra.norm(algebra.mul(x, y)) ** phi.r
    except OverflowError:
        raise OutOfRange(f"{phi.kind.value} control overflows at r = {phi.r}") from None
    return float(phi.custom_eval(x, y))


def control_of_x(phi: ControlFunction, x: Element) -> float:
    """phi(x, 0); identically zero for the product control (superstability)."""
    return control_eval(phi, x, algebra.zero(x.spec))


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


def select_direction(
    phi: ControlFunction,
    samples: Sequence[tuple[Element, Element]] | None = None,
) -> ScalingDirection:
    """Pick (q, i, L) with phi(qx, qy) <= q*L*phi(x, y) and L < 1.

    Analytic kinds have closed-form constants; custom controls are measured
    on the supplied sample pairs with a 1.05 safety multiplier.
    """
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
    if phi.kind is ControlKind.POWER_PRODUCT:
        if phi.r < 0.5:
            return analytic(2.0, 0, 2.0 ** (2.0 * phi.r - 1.0))
        if phi.r > 0.5:
            return analytic(0.5, 1, 2.0 ** (1.0 - 2.0 * phi.r))
        raise NoContraction("power-product control with r = 1/2 gives L = 1 in both directions")
    if not samples:
        raise NoContraction("custom control needs sample pairs to estimate L")
    candidates = []
    for q, i in ((2.0, 0), (0.5, 1)):
        worst = 0.0
        for x, y in samples:
            den = q * control_eval(phi, x, y)
            num = control_eval(phi, algebra.scale(q, x), algebra.scale(q, y))
            if den == 0.0:
                if num > 0.0:
                    worst = math.inf
                    break
                continue
            worst = max(worst, num / den)
        L = worst * 1.05
        if 0 < L < 1:
            candidates.append(ScalingDirection(q, i, L))
    if not candidates:
        raise NoContraction("measured L >= 1 for both scaling directions")
    return min(candidates, key=lambda d: d.L)


@dataclass
class StabilizationTrace:
    """One point's orbit: `iterates` is a read-only (n_used + 1, *shape)
    array of a_0 .. a_{n_used}, and diffs[n] = ||a_{n+1} - a_n||."""

    x: Element
    iterates: np.ndarray
    diffs: list[float]
    result: Element
    n_used: int
    converged: bool


def stabilize_point(
    f: ApproxMap,
    direction: ScalingDirection,
    x: Element,
    max_n: int = 48,
    tol_rel: float = 1e-10,
) -> StabilizationTrace:
    """The orbit of one point; see stabilize_points."""
    return stabilize_points(f, direction, [x], max_n, tol_rel)[0]


def stabilize_points(
    f: ApproxMap,
    direction: ScalingDirection,
    xs: Sequence[Element],
    max_n: int = 48,
    tol_rel: float = 1e-10,
) -> list[StabilizationTrace]:
    """Orbits a_n = q^{-n} f(q^n x) of the scaling operator for every x in
    xs, each stopped when ||a_{n+1} - a_n|| <= tol_rel * max(1, ||a_n||) or
    at max_n.  The running points advance together: one stacked f
    evaluation per step.  A point that fails leaves the batch; at the end
    the exception of the first failing point in xs is raised."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if tol_rel <= 0:
        raise ValueError("tol_rel must be > 0")
    for x in xs:
        if x.spec != f.spec:
            raise SpecMismatch(f"map spec {f.spec} vs element spec {x.spec}")
    if not xs:
        return []
    spec = f.spec
    q = complex(direction.q)
    failures: dict[int, Exception] = {}

    def drop_nonfinite(rows, arrays):
        bad = ~np.isfinite(arrays[-1]).reshape(len(rows), -1).all(axis=1)
        for k in rows[bad].tolist():
            failures[k] = ValueError("element entries must be finite")
        return [a[~bad] for a in (rows, *arrays)] if bad.any() else [rows, *arrays]

    X = np.stack([x.data for x in xs])
    running, X, prev = drop_nonfinite(np.arange(len(xs)), [X, eval_f_rows(f, X)])
    iterates = [[a] for a in prev]
    diffs: list[list[float]] = [[] for _ in xs]
    increasing_run = [0] * len(xs)
    converged = [False] * len(xs)
    scale_n = 1.0
    for _ in range(max_n):
        if failures:
            # Points after the first failure cannot change what is raised.
            keep = running < min(failures)
            running, X, prev = running[keep], X[keep], prev[keep]
        if not len(running):
            break
        X = q * X
        scale_n /= direction.q
        bad = np.abs(X).reshape(len(running), -1).max(axis=1) > 1e300
        for k in running[bad].tolist():
            failures[k] = IterateOverflow("iterate argument norm exceeded 1e300")
        running, X, prev = running[~bad], X[~bad], prev[~bad]
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
    for x, its, ds, conv in zip(xs, iterates, diffs, converged):
        its = np.stack(its)
        its.setflags(write=False)
        traces.append(StabilizationTrace(
            x=x, iterates=its, diffs=ds, result=Element(spec, its[-1]),
            n_used=len(ds), converged=conv,
        ))
    return traces


def error_bound(direction: ScalingDirection, phi: ControlFunction, x: Element) -> float:
    """L^{1-i}/(1-L) * phi(x, 0)."""
    factor = direction.L ** (1 - direction.i) / (1.0 - direction.L)
    return factor * control_of_x(phi, x)


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

