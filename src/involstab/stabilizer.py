"""Control functions, contraction-direction selection, the scaling-limit
construction of the exact involution, and its error bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algebra
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


@np.errstate(over="ignore")
def control(phi: ControlFunction, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """phi from the norms of its arguments: theta * (a^r + b^r) from a = ||x||
    and b = ||y|| (the power sum), and theta * a^r without b: phi(x, 0) from
    a = ||x||, or the product's phi(x, y) from a = ||xy||.  A power that
    overflows is inf."""
    powers = algebra._libm_pow(a, phi.r)
    return phi.theta * (powers if b is None else powers + algebra._libm_pow(b, phi.r))


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


# The depth rule.  A row's depth n*(x) is the least n >= 1 whose tail
# L^n e(x) is at most tol(x) = max(8u ||x||, min(1e-9 ||x||, 1e-7)), for
# u = 2^-52: 1e-9 is a tenth of the relative verifier.CSTAR_TOL, 1e-7 a
# tenth of the absolute UNIQUENESS_TOL, and 8u ||x|| is rounding level.  A
# row with e(x) = 0 takes n* = 1.  Past MAX_DEPTH every nonzero finite
# argument leaves the float range, so no depth is larger.
DEPTH_TOL_REL, DEPTH_TOL_ABS, MAX_DEPTH = 1e-9, 1e-7, 2100
_U = 2.0 ** -52
_LADDER = np.concatenate([[0], 2 ** np.arange(13)])  # 0, 1, 2, 4, ..., 4096
# A ladder entry is used iff the entry below it is below n*.
_BELOW = np.concatenate([[-1], _LADDER[:-1]])


@dataclass(frozen=True)
class StabilizationTrace:
    """The ladders of a stack of rows, flat: row k's entries are
    offsets[k]:offsets[k + 1], at the `depths` 0, 1, 2, 4, ... < n* and n*,
    with the values a_n in `iterates`, the last one a_{n*} = I(x), and in
    `gaps` the difference to the row's next entry, NaN on its last.  Per
    row, `radius` is ||x|| and `bound` the closeness bound e(x)."""

    offsets: np.ndarray
    depths: np.ndarray
    iterates: np.ndarray
    gaps: np.ndarray
    radius: np.ndarray
    bound: np.ndarray


def _scale(Z: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    # q^n z for each row z of Z and its n, q = 2 or 1/2: ldexp on the float64
    # parts, exact away from overflow and underflow; q^n alone may be inf.
    parts = np.ascontiguousarray(Z).view(np.float64)
    n = (n if q == 2.0 else -n).reshape((-1,) + (1,) * (parts.ndim - 1))
    return np.ldexp(parts, n).view(np.complex128)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def stabilize_points(f: ApproxMap, direction: ScalingDirection, phi: ControlFunction,
                     X: np.ndarray) -> StabilizationTrace:
    """I(x) = a_{n*}(x), for a_n(x) = q^{-n} f(q^n x), on every row x of X,
    at the depth n*(x) its a-priori tail ||a_n(x) - I(x)|| <= L^n e(x)
    proves (the depth rule above), e(x) the closeness bound.

    Each row is evaluated at its doubling ladder 0, 1, 2, 4, ... < n* and
    at n*, all rows in one stacked f call, and each consecutive pair m < n
    of its depths must meet the tail, ||a_n - a_m|| <= (L^m + L^n) e(x) +
    16u ||x||, unless e(x) = 0; else NonCauchy.  An argument with a part
    above 1e300 (found before any evaluation, x itself before its norm) or
    an a_n that is not finite is an IterateOverflow naming a depth and a
    row.  An e(x) that is not finite, whether ||x||^r or its product with
    theta overflowed, is OutOfRange.  A row of X that is not finite is a
    ValueError, raised before its norm reaches LAPACK, which would print to
    stdout; a real X is its complex cast."""
    X = np.ascontiguousarray(X, dtype=np.complex128)
    if X.shape[1:] != f.spec.shape:
        raise SpecMismatch(f"map spec {f.spec} vs stack shape {X.shape}")
    # Each row's largest |part|: NaN or inf iff the row is not finite.
    largest = algebra._row_reduce(np.maximum, np.abs(X.view(np.float64)))
    bad = (~np.isfinite(largest)).nonzero()[0]
    if len(bad):
        raise ValueError(f"row {bad[0]} of X is not finite")
    # X's own arguments first: a row whose norm overflows has a part above 1e300.
    big = (largest > 1e300).nonzero()[0]
    if len(big):
        raise IterateOverflow(f"iterate argument exceeded 1e300 at depth 0, row {big[0]}")
    norms = algebra.stacked_norms(f.spec, X)
    bounds = closeness(direction, phi, norms)
    if not np.isfinite(bounds).all():
        raise OutOfRange(f"{phi.kind.value} control overflows at r = {phi.r}")
    tol = np.maximum(8 * _U * norms, np.minimum(DEPTH_TOL_REL * norms, DEPTH_TOL_ABS))
    deep = np.fmin(np.fmax(np.ceil(np.log(tol / bounds) / math.log(direction.L)), 1), MAX_DEPTH)
    # Each row's ladder: the distinct entries of min(_LADDER, n*).
    stop = np.where(bounds > 0, deep, 1).astype(np.intp)[:, None]
    used = _BELOW < stop
    depths, owner = np.minimum(_LADDER, stop)[used], used.nonzero()[0]

    def fail(failed: np.ndarray, error: Exception):
        # Raise `error` at the first failed entry, naming its depth and row.
        if failed.any():
            j = failed.argmax()
            raise type(error)(f"{error} at depth {depths[j]}, row {owner[j]}")

    # The largest |part| of q^n x is q^n times x's, exactly, or inf where it
    # overflows, or rounded as the parts themselves where it underflows.
    fail(np.ldexp(largest[owner], depths if direction.q == 2.0 else -depths) > 1e300,
         IterateOverflow("iterate argument exceeded 1e300"))
    args = _scale(X[owner], depths, direction.q)
    values = _scale(eval_f_rows(f, args), -depths, direction.q)
    fail(~algebra._row_reduce(np.logical_and, np.isfinite(values)),
         IterateOverflow("iterate a_n is not finite"))
    pair = owner[1:] == owner[:-1]
    gaps = np.full(len(depths), np.nan)
    gaps[:-1][pair] = algebra.stacked_norms(f.spec, values[1:][pair] - values[:-1][pair])
    powers, k = direction.L ** depths, owner[1:]
    tail = (powers[:-1] + powers[1:]) * bounds[k] + 16 * _U * norms[k]
    fail(np.append(False, pair & (bounds[k] > 0) & ~(gaps[:-1] <= tail)),
         NonCauchy("ladder difference ||a_n - a_m|| exceeds (L^m + L^n) e(x) + 16u ||x||"))
    return StabilizationTrace(np.append(0, np.cumsum(used.sum(axis=1))), depths, values, gaps,
                              norms, bounds)


@np.errstate(over="ignore")
def closeness(direction: ScalingDirection, phi: ControlFunction, norms: np.ndarray) -> np.ndarray:
    """The closeness bound e(x) = L^{1-i}/(1-L) * phi(x, 0) from the norms
    ||x||; 0 under the product control, where no power is taken."""
    if phi.kind is ControlKind.POWER_PRODUCT:
        return np.zeros(len(norms))
    return direction.L ** (1 - direction.i) / (1.0 - direction.L) * control(phi, norms)
