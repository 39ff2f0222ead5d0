"""Control functions, contraction-direction selection, the scaling-limit
construction of the exact involution, and its error bounds.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from . import algebra
from .algebra import AlgebraSpec
from .errors import IterateOverflow, NoContraction, NonCauchy, OutOfRange, SpecMismatch
from .maps import ApproxMap, PerturbationKind, PerturbationSpec, eval_f_rows


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
                 Y: np.ndarray) -> np.ndarray:
    """phi(x, y) on the row pairs of two stacks shaped (N, *spec.shape).
    phi(x, 0) is identically zero for the product control (superstability)."""
    try:
        if phi.kind is ControlKind.POWER_SUM:
            a, b = algebra.stacked_norms(spec, X), algebra.stacked_norms(spec, Y)
            return phi.theta * (algebra._libm_pow(a, phi.r) + algebra._libm_pow(b, phi.r))
        XY = algebra.finite_rows("power_product control", algebra.mul_rows(spec, X, Y))
        return phi.theta * algebra._libm_pow(algebra.stacked_norms(spec, XY), phi.r)
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
    array of a_0 .. a_{n_used} in `spec`, whose last row is the stabilized
    value.

    diffs[n] = ||a_{n+1} - a_n||.  The orbit decides its steps from these
    norms but keeps none of them; they are computed again on first read, in
    one stacked call, with the bits the orbit read."""

    iterates: np.ndarray
    n_used: int
    converged: bool
    spec: AlgebraSpec

    @cached_property
    def diffs(self) -> list[float]:
        return algebra.stacked_norms(self.spec, self.iterates[1:] - self.iterates[:-1]).tolist()


class Orbits(Sequence):
    """The orbits of a batch of rows: `iterates` stacks every row's a_0 ..
    a_{n_used}, read-only, row k's at offsets[k]:offsets[k + 1], and
    `limits` each row's last iterate.  Item k is row k's StabilizationTrace,
    built on first access as a view of `iterates` and kept."""

    def __init__(self, spec: AlgebraSpec, iterates: np.ndarray, offsets: np.ndarray,
                 converged: np.ndarray):
        self.spec, self.iterates, self.offsets, self.converged = (
            spec, iterates, offsets, converged)
        self.limits = iterates[offsets[1:] - 1]
        self._traces: list[StabilizationTrace | None] = [None] * len(converged)

    def __len__(self) -> int:
        return len(self._traces)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        if self._traces[k] is None:
            start, end = self.offsets[k:k + 2].tolist()
            self._traces[k] = StabilizationTrace(self.iterates[start:end], end - start - 1,
                                                 bool(self.converged[k]), self.spec)
        return self._traces[k]


# About the most cells, rows times widest width, one block's arrays hold.
# An array of 64-byte elements, such as 2x2 matrices, then holds about
# 128 kB, glibc's default mmap threshold: wider blocks raised peak RSS.
_BLOCK_CELLS = 2048


def _evaluate_block(f: ApproxMap, q: float, X: np.ndarray, A0: np.ndarray, widths: np.ndarray):
    """Each row x of X from step 1 to its width: the arguments q^n x by
    repeated multiplication, and the values a_n = q^{-n} f(q^n x) from one
    stacked evaluation.  A row's evaluation stops at its first argument
    past the guard.

    Returns the mask of the steps past the guard, and the chain of
    iterates, whose slot 0 is each row's a_0 (`A0`) and slot n its a_n, NaN
    where not evaluated."""
    width = int(widths.max())
    # Slice j holds every row's q^(j+1) x, built as complex(q) * arg, which
    # np.multiply.accumulate's arg * complex(q) signs apart on underflow.
    ladder = np.empty((width, *X.shape), dtype=np.complex128)
    arg, scale = X, np.array(complex(q))
    for nxt in ladder:
        arg = np.multiply(scale, arg, out=nxt)
    within = np.arange(width) < widths[:, None]
    largest = algebra._row_reduce(np.maximum, np.abs(ladder).reshape(within.size, -1))
    guarded = within & (largest.reshape(width, len(X)).T > 1e300)
    evaluate = within & (np.cumsum(guarded, axis=1) == 0)
    values = ladder.swapaxes(0, 1)[evaluate]
    del ladder  # the evaluation below holds the block's peak memory
    if len(values):
        values = eval_f_rows(f, values)
        # q is 2 or 1/2, so q^{-n} is 2^-n or 2^n: ldexp gives the bits of
        # repeated division by q, down to 0 and up to inf.  numpy multiplies
        # complex values by it as by a complex scale, signed zeros included.
        ns = evaluate.nonzero()[1] + 1
        scales = np.ldexp(1.0, -ns if q == 2.0 else ns)
        values *= scales.reshape((-1,) + (1,) * (values.ndim - 1))
    chain = np.full((len(X), width + 1, *X.shape[1:]), np.nan, dtype=np.complex128)
    chain[:, 0] = A0
    chain[:, 1:][evaluate] = values
    return guarded, chain


def _decide(spec: AlgebraSpec, tol_rel: float, chain: np.ndarray, kept: np.ndarray,
            a0_norms: np.ndarray):
    """Each step n of a block, whether its difference ||a_n - a_{n-1}|| rose
    above the one before and whether it meets the stop test against
    ||a_{n-1}||, as masks shaped `kept`.  Step 1 is no rise."""
    its = np.full((kept.shape[0], kept.shape[1] + 1), np.nan)
    diffs = its.copy()
    its[:, 0], diffs[:, 0] = a0_norms, np.inf
    values = chain[:, 1:][kept]
    # Two calls, not one on a stack twice the size: a smaller largest array
    # keeps the peak RSS down.
    diffs[:, 1:][kept] = algebra.stacked_norms(spec, values - chain[:, :-1][kept])
    its[:, 1:][kept] = algebra.stacked_norms(spec, values)
    return diffs[:, 1:] > diffs[:, :-1], diffs[:, 1:] <= tol_rel * np.maximum(1.0, its[:, :-1])


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _predicted_stops(p: PerturbationSpec, q: float, norms: np.ndarray, lower: np.ndarray,
                     tol_rel: float, max_n: int) -> np.ndarray:
    """Each row's step n_hat, at most max_n, by which its orbit meets the
    stop test in exact arithmetic, from ||x|| (`norms`) and ||a_0||
    (`lower`); 0, no prediction, where rho = q^{r-1} >= 1.
    The perturbation of a_n has the norm rho^n A for A = theta_delta ||x||^r,
    so d_n <= (1 + rho) rho^{n-1} A and ||a_{n-1}|| >= lower - 2A."""
    amplitudes = p.theta_delta * norms ** p.r
    log_rho = (p.r - 1.0) * math.log(q)
    if log_rho >= 0:
        stops = np.where(amplitudes > 0, 0.0, 1.0)
    else:
        ratio = tol_rel * np.maximum(1.0, lower - 2.0 * amplitudes) / (
            (1.0 + math.exp(log_rho)) * amplitudes)
        stops = 1.0 + np.fmax(0.0, np.ceil(np.log(ratio) / log_rho))
    return stops.clip(max=max_n).astype(np.intp)


@np.errstate(over="ignore", invalid="ignore")
def stabilize_points(
    f: ApproxMap,
    direction: ScalingDirection,
    X: np.ndarray,
    max_n: int = 48,
    tol_rel: float = 1e-10,
) -> Orbits:
    """Orbits a_n = q^{-n} f(q^n x) of the scaling operator for every row x
    of X, each stopped when ||a_{n+1} - a_n|| <= tol_rel * max(1, ||a_n||) or
    at max_n.

    Every row starts at a_0 = f(x) and runs from step 1 to a width, its
    arguments q^n x built by repeated multiplication by q.  Its first width
    is the step by which the perturbation's closed-form decay meets the stop
    test (_predicted_stops), at least 1.  A row that runs its whole width
    below max_n without stopping or failing runs again from step 1 at twice
    the width, at most max_n: a_n needs nothing from a_{n-1}.  A block is
    one stacked f evaluation over whole rows, the next queued whose count
    times widest width is at most _BLOCK_CELLS, at least one.  Each step's
    stop test and whether its difference grew read the norms they compare,
    from one stacked call on the block's differences and one on its
    iterates (`StabilizationTrace.diffs`).  Steps past a row's stop are
    evaluated but raise nothing, so the widths change no trace or outcome.

    A row fails at the first step whose argument has an entry above 1e300
    in modulus, or whose f value is not finite (IterateOverflow), or whose
    difference grew for the 8th step running (NonCauchy).  The batch raises
    the exception of its lowest failing row; once a row fails, the rows
    above it are not run further.  Every row of X must be finite: a row
    that is not raises ValueError, naming the first, before any
    evaluation."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if tol_rel <= 0:
        raise ValueError("tol_rel must be > 0")
    if X.shape[1:] != f.spec.shape:
        raise SpecMismatch(f"map spec {f.spec} vs stack shape {X.shape}")
    # A non-finite row would reach LAPACK through its norm, which prints to
    # stdout and returns NaN.
    bad = (~algebra._row_reduce(np.logical_and, np.isfinite(X))).nonzero()[0]
    if len(bad):
        raise ValueError(f"row {bad[0]} of X is not finite")
    spec = f.spec
    if not len(X):
        return Orbits(spec, np.empty(X.shape, np.complex128), np.zeros(1, np.intp),
                      np.zeros(0, bool))
    converged = np.zeros(len(X), dtype=bool)
    A = eval_f_rows(f, X)
    finite = algebra._row_reduce(np.logical_and, np.isfinite(A))
    # The lowest failed row and its exception; only the rows below it run.
    lowest, error = len(X), None
    if not finite.all():
        lowest, error = int(finite.argmin()), IterateOverflow("iterate f value is not finite")
    # The queued rows and their widths; ||a_0|| of each row, by row.
    queue = np.arange(lowest)
    a0_norms = np.full(len(X), np.nan)
    a0_norms[queue] = algebra.stacked_norms(spec, A[queue])
    widths = np.ones(len(queue), dtype=np.intp)
    if f.perturbation.kind is not PerturbationKind.NONE:
        widths = _predicted_stops(f.perturbation, direction.q,
                                  algebra.stacked_norms(spec, X[queue]), a0_norms[queue],
                                  tol_rel, max_n)
    widths = widths.clip(1, max_n)
    # The iterates kept, one slice per block, and the row of each.
    parts, owners = [], []
    while len(queue):
        cells = np.maximum.accumulate(widths) * np.arange(1, len(widths) + 1)
        take = max(1, int(np.count_nonzero(cells <= _BLOCK_CELLS)))
        rows, width = queue[:take], widths[:take]
        guarded, chain = _evaluate_block(f, direction.q, X[rows], A[rows], width)
        # A row's run ends at its first guarded or non-finite step, or past
        # its width, where its chain is NaN.
        R, W = guarded.shape
        finite = algebra._row_reduce(np.logical_and, np.isfinite(chain[:, 1:]).reshape(R * W, -1))
        bad = ~finite.reshape(R, W)
        end = np.where(bad.any(axis=1), bad.argmax(axis=1), W)
        kept = np.arange(W) < end[:, None]
        rose, met = _decide(spec, tol_rel, chain, kept, a0_norms[rows])
        # Each step's run of rises; a row stops at its first kept step that
        # meets the test or ends a run of 8.
        number = np.arange(1, W + 1)
        run = number - np.maximum.accumulate(np.where(rose, 0, number), axis=1)
        hit = kept & ((run >= 8) | met)
        stop = hit.argmax(axis=1)
        stops = hit.any(axis=1)
        non_cauchy = stops & (run[np.arange(R), stop] >= 8)
        # A row keeps its steps up to its stop, a converging step included
        # and a NonCauchy one not, or up to its run's end.
        taken = np.where(non_cauchy, stop, np.where(stops, stop + 1, end))
        failing = (non_cauchy | (~stops & (end < width))).nonzero()[0]
        if len(failing):
            # Every row of the block lies below the lowest failed row.
            i = int(failing[rows[failing].argmin()])
            if non_cauchy[i]:
                error = NonCauchy("successive differences grew 8 consecutive steps")
            elif guarded[i, taken[i]]:
                error = IterateOverflow("iterate argument norm exceeded 1e300")
            else:
                error = IterateOverflow("iterate f value is not finite")
            lowest = int(rows[i])
        converged[rows[stops & ~non_cauchy]] = True
        again = ~stops & (end == width) & (width < max_n)
        queue = np.concatenate([queue[take:], rows[again]])
        widths = np.concatenate([widths[take:], np.minimum(2 * width[again], max_n)])
        below = queue < lowest
        queue, widths = queue[below], widths[below]
        # Slots 0 to taken of each row that ran its last width.
        keep = (np.arange(W + 1) <= taken[:, None]) & ~again[:, None]
        parts.append(chain[keep])
        owners.append(np.repeat(rows, keep.sum(axis=1)))
    if error is not None:
        raise error
    owner = np.concatenate(owners)
    # Each row's iterates are one slice; with more than one block, a stable
    # sort by row orders them.
    iterates = parts[0] if len(parts) == 1 else np.concatenate(parts)[
        np.argsort(owner, kind="stable")]
    iterates.setflags(write=False)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(X)))])
    return Orbits(spec, iterates, offsets, converged)


@np.errstate(over="ignore")
def error_bounds(direction: ScalingDirection, phi: ControlFunction, spec: AlgebraSpec,
                 X: np.ndarray) -> np.ndarray:
    """The closeness bound L^{1-i}/(1-L) * phi(x, 0) on each row x of a
    stack X shaped (N, *spec.shape)."""
    factor = direction.L ** (1 - direction.i) / (1.0 - direction.L)
    return factor * control_rows(phi, spec, X, np.zeros_like(X))


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

