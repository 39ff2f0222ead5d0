"""Generalized metric spaces (distances allowed to be infinite), the
fixed-point alternative for strict contractions, the function-space metric
with its scaling operator, and the closeness constant of the corollaries.

Infinity is represented as math.inf; arithmetic with it is total and
absorbing, matching the triangle inequality convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

from . import algebra
from .algebra import AlgebraSpec
from .errors import Exhausted, NotContractive, OutOfRange

INF = math.inf


@dataclass(frozen=True)
class GeneralizedMetricSpace:
    """Point set described by a distance function into [0, inf]."""

    description: str
    distance: Callable[[Any, Any], float]
    eq: Callable[[Any, Any], bool] = field(default=lambda a, b: a == b)


@dataclass
class GMetricReport:
    passed: bool
    checked: int
    failed_axiom: str | None = None
    counterexample: tuple | None = None


def gmetric_check(space: GeneralizedMetricSpace, triples: Sequence[tuple]) -> GMetricReport:
    """Check axioms M1-M3 on sampled triples; violations are data, not errors."""
    d, eq = space.distance, space.eq
    checked = 0
    for x, y, z in triples:
        checked += 1
        for a, b in ((x, y), (x, z), (y, z)):
            dab = d(a, b)
            if dab < 0 or (dab == 0) != eq(a, b):
                return GMetricReport(False, checked, "M1", (a, b))
            if dab != d(b, a):
                return GMetricReport(False, checked, "M2", (a, b))
        if d(x, z) > d(x, y) + d(y, z):
            return GMetricReport(False, checked, "M3", (x, y, z))
    return GMetricReport(True, checked)


class Branch(str, Enum):
    ALL_INFINITE = "all_infinite"
    CONVERGED = "converged"


@dataclass
class AlternativeOutcome:
    branch: Branch
    fixed_point: Any = None
    n0: int | None = None
    orbit_distances: list[float] = field(default_factory=list)
    aposteriori_bound: float = INF


def aposteriori_bound(L: float, d_Ty_y: float) -> float:
    """d(y, y*) <= d(T(y), y) / (1 - L); infinity maps to infinity."""
    if not (0 < L < 1):
        raise ValueError(f"L must lie in (0,1), got {L}")
    return d_Ty_y / (1.0 - L)


def iterate_alternative(
    T: Callable[[Any], Any],
    x0: Any,
    L: float,
    space: GeneralizedMetricSpace,
    max_iter: int = 64,
    tol: float = 1e-10,
) -> AlternativeOutcome:
    """Orbit of the contraction from x0: either every consecutive distance
    is infinite, or the orbit converges and the consecutive distances decay
    by factor <= L once finite."""
    if not (0 < L < 1):
        raise ValueError(f"L must lie in (0,1), got {L}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    d = space.distance
    x = x0
    dists: list[float] = []
    n0: int | None = None
    for n in range(max_iter + 1):
        x_next = T(x)
        dn = d(x, x_next)
        dists.append(dn)
        if dn < INF:
            if n0 is None:
                n0 = n
            elif dists[-2] < INF and dn > L * dists[-2] * (1 + 1e-9):
                raise NotContractive(
                    f"ratio {dn / dists[-2] if dists[-2] else INF:.6g} exceeds L={L} at n={n}"
                )
        elif n0 is not None:
            raise NotContractive(f"distance returned to infinity at n={n}")
        if dn <= tol:
            return AlternativeOutcome(
                Branch.CONVERGED,
                fixed_point=x,
                n0=n0,
                orbit_distances=dists,
                aposteriori_bound=aposteriori_bound(L, dists[0]),
            )
        x = x_next
    if n0 is None:
        return AlternativeOutcome(Branch.ALL_INFINITE, orbit_distances=dists)
    raise Exhausted(f"finite distances but tol={tol} unmet after {max_iter} iterations")


@dataclass(frozen=True)
class FunctionSpaceMetric:
    """Lower estimate of inf{c : ||g(x)-h(x)|| <= c*phi(x,0)} as a max of
    ratios over a finite probe stack shaped (N, *spec.shape).  Probe sets
    should be ray-closed (orbits {q^k x0}) so the scaling operator maps
    probes into probes.  `control_of_x` maps a stack to phi(x, 0) per row;
    the maps g and h compared take a stack to a stack."""

    spec: AlgebraSpec
    probe_set: np.ndarray
    control_of_x: Callable[[np.ndarray], Sequence[float]]


def function_space_distance(g, h, m: FunctionSpaceMetric) -> float:
    """Conventions: 0/0 := 0 and positive/0 := inf; a NaN ratio is skipped."""
    P = m.probe_set
    nums = algebra.stacked_norms(m.spec, g(P) - h(P))
    dens = np.asarray(m.control_of_x(P), dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = np.where(nums == 0.0, 0.0, np.where(dens == 0.0, INF, nums / dens))
    return float(np.fmax.reduce(ratios, initial=0.0))


def scaling_operator(g, q: float):
    """T(g)(X) = g(q*X)/q with q in {2, 1/2}, on stacks; involutions are
    fixed points."""
    if q not in (2, 2.0, 0.5):
        raise ValueError(f"q must be 2 or 0.5, got {q}")
    inv_q = complex(1.0 / q)
    return lambda X: inv_q * g(complex(q) * X)


def ray_probes(base_points: np.ndarray, q: float, depth: int) -> np.ndarray:
    """Ray-closed probe stack {q^k x0 : 0 <= k <= depth} over the rows x0 of
    base_points, each ray's rows in order of k."""
    rays = [base_points]
    for _ in range(depth):
        rays.append(complex(q) * rays[-1])
    return np.stack(rays, axis=1).reshape(-1, *base_points.shape[1:])


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

