"""Hypothesis scans with witnesses, involution-law suites for the
stabilized map, and bound / uniqueness / C*-identity certification.

Suprema are taken over the sampled probe region only; violations are
reported as data, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, maps, stabilizer
from .algebra import Element
from .maps import ApproxMap, LambdaSampler
from .stabilizer import ControlFunction, ScalingDirection, StabilizationTrace

INF = math.inf


def _ratio(num: float, den: float) -> float:
    # 0/0 := 0 so exact involutions pass product-control scans;
    # a positive defect over zero control is infinite.
    if den == 0.0:
        return 0.0 if num == 0.0 else INF
    return num / den


class StabilizedMap:
    """The stabilized map I of f at one depth (max_n, tol_rel), memoized:
    each point is stabilized once and its whole StabilizationTrace kept.
    Build one per map and depth and pass it to every stage.  A stage first
    hands `stabilize` the points it will query, so they share one batched
    orbit, and its per-point lookups then hit the cache."""

    def __init__(self, f: ApproxMap, direction: ScalingDirection,
                 max_n: int = 48, tol_rel: float = 1e-10):
        self.f = f
        self.direction = direction
        self.max_n = max_n
        self.tol_rel = tol_rel
        self._traces: dict[bytes, StabilizationTrace] = {}

    def stabilize(self, points: list[Element]) -> None:
        """Stabilize the distinct uncached points in one batched orbit."""
        todo: dict[bytes, Element] = {}
        for x in points:
            key = x.data.tobytes()
            if key not in self._traces:
                todo.setdefault(key, x)
        if todo:
            traces = stabilizer.stabilize_points(
                self.f, self.direction, list(todo.values()),
                max_n=self.max_n, tol_rel=self.tol_rel,
            )
            self._traces.update(zip(todo, traces))

    def trace(self, x: Element) -> StabilizationTrace:
        key = x.data.tobytes()
        if key not in self._traces:
            self.stabilize([x])
        return self._traces[key]

    def __call__(self, x: Element) -> Element:
        return self.trace(x).result


def probe_pairs(probes: list[Element]) -> list[tuple[Element, Element]]:
    """Deterministic pair sample: each probe against zero, itself, and two
    strided partners.  The (x, 0) pairs come first per probe so zero-control
    witnesses are found with the lowest probe index."""
    n = len(probes)
    z = algebra.zero(probes[0].spec)
    pairs = []
    for i, x in enumerate(probes):
        pairs.append((x, z))
        pairs.append((x, x))
        pairs.append((x, probes[(i + 1) % n]))
        pairs.append((x, probes[(i * 7 + 3) % n]))
    return pairs


@dataclass
class HypothesisEntry:
    name: str
    sup_ratio: float
    witness: dict
    samples_used: int


@dataclass
class DefectReport:
    entries: dict[str, HypothesisEntry]


def scan_hypotheses(
    I: StabilizedMap,
    phi: ControlFunction,
    lambdas: LambdaSampler,
    probes: list[Element],
) -> DefectReport:
    """Supremum defect/control ratios of I.f for the Jensen,
    anti-multiplicativity and C*-norm hypotheses, plus the absolute
    involutivity residual ||I(I(x)) - x||."""
    if not probes:
        raise ValueError("probe set must be nonempty")
    f = I.f
    lams = maps.sample_lambdas(lambdas)
    pairs = probe_pairs(probes)

    # The Jensen hypothesis is quantified over unit-modulus scalars only;
    # larger moduli belong to the homogeneity extension of the conclusion.
    unit_lams = [(s, lam) for s, lam in lams if s in ("arc", "circle")]
    e2_sup, e2_wit, e2_n = 0.0, None, 0
    for x, y in pairs:
        den = stabilizer.control_eval(phi, x, y)
        for stage, lam in unit_lams:
            num = algebra.norm(maps.jensen_defect(f, lam, x, y))
            ratio = _ratio(num, den)
            e2_n += 1
            if e2_sup < ratio or e2_wit is None:
                e2_sup, e2_wit = ratio, {"x": x, "y": y, "lam": lam, "stage": stage}

    e3_sup, e3_wit, e3_n = 0.0, None, 0
    for x, y in pairs:
        ratio = _ratio(
            algebra.norm(maps.antimul_defect(f, x, y)),
            stabilizer.control_eval(phi, x, y),
        )
        e3_n += 1
        if e3_sup < ratio or e3_wit is None:
            e3_sup, e3_wit = ratio, {"x": x, "y": y}

    I.stabilize(probes)
    I.stabilize([I(x) for x in probes])
    e4_sup, e4_wit = 0.0, None
    for x in probes:
        residual = algebra.norm(algebra.sub(I(I(x)), x))
        if e4_sup < residual or e4_wit is None:
            e4_sup, e4_wit = residual, {"x": x}

    e6_sup, e6_wit = 0.0, None
    for x in probes:
        ratio = _ratio(maps.cstar_defect(f, x), stabilizer.control_eval(phi, x, x))
        if e6_sup < ratio or e6_wit is None:
            e6_sup, e6_wit = ratio, {"x": x}

    return DefectReport(
        entries={
            "e2_jensen": HypothesisEntry("e2_jensen", e2_sup, e2_wit, e2_n),
            "e3_antimul": HypothesisEntry("e3_antimul", e3_sup, e3_wit, e3_n),
            "e4_involutive": HypothesisEntry("e4_involutive", e4_sup, e4_wit, len(probes)),
            "e6_cstar": HypothesisEntry("e6_cstar", e6_sup, e6_wit, len(probes)),
        },
    )


@dataclass
class LawEntry:
    law: str
    max_defect: float
    witness: dict
    samples_used: int


@dataclass
class LawReport:
    additivity: LawEntry
    conj_homogeneity: dict[str, LawEntry]
    antimultiplicativity: LawEntry
    involutivity: LawEntry
    total_tuples: int


def verify_involution_laws(
    I: StabilizedMap,
    lambdas: LambdaSampler,
    probes: list[Element],
) -> LawReport:
    """Measure the involution laws on the stabilized map I; defects are
    normalized by max(1, input norms)."""
    lams = maps.sample_lambdas(lambdas)
    pairs = probe_pairs(probes)
    total = 0
    # Every point the loops below query, in query order, in one batch.
    I.stabilize(
        [z for x, y in pairs for z in (algebra.add(x, y), x, y)]
        + [z for stage in ("arc", "circle", "reals", "complex")
           for s, lam in lams if s == stage
           for x in probes for z in (algebra.scale(lam, x), x)]
        + [z for x, y in pairs for z in (algebra.mul(x, y), y, x)]
    )
    I.stabilize([I(x) for x in probes])

    add_max, add_wit, add_n = 0.0, None, 0
    for x, y in pairs:
        defect = algebra.norm(
            algebra.sub(I(algebra.add(x, y)), algebra.add(I(x), I(y)))
        ) / max(1.0, algebra.norm(x) + algebra.norm(y))
        add_n += 1
        if add_max < defect or add_wit is None:
            add_max, add_wit = defect, {"x": x, "y": y}
    total += add_n

    homog: dict[str, LawEntry] = {}
    for stage in ("arc", "circle", "reals", "complex"):
        stage_lams = [lam for s, lam in lams if s == stage]
        h_max, h_wit, h_n = 0.0, None, 0
        for lam in stage_lams:
            clam = np.conj(lam)
            for x in probes:
                defect = algebra.norm(
                    algebra.sub(I(algebra.scale(lam, x)), algebra.scale(clam, I(x)))
                ) / max(1.0, abs(lam) * algebra.norm(x))
                h_n += 1
                if h_max < defect or h_wit is None:
                    h_max, h_wit = defect, {"x": x, "lam": lam}
        homog[stage] = LawEntry(f"conj_homogeneity[{stage}]", h_max, h_wit, h_n)
        total += h_n

    am_max, am_wit, am_n = 0.0, None, 0
    for x, y in pairs:
        defect = algebra.norm(
            algebra.sub(I(algebra.mul(x, y)), algebra.mul(I(y), I(x)))
        ) / max(1.0, algebra.norm(x) * algebra.norm(y))
        am_n += 1
        if am_max < defect or am_wit is None:
            am_max, am_wit = defect, {"x": x, "y": y}
    total += am_n

    inv_max, inv_wit = 0.0, None
    for x in probes:
        defect = algebra.norm(algebra.sub(I(I(x)), x)) / max(1.0, algebra.norm(x))
        if inv_max < defect or inv_wit is None:
            inv_max, inv_wit = defect, {"x": x}
    total += len(probes)

    return LawReport(
        additivity=LawEntry("additivity", add_max, add_wit, add_n),
        conj_homogeneity=homog,
        antimultiplicativity=LawEntry("antimultiplicativity", am_max, am_wit, am_n),
        involutivity=LawEntry("involutivity", inv_max, inv_wit, len(probes)),
        total_tuples=total,
    )


@dataclass
class BoundReport:
    max_ratio: float
    probes_checked: int
    passed: bool
    witness: dict | None
    per_probe: list[float]


def verify_bound(
    I: StabilizedMap,
    phi: ControlFunction,
    probes: list[Element],
    zero_bound_abs: float = 1e-9,
) -> BoundReport:
    """||I(x) - f(x)|| against L^{1-i}/(1-L) * phi(x,0) per probe; a zero
    bound demands the difference vanish to zero_bound_abs (superstability)."""
    I.stabilize(probes)
    ratios: list[float] = []
    witness = None
    worst = -1.0
    for x in probes:
        diff = algebra.norm(algebra.sub(I(x), maps.eval_f(I.f, x)))
        bound = stabilizer.error_bound(I.direction, phi, x)
        if bound == 0.0:
            ratio = 0.0 if diff <= zero_bound_abs else INF
        else:
            ratio = diff / bound
        ratios.append(ratio)
        if ratio > worst:
            worst, witness = ratio, {"x": x, "diff": diff, "bound": bound}
    return BoundReport(
        max_ratio=max(ratios),
        probes_checked=len(probes),
        passed=max(ratios) <= 1.0 + 1e-9,
        witness=witness,
        per_probe=ratios,
    )


@dataclass
class UniquenessReport:
    max_diff: float
    probes_checked: int
    passed: bool
    witness: dict | None


def verify_uniqueness(
    I1: StabilizedMap,
    I2: StabilizedMap,
    probes: list[Element],
    tol: float = 1e-6,
) -> UniquenessReport:
    """Two admissible maps over the same base must stabilize to the same
    involution pointwise."""
    I1.stabilize(probes)
    I2.stabilize(probes)
    worst, witness = -1.0, None
    for x in probes:
        diff = algebra.norm(algebra.sub(I1(x), I2(x)))
        if diff > worst:
            worst, witness = diff, {"x": x}
    return UniquenessReport(
        max_diff=worst, probes_checked=len(probes), passed=worst <= tol, witness=witness
    )


@dataclass
class CstarReport:
    max_ratio: float
    reversed_max_ratio: float
    probes_checked: int
    passed: bool
    witness: dict | None
    tol: float


def verify_cstar(
    I: StabilizedMap,
    probes: list[Element],
    tol: float = 1e-8,
) -> CstarReport:
    """Relative C*-identity defect | ||x I(x)|| - ||x||^2 | / ||x||^2 of the
    stabilized map.  The reversed product order is reported for information
    only."""
    I.stabilize([x for x in probes if algebra.norm(x) != 0.0])
    worst, rev_worst, witness = 0.0, 0.0, None
    checked = 0
    for x in probes:
        nx = algebra.norm(x)
        if nx == 0.0:
            continue
        checked += 1
        ix = I(x)
        ratio = abs(algebra.norm(algebra.mul(x, ix)) - nx**2) / nx**2
        rev = abs(algebra.norm(algebra.mul(ix, x)) - nx**2) / nx**2
        rev_worst = max(rev_worst, rev)
        if ratio > worst or witness is None:
            worst, witness = ratio, {"x": x, "ratio": ratio}
    return CstarReport(
        max_ratio=worst,
        reversed_max_ratio=rev_worst,
        probes_checked=checked,
        passed=worst <= tol,
        witness=witness,
        tol=tol,
    )
