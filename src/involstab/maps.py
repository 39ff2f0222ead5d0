"""Reference involutions, admissible perturbations, candidate maps f,
and the defect functionals entering the stability hypotheses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import algebra
from .algebra import AlgebraKind, AlgebraSpec, Element
from .errors import KindSpecMismatch, SpecMismatch


class InvolutionKind(str, Enum):
    ADJOINT = "adjoint"
    TWISTED_ADJOINT = "twisted_adjoint"
    CONJUGATION = "conjugation"


@dataclass(frozen=True)
class Involution:
    """Reference involution.  TwistedAdjoint carries a Hermitian invertible
    twist s and applies x -> s^{-1} x* s (a Banach-algebra involution that
    in general breaks the C*-identity)."""

    kind: InvolutionKind
    s: Element | None = None
    _s_inv: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", InvolutionKind(self.kind))
        if self.kind is InvolutionKind.TWISTED_ADJOINT:
            if self.s is None or self.s.spec.kind is not AlgebraKind.MATRIX:
                raise KindSpecMismatch("twisted adjoint needs a matrix twist s")
            sd = self.s.data
            if not np.allclose(sd, sd.conj().T, atol=1e-12, rtol=0.0):
                raise ValueError("twist s must be Hermitian")
            # The smallest singular value certifies that s is invertible.
            if float(np.linalg.svd(sd, compute_uv=False)[-1]) <= 1e-8:
                raise ValueError("twist s must be invertible (min singular value > 1e-8)")
            object.__setattr__(self, "_s_inv", np.linalg.inv(sd))
        elif self.s is not None:
            raise ValueError(f"{self.kind.value} takes no twist element")


def adjoint() -> Involution:
    return Involution(InvolutionKind.ADJOINT)


def twisted_adjoint(s: Element) -> Involution:
    return Involution(InvolutionKind.TWISTED_ADJOINT, s)


def conjugation() -> Involution:
    return Involution(InvolutionKind.CONJUGATION)


def eval_involution(kind: Involution, x: Element) -> Element:
    return Element(x.spec, _involution_rows(kind, x.spec, x.data[None])[0])


def _involution_rows(kind: Involution, spec: AlgebraSpec, X: np.ndarray) -> np.ndarray:
    # The involution on a stack X of shape (N, *spec.shape), one array op.
    if kind.kind is InvolutionKind.ADJOINT:
        return X.conj().swapaxes(-1, -2) if spec.kind is AlgebraKind.MATRIX else X.conj()
    if kind.kind is InvolutionKind.TWISTED_ADJOINT:
        if spec.kind is not AlgebraKind.MATRIX:
            raise KindSpecMismatch("twisted adjoint is defined on matrices only")
        if spec != kind.s.spec:
            raise KindSpecMismatch(f"twist spec {kind.s.spec} vs element spec {spec}")
        return kind._s_inv @ X.conj().swapaxes(-1, -2) @ kind.s.data
    if spec.kind is AlgebraKind.MATRIX:
        raise KindSpecMismatch("entrywise conjugation is not an involution on matrices")
    return X.conj()


class PerturbationKind(str, Enum):
    NONE = "none"
    FIXED_DIRECTION = "fixed_direction"
    RANDOM_DIRECTION = "random_direction"


@dataclass(frozen=True)
class PerturbationSpec:
    """Radial perturbation delta with ||delta(x)|| = theta_delta * ||x||^r
    and delta(0) = 0.  direction_seed None means the canonical all-ones
    direction (handy for closed-form oracles)."""

    kind: PerturbationKind
    theta_delta: float = 0.0
    r: float = 1.0
    direction_seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", PerturbationKind(self.kind))
        if self.theta_delta < 0:
            raise ValueError("theta_delta must be >= 0")
        if self.kind is not PerturbationKind.NONE and self.r <= 0:
            raise ValueError("exponent r must be > 0")


NO_PERTURBATION = PerturbationSpec(PerturbationKind.NONE)


@lru_cache(maxsize=None)
def _fixed_direction(seed: int | None, spec: AlgebraSpec) -> Element:
    if seed is None:
        return algebra.canonical_direction(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    return algebra.sample_direction(spec, rng)


def _hashed_gaussian(spec: AlgebraSpec, quantized: np.ndarray, seed: int | None) -> np.ndarray:
    # Seeded by the quantized point, so the direction is a function of the
    # point, not of the floating-point path that produced it.
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    h.update(np.ascontiguousarray(quantized.real).tobytes())
    h.update(np.ascontiguousarray(quantized.imag).tobytes())
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "little")))
    return algebra.gaussian_row(spec, rng)


def _perturbation_rows(p: PerturbationSpec, spec: AlgebraSpec, X: np.ndarray) -> np.ndarray:
    # delta on a stack X of shape (N, *spec.shape). Amplitudes are Python
    # floats per row; a zero amplitude or zero quantized point is a zero row.
    out = np.zeros(X.shape, dtype=np.complex128)
    if p.kind is PerturbationKind.NONE:
        return out
    amplitudes = [p.theta_delta * n ** p.r for n in algebra.stacked_norms(spec, X)]
    if p.kind is PerturbationKind.FIXED_DIRECTION:
        u = _fixed_direction(p.direction_seed, spec).data
        for k, amplitude in enumerate(amplitudes):
            if amplitude != 0.0:
                out[k] = complex(amplitude) * u
        return out
    # Entries rounded to 1e-6 before hashing; the hashed Gaussian rows are
    # normalized in one stacked norm call.
    quantized = np.round(X * 1e6) / 1e6
    nonzero = quantized.reshape(len(X), -1).any(axis=1).tolist()
    rows = [k for k, amplitude in enumerate(amplitudes) if amplitude != 0.0 and nonzero[k]]
    if rows:
        raw = np.stack([_hashed_gaussian(spec, quantized[k], p.direction_seed) for k in rows])
        for k, g, n in zip(rows, raw, algebra.stacked_norms(spec, raw)):
            out[k] = complex(amplitudes[k]) * (complex(1.0 / n) * g)
    return out


def eval_perturbation(p: PerturbationSpec, x: Element) -> Element:
    return Element(x.spec, _perturbation_rows(p, x.spec, x.data[None])[0])


@dataclass(frozen=True)
class ApproxMap:
    """Candidate map f = reference involution + admissible perturbation;
    satisfies f(0) = 0 exactly."""

    base: Involution
    perturbation: PerturbationSpec
    spec: AlgebraSpec


def eval_f(f: ApproxMap, x: Element) -> Element:
    if x.spec != f.spec:
        raise SpecMismatch(f"map spec {f.spec} vs element spec {x.spec}")
    return Element(x.spec, eval_f_rows(f, x.data[None])[0])


def eval_f_rows(f: ApproxMap, X: np.ndarray) -> np.ndarray:
    """f on a stack X of raw entry arrays shaped (N, *f.spec.shape); row k
    equals `eval_f(f, Element(f.spec, X[k])).data` bit for bit."""
    if X.shape[1:] != f.spec.shape:
        raise SpecMismatch(f"map spec {f.spec} vs stack shape {X.shape}")
    base = _involution_rows(f.base, f.spec, X)
    if f.perturbation.kind is PerturbationKind.NONE:
        return base
    return base + _perturbation_rows(f.perturbation, f.spec, X)


def jensen_defect(f: ApproxMap, lam, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Rows 2*conj(lam)*f((x+y)/2) - f(lam*x) - f(lam*y) over the rows x of X
    and y of Y; lam is one scalar or one per row."""
    if X.shape != Y.shape:
        raise SpecMismatch(f"stack shapes {X.shape} vs {Y.shape}")
    lam = np.asarray(lam, dtype=np.complex128).reshape((-1,) + (1,) * len(f.spec.shape))
    args = np.concatenate([complex(0.5) * (X + Y), lam * X, lam * Y])
    f_mid, f_lx, f_ly = np.split(eval_f_rows(f, algebra.finite_rows("jensen_defect", args)), 3)
    return algebra.finite_rows("jensen_defect", 2.0 * np.conj(lam) * f_mid - f_lx - f_ly)


def antimul_defect(f: ApproxMap, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Rows f(xy) - f(y)f(x) over the rows x of X and y of Y."""
    if X.shape != Y.shape:
        raise SpecMismatch(f"stack shapes {X.shape} vs {Y.shape}")
    XY = algebra.finite_rows("antimul_defect", algebra.mul_rows(f.spec, X, Y))
    f_xy, f_y, f_x = np.split(eval_f_rows(f, np.concatenate([XY, Y, X])), 3)
    return algebra.finite_rows("antimul_defect", f_xy - algebra.mul_rows(f.spec, f_y, f_x))


def cstar_defect(f: ApproxMap, X: np.ndarray) -> list[float]:
    """| ||x f(x)|| - ||x||^2 | for each row x of X."""
    XF = algebra.finite_rows("cstar_defect", algebra.mul_rows(f.spec, X, eval_f_rows(f, X)))
    norms = algebra.stacked_norms(f.spec, np.concatenate([XF, X]))
    return [abs(a - b ** 2) for a, b in zip(norms[:len(X)], norms[len(X):])]


@dataclass(frozen=True)
class LambdaSampler:
    """Scalar samples mirroring the extension path from the arc
    {e^{i*t}: 0 <= t <= 1/n0} to the full circle, the positive reals,
    and general complex values."""

    n0: int
    arc: int = 4
    circle: int = 4
    reals: int = 3
    cplx: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("n0 must be a positive integer")
        if min(self.arc, self.circle, self.reals, self.cplx) < 1:
            raise ValueError("each stage needs at least one sample")


def sample_lambdas(ls: LambdaSampler) -> list[tuple[str, complex]]:
    """Stage-tagged scalars; the arc stage always contains lambda = 1."""
    rng = np.random.Generator(np.random.PCG64(ls.seed))
    out: list[tuple[str, complex]] = [("arc", 1.0 + 0.0j)]
    for t in rng.uniform(0.0, 1.0 / ls.n0, ls.arc - 1):
        out.append(("arc", complex(np.exp(1j * t))))
    for t in rng.uniform(0.0, 2.0 * np.pi, ls.circle):
        out.append(("circle", complex(np.exp(1j * t))))
    for m in np.exp(rng.uniform(np.log(0.1), np.log(10.0), ls.reals)):
        out.append(("reals", complex(m)))
    moduli = np.exp(rng.uniform(np.log(0.1), np.log(10.0), ls.cplx))
    angles = rng.uniform(0.0, 2.0 * np.pi, ls.cplx)
    for m, t in zip(moduli, angles):
        out.append(("complex", complex(m * np.exp(1j * t))))
    return out
