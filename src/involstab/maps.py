"""Reference involutions, admissible perturbations, candidate maps f,
and the scalar samples of the Jensen and homogeneity checks.
"""

from __future__ import annotations

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
        if self.direction_seed is not None and self.direction_seed < 0:
            raise ValueError("direction_seed must be None or a non-negative integer")


NO_PERTURBATION = PerturbationSpec(PerturbationKind.NONE)


@lru_cache(maxsize=2)  # a pass's two maps
def _fixed_direction(seed: int | None, spec: AlgebraSpec) -> np.ndarray:
    if seed is None:
        u = algebra.canonical_direction(spec)
    else:
        u = algebra.sample_rows(spec, 1, np.random.Generator(np.random.PCG64(seed)))[0]
    u.setflags(write=False)  # shared by every call through the cache
    return u


# splitmix64's increment and finalizer (G. L. Steele, D. Lea, C. H. Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014), as 0-d
# uint64 operands: numpy converts a Python int operand on every call, which
# costs more than the arithmetic on a short row.
_GAMMA, _MIX_M1, _MIX_M2, _30, _27, _31, _11, _1 = (np.array(v, dtype=np.uint64) for v in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31, 11, 1))


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on each entry of the uint64 array z, in place,
    mod 2^64: a bijection of 64-bit words."""
    z ^= z >> _30
    z *= _MIX_M1
    z ^= z >> _27
    z *= _MIX_M2
    z ^= z >> _31
    return z


@lru_cache(maxsize=2)  # a pass's two maps
def _salts(seed: int | None, width: int) -> np.ndarray:
    """The 2 * width salts s_j = mix(k0 + (j + 1) * gamma) of a row of
    `width` float64 words: the first width for its words, the rest for its
    parts.  k0 folds the seed: 0 for None, else mix(k ^ w) over the words w
    of (L, l_0, ..., l_{L-1}) from k = 0, where l_i are the seed's base-2^64
    digits, least significant first, and L >= 1 their count."""
    k0 = np.zeros(1, dtype=np.uint64)
    if seed is not None:
        seed = int(seed)
        limbs = max(1, (seed.bit_length() + 63) // 64)
        for word in [limbs] + [seed >> (64 * i) & 0xFFFFFFFFFFFFFFFF for i in range(limbs)]:
            k0 ^= np.uint64(word)
            _mix(k0)
    salts = np.arange(1, 2 * width + 1, dtype=np.uint64)
    salts *= _GAMMA
    salts += k0
    _mix(salts).setflags(write=False)  # shared by every call through the cache
    return salts


def _hashed_directions(spec: AlgebraSpec, quantized: np.ndarray, seed: int | None) -> np.ndarray:
    """Row k's unnormalized direction, a function of `quantized[k]`'s bits
    and the seed alone.  A row's float64 words w_i, its entries' real and
    imaginary parts in memory order, hash to the key
    sum_i mix(w_i ^ s_i) mod 2^64 (so -0.0 keys apart from +0.0), and part j
    of the direction is ((mix(key + s_{W+j}) >> 11) | 1) * 2^-52 - 1, for W
    words: an odd multiple of 2^-52 in (-1, 1), exact and never 0."""
    width = 2 * spec.n_entries
    salts = _salts(seed, width)
    words = np.ascontiguousarray(quantized, dtype=np.complex128).view(np.uint64)
    words = words.reshape(len(quantized), width) ^ salts[:width]
    keys = algebra._row_reduce(np.add, _mix(words))
    bits = np.add(keys[:, None], salts[width:], out=words)
    _mix(bits)
    bits >>= _11
    bits |= _1
    parts = bits.astype(np.float64)
    parts *= 2.0 ** -52
    parts -= 1.0
    return parts.view(np.complex128).reshape(len(quantized), *spec.shape)


@np.errstate(over="ignore", invalid="ignore")
def _perturbation_rows(p: PerturbationSpec, spec: AlgebraSpec, X: np.ndarray) -> np.ndarray:
    # delta on a stack X of shape (N, *spec.shape).  A zero amplitude or zero
    # quantized point is a zero row, left +0 rather than 0 * u, which can be
    # -0; a zero theta_delta gives zero rows whatever ||x||^r is.  An
    # amplitude that overflows is inf and leaves a non-finite row, for the
    # caller to reject, with no exception and no warning.
    out = np.zeros(X.shape, dtype=np.complex128)
    if p.kind is PerturbationKind.NONE or p.theta_delta == 0.0:
        return out
    column = (-1,) + (1,) * len(spec.shape)
    amplitudes = p.theta_delta * algebra._libm_pow(algebra.stacked_norms(spec, X), p.r)
    live = amplitudes != 0.0
    amplitudes = amplitudes.reshape(column)
    if p.kind is PerturbationKind.FIXED_DIRECTION:
        return np.multiply(amplitudes, _fixed_direction(p.direction_seed, spec), out=out,
                           where=live.reshape(column))
    # Each real and imaginary part rounded to 1e-6 on its own, as float64,
    # before hashing, all rows in one call; then made unit in one call.
    parts = np.rint(np.ascontiguousarray(X).view(np.float64) * 1e6)
    quantized = np.divide(parts, 1e6, out=parts).view(np.complex128)
    rows = live & algebra._row_reduce(np.logical_or, quantized)
    if rows.any():
        raw = algebra.unit_rows(spec, _hashed_directions(spec, quantized[rows], p.direction_seed))
        out[rows] = np.multiply(amplitudes[rows], raw, out=raw)
    return out


@dataclass(frozen=True)
class ApproxMap:
    """Candidate map f = reference involution + admissible perturbation;
    satisfies f(0) = 0 exactly."""

    base: Involution
    perturbation: PerturbationSpec
    spec: AlgebraSpec


def eval_f_rows(f: ApproxMap, X: np.ndarray) -> np.ndarray:
    """f on a stack X of raw entry arrays shaped (N, *f.spec.shape), one
    row per point; a row's value does not depend on the other rows.  The
    perturbation amplitude reads every row's norm ||x||, from one stacked
    call; a map with no perturbation computes none.  A finite stack raises
    nothing: a row whose amplitude overflows is not finite.  A real stack
    is taken as its complex cast, which is exact."""
    X = np.asarray(X, dtype=np.complex128)
    if X.shape[1:] != f.spec.shape:
        raise SpecMismatch(f"map spec {f.spec} vs stack shape {X.shape}")
    base = _involution_rows(f.base, f.spec, X)
    if f.perturbation.kind is PerturbationKind.NONE:
        return base
    delta = _perturbation_rows(f.perturbation, f.spec, X)
    return np.add(base, delta, out=delta)


def _f_values(where: str, f: ApproxMap, X: np.ndarray) -> np.ndarray:
    """f on the rows of a finite stack X, checked finite.  On finite
    arguments a value overflows through its perturbation amplitude
    theta_delta * ||x||^r, so the OutOfRange names that exponent."""
    operand = "f values"
    if f.perturbation.kind is not PerturbationKind.NONE:
        operand += f" (amplitude theta_delta * ||x||^r at perturbation.r = {f.perturbation.r})"
    return algebra.finite_rows(where, eval_f_rows(f, X), operand)


@dataclass(frozen=True)
class LambdaSampler:
    """Scalar samples mirroring the extension path from the arc
    {e^{i*t}: 0 <= t <= 1/n0} to the full circle, the positive reals,
    and general complex values."""

    n0: int = 3
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


@lru_cache(maxsize=1)  # the last sampler's: the stages of a pass share it
def sample_lambdas(ls: LambdaSampler) -> tuple[tuple[str, complex], ...]:
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
    return tuple(out)
