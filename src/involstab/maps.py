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
from .errors import KindSpecMismatch, OutOfRange, SpecMismatch


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


# numpy's SeedSequence and PCG64 seeding constants. numpy's compatibility
# policy (NEP 19) keeps them, and tests/test_maps.py checks the replica
# below against numpy itself.
_POOL_SIZE = 4
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    # Step k of SeedSequence's hash xors with init*mult^k and multiplies by
    # init*mult^(k+1), mod 2^32; one (count, 1) column each.
    consts = [init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(count + 1)]
    return (np.array(consts[:-1], dtype=np.uint32)[:, None],
            np.array(consts[1:], dtype=np.uint32)[:, None])


# The entropy hash runs 4 steps to fill the pool and 12 to mix it; the
# output hash runs 8, one per uint32 of PCG64's 128-bit seed and increment.
_ENTROPY_XOR, _ENTROPY_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_XOR, _OUTPUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash_steps(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = values ^ xor
    v *= mul
    v ^= v >> 16
    return v


# Pool word src is mixed into the three others, in order.
_OTHER_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != src]) for src in range(_POOL_SIZE)]


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`np.random.SeedSequence(s).generate_state(8, np.uint32)` for each
    uint64 seed s, as rows of an (N, 8) uint32 array.  A seed fills the low
    two pool words; a missing entropy word hashes as 0, so seeds below
    2^32 come out the same as numpy's one-word entropy."""
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[:2] = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
    pool = _hash_steps(pool, _ENTROPY_XOR[:_POOL_SIZE], _ENTROPY_MUL[:_POOL_SIZE])
    step = _POOL_SIZE
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hash_steps(pool[src], _ENTROPY_XOR[step:step + 3],
                             _ENTROPY_MUL[step:step + 3])
        step += 3
        mixed = pool[dst] * _MIX_L
        mixed -= hashed * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    return np.ascontiguousarray(_hash_steps(np.tile(pool, (2, 1)), _OUTPUT_XOR, _OUTPUT_MUL).T)


def _pcg64_states(words: np.ndarray) -> list[dict]:
    """`np.random.PCG64(s).state` from each row of `_seed_words`: the words
    read as little-endian uint64 (seed high, seed low, increment high,
    increment low), then PCG's two seeding steps in 128-bit integers."""
    states = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(words, dtype="<u4").view("<u8").tolist():
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _hashed_gaussians(spec: AlgebraSpec, quantized: np.ndarray, seed: int | None) -> np.ndarray:
    """Row k is `algebra.gaussian_row` from `Generator(PCG64(s))`, where s is
    the 8-byte little-endian blake2b digest of `str(seed)` and the real then
    imaginary bytes of `quantized[k]`.  Seeded by the quantized point, the
    direction is a function of the point, not of the floating-point path
    that produced it."""
    prefix = hashlib.blake2b(digest_size=8)
    prefix.update(str(seed).encode())
    # One fresh buffer: each row's bytes are hashed, then its draw fills it.
    parts = np.stack([quantized.real, quantized.imag], axis=1)
    width = parts[0].nbytes
    data = parts.tobytes()
    digests = []
    for start in range(0, len(data), width):
        h = prefix.copy()
        h.update(data[start:start + width])
        digests.append(h.digest())
    seeds = np.frombuffer(b"".join(digests), dtype="<u8")
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for k, state in enumerate(_pcg64_states(_seed_words(seeds))):
        bits.state = state
        algebra.gaussian_parts(rng, parts[k])
    return parts[:, 0] + 1j * parts[:, 1]


def _perturbation_rows(p: PerturbationSpec, spec: AlgebraSpec, X: np.ndarray) -> np.ndarray:
    # delta on a stack X of shape (N, *spec.shape). Amplitudes are computed
    # in Python floats per row; a zero amplitude or zero quantized point is
    # a zero row, left +0 rather than 0 * u, which can be -0.
    out = np.zeros(X.shape, dtype=np.complex128)
    if p.kind is PerturbationKind.NONE:
        return out
    column = (-1,) + (1,) * len(spec.shape)
    try:
        amplitudes = np.array([p.theta_delta * n ** p.r for n in algebra.stacked_norms(spec, X)],
                              dtype=np.complex128).reshape(column)
    except OverflowError:
        raise OutOfRange(f"perturbation amplitude overflows at r = {p.r}") from None
    live = amplitudes.reshape(len(X)) != 0.0
    if p.kind is PerturbationKind.FIXED_DIRECTION:
        out[live] = amplitudes[live] * _fixed_direction(p.direction_seed, spec).data
        return out
    # Entries rounded to 1e-6 before hashing; the hashed Gaussian rows are
    # normalized in one stacked norm call.
    quantized = np.round(X * 1e6) / 1e6
    rows = live & quantized.reshape(len(X), -1).any(axis=1)
    if rows.any():
        raw = _hashed_gaussians(spec, quantized[rows], p.direction_seed)
        inverse = 1.0 / np.array(algebra.stacked_norms(spec, raw))
        out[rows] = amplitudes[rows] * (inverse.astype(np.complex128).reshape(column) * raw)
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
