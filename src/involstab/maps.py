"""Reference involutions, admissible perturbations, candidate maps f,
and the defect functionals entering the stability hypotheses.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from . import _ziggurat, algebra
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
def _fixed_direction(seed: int | None, spec: AlgebraSpec) -> np.ndarray:
    if seed is None:
        u = algebra.canonical_direction(spec)
    else:
        u = algebra.sample_direction(spec, np.random.Generator(np.random.PCG64(seed)))
    u.setflags(write=False)  # shared by every call through the cache
    return u


# numpy's SeedSequence and PCG64 seeding constants. numpy's compatibility
# policy (NEP 19) keeps them, and tests/test_maps.py checks the replica
# below against numpy itself.
_POOL_SIZE = 4
# Operands as 0-d arrays: numpy converts a Python int or numpy scalar
# operand on every call, which costs more than the arithmetic on a short row.
_MIX_L, _MIX_R, _16 = (np.array(v, dtype=np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))
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


def _mix_constants(src: int) -> tuple[np.ndarray, np.ndarray]:
    # Pool word src is mixed into the three others, in order, one hash step
    # each. The step constants sit in the other words' rows, with zeros in
    # row src, so the step runs on the whole pool and src is put back.
    xor, mul = np.zeros((2, _POOL_SIZE, 1), dtype=np.uint32)
    others = [d for d in range(_POOL_SIZE) if d != src]
    first = _POOL_SIZE + 3 * src
    xor[others], mul[others] = _ENTROPY_XOR[first:first + 3], _ENTROPY_MUL[first:first + 3]
    return xor, mul


_MIX_STEPS = [(src, *_mix_constants(src)) for src in range(_POOL_SIZE)]


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`np.random.SeedSequence(s).generate_state(8, np.uint32)` for each
    uint64 seed s, as rows of an (N, 8) uint32 array.  A seed fills the low
    two pool words; a missing entropy word hashes as 0, so seeds below
    2^32 come out the same as numpy's one-word entropy.  A hash step is
    v ^= xor; v *= mul; v ^= v >> 16, in place on the (words, N) block."""
    n = len(seeds)
    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    pool[:2] = seeds.astype("<u8", copy=False).view("<u4").reshape(n, 2).T
    pool ^= _ENTROPY_XOR[:_POOL_SIZE]
    pool *= _ENTROPY_MUL[:_POOL_SIZE]
    pool ^= pool >> _16
    for src, xor, mul in _MIX_STEPS:
        kept = pool[src].copy()
        hashed = pool[src] ^ xor
        hashed *= mul
        hashed ^= hashed >> _16
        hashed *= _MIX_R
        pool *= _MIX_L
        pool -= hashed
        pool ^= pool >> _16
        pool[src] = kept
    # The output hash reads the pool twice over, one step per word.
    words = np.empty((2, _POOL_SIZE, n), dtype=np.uint32)
    np.bitwise_xor(pool, _OUTPUT_XOR.reshape(2, _POOL_SIZE, 1), out=words)
    words = words.reshape(2 * _POOL_SIZE, n)
    words *= _OUTPUT_MUL
    words ^= words >> _16
    return words.T


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) of `np.random.PCG64(s).state["state"]` from each
    row of `_seed_words`: the words read as little-endian uint64 (seed
    high, seed low, increment high, increment low), then PCG's two seeding
    steps in 128-bit integers."""
    states = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(words, dtype="<u4").view("<u8").tolist():
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        states.append((((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


# The bit offset of each `_seed_words` word in its 128-bit value (seed
# words 0-3, increment words 4-7), in the order of `_pcg64_states`.
_WORD_SHIFTS = (64, 96, 0, 32)


@lru_cache(maxsize=None)
def _jump_limbs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 (16, 4 * count) weights and (4 * count,) bias that map the
    16-bit halves of a `_seed_words` row to the 32-bit limbs of PCG64's
    states after each of its first `count` steps.

    Seeding and stepping are affine mod 2^128: with seed s, increment
    inc = 2i + 1 and multiplier M, the state behind output j is
    M^(j+2) s + C_(j+3) inc, where C_n = 1 + M + ... + M^(n-1).  Column
    (m, j) holds limb m of each half's coefficient, the bias limb m of
    C_(j+3); every weight is below 2^32."""
    weights = np.empty((16, 4, count))
    bias = np.empty((4, count))
    power, geometric = _PCG_MULT, 1 + _PCG_MULT  # M and C_2, before step j = 0
    for j in range(count):
        power = power * _PCG_MULT & _MASK128
        geometric = (geometric + power) & _MASK128
        for k, shift in enumerate(_WORD_SHIFTS * 2):
            coef = power if k < 4 else 2 * geometric
            for h in range(2):
                value = (coef << (shift + 16 * h)) & _MASK128
                weights[2 * k + h, :, j] = [value >> (32 * m) & 0xFFFFFFFF for m in range(4)]
        bias[:, j] = [geometric >> (32 * m) & 0xFFFFFFFF for m in range(4)]
    return weights.reshape(16, 4 * count), bias.reshape(4 * count)


# 0-d uint64 operands of the output replica and the ziggurat, as above.
_32, _58, _64, _BOX_BITS, _BOX_MASK, _RABS_MASK = (
    np.array(v, dtype=np.uint64) for v in (32, 58, 64, 9, 0x1FF, (1 << 52) - 1))


def _pcg64_outputs(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` outputs of `np.random.PCG64(s).random_raw()` for
    each row of `_seed_words`, as an (N, count) uint64 array."""
    weights, bias = _jump_limbs(count)
    # Each sum is of 16 products below 2^48 and a bias below 2^32: an
    # integer below 2^53, exact in float64 in any order of addition.
    sums = np.ascontiguousarray(words, dtype="<u4").view("<u2") @ weights
    sums += bias
    limbs = sums.astype(np.uint64).reshape(len(words), 2, 2, count)
    # The state is limbs 0-3 times 2^0, 2^32, 2^64, 2^96, mod 2^128: its
    # low and high words, with the carry out of the low one.
    halves = limbs[:, :, 1] << _32
    halves += limbs[:, :, 0]
    lo, hi = halves[:, 0], halves[:, 1]
    carry = limbs[:, 0, 0] >> _32
    carry += limbs[:, 0, 1]
    carry >>= _32
    hi += carry
    # XSL-RR: hi ^ lo rotated right by the top 6 bits of hi.  At a rotation
    # of 0 the left shift is by 64, which gives 0 or x; either way out = x.
    rot = hi >> _58
    lo ^= hi
    out = lo >> rot
    lo <<= _64 - rot
    out |= lo
    return out


# NEP 19 freezes SeedSequence and the PCG64 bit stream, but not
# Generator.standard_normal, whose ziggurat the tables below come from.  So
# the fast path is checked against numpy's own draws once per process
# (`_Ziggurat.agrees`), and tests/test_maps.py derives the tables afresh.
@dataclass(frozen=True, eq=False)
class _Ziggurat:
    """numpy's ziggurat tables for the fast path of a normal draw, indexed
    by the low 9 bits of an output: the box (bits 0-7) and the sign (bit 8),
    which `w` carries.  -x is x * -w bit for bit, as rounding is symmetric."""

    k: np.ndarray
    w: np.ndarray

    def draws(self, words: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The first `count` draws of `Generator(PCG64(s)).standard_normal`
        for each row of `_seed_words`, and a mask of the rows whose draws
        the fast path settles, all of them nonzero."""
        raw = _pcg64_outputs(words, count)
        box = raw & _BOX_MASK
        raw >>= _BOX_BITS
        raw &= _RABS_MASK
        values = raw.astype(np.float64)
        values *= self.w[box]
        settled = raw < self.k[box]
        settled &= values.astype(bool)
        return values, np.logical_and.reduce(settled, axis=1)

    @cached_property
    def agrees(self) -> bool:
        """Whether numpy's own generator draws what `draws` settles, on 64
        fixed seeds' rows of 16 draws.  Computed on first use."""
        values, settled = self.draws(_seed_words(np.arange(64, dtype=np.uint64)), 16)
        return all(np.random.Generator(np.random.PCG64(s)).standard_normal(16).tobytes()
                   == values[s].tobytes() for s in settled.nonzero()[0].tolist())


_ZIGGURAT = _Ziggurat(np.array(_ziggurat.KI * 2, dtype=np.uint64),
                      np.concatenate([_ziggurat.WI, np.negative(_ziggurat.WI)]))


# Each thread's generator for the rows `_hashed_gaussians` replays, made on
# its first replay: a generator costs about 18 us to build.
_REPLAY = threading.local()


def _hashed_gaussians(spec: AlgebraSpec, quantized: np.ndarray, seed: int | None) -> np.ndarray:
    """Row k is `algebra.gaussian_row` from `Generator(PCG64(s))`, where s is
    the 8-byte little-endian blake2b digest of `str(seed)` and the real then
    imaginary bytes of `quantized[k]`.  Seeded by the quantized point, the
    direction is a function of the point, not of the floating-point path
    that produced it.

    Rows are drawn in array arithmetic on replicas of PCG64's output stream
    and of the fast path of numpy's normal draw.  A row with a draw the fast
    path does not settle, one it rejects (about one row in nine at 8 draws)
    or a zero, is replayed from its seed through numpy's own generator, and
    so is every row if the fast path disagrees with numpy
    (`_Ziggurat.agrees`)."""
    prefix = hashlib.blake2b(digest_size=8)
    prefix.update(str(seed).encode())
    # Each row's bytes: the real parts of its entries, then the imaginary.
    entries = np.ascontiguousarray(quantized, dtype=np.complex128).view(np.float64)
    data = entries.reshape(len(quantized), spec.n_entries, 2).swapaxes(1, 2).tobytes()
    width = 16 * spec.n_entries
    digests = []
    for start in range(0, len(data), width):
        h = prefix.copy()
        h.update(data[start:start + width])
        digests.append(h.digest())
    words = _seed_words(np.frombuffer(b"".join(digests), dtype="<u8"))
    values, settled = _ZIGGURAT.draws(words, 2 * spec.n_entries)
    parts = values.reshape(len(quantized), 2, *spec.shape)
    settled &= _ZIGGURAT.agrees
    replay = (~settled).nonzero()[0]
    if len(replay):
        # A replayed row sets its state on its thread's own generator and
        # draws through gaussian_parts, which redraws an all-zero draw, or
        # raises DegenerateDirection.
        if not hasattr(_REPLAY, "generator"):
            bits = np.random.PCG64(0)
            _REPLAY.generator = bits, np.random.Generator(bits)
        bits, rng = _REPLAY.generator
        full = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
                "has_uint32": 0, "uinteger": 0}
        pcg = full["state"]
        for k, (state, inc) in zip(replay.tolist(), _pcg64_states(words[replay])):
            pcg["state"], pcg["inc"] = state, inc
            bits.state = full
            algebra.gaussian_parts(rng, parts[k])
    return parts[:, 0] + 1j * parts[:, 1]


def _row_norms(spec: AlgebraSpec, X: np.ndarray, norms: np.ndarray | None) -> list[float]:
    # ||x|| for each row x of X: `norms` where given, computed for its NaN
    # entries (all rows when None) in one stacked call.
    if norms is None:
        return algebra.stacked_norms(spec, X)
    missing = np.isnan(norms)
    if missing.any():
        norms = norms.copy()
        norms[missing] = algebra.stacked_norms(spec, X[missing])
    return norms.tolist()


_HASH_CHUNK = 128


@np.errstate(over="ignore", invalid="ignore")
def _perturbation_rows(p: PerturbationSpec, spec: AlgebraSpec, X: np.ndarray,
                       norms: np.ndarray | None = None) -> np.ndarray:
    # delta on a stack X of shape (N, *spec.shape), with `norms` as in
    # eval_f_rows. Amplitudes are computed in Python floats per row; a zero
    # amplitude or zero quantized point is a zero row, left +0 rather than
    # 0 * u, which can be -0.  An amplitude that overflows to inf leaves a
    # non-finite row, for the caller to reject, and no warning.
    out = np.zeros(X.shape, dtype=np.complex128)
    if p.kind is PerturbationKind.NONE:
        return out
    column = (-1,) + (1,) * len(spec.shape)
    try:
        amplitudes = np.array([p.theta_delta * n ** p.r for n in _row_norms(spec, X, norms)],
                              dtype=np.complex128).reshape(column)
    except OverflowError:
        raise OutOfRange(f"perturbation amplitude overflows at r = {p.r}") from None
    live = amplitudes.reshape(len(X)) != 0.0
    if p.kind is PerturbationKind.FIXED_DIRECTION:
        return np.multiply(amplitudes, _fixed_direction(p.direction_seed, spec), out=out,
                           where=live.reshape(column))
    # Entries rounded to 1e-6 before hashing; the hashed Gaussian rows are
    # normalized in one stacked norm call.  A draw holds about 1.2 kB of
    # arrays per row at 8 draws; chunks of _HASH_CHUNK rows keep that below
    # the rest of a pass's peak memory.
    quantized = np.round(X * 1e6) / 1e6
    rows = live & quantized.reshape(len(X), -1).any(axis=1)
    if rows.any():
        hashed = quantized[rows]
        raw = np.concatenate([_hashed_gaussians(spec, hashed[i:i + _HASH_CHUNK], p.direction_seed)
                              for i in range(0, len(hashed), _HASH_CHUNK)])
        inverse = 1.0 / np.array(algebra.stacked_norms(spec, raw))
        np.multiply(inverse.astype(np.complex128).reshape(column), raw, out=raw)
        out[rows] = np.multiply(amplitudes[rows], raw, out=raw)
    return out


@dataclass(frozen=True)
class ApproxMap:
    """Candidate map f = reference involution + admissible perturbation;
    satisfies f(0) = 0 exactly."""

    base: Involution
    perturbation: PerturbationSpec
    spec: AlgebraSpec


def eval_f_rows(f: ApproxMap, X: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """f on a stack X of raw entry arrays shaped (N, *f.spec.shape), one
    row per point; a row's value does not depend on the other rows.

    `norms`, a float array with one entry per row, lends the perturbation
    amplitude the rows' norms ||x|| where the caller knows them, and is NaN
    where it does not; the NaN rows' norms are computed here, in one
    stacked call.  A lent norm must equal stacked_norms on its row bit for
    bit.  Without `norms` every row's norm is computed; a map with no
    perturbation computes none."""
    if X.shape[1:] != f.spec.shape:
        raise SpecMismatch(f"map spec {f.spec} vs stack shape {X.shape}")
    base = _involution_rows(f.base, f.spec, X)
    if f.perturbation.kind is PerturbationKind.NONE:
        return base
    delta = _perturbation_rows(f.perturbation, f.spec, X, norms)
    return np.add(base, delta, out=delta)


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
