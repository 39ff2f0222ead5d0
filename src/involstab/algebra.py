"""Concrete Banach algebra instances: complex scalars, dense complex
matrices with the operator norm, and complex tuples with the pointwise
product and sup norm.

The pipeline works on stacks of raw entry arrays shaped (N, *spec.shape),
row by row.  `Element`, a finite read-only entry array, is the type of the
values a config names: a twist and the extra probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDirection, OutOfRange


class AlgebraKind(str, Enum):
    SCALAR = "scalar"
    MATRIX = "matrix"
    POINTWISE = "pointwise"


@dataclass(frozen=True)
class AlgebraSpec:
    kind: AlgebraKind
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kind", AlgebraKind(self.kind))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.kind is AlgebraKind.SCALAR and self.dim != 1:
            raise ValueError("scalar algebra forces dim = 1")

    @property
    def n_entries(self) -> int:
        return self.dim * self.dim if self.kind is AlgebraKind.MATRIX else self.dim

    @property
    def shape(self) -> tuple:
        if self.kind is AlgebraKind.MATRIX:
            return (self.dim, self.dim)
        return (self.dim,)


SCALAR = AlgebraSpec(AlgebraKind.SCALAR, 1)


def matrix_spec(dim: int) -> AlgebraSpec:
    return AlgebraSpec(AlgebraKind.MATRIX, dim)


def pointwise_spec(dim: int) -> AlgebraSpec:
    return AlgebraSpec(AlgebraKind.POINTWISE, dim)


@dataclass(frozen=True)
class Element:
    spec: AlgebraSpec
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128).reshape(self.spec.shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("element entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


def element(spec: AlgebraSpec, entries) -> Element:
    """Build an element from a flat row-major sequence of complex numbers."""
    return Element(spec, np.asarray(entries, dtype=np.complex128))


def mul_rows(spec: AlgebraSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-by-row products of two stacks shaped (N, *spec.shape): matrix
    products, or entrywise ones for scalars and pointwise tuples."""
    return A @ B if spec.kind is AlgebraKind.MATRIX else A * B


def finite_rows(where: str, stack: np.ndarray) -> np.ndarray:
    """`stack` once every entry is finite; else OutOfRange."""
    if not np.isfinite(stack).all():
        raise OutOfRange(f"{where}: stage arithmetic overflowed to non-finite entries")
    return stack


def _operator_norm(stack: np.ndarray) -> np.ndarray:
    # Largest singular value from LAPACK: no start vector, gap condition or
    # iteration cap.  A stack (N, d, d) gives the same bits as the
    # per-matrix calls.
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


@np.errstate(over="ignore", invalid="ignore")
def operator_norm_enclosure(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) with lo <= stacked_norms <= hi on each row of a stack
    of matrices shaped (N, d, d), without an svd: [0, inf] where they
    cannot be had cheaply.

    For d = 2 the largest singular value in closed form, widened by a
    relative 1e-12, on rows that are zero or whose largest real or imaginary
    part lies inside EXACT_SCALING_RANGE.  For other d, [F / sqrt(d), F]
    from the Frobenius norm F."""
    n, d = len(stack), stack.shape[-1]
    parts = np.ascontiguousarray(stack).view(np.float64)
    if d == 2:
        # sqrt(lambda_max(A^H A)) = sqrt((a + c)/2 + hypot((a - c)/2, |b|)),
        # a and c the squared column norms, b = col0^H col1.  Its terms are
        # non-negative: the rounding, like LAPACK's, is a few ulps.  Squares
        # of parts far below the largest may underflow, which moves the
        # result by far less than the margin.  The parts are laid out by
        # column, then row and real or imaginary part, then matrix.
        x, y = columns = np.ascontiguousarray(
            parts.reshape(n, 2, 2, 2).transpose(2, 1, 3, 0)).reshape(2, 4, n)
        a, c = np.einsum("cij,cij->cj", columns, columns)
        b = np.hypot(np.einsum("ij,ij->j", x, y),
                     np.einsum("ij,ij->j", x[0::2], y[1::2])
                     - np.einsum("ij,ij->j", x[1::2], y[0::2]))
        norm = np.sqrt(0.5 * (a + c) + np.hypot(0.5 * (a - c), b))
        largest = np.maximum(columns.max(axis=(0, 1), initial=0.0),
                             -columns.min(axis=(0, 1), initial=0.0))
        lo, hi = EXACT_SCALING_RANGE
        safe = (largest == 0.0) | ((largest >= lo) & (largest <= hi))
        return (np.where(safe, norm * (1.0 - 1e-12), 0.0),
                np.where(safe, norm * (1.0 + 1e-12), np.inf))
    # ||A||_F / sqrt(d) <= ||A||_2 <= ||A||_F.  The factors cover the
    # rounding of the sum of squares and of LAPACK's largest singular value,
    # a few ulps per entry, for d up to about a thousand.  A square or
    # partial sum that underflows moves it by at most 2^-1075 either way
    # (it can flush to 0, or round up to the smallest subnormal), so the 4d^2
    # of them move the Frobenius norm by under d * 2^-536, which the 1e-150
    # taken off lo and added to hi covers; a Frobenius norm that overflows
    # bounds nothing.
    parts = parts.reshape(n, 2 * d * d)
    frobenius = np.sqrt(np.einsum("ij,ij->i", parts, parts))
    finite = np.isfinite(frobenius)
    lo = np.maximum(frobenius * ((1.0 - 1e-8) / math.sqrt(d)) - 1e-150, 0.0)
    return (np.where(finite, lo, 0.0),
            np.where(finite, frobenius * (1.0 + 1e-8) + 1e-150, np.inf))


def stacked_norms(spec: AlgebraSpec, stack: np.ndarray) -> list[float]:
    """Algebra norms of a stack of raw entry arrays shaped (N, *spec.shape),
    one per row: modulus, operator norm, or sup norm by kind."""
    if spec.kind is AlgebraKind.MATRIX:
        return _operator_norm(stack).tolist()
    if spec.kind is AlgebraKind.POINTWISE:
        return np.max(np.abs(stack), axis=-1).tolist()
    # Python's complex abs; numpy's differs in the last bit.
    return [abs(z) for z in stack.reshape(-1).tolist()]


# LAPACK's svd rescales a matrix whose largest entry lies outside about
# [1.3e-138, 7.5e137] by a factor that is not a power of two, and a part
# that is subnormal or overflows does not scale exactly; this range keeps
# clear of both.
EXACT_SCALING_RANGE = (1e-120, 1e120)


def exact_scaling_rows(stack: np.ndarray) -> np.ndarray:
    """Mask of the rows of a stack whose entries' real and imaginary parts
    are each 0 or of modulus inside EXACT_SCALING_RANGE.  If x and c*x both
    pass, for c a power of two, then c*x is exact and
    stacked_norms(c*x) == c * stacked_norms(x) bit for bit, whatever the
    kind."""
    parts = np.abs(np.ascontiguousarray(stack).view(np.float64)).reshape(len(stack), -1)
    lo, hi = EXACT_SCALING_RANGE
    return ((parts == 0.0) | ((parts >= lo) & (parts <= hi))).all(axis=1)


def sample_element(spec: AlgebraSpec, radius_range, rng: np.random.Generator) -> np.ndarray:
    """Entry array with norm log-uniform in [r_min, r_max]: a standard
    complex Gaussian direction normalized to unit norm, then scaled."""
    r_min, r_max = radius_range
    if not (0 < r_min <= r_max):
        raise ValueError(f"invalid radius range ({r_min}, {r_max})")
    u = sample_direction(spec, rng)
    radius = math.exp(rng.uniform(math.log(r_min), math.log(r_max)))
    return complex(radius) * u


def sample_direction(spec: AlgebraSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm entry array of independent standard complex Gaussians."""
    raw = gaussian_row(spec, rng)
    return complex(1.0 / stacked_norms(spec, raw[None])[0]) * raw


def gaussian_row(spec: AlgebraSpec, rng: np.random.Generator) -> np.ndarray:
    """Nonzero standard complex Gaussian entries, before `sample_direction`
    normalizes them: one (2, *spec.shape) draw of the real then imaginary
    parts, redrawn while all zero."""
    parts = np.empty((2, *spec.shape))
    for _ in range(8):
        rng.standard_normal(out=parts)
        if parts.any():
            return parts[0] + 1j * parts[1]
    raise DegenerateDirection("Gaussian draw was exactly zero 8 times")


def canonical_direction(spec: AlgebraSpec) -> np.ndarray:
    """All-ones entry array normalized to unit norm (seed-free direction)."""
    ones = np.ones(spec.shape, dtype=np.complex128)
    return complex(1.0 / stacked_norms(spec, ones[None])[0]) * ones
