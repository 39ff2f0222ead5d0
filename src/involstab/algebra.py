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


def finite_rows(where: str, stack: np.ndarray, operand: str = "stage arithmetic") -> np.ndarray:
    """`stack` once every entry is finite; else OutOfRange naming the stage
    and the operand that went non-finite."""
    if not np.isfinite(stack).all():
        raise OutOfRange(f"{where}: {operand} overflowed to non-finite entries")
    return stack


# The closed form's safe range: a 2x2 matrix whose largest real or imaginary
# part lies in it, or that is zero, has no square of that part that
# overflows or underflows, so the sums below round as the standard model
# says.  Squares of much smaller parts may underflow; they move a result of
# at least 1e-240 by at most a few 2^-1074.
EXACT_SCALING_RANGE = (1e-120, 1e120)


def _operator_norm(stack: np.ndarray) -> np.ndarray:
    # Largest singular value of each matrix of a stack (N, d, d).  For d = 2
    # in the safe range, sqrt(lambda_max(A^H A)) in closed form,
    # sqrt((a + c)/2 + hypot((a - c)/2, |b|)) for the squared column norms a
    # and c and b = col0^H col1, in real elementwise arithmetic, so that a
    # row's bits do not depend on the stack; within 8u of the exact value
    # (README, "Operator norm").  Every other matrix takes LAPACK's svd,
    # which needs no start vector, gap condition or iteration cap, and also
    # gives a stack the bits of the per-matrix calls.
    if stack.shape[-1] != 2:
        return _svd_norms(stack)
    # One gather of the parts into the rows _closed_form reads, N contiguous
    # parts each; rows 8 to 15 hold every part once.
    rows = np.ascontiguousarray(stack).reshape(-1, 4).view(np.float64).T.take(_ROWS, axis=0)
    np.negative(rows[1:4:2], out=rows[1:4:2])
    largest = np.abs(rows[8:16]).max(axis=0, initial=0.0)
    lo, hi = EXACT_SCALING_RANGE
    if lo <= largest.min(initial=hi) and largest.max(initial=lo) <= hi:
        return _closed_form(rows)
    closed = (largest == 0.0) | ((largest >= lo) & (largest <= hi))
    if closed.all():
        return _closed_form(rows)
    norms = np.empty(len(stack))
    norms[~closed] = _svd_norms(stack[~closed])
    norms[closed] = _closed_form(rows[:, closed])
    return norms


@np.errstate(over="ignore")
def _svd_norms(stack: np.ndarray) -> np.ndarray:
    # LAPACK's largest singular values.  A matrix with a part that is not
    # finite skips LAPACK, which would print to stdout or raise: its norm is
    # its largest |part|, NaN if a part is NaN and else inf, as the modulus
    # and the sup norm give.  A finite matrix with an entry whose modulus
    # overflows comes back NaN, as LAPACK scales by its infinite entry norm:
    # it is taken again at 2^-e times its size, for 2^e above its largest
    # part, and its norm scaled back by 2^e, inf where the norm overflows.
    # Every other matrix keeps the bits of its first call.
    parts = np.ascontiguousarray(stack).view(np.float64)
    largest = _row_reduce(np.maximum, np.abs(parts))
    finite = np.isfinite(largest)
    norms = largest.copy()
    norms[finite] = np.linalg.svd(stack[finite], compute_uv=False)[..., 0]
    redo = finite & np.isnan(norms)
    if redo.any():
        e = np.frexp(largest[redo])[1]
        scaled = np.ldexp(parts[redo], -e.reshape(-1, 1, 1)).view(np.complex128)
        norms[redo] = np.ldexp(np.linalg.svd(scaled, compute_uv=False)[..., 0], e)
    return norms


# The rows the closed form reads, as indices of the parts r00, i00, r01,
# i01, r10, i10, r11, i11: in groups of four, B' = (i01, -r01, i11, -r11),
# A = (r00, i00, r10, i10) twice and B = (r01, i01, r11, i11) twice, with
# B''s -r01 and -r11 negated after the gather.  Rows 0-15 times rows 4-19
# are A B', A A, A B and B B: the terms of im b, a, re b and c, in the
# order the formula pairs them.  Sums of adjacent rows, taken twice, give
# the formula's bits: products commute, (-x) y = -(x y) and x + (-y) = x - y
# in IEEE 754.
_ROWS = np.array([3, 2, 7, 6, 0, 1, 4, 5, 0, 1, 4, 5, 2, 3, 6, 7, 2, 3, 6, 7])


def _closed_form(rows: np.ndarray) -> np.ndarray:
    products = rows[:16] * rows[4:]
    sums = products[0::2] + products[1::2]
    im, a, re, c = sums[0::2] + sums[1::2]
    return np.sqrt(0.5 * (a + c) + np.hypot(0.5 * (a - c), np.hypot(re, im)))


def _row_reduce(ufunc: np.ufunc, stack: np.ndarray) -> np.ndarray:
    # ufunc over every axis but the first of a stack (N, ...), one result
    # per row, through a contiguous (k, N) copy: numpy reduces a short
    # trailing axis row by row, so the maxima of a (2000, 4) array took
    # 163 us along axis 1, and 12 us, copy included, along axis 0 of its
    # transpose (Xeon, numpy 2.4).  And, or, uint64 sums and the max of
    # moduli do not depend on the order of a row's entries: no bit moves.
    k = math.prod(stack.shape[1:])
    return ufunc.reduce(np.ascontiguousarray(stack.reshape(len(stack), k).T), axis=0)


def stacked_norms(spec: AlgebraSpec, stack: np.ndarray) -> np.ndarray:
    """Algebra norms of a stack of raw entry arrays shaped (N, *spec.shape),
    one float64 per row: modulus, operator norm, or sup norm by kind.  A
    real stack is taken as its complex cast, which is exact; a modulus or
    sup norm that overflows is inf."""
    stack = np.asarray(stack, dtype=np.complex128)
    if spec.kind is AlgebraKind.MATRIX:
        return _operator_norm(stack)
    if spec.kind is AlgebraKind.POINTWISE:
        return _row_reduce(np.maximum, np.abs(stack))
    # libm's hypot, as Python's complex abs, but inf where abs overflows;
    # np.abs differs in the last bit.
    with np.errstate(over="ignore"):
        return np.hypot(stack.real, stack.imag).reshape(-1)


def _libm_pow(values: np.ndarray, r: float) -> np.ndarray:
    # Python's v ** r for each v: libm's pow, with its bits, and inf where
    # ** overflows.  np.power(v, 0.5) missed the bits on 309 of
    # 400,000 values log-uniform in [1e-3, 1e3], and v * v those of v ** 2
    # on 1,658 of 2,000,000 in [1, 10) (glibc 2.36, numpy 2.4.6).  The
    # row-by-row loop runs only once ** has overflowed.
    floats = values.tolist()
    try:
        return np.array([v ** r for v in floats], dtype=float)
    except OverflowError:
        pass
    powers = []
    for v in floats:
        try:
            powers.append(v ** r)
        except OverflowError:
            powers.append(math.inf)
    return np.array(powers, dtype=float)


def sample_element(spec: AlgebraSpec, radius_range, rng: np.random.Generator) -> np.ndarray:
    """Entry array with norm log-uniform in [r_min, r_max]: `sample_rows`'s one row."""
    return sample_rows(spec, 1, rng, radius_range)[0]


def sample_rows(spec: AlgebraSpec, count: int, rng: np.random.Generator,
                radius_range=None) -> np.ndarray:
    """`count` rows (count, *spec.shape), each drawn in turn: its standard
    complex Gaussian parts, then, given a radius range (r_min, r_max), its
    norm, log-uniform in it.  The rows are made unit in one call, then scaled.
    The norm's logarithm is numpy's uniform(log r_min, log r_max) formula on
    one rng.random(), with that call's bits."""
    if radius_range is not None:
        r_min, r_max = radius_range
        # An infinite r_max, which numpy's uniform refused, is no range.
        if not (0 < r_min <= r_max < math.inf):
            raise ValueError(f"invalid radius range ({r_min}, {r_max})")
        log_min, log_max = math.log(r_min), math.log(r_max)
    parts, radii = np.empty((count, 2, *spec.shape)), []
    for draw in parts:
        gaussian_parts(rng, draw)
        if radius_range is not None:
            radii.append(math.exp(log_min + (log_max - log_min) * rng.random()))
    rows = unit_rows(spec, parts[:, 0] + 1j * parts[:, 1])
    if radius_range is None:
        return rows
    column = (-1,) + (1,) * len(spec.shape)
    return np.multiply(np.array(radii, dtype=np.complex128).reshape(column), rows, out=rows)


def unit_rows(spec: AlgebraSpec, stack: np.ndarray) -> np.ndarray:
    """Divide each row of `stack`, a complex128 stack (N, *spec.shape) made by
    the caller, by its norm in place, from one stacked call; returns `stack`.
    A float64 inverse times a row has the bits of its complex cast's product."""
    inverse = 1.0 / stacked_norms(spec, stack)
    return np.multiply(inverse.reshape((-1,) + (1,) * len(spec.shape)), stack, out=stack)


def gaussian_parts(rng: np.random.Generator, parts: np.ndarray) -> np.ndarray:
    """Fill `parts`, a (2, *shape) float array, with the real then imaginary
    parts of standard complex Gaussian entries in one draw, redrawn while
    all zero; returns `parts`."""
    for _ in range(8):
        if np.count_nonzero(rng.standard_normal(out=parts)):
            return parts
    raise DegenerateDirection("Gaussian draw was exactly zero 8 times")


def canonical_direction(spec: AlgebraSpec) -> np.ndarray:
    """All-ones entry array normalized to unit norm (seed-free direction)."""
    return unit_rows(spec, np.ones((1, *spec.shape), dtype=np.complex128))[0]
