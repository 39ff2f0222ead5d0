"""Concrete Banach algebra instances: complex scalars, dense complex
matrices with the operator norm, and complex tuples with the pointwise
product and sup norm.

All operations are pure; elements are immutable once constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDirection, SpecMismatch


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

    def flat(self) -> np.ndarray:
        """Entries in row-major order."""
        return self.data.reshape(-1)

    def close_to(self, other: "Element", tol: float = 0.0) -> bool:
        return self.spec == other.spec and bool(
            np.all(np.abs(self.data - other.data) <= tol)
        )


def element(spec: AlgebraSpec, entries) -> Element:
    """Build an element from a flat row-major sequence of complex numbers."""
    return Element(spec, np.asarray(entries, dtype=np.complex128))


def zero(spec: AlgebraSpec) -> Element:
    return Element(spec, np.zeros(spec.shape, dtype=np.complex128))


def scalar(z: complex) -> Element:
    return Element(SCALAR, np.array([z], dtype=np.complex128))


def _check_specs(a: Element, b: Element) -> None:
    if a.spec != b.spec:
        raise SpecMismatch(f"{a.spec} vs {b.spec}")


def add(a: Element, b: Element) -> Element:
    _check_specs(a, b)
    return Element(a.spec, a.data + b.data)


def sub(a: Element, b: Element) -> Element:
    _check_specs(a, b)
    return Element(a.spec, a.data - b.data)


def scale(lam: complex, a: Element) -> Element:
    return Element(a.spec, complex(lam) * a.data)


def mul(a: Element, b: Element) -> Element:
    _check_specs(a, b)
    if a.spec.kind is AlgebraKind.MATRIX:
        return Element(a.spec, a.data @ b.data)
    return Element(a.spec, a.data * b.data)


def conj_transpose(a: Element) -> Element:
    """Reference adjoint: conjugate transpose for matrices, entrywise
    conjugate otherwise.  Bit-exact involution."""
    if a.spec.kind is AlgebraKind.MATRIX:
        return Element(a.spec, a.data.conj().T)
    return Element(a.spec, a.data.conj())


def _operator_norm(mat: np.ndarray) -> np.ndarray | float:
    # Largest singular value from LAPACK: no start vector, gap condition or
    # iteration cap.  Takes one (d, d) matrix or a stack (N, d, d); a stack
    # gives the same bits as the per-matrix calls.
    return np.linalg.svd(mat, compute_uv=False)[..., 0]


def norm(a: Element) -> float:
    """Algebra norm: modulus, operator norm, or sup norm by kind."""
    if a.spec.kind is AlgebraKind.SCALAR:
        return abs(complex(a.data[0]))
    if a.spec.kind is AlgebraKind.POINTWISE:
        return float(np.max(np.abs(a.data)))
    return float(_operator_norm(a.data))


def stacked_norms(spec: AlgebraSpec, stack: np.ndarray) -> list[float]:
    """Norms of a stack of raw entry arrays shaped (N, *spec.shape); entry
    k equals `norm(Element(spec, stack[k]))` bit for bit."""
    if spec.kind is AlgebraKind.MATRIX:
        return _operator_norm(stack).tolist()
    if spec.kind is AlgebraKind.POINTWISE:
        return np.max(np.abs(stack), axis=-1).tolist()
    # Python's complex abs, as in norm(); numpy's differs in the last bit.
    return [abs(z) for z in stack.reshape(-1).tolist()]


def sample_element(spec: AlgebraSpec, radius_range, rng: np.random.Generator) -> Element:
    """Element with norm log-uniform in [r_min, r_max]: standard complex
    Gaussian direction normalized to unit norm, then scaled."""
    r_min, r_max = radius_range
    if not (0 < r_min <= r_max):
        raise ValueError(f"invalid radius range ({r_min}, {r_max})")
    u = sample_direction(spec, rng)
    radius = math.exp(rng.uniform(math.log(r_min), math.log(r_max)))
    return scale(radius, u)


def sample_direction(spec: AlgebraSpec, rng: np.random.Generator) -> Element:
    """Unit-norm element with independent standard complex Gaussian entries."""
    raw = gaussian_row(spec, rng)
    return Element(spec, complex(1.0 / stacked_norms(spec, raw[None])[0]) * raw)


def gaussian_row(spec: AlgebraSpec, rng: np.random.Generator) -> np.ndarray:
    """Nonzero standard complex Gaussian entries, before `sample_direction`
    normalizes them; callers with many rows normalize them in one stack."""
    for _ in range(8):
        raw = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        if raw.any():
            return raw
    raise DegenerateDirection("Gaussian draw was exactly zero 8 times")


def canonical_direction(spec: AlgebraSpec) -> Element:
    """All-ones element normalized to unit norm (seed-free direction)."""
    ones = Element(spec, np.ones(spec.shape, dtype=np.complex128))
    return scale(1.0 / norm(ones), ones)
