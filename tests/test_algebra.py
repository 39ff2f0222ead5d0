import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from involstab import algebra
from involstab.algebra import SCALAR, Element, matrix_spec, pointwise_spec
from involstab.errors import SpecMismatch

M2 = matrix_spec(2)
P2 = pointwise_spec(2)


def spectral_norm_2x2(m):
    """Independent oracle: largest singular value of a 2x2 matrix from the
    closed-form eigenvalues of a*a."""
    b = np.asarray(m, dtype=complex).conj().T @ np.asarray(m, dtype=complex)
    tr = b[0, 0].real + b[1, 1].real
    det = (b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]).real
    disc = max(tr * tr / 4.0 - det, 0.0)
    return math.sqrt(tr / 2.0 + math.sqrt(disc))


class TestArithmetic:
    def test_scalar_add(self):
        got = algebra.add(algebra.scalar(2), algebra.scalar(3 + 1j))
        assert got.flat()[0] == 5 + 1j

    def test_add_zero_is_identity(self, any_spec, rng):
        x = algebra.sample_element(any_spec, (0.5, 2.0), rng)
        assert algebra.add(x, algebra.zero(any_spec)).close_to(x)

    def test_matrix_add(self):
        got = algebra.add(
            algebra.element(M2, [1, 0, 0, 1]), algebra.element(M2, [0, 2, 0, 0])
        )
        assert got.close_to(algebra.element(M2, [1, 2, 0, 1]))

    def test_add_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            algebra.add(algebra.scalar(1), algebra.element(P2, [1, 2]))

    def test_scale(self, any_spec, rng):
        x = algebra.sample_element(any_spec, (0.5, 2.0), rng)
        assert algebra.scale(1.0, x).close_to(x)
        assert algebra.scale(0.0, x).close_to(algebra.zero(any_spec))
        assert algebra.scale(1j, algebra.scalar(2)).flat()[0] == 2j

    def test_mul(self):
        assert algebra.mul(algebra.scalar(2), algebra.scalar(3)).flat()[0] == 6
        nil = algebra.element(M2, [0, 1, 0, 0])
        assert algebra.mul(nil, nil).close_to(algebra.zero(M2))
        got = algebra.mul(algebra.element(P2, [1, 2]), algebra.element(P2, [3, 4]))
        assert got.close_to(algebra.element(P2, [3, 8]))


class TestNorm:
    def test_identity_matrix(self):
        assert algebra.norm(algebra.element(M2, [1, 0, 0, 1])) == pytest.approx(1.0)

    def test_diagonal(self):
        assert algebra.norm(algebra.element(M2, [3, 0, 0, 4])) == pytest.approx(4.0, rel=1e-9)

    def test_nilpotent(self):
        # oracle: singular values of a*a = diag(0, 4) by closed form
        m = [0, 2, 0, 0]
        assert spectral_norm_2x2(np.array(m).reshape(2, 2)) == 2.0
        assert algebra.norm(algebra.element(M2, m)) == pytest.approx(2.0, rel=1e-12)

    def test_matches_closed_form_2x2(self, rng):
        for _ in range(200):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            oracle = spectral_norm_2x2(x.data)
            assert algebra.norm(x) == pytest.approx(oracle, rel=1e-9)

    def test_kernel_start_fallback(self):
        # all-ones lies in the kernel of a*a, so an iterative method
        # started there would see the zero matrix
        m = algebra.element(M2, [1, -1, 0, 0])
        assert algebra.norm(m) == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_zero(self, any_spec):
        assert algebra.norm(algebra.zero(any_spec)) == 0.0

    def test_scalar_pointwise(self):
        assert algebra.norm(algebra.scalar(3 + 4j)) == 5.0
        assert algebra.norm(algebra.element(P2, [1, -2j])) == 2.0


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


class TestNormRegressions:
    def test_top_singular_vector_orthogonal_to_ones(self):
        # the top singular vector is orthogonal to all-ones, the old start vector
        m = algebra.element(M2, [1.5, -0.5, -0.5, 1.5])
        assert algebra.norm(m) == pytest.approx(2.0, rel=1e-15)

    def test_near_equal_singular_values_2x2(self):
        m = algebra.element(M2, [1, 0, 0, 0.99999])
        assert algebra.norm(m) == pytest.approx(1.0, rel=1e-15)

    def test_near_equal_singular_values_3x3(self, rng):
        # relative gap 1e-4 between the two largest singular values
        sigma = np.diag([2.0, 2.0 * (1 - 1e-4), 0.5])
        m = _unitary(rng, 3) @ sigma @ _unitary(rng, 3)
        assert algebra.norm(Element(matrix_spec(3), m)) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("spec", [SCALAR, P2, pointwise_spec(5), matrix_spec(1),
                                      M2, matrix_spec(3), matrix_spec(5)],
                             ids=lambda s: f"{s.kind.value}{s.dim}")
    def test_stack_matches_single_calls(self, spec, rng):
        shape = (64, *spec.shape)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack[0] = 0.0
        single = [algebra.norm(Element(spec, m)) for m in stack]
        assert algebra.stacked_norms(spec, stack) == single


def mp_operator_norm(m: np.ndarray) -> float:
    """50-digit reference: largest singular value from mpmath."""
    with mpmath.workdps(50):
        a = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in m])
        sv = mpmath.svd_c(a, compute_uv=False)
        return float(max(sv[k] for k in range(sv.rows)))


# Entries below 1e-200 are flushed to zero so that no scaled entry, and no
# norm, is subnormal: a subnormal result carries an absolute, not relative,
# rounding error.
_entry = st.floats(-1.0, 1.0, allow_subnormal=False).map(
    lambda v: v if abs(v) > 1e-200 else 0.0)


@st.composite
def adversarial_matrices(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["general", "scaled_unitary", "rank_deficient", "nilpotent"]))
    re = draw(st.lists(_entry, min_size=d * d, max_size=d * d))
    im = draw(st.lists(_entry, min_size=d * d, max_size=d * d))
    base = (np.array(re) + 1j * np.array(im)).reshape(d, d)
    if kind == "scaled_unitary":
        # all singular values equal; the shift keeps QR away from a zero column
        q, _ = np.linalg.qr(base + 2.0 * np.eye(d))
        m = draw(st.floats(0.5, 2.0)) * q
    elif kind == "rank_deficient":
        m = np.outer(base[:, 0], base[0, :].conj())
    elif kind == "nilpotent":
        m = np.triu(base, k=1)
    else:
        m = base
    return m * draw(st.sampled_from([1e-20, 1.0, 1e20]))


class TestNormProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(adversarial_matrices())
    @example(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    @example(np.array([[1.5, -0.5], [-0.5, 1.5]], dtype=complex))
    @example(np.diag([1.0, 0.99999]).astype(complex) * 1e20)
    def test_matches_mpmath_reference(self, m):
        got = algebra.norm(Element(matrix_spec(m.shape[0]), m))
        ref = mp_operator_norm(m)
        assert abs(got - ref) <= 1e-13 * ref


class TestConjTranspose:
    def test_scalar(self):
        assert algebra.conj_transpose(algebra.scalar(2 + 3j)).flat()[0] == 2 - 3j

    def test_matrix(self):
        got = algebra.conj_transpose(algebra.element(M2, [0, 1, 0, 0]))
        assert got.close_to(algebra.element(M2, [0, 0, 1, 0]))

    def test_hermitian_fixed_point(self):
        h = algebra.element(M2, [1, 2 + 1j, 2 - 1j, -3])
        assert algebra.conj_transpose(h).close_to(h)

    def test_involutive_bit_exact(self, any_spec, rng):
        for _ in range(50):
            x = algebra.sample_element(any_spec, (0.1, 10.0), rng)
            assert algebra.conj_transpose(algebra.conj_transpose(x)).close_to(x)


class TestSampling:
    def test_unit_radius(self, rng):
        z = algebra.sample_element(SCALAR, (1.0, 1.0), rng)
        assert abs(algebra.norm(z) - 1.0) <= 1e-12

    def test_radius_range(self, any_spec, rng):
        for _ in range(100):
            x = algebra.sample_element(any_spec, (0.1, 10.0), rng)
            assert 0.1 * (1 - 1e-9) <= algebra.norm(x) <= 10.0 * (1 + 1e-9)

    def test_deterministic(self, any_spec):
        a = algebra.sample_element(any_spec, (0.5, 2.0), np.random.Generator(np.random.PCG64(5)))
        b = algebra.sample_element(any_spec, (0.5, 2.0), np.random.Generator(np.random.PCG64(5)))
        assert a.close_to(b)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            algebra.sample_element(SCALAR, (0.0, 1.0), np.random.Generator(np.random.PCG64(5)))


class TestBanachAlgebraLaws:
    def test_submultiplicative(self, any_spec, rng):
        for _ in range(1000):
            a = algebra.sample_element(any_spec, (0.1, 10.0), rng)
            b = algebra.sample_element(any_spec, (0.1, 10.0), rng)
            assert algebra.norm(algebra.mul(a, b)) <= algebra.norm(a) * algebra.norm(b) + 1e-9

    def test_cstar_identity_of_reference(self, any_spec, rng):
        for _ in range(1000):
            a = algebra.sample_element(any_spec, (0.1, 10.0), rng)
            lhs = algebra.norm(algebra.mul(algebra.conj_transpose(a), a))
            assert lhs == pytest.approx(algebra.norm(a) ** 2, rel=1e-9)

    def test_antihomomorphism(self, any_spec, rng):
        for _ in range(200):
            a = algebra.sample_element(any_spec, (0.1, 10.0), rng)
            b = algebra.sample_element(any_spec, (0.1, 10.0), rng)
            lhs = algebra.conj_transpose(algebra.mul(a, b))
            rhs = algebra.mul(algebra.conj_transpose(b), algebra.conj_transpose(a))
            assert algebra.norm(algebra.sub(lhs, rhs)) <= 1e-12 * max(1.0, algebra.norm(lhs))

    def test_norm_scaling(self, any_spec, rng):
        for _ in range(200):
            a = algebra.sample_element(any_spec, (0.1, 10.0), rng)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            assert algebra.norm(algebra.scale(lam, a)) == pytest.approx(
                abs(lam) * algebra.norm(a), rel=1e-10
            )
