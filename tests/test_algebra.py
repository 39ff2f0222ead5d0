import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from involstab import algebra, maps
from involstab.algebra import SCALAR, matrix_spec, pointwise_spec
from involstab.maps import NO_PERTURBATION, ApproxMap

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


def adjoint_map(spec):
    return ApproxMap(maps.adjoint(), NO_PERTURBATION, spec)


def sample_stack(spec, n, rng, rad=(0.1, 10.0)):
    return np.stack([algebra.sample_element(spec, rad, rng) for _ in range(n)])


class TestArithmetic:
    # Stacks of rows add, scale and multiply row by row.
    def test_scalar_add(self):
        got = algebra.element(SCALAR, [2]).data + algebra.element(SCALAR, [3 + 1j]).data
        assert got[0] == 5 + 1j

    def test_add_zero_is_identity(self, any_spec, rng):
        x = algebra.sample_element(any_spec, (0.5, 2.0), rng)
        assert np.array_equal(x + np.zeros(any_spec.shape), x)

    def test_matrix_add(self):
        got = algebra.element(M2, [1, 0, 0, 1]).data + algebra.element(M2, [0, 2, 0, 0]).data
        assert np.array_equal(got, algebra.element(M2, [1, 2, 0, 1]).data)

    def test_scale(self, any_spec, rng):
        x = algebra.sample_element(any_spec, (0.5, 2.0), rng)
        assert np.array_equal(complex(1.0) * x, x)
        assert np.array_equal(complex(0.0) * x, np.zeros(any_spec.shape))
        assert (1j * algebra.element(SCALAR, [2]).data)[0] == 2j

    def test_mul(self):
        def mul(spec, a, b):
            rows = algebra.mul_rows(spec, algebra.element(spec, a).data[None],
                                    algebra.element(spec, b).data[None])
            return rows[0].reshape(-1).tolist()

        assert mul(SCALAR, [2], [3]) == [6]
        assert mul(M2, [0, 1, 0, 0], [0, 1, 0, 0]) == [0, 0, 0, 0]
        assert mul(P2, [1, 2], [3, 4]) == [3, 8]


class TestNorm:
    def test_identity_matrix(self):
        norm = algebra.stacked_norms(M2, algebra.element(M2, [1, 0, 0, 1]).data[None])[0]
        assert norm == pytest.approx(1.0)

    def test_diagonal(self):
        norm = algebra.stacked_norms(M2, algebra.element(M2, [3, 0, 0, 4]).data[None])[0]
        assert norm == pytest.approx(4.0, rel=1e-9)

    def test_nilpotent(self):
        # oracle: singular values of a*a = diag(0, 4) by closed form
        m = [0, 2, 0, 0]
        assert spectral_norm_2x2(np.array(m).reshape(2, 2)) == 2.0
        norm = algebra.stacked_norms(M2, algebra.element(M2, m).data[None])[0]
        assert norm == pytest.approx(2.0, rel=1e-12)

    def test_matches_closed_form_2x2(self, rng):
        X = sample_stack(M2, 200, rng)
        for x, norm in zip(X, algebra.stacked_norms(M2, X)):
            assert norm == pytest.approx(spectral_norm_2x2(x), rel=1e-9)

    def test_kernel_start_fallback(self):
        # all-ones lies in the kernel of a*a, so an iterative method
        # started there would see the zero matrix
        norm = algebra.stacked_norms(M2, algebra.element(M2, [1, -1, 0, 0]).data[None])[0]
        assert norm == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_zero(self, any_spec):
        assert algebra.stacked_norms(any_spec, np.zeros((1, *any_spec.shape), complex)) == [0.0]

    def test_scalar_pointwise(self):
        assert algebra.stacked_norms(SCALAR, np.array([[3 + 4j]])) == [5.0]
        assert algebra.stacked_norms(P2, algebra.element(P2, [1, -2j]).data[None]) == [2.0]

    @pytest.mark.parametrize("spec", [SCALAR, P2, M2, matrix_spec(3)],
                             ids=["scalar", "pointwise", "matrix2", "matrix3"])
    def test_real_stack_is_its_complex_cast(self, spec):
        # LAPACK's real svd gave 18 of these 50 3x3 matrices other last bits
        # than their complex cast.
        X = np.random.default_rng(1).standard_normal((50, *spec.shape))
        got = algebra.stacked_norms(spec, X)
        assert got.tobytes() == algebra.stacked_norms(spec, X.astype(np.complex128)).tobytes()


class TestScalarModulus:
    def test_bits_of_python_abs(self, rng):
        # From subnormal to near overflow, and at zeros, infinities and NaN.
        z = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) * 10.0 ** rng.uniform(
            -320, 307, 20000)
        special = [0.0, -0.0j, -0.0 - 0.0j, 5e-324j, complex(math.inf, 1), complex(1, -math.inf),
                   complex(math.nan, 1), complex(math.inf, math.nan), 1.7e308 + 1e307j]
        z = np.concatenate([z, special])
        got = algebra.stacked_norms(SCALAR, z[:, None])
        assert [v.hex() for v in got] == [abs(v).hex() for v in z.tolist()]

    def test_overflowing_modulus_is_inf(self):
        # A finite entry whose modulus overflows, where Python's abs raises,
        # is inf, whatever the caller's numpy error state, and warns nothing;
        # the other rows keep abs's bits.
        z = np.array([[3.0 + 4.0j], [1.5e308 + 1.5e308j], [1.7e308 + 1e307j]])
        with pytest.raises(OverflowError):
            abs(complex(z[1, 0]))
        want = np.array([5.0, math.inf, abs(complex(z[2, 0]))])
        for state in ("raise", "warn", "ignore"):
            with np.errstate(over=state), warnings.catch_warnings():
                warnings.simplefilter("error")
                assert algebra.stacked_norms(SCALAR, z).tobytes() == want.tobytes()


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


class TestNormRegressions:
    def test_top_singular_vector_orthogonal_to_ones(self):
        # the top singular vector is orthogonal to all-ones, the old start vector
        m = algebra.element(M2, [1.5, -0.5, -0.5, 1.5])
        assert algebra.stacked_norms(M2, m.data[None])[0] == pytest.approx(2.0, rel=1e-15)

    def test_near_equal_singular_values_2x2(self):
        m = algebra.element(M2, [1, 0, 0, 0.99999])
        assert algebra.stacked_norms(M2, m.data[None])[0] == pytest.approx(1.0, rel=1e-15)

    def test_near_equal_singular_values_3x3(self, rng):
        # relative gap 1e-4 between the two largest singular values
        sigma = np.diag([2.0, 2.0 * (1 - 1e-4), 0.5])
        m = _unitary(rng, 3) @ sigma @ _unitary(rng, 3)
        assert algebra.stacked_norms(matrix_spec(3), m[None])[0] == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("spec", [SCALAR, P2, pointwise_spec(5), matrix_spec(1),
                                      M2, matrix_spec(3), matrix_spec(5)],
                             ids=lambda s: f"{s.kind.value}{s.dim}")
    def test_stack_matches_single_calls(self, spec, rng):
        shape = (64, *spec.shape)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack[0] = 0.0
        single = [algebra.stacked_norms(spec, m[None]).tolist()[0] for m in stack]
        assert algebra.stacked_norms(spec, stack).tolist() == single


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
        got = algebra.stacked_norms(matrix_spec(m.shape[0]), m[None])[0]
        ref = mp_operator_norm(m)
        assert abs(got - ref) <= 1e-13 * ref


# The closed form's forward error bound for 2x2 matrices in the safe range,
# derived in README ("Operator norm"): 7.21u to first order, u = 2^-53.
CLOSED_FORM_BOUND = 8 * 2.0 ** -53


def mp_norm_2x2(m: np.ndarray) -> mpmath.mpf:
    """50-digit reference for a 2x2 matrix: the square root of the largest
    eigenvalue of m^H m, from its diagonal a, c and off-diagonal b."""
    with mpmath.workdps(50):
        (w, x), (y, z) = [[mpmath.mpc(complex(v)) for v in row] for row in m]
        a, c = abs(w) ** 2 + abs(y) ** 2, abs(x) ** 2 + abs(z) ** 2
        b = abs(mpmath.conj(w) * x + mpmath.conj(y) * z)
        return mpmath.sqrt((a + c) / 2 + mpmath.sqrt(((a - c) / 2) ** 2 + b ** 2))


def within_bound(got: float, ref: mpmath.mpf, bound: float) -> bool:
    with mpmath.workdps(50):
        return abs(got - ref) <= bound * ref


@st.composite
def scaled_matrix_stacks(draw):
    """A stack of general, rank-1 or near-unitary d x d matrices, d = 1..4,
    some rows zero, scaled by a power of ten from 1e-300 to 1e160: across
    the closed form's safe range, the underflow of the squares of the
    entries and their overflow above about 1e154."""
    d = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 3))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=2 * rows * d * d, max_size=2 * rows * d * d)
    M = np.array(draw(parts)).view(np.complex128).reshape(rows, d, d)
    form = draw(st.sampled_from(["general", "rank-1", "near-unitary"]))
    if form == "rank-1":
        M = M[:, :, :1] * M[:, :1, :].conj()
    elif form == "near-unitary":
        M = np.linalg.qr(M)[0] + 1e-9 * M
    M[draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = 0
    return M * 10.0 ** draw(st.integers(-300, 160))


def reference_norm_2x2(m: np.ndarray) -> float:
    """README's closed form for one 2x2 matrix in Python floats, with libm's
    hypot as Python's complex abs (math.hypot rounds differently); a matrix
    outside the safe range, and not zero, gets its own svd call."""
    parts = [p for z in np.asarray(m, dtype=complex).reshape(-1).tolist()
             for p in (z.real, z.imag)]
    largest = max(abs(p) for p in parts)
    lo, hi = algebra.EXACT_SCALING_RANGE
    if largest != 0.0 and not lo <= largest <= hi:
        return float(np.linalg.svd(m[None], compute_uv=False)[0, 0])

    def hypot(x, y):
        return abs(complex(x, y))

    r00, i00, r01, i01, r10, i10, r11, i11 = parts
    a = (r00 * r00 + i00 * i00) + (r10 * r10 + i10 * i10)
    c = (r01 * r01 + i01 * i01) + (r11 * r11 + i11 * i11)
    b = hypot((r00 * r01 + i00 * i01) + (r10 * r11 + i10 * i11),
              (r00 * i01 - i00 * r01) + (r10 * i11 - i10 * r11))
    return math.sqrt(0.5 * (a + c) + hypot(0.5 * (a - c), b))


_EDGE_PARTS = [0.0, -0.0, 1e-120, 1e120, -1e-120, -1e120, 5e-121, 2e120, 5e-324, 1e-300]


@st.composite
def kernel_inputs(draw):
    """Up to 6 2x2 matrices, each at its own scale from 1e-300 to 1e140 and
    with parts at the safe range's edges mixed in, handed over complex or
    real (a strided view of the real parts), as built, Fortran-ordered, or
    as a strided or transposed view."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        scale = draw(st.sampled_from([1.0, 1e-300, 1e-125, 1e-110, 1e110, 1e125, 1e140]))
        part = st.one_of(st.sampled_from(_EDGE_PARTS), st.floats(-4.0, 4.0).map(scale.__mul__))
        rows.append(draw(st.lists(part, min_size=8, max_size=8)))
    M = np.array(rows, dtype=float).reshape(-1, 8).view(np.complex128).reshape(-1, 2, 2)
    if draw(st.booleans()):
        M = M.real
    layout = draw(st.sampled_from(["as built", "F", "strided", "transposed"]))
    if layout == "F":
        return np.asfortranarray(M)
    if layout == "strided":
        return np.repeat(np.repeat(M, 2, axis=0), 2, axis=2)[::2, :, ::2]
    return M.transpose(0, 2, 1) if layout == "transposed" else M


class TestOperatorNorm:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(scaled_matrix_stacks())
    @example(np.ones((1, 2, 2), dtype=complex))
    @example(np.zeros((2, 2, 2), dtype=complex))
    @example(np.full((1, 3, 3), 1e-300, dtype=complex))
    @example(np.full((1, 2, 2), 1e155 + 1e155j))
    @example(np.array([[[1e-120, 0], [0, 1e-120]], [[1e120, 1e120j], [0, 1e120]],
                       [[1.0, 1e-300], [1e-320j, 0]], [[5e-121, 0], [0, 1]],
                       [[2e120, 0], [0, 1]]]))
    def test_rows_match_single_calls_and_svd(self, M):
        # Each row has the bits of its own call.  A 2x2 row that is zero or
        # whose largest part is in the safe range takes the closed form,
        # within its bound of the exact norm; every other row takes LAPACK's
        # bits.
        spec = matrix_spec(M.shape[1])
        norms = algebra.stacked_norms(spec, M)
        assert norms.tolist() == [algebra.stacked_norms(spec, m[None]).tolist()[0] for m in M]
        svd = np.linalg.svd(M, compute_uv=False)[:, 0].tolist()
        largest = np.abs(M.view(np.float64)).reshape(len(M), -1).max(axis=1)
        lo, hi = algebra.EXACT_SCALING_RANGE
        closed = (largest == 0) | ((largest >= lo) & (largest <= hi))
        for m, got, want, in_range in zip(M, norms, svd, closed):
            if M.shape[1] != 2 or not in_range:
                assert got == want
            else:
                assert within_bound(got, mp_norm_2x2(m), CLOSED_FORM_BOUND)
                # LAPACK is within a few ulps too (at most 4.8u measured).
                assert abs(got - want) <= 2 * CLOSED_FORM_BOUND * want

    def test_closed_form_within_its_bound(self, rng):
        # Gaussian, rank-1, near-unitary and near-tie diagonal matrices at
        # scales e^+-80, against the 50-digit reference.
        G = rng.standard_normal((4, 500, 2, 2, 2)).view(np.complex128)[..., 0]
        Q = np.linalg.qr(G[2])[0]
        ties = np.zeros((500, 2, 2), dtype=complex)
        ties[:, 0, 0], ties[:, 1, 1] = 1, 1 + 1e-15 * rng.standard_normal(500)
        forms = [G[0], G[1][:, :, :1] * G[1][:, :1, :].conj(), Q + 1e-9 * G[3], ties]
        M = np.concatenate(forms) * np.exp(rng.uniform(-80, 80, (2000, 1, 1)))
        for m, got in zip(M, algebra.stacked_norms(M2, M)):
            assert within_bound(got, mp_norm_2x2(m), CLOSED_FORM_BOUND)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(kernel_inputs())
    @example(np.zeros((0, 2, 2), dtype=complex))
    @example(np.zeros((0, 2, 2)))
    @example(np.array([[[1e-120, -0.0], [0, 1e-120j]], [[1e140, 1], [0, 0]],
                       [[-1e120, 1e120j], [5e-324, 1]], [[5e-121, 0], [0, -0.0j]],
                       [[0, 0], [0, -0.0]], [[1.0, 1e-300], [1e-320j, 0]]]))
    def test_bits_match_formula_per_row(self, M):
        # Each row has the bits of README's formula, evaluated for that row
        # alone in Python floats, or of its own svd call.
        got = algebra.stacked_norms(M2, M)
        assert [v.hex() for v in got] == [reference_norm_2x2(m).hex() for m in M]


_SPECS = {"scalar": SCALAR, "pointwise3": pointwise_spec(3), "matrix2": M2,
          "matrix3": matrix_spec(3)}


@st.composite
def scaled_stacks(draw):
    """(spec, X, q, n): a stack whose parts are 0 or m * 2^e with m in
    [1, 2) and |e| <= 330, rows spread over up to 2^60, and a power q^n
    with n <= 60, so that X and q^n X stay inside EXACT_SCALING_RANGE
    (2^-398 .. 2^398)."""
    spec = _SPECS[draw(st.sampled_from(sorted(_SPECS)))]
    rows = draw(st.integers(1, 4))
    size = rows * 2 * spec.n_entries
    center = draw(st.integers(-300, 300))
    exps = draw(st.lists(st.integers(center - 30, center + 30), min_size=size, max_size=size))
    mants = draw(st.lists(st.floats(1.0, 2.0, exclude_max=True), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=size, max_size=size))
    parts = np.array([s * math.ldexp(m, e) for s, m, e in zip(signs, mants, exps)])
    X = parts.view(np.complex128).reshape(rows, *spec.shape)
    return spec, X, draw(st.sampled_from([2.0, 0.5])), draw(st.integers(0, 60))


class TestExactScaling:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(scaled_stacks())
    def test_norm_scales_bit_for_bit(self, case):
        # Inside the range every square and product of two parts is a normal
        # number, so a power of two scales each step of the closed form, and
        # of the other kinds' norms, exactly: ||q^n x|| = q^n ||x||, with
        # q^n x built as the orbit builds it.
        spec, X, q, n = case
        Y, power = X, 1.0
        for _ in range(n):
            Y, power = complex(q) * Y, power * q
        assert algebra.stacked_norms(spec, Y).tolist() == [
            power * v for v in algebra.stacked_norms(spec, X).tolist()]

    def test_range_edges(self, monkeypatch):
        # A 2x2 row takes the closed form when it is zero or its largest part
        # lies in the range, edges included, however small its other parts;
        # every other finite row, and every finite 3x3 row, takes LAPACK's
        # svd, and a row with a part that is not finite neither.  A single
        # nonzero part p, in any of the eight slots, has the norm |p|.
        lo, hi = algebra.EXACT_SCALING_RANGE
        inside = [0.0, lo, hi, -lo, -hi, 1.0]
        outside = [lo / 2, hi * 2, 1e-140, 1e140, 5e-324]
        svd_rows = []

        def recording_svd(a, compute_uv):
            svd_rows.extend(a.copy())
            return np.full(a.shape[:-1], -1.0)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)

        def single_parts(part):
            parts = np.zeros((8, 8))
            np.fill_diagonal(parts, part)
            return parts.view(np.complex128).reshape(8, 2, 2)

        for part in inside:
            assert algebra.stacked_norms(M2, single_parts(part)).tolist() == [abs(part)] * 8
        tiny = np.array([[[1.0, 1e-300], [1e-320j, 0]]])
        assert algebra.stacked_norms(M2, tiny).tolist() == [1.0]
        for part in (math.inf, -math.inf, math.nan):
            got = algebra.stacked_norms(M2, single_parts(part))
            assert got.tobytes() == np.full(8, abs(part)).tobytes()
        assert svd_rows == []
        for part in outside:
            M = single_parts(part)
            assert algebra.stacked_norms(M2, M).tolist() == [-1.0] * 8
            assert np.array(svd_rows).tobytes() == M.tobytes()
            svd_rows.clear()
        assert algebra.stacked_norms(matrix_spec(3), np.eye(3)[None]).tolist() == [-1.0]
        # Mixed in one stack, each row keeps its own path and place.
        M = np.concatenate([single_parts(p) for p in [1.0, 1e140, lo, hi * 2]])
        assert algebra.stacked_norms(M2, M).tolist() == (
            [1.0] * 8 + [-1.0] * 8 + [lo] * 8 + [-1.0] * 8)

    @pytest.mark.parametrize("spec", list(_SPECS.values()), ids=list(_SPECS))
    @pytest.mark.parametrize("size", [1e-140, 1e140])
    def test_rows_near_lapack_thresholds_match_single_calls(self, spec, size, rng):
        # Rows with entries near where LAPACK rescales are outside the range;
        # stacked with rows inside it, each row of f has the bits of its own
        # call, and its perturbation the amplitude of its own norm.
        p = maps.PerturbationSpec("fixed_direction", 0.1, 0.5, 5)
        f = ApproxMap(maps.adjoint(), p, spec)
        X = sample_stack(spec, 8, rng)
        X[::2] *= complex(size)
        got = maps.eval_f_rows(f, X)
        delta = maps._perturbation_rows(p, spec, X)
        u = maps._fixed_direction(5, spec)
        for x, row, d in zip(X, got, delta):
            assert row.tobytes() == maps.eval_f_rows(f, x[None])[0].tobytes()
            amplitude = 0.1 * algebra.stacked_norms(spec, x[None]).tolist()[0] ** 0.5
            assert d.tobytes() == (complex(amplitude) * u).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_entry_modulus_is_inf(self, d, rng):
        # An entry 1.5e308 + 1.5e308j has a modulus above the float range, and
        # LAPACK's svd, scaling by it, gave NaN.  Its matrix's norm is inf,
        # alone and in a mixed stack, and a matrix whose entry norms overflow
        # but whose operator norm does not gets its norm; every other row
        # keeps the bits of its own call.
        spec = matrix_spec(d)
        big = np.full((1, d, d), 1.5e308 + 1.5e308j)
        assert algebra.stacked_norms(spec, big).tolist() == [math.inf]
        edge = np.full((1, d, d), (1.2e308 + 1.2e308j) / d)
        stack = np.concatenate([sample_stack(spec, 2, rng), big, np.full((1, d, d), 1e308 + 0j),
                                1e200 * sample_stack(spec, 1, rng), edge])
        got = algebra.stacked_norms(spec, stack)
        assert got[[2, 3]].tolist() == [math.inf, math.inf]
        assert got[5] == pytest.approx(1.2e308 * math.sqrt(2))
        for k in (0, 1, 3, 4):
            assert got[k:k + 1].tobytes() == algebra.stacked_norms(spec, stack[k:k + 1]).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_finite_rows(self, d, rng, capfd):
        # A matrix with an infinite part has norm inf, and one with a NaN
        # part NaN, as the modulus and the sup norm give, alone and in a
        # mixed stack, with nothing printed; LAPACK printed DLASCL's
        # complaint to stdout for the first at d = 3 and raised LinAlgError
        # for the second.  The finite rows keep the bits of their own call.
        spec = matrix_spec(d)
        inf, nan = np.full((1, d, d), math.inf + 0j), np.full((1, d, d), math.nan + 0j)
        mixed = sample_stack(spec, 1, rng)
        mixed[0, 0, -1] = complex(math.inf, math.nan)
        one_inf = sample_stack(spec, 1, rng)
        one_inf[0, -1, 0] = complex(-math.inf, 0.0)
        for row, want in ((inf, math.inf), (nan, math.nan), (mixed, math.nan),
                          (one_inf, math.inf)):
            assert algebra.stacked_norms(spec, row).tobytes() == np.array([want]).tobytes()
        finite = sample_stack(spec, 2, rng)
        stack = np.concatenate([finite[:1], inf, nan, mixed, 1e200 * finite[1:], one_inf])
        got = algebra.stacked_norms(spec, stack)
        assert got[[1, 2, 3, 5]].tobytes() == np.array(
            [math.inf, math.nan, math.nan, math.inf]).tobytes()
        for k in (0, 4):
            assert got[k:k + 1].tobytes() == algebra.stacked_norms(spec, stack[k:k + 1]).tobytes()
        assert capfd.readouterr() == ("", "")


# Entries the row reductions must treat exactly: signed zeros, infinities,
# NaN, the extremes of float64, and uint64 words whose sums wrap.
_FLOAT_PALETTE = np.array([math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -2.5, 5e-324,
                           1.7976931348623157e308])
_WORD_PALETTE = np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15], dtype=np.uint64)


@st.composite
def reduction_cases(draw):
    ufunc, dtype = draw(st.sampled_from([
        (np.maximum, np.float64), (np.logical_and, np.bool_), (np.logical_and, np.float64),
        (np.logical_or, np.bool_), (np.logical_or, np.complex128), (np.add, np.uint64)]))
    n = draw(st.sampled_from([0, 1, 7, 300]))
    shape = draw(st.sampled_from([(1,), (3,), (4,), (2, 2), (3, 3)]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))
    size = n * math.prod(shape)
    if dtype is np.uint64:
        a = np.where(rng.random(size) < 0.5, rng.choice(_WORD_PALETTE, size),
                     rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False))
    elif dtype is np.bool_:
        a = rng.random(size) < draw(st.sampled_from([0.05, 0.5, 0.95]))
    else:
        a = rng.choice(_FLOAT_PALETTE, size * (2 if dtype is np.complex128 else 1)).view(dtype)
    if ufunc is np.maximum:
        # Every max the pipeline takes is over moduli: between -0.0 and
        # +0.0 np.maximum keeps its first operand, so only there would the
        # order of the entries show.
        a = np.abs(a)
    return ufunc, a.reshape(n, *shape)


class TestRowReduce:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(reduction_cases())
    @example((np.add, np.array([[2**64 - 1, 2, 2**63], [2**63, 2**63, 0]], dtype=np.uint64)))
    def test_matches_trailing_axis_reduce(self, case):
        # The leading-axis layout gives each row the result of reducing its
        # own entries, bit for bit, NaN where NaN, and wrapping uint64 sums.
        ufunc, a = case
        got = algebra._row_reduce(ufunc, a)
        expected = ufunc.reduce(a.reshape(len(a), math.prod(a.shape[1:])), axis=1)
        assert got.dtype == expected.dtype and got.shape == (len(a),)
        if got.dtype == np.float64:
            assert (np.isnan(got) == np.isnan(expected)).all()
            got, expected = (np.where(np.isnan(v), 0.0, v) for v in (got, expected))
        assert got.tobytes() == expected.tobytes()


# Powers of norms must have the bits of Python's v ** r, which calls libm's
# pow: numpy's power and v * v take other routes.  On glibc 2.36 with numpy
# 2.4.6, np.power(v, 0.5) differed from v ** 0.5 on 309 of 400,000 values
# log-uniform in [1e-3, 1e3], and v * v from v ** 2 on 1,658 of 2,000,000
# values in [1, 10); 2.9980962533624482 ** 2 is 8.98858114442595, while
# v * v is 8.988581144425948.  Which values differ depends on the libm, so
# only the contract, equality with **, is asserted.
_POW_VALUES = [0.0, 5e-324, 1e-300, 1.0, 2.9980962533624482, 7.402111382695461, 1e150,
               math.inf]


class TestLibmPow:
    @pytest.mark.parametrize("r", [0.25, 0.5, 1.5, 2, 3.0])
    def test_matches_python_pow(self, r):
        # One call: inf exactly where ** raises, the bits of ** elsewhere.
        draws = np.exp(np.random.default_rng(2024).uniform(math.log(1e-3), math.log(1e3), 2000))
        values, want = _POW_VALUES + draws.tolist(), []
        for v in values:
            try:
                want.append(v ** r)
            except OverflowError:
                want.append(None)
        got = algebra._libm_pow(np.array(values), r)
        assert got.dtype == np.float64 and got.shape == (len(values),)
        assert [w is None for w in want] == [v < math.inf and g == math.inf
                                             for v, g in zip(values, got.tolist())]
        assert got.tobytes() == np.array([math.inf if w is None else w for w in want]).tobytes()

    def test_inf_where_python_pow_overflows(self):
        with pytest.raises(OverflowError):
            1e300 ** 2
        for values, want in (([1e300], [math.inf]), ([1.0, 1e300, 3.0], [1.0, math.inf, 9.0])):
            assert algebra._libm_pow(np.array(values), 2).tolist() == want
        # An infinite value is no overflow, for ** or the helper.
        assert algebra._libm_pow(np.array([math.inf, 1e150]), 2).tolist() == [math.inf, 1e150 ** 2]

    def test_empty(self):
        got = algebra._libm_pow(np.empty(0), 0.5)
        assert got.dtype == np.float64 and got.shape == (0,)


class TestConjTranspose:
    # The adjoint on stacks: conjugate transpose for matrices, entrywise
    # conjugate otherwise.
    def test_scalar(self):
        got = maps.eval_f_rows(adjoint_map(SCALAR), np.array([[2 + 3j]]))
        assert got[0, 0] == 2 - 3j

    def test_matrix(self):
        got = maps.eval_f_rows(adjoint_map(M2), algebra.element(M2, [0, 1, 0, 0]).data[None])
        assert np.array_equal(got[0], algebra.element(M2, [0, 0, 1, 0]).data)

    def test_hermitian_fixed_point(self):
        h = algebra.element(M2, [1, 2 + 1j, 2 - 1j, -3]).data
        assert np.array_equal(maps.eval_f_rows(adjoint_map(M2), h[None])[0], h)

    def test_involutive_bit_exact(self, any_spec, rng):
        X = sample_stack(any_spec, 50, rng)
        f = adjoint_map(any_spec)
        assert maps.eval_f_rows(f, maps.eval_f_rows(f, X)).tobytes() == X.tobytes()


class TestSampling:
    def test_unit_radius(self, rng):
        z = algebra.sample_element(SCALAR, (1.0, 1.0), rng)
        assert abs(algebra.stacked_norms(SCALAR, z[None])[0] - 1.0) <= 1e-12

    def test_radius_range(self, any_spec, rng):
        for norm in algebra.stacked_norms(any_spec, sample_stack(any_spec, 100, rng)):
            assert 0.1 * (1 - 1e-9) <= norm <= 10.0 * (1 + 1e-9)

    def test_deterministic(self, any_spec):
        a = algebra.sample_element(any_spec, (0.5, 2.0), np.random.Generator(np.random.PCG64(5)))
        b = algebra.sample_element(any_spec, (0.5, 2.0), np.random.Generator(np.random.PCG64(5)))
        assert a.shape == any_spec.shape and np.array_equal(a, b)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            algebra.sample_element(SCALAR, (0.0, 1.0), np.random.Generator(np.random.PCG64(5)))

    def test_infinite_radius_max(self):
        # numpy's uniform refused the infinite log span; the radius formula
        # would draw an infinite or NaN norm.
        with pytest.raises(ValueError, match="invalid radius range"):
            algebra.sample_rows(SCALAR, 1, np.random.Generator(np.random.PCG64(5)), (1.0, math.inf))

    @pytest.mark.parametrize("radius_range", [None, (1e-3, 1e3)], ids=["unit", "range"])
    def test_one_row_draws_are_one_stacked_draw(self, any_spec, radius_range):
        # k one-row draws from one generator give the bits of one k-row draw.
        one, stacked = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
        rows = [algebra.sample_rows(any_spec, 1, one, radius_range)[0] for _ in range(7)]
        got = algebra.sample_rows(any_spec, 7, stacked, radius_range)
        assert got.shape == (7, *any_spec.shape)
        assert got.tobytes() == np.stack(rows).tobytes()

    def test_unit_rows_have_norm_one(self, any_spec):
        # Each row is divided by its norm in place, to norm 1 within 2u for
        # u = 2^-52: the norm, its inverse, the scaled parts and the norm
        # taken again each round once.  (LAPACK's norms of 3x3 matrices
        # reached 4.5u on 20,000 rows.)
        rows = algebra.sample_rows(any_spec, 2000, np.random.Generator(np.random.PCG64(7)))
        assert np.all(np.abs(algebra.stacked_norms(any_spec, rows) - 1.0) <= 2 * 2.0 ** -52)
        assert algebra.unit_rows(any_spec, rows) is rows


def sample_pairs(spec, n, rng):
    """Stacks A, B of n sampled pairs, drawn a then b."""
    AB = np.array([[algebra.sample_element(spec, (0.1, 10.0), rng) for _ in range(2)]
                   for _ in range(n)])
    return AB[:, 0], AB[:, 1]


class TestBanachAlgebraLaws:
    def test_submultiplicative(self, any_spec, rng):
        A, B = sample_pairs(any_spec, 1000, rng)
        norms = functools.partial(algebra.stacked_norms, any_spec)
        for ab, a, b in zip(norms(algebra.mul_rows(any_spec, A, B)), norms(A), norms(B)):
            assert ab <= a * b + 1e-9

    def test_cstar_identity_of_reference(self, any_spec, rng):
        A = sample_stack(any_spec, 1000, rng)
        star = maps.eval_f_rows(adjoint_map(any_spec), A)
        lhs = algebra.stacked_norms(any_spec, algebra.mul_rows(any_spec, star, A))
        for got, a in zip(lhs, algebra.stacked_norms(any_spec, A)):
            assert got == pytest.approx(a ** 2, rel=1e-9)

    def test_antihomomorphism(self, any_spec, rng):
        A, B = sample_pairs(any_spec, 200, rng)
        f = adjoint_map(any_spec)
        lhs = maps.eval_f_rows(f, algebra.mul_rows(any_spec, A, B))
        rhs = algebra.mul_rows(any_spec, maps.eval_f_rows(f, B), maps.eval_f_rows(f, A))
        norms = functools.partial(algebra.stacked_norms, any_spec)
        for diff, norm in zip(norms(lhs - rhs), norms(lhs)):
            assert diff <= 1e-12 * max(1.0, norm)

    def test_norm_scaling(self, any_spec, rng):
        rows, lams = [], []
        for _ in range(200):
            rows.append(algebra.sample_element(any_spec, (0.1, 10.0), rng))
            lams.append(complex(rng.standard_normal(), rng.standard_normal()))
        A = np.stack(rows)
        L = np.array(lams).reshape((-1,) + (1,) * len(any_spec.shape))
        norms = functools.partial(algebra.stacked_norms, any_spec)
        for got, lam, a in zip(norms(L * A), lams, norms(A)):
            assert got == pytest.approx(abs(lam) * a, rel=1e-10)
