import struct
import sys
import threading

import numpy as np
import pytest

from involstab import algebra, maps
from involstab.algebra import SCALAR, matrix_spec, pointwise_spec
from involstab.errors import DegenerateDirection, KindSpecMismatch, SpecMismatch
from involstab.maps import (
    ApproxMap,
    Involution,
    LambdaSampler,
    NO_PERTURBATION,
    PerturbationSpec,
)

M2 = matrix_spec(2)
M3 = matrix_spec(3)
P3 = pointwise_spec(3)
P4 = pointwise_spec(4)
P7 = pointwise_spec(7)

DIAG12 = algebra.element(M2, [1, 0, 0, 2])


def radial(theta, r, seed=None):
    return PerturbationSpec("fixed_direction", theta, r, direction_seed=seed)


# f(z) = conj(z) + 0.1*|z|^{1/2} on scalars, canonical direction u = 1
SCALAR_F = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)


def involution_rows(kind, spec, X):
    """The involution on a stack, as the unperturbed map over its base."""
    return maps.eval_f_rows(ApproxMap(kind, NO_PERTURBATION, spec), X)


def sample_stack(spec, n, rng, rad=(0.1, 10.0)):
    return np.stack([algebra.sample_element(spec, rad, rng) for _ in range(n)])


def norms(spec, X):
    return algebra.stacked_norms(spec, X)


class TestEvalInvolution:
    def test_adjoint(self):
        x = algebra.element(M2, [0, 1, 0, 0]).data
        got = involution_rows(maps.adjoint(), M2, x[None])[0]
        assert np.array_equal(got, algebra.element(M2, [0, 0, 1, 0]).data)

    def test_twisted(self):
        # direct 2x2 computation of s^{-1} x* s with s = diag(1, 2)
        x = algebra.element(M2, [0, 1, 0, 0]).data
        got = involution_rows(maps.twisted_adjoint(DIAG12), M2, x[None])[0]
        assert np.array_equal(got, algebra.element(M2, [0, 0, 0.5, 0]).data)

    def test_twice_is_identity(self, any_spec, rng):
        kinds = [maps.adjoint()]
        if any_spec.kind is algebra.AlgebraKind.MATRIX:
            kinds.append(maps.twisted_adjoint(DIAG12))
        else:
            kinds.append(maps.conjugation())
        for kind in kinds:
            X = sample_stack(any_spec, 50, rng)
            twice = involution_rows(kind, any_spec, involution_rows(kind, any_spec, X))
            assert np.all(norms(any_spec, twice - X)
                          <= 1e-12 * np.maximum(1.0, norms(any_spec, X)))

    def test_conjugation_rejected_on_matrices(self):
        with pytest.raises(KindSpecMismatch):
            involution_rows(maps.conjugation(), M2, algebra.element(M2, [1, 0, 0, 1]).data[None])

    def test_twist_must_be_hermitian_invertible(self):
        with pytest.raises(ValueError):
            maps.twisted_adjoint(algebra.element(M2, [0, 1, 0, 0]))
        with pytest.raises(ValueError):
            maps.twisted_adjoint(algebra.element(M2, [1, 0, 0, 0]))


class TestInvolutionAxioms:
    """Axioms (i)-(iii) on >= 1000 random tuples per involution kind."""

    @pytest.mark.parametrize("spec,kind", [
        (M2, maps.adjoint()),
        (M2, maps.twisted_adjoint(DIAG12)),
        (SCALAR, maps.conjugation()),
        (P3, maps.conjugation()),
    ], ids=["adjoint", "twisted", "conj-scalar", "conj-pointwise"])
    def test_axioms(self, spec, kind, rng):
        xs, ys, lams, mus = [], [], [], []
        for _ in range(1000):
            xs.append(algebra.sample_element(spec, (0.1, 10.0), rng))
            ys.append(algebra.sample_element(spec, (0.1, 10.0), rng))
            lams.append(complex(rng.standard_normal(), rng.standard_normal()))
            mus.append(complex(rng.standard_normal(), rng.standard_normal()))
        X, Y = np.stack(xs), np.stack(ys)
        column = (-1,) + (1,) * len(spec.shape)
        lam, mu = np.array(lams).reshape(column), np.array(mus).reshape(column)

        def k(Z):
            return involution_rows(kind, spec, Z)

        nx, ny = norms(spec, X), norms(spec, Y)
        scale_ref = np.maximum(1.0, nx + ny)
        assert np.all(norms(spec, k(k(X)) - X) <= 1e-12 * scale_ref)
        lhs = k(lam * X + mu * Y)
        rhs = np.conj(lam) * k(X) + np.conj(mu) * k(Y)
        assert np.all(norms(spec, lhs - rhs) <= 1e-10 * scale_ref)
        lhs = k(algebra.mul_rows(spec, X, Y))
        rhs = algebra.mul_rows(spec, k(Y), k(X))
        assert np.all(norms(spec, lhs - rhs) <= 1e-10 * np.maximum(1.0, nx * ny))


class TestPerturbation:
    def test_none_and_zero(self, any_spec):
        Z = np.zeros((1, *any_spec.shape), dtype=np.complex128)
        assert np.array_equal(maps._perturbation_rows(NO_PERTURBATION, any_spec, Z), Z)
        for kind in ("fixed_direction", "random_direction"):
            p = PerturbationSpec(kind, 0.1, 0.5, direction_seed=3)
            assert np.array_equal(maps._perturbation_rows(p, any_spec, Z), Z)

    def test_scalar_canonical_direction(self):
        # 0.1 * 4^{0.5} by direct arithmetic
        got = maps._perturbation_rows(radial(0.1, 0.5), SCALAR, np.array([[4.0 + 0j]]))
        assert got[0, 0] == pytest.approx(0.2, abs=1e-14)

    def test_envelope(self, any_spec, rng):
        for kind in ("fixed_direction", "random_direction"):
            p = PerturbationSpec(kind, 0.07, 0.5, direction_seed=9)
            X = sample_stack(any_spec, 200, rng)
            delta = maps._perturbation_rows(p, any_spec, X)
            assert np.all(norms(any_spec, delta) <= 0.07 * norms(any_spec, X) ** 0.5 + 1e-12)

    def test_negative_direction_seed_rejected(self):
        for kind in ("fixed_direction", "random_direction"):
            with pytest.raises(ValueError):
                PerturbationSpec(kind, 0.1, 0.5, direction_seed=-1)

    def test_random_direction_is_a_function(self, rng):
        p = PerturbationSpec("random_direction", 0.1, 0.5, direction_seed=4)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        again = algebra.element(M2, x.reshape(-1)).data
        assert np.array_equal(maps._perturbation_rows(p, M2, x[None]),
                              maps._perturbation_rows(p, M2, again[None]))


class TestEvalF:
    def test_unperturbed_is_reference(self, rng):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert np.array_equal(maps.eval_f_rows(f, x[None])[0], x.conj().T)

    def test_scalar_example(self):
        # 4 + 0.1*2 by direct arithmetic
        assert maps.eval_f_rows(SCALAR_F, np.array([[4.0 + 0j]]))[0, 0] == pytest.approx(4.2)

    def test_zero_maps_to_zero(self, any_spec):
        base = maps.adjoint() if any_spec.kind is algebra.AlgebraKind.MATRIX else maps.conjugation()
        f = ApproxMap(base, radial(0.3, 0.5, seed=2), any_spec)
        Z = np.zeros((1, *any_spec.shape), dtype=np.complex128)
        assert np.array_equal(maps.eval_f_rows(f, Z), Z)


class TestLambdaSampler:
    def test_stages_and_contracts(self):
        ls = LambdaSampler(n0=3, arc=5, circle=5, reals=4, cplx=4, seed=8)
        lams = maps.sample_lambdas(ls)
        assert lams[0] == ("arc", 1.0 + 0.0j)
        for stage, lam in lams:
            if stage == "arc":
                assert abs(abs(lam) - 1.0) <= 1e-12
                assert 0.0 <= np.angle(lam) <= 1.0 / 3 + 1e-12
            elif stage == "circle":
                assert abs(abs(lam) - 1.0) <= 1e-12
            elif stage == "reals":
                assert lam.imag == 0.0 and 0.1 <= lam.real <= 10.0
            else:
                assert 0.1 * (1 - 1e-9) <= abs(lam) <= 10.0 * (1 + 1e-9)

    def test_deterministic(self):
        ls = LambdaSampler(n0=2, seed=3)
        assert maps.sample_lambdas(ls) == maps.sample_lambdas(ls)

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaSampler(n0=0)
        with pytest.raises(ValueError):
            LambdaSampler(n0=1, arc=0)


class TestEvalFRows:
    @pytest.mark.parametrize("f", [
        ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR),
        ApproxMap(maps.conjugation(), NO_PERTURBATION, P3),
        ApproxMap(maps.conjugation(), PerturbationSpec("random_direction", 0.1, 0.5, 3), P3),
        ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2),
        ApproxMap(maps.twisted_adjoint(DIAG12),
                  PerturbationSpec("random_direction", 0.1, 0.5, 1), M2),
    ], ids=["scalar-fixed", "pointwise-none", "pointwise-random", "matrix-fixed",
            "twisted-random"])
    def test_rows_match_eval_f(self, rng, f):
        # A row's value is the same bits as in a one-row stack.
        X = np.concatenate([np.zeros((1, *f.spec.shape), dtype=np.complex128),
                            sample_stack(f.spec, 6, rng, (1e-7, 10.0))])
        rows = maps.eval_f_rows(f, X)
        assert rows.shape == (len(X), *f.spec.shape)
        for k, x in enumerate(X):
            assert maps.eval_f_rows(f, x[None])[0].tobytes() == rows[k].tobytes()

    def test_rows_shape_mismatch(self):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        with pytest.raises(SpecMismatch):
            maps.eval_f_rows(f, np.zeros((2, 3, 3), dtype=complex))


Generator = np.random.Generator
MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15
# None, seeds of one 64-bit digit at both ends, and of two and three digits.
EDGE_SEEDS = [None, 0, 2**64 - 1, 2**64, 2**130]


def splitmix(z):
    """splitmix64's finalizer on a Python int below 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_direction(q, seed):
    """One quantized point's unnormalized hashed direction, in Python ints
    from README's specification: the seed folded into k0, the salts, the
    key of the point's float64 words and each part's map to (-1, 1)."""
    k0 = 0
    if seed is not None:
        count = max(1, (seed.bit_length() + 63) // 64)
        for word in [count] + [(seed >> (64 * i)) & MASK64 for i in range(count)]:
            k0 = splitmix(k0 ^ word)
    words = [int.from_bytes(struct.pack("<d", part), "little")
             for z in q.reshape(-1).tolist() for part in (z.real, z.imag)]
    width = len(words)
    salts = [splitmix((k0 + (j + 1) * GAMMA) & MASK64) for j in range(2 * width)]
    key = sum(splitmix(w ^ s) for w, s in zip(words, salts)) & MASK64
    odd = [(splitmix((key + salts[width + j]) & MASK64) >> 11) | 1 for j in range(width)]
    return np.array([(m - 2**52) * 2.0**-52 for m in odd]).view(np.complex128).reshape(q.shape)


class FirstDrawsZero:
    """A Generator whose first `zeros` draws come out all zero; each still
    consumes its share of the stream."""

    def __init__(self, bits, zeros):
        self._rng, self._zeros = Generator(bits), zeros

    def standard_normal(self, out):
        self._rng.standard_normal(out=out)
        if self._zeros:
            self._zeros -= 1
            out[...] = 0.0
        return out


def quantize(X):
    """Each real and imaginary part rounded to 1e-6 on its own, in float64."""
    return (np.rint(np.ascontiguousarray(X).view(np.float64) * 1e6) / 1e6).view(np.complex128)


def quantized_stack(spec, n, rng):
    Q = quantize(sample_stack(spec, n, rng, (1e-7, 10.0)))
    Q[0] = complex(-0.0, -0.0)  # parts whose bits differ from +0.0
    Q[-1].reshape(-1)[0] = -0.0  # and one next to nonzero entries
    return Q


class TestHashedGaussians:
    """The hashed directions, which replaced hashed Gaussian draws, against
    a per-row reference of README's specification; and the seeded Gaussian
    rows of probes and fixed directions."""

    @pytest.mark.parametrize("n", [1, 50, 129, 300])
    @pytest.mark.parametrize("seed", [None, 7] + EDGE_SEEDS[1:], ids=str)
    @pytest.mark.parametrize("any_spec", [SCALAR, M2, P3, P7, M3],
                             ids=["scalar", "matrix", "pointwise", "pointwise7", "matrix3"])
    def test_rows_match_per_row_reference(self, any_spec, rng, n, seed):
        Q = quantized_stack(any_spec, n, rng)
        got = maps._hashed_directions(any_spec, Q, seed)
        assert got.shape == (n, *any_spec.shape) and got.dtype == np.complex128
        for k in range(n):
            assert got[k].tobytes() == reference_direction(Q[k], seed).tobytes()
        # Every part is an odd multiple of 2^-52 in (-1, 1).
        parts = got.view(np.float64)
        scaled = parts * 2.0**52
        assert (np.abs(parts) < 1).all()
        assert (scaled == np.round(scaled)).all() and (np.fmod(scaled, 2) != 0).all()
        # A -0.0 part keys apart from +0.0.
        plus = Q[-1:].copy()
        plus.reshape(-1)[0] = 0.0
        assert plus.tobytes() != Q[-1].tobytes() and (plus == Q[-1]).all()
        assert maps._hashed_directions(any_spec, plus, seed).tobytes() != got[-1].tobytes()

    def test_none_zero_and_two_digit_seeds_differ(self, any_spec, rng):
        Q = quantized_stack(any_spec, 10, rng)
        rows = {maps._hashed_directions(any_spec, Q, seed).tobytes() for seed in (None, 0, 2**64)}
        assert len(rows) == 3

    def test_concurrent_calls_match_serial(self, rng):
        # The hash keeps no state between calls: two threads, switching
        # every few microseconds, still get the serial rows.
        stacks = [quantized_stack(P3, 300, rng) for _ in range(2)]
        serial = [maps._hashed_directions(P3, Q, 5).tobytes() for Q in stacks]
        results = [[], []]
        barrier = threading.Barrier(2, timeout=60)

        def draw(i):
            barrier.wait()
            for _ in range(4):
                results[i].append(maps._hashed_directions(P3, stacks[i], 5).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[serial[0]] * 4, [serial[1]] * 4]

    def test_gaussian_parts_are_two_draws(self, any_spec):
        # One (2, *shape) block holds the real draw, then the imaginary one.
        rng_a, rng_b = Generator(np.random.PCG64(3)), Generator(np.random.PCG64(3))
        parts = np.empty((2, *any_spec.shape))
        for _ in range(5):
            expected = np.stack([rng_b.standard_normal(any_spec.shape),
                                 rng_b.standard_normal(any_spec.shape)])
            assert algebra.gaussian_parts(rng_a, parts) is parts
            assert parts.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("zeros", [1, 7])
    def test_zero_draws_are_redrawn(self, any_spec, zeros):
        # The parts are the first draw that is not all zero: the plain
        # generator's draw after `zeros` skipped ones.
        def draw(rng):
            return algebra.gaussian_parts(rng, np.empty((2, *any_spec.shape)))

        got = draw(FirstDrawsZero(np.random.PCG64(5), zeros))
        plain = Generator(np.random.PCG64(5))
        first = draw(plain)
        for _ in range(zeros - 1):
            draw(plain)
        assert got.tobytes() == draw(plain).tobytes()
        assert got.tobytes() != first.tobytes()

    def test_eight_zero_draws_raise(self, any_spec):
        with pytest.raises(DegenerateDirection):
            algebra.gaussian_parts(FirstDrawsZero(np.random.PCG64(5), 8),
                                   np.empty((2, *any_spec.shape)))


class TestDirectionCaches:
    def test_bounded_and_recomputed_bit_for_bit(self, any_spec):
        # Every benchmark pass certifies fresh direction seeds; an unbounded
        # cache kept one entry per seed for the life of the process.
        width = 2 * any_spec.n_entries
        maps._fixed_direction.cache_clear()
        maps._salts.cache_clear()
        first = maps._fixed_direction(0, any_spec).copy(), maps._salts(0, width).copy()
        for seed in range(1, 11):
            maps._fixed_direction(seed, any_spec)
            maps._salts(seed, width)
        assert maps._fixed_direction.cache_info().currsize <= 2
        assert maps._salts.cache_info().currsize <= 2
        # Seed 0 was evicted: recomputed, it has the same bits.
        assert maps._fixed_direction(0, any_spec).tobytes() == first[0].tobytes()
        assert maps._salts(0, width).tobytes() == first[1].tobytes()


class TestPerturbationRows:
    """Broadcast scaling keeps the per-row loop's bits, including +0 rows."""

    @pytest.mark.parametrize("kind", ["fixed_direction", "random_direction"])
    @pytest.mark.parametrize("seed", [None, 4])
    def test_rows_match_per_row_scaling(self, any_spec, rng, kind, seed):
        # Enough rows that a hash over a whole stack must keep each row's
        # direction its own.
        p = PerturbationSpec(kind, 0.1, 0.5, direction_seed=seed)
        X = np.concatenate([np.zeros((1, *any_spec.shape), dtype=np.complex128),
                            np.full((1, *any_spec.shape), -1e-9 + 0j),
                            sample_stack(any_spec, 262, rng, (1e-7, 10.0))])
        got = maps._perturbation_rows(p, any_spec, X)
        for k, x in enumerate(X):
            amplitude = 0.1 * algebra.stacked_norms(any_spec, x[None]).tolist()[0] ** 0.5
            if kind == "fixed_direction":
                u = maps._fixed_direction(seed, any_spec)
                expected = complex(amplitude) * u
            else:
                q = quantize(x)
                expected = np.zeros(any_spec.shape, dtype=np.complex128)
                if q.any():
                    g = reference_direction(q, seed)
                    n = algebra.stacked_norms(any_spec, g[None])[0]
                    expected = complex(amplitude) * (complex(1.0 / n) * g)
            if amplitude == 0.0:
                expected = np.zeros(any_spec.shape, dtype=np.complex128)
            assert got[k].tobytes() == expected.tobytes()
        assert not np.signbit(got[0].view(np.float64)).any()

    @pytest.mark.parametrize("other", [0.0, -0.0, 1.0, -1.0], ids=str)
    def test_sign_rule_per_part(self, other):
        # A part that quantizes to zero keeps its sign whatever the other
        # part of its entry is: x and -x key apart in the real part next to
        # any imaginary part, and in the imaginary part next to any real
        # part, each as the point whose part is exactly +-0.0.
        p = PerturbationSpec("random_direction", 0.1, 0.5, 3)
        for entry in (lambda t: complex(t, other), lambda t: complex(other, t)):
            X = np.array([[entry(-1e-9), 1.0], [entry(1e-9), 1.0]])
            zeros = np.array([[entry(-0.0), 1.0], [entry(0.0), 1.0]])
            got = maps._perturbation_rows(p, pointwise_spec(2), X)
            assert got[0].tobytes() != got[1].tobytes()
            assert got.tobytes() == maps._perturbation_rows(p, pointwise_spec(2), zeros).tobytes()

    @pytest.mark.parametrize("kind", ["none", "fixed_direction", "random_direction"])
    def test_empty_stack(self, any_spec, kind):
        f = ApproxMap(maps.adjoint(), PerturbationSpec(kind, 0.1, 0.5), any_spec)
        empty = np.zeros((0, *any_spec.shape), dtype=np.complex128)
        got = maps.eval_f_rows(f, empty)
        assert got.shape == empty.shape and got.dtype == np.complex128
        assert algebra.stacked_norms(any_spec, empty).tolist() == []

    def test_one_hash_per_evaluation(self, monkeypatch, rng):
        # Every row of a stack is hashed in one call, however many rows.
        calls = []
        hashed_directions = maps._hashed_directions

        def counting(spec, quantized, seed):
            calls.append(len(quantized))
            return hashed_directions(spec, quantized, seed)

        monkeypatch.setattr(maps, "_hashed_directions", counting)
        X = sample_stack(P3, 1000, rng)
        maps._perturbation_rows(PerturbationSpec("random_direction", 0.1, 0.5, 3), P3, X)
        assert calls == [1000]

    @pytest.mark.parametrize("kind", ["fixed_direction", "random_direction"])
    def test_overflowing_amplitude_gives_nonfinite_rows(self, any_spec, kind):
        # An amplitude that overflows, in theta_delta * ||x||^r (1e9 * 1e300),
        # in ||x||^r (1e200^2) or in ||x||, leaves its row not finite, for the
        # caller to reject; nothing is raised and nothing warns.  The other
        # rows keep the bits of their one-row evaluation, and a zero
        # theta_delta gives zero rows.
        for theta, r, big in [(1e9, 1.0, 1e300), (0.1, 2.0, 1e200),
                              (0.1, 0.5, 1.5e308 * (1 + 1j))]:
            p = PerturbationSpec(kind, theta, r)
            X = np.stack([np.full(any_spec.shape, z, dtype=complex)
                          for z in (0.5, big, 3 - 2j, big)])
            got = maps._perturbation_rows(p, any_spec, X)
            assert [np.isfinite(row).all() for row in got] == [True, False, True, False]
            for k in (0, 2):
                assert got[k].tobytes() == maps._perturbation_rows(
                    p, any_spec, X[k:k + 1])[0].tobytes()
            zero = maps._perturbation_rows(PerturbationSpec(kind, 0.0, r), any_spec, X)
            assert zero.tobytes() == np.zeros_like(X).tobytes()
