import math

import numpy as np
import pytest

from involstab import algebra, maps
from involstab.algebra import SCALAR, matrix_spec, pointwise_spec
from involstab.errors import KindSpecMismatch, SpecMismatch
from involstab.maps import (
    ApproxMap,
    Involution,
    LambdaSampler,
    NO_PERTURBATION,
    PerturbationSpec,
)

M2 = matrix_spec(2)
P3 = pointwise_spec(3)

DIAG12 = algebra.element(M2, [1, 0, 0, 2])


def radial(theta, r, seed=None):
    return PerturbationSpec("fixed_direction", theta, r, direction_seed=seed)


# f(z) = conj(z) + 0.1*|z|^{1/2} on scalars, canonical direction u = 1
SCALAR_F = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)


class TestEvalInvolution:
    def test_adjoint(self):
        x = algebra.element(M2, [0, 1, 0, 0])
        assert maps.eval_involution(maps.adjoint(), x).close_to(
            algebra.element(M2, [0, 0, 1, 0])
        )

    def test_twisted(self):
        # direct 2x2 computation of s^{-1} x* s with s = diag(1, 2)
        x = algebra.element(M2, [0, 1, 0, 0])
        got = maps.eval_involution(maps.twisted_adjoint(DIAG12), x)
        assert got.close_to(algebra.element(M2, [0, 0, 0.5, 0]))

    def test_twice_is_identity(self, any_spec, rng):
        kinds = [maps.adjoint()]
        if any_spec.kind is algebra.AlgebraKind.MATRIX:
            kinds.append(maps.twisted_adjoint(DIAG12))
        else:
            kinds.append(maps.conjugation())
        for kind in kinds:
            for _ in range(50):
                x = algebra.sample_element(any_spec, (0.1, 10.0), rng)
                twice = maps.eval_involution(kind, maps.eval_involution(kind, x))
                assert algebra.norm(algebra.sub(twice, x)) <= 1e-12 * max(1.0, algebra.norm(x))

    def test_conjugation_rejected_on_matrices(self):
        with pytest.raises(KindSpecMismatch):
            maps.eval_involution(maps.conjugation(), algebra.element(M2, [1, 0, 0, 1]))

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
        for _ in range(1000):
            x = algebra.sample_element(spec, (0.1, 10.0), rng)
            y = algebra.sample_element(spec, (0.1, 10.0), rng)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            mu = complex(rng.standard_normal(), rng.standard_normal())
            k = lambda e: maps.eval_involution(kind, e)
            scale_ref = max(1.0, algebra.norm(x) + algebra.norm(y))
            assert algebra.norm(algebra.sub(k(k(x)), x)) <= 1e-12 * scale_ref
            lhs = k(algebra.add(algebra.scale(lam, x), algebra.scale(mu, y)))
            rhs = algebra.add(
                algebra.scale(np.conj(lam), k(x)), algebra.scale(np.conj(mu), k(y))
            )
            assert algebra.norm(algebra.sub(lhs, rhs)) <= 1e-10 * scale_ref
            lhs = k(algebra.mul(x, y))
            rhs = algebra.mul(k(y), k(x))
            assert algebra.norm(algebra.sub(lhs, rhs)) <= 1e-10 * max(
                1.0, algebra.norm(x) * algebra.norm(y)
            )


class TestPerturbation:
    def test_none_and_zero(self, any_spec):
        z = algebra.zero(any_spec)
        assert maps.eval_perturbation(NO_PERTURBATION, z).close_to(z)
        for kind in ("fixed_direction", "random_direction"):
            p = PerturbationSpec(kind, 0.1, 0.5, direction_seed=3)
            assert maps.eval_perturbation(p, z).close_to(z)

    def test_scalar_canonical_direction(self):
        # 0.1 * 4^{0.5} by direct arithmetic
        got = maps.eval_perturbation(radial(0.1, 0.5), algebra.scalar(4.0))
        assert got.flat()[0] == pytest.approx(0.2, abs=1e-14)

    def test_envelope(self, any_spec, rng):
        for kind in ("fixed_direction", "random_direction"):
            p = PerturbationSpec(kind, 0.07, 0.5, direction_seed=9)
            for _ in range(200):
                x = algebra.sample_element(any_spec, (0.1, 10.0), rng)
                delta = maps.eval_perturbation(p, x)
                assert algebra.norm(delta) <= 0.07 * algebra.norm(x) ** 0.5 + 1e-12

    def test_random_direction_is_a_function(self, rng):
        p = PerturbationSpec("random_direction", 0.1, 0.5, direction_seed=4)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        again = algebra.element(M2, x.flat())
        assert maps.eval_perturbation(p, x).close_to(maps.eval_perturbation(p, again))


class TestEvalF:
    def test_unperturbed_is_reference(self, rng):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert maps.eval_f(f, x).close_to(algebra.conj_transpose(x))

    def test_scalar_example(self):
        # 4 + 0.1*2 by direct arithmetic
        assert maps.eval_f(SCALAR_F, algebra.scalar(4.0)).flat()[0] == pytest.approx(4.2)

    def test_zero_maps_to_zero(self, any_spec):
        base = maps.adjoint() if any_spec.kind is algebra.AlgebraKind.MATRIX else maps.conjugation()
        f = ApproxMap(base, radial(0.3, 0.5, seed=2), any_spec)
        assert maps.eval_f(f, algebra.zero(any_spec)).close_to(algebra.zero(any_spec))


class TestJensenDefect:
    def test_exact_involution_vanishes(self, rng):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        lams = maps.sample_lambdas(LambdaSampler(n0=3, seed=1))
        for stage, lam in lams:
            if stage not in ("arc", "circle"):
                continue
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            y = algebra.sample_element(M2, (0.1, 10.0), rng)
            d = maps.jensen_defect(f, lam, x, y)
            assert algebra.norm(d) <= 1e-12 * max(1.0, algebra.norm(x) + algebra.norm(y))

    def test_scalar_example(self):
        # 2 f(2) - f(4) = 0.2*sqrt(2) - 0.2
        d = maps.jensen_defect(SCALAR_F, 1.0, algebra.scalar(4.0), algebra.scalar(0.0))
        assert algebra.norm(d) == pytest.approx(0.2 * math.sqrt(2) - 0.2, abs=1e-12)

    def test_symmetric_degenerate(self, rng):
        x = algebra.sample_element(SCALAR, (0.5, 2.0), rng)
        d = maps.jensen_defect(SCALAR_F, 1.0, x, x)
        assert algebra.norm(d) == 0.0

    def test_budget_lemma(self, rng):
        # theta_delta = THETA/3 keeps the defect below THETA*(|x|^r + |y|^r)
        # for unit-modulus lambda and r <= 1
        THETA = 0.3
        f = ApproxMap(maps.adjoint(), radial(THETA / 3, 0.5, seed=6), M2)
        lams = [lam for s, lam in maps.sample_lambdas(LambdaSampler(n0=3, arc=6, circle=6, seed=2))
                if s in ("arc", "circle")]
        for _ in range(200):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            y = algebra.sample_element(M2, (0.1, 10.0), rng)
            budget = THETA * (algebra.norm(x) ** 0.5 + algebra.norm(y) ** 0.5)
            for lam in lams:
                assert algebra.norm(maps.jensen_defect(f, lam, x, y)) <= budget + 1e-12


class TestAntimulDefect:
    def test_exact_involution(self, rng):
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        for _ in range(100):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            y = algebra.sample_element(M2, (0.1, 10.0), rng)
            d = maps.antimul_defect(f, x, y)
            assert algebra.norm(d) <= 1e-12 * max(1.0, algebra.norm(x) * algebra.norm(y))

    def test_zero_argument(self, rng):
        y = algebra.sample_element(SCALAR, (0.5, 2.0), rng)
        d = maps.antimul_defect(SCALAR_F, algebra.zero(SCALAR), y)
        assert algebra.norm(d) == 0.0

    def test_scalar_example(self):
        # f(4) - f(2)^2 = 4.2 - (2 + 0.1*sqrt(2))^2
        d = maps.antimul_defect(SCALAR_F, algebra.scalar(2.0), algebra.scalar(2.0))
        expected = 4.2 - (2 + 0.1 * math.sqrt(2)) ** 2
        assert d.flat()[0].real == pytest.approx(expected, abs=1e-12)
        assert algebra.norm(d) == pytest.approx(abs(expected), abs=1e-12)


class TestCstarDefect:
    def test_adjoint_matrix(self, rng):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        for _ in range(100):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            assert maps.cstar_defect(f, x) <= 1e-9 * max(1.0, algebra.norm(x) ** 2)

    def test_twisted_witness(self):
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        x = algebra.element(M2, [0, 1, 0, 0])
        assert maps.cstar_defect(f, x) == pytest.approx(0.5, abs=1e-12)

    def test_zero(self):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        assert maps.cstar_defect(f, algebra.zero(M2)) == 0.0


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
        xs = [algebra.zero(f.spec)] + [
            algebra.sample_element(f.spec, (1e-7, 10.0), rng) for _ in range(6)]
        rows = maps.eval_f_rows(f, np.stack([x.data for x in xs]))
        assert rows.shape == (len(xs), *f.spec.shape)
        for k, x in enumerate(xs):
            assert maps.eval_f(f, x).data.tobytes() == rows[k].tobytes()

    def test_rows_shape_mismatch(self):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        with pytest.raises(SpecMismatch):
            maps.eval_f_rows(f, np.zeros((2, 3, 3), dtype=complex))
