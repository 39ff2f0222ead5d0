import functools
import itertools
import math

import numpy as np
import pytest

from involstab import algebra, fixedpoint, maps, stabilizer
from involstab.algebra import SCALAR, matrix_spec
from involstab.errors import Exhausted, NotContractive, OutOfRange
from involstab.fixedpoint import (
    INF,
    Branch,
    FunctionSpaceMetric,
    GeneralizedMetricSpace,
    Regime,
    aposteriori_bound,
    corollary_constant,
    function_space_distance,
    gmetric_check,
    iterate_alternative,
    ray_probes,
    scaling_operator,
)
from involstab.maps import ApproxMap, PerturbationSpec

M2 = matrix_spec(2)

REALS = GeneralizedMetricSpace("reals", lambda a, b: abs(a - b))
DISCRETE = GeneralizedMetricSpace(
    "discrete-infinity", lambda a, b: 0.0 if a == b else INF
)


class TestGMetricCheck:
    def triples(self, rng, count=50):
        vals = rng.uniform(-5, 5, (count, 3))
        return [tuple(row) for row in vals]

    def test_euclidean_passes(self, rng):
        assert gmetric_check(REALS, self.triples(rng)).passed

    def test_discrete_infinity_passes(self, rng):
        triples = [(1, 2, 3), (1, 1, 2), (4, 4, 4)]
        assert gmetric_check(DISCRETE, triples).passed

    def test_shifted_norm_fails_m1(self, rng):
        bad = GeneralizedMetricSpace("bad", lambda a, b: abs(a - b) - 1.0)
        report = gmetric_check(bad, [(1.0, 1.0, 2.0)])
        assert not report.passed
        assert report.failed_axiom == "M1"
        x, y = report.counterexample
        assert x == y


class TestIterateAlternative:
    def test_affine_contraction(self):
        # closed form t_n = 2(1 - 2^{-n}); consecutive distances 2^{-n}
        out = iterate_alternative(lambda t: 0.5 * t + 1.0, 0.0, 0.5, REALS, tol=1e-15)
        assert out.branch is Branch.CONVERGED
        assert out.n0 == 0
        assert out.fixed_point == pytest.approx(2.0, abs=1e-12)
        for n, d in enumerate(out.orbit_distances[:-1]):
            assert d == pytest.approx(2.0 ** (-n), rel=1e-12)

    def test_all_infinite(self):
        out = iterate_alternative(lambda n: n + 1, 0, 0.5, DISCRETE, max_iter=16)
        assert out.branch is Branch.ALL_INFINITE

    def test_identity(self):
        out = iterate_alternative(lambda t: t, 1.25, 0.5, REALS)
        assert out.branch is Branch.CONVERGED
        assert out.n0 == 0
        assert out.fixed_point == 1.25

    def test_bound_attained_on_affine(self):
        out = iterate_alternative(lambda t: 0.5 * t + 1.0, 0.0, 0.5, REALS, tol=1e-15)
        # d(x0, x*) = d(T(x0), x0)/(1 - L) exactly
        assert abs(out.fixed_point - 0.0) / out.aposteriori_bound == pytest.approx(
            1.0, abs=1e-12
        )

    def test_not_contractive_detected(self):
        with pytest.raises(NotContractive):
            iterate_alternative(lambda t: 2.0 * t + 1.0, 1.0, 0.5, REALS, max_iter=16)

    def test_exhausted(self):
        with pytest.raises(Exhausted):
            iterate_alternative(lambda t: 0.999 * t, 1.0, 0.999, REALS, max_iter=5, tol=1e-12)


class TestAposterioriBound:
    def test_formula(self):
        assert aposteriori_bound(0.5, 1.0) == 2.0

    def test_zero(self):
        assert aposteriori_bound(0.25, 0.0) == 0.0

    def test_infinity_absorbs(self):
        assert aposteriori_bound(0.5, INF) == INF


def radial_map(theta, seed):
    return ApproxMap(
        maps.adjoint(),
        PerturbationSpec("fixed_direction", theta, 0.5, direction_seed=seed),
        M2,
    )


def as_callable(f):
    return functools.partial(maps.eval_f_rows, f)


def sample_stack(spec, n, rng, rad):
    return np.stack([algebra.sample_element(spec, rad, rng) for _ in range(n)])


class TestFunctionSpaceMetric:
    def metric(self, rng, theta=0.1, q=2.0, depth=6, bases=4):
        base_points = sample_stack(M2, bases, rng, (0.2, 2.0))
        probes = ray_probes(base_points, q, depth)
        return FunctionSpaceMetric(
            M2, probes, lambda X: [theta * n ** 0.5 for n in algebra.stacked_norms(M2, X)])

    def test_identical_maps(self, rng):
        m = self.metric(rng)
        g = as_callable(radial_map(0.05, 1))
        assert function_space_distance(g, g, m) == 0.0

    def test_constant_ratio_field(self, rng):
        # g - h has norm 0.2*||x||^{1/2} everywhere, control is 0.1*||x||^{1/2}
        m = self.metric(rng, theta=0.1)
        g = as_callable(radial_map(0.2, 3))
        h = as_callable(ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, M2))
        assert function_space_distance(g, h, m) == pytest.approx(2.0, rel=1e-9)

    def test_zero_control_gives_infinity(self, rng):
        probes = sample_stack(M2, 1, rng, (0.5, 2.0))
        m = FunctionSpaceMetric(M2, probes, lambda X: [0.0] * len(X))
        g = as_callable(radial_map(0.2, 3))
        h = as_callable(ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, M2))
        assert function_space_distance(g, h, m) == INF

    def test_matches_loop_reference(self):
        # The ratio column and its NaN-skipping max against the per-probe
        # loop it replaced, bit for bit, over every pair of norm and control
        # from a palette of edge values, in one- and two-probe stacks.
        def reference(nums, dens):
            worst = 0.0
            for num, den in zip(nums, dens):
                if den == 0.0:
                    if num == 0.0:
                        continue
                    return INF
                worst = max(worst, num / den)
            return worst

        palette = [0.0, 5e-324, 1e-300, 0.5, 3.0, 1e300, INF, math.nan]
        for k in (1, 2):
            for nums in itertools.product(palette, repeat=k):
                P = np.array(nums, dtype=complex)[:, None]
                for dens in itertools.product(palette, repeat=k):
                    m = FunctionSpaceMetric(SCALAR, P, lambda X, dens=dens: list(dens))
                    got = function_space_distance(lambda X: X, np.zeros_like, m)
                    want = reference(nums, dens)
                    assert type(got) is float
                    assert np.array(got).tobytes() == np.array(want).tobytes()


class TestScalingOperator:
    def test_involution_is_fixed_point(self, rng):
        g = as_callable(ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, M2))
        for q in (2.0, 0.5):
            t_g = scaling_operator(g, q)
            X = sample_stack(M2, 20, rng, (0.1, 10.0))
            for diff, norm in zip(algebra.stacked_norms(M2, t_g(X) - g(X)),
                                  algebra.stacked_norms(M2, X)):
                assert diff <= 1e-12 * max(1.0, norm)

    def test_scalar_example(self):
        # (8 + 0.1*sqrt(8))/2 = 4 + 0.1*sqrt(2)
        f = ApproxMap(maps.conjugation(), PerturbationSpec("fixed_direction", 0.1, 0.5), SCALAR)
        t_g = scaling_operator(as_callable(f), 2.0)
        got = t_g(np.array([[4.0 + 0j]]))[0, 0]
        assert got == pytest.approx(4 + 0.1 * math.sqrt(2), abs=1e-12)

    def test_iterated_operator_identity(self, rng):
        g = as_callable(radial_map(0.1, 2))
        X = sample_stack(M2, 1, rng, (0.5, 2.0))
        t3 = scaling_operator(scaling_operator(scaling_operator(g, 2.0), 2.0), 2.0)
        direct = complex(2.0 ** -3) * g(complex(2.0 ** 3) * X)
        assert algebra.stacked_norms(M2, t3(X) - direct)[0] <= 1e-12

    def test_rejects_other_q(self):
        with pytest.raises(ValueError):
            scaling_operator(lambda x: x, 3.0)

    def test_ray_probes_are_rays(self, rng):
        X = sample_stack(M2, 2, rng, (0.5, 2.0))
        P = ray_probes(X, 0.5, 3)
        assert P.shape == (8, 2, 2)
        for k, row in enumerate(P):
            assert np.array_equal(row, complex(0.5) ** (k % 4) * X[k // 4])


class TestContractionTransfer:
    def test_scaling_operator_contracts(self, rng):
        """d(Tg, Th) <= L*d(g, h)*(1 + 1e-9) over 100 random map pairs on
        ray-closed probe sets."""
        phi = stabilizer.power_sum(0.1, 0.5)
        direction = stabilizer.select_direction(phi)
        L, q = direction.L, direction.q
        for trial in range(100):
            g = as_callable(radial_map(rng.uniform(0.01, 0.3), 100 + trial))
            h = as_callable(radial_map(rng.uniform(0.01, 0.3), 200 + trial))
            base_points = sample_stack(M2, 3, rng, (0.2, 2.0))
            m = FunctionSpaceMetric(
                M2, ray_probes(base_points, q, 5),
                lambda X: stabilizer.control(phi, algebra.stacked_norms(M2, X)),
            )
            d_gh = function_space_distance(g, h, m)
            assert d_gh < INF
            t_g, t_h = scaling_operator(g, q), scaling_operator(h, q)
            d_tgh = function_space_distance(t_g, t_h, m)
            assert d_tgh <= L * d_gh * (1 + 1e-9)


class TestCorollaryConstant:
    def test_sum_r_half(self):
        audit = corollary_constant(0.5, Regime.SUM_R_LT_1)
        assert audit.derived == pytest.approx(1 + math.sqrt(2), rel=1e-12)
        assert audit.paper_stated == pytest.approx(2 / (2 - math.sqrt(2)), rel=1e-12)
        assert not audit.sign_anomaly

    def test_sum_r_two_sign_anomaly(self):
        audit = corollary_constant(2.0, Regime.SUM_R_GT_1)
        assert audit.derived == pytest.approx(2.0)
        assert audit.paper_stated == pytest.approx(-2.0)
        assert audit.sign_anomaly

    def test_product(self):
        audit = corollary_constant(0.25, Regime.PRODUCT)
        assert audit.derived == 0.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            corollary_constant(1.5, Regime.SUM_R_LT_1)
        with pytest.raises(OutOfRange):
            corollary_constant(0.5, Regime.SUM_R_GT_1)
        with pytest.raises(OutOfRange):
            corollary_constant(0.5, Regime.PRODUCT)

