import math

import numpy as np
import pytest

from involstab import algebra, maps, stabilizer
from involstab.algebra import SCALAR, matrix_spec
from involstab.errors import NoContraction, NonCauchy, OutOfRange, IterateOverflow, SpecMismatch
from involstab.maps import ApproxMap, PerturbationSpec
from involstab.stabilizer import (
    ControlFunction,
    ControlKind,
    Regime,
    ScalingDirection,
    control_eval,
    control_rows,
    corollary_constant,
    error_bound,
    error_bounds,
    power_product,
    power_sum,
    select_direction,
    stabilize_point,
    stabilize_points,
)

M2 = matrix_spec(2)
P4 = algebra.pointwise_spec(4)
SQRT2 = math.sqrt(2)


def radial(theta, r, seed=None):
    return PerturbationSpec("fixed_direction", theta, r, direction_seed=seed)


def reference_control(phi, x, y):
    """phi(x, y) one Element pair at a time: the per-pair formula that
    control_rows stacks."""
    if phi.kind is ControlKind.POWER_SUM:
        return phi.theta * (algebra.norm(x) ** phi.r + algebra.norm(y) ** phi.r)
    if phi.kind is ControlKind.POWER_PRODUCT:
        return phi.theta * algebra.norm(algebra.mul(x, y)) ** phi.r
    return phi.custom_eval(x, y)


class TestControlEval:
    def test_power_sum(self):
        phi = power_sum(0.3, 0.5)
        got = control_eval(phi, algebra.scalar(4.0), algebra.scalar(0.0))
        assert got == pytest.approx(0.6)

    def test_power_product_zero_arg(self, rng):
        phi = power_product(0.7, 0.3)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert control_eval(phi, x, algebra.zero(M2)) == 0.0

    def test_zero_amplitude(self, rng):
        phi = power_sum(0.0, 0.5)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert control_eval(phi, x, x) == 0.0

    def test_scaling_law(self, rng):
        # phi(q^n x, q^n y) = (qL)^n phi(x, y), which forces (e9) in the limit
        for phi in (power_sum(0.3, 0.5), power_sum(0.2, 2.0), power_product(0.1, 0.25)):
            d = select_direction(phi)
            x = algebra.sample_element(M2, (0.5, 2.0), rng)
            y = algebra.sample_element(M2, (0.5, 2.0), rng)
            base = control_eval(phi, x, y)
            for n in (1, 3, 7):
                lhs = control_eval(
                    phi, algebra.scale(d.q**n, x), algebra.scale(d.q**n, y)
                )
                assert lhs == pytest.approx((d.q * d.L) ** n * base, rel=1e-10)

    @pytest.mark.parametrize("spec", [SCALAR, P4, M2], ids=["scalar", "pointwise", "matrix"])
    def test_rows_match_element_reference(self, rng, spec):
        X = np.stack([algebra.sample_element(spec, (0.1, 10.0), rng).data for _ in range(6)])
        Y = np.concatenate([np.zeros_like(X[:2]), X[2:][::-1]])
        custom = ControlFunction(
            "custom", custom_eval=lambda x, y: algebra.norm(algebra.add(x, y)) ** 0.75)
        for phi in (power_sum(0.3, 0.5), power_sum(0.2, 2.0), power_product(0.1, 0.25), custom):
            want = [reference_control(phi, algebra.Element(spec, x), algebra.Element(spec, y))
                    for x, y in zip(X, Y)]
            assert control_rows(phi, spec, X, Y) == want
            assert [control_eval(phi, algebra.Element(spec, x), algebra.Element(spec, y))
                    for x, y in zip(X, Y)] == want

    def test_product_overflow_is_out_of_range(self):
        big = np.array([[1e200 + 0j]])
        with pytest.raises(OutOfRange):
            control_rows(power_product(0.1, 0.25), SCALAR, big, big)


class TestSelectDirection:
    def test_sum_small_r(self):
        d = select_direction(power_sum(0.1, 0.5))
        assert (d.q, d.i) == (2.0, 0)
        assert d.L == pytest.approx(2 ** -0.5)

    def test_sum_large_r(self):
        d = select_direction(power_sum(0.1, 3.0))
        assert (d.q, d.i) == (0.5, 1)
        assert d.L == pytest.approx(0.25)

    def test_sum_r_one_no_contraction(self):
        with pytest.raises(NoContraction):
            select_direction(power_sum(0.1, 1.0))

    def test_product_regimes(self):
        d = select_direction(power_product(0.1, 0.25))
        assert (d.q, d.i, d.L) == (2.0, 0, pytest.approx(2 ** -0.5))
        d = select_direction(power_product(0.1, 1.0))
        assert (d.q, d.i, d.L) == (0.5, 1, pytest.approx(0.5))
        with pytest.raises(NoContraction):
            select_direction(power_product(0.1, 0.5))

    def test_custom_estimated(self, rng):
        # behaves like power-sum r = 0.5; estimate carries the 1.05 safety factor
        phi = ControlFunction(
            "custom", custom_eval=lambda x, y: 0.3 * (algebra.norm(x) ** 0.5 + algebra.norm(y) ** 0.5)
        )
        samples = [
            (algebra.sample_element(M2, (0.1, 10.0), rng),
             algebra.sample_element(M2, (0.1, 10.0), rng))
            for _ in range(20)
        ]
        d = select_direction(phi, samples)
        assert (d.q, d.i) == (2.0, 0)
        assert d.L == pytest.approx(1.05 * 2 ** -0.5, rel=1e-9)

    def test_custom_needs_samples(self):
        phi = ControlFunction("custom", custom_eval=lambda x, y: 1.0)
        with pytest.raises(NoContraction):
            select_direction(phi)


UP = ScalingDirection(2.0, 0, 2 ** -0.5)
DOWN = ScalingDirection(0.5, 1, 0.25)


class TestStabilizePoint:
    def test_exact_involution_constant(self, rng):
        f = ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, M2)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        for direction in (UP, DOWN):
            tr = stabilize_point(f, direction, x)
            assert tr.converged and tr.n_used == 1
            assert all(np.array_equal(it, maps.eval_f(f, x).data) for it in tr.iterates)

    def test_scalar_closed_form(self):
        # a_n = 4 + 0.2 * 2^{-n/2}; diff_n = 0.2*(1 - 2^{-1/2})*2^{-n/2}
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)
        tr = stabilize_point(f, UP, algebra.scalar(4.0), max_n=48)
        L = 2 ** -0.5
        for n, a in enumerate(tr.iterates[:40]):
            assert a[0] == pytest.approx(4 + 0.2 * L**n, rel=1e-12)
        for n, d in enumerate(tr.diffs[:40]):
            assert d == pytest.approx(0.2 * (1 - L) * L**n, rel=1e-10)
        assert algebra.norm(algebra.sub(tr.result, algebra.scalar(4.0))) <= 1e-6

    def test_zero_point(self):
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)
        tr = stabilize_point(f, UP, algebra.zero(SCALAR))
        assert tr.result.close_to(algebra.zero(SCALAR))
        assert tr.converged

    def test_geometric_ratio_fit(self, rng):
        # Cauchy envelope: diff ratios track L for fixed-direction radial maps
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=3), M2)
        x = algebra.sample_element(M2, (0.5, 5.0), rng)
        tr = stabilize_point(f, UP, x, max_n=40)
        ratios = [b / a for a, b in zip(tr.diffs, tr.diffs[1:]) if a > 1e-13]
        fitted = np.mean(ratios)
        assert abs(fitted - UP.L) <= 0.05

    def test_wrong_direction_overflows_or_diverges(self):
        # r = 2 with q = 2 scales the perturbation up; must not stabilize
        f = ApproxMap(maps.conjugation(), radial(0.1, 2.0), SCALAR)
        with pytest.raises((IterateOverflow, NonCauchy)):
            stabilize_point(f, UP, algebra.scalar(4.0), max_n=400)

    def test_bound_e5_on_probes(self, rng):
        phi = power_sum(0.3, 0.5)
        d = select_direction(phi)
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2)
        for _ in range(30):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            tr = stabilize_point(f, d, x)
            diff = algebra.norm(algebra.sub(tr.result, maps.eval_f(f, x)))
            assert diff <= error_bound(d, phi, x) + 1e-9

    def test_uniqueness_of_limit(self, rng):
        # two admissible perturbations of the same base stabilize together
        f1 = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2)
        f2 = ApproxMap(
            maps.adjoint(),
            PerturbationSpec("random_direction", 0.1, 0.5, direction_seed=6),
            M2,
        )
        for _ in range(10):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            r1 = stabilize_point(f1, UP, x).result
            r2 = stabilize_point(f2, UP, x).result
            assert algebra.norm(algebra.sub(r1, r2)) <= 1e-6

    def test_superstability_under_product_control(self, rng):
        # exact involution: the stabilized map equals f pointwise
        f = ApproxMap(maps.conjugation(), maps.NO_PERTURBATION, SCALAR)
        d = select_direction(power_product(0.1, 0.25))
        for _ in range(20):
            x = algebra.sample_element(SCALAR, (0.1, 10.0), rng)
            tr = stabilize_point(f, d, x)
            assert algebra.norm(algebra.sub(tr.result, maps.eval_f(f, x))) <= 1e-12


# One map per base involution and perturbation kind the batch must match.
BATCH_MAPS = {
    "scalar-conjugation": ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR),
    "pointwise-random": ApproxMap(
        maps.conjugation(), PerturbationSpec("random_direction", 0.1, 0.5, 3), P4),
    "matrix-adjoint-fixed": ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2),
    "twisted-adjoint": ApproxMap(
        maps.twisted_adjoint(algebra.element(M2, [2, 0.5 + 0.5j, 0.5 - 0.5j, 1])),
        radial(0.1, 0.5, seed=2), M2),
}


def reference_orbit(f, direction, x, max_n, tol_rel):
    """One point's orbit, step by step through Element arithmetic: the
    serial loop stabilize_points batches.  Returns (iterates, diffs,
    converged)."""
    iterates, diffs = [maps.eval_f(f, x)], []
    xn, scale_n, increasing_run = x, 1.0, 0
    for _ in range(max_n):
        xn = algebra.scale(direction.q, xn)
        scale_n /= direction.q
        if float(np.max(np.abs(xn.data))) > 1e300:
            raise IterateOverflow("iterate argument norm exceeded 1e300")
        a = algebra.scale(scale_n, maps.eval_f(f, xn))
        d = algebra.norm(algebra.sub(a, iterates[-1]))
        if diffs and d > diffs[-1]:
            increasing_run += 1
            if increasing_run >= 8:
                raise NonCauchy("successive differences grew 8 consecutive steps")
        else:
            increasing_run = 0
        prev = iterates[-1]
        iterates.append(a)
        diffs.append(d)
        if d <= tol_rel * max(1.0, algebra.norm(prev)):
            return iterates, diffs, True
    return iterates, diffs, False


class TestStabilizePoints:
    @pytest.mark.parametrize("name", BATCH_MAPS)
    @pytest.mark.parametrize("max_n, tol_rel", [(48, 1e-10), (30, 1e-4)],
                             ids=["tight", "loose"])
    def test_batch_matches_single_points(self, rng, name, max_n, tol_rel):
        f = BATCH_MAPS[name]
        xs = [algebra.zero(f.spec)] + [
            algebra.sample_element(f.spec, (0.1, 10.0), rng) for _ in range(7)]
        batch = stabilize_points(f, UP, np.stack([x.data for x in xs]), max_n, tol_rel)
        single = [stabilize_point(f, UP, x, max_n, tol_rel) for x in xs]
        for x, got, want in zip(xs, batch, single):
            assert got.iterates.tobytes() == want.iterates.tobytes()
            assert got.iterates.shape == (got.n_used + 1, *f.spec.shape)
            assert got.diffs == want.diffs
            assert (got.n_used, got.converged) == (want.n_used, want.converged)
            assert got.result.data.tobytes() == want.iterates[-1].tobytes()
            ref_iterates, ref_diffs, ref_converged = reference_orbit(f, UP, x, max_n, tol_rel)
            assert got.iterates.tobytes() == np.stack([a.data for a in ref_iterates]).tobytes()
            assert (got.diffs, got.converged) == (ref_diffs, ref_converged)
        # The zero point stops at step 1, so the rows leave at mixed depths.
        assert len({tr.n_used for tr in batch}) > 1

    def test_iterates_read_only(self):
        tr = stabilize_point(BATCH_MAPS["scalar-conjugation"], UP, algebra.scalar(4.0))
        with pytest.raises(ValueError):
            tr.iterates[0, 0] = 0.0

    def test_empty_batch(self):
        empty = np.zeros((0, 1), dtype=np.complex128)
        assert stabilize_points(BATCH_MAPS["scalar-conjugation"], UP, empty) == []

    def test_stack_shape_checked(self):
        with pytest.raises(SpecMismatch):
            stabilize_points(BATCH_MAPS["scalar-conjugation"], UP, np.zeros((2, 2), complex))

    def test_failing_row_fails_batch(self):
        # r = 2 with q = 2 scales the perturbation up; the zero row alone
        # stabilizes, but a batch holding a diverging row raises.
        f = ApproxMap(maps.conjugation(), radial(0.1, 2.0), SCALAR)
        assert stabilize_points(f, UP, np.array([[0j]]), max_n=400)[0].converged
        with pytest.raises((IterateOverflow, NonCauchy)):
            stabilize_points(f, UP, np.array([[0j], [4 + 0j]]), max_n=400)


def orbit_outcome(f, direction, X, max_n, tol_rel, resume=None):
    """Every bit of a batch's traces, or the type and message it raised."""
    try:
        traces = stabilize_points(f, direction, X, max_n, tol_rel, resume=resume)
    except (IterateOverflow, NonCauchy, ValueError) as exc:
        return type(exc), str(exc)
    return [(tr.iterates.shape, tr.iterates.tobytes(), tr.diffs, tr.n_used, tr.converged)
            for tr in traces]


R15 = ApproxMap(maps.adjoint(), radial(0.1, 1.5, seed=5), M2)
# Wrong-direction and non-contracting maps for the failing orbits: r = 2
# under q = 2 grows every difference; a random direction at r = 1 neither
# converges nor diverges until the argument overflows.
DIVERGING = ApproxMap(maps.conjugation(), radial(0.1, 2.0), SCALAR)
WANDERING = ApproxMap(maps.conjugation(), PerturbationSpec("random_direction", 0.1, 1.0, 3), P4)


class TestResumedOrbits:
    """A batch resuming shallower traces gives the fresh deep orbit bit for
    bit: iterates, diffs, n_used, converged, or the exception raised."""

    @pytest.mark.parametrize("f, direction", [
        pytest.param(BATCH_MAPS["matrix-adjoint-fixed"], UP, id="matrix-fixed"),
        pytest.param(BATCH_MAPS["pointwise-random"], UP, id="pointwise-random"),
        pytest.param(R15, select_direction(power_sum(0.3, 1.5)), id="q-half"),
    ])
    @pytest.mark.parametrize("shallow", [(10, 1e-10), (30, 1e-4)], ids=["capped", "loose"])
    def test_resumed_matches_fresh(self, rng, f, direction, shallow):
        X = np.stack([algebra.zero(f.spec).data] + [
            algebra.sample_element(f.spec, (0.1, 10.0), rng).data for _ in range(7)])
        traces = stabilize_points(f, direction, X, *shallow)
        # Every other row resumes, the rest start afresh in the same batch.
        resume = [tr if k % 2 == 0 else None for k, tr in enumerate(traces)]
        got = orbit_outcome(f, direction, X, 96, 1e-12, resume)
        want = orbit_outcome(f, direction, X, 96, 1e-12)
        assert got == want
        deep = [n_used for _, _, _, n_used, _ in want]
        # The zero row stops where its trace did; the others go deeper.
        assert deep[0] == traces[0].n_used == 1
        assert all(deep[k] > traces[k].n_used for k in range(2, len(X), 2))
        if shallow[1] == 1e-4:
            assert all(tr.converged and tr.n_used < shallow[0] for tr in traces)
        else:
            assert not any(tr.converged for tr in traces[1:])

    @pytest.mark.parametrize("max_n", [8, 9, 20])
    def test_non_cauchy_run_straddles_the_cap(self, max_n):
        # The differences grow from the first step: the 8-step rule fires
        # at step 9, four steps past the shallow cap.
        X = np.array([[0j], [4 + 0j]])
        traces = stabilize_points(DIVERGING, UP, X, 5)
        assert traces[1].n_used == 5 and not traces[1].converged
        got = orbit_outcome(DIVERGING, UP, X, max_n, 1e-10, traces)
        assert got == orbit_outcome(DIVERGING, UP, X, max_n, 1e-10)
        assert (got[0] is NonCauchy) == (max_n >= 9)

    def test_overflow_after_the_cap(self):
        # Every running row overflows at once, 14 steps past the cap.
        X = np.array([[1e290, 2e289j, 0, 1e288]])
        traces = stabilize_points(WANDERING, UP, X, 20)
        assert traces[0].n_used == 20 and not traces[0].converged
        got = orbit_outcome(WANDERING, UP, X, 60, 1e-10, traces)
        assert got == orbit_outcome(WANDERING, UP, X, 60, 1e-10)
        assert got == (IterateOverflow, "iterate argument norm exceeded 1e300")

    @np.errstate(over="ignore", invalid="ignore")
    def test_first_failing_row_is_raised(self):
        # Row 1's f(x) is not finite (its perturbation is inf * u); row 0,
        # resumed and waiting to rejoin, fails later in the orbit but first
        # in the batch.
        f = ApproxMap(maps.conjugation(), radial(1e10, 2.0), SCALAR)
        X = np.array([[1e-3 + 0j], [1e150 + 0j]])
        resume = [stabilize_points(f, UP, X[:1], 5)[0], None]
        got = orbit_outcome(f, UP, X, 20, 1e-10, resume)
        assert got == orbit_outcome(f, UP, X, 20, 1e-10)
        assert got == (NonCauchy, "successive differences grew 8 consecutive steps")
        assert orbit_outcome(f, UP, X[1:], 20, 1e-10)[0] is ValueError

    def test_trace_must_fit(self):
        f = BATCH_MAPS["scalar-conjugation"]
        tr = stabilize_point(f, UP, algebra.scalar(4.0), max_n=30, tol_rel=1e-14)
        with pytest.raises(ValueError):
            stabilize_points(f, UP, np.array([[4 + 0j]]), 20, resume=[tr])
        with pytest.raises(ValueError):
            stabilize_points(f, UP, np.array([[4 + 0j]]), 48, resume=[])


class TestErrorBound:
    def test_up_direction_value(self):
        # L/(1-L) = 1 + sqrt(2) for L = 2^{-1/2}
        phi = power_sum(0.1, 0.5)
        x = algebra.scalar(4.0)
        assert error_bound(UP, phi, x) == pytest.approx((1 + SQRT2) * 0.1 * 2, rel=1e-12)

    def test_down_direction_value(self):
        phi = ControlFunction("custom", custom_eval=lambda x, y: 1.0)
        x = algebra.scalar(1.0)
        assert error_bound(DOWN, phi, x) == pytest.approx(4.0 / 3.0)

    def test_product_control_superstability(self, rng):
        phi = power_product(0.4, 0.25)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert error_bound(UP, phi, x) == 0.0

    def test_rows_match_error_bound(self, rng):
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng).data for _ in range(5)])
        for direction in (UP, DOWN):
            for phi in (power_sum(0.3, 0.5), power_product(0.4, 0.25)):
                factor = direction.L ** (1 - direction.i) / (1.0 - direction.L)
                want = [factor * reference_control(phi, algebra.Element(M2, x), algebra.zero(M2))
                        for x in X]
                assert error_bounds(direction, phi, M2, X) == want
                assert [error_bound(direction, phi, algebra.Element(M2, x)) for x in X] == want


class TestCorollaryConstant:
    def test_sum_r_half(self):
        audit = corollary_constant(0.5, Regime.SUM_R_LT_1)
        assert audit.derived == pytest.approx(1 + SQRT2, rel=1e-12)
        assert audit.paper_stated == pytest.approx(2 / (2 - SQRT2), rel=1e-12)
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

