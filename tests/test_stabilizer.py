import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involstab import algebra, maps, stabilizer
from involstab.algebra import SCALAR, matrix_spec
from involstab.errors import (
    InvolStabError, IterateOverflow, NoContraction, NonCauchy, OutOfRange, SpecMismatch)
from involstab.maps import ApproxMap, PerturbationSpec
from involstab.stabilizer import (
    ControlKind,
    Regime,
    ScalingDirection,
    control_rows,
    corollary_constant,
    error_bounds,
    power_product,
    power_sum,
    select_direction,
    stabilize_points,
)

M2 = matrix_spec(2)
P4 = algebra.pointwise_spec(4)
SQRT2 = math.sqrt(2)


def radial(theta, r, seed=None):
    return PerturbationSpec("fixed_direction", theta, r, direction_seed=seed)


def reference_control(phi, spec, x, y):
    """phi(x, y) one row pair at a time: the per-pair formula that
    control_rows stacks."""
    def norm(a):
        return algebra.stacked_norms(spec, a[None]).tolist()[0]

    if phi.kind is ControlKind.POWER_SUM:
        return phi.theta * (norm(x) ** phi.r + norm(y) ** phi.r)
    return phi.theta * norm(algebra.mul_rows(spec, x[None], y[None])[0]) ** phi.r


class TestControlEval:
    def test_power_sum(self):
        phi = power_sum(0.3, 0.5)
        got = control_rows(phi, SCALAR, np.array([[4.0 + 0j]]), np.array([[0j]]))
        assert got == [pytest.approx(0.6)]

    def test_power_product_zero_arg(self, rng):
        phi = power_product(0.7, 0.3)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert control_rows(phi, M2, x[None], np.zeros_like(x)[None]) == [0.0]

    def test_zero_amplitude(self, rng):
        phi = power_sum(0.0, 0.5)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert control_rows(phi, M2, x[None], x[None]) == [0.0]

    def test_scaling_law(self, rng):
        # phi(q^n x, q^n y) = (qL)^n phi(x, y), which forces (e9) in the limit
        for phi in (power_sum(0.3, 0.5), power_sum(0.2, 2.0), power_product(0.1, 0.25)):
            d = select_direction(phi)
            x = algebra.sample_element(M2, (0.5, 2.0), rng)
            y = algebra.sample_element(M2, (0.5, 2.0), rng)
            (base,) = control_rows(phi, M2, x[None], y[None]).tolist()
            q = np.array([d.q ** n for n in (1, 3, 7)], dtype=np.complex128)[:, None, None]
            lhs = control_rows(phi, M2, q * x, q * y)
            assert lhs.tolist() == [
                pytest.approx((d.q * d.L) ** n * base, rel=1e-10) for n in (1, 3, 7)]

    @pytest.mark.parametrize("spec", [SCALAR, P4, M2], ids=["scalar", "pointwise", "matrix"])
    def test_rows_match_element_reference(self, rng, spec):
        X = np.stack([algebra.sample_element(spec, (0.1, 10.0), rng) for _ in range(6)])
        Y = np.concatenate([np.zeros_like(X[:2]), X[2:][::-1]])
        for phi in (power_sum(0.3, 0.5), power_sum(0.2, 2.0), power_product(0.1, 0.25)):
            want = [reference_control(phi, spec, x, y) for x, y in zip(X, Y)]
            assert control_rows(phi, spec, X, Y).tolist() == want

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


UP = ScalingDirection(2.0, 0, 2 ** -0.5)
DOWN = ScalingDirection(0.5, 1, 0.25)


class TestStabilizePoint:
    def test_exact_involution_constant(self, rng):
        f = ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, M2)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        fx = maps.eval_f_rows(f, x[None])[0]
        for direction in (UP, DOWN):
            tr = stabilize_points(f, direction, x[None])[0]
            assert tr.converged and tr.n_used == 1
            assert all(np.array_equal(it, fx) for it in tr.iterates)

    def test_scalar_closed_form(self):
        # a_n = 4 + 0.2 * 2^{-n/2}; diff_n = 0.2*(1 - 2^{-1/2})*2^{-n/2}
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)
        tr = stabilize_points(f, UP, np.array([[4.0 + 0j]]), max_n=48)[0]
        L = 2 ** -0.5
        for n, a in enumerate(tr.iterates[:40]):
            assert a[0] == pytest.approx(4 + 0.2 * L**n, rel=1e-12)
        for n, d in enumerate(tr.diffs[:40]):
            assert d == pytest.approx(0.2 * (1 - L) * L**n, rel=1e-10)
        assert algebra.stacked_norms(SCALAR, tr.iterates[-1:] - 4.0)[0] <= 1e-6

    def test_zero_point(self):
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)
        tr = stabilize_points(f, UP, np.zeros((1, 1), dtype=np.complex128))[0]
        assert np.array_equal(tr.iterates[-1], np.zeros(1))
        assert tr.converged

    def test_geometric_ratio_fit(self, rng):
        # Cauchy envelope: diff ratios track L for fixed-direction radial maps
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=3), M2)
        x = algebra.sample_element(M2, (0.5, 5.0), rng)
        tr = stabilize_points(f, UP, x[None], max_n=40)[0]
        ratios = [b / a for a, b in zip(tr.diffs, tr.diffs[1:]) if a > 1e-13]
        fitted = np.mean(ratios)
        assert abs(fitted - UP.L) <= 0.05

    def test_wrong_direction_overflows_or_diverges(self):
        # r = 2 with q = 2 scales the perturbation up; must not stabilize
        f = ApproxMap(maps.conjugation(), radial(0.1, 2.0), SCALAR)
        with pytest.raises((IterateOverflow, NonCauchy)):
            stabilize_points(f, UP, np.array([[4.0 + 0j]]), max_n=400)

    def test_bound_e5_on_probes(self, rng):
        phi = power_sum(0.3, 0.5)
        d = select_direction(phi)
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2)
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(30)])
        limits = np.stack([tr.iterates[-1] for tr in stabilize_points(f, d, X)])
        diffs = algebra.stacked_norms(M2, limits - maps.eval_f_rows(f, X))
        for diff, bound in zip(diffs, error_bounds(d, phi, M2, X)):
            assert diff <= bound + 1e-9

    def test_uniqueness_of_limit(self, rng):
        # two admissible perturbations of the same base stabilize together
        f1 = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2)
        f2 = ApproxMap(
            maps.adjoint(),
            PerturbationSpec("random_direction", 0.1, 0.5, direction_seed=6),
            M2,
        )
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(10)])
        r1, r2 = (np.stack([tr.iterates[-1] for tr in stabilize_points(f, UP, X)])
                  for f in (f1, f2))
        assert max(algebra.stacked_norms(M2, r1 - r2)) <= 1e-6

    def test_superstability_under_product_control(self, rng):
        # exact involution: the stabilized map equals f pointwise
        f = ApproxMap(maps.conjugation(), maps.NO_PERTURBATION, SCALAR)
        d = select_direction(power_product(0.1, 0.25))
        X = np.stack([algebra.sample_element(SCALAR, (0.1, 10.0), rng) for _ in range(20)])
        limits = np.stack([tr.iterates[-1] for tr in stabilize_points(f, d, X)])
        assert max(algebra.stacked_norms(SCALAR, limits - maps.eval_f_rows(f, X))) <= 1e-12


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
    """One point's orbit, step by step on one-row stacks: the serial loop
    stabilize_points batches.  Returns (iterates, diffs, converged), or
    raises at the first failing step: IterateOverflow for an argument past
    the guard or an iterate that is not finite, NonCauchy at the 8th rise."""
    def f_of(a):
        return maps.eval_f_rows(f, a[None])[0]

    def norm(a):
        return algebra.stacked_norms(f.spec, a[None])[0]

    def finite(a):
        if not np.isfinite(a).all():
            raise IterateOverflow("iterate f value is not finite")
        return a

    iterates, diffs = [finite(f_of(x))], []
    xn, scale_n, increasing_run = x, 1.0, 0
    for _ in range(max_n):
        xn = complex(direction.q) * xn
        scale_n /= direction.q
        if float(np.max(np.abs(xn))) > 1e300:
            raise IterateOverflow("iterate argument norm exceeded 1e300")
        with np.errstate(over="ignore", invalid="ignore"):
            a = finite(complex(scale_n) * f_of(xn))
        d = norm(a - iterates[-1])
        if diffs and d > diffs[-1]:
            increasing_run += 1
            if increasing_run >= 8:
                raise NonCauchy("successive differences grew 8 consecutive steps")
        else:
            increasing_run = 0
        prev = iterates[-1]
        iterates.append(a)
        diffs.append(d)
        if d <= tol_rel * max(1.0, norm(prev)):
            return iterates, diffs, True
    return iterates, diffs, False


def orbit_outcome(f, direction, X, max_n, tol_rel):
    """Every bit of a batch's traces, or the type and message it raised."""
    try:
        traces = stabilize_points(f, direction, X, max_n, tol_rel)
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


class TestStabilizePoints:
    def test_deep_cap_costs_only_the_steps_run(self):
        # Every row stops at step 1, so a cap of two million steps builds
        # nothing sized by it.
        f = ApproxMap(maps.conjugation(), maps.NO_PERTURBATION, SCALAR)
        X = np.array([[1 + 1j], [0j], [-3 + 0j]])
        tracemalloc.start()
        try:
            traces = stabilize_points(f, UP, X, max_n=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(tr.n_used, tr.converged) for tr in traces] == [(1, True)] * 3
        assert peak < 100_000

    @pytest.mark.parametrize("name", BATCH_MAPS)
    @pytest.mark.parametrize("max_n, tol_rel", [(48, 1e-10), (30, 1e-4)],
                             ids=["tight", "loose"])
    def test_batch_matches_single_points(self, rng, name, max_n, tol_rel):
        f = BATCH_MAPS[name]
        xs = [np.zeros(f.spec.shape, dtype=np.complex128)] + [
            algebra.sample_element(f.spec, (0.1, 10.0), rng) for _ in range(7)]
        batch = stabilize_points(f, UP, np.stack(xs), max_n, tol_rel)
        single = [stabilize_points(f, UP, x[None], max_n, tol_rel)[0] for x in xs]
        for x, got, want in zip(xs, batch, single):
            assert got.iterates.tobytes() == want.iterates.tobytes()
            assert got.iterates.shape == (got.n_used + 1, *f.spec.shape)
            assert got.diffs == want.diffs
            assert (got.n_used, got.converged) == (want.n_used, want.converged)
            ref_iterates, ref_diffs, ref_converged = reference_orbit(f, UP, x, max_n, tol_rel)
            assert got.iterates.tobytes() == np.stack(ref_iterates).tobytes()
            assert (got.diffs, got.converged) == (ref_diffs, ref_converged)
        # The zero point stops at step 1, so the rows leave at mixed depths.
        assert len({tr.n_used for tr in batch}) > 1

    def test_iterates_read_only(self):
        tr = stabilize_points(BATCH_MAPS["scalar-conjugation"], UP, np.array([[4.0 + 0j]]))[0]
        with pytest.raises(ValueError):
            tr.iterates[0, 0] = 0.0

    @pytest.mark.parametrize("name", BATCH_MAPS)
    def test_empty_batch(self, name):
        f = BATCH_MAPS[name]
        orbits = stabilize_points(f, UP, np.zeros((0, *f.spec.shape), dtype=np.complex128))
        assert list(orbits) == []
        assert orbits.iterates.shape == orbits.limits.shape == (0, *f.spec.shape)

    @pytest.mark.parametrize("size", [6, 300], ids=["one-block", "many-blocks"])
    def test_orbits_are_views_of_one_flat_stack(self, rng, size):
        # Each row's trace is built on first access, as a view of the
        # batch's read-only iterate stack, and kept; `limits` holds the
        # rows' last iterates.  300 rows run in several blocks of whole
        # rows, whose slices the stack joins in row order.
        f = BATCH_MAPS["matrix-adjoint-fixed"]
        X = np.stack([np.zeros(f.spec.shape, dtype=np.complex128)] + [
            algebra.sample_element(f.spec, (0.1, 10.0), rng) for _ in range(size - 1)])
        orbits = stabilize_points(f, UP, X, 30, 1e-4)
        for k in range(0, size, size // 6):
            single = stabilize_points(f, UP, X[k:k + 1], 30, 1e-4)[0]
            assert orbits[k].iterates.tobytes() == single.iterates.tobytes()
        assert not orbits.iterates.flags.writeable
        assert orbits.offsets[0] == 0 and orbits.offsets[-1] == len(orbits.iterates)
        for k, tr in enumerate(orbits):
            start, end = orbits.offsets[k], orbits.offsets[k + 1]
            assert np.shares_memory(tr.iterates, orbits.iterates)
            assert tr.iterates.tobytes() == orbits.iterates[start:end].tobytes()
            assert tr.n_used == end - start - 1 and tr.converged == orbits.converged[k]
            assert orbits.limits[k].tobytes() == tr.iterates[-1].tobytes()
            assert orbits[k] is tr and orbits[k - len(orbits)] is tr
        assert orbits[1:3] == [orbits[1], orbits[2]]
        with pytest.raises(IndexError):
            orbits[len(orbits)]

    def test_stack_shape_checked(self):
        with pytest.raises(SpecMismatch):
            stabilize_points(BATCH_MAPS["scalar-conjugation"], UP, np.zeros((2, 2), complex))

    @pytest.mark.parametrize("name", ["pointwise-random", "matrix-adjoint-fixed"])
    def test_nonfinite_row_rejected(self, capfd, name):
        # Rejected before any evaluation, so no norm reaches LAPACK, which
        # would print to stdout.
        f = BATCH_MAPS[name]
        X = np.ones((3, *f.spec.shape), dtype=np.complex128)
        X[1].flat[-1] = np.inf
        X[2].flat[0] = np.nan
        with pytest.raises(ValueError, match="row 1 of X is not finite"):
            stabilize_points(f, UP, X)
        assert capfd.readouterr() == ("", "")

    def test_nonfinite_value_is_iterate_overflow(self):
        # theta_delta * ||q^n x|| overflows to inf before the argument
        # passes the 1e300 guard; the row fails without a numpy warning.
        f = ApproxMap(maps.conjugation(),
                      PerturbationSpec("random_direction", 1e9, 1.0, 3), algebra.pointwise_spec(2))
        X = np.array([[1 + 1j, 0.5], [2, 3j]])
        with pytest.raises(IterateOverflow, match="not finite"):
            stabilize_points(f, select_direction(power_sum(0.3, 0.5)), X, max_n=1100)

    def test_failing_row_fails_batch(self):
        # r = 2 with q = 2 scales the perturbation up; the zero row alone
        # stabilizes, but a batch holding a diverging row raises.
        f = ApproxMap(maps.conjugation(), radial(0.1, 2.0), SCALAR)
        assert stabilize_points(f, UP, np.array([[0j]]), max_n=400)[0].converged
        with pytest.raises((IterateOverflow, NonCauchy)):
            stabilize_points(f, UP, np.array([[0j], [4 + 0j]]), max_n=400)

    @pytest.mark.parametrize("f, direction", [
        pytest.param(BATCH_MAPS["matrix-adjoint-fixed"], UP, id="matrix-fixed"),
        pytest.param(BATCH_MAPS["pointwise-random"], UP, id="pointwise-random"),
        pytest.param(R15, select_direction(power_sum(0.3, 1.5)), id="q-half"),
    ])
    @pytest.mark.parametrize("shallow", [(10, 1e-10), (30, 1e-4)], ids=["capped", "loose"])
    def test_deeper_orbit_extends_shallower(self, rng, f, direction, shallow):
        # Each a_n is evaluated from x, not from a_{n-1}: a deeper or
        # stricter orbit begins with the shallower one's iterates, bit for
        # bit, whatever blocks either ran in.
        X = np.stack([np.zeros(f.spec.shape, dtype=np.complex128)] + [
            algebra.sample_element(f.spec, (0.1, 10.0), rng) for _ in range(7)])
        traces = stabilize_points(f, direction, X, *shallow)
        deep = stabilize_points(f, direction, X, 96, 1e-12)
        for tr, dt in zip(traces, deep):
            assert dt.iterates[:tr.n_used + 1].tobytes() == tr.iterates.tobytes()
            assert dt.diffs[:tr.n_used] == tr.diffs
        # The zero row stops at step 1 at any depth; the others go deeper.
        assert deep[0].n_used == traces[0].n_used == 1
        assert all(dt.n_used > tr.n_used for tr, dt in zip(traces[1:], deep[1:]))
        if shallow[1] == 1e-4:
            assert all(tr.converged and tr.n_used < shallow[0] for tr in traces)
        else:
            assert not any(tr.converged for tr in traces[1:])

    def test_scales_past_the_exponent_range(self):
        # q^-n = 2^-n is subnormal from step 1023 and rounds to 0 at step
        # 1075, where a_n = 0.  For q = 1/2, q^-n = 2^n is inf at step 1024,
        # where a_n is not finite; at r = 1.01 that orbit's differences decay
        # by only 2^-0.01 a step.  Both as the step-by-step orbit.
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)
        X = np.array([[1e-300 + 0j]])
        got = orbit_outcome(f, UP, X, 1100, 5e-324)
        assert got == reference_outcome(f, UP, X, 1100, 5e-324)
        assert got[0][3] > 1075 and not np.frombuffer(got[0][1], complex)[1075:].any()
        f = ApproxMap(maps.conjugation(), radial(0.1, 1.01), SCALAR)
        X = np.array([[2.0 ** 60 + 0j]])
        got = orbit_outcome(f, DOWN, X, 1023, 5e-324)
        assert got == reference_outcome(f, DOWN, X, 1023, 5e-324)
        assert got[0][3:] == (1023, False)
        assert orbit_outcome(f, DOWN, X, 1024, 5e-324) == NOT_FINITE

    @pytest.mark.parametrize("direction", [UP, DOWN], ids=["q-2", "q-half"])
    def test_signed_zeros_match_reference(self, direction):
        # The adjoint of a real matrix has imaginary parts -0.0; scaling by
        # q^-n as a complex number turns those of positive entries to +0.0,
        # as the step-by-step orbit does.
        f = ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, M2)
        X = np.array([[[1.0, -2.0], [0.0, 3.0]]], dtype=complex)
        got = orbit_outcome(f, direction, X, 48, 1e-10)
        assert got == reference_outcome(f, direction, X, 48, 1e-10)

    @pytest.mark.parametrize("max_n", [8, 9, 20])
    def test_non_cauchy_run_straddles_the_cap(self, max_n):
        # The differences grow from the first step: the 8-step rule fires
        # at step 9, so only an orbit allowed that far fails.
        X = np.array([[0j], [4 + 0j]])
        got = orbit_outcome(DIVERGING, UP, X, max_n, 1e-10)
        assert got == reference_outcome(DIVERGING, UP, X, max_n, 1e-10)
        assert (got[0] is NonCauchy) == (max_n >= 9)

    def test_overflow_after_the_cap(self):
        # The argument passes the guard at step 34: a cap of 20 stops the
        # row unconverged, one of 60 lets it overflow.
        X = np.array([[1e290, 2e289j, 0, 1e288]])
        assert orbit_outcome(WANDERING, UP, X, 20, 1e-10)[0][3:] == (20, False)
        got = orbit_outcome(WANDERING, UP, X, 60, 1e-10)
        assert got == reference_outcome(WANDERING, UP, X, 60, 1e-10)
        assert got == GUARD

    @np.errstate(over="ignore", invalid="ignore")
    def test_first_failing_row_is_raised(self):
        # Row 1's f(x) is not finite (its perturbation is inf * u), which
        # is an IterateOverflow at a_0; row 0 fails later in the orbit but
        # first in the batch.
        f = ApproxMap(maps.conjugation(), radial(1e10, 2.0), SCALAR)
        X = np.array([[1e-3 + 0j], [1e150 + 0j]])
        got = orbit_outcome(f, UP, X, 20, 1e-10)
        assert got == reference_outcome(f, UP, X, 20, 1e-10)
        assert got == NON_CAUCHY
        assert orbit_outcome(f, UP, X[1:], 20, 1e-10)[0] is IterateOverflow


def raised(f, X, max_n=48, tol_rel=1e-10):
    """The type and message of the exception a batch raises, which the
    step-by-step orbit raises too."""
    with pytest.raises(InvolStabError) as info:
        stabilize_points(f, UP, X, max_n, tol_rel)
    got = type(info.value), str(info.value)
    assert got == reference_outcome(f, UP, X, max_n, tol_rel)
    return got


NON_CAUCHY = (NonCauchy, "successive differences grew 8 consecutive steps")
NOT_FINITE = (IterateOverflow, "iterate f value is not finite")
GUARD = (IterateOverflow, "iterate argument norm exceeded 1e300")
# Every nonzero row of R40 has differences that grow from step 1, so it
# fails NonCauchy at step 9 unless its amplitude (2^n x)^40 overflows first,
# at step 26 - m for x = 2^m, which makes its f value not finite.
R40 = ApproxMap(maps.conjugation(), radial(0.1, 40.0), SCALAR)
# Three rows of one map that fail inside the block of steps 8..15: NC10 by
# NonCauchy at step 10, NC13 at step 13; OOR11's amplitude overflows at
# step 11, where its f value is not finite.
RANDOM_R2 = ApproxMap(maps.conjugation(), PerturbationSpec("random_direction", 0.1, 2.0, 3),
                      algebra.pointwise_spec(2))
NC10 = np.array([3 + 1j, 3])
NC13 = np.array([7, 3], dtype=complex)
OOR11 = np.array([2.0 ** 501, 3 * 2.0 ** 489], dtype=complex)


class TestSpeculativeSteps:
    """A block evaluates steps past a row's stop, which raise nothing: a
    batch raises the exception of its lowest failing row, as the
    one-step-at-a-time loop does (`raised` checks each against
    reference_outcome)."""

    @pytest.mark.parametrize("x, step, failure", [
        (NC10, 10, NON_CAUCHY), (NC13, 13, NON_CAUCHY), (OOR11, 11, NOT_FINITE)])
    def test_rows_fail_at_their_steps(self, x, step, failure):
        tr = stabilize_points(RANDOM_R2, UP, x[None], step - 1)[0]
        assert (tr.n_used, tr.converged) == (step - 1, False)
        assert raised(RANDOM_R2, x[None], step) == failure

    @pytest.mark.parametrize("m, failure", [
        (14, NON_CAUCHY),  # the amplitude overflows at step 12, past the stop
        (16, NON_CAUCHY),  # at step 10, the first step past it
        (17, NOT_FINITE),  # at step 9
    ])
    def test_amplitude_overflow_past_the_stop(self, m, failure):
        assert raised(R40, np.array([[2.0 ** m + 0j]])) == failure

    @pytest.mark.parametrize("tol_rel, outcome", [(7e-152, (9, True)), (5e-152, GUARD)])
    def test_guard_past_the_stop(self, tol_rel, outcome):
        # The argument passes the guard at step 10; at 7e-152 the row
        # converges at step 9, in the same block.
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), algebra.pointwise_spec(2))
        X = np.array([[1e297, 1]], dtype=complex)
        if outcome is GUARD:
            assert raised(f, X, tol_rel=tol_rel) == GUARD
        else:
            tr = stabilize_points(f, UP, X, 48, tol_rel)[0]
            assert (tr.n_used, tr.converged) == outcome

    @pytest.mark.parametrize("m, failure", [
        (484, NON_CAUCHY),  # f is not finite from step 12, past the stop at 9
        (487, NOT_FINITE),  # from step 9, before the NonCauchy rule runs
    ])
    def test_nonfinite_value_past_the_stop(self, m, failure):
        f = ApproxMap(maps.conjugation(), radial(1e10, 2.0), SCALAR)
        assert raised(f, np.array([[2.0 ** m + 0j]])) == failure

    @pytest.mark.parametrize("rows, failure, row", [
        # The lowest failing row decides, whichever row fails at the
        # earliest step.
        ([NC10, OOR11], NON_CAUCHY, 0),
        ([np.zeros(2, complex), NC10, OOR11], NON_CAUCHY, 1),
        ([NC10, NC13, OOR11], NON_CAUCHY, 0),
        ([OOR11, NC10], NOT_FINITE, 0),
        ([NC13, OOR11], NON_CAUCHY, 0),
    ])
    def test_non_cauchy_mid_block_with_rows_running(self, rows, failure, row):
        X = np.stack(rows)
        assert raised(RANDOM_R2, X) == failure == raised(RANDOM_R2, X[row:row + 1])

    @pytest.mark.parametrize("firsts, failure", [
        ((5, 0), NOT_FINITE),  # OOR11 then NC10
        ((0, 3), NON_CAUCHY),  # NC10 then OOR11
        ((6, 0), NON_CAUCHY),  # NC10 then OOR11
        ((7, 2), NON_CAUCHY),  # NC13 then OOR11
    ], ids=["oor-first-split", "oor-second-split", "nc-first-split", "both-split"])
    def test_rows_split_at_different_depths(self, monkeypatch, firsts, failure):
        # A row whose first width differs from its neighbour's (0 is no
        # prediction: widths 1, 2, 4, ...) restarts in other blocks, and the
        # batch ends as the unsplit one.
        first = OOR11 if firsts == (5, 0) else NC13 if firsts == (7, 2) else NC10
        X = np.stack([first, NC10 if first is OOR11 else OOR11])
        want = raised(RANDOM_R2, X)
        monkeypatch.setattr(stabilizer, "_predicted_stops",
                            lambda *args: np.array(firsts, dtype=np.intp))
        assert raised(RANDOM_R2, X) == failure == want


def counting_calls(monkeypatch):
    """Record the stacks eval_f_rows (as the orbit calls it) and
    algebra.stacked_norms are called on."""
    calls = {"eval_f_rows": [], "stacked_norms": []}
    eval_f_rows, stacked_norms = stabilizer.eval_f_rows, algebra.stacked_norms

    def counting_eval(f, X):
        calls["eval_f_rows"].append(X)
        return eval_f_rows(f, X)

    def counting_norms(spec, stack):
        calls["stacked_norms"].append(stack.copy())
        return stacked_norms(spec, stack)

    monkeypatch.setattr(stabilizer, "eval_f_rows", counting_eval)
    monkeypatch.setattr(algebra, "stacked_norms", counting_norms)
    return calls


class TestOrbitBlocks:
    @pytest.mark.parametrize("perturbation", [radial(0.1, 0.5, seed=5), maps.NO_PERTURBATION],
                             ids=["fixed-direction", "none"])
    def test_calls_per_batch(self, monkeypatch, rng, perturbation):
        # 40 points, which with the perturbation none converge by step 48,
        # and without it all stop at step 1: a_0, then one block to the stop
        # predicted from the perturbation's decay.  The orbit reads the norms
        # of a_0 in one call, and the block's norms of its differences and
        # of its iterates in one call each.
        f = ApproxMap(maps.adjoint(), perturbation, M2)
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(40)])
        calls = counting_calls(monkeypatch)
        tol_rel = 1e-10 if perturbation.kind.value != "none" else 1e-300
        traces = stabilize_points(f, UP, X, 48, tol_rel)
        if perturbation.kind.value != "none":
            assert not any(tr.converged for tr in traces)
            assert [tr.n_used for tr in traces] == [48] * 40
        evals = calls["eval_f_rows"]
        assert len(evals) == 2
        # Every argument q^n x the orbit evaluates, n = 0 .. 48.
        args, Y = set(), X
        for _ in range(49):
            args.update(row.tobytes() for row in Y)
            Y = complex(UP.q) * Y

        def stacks_of(rows):
            return [len(stack) for stack in calls["stacked_norms"]
                    if all(row.tobytes() in rows for row in stack)]

        if perturbation.kind.value == "none":
            assert stacks_of(args) == []
        else:
            # ||x|| for the predicted stops, and for the amplitudes of each
            # evaluation, on its arguments.
            assert stacks_of(args) == [40, 40, len(evals[1])]
        blocks = [len(A) for A in evals[1:]]
        assert stacks_of({row.tobytes() for tr in traces
                          for row in tr.iterates[1:] - tr.iterates[:-1]}) == blocks
        assert stacks_of({row.tobytes() for tr in traces for row in tr.iterates}) == [40, *blocks]
        if len(traces[0].diffs) == 48:
            assert [len(A) for A in evals] == [40, 40 * 48]

    def test_block_cells_capped(self, monkeypatch, rng):
        # 100 rows that run to max_n, in blocks of whole rows taken in
        # order: no block's rows times its widest width passes _BLOCK_CELLS,
        # unless it is one row.  Then with mixed first widths and a cap of 40
        # cells: rows restart at 2, 4, 8 ... times their width, some blocks
        # mix widths, and rows wider than 40 run alone.
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2)
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(100)])
        want = [tr.iterates.tobytes() for tr in stabilize_points(f, UP, X, 48, 1e-10)]
        evaluate_block = stabilizer._evaluate_block
        for mixed in (False, True):
            cells = 40 if mixed else stabilizer._BLOCK_CELLS
            blocks = []

            def recording(f, q, rows, A0, widths):
                blocks.append(widths.tolist())
                return evaluate_block(f, q, rows, A0, widths)

            with monkeypatch.context() as patch:
                if mixed:
                    firsts = rng.integers(1, 49, len(X))
                    patch.setattr(stabilizer, "_predicted_stops", lambda *args: firsts)
                    patch.setattr(stabilizer, "_BLOCK_CELLS", cells)
                calls = counting_calls(patch)
                patch.setattr(stabilizer, "_evaluate_block", recording)
                traces = stabilize_points(f, UP, X, 48, 1e-10)
            assert [tr.n_used for tr in traces] == [48] * 100
            assert [tr.iterates.tobytes() for tr in traces] == want
            for widths, stack in zip(blocks, calls["eval_f_rows"][1:]):
                assert len(stack) == sum(widths)
                assert len(widths) == 1 or len(widths) * max(widths) <= cells
            if mixed:
                assert any(len(set(widths)) > 1 for widths in blocks)
                assert any(widths[0] > cells for widths in blocks)
                assert sum(map(len, blocks)) > len(X)
            else:
                sizes = [len(A) for A in calls["eval_f_rows"]]
                assert max(sizes) <= cells < 100 * 45
                assert sum(sizes) == 100 * 49

    def test_rows_restart_from_step_1_at_double_width(self, monkeypatch, rng):
        # Rows whose first width ends before their stop run again from
        # step 1 at twice the width, at most max_n, until a width reaches
        # the stop; the batch ends as the step-by-step orbit.
        f = BATCH_MAPS["matrix-adjoint-fixed"]
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(4)])
        want = reference_outcome(f, UP, X, 30, 1e-4)
        firsts = np.array([1, 3, 5, 30], dtype=np.intp)
        monkeypatch.setattr(stabilizer, "_predicted_stops", lambda *args: firsts)
        blocks = []
        evaluate_block = stabilizer._evaluate_block

        def recording(f, q, rows, A0, widths):
            assert A0.tobytes() == maps.eval_f_rows(f, rows).tobytes()
            blocks.append({row.tobytes(): w for row, w in zip(rows, widths.tolist())})
            return evaluate_block(f, q, rows, A0, widths)

        calls = counting_calls(monkeypatch)
        monkeypatch.setattr(stabilizer, "_evaluate_block", recording)
        assert orbit_outcome(f, UP, X, 30, 1e-4) == want
        restarted = 0
        for x, first, (*_, n_used, _) in zip(X, firsts.tolist(), want):
            expected = [first]
            while expected[-1] < n_used:
                expected.append(min(2 * expected[-1], 30))
            assert [block[x.tobytes()] for block in blocks if x.tobytes() in block] == expected
            # Each width's block evaluates step 1, q x, again.
            step_1 = (complex(UP.q) * x).tobytes()
            assert sum(step_1 in {row.tobytes() for row in stack}
                       for stack in calls["eval_f_rows"][1:]) == len(expected)
            restarted += len(expected) > 1
        assert restarted == 3

    @pytest.mark.parametrize("order, evaluated", [([0, 1, 2], 353), ([2, 1, 0], 1921)],
                             ids=["failing-first", "failing-last"])
    def test_rows_above_a_failed_row_stop(self, monkeypatch, order, evaluated):
        # WANDERING's rows neither stop nor fail before max_n, so without a
        # prediction they run at widths 1, 2, 4, ..., 256, 400; the large
        # row passes the guard at step 34, in its block of width 64.  The
        # rows above it then run no further: a_0, widths 1 to 32, and that
        # block are 3 + 3 * 63 + 33 + 2 * 64 rows.  The rows below it run to
        # max_n: 3 + 2 * (511 + 400) + 63 + 33.
        X = np.stack([np.full(4, 1e300 / 2 ** 33.5 + 0j), np.full(4, 0.7 + 0.2j),
                      np.full(4, 1.3 - 0.4j)])[order]
        calls = counting_calls(monkeypatch)
        with pytest.raises(IterateOverflow, match="exceeded 1e300"):
            stabilize_points(WANDERING, UP, X, 400)
        assert sum(map(len, calls["eval_f_rows"])) == evaluated

    def test_block_that_keeps_no_step(self):
        # The argument passes the guard at step 16, the first of a block:
        # the block keeps no step, and the row fails as step by step.  r near
        # 1 keeps the perturbation above the entries' last bit.
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.99), M2)
        x = 1.5e300 / 2 ** 16 * np.ones(M2.shape, dtype=complex)
        with pytest.raises(IterateOverflow, match="exceeded 1e300"):
            reference_orbit(f, UP, x, 48, 1e-300)
        with pytest.raises(IterateOverflow, match="exceeded 1e300"):
            stabilize_points(f, UP, x[None], 48, 1e-300)

    @pytest.mark.parametrize("direction, corner, rest, tol_rel", [
        # Arguments from 1e110 up to about 8e138, and from 1e-110 down to
        # about 1e-139: in the closed form's safe range at first, then
        # outside it and past LAPACK's rescaling thresholds.
        (UP, 1e110, 1.0, 1e-70),
        (DOWN, 1e-110, 0.0, 1e-200),
        # From about 1e-140: x itself is outside.
        (UP, 1e-140, 1e-140, 1e-100),
    ], ids=["huge-q-2", "tiny-q-half", "tiny-start"])
    def test_recompute_path_near_lapack_thresholds(self, monkeypatch, rng, direction, corner,
                                                   rest, tol_rel):
        # The norms of the arguments outside the safe range come from
        # LAPACK's svd, and the orbit still matches the step-by-step one.
        r = 0.5 if direction is UP else 1.5
        f = ApproxMap(maps.adjoint(), radial(0.1, r, seed=5), M2)
        scale = np.array([[corner, rest], [rest, rest]], dtype=complex)
        X = np.stack([scale * algebra.sample_element(M2, (0.5, 2.0), rng) for _ in range(4)])
        svd_rows = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svd_rows.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        traces = stabilize_points(f, direction, X, 96, tol_rel)
        assert sum(svd_rows) > 0
        monkeypatch.undo()
        for x, tr in zip(X, traces):
            iterates, diffs, conv = reference_orbit(f, direction, x, 96, tol_rel)
            assert tr.iterates.tobytes() == np.stack(iterates).tobytes()
            assert (tr.diffs, tr.converged) == (diffs, conv)
            assert tr.n_used > 80


class TestArgumentLadder:
    @pytest.mark.parametrize("direction, x", [
        # Halving from subnormal parts rounds at every step: 11 * 2^-1074
        # becomes 6, 3, then 2 * 2^-1074, where one-shot scaling by 2^-3
        # gives 1 * 2^-1074.  A negative imaginary part that underflows
        # stays -0.0 in complex(q) * arg, but is +0.0 in arg * complex(q)
        # where the real part is positive or +0.0.
        (DOWN, [11 * 5e-324 * (1 + 1j), -0.0 + 3 * 5e-324j, 1e-300 - 5e-324j,
                5e-324 - 7 * 5e-324j]),
        # Doubling across the 1e300 guard, with signed zero parts.
        (UP, [1e290 - 0.0j, -0.0 + 3e-300j, -1e295 + 0j, 0j]),
    ], ids=["halving-subnormal", "doubling-past-guard"])
    def test_arguments_repeat_the_multiplication(self, monkeypatch, direction, x):
        # Row j of a block, of width j + 1, evaluates q^n x for n = 1 to
        # j + 1, up to the guard, in one stacked call: each argument has the
        # bits of repeated multiplication by complex(q), each value those of
        # the step-by-step orbit, and a step is guarded where its argument,
        # so built, passes 1e300.
        width = 40
        f = ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, M2)
        X = np.repeat(np.array(x).reshape(1, 2, 2), width, axis=0)
        calls = counting_calls(monkeypatch)
        guarded, chain = stabilizer._evaluate_block(f, direction.q, X, X,
                                                    np.arange(1, width + 1))
        monkeypatch.undo()
        (evaluated,) = calls["eval_f_rows"]
        ladder, values, arg, scale = [], [], X[0], 1.0
        for _ in range(width):
            arg, scale = complex(direction.q) * arg, scale / direction.q
            ladder.append(arg)
            values.append(complex(scale) * maps.eval_f_rows(f, arg[None])[0])
        past = [float(np.max(np.abs(a))) > 1e300 for a in ladder]
        assert any(past) == (direction is UP)
        evaluated = iter(evaluated)
        for j in range(width):
            assert guarded[j].tolist() == [past[n] and n <= j for n in range(width)]
            assert chain[j, 0].tobytes() == X[j].tobytes()
            for n in range(j + 1):
                if any(past[:n + 1]):
                    assert np.isnan(chain[j, n + 1]).all()
                    continue
                assert next(evaluated).tobytes() == ladder[n].tobytes()
                assert chain[j, n + 1].tobytes() == values[n].tobytes()
        assert next(evaluated, None) is None


class TestStopTestBoundary:
    # Rank-1 orbits stopped with tol_rel at the smallest value that stops
    # them at step n, and one ulp either side.  Entries of 1e160 lie outside
    # the closed form's safe range, so LAPACK computes their norms (r near 1
    # keeps the perturbation above their last bit); entries of 1e-200 leave
    # the max(1, .) floor to decide.
    @pytest.mark.parametrize("c, r", [(3.0, 0.5), (0.3 - 0.4j, 0.5), (1e160, 0.99),
                                      (1e-200, 0.5)])
    @pytest.mark.parametrize("n", [1, 6, 29])
    def test_tol_at_a_step_boundary(self, c, r, n):
        f = ApproxMap(maps.adjoint(), radial(0.1, r), M2)
        x = c * np.ones(M2.shape, dtype=complex)
        iterates, diffs, _ = reference_orbit(f, UP, x, 32, 1e-300)
        d = diffs[n - 1]
        assert d > 0
        floor = max(1.0, algebra.stacked_norms(M2, iterates[n - 1][None])[0])
        tol = d / floor
        while d <= tol * floor:
            tol = float(np.nextafter(tol, 0.0))
        while not d <= tol * floor:
            tol = float(np.nextafter(tol, 1.0))
        stops = []
        for tol_rel in (float(np.nextafter(tol, 0.0)), tol, float(np.nextafter(tol, 1.0))):
            want_iterates, want_diffs, want_converged = reference_orbit(f, UP, x, 32, tol_rel)
            tr = stabilize_points(f, UP, x[None], 32, tol_rel)[0]
            assert tr.iterates.tobytes() == np.stack(want_iterates).tobytes()
            assert (tr.diffs, tr.converged) == (want_diffs, want_converged)
            stops.append(tr.n_used)
        assert stops[0] > n and stops[1:] == [n, n]


def reference_outcome(f, direction, X, max_n, tol_rel):
    """orbit_outcome from reference_orbit, row by row: the traces, or the
    exception of the first failing row, which is the batch's."""
    out = []
    for x in X:
        try:
            iterates, diffs, converged = reference_orbit(f, direction, x, max_n, tol_rel)
        except (IterateOverflow, NonCauchy) as exc:
            return type(exc), str(exc)
        iterates = np.stack(iterates)
        out.append((iterates.shape, iterates.tobytes(), diffs, len(diffs), converged))
    return out


class TestOpenDecisions:
    """Orbits whose differences tie or differ in their last bits: the
    decisions are those of the exact norms, step by step."""

    @pytest.mark.parametrize("spec", [M2, matrix_spec(3)], ids=["matrix2", "matrix3"])
    @pytest.mark.parametrize("perturbation", [
        # The differences of a random direction at r = 1 neither shrink nor
        # grow; at r = 1 - 2^-50 those of a fixed one shrink by under an ulp
        # a step, so they tie or differ in their last bits.
        PerturbationSpec("random_direction", 0.1, 1.0, 3),
        radial(0.1, 1.0, seed=5),
        radial(0.1, 1 - 2.0 ** -50, seed=5),
    ], ids=["random-r1", "fixed-r1", "fixed-near-r1"])
    @pytest.mark.parametrize("scale", [1.0, 1e-140, 1e130], ids=["unit", "tiny", "huge"])
    def test_near_ties_match_reference(self, rng, spec, perturbation, scale):
        # The tiny and huge rows' norms come from LAPACK, the unit 2x2 rows'
        # from the closed form.
        f = ApproxMap(maps.adjoint(), perturbation, spec)
        X = np.stack([scale * algebra.sample_element(spec, (0.5, 2.0), rng) for _ in range(3)])
        assert orbit_outcome(f, UP, X, 40, 1e-300) == reference_outcome(f, UP, X, 40, 1e-300)


def designed_orbit(monkeypatch, ks, lift=None):
    """A map whose orbit at x = ones, q = 2, is a_n = diag((-1)^n t_n, y_n)
    with t_0 = 1/2: its differences have the norms t_n + t_{n-1} =
    1 + k_n * 2^-52 for the integers k_1, k_2, ...  Equal k tie; k + 1 is one
    ulp more.  ||a_n|| = y_n is 1, and 2 from step `lift` on."""
    t = [Fraction(1, 2)]
    for k in ks:
        t.append(1 + k * Fraction(2) ** -52 - t[-1])
    assert all(0 < v == float(v) for v in t)
    orbit = np.zeros((len(t), 2, 2), dtype=complex)
    orbit[:, 0, 0] = [(-1) ** n * float(v) for n, v in enumerate(t)]
    orbit[:, 1, 1] = [1 if lift is None or n < lift else 2 for n in range(len(t))]

    def eval_rows(f, X):
        n = np.log2(X[:, 0, 0].real).astype(int)
        return orbit[n] * 2.0 ** n[:, None, None]

    monkeypatch.setattr(maps, "eval_f_rows", eval_rows)
    monkeypatch.setattr(stabilizer, "eval_f_rows", eval_rows)
    return ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, M2)


class TestRiseAtUlpEdges:
    # Runs of differences that grow by one ulp, broken by ties and by a
    # one-ulp fall: the exact norms decide whether the run reaches 8.
    @pytest.mark.parametrize("ks", [
        [0, 1, 2, 3, 4, 5, 6, 7, 7, 8, 9, 10, 11, 12, 13, 14, 14, 15, 15],  # ties reset
        [0, 1, 2, 3, 4, 5, 6, 7, 6, 7, 8, 9, 10, 11, 12, 13, 12, 12, 12],  # a fall resets
        [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8],  # the 8th rise
    ], ids=["tie", "fall", "non-cauchy"])
    def test_runs_match_reference(self, monkeypatch, ks):
        f = designed_orbit(monkeypatch, ks)
        X = np.ones((1, 2, 2), dtype=complex)
        ref = reference_outcome(f, UP, X, len(ks), 1e-300)
        if ks[1] == 0:
            assert ref == NON_CAUCHY
        else:
            assert ref[0][2] == [1 + k * 2.0 ** -52 for k in ks]
        for max_n in range(1, len(ks) + 1):
            got = orbit_outcome(f, UP, X, max_n, 1e-300)
            assert got == reference_outcome(f, UP, X, max_n, 1e-300)
            # Run first to any width, then from step 1 again at twice it,
            # the orbit ends the same.  The perturbation, which eval_rows
            # ignores, makes the orbit read _predicted_stops, so the first
            # width is `depth`; a cap of one cell runs every row alone.
            predicted = []

            def stops_at(depth):
                def stops(p, q, norms, lower, tol_rel, max_n):
                    predicted.append(depth)
                    return np.full(len(norms), depth, dtype=np.intp)
                return stops

            split = dataclasses.replace(f, perturbation=radial(0.1, 0.5))
            depths = range(1, min(max_n, 9))
            with monkeypatch.context() as patch:
                for depth in depths:
                    patch.setattr(stabilizer, "_predicted_stops", stops_at(depth))
                    assert orbit_outcome(split, UP, X, max_n, 1e-300) == got
                patch.setattr(stabilizer, "_BLOCK_CELLS", 1)
                assert orbit_outcome(split, UP, X, max_n, 1e-300) == got
            assert predicted[:len(depths)] == list(depths)

    @pytest.mark.parametrize("k9, outcome", [(8, NON_CAUCHY), (7, (9, True))],
                             ids=["eighth-rise", "tie"])
    def test_rise_at_a_sure_stop(self, monkeypatch, k9, outcome):
        # ||a_8|| = 2 lets step 9 meet tol_rel = 0.75, which step 8 does not;
        # step 9's rise by an ulp or tie decides between the 8th rise
        # running, which comes first, and convergence.
        f = designed_orbit(monkeypatch, [0, 1, 2, 3, 4, 5, 6, 7, k9, 9, 10], lift=8)
        X = np.ones((1, 2, 2), dtype=complex)
        got = orbit_outcome(f, UP, X, 11, 0.75)
        assert got == reference_outcome(f, UP, X, 11, 0.75)
        if outcome == NON_CAUCHY:
            assert got == NON_CAUCHY
        else:
            assert got[0][3:] == outcome


@st.composite
def orbit_cases(draw, rs=(0.5, 1.0, 1.5, 40.0)):
    """(f, direction, X, max_n, tol_rel): every kind, both directions, 1 to
    3 rows with norms from about 1e-160 to 1e160, and a perturbation
    exponent from `rs`.  At r = 40 the amplitude overflows for norms above
    about 1e8, at a_0 or on the way up."""
    spec = draw(st.sampled_from([SCALAR, P4, M2, matrix_spec(3)]))
    kind = draw(st.sampled_from(["none", "fixed_direction", "random_direction"]))
    perturbation = PerturbationSpec(kind, 0.1, draw(st.sampled_from(rs)), 4)
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    scales = draw(st.lists(st.integers(-160, 160), min_size=1, max_size=3))
    X = np.stack([10.0 ** e * algebra.sample_element(spec, (0.5, 2.0), rng) for e in scales])
    max_n = draw(st.integers(1, 40))
    return (ApproxMap(maps.conjugation() if spec.kind.value != "matrix" else maps.adjoint(),
                      perturbation, spec), draw(st.sampled_from([UP, DOWN])), X, max_n,
            draw(st.sampled_from([1e-4, 1e-10, 1e-14])))


class TestDifferential:
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(orbit_cases())
    def test_batch_matches_reference(self, case):
        # Iterates, diffs and converged of every row, or the exception, as
        # the step-by-step orbit gives them.
        f, direction, X, max_n, tol_rel = case
        assert orbit_outcome(f, direction, X, max_n, tol_rel) == reference_outcome(
            f, direction, X, max_n, tol_rel)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(orbit_cases(rs=(40.0,)))
    def test_overflowing_amplitudes_raise_no_out_of_range(self, case):
        # An amplitude that overflows makes its row's f value not finite:
        # the orbit raises only the reference's IterateOverflow or
        # NonCauchy, never the OutOfRange of an exception inside f.
        f, direction, X, max_n, tol_rel = case
        try:
            got = orbit_outcome(f, direction, X, max_n, tol_rel)
        except OutOfRange as exc:
            pytest.fail(f"OutOfRange from the orbit: {exc}")
        assert got == reference_outcome(f, direction, X, max_n, tol_rel)


class TestPredictedStops:
    @pytest.mark.parametrize("spec", [SCALAR, algebra.pointwise_spec(3), M2],
                             ids=["scalar", "pointwise3", "matrix2"])
    @pytest.mark.parametrize("kind", ["fixed_direction", "random_direction"])
    @pytest.mark.parametrize("direction, r", [(UP, 0.5), (DOWN, 1.5)], ids=["q-2", "q-half"])
    def test_prediction_covers_the_stop(self, monkeypatch, rng, spec, kind, direction, r):
        # Rows that converge before max_n each stop inside their first
        # block: one evaluation for a_0, one for the block.
        base = maps.adjoint() if spec.kind.value == "matrix" else maps.conjugation()
        f = ApproxMap(base, PerturbationSpec(kind, 0.1, r, 4), spec)
        X = np.stack([algebra.sample_element(spec, (0.1, 10.0), rng) for _ in range(8)])
        calls = counting_calls(monkeypatch)
        traces = stabilize_points(f, direction, X, 96, 1e-10)
        assert all(tr.converged and tr.n_used < 96 for tr in traces)
        assert len(calls["eval_f_rows"]) == 2

    @pytest.mark.parametrize("p, q, norm, lower, want", [
        (radial(0.1, 0.5), 2.0, 0.0, 0.0, 1),  # A = 0 at x = 0
        (radial(0.0, 0.5), 2.0, 4.0, 4.0, 1),  # A = 0 at theta_delta = 0
        (radial(0.1, 2.0), 0.5, 1e300, 1e300, 96),  # A overflows to inf
        (radial(0.1, 1100.0), 0.5, 1.0, 1.0, 2),  # rho = 2^-1099 underflows to 0
        (radial(0.1, 1.0), 2.0, 4.0, 4.0, 0),  # rho = 1: no prediction
        (radial(0.1, 2.0), 2.0, 4.0, 4.0, 0),  # rho = 2
        (radial(0.1, 1.0), 2.0, 0.0, 0.0, 1),  # rho = 1 at A = 0
        # rho = 2^-0.5 and A = 0.2: a last iterate's norm of 0 floors as 1
        # does; a large one lets the differences stop sooner.
        (radial(0.1, 0.5), 2.0, 4.0, 0.0, 65),
        (radial(0.1, 0.5), 2.0, 4.0, 1.0, 65),
        (radial(0.1, 0.5), 2.0, 4.0, 1e6, 25),
        (radial(0.1, 0.5), 2.0, 1e20, 0.0, 96),  # capped at max_n
    ])
    def test_edges(self, p, q, norm, lower, want):
        # None of them warns, which pytest would raise.
        got = stabilizer._predicted_stops(p, q, np.array([norm]), np.array([lower]), 1e-10, 96)
        assert got.dtype == np.intp and got.tolist() == [want]

    def test_underflowing_rate_through_the_orbit(self, monkeypatch):
        # a_1 drops the perturbation of a_0 whole, and a_2 = a_1: the orbit
        # stops at step 2, as predicted.
        f = ApproxMap(maps.conjugation(), radial(0.1, 1100.0), algebra.pointwise_spec(3))
        X = np.ones((1, 3), dtype=complex)
        calls = counting_calls(monkeypatch)
        got = orbit_outcome(f, DOWN, X, 48, 1e-10)
        assert len(calls["eval_f_rows"]) == 2
        monkeypatch.undo()
        assert got == reference_outcome(f, DOWN, X, 48, 1e-10)
        assert got[0][3:] == (2, True)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(orbit_cases(), st.data())
    def test_any_widths_match_reference(self, case, data):
        # Whatever the predicted stops and the cell cap, so whatever the
        # blocks' widths, the rows end as the step-by-step orbit: the same
        # iterates, diffs and converged, or exception.
        f, direction, X, max_n, tol_rel = case
        want = reference_outcome(f, direction, X, max_n, tol_rel)

        def drawn_stops(p, q, norms, lower, tol_rel, max_n):
            return np.array(data.draw(st.lists(st.integers(0, max_n + 2), min_size=len(norms),
                                               max_size=len(norms))), dtype=np.intp)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stabilizer, "_predicted_stops", drawn_stops)
            patch.setattr(stabilizer, "_BLOCK_CELLS", data.draw(st.integers(1, 64)))
            assert orbit_outcome(f, direction, X, max_n, tol_rel) == want


class TestErrorBound:
    def test_up_direction_value(self):
        # L/(1-L) = 1 + sqrt(2) for L = 2^{-1/2}
        phi = power_sum(0.1, 0.5)
        got = error_bounds(UP, phi, SCALAR, np.array([[4.0 + 0j]]))
        assert got == [pytest.approx((1 + SQRT2) * 0.1 * 2, rel=1e-12)]

    def test_down_direction_value(self):
        # phi(1, 0) = 1 and L^0/(1-L) = 4/3 for L = 1/4
        phi = power_sum(1.0, 3.0)
        got = error_bounds(DOWN, phi, SCALAR, np.array([[1.0 + 0j]]))
        assert got == [pytest.approx(4.0 / 3.0)]

    def test_product_control_superstability(self, rng):
        phi = power_product(0.4, 0.25)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert error_bounds(UP, phi, M2, x[None]) == [0.0]

    def test_rows_match_error_bound(self, rng):
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(5)])
        for direction in (UP, DOWN):
            for phi in (power_sum(0.3, 0.5), power_product(0.4, 0.25)):
                factor = direction.L ** (1 - direction.i) / (1.0 - direction.L)
                want = [factor * reference_control(phi, M2, x, np.zeros_like(x)) for x in X]
                assert error_bounds(direction, phi, M2, X).tolist() == want


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

