import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involstab import algebra, cli, maps, stabilizer
from involstab.algebra import SCALAR, matrix_spec, stacked_norms
from involstab.errors import IterateOverflow, NoContraction, NonCauchy, SpecMismatch
from involstab.maps import ApproxMap, PerturbationSpec
from involstab.stabilizer import (
    ControlKind,
    closeness,
    control,
    power_product,
    power_sum,
    select_direction,
    stabilize_points,
)
from involstab.verifier import StabilizedMap

M2 = matrix_spec(2)
M3 = matrix_spec(3)
P4 = algebra.pointwise_spec(4)
SQRT2 = math.sqrt(2)


def radial(theta, r, seed=None):
    return PerturbationSpec("fixed_direction", theta, r, direction_seed=seed)


def control_of(phi, spec, X, Y):
    """phi(x, y) on the row pairs of X and Y, as the scan computes it: from
    ||x|| and ||y||, or from ||xy|| under the product control."""
    if phi.kind is ControlKind.POWER_SUM:
        return control(phi, stacked_norms(spec, X), stacked_norms(spec, Y))
    return control(phi, stacked_norms(spec, algebra.mul_rows(spec, X, Y)))


def reference_control(phi, spec, x, y):
    """phi(x, y) one row pair at a time: the per-pair formula that
    control stacks."""
    def norm(a):
        return algebra.stacked_norms(spec, a[None]).tolist()[0]

    if phi.kind is ControlKind.POWER_SUM:
        return phi.theta * (norm(x) ** phi.r + norm(y) ** phi.r)
    return phi.theta * norm(algebra.mul_rows(spec, x[None], y[None])[0]) ** phi.r


class TestControlEval:
    def test_power_sum(self):
        phi = power_sum(0.3, 0.5)
        got = control_of(phi, SCALAR, np.array([[4.0 + 0j]]), np.array([[0j]]))
        assert got == [pytest.approx(0.6)]

    def test_power_product_zero_arg(self, rng):
        phi = power_product(0.7, 0.3)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert control_of(phi, M2, x[None], np.zeros_like(x)[None]) == [0.0]

    def test_zero_amplitude(self, rng):
        phi = power_sum(0.0, 0.5)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert control_of(phi, M2, x[None], x[None]) == [0.0]

    def test_scaling_law(self, rng):
        # phi(q^n x, q^n y) = (qL)^n phi(x, y), which forces (e9) in the limit
        for phi in (power_sum(0.3, 0.5), power_sum(0.2, 2.0), power_product(0.1, 0.25)):
            d = select_direction(phi)
            x = algebra.sample_element(M2, (0.5, 2.0), rng)
            y = algebra.sample_element(M2, (0.5, 2.0), rng)
            (base,) = control_of(phi, M2, x[None], y[None]).tolist()
            q = np.array([d.q ** n for n in (1, 3, 7)], dtype=np.complex128)[:, None, None]
            lhs = control_of(phi, M2, q * x, q * y)
            assert lhs.tolist() == [
                pytest.approx((d.q * d.L) ** n * base, rel=1e-10) for n in (1, 3, 7)]

    @pytest.mark.parametrize("spec", [SCALAR, P4, M2], ids=["scalar", "pointwise", "matrix"])
    def test_rows_match_element_reference(self, rng, spec):
        X = np.stack([algebra.sample_element(spec, (0.1, 10.0), rng) for _ in range(6)])
        Y = np.concatenate([np.zeros_like(X[:2]), X[2:][::-1]])
        for phi in (power_sum(0.3, 0.5), power_sum(0.2, 2.0), power_product(0.1, 0.25)):
            want = [reference_control(phi, spec, x, y) for x, y in zip(X, Y)]
            assert control_of(phi, spec, X, Y).tolist() == want

    def test_phi_x_zero_is_the_one_norm_form(self, rng):
        # phi(x, 0) from ||x|| alone has the bits of the pair form at y = 0:
        # a^r + 0.0 == a^r.
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(6)])
        phi = power_sum(0.3, 0.5)
        assert control(phi, stacked_norms(M2, X)).tobytes() == control(
            phi, stacked_norms(M2, X), np.zeros(len(X))).tobytes()

    def test_power_overflow_is_inf(self):
        # A power that overflows is inf, which each stage's finite check
        # turns into OutOfRange; the other rows keep their values.
        got = control(power_sum(0.3, 1030), np.array([10.0, 1.0]))
        assert got.tolist() == [math.inf, 0.3]


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


# q = 2 under the sum control at r = 1/2, q = 1/2 at r = 3: L = 2^-0.5 and
# 1/4.  Each map below is admissible for its direction's control: its
# perturbation has the control's exponent and a third of its amplitude.
PHI_UP, PHI_DOWN = power_sum(0.3, 0.5), power_sum(0.3, 3.0)
UP, DOWN = select_direction(PHI_UP), select_direction(PHI_DOWN)
U = 2.0 ** -52


def admissible(spec, kind, direction, seed=4):
    base = maps.adjoint() if spec.kind.value == "matrix" else maps.conjugation()
    r = 0.5 if direction is UP else 3.0
    return ApproxMap(base, PerturbationSpec(kind, 0.1, r, seed), spec)


def exact(spec):
    """The base involution of `admissible(spec, ...)`, unperturbed: the
    limit of every map admissible() builds on spec."""
    return admissible(spec, "none", UP)


SPECS = [pytest.param(spec, id=name) for spec, name in
         ((SCALAR, "scalar"), (P4, "pointwise"), (M2, "matrix2"), (M3, "matrix3"))]
DIRECTIONS = [pytest.param(UP, id="q-2"), pytest.param(DOWN, id="q-half")]


def phi_of(direction):
    return PHI_UP if direction is UP else PHI_DOWN


def rows_of(trace):
    """Each row's (depths, iterates, gaps), from the flat trace."""
    o = trace.offsets
    return [(trace.depths[o[k]:o[k + 1]], trace.iterates[o[k]:o[k + 1]],
             trace.gaps[o[k]:o[k + 1]]) for k in range(len(o) - 1)]


def reference_depth(direction, phi, spec, x):
    """n*(x) by its definition: the least n >= 1 with L^n e(x) <= tol(x),
    1 where e(x) = 0, searched one n at a time in Python floats."""
    norm = algebra.stacked_norms(spec, x[None]).tolist()[0]
    e = closeness(direction, phi, stacked_norms(spec, x[None])).tolist()[0]
    tol = max(8 * U * norm, min(1e-9 * norm, 1e-7))
    n = 1
    while e > 0 and direction.L ** n * e > tol and n < stabilizer.MAX_DEPTH:
        n += 1
    return n


def reference_iterate(f, direction, x, n):
    """a_n(x) step by step: n multiplications of the argument by complex(q),
    one f evaluation, then n divisions by q."""
    for _ in range(n):
        x = complex(direction.q) * x
    a = maps.eval_f_rows(f, x[None])[0]
    for _ in range(n):
        a = a / direction.q
    return a


class TestStabilizePoint:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("spec", SPECS)
    def test_exact_involution_constant(self, rng, spec, direction):
        # a_n(x) = q^-n (q^n x)* = x* at every depth, bit for bit.
        f = exact(spec)
        x = algebra.sample_element(spec, (0.5, 2.0), rng)
        trace = stabilize_points(f, direction, phi_of(direction), x[None])
        assert trace.depths[-1] > 1
        assert trace.iterates.tobytes() == np.repeat(
            maps.eval_f_rows(f, x[None]), len(trace.depths), axis=0).tobytes()

    def test_scalar_closed_form(self):
        # a_n = 4 + 0.2 * 2^{-n/2} at the ladder depths; the gaps are the
        # differences of that closed form; a_{n*} is within tol(4) = 4e-9.
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)
        trace = stabilize_points(f, UP, PHI_UP, np.array([[4.0 + 0j]]))
        L = 2 ** -0.5
        closed = [4 + 0.2 * L ** n for n in trace.depths]
        assert trace.depths.tolist() == [0, 1, 2, 4, 8, 16, 32, 57]
        assert trace.iterates[:, 0].real.tolist() == pytest.approx(closed, rel=1e-15)
        assert trace.gaps[:-1].tolist() == pytest.approx(np.diff(closed) * -1, rel=1e-9)
        assert math.isnan(trace.gaps[-1])
        assert abs(trace.iterates[-1, 0] - 4.0) <= 4e-9

    def test_zero_point(self):
        # e(0) = 0: depths 0 and 1, both f(0) = 0.
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)
        trace = stabilize_points(f, UP, PHI_UP, np.zeros((1, 1), dtype=np.complex128))
        assert trace.depths.tolist() == [0, 1]
        assert not trace.iterates.any()

    def test_geometric_gaps(self, rng):
        # A fixed direction's ladder gaps are 0.1 ||x||^0.5 (L^m - L^n).
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=3), M2)
        x = algebra.sample_element(M2, (0.5, 5.0), rng)
        (depths, _, gaps), = rows_of(stabilize_points(f, UP, PHI_UP, x[None]))
        amplitude = 0.1 * algebra.stacked_norms(M2, x[None])[0] ** 0.5
        want = [amplitude * (UP.L ** m - UP.L ** n) for m, n in zip(depths, depths[1:])]
        assert gaps[:-1].tolist() == pytest.approx(want, rel=1e-6, abs=1e-14)

    @pytest.mark.parametrize("direction, r, depth", [
        # r = 2 with q = 2 scales the perturbation up: a_n = 4 + 1.6 * 2^n,
        # whose a_2 - a_1 = 3.2 exceeds (L + L^2) e(4) = 1.75.
        pytest.param(UP, 2.0, 2, id="q-2"),
        # r = 1/2 with q = 1/2: a_n = 4 + 0.2 * 2^{n/2}, whose a_8 - a_4 =
        # 2.4 exceeds (L^4 + L^8) e(4) = 0.1 for L = 1/4, e(4) = 25.6.
        pytest.param(DOWN, 0.5, 8, id="q-half"),
    ])
    def test_wrong_direction_breaks_the_tail(self, direction, r, depth):
        f = ApproxMap(maps.conjugation(), radial(0.1, r), SCALAR)
        phi = phi_of(direction)
        with pytest.raises(NonCauchy, match=rf"at depth {depth}, row 1$"):
            stabilize_points(f, direction, phi, np.array([[0j], [4 + 0j]]))
        # The zero row alone stabilizes.
        assert stabilize_points(f, direction, phi, np.array([[0j]])).depths.tolist() == [0, 1]

    def test_bound_e5_on_probes(self, rng):
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2)
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(30)])
        trace = stabilize_points(f, UP, PHI_UP, X)
        limits = trace.iterates[trace.offsets[1:] - 1]
        diffs = algebra.stacked_norms(M2, limits - maps.eval_f_rows(f, X))
        for diff, bound in zip(diffs, closeness(UP, PHI_UP, stacked_norms(M2, X))):
            assert diff <= bound + 1e-9

    def test_uniqueness_of_limit(self, rng):
        # two admissible perturbations of the same base stabilize together
        f1 = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2)
        f2 = ApproxMap(maps.adjoint(), PerturbationSpec("random_direction", 0.1, 0.5, 6), M2)
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(10)])
        r1, r2 = (t.iterates[t.offsets[1:] - 1]
                  for t in (stabilize_points(f, UP, PHI_UP, X) for f in (f1, f2)))
        assert max(algebra.stacked_norms(M2, r1 - r2)) <= 1e-8

    def test_superstability_under_product_control(self, rng):
        # e(x) = 0: every row at depths 0 and 1, unchecked, and I = f.
        f = ApproxMap(maps.conjugation(), maps.NO_PERTURBATION, SCALAR)
        phi = power_product(0.1, 0.25)
        X = np.stack([algebra.sample_element(SCALAR, (0.1, 10.0), rng) for _ in range(20)])
        trace = stabilize_points(f, select_direction(phi), phi, X)
        assert trace.depths.tolist() == [0, 1] * 20
        assert trace.iterates.tobytes() == np.repeat(maps.eval_f_rows(f, X), 2, 0).tobytes()


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


class TestStabilizePoints:
    @pytest.mark.parametrize("name", BATCH_MAPS)
    def test_batch_matches_single_points(self, rng, name):
        # A row's ladder does not depend on the other rows of its batch.
        f = BATCH_MAPS[name]
        X = np.stack([np.zeros(f.spec.shape, dtype=np.complex128)] + [
            algebra.sample_element(f.spec, (1e-3, 1e3), rng) for _ in range(7)])
        batch = rows_of(stabilize_points(f, UP, PHI_UP, X))
        for x, got in zip(X, batch):
            (want,) = rows_of(stabilize_points(f, UP, PHI_UP, x[None]))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # The zero row stops at depth 1, so the rows end at mixed depths.
        assert len({depths[-1] for depths, _, _ in batch}) > 1

    @pytest.mark.parametrize("spec", SPECS)
    def test_real_stack_is_its_complex_cast(self, rng, spec):
        # A float64 stack is taken as its complex cast, which is exact: f
        # and every ladder get the cast's bits.  Viewing its float64 parts
        # as complex once halved the last axis, or failed on an odd width.
        f = admissible(spec, "random_direction", UP)
        X = rng.standard_normal((3, *spec.shape))
        C = X.astype(np.complex128)
        assert maps.eval_f_rows(f, X).tobytes() == maps.eval_f_rows(f, C).tobytes()
        real, cast = stabilize_points(f, UP, PHI_UP, X), stabilize_points(f, UP, PHI_UP, C)
        for name in ("offsets", "depths", "iterates", "gaps"):
            assert getattr(real, name).tobytes() == getattr(cast, name).tobytes()

    @pytest.mark.parametrize("spec", SPECS)
    def test_batch_matches_single_points_q_half(self, rng, spec):
        # The same at q = 1/2, whose arguments shrink, over both hashed and
        # fixed directions.
        X = np.stack([np.zeros(spec.shape, dtype=np.complex128)] + [
            algebra.sample_element(spec, (1e-3, 1e3), rng) for _ in range(5)])
        for kind in ("fixed_direction", "random_direction"):
            f = admissible(spec, kind, DOWN)
            batch = rows_of(stabilize_points(f, DOWN, PHI_DOWN, X))
            for x, got in zip(X, batch):
                (want,) = rows_of(stabilize_points(f, DOWN, PHI_DOWN, x[None]))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("kind", ["fixed_direction", "random_direction"])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("spec", SPECS)
    def test_depth_rule_and_ladder(self, rng, spec, direction, kind):
        # n* is the least n >= 1 whose tail meets tol(x), and the ladder is
        # 0, 1, 2, 4, ... < n*, then n*.  Radii from 1e-20 to 1e20, and 0.
        f = admissible(spec, kind, direction)
        X = np.concatenate([np.zeros((1, *spec.shape), dtype=np.complex128)] + [
            algebra.sample_element(spec, (10.0 ** e, 10.0 ** e), rng)[None]
            for e in range(-20, 21, 4)])
        for x, (depths, _, _) in zip(X, rows_of(stabilize_points(f, direction,
                                                                   phi_of(direction), X))):
            n = reference_depth(direction, phi_of(direction), spec, x)
            assert depths.tolist() == [0] + [2 ** k for k in range(12) if 2 ** k < n] + [n]

    @pytest.mark.parametrize("name", BATCH_MAPS)
    def test_empty_batch(self, name):
        f = BATCH_MAPS[name]
        trace = stabilize_points(f, UP, PHI_UP, np.zeros((0, *f.spec.shape), dtype=np.complex128))
        assert trace.offsets.tolist() == [0]
        assert trace.iterates.shape == (0, *f.spec.shape)
        assert len(trace.depths) == len(trace.gaps) == 0

    def test_stack_shape_checked(self):
        with pytest.raises(SpecMismatch):
            stabilize_points(BATCH_MAPS["scalar-conjugation"], UP, PHI_UP,
                             np.zeros((2, 2), complex))

    @pytest.mark.parametrize("name", ["pointwise-random", "matrix-adjoint-fixed"])
    def test_nonfinite_row_rejected(self, capfd, name):
        # Rejected before any evaluation, so no norm reaches LAPACK, which
        # would print to stdout.
        f = BATCH_MAPS[name]
        X = np.ones((3, *f.spec.shape), dtype=np.complex128)
        X[1].flat[-1] = np.inf
        X[2].flat[0] = np.nan
        with pytest.raises(ValueError, match="row 1 of X is not finite"):
            stabilize_points(f, UP, PHI_UP, X)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("big, depth", [(6e299, 1), (1.5e308 * (1 + 1j), 0)],
                             ids=["at-depth-1", "infinite-norm"])
    def test_argument_guard_before_evaluation(self, monkeypatch, big, depth):
        # Row 1's q^1 x, or x itself, whose norm and tail overflow to inf,
        # has a part above 1e300: no f value is evaluated.
        calls = []
        monkeypatch.setattr(stabilizer, "eval_f_rows", lambda f, X: calls.append(X))
        f = ApproxMap(maps.conjugation(), maps.NO_PERTURBATION, P4)
        X = np.array([[1, 2j, 3, 4], [1e290, 2e289j, 0, big]])
        with pytest.raises(IterateOverflow, match=rf"exceeded 1e300 at depth {depth}, row 1$"):
            stabilize_points(f, UP, PHI_UP, X)
        assert calls == []

    @pytest.mark.parametrize("phi", [PHI_UP, power_product(0.3, 0.25)],
                             ids=["power_sum", "power_product"])
    def test_overflowing_norm_is_an_argument_overflow(self, phi):
        # ||x|| of row 1 overflows: its argument guard, at depth 0, names it
        # before its norm is taken, under either control.  It is not a
        # control overflow: the power sum's r = 0.5 overflows nothing.
        f = ApproxMap(maps.conjugation(), maps.NO_PERTURBATION, SCALAR)
        X = np.array([[1.0 + 0j], [1.5e308 + 1.5e308j]])
        with pytest.raises(IterateOverflow, match=r"exceeded 1e300 at depth 0, row 1$"):
            stabilize_points(f, select_direction(phi), phi, X)

    @np.errstate(over="ignore", invalid="ignore")
    def test_nonfinite_value_is_iterate_overflow(self):
        # Row 1's amplitude 1e10 * (1e150)^2 overflows at a_0.
        f = ApproxMap(maps.conjugation(), radial(1e10, 2.0), SCALAR)
        X = np.array([[1e-3 + 0j], [1e150 + 0j]])
        with pytest.raises(IterateOverflow, match=r"a_n is not finite at depth 0, row 1$"):
            stabilize_points(f, UP, PHI_UP, X)

    @pytest.mark.parametrize("bad, named", [
        ([1], 1), ([0], 0), ([3], 3), ([2, 4], 2)], ids=["row-1", "row-0", "row-3", "rows-2-4"])
    def test_ladder_violation_names_the_row(self, bad, named):
        # A random direction at r = 1 under the r = 1/2 control does not
        # decay: its differences stay near 0.1 ||x|| while the tail bound
        # shrinks, until the pair (4, 8) of a nonzero row breaks it.  Zero
        # rows stabilize; of several failing rows the first is named.
        f = ApproxMap(maps.conjugation(), PerturbationSpec("random_direction", 0.1, 1.0, 3), P4)
        X = np.zeros((max(bad) + 2, 4), complex)
        X[bad] = 2.0 + 1j
        with pytest.raises(NonCauchy,
                           match=rf"\|\|a_n - a_m\|\| exceeds .* at depth 8, row {named}$"):
            stabilize_points(f, UP, PHI_UP, X)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("X", [
        np.array([[[1.0, -2.0], [0.0, 3.0]]], dtype=complex),
        np.array([[[1.0, -2.0, 0.5], [0.0, 3.0, -1.0], [4.0, 0.0, -0.25]]], dtype=complex),
    ], ids=["matrix2", "matrix3"])
    def test_signed_zeros_kept(self, X, direction):
        # The adjoint of a real matrix has imaginary parts -0.0; scaling the
        # float64 parts keeps every one, at every depth.
        f = ApproxMap(maps.adjoint(), maps.NO_PERTURBATION, matrix_spec(X.shape[1]))
        trace = stabilize_points(f, direction, phi_of(direction), X)
        fx = maps.eval_f_rows(f, X)
        assert np.signbit(fx.imag).any()
        assert trace.iterates.tobytes() == np.repeat(fx, len(trace.depths), axis=0).tobytes()

    def test_depth_past_the_exponent_range(self):
        # At ||x|| = 1e-300, n* = 1057: 2^1057 is inf as a float, but the
        # parts of 2^1057 x and 2^-1057 f(2^1057 x) are not.
        f = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)
        trace = stabilize_points(f, UP, PHI_UP, np.array([[1e-300 + 0j]]))
        assert trace.depths[-1] > 1024
        assert abs(trace.iterates[-1, 0] - 1e-300) <= 1e-309


class TestLimitOverTheFloatRange:
    """Every admissible map here converges to its base involution x*:
    ||a_n(x) - x*|| <= 0.1 L^n ||x||^r, a third of the tail L^n e(x).  So
    I(x) = a_{n*}(x) must lie within tol(x) of x*, up to rounding, at
    every radius the float range allows: up to 1e280 for q = 2, whose
    arguments grow, and 1e100 for q = 1/2, whose e(x) grows as ||x||^3."""

    @pytest.mark.parametrize("direction, exponent", [
        pytest.param(UP, e, id=f"q-2-1e{e}") for e in range(-300, 300, 20)] + [
        pytest.param(DOWN, e, id=f"q-half-1e{e}") for e in range(-300, 101, 20)])
    def test_limit_within_tol_of_the_base_involution(self, rng, direction, exponent):
        for spec in (SCALAR, P4, M2):
            X = np.stack([algebra.sample_element(spec, (0.5, 2.0), rng) * 10.0 ** exponent
                          for _ in range(3)])
            want = maps.eval_f_rows(exact(spec), X)
            norms = algebra.stacked_norms(spec, X)
            tol = np.maximum(8 * U * norms, np.minimum(1e-9 * norms, 1e-7))
            for kind in ("fixed_direction", "random_direction"):
                trace = stabilize_points(admissible(spec, kind, direction), direction,
                                         phi_of(direction), X)
                last = trace.offsets[1:] - 1
                got = algebra.stacked_norms(spec, trace.iterates[last] - want)
                assert (got <= tol + 4 * U * norms).all(), (spec, kind, got, tol)
                assert trace.depths[last].tolist() == [
                    reference_depth(direction, phi_of(direction), spec, x) for x in X]


@st.composite
def ladder_cases(draw):
    """(f, direction, X): every kind, both directions, 1 to 3 rows with
    norms from about 1e-20 to 1e20, each map admissible for its direction."""
    spec = draw(st.sampled_from([SCALAR, P4, M2, matrix_spec(3)]))
    direction = draw(st.sampled_from([UP, DOWN]))
    f = admissible(spec, draw(st.sampled_from(["none", "fixed_direction", "random_direction"])),
                   direction)
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    scales = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=3))
    X = np.stack([10.0 ** e * algebra.sample_element(spec, (0.5, 2.0), rng) for e in scales])
    return f, direction, X


class TestDifferential:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(ladder_cases())
    def test_direct_evaluation_matches_steps(self, case):
        # Every ladder value, bit for bit, as the step-by-step reference
        # computes it at the same depth: powers of 2 scale exactly away
        # from overflow and underflow.
        f, direction, X = case
        trace = stabilize_points(f, direction, phi_of(direction), X)
        for x, (depths, iterates, _) in zip(X, rows_of(trace)):
            for n, a in zip(depths.tolist(), iterates):
                assert a.tobytes() == reference_iterate(f, direction, x, n).tobytes()


def test_bundled_run_evaluates_each_probe_once(monkeypatch):
    # One adjoint_rsum_r05 run evaluates f on at most 3,500 rows inside
    # the stabilizer (2,753 now; 19,784 with the step-by-step orbit).
    rows = []
    eval_f_rows = stabilizer.eval_f_rows
    monkeypatch.setattr(stabilizer, "eval_f_rows",
                        lambda f, X: rows.append(len(X)) or eval_f_rows(f, X))
    cli.run_pipeline(cli.parse_scenario(cli.load_config("adjoint_rsum_r05")))
    assert sum(rows) <= 3500


class TestErrorBound:
    def test_up_direction_value(self):
        # L/(1-L) = 1 + sqrt(2) for L = 2^{-1/2}
        phi = power_sum(0.1, 0.5)
        got = closeness(UP, phi, stacked_norms(SCALAR, np.array([[4.0 + 0j]])))
        assert got == [pytest.approx((1 + SQRT2) * 0.1 * 2, rel=1e-12)]

    def test_down_direction_value(self):
        # phi(1, 0) = 1 and L^0/(1-L) = 4/3 for L = 1/4
        phi = power_sum(1.0, 3.0)
        got = closeness(DOWN, phi, stacked_norms(SCALAR, np.array([[1.0 + 0j]])))
        assert got == [pytest.approx(4.0 / 3.0)]

    def test_product_control_superstability(self, rng):
        phi = power_product(0.4, 0.25)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert closeness(UP, phi, stacked_norms(M2, x[None])) == [0.0]

    @pytest.mark.parametrize("phi", [power_product(0.4, 0.25), power_product(0.4, 1.0)],
                             ids=["q-2", "q-half"])
    @pytest.mark.parametrize("spec", SPECS)
    def test_product_control_computes_no_norm(self, monkeypatch, rng, spec, phi):
        # phi(x, 0) = theta ||x 0||^r = 0 for every finite x, in closed form:
        # closeness takes no power and no norm.  The orbit's trace keeps
        # that exact 0 as each row's bound, next to the row's radius.
        X = np.stack([algebra.sample_element(spec, (0.1, 10.0), rng) for _ in range(3)])
        direction, radii = select_direction(phi), stacked_norms(spec, X)
        trace = stabilize_points(exact(spec), direction, phi, X)
        assert trace.bound.dtype == np.float64 and trace.bound.tolist() == [0.0] * 3
        assert trace.radius.tobytes() == radii.tobytes()
        for name in ("stacked_norms", "_libm_pow"):
            monkeypatch.setattr(algebra, name, None)
        got = closeness(direction, phi, radii)
        assert got.dtype == np.float64 and got.tolist() == [0.0] * 3

    def test_rows_match_error_bound(self, rng):
        X = np.stack([algebra.sample_element(M2, (0.1, 10.0), rng) for _ in range(5)])
        for direction in (UP, DOWN):
            for phi in (power_sum(0.3, 0.5), power_product(0.4, 0.25)):
                factor = direction.L ** (1 - direction.i) / (1.0 - direction.L)
                want = [factor * reference_control(phi, M2, x, np.zeros_like(x)) for x in X]
                assert closeness(direction, phi, stacked_norms(M2, X)).tolist() == want


# The splits of an 8-row stack into the batches I first sees: the whole
# stack, one row at a time from the last, and shuffled thirds.
SPLITS = {"whole": [range(8)], "reversed-rows": [[k] for k in range(7, -1, -1)],
          "shuffled-thirds": [[5, 0, 7], [3, 1, 5], [6, 2, 4]]}


class TestLimits:
    @pytest.mark.parametrize("split", list(SPLITS))
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("phi", [PHI_UP, power_product(0.3, 0.25)],
                             ids=["power_sum", "power_product"])
    @pytest.mark.parametrize("spec", SPECS)
    def test_radius_and_bound_bits(self, monkeypatch, rng, spec, phi, real, split):
        # I.limits(X) gives each row's radius and closeness bound with the
        # bits of stacked_norms and closeness on the stack I keys, X's
        # complex cast, however the rows were first batched; a +0 and a -0
        # row are two keys, each of radius 0.  (LAPACK's norm of a real 3x3
        # row may differ from its complex cast's in the last bit.)
        batches, stabilize = [], stabilizer.stabilize_points
        monkeypatch.setattr(stabilizer, "stabilize_points",
                            lambda *args: batches.append(len(args[-1])) or stabilize(*args))
        scales = 10.0 ** rng.integers(-5, 6, 8).reshape((8,) + (1,) * len(spec.shape))
        if real:
            X = scales * rng.standard_normal((8, *spec.shape))
        else:
            X = np.stack([algebra.sample_element(spec, (1.0, 1.0), rng) for _ in range(8)])
            X = scales * X
        X[2], X[6] = 0.0, -0.0
        direction, cast = select_direction(phi), X.astype(np.complex128)
        radius = stacked_norms(spec, cast)
        bound = closeness(direction, phi, radius)
        I = StabilizedMap(exact(spec), direction, phi)
        for rows in SPLITS[split]:
            I.limits(X[list(rows)])
        values, got_radius, got_bound = I.limits(X)
        assert len(batches) == len(SPLITS[split])
        assert got_radius.tobytes() == radius.tobytes()
        assert got_bound.tobytes() == bound.tobytes()
        assert values.tobytes() == I.limits(cast)[0].tobytes()
        assert np.signbit(cast[6].real).all() and radius[[2, 6]].tolist() == [0.0, 0.0]
