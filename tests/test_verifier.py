import dataclasses
import math

import numpy as np
import pytest

from involstab import algebra, maps, stabilizer, verifier
from involstab.fixedpoint import FunctionSpaceMetric, function_space_distance
from involstab.algebra import SCALAR, Element, matrix_spec, pointwise_spec
from involstab.errors import OutOfRange
from involstab.maps import ApproxMap, LambdaSampler, NO_PERTURBATION, PerturbationSpec
from involstab.stabilizer import power_product, power_sum, select_direction
from involstab.verifier import (
    INF,
    StabilizedMap,
    probe_pairs,
    scan_hypotheses,
    verify_bound,
    verify_cstar,
    verify_involution_laws,
    verify_uniqueness,
)

M2 = matrix_spec(2)
SQRT2 = math.sqrt(2)
DIAG12 = algebra.element(M2, [1, 0, 0, 2])
NIL = algebra.element(M2, [0, 1, 0, 0]).data
ZERO = np.zeros((2, 2), dtype=np.complex128)
NO_PROBES = np.zeros((0, 2, 2), dtype=np.complex128)

LAMBDAS = LambdaSampler(n0=3, seed=2)


def radial(theta, r, seed=None):
    return PerturbationSpec("fixed_direction", theta, r, direction_seed=seed)


def sample_probes(n, rng, spec=M2, rad=(0.1, 10.0)):
    """A probe stack of n sampled rows."""
    return np.stack([algebra.sample_element(spec, rad, rng) for _ in range(n)])


EXACT_ADJ = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
BUDGET_F = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=7), M2)
PHI_SUM = power_sum(0.3, 0.5)
UP = select_direction(PHI_SUM)


def up_map(f):
    return StabilizedMap(f, UP, PHI_SUM)


def count_batches(monkeypatch):
    """The row count of each batch stabilize_points is called on, as a list
    that grows."""
    batches, stabilize = [], stabilizer.stabilize_points
    monkeypatch.setattr(stabilizer, "stabilize_points",
                        lambda *args: batches.append(len(args[-1])) or stabilize(*args))
    return batches


def scan(f, phi, P, lambdas=LAMBDAS):
    """scan_hypotheses of f under phi, in phi's contracting direction."""
    return scan_hypotheses(StabilizedMap(f, select_direction(phi), phi), lambdas, P)


def scan_rows(monkeypatch, f, phi, P, lambdas=LAMBDAS):
    """The scan of f by rows: each entry's name -> (values, witnesses), the
    per-row column scan_hypotheses takes its supremum of and the witness of
    every row."""
    columns = []
    sup = verifier._sup

    def spy(values, witness):
        columns.append((values, [witness(k) for k in range(len(values))]))
        return sup(values, witness)

    with monkeypatch.context() as m:
        m.setattr(verifier, "_sup", spy)
        rep = scan(f, phi, P, lambdas)
    return dict(zip(rep.entries, columns))


def row_allowances(rows, bound, y="y", spec=M2, phi=PHI_SUM):
    """bound(||x||, ||y||) / phi(x, y) for each witness row: the ratio the
    row may reach when its own defect is within bound.  y="x" pairs each
    row's x with itself."""
    nx, ny = (algebra.stacked_norms(spec, np.stack([w[k] for w in rows])) for k in ("x", y))
    return bound(nx, ny) / stabilizer.control(phi, nx, ny)


class TestProbePairs:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_structure(self, rng, m):
        # Z is P with one zero row last, +0 in every entry, and the index
        # columns pick ref_pairs' rows out of it, in its order.
        P = sample_probes(m, rng)
        Z, ix, iy = probe_pairs(P)
        assert Z.shape == (m + 1, 2, 2)
        assert Z[:m].tobytes() == P.tobytes() and Z[m].tobytes() == ZERO.tobytes()
        assert [(Z[i].tobytes(), Z[j].tobytes()) for i, j in zip(ix, iy)] == [
            (x.tobytes(), y.tobytes()) for x, y in ref_pairs(P)]


class TestStabilizedMap:
    def test_memoized(self, monkeypatch, rng):
        # A row's ladder is kept: asked for again, by equal bytes, it is
        # the same trace, whose last value is I(x).
        batches = count_batches(monkeypatch)
        I = up_map(BUDGET_F)
        x = sample_probes(1, rng)
        again = algebra.element(M2, x.reshape(-1)).data[None]
        first, second = I.traces(x), I.traces(again)
        for name in ("offsets", "depths", "iterates", "gaps"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert I.limits(x)[0].tobytes() == first.iterates[-1:].tobytes()
        assert batches == [1]

    def test_stabilize_batches_distinct_uncached(self, rng, monkeypatch):
        batches = []
        stabilize = stabilizer.stabilize_points

        def counting(f, direction, phi, X):
            batches.append([row.tobytes() for row in X])
            return stabilize(f, direction, phi, X)

        monkeypatch.setattr(stabilizer, "stabilize_points", counting)
        I = up_map(BUDGET_F)
        x, y, z = sample_probes(3, rng)
        values = I.limits(np.stack([x, y, algebra.element(M2, x.reshape(-1)).data, x]))[0]
        assert values.shape == (4, 2, 2)
        limits = [I.limits(row[None])[0][0] for row in (x, y, x, x)]
        assert values.tobytes() == np.stack(limits).tobytes()
        I.limits(np.stack([y, z, x]))
        I.limits(z[None]), I.limits(x[None])
        assert I.limits(np.zeros((0, 2, 2), dtype=complex))[0].shape == (0, 2, 2)
        assert batches == [[x.tobytes(), y.tobytes()], [z.tobytes()]]

    @pytest.mark.parametrize("spec", [SCALAR, pointwise_spec(2), pointwise_spec(3), M2],
                             ids=["scalar", "pointwise2", "pointwise3", "matrix2"])
    def test_real_stack_keyed_as_its_complex_cast(self, monkeypatch, rng, spec):
        # I on a float64 stack is I on its complex cast, and the cast's rows
        # are the keys: asking for the cast stabilizes nothing more.
        batches = count_batches(monkeypatch)
        base = maps.adjoint() if spec is M2 else maps.conjugation()
        I = up_map(ApproxMap(base, PerturbationSpec("random_direction", 0.1, 0.5, 3), spec))
        X = rng.standard_normal((3, *spec.shape))
        real = I.limits(X)[0]
        assert real.tobytes() == I.limits(X.astype(np.complex128))[0].tobytes()
        assert batches == [3] and real.dtype == np.complex128

    def test_traces_gather_across_batches(self, monkeypatch, rng):
        # Rows stabilized in different batches come back as one trace in
        # the asked order, each row's entries as its own batch made them.
        batches = count_batches(monkeypatch)
        I = up_map(BUDGET_F)
        P = np.concatenate([ZERO[None], sample_probes(4, rng)])
        I.limits(P[[3, 1]]), I.limits(P[[0, 4]]), I.limits(P[[2]])
        got = I.traces(P[[4, 0, 2, 1, 3, 1]])
        assert batches == [2, 2, 1]
        for k, x in enumerate(P[[4, 0, 2, 1, 3, 1]]):
            want = stabilizer.stabilize_points(BUDGET_F, UP, PHI_SUM, x[None])
            start, end = got.offsets[k:k + 2]
            assert got.depths[start:end].tolist() == want.depths.tolist()
            assert got.iterates[start:end].tobytes() == want.iterates.tobytes()
            assert got.gaps[start:end].tobytes() == want.gaps.tobytes()
        assert got.offsets[-1] == len(got.depths) == len(got.iterates) == len(got.gaps)

    def test_failing_batch_caches_nothing(self, monkeypatch, rng):
        # A batch whose stabilization raises leaves the index and every
        # trace array as they were; asked for again, the batch's uncached
        # rows, and only they, are stabilized in first-seen order.
        I = up_map(BUDGET_F)
        x, y, z = sample_probes(3, rng)
        I.limits(np.stack([x, ZERO]))

        def kept():
            return len(I._index), [getattr(I._trace, f.name).tobytes()
                                   for f in dataclasses.fields(I._trace)]

        before, batches, stabilize, fail = kept(), [], stabilizer.stabilize_points, True

        def counting(f, direction, phi, X):
            batches.append([row.tobytes() for row in X])
            if fail:
                raise OutOfRange("stabilization failed")
            return stabilize(f, direction, phi, X)

        monkeypatch.setattr(stabilizer, "stabilize_points", counting)
        X = np.stack([z, x, y, z, ZERO, y])
        with pytest.raises(OutOfRange):
            I.limits(X)
        assert kept() == before
        fail = False
        values = I.limits(X)[0]
        assert batches == [[z.tobytes(), y.tobytes()]] * 2
        assert len(I._index) == before[0] + 2
        assert values.tobytes() == up_map(BUDGET_F).limits(X)[0].tobytes()

    def test_matches_conj_transpose(self, rng):
        I = up_map(BUDGET_F)
        P = sample_probes(10, rng)
        diffs = algebra.stacked_norms(M2, I.limits(P)[0] - P.conj().swapaxes(-1, -2))
        for diff, norm in zip(diffs, algebra.stacked_norms(M2, P)):
            assert diff <= 1e-7 * max(1.0, norm)

    # ||I(I(x)) - x||: the involutivity residual of the stabilized map.
    def test_involutive_exact_involution(self, rng):
        I = up_map(EXACT_ADJ)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)[None]
        assert algebra.stacked_norms(M2, I.limits(I.limits(x)[0])[0] - x)[0] <= 1e-12

    def test_involutive_perturbed_adjoint(self, rng):
        I = up_map(ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=4), M2))
        P = sample_probes(10, rng)
        assert max(algebra.stacked_norms(M2, I.limits(I.limits(P)[0])[0] - P)) <= 1e-6

    def test_involutive_zero(self):
        I = up_map(ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=4), M2))
        z = ZERO[None]
        assert algebra.stacked_norms(M2, I.limits(I.limits(z)[0])[0] - z) == [0.0]


class TestScanHypotheses:
    def test_exact_involution_all_small(self, rng):
        rep = scan_hypotheses(up_map(EXACT_ADJ), LAMBDAS, sample_probes(12, rng))
        for name in ("e2_jensen", "e3_antimul", "e4_involutive", "e6_cstar"):
            entry = rep.entries[name]
            assert entry.sup_ratio <= 1e-9
            assert entry.witness is not None
            assert entry.samples_used > 0

    def test_budget_scenario_within_control(self, rng):
        # theta_delta = THETA/3 keeps the Jensen ratio at or below one
        rep = scan_hypotheses(up_map(BUDGET_F), LAMBDAS, sample_probes(20, rng))
        assert rep.entries["e2_jensen"].sup_ratio <= 1.0 + 1e-12
        assert rep.entries["e3_antimul"].sup_ratio < INF
        assert rep.entries["e4_involutive"].sup_ratio <= 1e-6

    def test_product_control_refutes_perturbed_map(self, rng):
        # the perturbation does not vanish at y = 0 but phi(x, 0) does,
        # so the scan reports an infinite supremum with a y = 0 witness
        f = ApproxMap(maps.conjugation(), radial(0.01, 0.25), SCALAR)
        phi = power_product(0.1, 0.25)
        rep = scan_hypotheses(
            StabilizedMap(f, select_direction(phi), phi), LAMBDAS,
            sample_probes(8, rng, spec=SCALAR),
        )
        entry = rep.entries["e2_jensen"]
        assert entry.sup_ratio == INF
        assert algebra.stacked_norms(SCALAR, entry.witness["y"][None]) == [0.0]

    def test_witness_reevaluates_to_sup(self, rng):
        rep = scan_hypotheses(up_map(BUDGET_F), LAMBDAS, sample_probes(20, rng))
        w = rep.entries["e2_jensen"].witness
        x, y, lam = w["x"][None], w["y"][None], w["lam"]
        f_mid, f_lx, f_ly = maps.eval_f_rows(
            BUDGET_F, np.concatenate([complex(0.5) * (x + y), lam * x, lam * y]))
        num = algebra.stacked_norms(M2, (2.0 * np.conj(lam) * f_mid - f_lx - f_ly)[None])[0]
        den = stabilizer.control(PHI_SUM, algebra.stacked_norms(M2, x),
                                 algebra.stacked_norms(M2, y))[0]
        assert num / den == rep.entries["e2_jensen"].sup_ratio

    def test_sup_monotone_in_probes(self, rng):
        probes = sample_probes(24, rng)
        small = scan_hypotheses(up_map(BUDGET_F), LAMBDAS, probes[:8])
        large = scan_hypotheses(up_map(BUDGET_F), LAMBDAS, probes)
        for name in ("e2_jensen", "e3_antimul", "e6_cstar"):
            assert large.entries[name].sup_ratio >= small.entries[name].sup_ratio

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            scan_hypotheses(up_map(EXACT_ADJ), LAMBDAS, NO_PROBES)


# The defects of f, each through the scan, row by row: each row's ratio
# against its own allowance or its closed-form defect over its control, or,
# where the control of a row is zero, 0 only when that row's defect is
# exactly zero (else inf).  A sampled stack [x0, y0, x1, y1, ...] holds the
# independent pairs (x_k, y_k) among its probe pairs.
SCALAR_F = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)


class TestJensenDefect:
    def test_exact_involution_vanishes(self, rng, monkeypatch):
        # 8 independent pairs, each under every unit scalar
        values, rows = scan_rows(monkeypatch, EXACT_ADJ, PHI_SUM, sample_probes(16, rng),
                                 LambdaSampler(n0=3, seed=1))["e2_jensen"]
        assert np.all(values <= row_allowances(rows, lambda nx, ny: 1e-12 * np.maximum(1.0, nx + ny)))

    def test_scalar_example(self, monkeypatch):
        # P = [4] pairs 4 with 0, then with itself.  For y = 0,
        # 2 conj(lam) f(2) - f(4 lam) = 0.2 (sqrt(2) conj(lam) - 1) over
        # phi(4, 0) = 0.6; for y = x, 2 conj(lam) f(4) - 2 f(4 lam) =
        # 0.4 (conj(lam) - 1) over phi(4, 4) = 1.2.
        values, rows = scan_rows(monkeypatch, SCALAR_F, PHI_SUM, np.array([[4.0 + 0j]]))["e2_jensen"]
        lams = np.array([w["lam"] for w in rows])
        zero_y = np.array([w["y"][0] == 0 for w in rows])
        want = np.where(zero_y, np.abs(0.2 * (SQRT2 * np.conj(lams) - 1)) / 0.6,
                        np.abs(0.4 * (np.conj(lams) - 1)) / 1.2)
        assert zero_y.sum() == len(rows) // 4
        assert values == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_symmetric_degenerate(self, rng, monkeypatch):
        # y = x at lam = 1: 2 f(x) - f(x) - f(x) is exactly 0.
        x = algebra.sample_element(SCALAR, (0.5, 2.0), rng)
        values, rows = scan_rows(monkeypatch, SCALAR_F, PHI_SUM, x[None])["e2_jensen"]
        at = [k for k, w in enumerate(rows)
              if w["lam"] == 1.0 and w["y"].tobytes() == x.tobytes()]
        assert len(at) == 3  # the probe's self pair and its two strided partners
        assert [values[k] for k in at] == [0.0] * 3

    def test_budget_lemma(self, rng, monkeypatch):
        # theta_delta = THETA/3 keeps the defect below THETA*(|x|^r + |y|^r)
        # for unit-modulus lambda and r <= 1; 200 independent pairs
        f = ApproxMap(maps.adjoint(), radial(PHI_SUM.theta / 3, 0.5, seed=6), M2)
        values, rows = scan_rows(monkeypatch, f, PHI_SUM, sample_probes(400, rng),
                                 LambdaSampler(n0=3, arc=6, circle=6, seed=2))["e2_jensen"]
        budget = row_allowances(rows, lambda nx, ny: PHI_SUM.theta * (nx ** 0.5 + ny ** 0.5) + 1e-12)
        assert np.all(values <= budget)


class TestAntimulDefect:
    def test_exact_involution(self, rng, monkeypatch):
        # 100 independent pairs
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        values, rows = scan_rows(monkeypatch, f, PHI_SUM, sample_probes(200, rng))["e3_antimul"]
        assert np.all(values <= row_allowances(rows, lambda nx, ny: 1e-12 * np.maximum(1.0, nx * ny)))

    def test_zero_argument(self):
        # Under the product control every pair with a zero factor has a zero
        # control, so its f(xy) - f(y)f(x) must be exactly 0; the pair (2, 2)
        # gives f(4) - f(2)^2 = 4.2 - (2 + 0.1*sqrt(2))^2 over phi = 0.1 * 4^0.25.
        rep = scan(SCALAR_F, power_product(0.1, 0.25), np.array([[0j], [2.0 + 0j]]))
        want = abs(4.2 - (2 + 0.1 * SQRT2) ** 2) / (0.1 * SQRT2)
        assert rep.entries["e3_antimul"].sup_ratio == pytest.approx(want, rel=1e-12)

    def test_scalar_example(self):
        # f(4) - f(2)^2 = 4.2 - (2 + 0.1*sqrt(2))^2 over phi(2, 2) = 0.6*sqrt(2);
        # the pair (2, 0) has defect 0.
        rep = scan(SCALAR_F, PHI_SUM, np.array([[2.0 + 0j]]))
        want = abs(4.2 - (2 + 0.1 * SQRT2) ** 2) / (0.6 * SQRT2)
        assert rep.entries["e3_antimul"].sup_ratio == pytest.approx(want, rel=1e-12)

    def test_product_overflow_is_out_of_range(self):
        # xy overflows, and the scan's argument check names the stage.
        f = ApproxMap(maps.conjugation(), NO_PERTURBATION, SCALAR)
        with pytest.raises(OutOfRange, match="^scan_hypotheses: stage arithmetic overflowed"):
            scan(f, power_product(0.1, 0.25), np.array([[1e200 + 0j]]))


class TestCstarDefect:
    # | ||x f(x)|| - ||x||^2 | over phi(x, x) = 0.6 ||x||^0.5.
    def test_adjoint_matrix(self, rng, monkeypatch):
        values, rows = scan_rows(monkeypatch, EXACT_ADJ, PHI_SUM, sample_probes(100, rng))["e6_cstar"]
        assert len(rows) == 100
        assert np.all(values <= row_allowances(rows, lambda nx, _: 1e-9 * np.maximum(1.0, nx ** 2), y="x"))

    def test_twisted_witness(self):
        # | ||x f(x)|| - 1 | = 0.5 at the unit nilpotent, over phi(x, x) = 0.6.
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        entry = scan(f, PHI_SUM, NIL[None]).entries["e6_cstar"]
        assert entry.sup_ratio == pytest.approx(0.5 / 0.6, abs=1e-12 / 0.6)
        assert entry.witness["x"].tobytes() == NIL.tobytes()

    def test_zero(self):
        # A zero control: a nonzero defect would read inf.
        assert scan(EXACT_ADJ, PHI_SUM, ZERO[None]).entries["e6_cstar"].sup_ratio == 0.0

    def test_square_out_of_range(self):
        # x f(x) = 0.5 a^2 E11 is finite at a = 1.5e154 while ||x||^2 = a^2 is
        # not, and x x = 0: the square is the first value to overflow.
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        with pytest.raises(OutOfRange, match=r"^scan_hypotheses: \|\|x\|\|\^2 of a probe"):
            scan(f, power_sum(0.3, 1.5), 1.5e154 * NIL[None])


class TestVerifyBound:
    def test_exact_ratio(self, rng):
        # The limit is the exact adjoint: diff = 0.1*||x||^{1/2}, and
        # bound = (1+sqrt(2))*0.1*||x||^{1/2} under the map's control.
        phi = power_sum(0.1, 0.5)
        rep = verify_bound(StabilizedMap(BUDGET_F, select_direction(phi), phi),
                           sample_probes(20, rng))
        assert rep.passed
        assert rep.max_ratio == pytest.approx(1 / (1 + SQRT2), rel=1e-6)
        assert all(r == pytest.approx(1 / (1 + SQRT2), rel=1e-6) for r in rep.per_probe)

    def test_headroom_under_budget_control(self, rng):
        rep = verify_bound(up_map(BUDGET_F), sample_probes(20, rng))
        assert rep.passed
        assert rep.max_ratio == pytest.approx(1 / (3 * (1 + SQRT2)), rel=1e-6)

    def test_superstability_zero_bound(self, rng):
        phi = power_product(0.1, 0.25)
        d = select_direction(phi)
        rep = verify_bound(StabilizedMap(EXACT_ADJ, d, phi), sample_probes(10, rng))
        assert rep.passed and rep.max_ratio == 0.0

    def test_zero_bound_violation_is_infinite(self, rng):
        phi = power_product(0.1, 0.25)
        d = select_direction(phi)
        f = ApproxMap(maps.conjugation(), radial(0.01, 0.25), SCALAR)
        rep = verify_bound(StabilizedMap(f, d, phi), sample_probes(5, rng, spec=SCALAR))
        assert not rep.passed and rep.max_ratio == INF


ROW_SPECS = {"scalar": SCALAR, "pointwise3": pointwise_spec(3), "matrix1": matrix_spec(1),
             "matrix2": M2, "matrix3": matrix_spec(3)}


class TestArrayReturns:
    # Per-row reals are float64 arrays; Python floats appear only in report
    # fields and witnesses, and in what is written to JSON or CSV.
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("name", list(ROW_SPECS))
    def test_row_values_are_float64_arrays(self, name, n, rng):
        spec = ROW_SPECS[name]
        X = sample_probes(n, rng, spec) if n else np.zeros((0, *spec.shape), complex)
        Y = X[::-1].copy()
        f = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=7), spec)
        nx, ny = algebra.stacked_norms(spec, X), algebra.stacked_norms(spec, Y)
        rows = [nx, stabilizer.control(PHI_SUM, nx, ny), stabilizer.control(PHI_SUM, nx)]
        for phi in (PHI_SUM, power_product(0.1, 0.25)):
            rows.append(stabilizer.closeness(select_direction(phi), phi, nx))
            rows.extend(StabilizedMap(f, select_direction(phi), phi).limits(X)[1:])
        for got in rows:
            assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (n,)
        exact = ApproxMap(maps.adjoint(), NO_PERTURBATION, spec)
        m = FunctionSpaceMetric(
            spec, X, lambda Z: stabilizer.control(PHI_SUM, algebra.stacked_norms(spec, Z)))
        distance = function_space_distance(
            lambda Z: maps.eval_f_rows(f, Z), lambda Z: maps.eval_f_rows(exact, Z), m)
        assert type(distance) is float
        if n:
            rep = verify_bound(up_map(f), X)
            assert type(rep.max_ratio) is float
            assert type(rep.per_probe) is list and len(rep.per_probe) == n
            assert all(type(v) is float for v in rep.per_probe)
            assert type(rep.witness["diff"]) is float and type(rep.witness["bound"]) is float


class TestVerifyLaws:
    def test_exact_involution(self, rng):
        rep = verify_involution_laws(up_map(EXACT_ADJ), LAMBDAS, sample_probes(8, rng))
        assert rep.additivity.max_defect <= 1e-12
        assert rep.antimultiplicativity.max_defect <= 1e-10
        assert rep.involutivity.max_defect <= 1e-12
        for stage in ("arc", "circle", "reals", "complex"):
            assert rep.conj_homogeneity[stage].max_defect <= 1e-10
        assert rep.total_tuples > 0

    def test_perturbed_map_stabilizes_to_lawful_involution(self, rng):
        rep = verify_involution_laws(up_map(BUDGET_F), LAMBDAS, sample_probes(8, rng))
        assert rep.additivity.max_defect <= 1e-6
        assert rep.antimultiplicativity.max_defect <= 1e-6
        assert rep.involutivity.max_defect <= 1e-6
        for stage in ("arc", "circle", "reals", "complex"):
            assert rep.conj_homogeneity[stage].max_defect <= 1e-6

    def test_twisted_base(self, rng):
        f = ApproxMap(maps.twisted_adjoint(DIAG12), radial(0.1, 0.5, seed=3), M2)
        rep = verify_involution_laws(up_map(f), LAMBDAS, sample_probes(6, rng))
        assert rep.additivity.max_defect <= 1e-6
        assert rep.antimultiplicativity.max_defect <= 1e-6
        assert rep.involutivity.max_defect <= 1e-6

    def test_batch_in_first_seen_order(self, rng, monkeypatch):
        # The laws stabilize their distinct points in the order they first
        # meet them among x+y, x and y per pair, lam p (lam-major) and xy
        # per pair: the order that numbers a failing row.  Probes with -0
        # imaginary parts keep x+0 apart from x, so the zero row, last in
        # probe_pairs' stack, is met after every probe.
        batches = []
        stabilize = stabilizer.stabilize_points
        monkeypatch.setattr(stabilizer, "stabilize_points", lambda f, direction, phi, X: (
            batches.append([row.tobytes() for row in X]) or stabilize(f, direction, phi, X)))
        P = sample_probes(3, rng).real.astype(np.complex128).conj()
        verify_involution_laws(up_map(BUDGET_F), LAMBDAS, P)
        pairs = ref_pairs(P)
        rows = ([x + y for x, y in pairs] + [x for x, _ in pairs] + [y for _, y in pairs]
                + [complex(lam) * p for _, lam in maps.sample_lambdas(LAMBDAS) for p in P]
                + [algebra.mul_rows(M2, x[None], y[None])[0] for x, y in pairs])
        assert batches[0] == list(dict.fromkeys(row.tobytes() for row in rows))


class TestVerifyUniqueness:
    def test_same_base_different_perturbations(self, rng):
        f2 = ApproxMap(
            maps.adjoint(),
            PerturbationSpec("random_direction", 0.1, 0.5, direction_seed=13),
            M2,
        )
        rep = verify_uniqueness(up_map(BUDGET_F), up_map(f2), sample_probes(15, rng))
        assert rep.passed
        assert rep.max_diff <= 1e-6

    def test_different_bases_detected(self, rng):
        f2 = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        rep = verify_uniqueness(up_map(EXACT_ADJ), up_map(f2), sample_probes(15, rng))
        assert not rep.passed
        assert rep.max_diff > 1e-3


class TestVerifyCstar:
    def test_adjoint_certified(self, rng):
        rep = verify_cstar(up_map(EXACT_ADJ), sample_probes(20, rng))
        assert rep.passed
        assert rep.max_ratio <= 1e-9

    def test_twisted_refuted_with_witness(self, rng):
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        probes = np.concatenate([sample_probes(10, rng), NIL[None]])
        rep = verify_cstar(up_map(f), probes)
        assert not rep.passed
        assert rep.max_ratio >= 0.25
        assert rep.witness is not None

    def test_nilpotent_witness_ratio(self):
        # x = [[0,1],[0,0]]: x I(x) = [[0.5,0],[0,0]] so the defect is 0.5
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        rep = verify_cstar(up_map(f), NIL[None])
        assert rep.max_ratio == pytest.approx(0.5, abs=1e-9)
        assert rep.reversed_max_ratio == pytest.approx(0.5, abs=1e-9)

    def test_zero_probe_skipped(self, rng):
        rep = verify_cstar(up_map(EXACT_ADJ), np.concatenate([ZERO[None], sample_probes(3, rng)]))
        assert rep.probes_checked == 3

    @pytest.mark.parametrize("radius", [1e160, 1e-170])
    def test_square_out_of_range(self, radius, rng):
        # ||x||^2 overflows (Python's ** raises) or underflows to 0 for one
        # probe among ordinary ones.
        probes = np.concatenate([sample_probes(2, rng), sample_probes(1, rng, rad=(radius,) * 2)])
        with pytest.raises(verifier.OutOfRange, match="is 0 or not finite"):
            verify_cstar(up_map(EXACT_ADJ), probes)


def run_stage(stage, I, probes):
    if stage == "scan":
        return scan_hypotheses(I, LAMBDAS, probes)
    if stage == "bound":
        return verify_bound(I, probes)
    if stage == "laws":
        return verify_involution_laws(I, LAMBDAS, probes)
    if stage == "uniqueness":
        return verify_uniqueness(I, StabilizedMap(I.f, UP, I.phi), probes)
    return verify_cstar(I, probes)


STAGES = ["scan", "bound", "laws", "uniqueness", "cstar"]


class TestEmptyProbes:
    # scan_hypotheses: TestScanHypotheses::test_empty_probes_rejected
    @pytest.mark.parametrize("stage", STAGES[1:])
    def test_every_stage_rejects_empty_probes(self, stage):
        with pytest.raises(ValueError, match="probe set must be nonempty"):
            run_stage(stage, up_map(EXACT_ADJ), NO_PROBES)

    def test_cstar_all_zero_probes_checks_none(self):
        rep = verify_cstar(up_map(EXACT_ADJ), ZERO[None])
        assert rep.probes_checked == 0 and rep.witness is None and rep.passed


class TestStageCallCounts:
    # One stacked evaluation per stage: the number of f evaluations and of
    # stabilization batches must not grow with the probe count.
    @pytest.mark.parametrize("stage", STAGES)
    def test_calls_independent_of_probe_count(self, rng, monkeypatch, stage):
        counts = {"eval_f_rows": 0, "stabilize_points": 0}
        eval_f_rows, stabilize_points = maps.eval_f_rows, stabilizer.stabilize_points

        def counting_eval(*args, **kwargs):
            counts["eval_f_rows"] += 1
            return eval_f_rows(*args, **kwargs)

        def counting_stabilize(*args, **kwargs):
            counts["stabilize_points"] += 1
            return stabilize_points(*args, **kwargs)

        monkeypatch.setattr(maps, "eval_f_rows", counting_eval)
        monkeypatch.setattr(stabilizer, "stabilize_points", counting_stabilize)
        seen = []
        for n in (4, 16):
            counts.update(eval_f_rows=0, stabilize_points=0)
            run_stage(stage, up_map(BUDGET_F), sample_probes(n, rng))
            seen.append(dict(counts))
        assert seen[0] == seen[1]


class TestStagesBuildNoElements:
    # A probe set stays one stack through every stage and the stabilizer.
    @pytest.mark.parametrize("stage", STAGES + ["stabilize_points"])
    def test_no_element_constructed(self, rng, monkeypatch, stage):
        P = sample_probes(6, rng)
        maps.eval_f_rows(BUDGET_F, P)  # builds the cached fixed direction
        built = []
        post_init = Element.__post_init__

        def counting(element):
            built.append(element.spec)
            post_init(element)

        monkeypatch.setattr(Element, "__post_init__", counting)
        if stage == "stabilize_points":
            stabilizer.stabilize_points(BUDGET_F, UP, PHI_SUM, P)
        else:
            run_stage(stage, up_map(BUDGET_F), P)
        assert built == []


# ---- per-tuple reference for every stage, one row at a time -------------

def ref_ratio(num, den):
    """The defect/control ratio of one row: 0/0 := 0, and a positive defect
    over zero control is infinite."""
    if den == 0.0:
        return 0.0 if num == 0.0 else INF
    return num / den


def ref_sup(values, witnesses):
    """The sup, its witness and the sample count from a list of values and
    one witness per value: np.argmax's first maximal index."""
    k = int(np.argmax(values))
    return values[k], witnesses[k], len(values)


class TestRatiosAndSup:
    # Numerators and denominators: 0/0, x/0, inf/inf, inf/0, an overflow,
    # an underflow and plain quotients, against the one-row reference.
    NUM = [0.0, 1.5, 0.0, INF, INF, 3.0, 5e-324, 1e308, 1.0, -0.0]
    DEN = [0.0, 0.0, 2.0, INF, 0.0, 1.5, 1e308, 1e-308, 3.0, 0.0]

    def test_ratios_match_one_row_reference(self):
        got = verifier._ratios(np.array(self.NUM), np.array(self.DEN))
        want = [ref_ratio(num, den) for num, den in zip(self.NUM, self.DEN)]
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]
        assert math.isnan(got[3]) and got[1] == got[4] == INF and got[0] == 0.0

    @pytest.mark.parametrize("values", [
        [1.0, 3.0, 3.0, 2.0], [0.0, 0.0, 0.0], [1.0, math.nan, 5.0, math.nan],
        [INF, 1.0, INF], [-0.0, 0.0], [2.0],
    ], ids=["tie", "all-zero", "nan", "inf-tie", "signed-zero", "one"])
    def test_sup_builds_one_witness_of_the_first_maximum(self, values):
        built = []

        def witness(k):
            built.append(k)
            return {"k": k}

        sup, wit, n = verifier._sup(np.array(values), witness)
        ref, ref_wit, ref_n = ref_sup(values, [{"k": k} for k in range(len(values))])
        assert (repr(sup), wit, n) == (repr(ref), ref_wit, ref_n)
        assert built == [ref_wit["k"]]


def ref_entry(tuples):
    """(sup, witness, samples_used) under the strict `<` running update:
    the first tuple starts the sup, later ones replace it only when larger."""
    sup, witness = 0.0, None
    for value, wit in tuples:
        if sup < value or witness is None:
            sup, witness = value, wit
    return sup, witness, len(tuples)


def comparable(witness):
    if witness is None:
        return None
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in witness.items()}


def ref_pairs(probes):
    """probe_pairs as a list of row pairs: each probe against zero, itself,
    and two strided partners."""
    n, z = len(probes), np.zeros_like(probes[0])
    return [pair for i, x in enumerate(probes) for pair in
            ((x, z), (x, x), (x, probes[(i + 1) % n]), (x, probes[(i * 7 + 3) % n]))]


def ref_stages(I, I2, lambdas, probes):
    """Every stage's sup, witness and count from per-row numpy arithmetic,
    each value a one-row stack's, under I's control."""
    f, spec, phi = I.f, I.f.spec, I.phi

    def norm(a):
        return algebra.stacked_norms(spec, a[None])[0]

    def mul(a, b):
        return algebra.mul_rows(spec, a[None], b[None])[0]

    def f_of(x):
        return maps.eval_f_rows(f, x[None])[0]

    def I_of(x, I=I):
        return I.limits(x[None])[0][0]

    def ctl(x, y):
        if phi.kind is stabilizer.ControlKind.POWER_PRODUCT:
            return phi.theta * norm(mul(x, y)) ** phi.r
        return phi.theta * (norm(x) ** phi.r + norm(y) ** phi.r)

    def jensen(lam, x, y):
        lead = complex(2.0 * np.conj(complex(lam))) * f_of(complex(0.5) * (x + y))
        return lead - f_of(complex(lam) * x) - f_of(complex(lam) * y)

    lams = maps.sample_lambdas(lambdas)
    pairs = ref_pairs(probes)
    unit = [(s, lam) for s, lam in lams if s in ("arc", "circle")]
    out = {
        "e2_jensen": ref_entry([
            (ref_ratio(norm(jensen(lam, x, y)), ctl(x, y)),
             {"x": x, "y": y, "lam": lam, "stage": s})
            for x, y in pairs for s, lam in unit]),
        "e3_antimul": ref_entry([
            (ref_ratio(norm(f_of(mul(x, y)) - mul(f_of(y), f_of(x))), ctl(x, y)),
             {"x": x, "y": y}) for x, y in pairs]),
        "e4_involutive": ref_entry([(norm(I_of(I_of(x)) - x), {"x": x}) for x in probes]),
        "e6_cstar": ref_entry([
            (ref_ratio(abs(norm(mul(x, f_of(x))) - norm(x) ** 2), ctl(x, x)),
             {"x": x}) for x in probes]),
        "additivity": ref_entry([
            (norm(I_of(x + y) - (I_of(x) + I_of(y))) / max(1.0, norm(x) + norm(y)),
             {"x": x, "y": y}) for x, y in pairs]),
        "antimultiplicativity": ref_entry([
            (norm(I_of(mul(x, y)) - mul(I_of(y), I_of(x))) / max(1.0, norm(x) * norm(y)),
             {"x": x, "y": y}) for x, y in pairs]),
        "involutivity": ref_entry([
            (norm(I_of(I_of(x)) - x) / max(1.0, norm(x)), {"x": x}) for x in probes]),
        "uniqueness": ref_entry([(norm(I_of(x) - I_of(x, I2)), {"x": x}) for x in probes]),
    }
    for stage in ("arc", "circle", "reals", "complex"):
        out[f"conj_homogeneity[{stage}]"] = ref_entry([
            (norm(I_of(complex(lam) * x) - complex(np.conj(lam)) * I_of(x))
             / max(1.0, abs(lam) * norm(x)), {"x": x, "lam": lam})
            for s, lam in lams if s == stage for x in probes])
    bound = []
    factor = I.direction.L ** (1 - I.direction.i) / (1.0 - I.direction.L)
    for x in probes:
        diff = norm(I_of(x) - f_of(x))
        bnd = factor * ctl(x, np.zeros_like(x))
        ratio = (0.0 if diff <= 1e-9 else INF) if bnd == 0.0 else diff / bnd
        bound.append((ratio, {"x": x, "diff": diff, "bound": bnd}))
    out["bound"] = ref_entry(bound)
    out["bound_per_probe"] = [ratio for ratio, _ in bound]
    out["limits_radius"] = [norm(x) for x in probes]
    out["limits_bound"] = [wit["bound"] for _, wit in bound]
    cstar, rev = [], [0.0]
    for x in probes:
        nx = norm(x)
        if nx != 0.0:
            ratio = abs(norm(mul(x, I_of(x))) - nx**2) / nx**2
            rev.append(abs(norm(mul(I_of(x), x)) - nx**2) / nx**2)
            cstar.append((ratio, {"x": x, "ratio": ratio}))
    out["cstar"] = ref_entry(cstar)
    out["cstar_reversed"] = max(rev)
    return out


P3 = pointwise_spec(3)
REFERENCE_MAPS = {
    "scalar": ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR),
    "pointwise-random": ApproxMap(
        maps.conjugation(), PerturbationSpec("random_direction", 0.1, 0.5, 3), P3),
    "matrix-adjoint": BUDGET_F,
    "matrix-twisted": ApproxMap(maps.twisted_adjoint(DIAG12), radial(0.1, 0.5, seed=3), M2),
    "exact-scalar": ApproxMap(maps.conjugation(), NO_PERTURBATION, SCALAR),
    "exact-adjoint": EXACT_ADJ,
}


# (zero rows, sampled rows) of the probe stack: with one probe every
# strided partner is the probe itself, with three the (7i + 3) one.
REFERENCE_PROBES = {"zero+4": (1, 4), "zero+2": (1, 2), "zero+1": (1, 1), "one": (0, 1)}


class TestStackedStagesMatchElementReference:
    @pytest.mark.parametrize("name", list(REFERENCE_MAPS))
    @pytest.mark.parametrize("phi", [PHI_SUM, power_product(0.3, 0.25)],
                             ids=["power_sum", "power_product"])
    @pytest.mark.parametrize("probes", list(REFERENCE_PROBES))
    def test_sup_witness_and_samples(self, rng, name, phi, probes):
        f = REFERENCE_MAPS[name]
        lambdas = LambdaSampler(n0=3, arc=2, circle=2, reals=2, cplx=2, seed=4)
        zero, sampled = REFERENCE_PROBES[probes]
        P = np.concatenate([np.zeros((zero, *f.spec.shape), dtype=np.complex128),
                            sample_probes(sampled, rng, spec=f.spec)])
        I = StabilizedMap(f, select_direction(phi), phi)
        # A second admissible map over the same base; an exact map is
        # compared with itself, so every difference ties at zero.
        f2 = f if name.startswith("exact") else ApproxMap(
            f.base, PerturbationSpec("random_direction", 0.1, 0.5, 13), f.spec)
        I2 = StabilizedMap(f2, I.direction, phi)

        hyp = scan_hypotheses(I, lambdas, P)
        laws = verify_involution_laws(I, lambdas, P)
        bound = verify_bound(I, P)
        uniq = verify_uniqueness(I, I2, P)
        cstar = verify_cstar(I, P)
        got = {name: (e.sup_ratio, e.witness, e.samples_used)
               for name, e in hyp.entries.items()}
        for entry in (laws.additivity, laws.antimultiplicativity, laws.involutivity,
                      *laws.conj_homogeneity.values()):
            got[entry.law] = (entry.max_defect, entry.witness, entry.samples_used)
        got["bound"] = (bound.max_ratio, bound.witness, bound.probes_checked)
        got["uniqueness"] = (uniq.max_diff, uniq.witness, uniq.probes_checked)
        got["cstar"] = (cstar.max_ratio, cstar.witness, cstar.probes_checked)
        got["cstar_reversed"] = cstar.reversed_max_ratio
        got["bound_per_probe"] = bound.per_probe
        got["limits_radius"], got["limits_bound"] = (column.tolist() for column in I.limits(P)[1:])

        ref = ref_stages(I, I2, lambdas, P)
        assert set(got) == set(ref)
        for key, expected in ref.items():
            if key in ("cstar_reversed", "bound_per_probe", "limits_radius", "limits_bound"):
                assert got[key] == expected
                continue
            (sup, wit, n), (ref_sup, ref_wit, ref_n) = got[key], expected
            assert (sup, comparable(wit), n) == (ref_sup, comparable(ref_wit), ref_n), key
        assert laws.total_tuples == sum(
            entry[2] for key, entry in got.items()
            if key in ("additivity", "antimultiplicativity", "involutivity")
            or key.startswith("conj_homogeneity"))
        if name.startswith("exact"):
            # Every law defect of an exact involution is 0: the witness is
            # the first tuple.
            assert laws.additivity.max_defect == 0.0
            x, y = ref_pairs(P)[0]
            assert comparable(laws.additivity.witness) == comparable({"x": x, "y": y})
            assert uniq.max_diff == 0.0
            assert comparable(uniq.witness) == comparable({"x": P[0]})
