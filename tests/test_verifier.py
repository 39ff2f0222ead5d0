import math

import numpy as np
import pytest

from involstab import algebra, maps, stabilizer, verifier
from involstab.algebra import SCALAR, matrix_spec
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
NIL = algebra.element(M2, [0, 1, 0, 0])

LAMBDAS = LambdaSampler(n0=3, seed=2)


def radial(theta, r, seed=None):
    return PerturbationSpec("fixed_direction", theta, r, direction_seed=seed)


def sample_probes(n, rng, spec=M2, rad=(0.1, 10.0)):
    return [algebra.sample_element(spec, rad, rng) for _ in range(n)]


EXACT_ADJ = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
BUDGET_F = ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=7), M2)
PHI_SUM = power_sum(0.3, 0.5)
UP = select_direction(PHI_SUM)


def up_map(f):
    return StabilizedMap(f, UP)


class TestProbePairs:
    def test_structure(self, rng):
        probes = sample_probes(5, rng)
        pairs = probe_pairs(probes)
        assert len(pairs) == 4 * len(probes)
        z = algebra.zero(M2)
        for i, x in enumerate(probes):
            assert pairs[4 * i][0] is x and pairs[4 * i][1].close_to(z)
            assert pairs[4 * i + 1] == (x, x)


class TestStabilizedMap:
    def test_memoized(self, rng):
        I = StabilizedMap(BUDGET_F, UP)
        x = sample_probes(1, rng)[0]
        assert I(x) is I(algebra.element(M2, x.flat()))
        assert I.trace(x).result is I(x)

    def test_stabilize_batches_distinct_uncached(self, rng, monkeypatch):
        batches = []
        stabilize = stabilizer.stabilize_points

        def counting(f, direction, xs, max_n=48, tol_rel=1e-10):
            batches.append([x.data.tobytes() for x in xs])
            return stabilize(f, direction, xs, max_n=max_n, tol_rel=tol_rel)

        monkeypatch.setattr(stabilizer, "stabilize_points", counting)
        I = StabilizedMap(BUDGET_F, UP)
        x, y, z = sample_probes(3, rng)
        I.stabilize([x, y, algebra.element(M2, x.flat()), x])
        I.stabilize([y, z, x])
        I(z), I(x)
        I.stabilize([])
        assert batches == [[x.data.tobytes(), y.data.tobytes()], [z.data.tobytes()]]
        assert I.trace(z).result is I(z)

    def test_matches_conj_transpose(self, rng):
        I = StabilizedMap(BUDGET_F, UP)
        for x in sample_probes(10, rng):
            assert algebra.norm(
                algebra.sub(I(x), algebra.conj_transpose(x))
            ) <= 1e-7 * max(1.0, algebra.norm(x))

    # ||I(I(x)) - x||: the involutivity residual of the stabilized map.
    def test_involutive_exact_involution(self, rng):
        I = StabilizedMap(EXACT_ADJ, UP)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert algebra.norm(algebra.sub(I(I(x)), x)) <= 1e-12

    def test_involutive_perturbed_adjoint(self, rng):
        I = StabilizedMap(ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=4), M2), UP,
                          max_n=48)
        for _ in range(10):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            assert algebra.norm(algebra.sub(I(I(x)), x)) <= 1e-6

    def test_involutive_zero(self):
        I = StabilizedMap(ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=4), M2), UP)
        z = algebra.zero(M2)
        assert algebra.norm(algebra.sub(I(I(z)), z)) == 0.0


class TestScanHypotheses:
    def test_exact_involution_all_small(self, rng):
        rep = scan_hypotheses(up_map(EXACT_ADJ), PHI_SUM, LAMBDAS, sample_probes(12, rng))
        for name in ("e2_jensen", "e3_antimul", "e4_involutive", "e6_cstar"):
            entry = rep.entries[name]
            assert entry.sup_ratio <= 1e-9
            assert entry.witness is not None
            assert entry.samples_used > 0

    def test_budget_scenario_within_control(self, rng):
        # theta_delta = THETA/3 keeps the Jensen ratio at or below one
        rep = scan_hypotheses(up_map(BUDGET_F), PHI_SUM, LAMBDAS, sample_probes(20, rng))
        assert rep.entries["e2_jensen"].sup_ratio <= 1.0 + 1e-12
        assert rep.entries["e3_antimul"].sup_ratio < INF
        assert rep.entries["e4_involutive"].sup_ratio <= 1e-6

    def test_product_control_refutes_perturbed_map(self, rng):
        # the perturbation does not vanish at y = 0 but phi(x, 0) does,
        # so the scan reports an infinite supremum with a y = 0 witness
        f = ApproxMap(maps.conjugation(), radial(0.01, 0.25), SCALAR)
        phi = power_product(0.1, 0.25)
        rep = scan_hypotheses(
            StabilizedMap(f, select_direction(phi)), phi, LAMBDAS,
            sample_probes(8, rng, spec=SCALAR),
        )
        entry = rep.entries["e2_jensen"]
        assert entry.sup_ratio == INF
        assert algebra.norm(entry.witness["y"]) == 0.0

    def test_witness_reevaluates_to_sup(self, rng):
        rep = scan_hypotheses(up_map(BUDGET_F), PHI_SUM, LAMBDAS, sample_probes(20, rng))
        w = rep.entries["e2_jensen"].witness
        num = algebra.norm(maps.jensen_defect(BUDGET_F, w["lam"], w["x"], w["y"]))
        den = stabilizer.control_eval(PHI_SUM, w["x"], w["y"])
        assert num / den == rep.entries["e2_jensen"].sup_ratio

    def test_sup_monotone_in_probes(self, rng):
        probes = sample_probes(24, rng)
        small = scan_hypotheses(up_map(BUDGET_F), PHI_SUM, LAMBDAS, probes[:8])
        large = scan_hypotheses(up_map(BUDGET_F), PHI_SUM, LAMBDAS, probes)
        for name in ("e2_jensen", "e3_antimul", "e6_cstar"):
            assert large.entries[name].sup_ratio >= small.entries[name].sup_ratio

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            scan_hypotheses(up_map(EXACT_ADJ), PHI_SUM, LAMBDAS, [])


class TestVerifyBound:
    def test_exact_ratio(self, rng):
        # diff = 0.1*||x||^{1/2}, bound = (1+sqrt(2))*0.1*||x||^{1/2}
        phi = power_sum(0.1, 0.5)
        rep = verify_bound(up_map(BUDGET_F), phi, sample_probes(20, rng))
        assert rep.passed
        assert rep.max_ratio == pytest.approx(1 / (1 + SQRT2), rel=1e-6)
        assert all(r == pytest.approx(1 / (1 + SQRT2), rel=1e-6) for r in rep.per_probe)

    def test_headroom_under_budget_control(self, rng):
        rep = verify_bound(up_map(BUDGET_F), PHI_SUM, sample_probes(20, rng))
        assert rep.passed
        assert rep.max_ratio == pytest.approx(1 / (3 * (1 + SQRT2)), rel=1e-6)

    def test_superstability_zero_bound(self, rng):
        phi = power_product(0.1, 0.25)
        d = select_direction(phi)
        rep = verify_bound(StabilizedMap(EXACT_ADJ, d), phi, sample_probes(10, rng))
        assert rep.passed and rep.max_ratio == 0.0

    def test_zero_bound_violation_is_infinite(self, rng):
        phi = power_product(0.1, 0.25)
        d = select_direction(phi)
        f = ApproxMap(maps.conjugation(), radial(0.01, 0.25), SCALAR)
        rep = verify_bound(StabilizedMap(f, d), phi, sample_probes(5, rng, spec=SCALAR))
        assert not rep.passed and rep.max_ratio == INF


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
        probes = sample_probes(10, rng) + [NIL]
        rep = verify_cstar(up_map(f), probes)
        assert not rep.passed
        assert rep.max_ratio >= 0.25
        assert rep.witness is not None

    def test_nilpotent_witness_ratio(self):
        # x = [[0,1],[0,0]]: x I(x) = [[0.5,0],[0,0]] so the defect is 0.5
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        rep = verify_cstar(up_map(f), [NIL])
        assert rep.max_ratio == pytest.approx(0.5, abs=1e-9)
        assert rep.reversed_max_ratio == pytest.approx(0.5, abs=1e-9)

    def test_zero_probe_skipped(self, rng):
        rep = verify_cstar(up_map(EXACT_ADJ), [algebra.zero(M2)] + sample_probes(3, rng))
        assert rep.probes_checked == 3
