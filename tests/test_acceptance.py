"""Acceptance suite: one test per criterion, each printing a single
pass/fail verdict line outside pytest capture."""

import json
import math
import time

import numpy as np
import pytest

from involstab import algebra, fixedpoint, maps, stabilizer, verifier
from involstab.algebra import SCALAR, matrix_spec
from involstab.cli import main as cli_main
from involstab.fixedpoint import (
    INF,
    Branch,
    FunctionSpaceMetric,
    GeneralizedMetricSpace,
    function_space_distance,
    iterate_alternative,
    ray_probes,
    scaling_operator,
)
from involstab.maps import ApproxMap, LambdaSampler, NO_PERTURBATION, PerturbationSpec
from involstab.stabilizer import (
    Regime,
    corollary_constant,
    power_product,
    power_sum,
    select_direction,
    stabilize_point,
)
from involstab.verifier import StabilizedMap

M2 = matrix_spec(2)
SQRT2 = math.sqrt(2)
L_HALF = 2 ** -0.5

THETA = 0.3
THETA_DELTA = 0.1
PHI = power_sum(THETA, 0.5)
DIRECTION = select_direction(PHI)
ADJ_F = ApproxMap(
    maps.adjoint(),
    PerturbationSpec("fixed_direction", THETA_DELTA, 0.5, direction_seed=7),
    M2,
)
LAMBDAS = LambdaSampler(n0=3, seed=2)


@pytest.fixture
def verdict(capsys):
    def _verdict(criterion, ok, detail):
        line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


def sample_probes(n, seed, spec=M2, rad=(0.1, 10.0)):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [algebra.sample_element(spec, rad, rng) for _ in range(n)]


@pytest.fixture(scope="module")
def probes200():
    return sample_probes(200, 11)


@pytest.fixture(scope="module")
def traces200(probes200):
    return [stabilize_point(ADJ_F, DIRECTION, x, max_n=48) for x in probes200]


def test_criterion_1_bound_reproduction(probes200, verdict):
    t0 = time.perf_counter()
    traces = [stabilize_point(ADJ_F, DIRECTION, x, max_n=48) for x in probes200]
    elapsed = time.perf_counter() - t0
    worst_margin, worst_ratio_err = -INF, 0.0
    for x, tr in zip(probes200, traces):
        nx = algebra.norm(x)
        diff = algebra.norm(algebra.sub(tr.result, maps.eval_f(ADJ_F, x)))
        bound = (1 + SQRT2) * THETA * nx**0.5 + 1e-9
        worst_margin = max(worst_margin, diff - bound)
        ratio = diff / (THETA_DELTA * nx**0.5)
        worst_ratio_err = max(worst_ratio_err, abs(ratio - 1.0))
    ok = worst_margin <= 0.0 and worst_ratio_err <= 1e-6 and elapsed < 5.0
    verdict(1, ok, f"200 probes, bound margin {worst_margin:.3e}, "
                   f"max |ratio-1| {worst_ratio_err:.3e}, {elapsed:.2f}s")


def test_criterion_2_geometric_rate(verdict):
    f = ApproxMap(
        maps.conjugation(),
        PerturbationSpec("fixed_direction", THETA_DELTA, 0.5),
        SCALAR,
    )

    def diff_errors(x):
        nx = algebra.norm(x)
        tr = stabilize_point(f, DIRECTION, x, max_n=48, tol_rel=1e-14)
        diffs = tr.diffs[:41]
        rels = [
            abs(d - THETA_DELTA * nx**0.5 * (1 - L_HALF) * L_HALF**n)
            / (THETA_DELTA * nx**0.5 * (1 - L_HALF) * L_HALF**n)
            for n, d in enumerate(diffs)
        ]
        fitted = (diffs[40] / diffs[0]) ** (1.0 / 40)
        return max(rels), abs(fitted - DIRECTION.L)

    # Imaginary-axis probes keep the stationary part conj(x) = -x and the
    # real radial defect in disjoint components, so the n <= 40 differences
    # (down to ~3e-8 * ||x||^{1/2}) are measured without cancellation noise.
    worst_rel, worst_fit = 0.0, 0.0
    for rad in np.geomspace(0.1, 10.0, 20):
        r, fiterr = diff_errors(algebra.scalar(1j * rad))
        worst_rel, worst_fit = max(worst_rel, r), max(worst_fit, fiterr)

    # Generic probes hit the double-precision noise floor ulp(||x||) near
    # n = 40; check the same closed form there at the attainable tolerance.
    worst_generic = 0.0
    for x in sample_probes(20, 21, spec=SCALAR):
        r, fiterr = diff_errors(x)
        worst_generic, worst_fit = max(worst_generic, r), max(worst_fit, fiterr)

    ok = worst_rel <= 1e-10 and worst_generic <= 1e-7 and worst_fit <= 1e-6
    verdict(2, ok, f"closed-form rel err {worst_rel:.3e} (n<=40, noise-free axis), "
                   f"{worst_generic:.3e} (generic probes, noise floor), "
                   f"fitted ratio err {worst_fit:.3e}")


def test_criterion_3_recovery(probes200, traces200, verdict):
    worst = max(
        algebra.norm(algebra.sub(tr.result, algebra.conj_transpose(x)))
        for x, tr in zip(probes200, traces200)
    )
    ok = worst <= 1e-7
    verdict(3, ok, f"max ||I(x) - x*|| = {worst:.3e} over 200 probes")


def test_criterion_4_involution_laws(verdict):
    variants = {
        "adjoint": ADJ_F,
        "twisted": ApproxMap(
            maps.twisted_adjoint(algebra.element(M2, [1, 0, 0, 2])),
            PerturbationSpec("fixed_direction", THETA_DELTA, 0.5, direction_seed=7),
            M2,
        ),
    }
    total, worst = 0, 0.0
    for f in variants.values():
        rep = verifier.verify_involution_laws(
            StabilizedMap(f, DIRECTION, max_n=48), LAMBDAS, sample_probes(24, 31)
        )
        total += rep.total_tuples
        worst = max(
            worst,
            rep.additivity.max_defect,
            rep.antimultiplicativity.max_defect,
            rep.involutivity.max_defect,
            *(e.max_defect for e in rep.conj_homogeneity.values()),
        )
    ok = worst <= 1e-6 and total >= 1000
    verdict(4, ok, f"max normalized law defect {worst:.3e} over {total} tuples, "
                   f"both variants")


def test_criterion_5_cstar_dichotomy(verdict):
    probes = sample_probes(20, 41)
    adj = verifier.verify_cstar(
        StabilizedMap(ADJ_F, DIRECTION, max_n=96, tol_rel=1e-12), probes
    )
    nil = algebra.element(M2, [0, 1, 0, 0])
    twisted = ApproxMap(
        maps.twisted_adjoint(algebra.element(M2, [1, 0, 0, 2])), NO_PERTURBATION, M2
    )
    I_twisted = StabilizedMap(twisted, DIRECTION, max_n=96)
    tw = verifier.verify_cstar(I_twisted, probes + [nil])
    tw_nil = verifier.verify_cstar(I_twisted, [nil])
    ok = (adj.passed and adj.max_ratio <= 1e-8
          and not tw.passed and tw.max_ratio >= 0.25
          and abs(tw_nil.max_ratio - 0.5) <= 1e-9)
    verdict(5, ok, f"adjoint max ratio {adj.max_ratio:.3e} (certified), "
                   f"twisted max ratio {tw.max_ratio:.3f} (refuted), "
                   f"nilpotent witness {tw_nil.max_ratio:.3f}")


def test_criterion_6_superstability(verdict):
    phi = power_product(0.25, 0.25)
    d = select_direction(phi)
    exact = ApproxMap(maps.conjugation(), NO_PERTURBATION, SCALAR)
    probes = sample_probes(30, 51, spec=SCALAR)
    rep = verifier.scan_hypotheses(StabilizedMap(exact, d), phi, LAMBDAS, probes)
    sup = max(e.sup_ratio for e in rep.entries.values())
    constant = all(
        stabilize_point(exact, d, x).n_used == 1
        and all(np.array_equal(it, maps.eval_f(exact, x).data) for it in
                stabilize_point(exact, d, x).iterates)
        for x in probes
    )
    perturbed = ApproxMap(
        maps.conjugation(), PerturbationSpec("fixed_direction", 0.01, 0.25), SCALAR
    )
    rep2 = verifier.scan_hypotheses(StabilizedMap(perturbed, d), phi, LAMBDAS, probes)
    e2 = rep2.entries["e2_jensen"]
    refuted = e2.sup_ratio == INF and algebra.norm(e2.witness["y"]) == 0.0
    ok = sup <= 1e-12 and constant and refuted
    verdict(6, ok, f"exact map sup ratio {sup:.3e} (zero to double precision), "
                   f"stabilizer constant, perturbed map e2 = inf at y = 0")


def test_criterion_7_fixed_point_alternative(verdict):
    reals = GeneralizedMetricSpace("reals", lambda a, b: abs(a - b))
    affine = iterate_alternative(lambda t: 0.5 * t + 1.0, 0.0, 0.5, reals, tol=1e-15)
    ratio = abs(affine.fixed_point - 0.0) / affine.aposteriori_bound
    discrete = GeneralizedMetricSpace(
        "discrete-infinity", lambda a, b: 0.0 if a == b else INF
    )
    all_inf = iterate_alternative(lambda n: n + 1, 0, 0.5, discrete, max_iter=16)

    rng = np.random.Generator(np.random.PCG64(71))
    transfer_ok = True
    for trial in range(100):
        def radial(theta, seed):
            p = PerturbationSpec("fixed_direction", theta, 0.5, direction_seed=seed)
            fm = ApproxMap(maps.adjoint(), p, M2)
            return lambda x: maps.eval_f(fm, x)
        g = radial(rng.uniform(0.01, 0.3), 100 + trial)
        h = radial(rng.uniform(0.01, 0.3), 200 + trial)
        bases = [algebra.sample_element(M2, (0.2, 2.0), rng) for _ in range(3)]
        metric = FunctionSpaceMetric(
            ray_probes(bases, DIRECTION.q, 5),
            lambda x: stabilizer.control_of_x(PHI, x),
        )
        d_gh = function_space_distance(g, h, metric)
        d_t = function_space_distance(
            scaling_operator(g, DIRECTION.q), scaling_operator(h, DIRECTION.q), metric
        )
        if not (d_gh < INF and d_t <= DIRECTION.L * d_gh * (1 + 1e-9)):
            transfer_ok = False
            break
    ok = (affine.branch is Branch.CONVERGED
          and abs(affine.fixed_point - 2.0) <= 1e-12
          and abs(ratio - 1.0) <= 1e-12
          and all_inf.branch is Branch.ALL_INFINITE
          and transfer_ok)
    verdict(7, ok, f"affine fp {affine.fixed_point!r}, bound ratio {ratio!r}, "
                   f"all-infinite branch hit, contraction transfer 100/100")


def test_criterion_8_corollary_audit(probes200, traces200, verdict):
    a_half = corollary_constant(0.5, Regime.SUM_R_LT_1)
    a_two = corollary_constant(2.0, Regime.SUM_R_GT_1)
    audit_ok = (abs(a_half.derived - 2.41421) <= 1e-5
                and abs(a_half.paper_stated - 3.41421) <= 1e-5
                and a_two.derived == pytest.approx(2.0)
                and a_two.paper_stated == pytest.approx(-2.0)
                and a_two.sign_anomaly)
    worst = max(
        algebra.norm(algebra.sub(tr.result, maps.eval_f(ADJ_F, x)))
        / (THETA * algebra.norm(x) ** 0.5)
        for x, tr in zip(probes200, traces200)
    )
    ok = audit_ok and worst <= a_half.derived and worst <= a_half.paper_stated
    verdict(8, ok, f"derived {a_half.derived:.5f} vs paper {a_half.paper_stated:.5f}; "
                   f"r=2 sign anomaly flagged; measured ratio {worst:.3f} respects both")


def test_criterion_9_uniqueness(verdict):
    f2 = ApproxMap(
        maps.adjoint(),
        PerturbationSpec("random_direction", THETA_DELTA, 0.5, direction_seed=13),
        M2,
    )
    rep = verifier.verify_uniqueness(
        StabilizedMap(ADJ_F, DIRECTION, max_n=48), StabilizedMap(f2, DIRECTION, max_n=48),
        sample_probes(40, 91),
    )
    ok = rep.passed and rep.max_diff <= 1e-6
    verdict(9, ok, f"fixed vs random direction limits agree to {rep.max_diff:.3e} "
                   f"on {rep.probes_checked} probes")


def test_criterion_10_determinism(tmp_path, verdict):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(["run", "adjoint_rsum_r05", "--out", str(out1)])
    rc2 = cli_main(["run", "adjoint_rsum_r05", "--out", str(out2)])
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("report.json", "trace.csv")
    )
    ok = rc1 == 0 and rc2 == 0 and same
    verdict(10, ok, "two runs of the bundled scenario: report.json and trace.csv "
                    "byte-identical")
