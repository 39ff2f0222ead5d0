"""Benchmark workloads: scenario configs generated from a seed, and the
verdicts each certified pass must reach.

Every workload is a family of scenario configs for
`involstab.cli.run_scenario`, one per pass of a run: the run's seed and the
pass number set `sampling.seed`, `lambda.seed` and every `direction_seed`,
so each pass certifies fresh inputs. The algebra, involution, control and
perturbation amplitudes are fixed.

Fresh inputs per pass matter on matrices: the operator norm is a power
iteration whose step count depends on the singular-value gaps of the
probes and of the perturbation direction, so one input set can cost 30%
more than another. A run's median over many input sets varies far less
from seed to seed than one set does.
"""

from __future__ import annotations

import hashlib
import math

# Largest law defect a pass may report. The limit map is an exact involution
# on every workload; what remains is the orbit truncated at max_n = 48, about
# theta_delta * ||x||^(1/2) * 2^(-24) < 1e-7 before normalization.
LAW_TOL = 1e-6

# The seed of every run's warm pass (pass 0); perfbench/digests.json records
# that pass's report.json and trace.csv.
WARM_SEED = 101


def derive(seed: int, *path) -> int:
    """A 32-bit seed for one input, derived from the run's seed."""
    key = "/".join(str(p) for p in (seed, *path)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


def _matrix_rsum() -> dict:
    # adjoint_rsum_r05 with fewer probes and scalars, so a pass takes about
    # 1.5 s instead of 9 s. Each scalar adds a stabilization per law probe
    # whose cost follows that probe's singular-value gap; two per stage
    # instead of three or four cut the pass-to-pass variance per second of
    # run by a sixth.
    return {
        "algebra": {"kind": "matrix", "dim": 2},
        "involution": {"kind": "adjoint"},
        "perturbation": {"kind": "fixed_direction", "theta_delta": 0.1, "r": 0.5,
                         "direction_seed": None},
        "perturbation2": {"kind": "random_direction", "theta_delta": 0.1, "r": 0.5,
                          "direction_seed": None},
        "control": {"kind": "power_sum", "theta": 0.3, "r": 0.5},
        "stabilizer": {"max_n": 48, "tol_rel": 1e-10},
        "sampling": {"num_probes": 6, "radius_min": 0.1, "radius_max": 10.0},
        "lambda": {"n0": 3, "arc": 2, "circle": 2, "reals": 2, "complex": 2},
        "laws": {"max_probes": 3},
    }


def _pointwise_hashed() -> dict:
    return {
        "algebra": {"kind": "pointwise", "dim": 4},
        "involution": {"kind": "conjugation"},
        "perturbation": {"kind": "random_direction", "theta_delta": 0.1, "r": 0.5,
                         "direction_seed": None},
        "perturbation2": {"kind": "fixed_direction", "theta_delta": 0.1, "r": 0.5,
                          "direction_seed": None},
        "control": {"kind": "power_sum", "theta": 0.3, "r": 0.5},
        "stabilizer": {"max_n": 48, "tol_rel": 1e-10},
        "sampling": {"num_probes": 6, "radius_min": 0.1, "radius_max": 10.0},
        "lambda": {"n0": 3, "arc": 4, "circle": 4, "reals": 3, "complex": 3},
        "laws": {"max_probes": 3},
    }


def _scalar_exact() -> dict:
    # product_superstability as bundled; it has no direction seed.
    return {
        "algebra": {"kind": "scalar", "dim": 1},
        "involution": {"kind": "conjugation"},
        "perturbation": {"kind": "none"},
        "control": {"kind": "power_product", "theta": 0.1, "r": 0.25},
        "stabilizer": {"max_n": 48, "tol_rel": 1e-10},
        "sampling": {"num_probes": 60, "radius_min": 0.1, "radius_max": 10.0},
        "lambda": {"n0": 3, "arc": 4, "circle": 4, "reals": 3, "complex": 3},
        "laws": {"max_probes": 20},
    }


WORKLOADS = {
    "matrix_rsum": _matrix_rsum,
    "pointwise_hashed": _pointwise_hashed,
    "scalar_exact": _scalar_exact,
}


def make_config(workload: str, seed: int, pass_no: int) -> dict:
    config = WORKLOADS[workload]()
    config["sampling"]["seed"] = derive(seed, pass_no, "sampling")
    config["lambda"]["seed"] = derive(seed, pass_no, "lambda")
    for section in ("perturbation", "perturbation2"):
        if "direction_seed" in config.get(section, {}):
            config[section]["direction_seed"] = derive(seed, pass_no, section)
    return config


def _defect(value) -> float:
    # report.json writes an infinite defect as the string "inf".
    return math.inf if isinstance(value, str) else float(value)


def check_report(config: dict, report: dict) -> list[str]:
    """Verdicts a pass must reach; returns the ones it missed."""
    problems = []
    if report["bound"]["pass"] is not True:
        problems.append(f"bound failed: max_ratio {report['bound']['max_ratio']}")
    if report["cstar"]["pass"] is not True:
        problems.append(f"C* failed: max_ratio {report['cstar']['max_ratio']}")
    if "perturbation2" in config:
        uniq = report["uniqueness"]
        if uniq is None or uniq["pass"] is not True:
            problems.append(f"uniqueness failed: {uniq and uniq['max_diff']}")
    laws = report["laws"]
    defects = {
        "additivity": laws["additivity"]["max_defect"],
        "antimultiplicativity": laws["antimultiplicativity"]["max_defect"],
        "involutivity": laws["involutivity"]["max_defect"],
    }
    for stage, entry in laws["conj_homogeneity"].items():
        defects[f"conj_homogeneity[{stage}]"] = entry["max_defect"]
    for law, value in defects.items():
        if not _defect(value) <= LAW_TOL:
            problems.append(f"{law} defect {value} above {LAW_TOL}")
    return problems
