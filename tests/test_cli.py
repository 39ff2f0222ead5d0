import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from involstab import algebra, cli, maps, stabilizer, verifier
from involstab.cli import bundled_scenario_path, main
from involstab.errors import DegenerateDirection


def small_config(**overrides):
    cfg = {
        "algebra": {"kind": "scalar"},
        "involution": {"kind": "conjugation"},
        "perturbation": {"kind": "fixed_direction", "theta_delta": 0.1, "r": 0.5},
        "control": {"kind": "power_sum", "theta": 0.3, "r": 0.5},
        "sampling": {"num_probes": 6, "seed": 3},
        "laws": {"max_probes": 4},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


REPORT_KEYS = {
    "direction", "hypotheses", "bound", "laws", "uniqueness", "cstar",
    "corollary_audit", "tolerances",
}


class TestRun:
    def test_run_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        for name in ("report.json", "trace.csv", "manifest.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert set(report) == REPORT_KEYS
        assert report["direction"]["L"] == pytest.approx(2 ** -0.5)
        assert report["bound"]["pass"] is True
        assert report["cstar"]["pass"] is True
        assert report["uniqueness"] is None
        assert report["corollary_audit"]["derived"] == pytest.approx(1 + math.sqrt(2))
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "probe_id,radius,n,diff_norm,error_vs_limit,bound,ratio"

    def test_uniqueness_section_present_with_second_map(self, tmp_path):
        cfg = small_config(
            perturbation2={"kind": "random_direction", "theta_delta": 0.1,
                           "r": 0.5, "direction_seed": 5},
        )
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["uniqueness"]["pass"] is True

    def test_deterministic_reruns(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        for name in ("report.json", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("algebra_cfg, involution", [
        ({"kind": "scalar"}, "conjugation"),
        ({"kind": "pointwise", "dim": 3}, "conjugation"),
        ({"kind": "matrix", "dim": 2}, "adjoint"),
    ], ids=["scalar", "pointwise", "matrix"])
    def test_trace_columns_match_per_row_norms(self, algebra_cfg, involution):
        sc = cli.parse_scenario(small_config(algebra=algebra_cfg,
                                             involution={"kind": involution}))
        results, rows = cli.run_pipeline(sc)
        direction = results["direction"]
        expected = []
        for x in cli.make_probes(sc):
            tr = stabilizer.stabilize_point(sc.f, direction, x,
                                            max_n=sc.max_n, tol_rel=sc.tol_rel)
            fx = maps.eval_f(sc.f, x)
            bnd = stabilizer.error_bound(direction, sc.phi, x)
            for row in tr.iterates[:-1]:
                a_n = algebra.Element(sc.spec, row)
                expected.append((algebra.norm(algebra.sub(a_n, tr.result)),
                                 verifier._ratio(algebra.norm(algebra.sub(a_n, fx)), bnd)))
        assert [(r["error_vs_limit"], r["ratio"]) for r in rows] == expected

    @pytest.mark.parametrize("cstar", [{}, {"max_n": 48, "tol_rel": 1e-10}],
                             ids=["deeper-cstar", "same-depth-cstar"])
    def test_each_key_stabilized_once(self, monkeypatch, cstar):
        # Each distinct (map, point, max_n, tol_rel) is in exactly one batch
        # across all stages and the trace rows.
        batches = []
        stabilize = stabilizer.stabilize_points

        def counting(f, direction, xs, max_n=48, tol_rel=1e-10):
            batches.append([(id(f), x.data.tobytes(), max_n, tol_rel) for x in xs])
            return stabilize(f, direction, xs, max_n=max_n, tol_rel=tol_rel)

        monkeypatch.setattr(stabilizer, "stabilize_points", counting)
        sc = cli.parse_scenario(small_config(
            perturbation2={"kind": "random_direction", "theta_delta": 0.1,
                           "r": 0.5, "direction_seed": 5},
            cstar=cstar,
        ))
        results, _ = cli.run_pipeline(sc)
        assert results["uniqueness"].passed is True
        calls = [key for batch in batches for key in batch]
        assert {(key[0], key[2]) for key in calls} == {
            (id(sc.f), sc.max_n), (id(sc.f2), sc.max_n), (id(sc.f), sc.cstar_max_n)}
        assert len(calls) == len(set(calls))

    def test_near_equal_singular_values_probe(self, tmp_path):
        # diag(1, 0.99999) has a 1e-5 relative gap between its singular values
        cfg = json.loads(bundled_scenario_path("adjoint_rsum_r05").read_text())
        cfg["sampling"].update(num_probes=3, extra_probes=[[[1, 0], [0, 0], [0, 0], [0.99999, 0]]])
        cfg["laws"] = {"max_probes": 2}
        cfg["lambda"].update(arc=1, circle=1, reals=1, complex=1)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bound"]["pass"] is True
        assert report["cstar"]["pass"] is True

    def test_infinite_ratios_serialized_as_strings(self, tmp_path):
        # conjugation plus a radial perturbation violates product control at y=0
        cfg = small_config(
            perturbation={"kind": "fixed_direction", "theta_delta": 0.01, "r": 0.25},
            control={"kind": "power_product", "theta": 0.1, "r": 0.25},
        )
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["hypotheses"]["e2_jensen"]["sup_ratio"] == "inf"
        assert report["bound"]["max_ratio"] == "inf"
        assert report["bound"]["pass"] is False


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 2

    def test_missing_section_names_key(self, tmp_path, capsys):
        cfg = small_config()
        del cfg["sampling"]
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert "sampling" in capsys.readouterr().err

    def test_no_contraction_at_r_one(self, tmp_path):
        cfg = small_config(control={"kind": "power_sum", "theta": 0.3, "r": 1.0})
        assert main(["run", str(write_config(tmp_path, cfg))]) == 3

    def test_failed_run_writes_no_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = small_config(control={"kind": "power_sum", "theta": 0.3, "r": 1.0})
        assert main(["run", str(write_config(tmp_path, cfg))]) == 3
        assert not (tmp_path / "scenario_out").exists()

    @pytest.mark.parametrize("algebra_cfg, involution", [
        ({"kind": "matrix", "dim": 2}, {"kind": "conjugation"}),
        ({"kind": "scalar"}, {"kind": "twisted_adjoint", "s": [[1, 0]]}),
    ], ids=["conjugation-on-matrix", "twisted-on-scalar"])
    def test_involution_undefined_on_algebra(self, tmp_path, capsys, algebra_cfg, involution):
        cfg = small_config(algebra=algebra_cfg, involution=involution)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert "involution" in capsys.readouterr().err

    def test_other_package_error(self, tmp_path, monkeypatch, capsys):
        def degenerate(sc):
            raise DegenerateDirection("Gaussian draw was exactly zero 8 times")

        monkeypatch.setattr(cli, "make_probes", degenerate)
        assert main(["run", str(write_config(tmp_path, small_config()))]) == 5
        assert "DegenerateDirection" in capsys.readouterr().err

    def test_top_level_list(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path, [small_config()]))]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("sampling", "num_probes", "many"),
        ("stabilizer", "max_n", "many"),
        ("stabilizer", "max_n", math.inf),
        ("perturbation", "direction_seed", "abc"),
        ("perturbation", "direction_seed", [1]),
        ("sampling", "extra_probes", 5),
    ])
    def test_non_numeric_value_names_key(self, tmp_path, capsys, section, key, value):
        cfg = small_config()
        cfg.setdefault(section, {})[key] = value
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("laws", "max_probes", 0), ("laws", "max_probes", -2), ("cstar", "tol_rel", 0.0),
        ("sampling", "seed", -1), ("lambda", "seed", -1),
        ("perturbation", "direction_seed", -1), ("perturbation", "direction_seed", 1.5),
        # Written as JSON NaN and Infinity, which Python's json reads back
        # (as it reads 1e999) as non-finite floats.
        ("control", "theta", math.nan), ("control", "theta", math.inf),
        ("control", "theta", -math.inf), ("perturbation", "theta_delta", math.nan),
        ("sampling", "radius_max", math.inf), ("cstar", "tol", math.nan),
        # Counts that int() would truncate.
        ("sampling", "num_probes", 6.9), ("stabilizer", "max_n", 48.5),
        ("lambda", "arc", 2.5), ("laws", "max_probes", 3.5), ("algebra", "dim", 1.5),
    ])
    def test_out_of_range_value_names_key(self, tmp_path, capsys, section, key, value):
        cfg = small_config()
        cfg.setdefault(section, {})[key] = value
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_integral_float_count_accepted(self, tmp_path):
        out_int, out_float = tmp_path / "int", tmp_path / "float"
        cfg = small_config()
        assert main(["run", str(write_config(tmp_path, cfg, "a.json")),
                     "--out", str(out_int)]) == 0
        cfg["sampling"]["num_probes"] = 6.0
        assert main(["run", str(write_config(tmp_path, cfg, "b.json")),
                     "--out", str(out_float)]) == 0
        assert (out_int / "report.json").read_bytes() == (out_float / "report.json").read_bytes()

    @pytest.mark.parametrize("scenario", ["adjoint_rsum_r05", "product_superstability"])
    def test_overflowing_probe_radius(self, tmp_path, monkeypatch, capsys, scenario):
        # Probe radii up to 1e308 overflow the stage arithmetic (x*y).
        monkeypatch.chdir(tmp_path)
        cfg = json.loads(bundled_scenario_path(scenario).read_text())
        cfg["sampling"]["radius_max"] = 1e308
        assert main(["run", str(write_config(tmp_path, cfg))]) == 5
        assert "OutOfRange" in capsys.readouterr().err
        assert not (tmp_path / "scenario_out").exists()

    @pytest.mark.parametrize("section, value", [
        # ||x||^r overflows a float in the control, then in the perturbation.
        ("control", {"kind": "power_sum", "theta": 0.3, "r": 1030}),
        ("perturbation", {"kind": "fixed_direction", "theta_delta": 0.1, "r": 1030}),
        # L = 2^(1-r), and 2^(1-2r) for the product, underflows to 0.
        ("control", {"kind": "power_sum", "theta": 0.3, "r": 1100}),
        ("control", {"kind": "power_product", "theta": 0.3, "r": 600}),
    ], ids=["control-overflow", "perturbation-overflow", "sum-L-underflow",
            "product-L-underflow"])
    def test_large_exponent(self, tmp_path, monkeypatch, capsys, section, value):
        monkeypatch.chdir(tmp_path)
        cfg = small_config(**{section: value})
        assert main(["run", str(write_config(tmp_path, cfg))]) == 5
        assert "OutOfRange" in capsys.readouterr().err
        assert not (tmp_path / "scenario_out").exists()

    def test_stabilization_failure(self, tmp_path):
        # r = 2 perturbation under an r = 1/2 control: the upward scaling
        # direction amplifies the defect until the iterates overflow
        cfg = small_config(
            perturbation={"kind": "fixed_direction", "theta_delta": 0.1, "r": 2.0},
            stabilizer={"max_n": 400, "tol_rel": 1e-10},
        )
        assert main(["run", str(write_config(tmp_path, cfg))]) == 4


class TestBundledScenarios:
    def test_names_resolve(self):
        for name in ("adjoint_rsum_r05", "twisted_cstar.json", "product_superstability"):
            assert bundled_scenario_path(name) is not None
        assert bundled_scenario_path("no_such_scenario") is None
        assert bundled_scenario_path("/etc/passwd") is None

    def test_superstability_scenario(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "product_superstability", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bound"]["max_ratio"] == 0.0
        assert report["cstar"]["pass"] is True

    def test_twisted_scenario_refutes_cstar(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "twisted_cstar", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cstar"]["pass"] is False
        assert report["cstar"]["max_ratio"] >= 0.25


# sha256 of report.json and trace.csv. A change that claims to keep every
# output bit must leave these unchanged; they hold for the numpy and LAPACK
# the suite runs with.
GOLDEN_DIGESTS = {
    "adjoint_rsum_r05": (
        "bc9e73ad8e9451078cef1b479db8df9a0cc7f7c8bbec9eed9775d3e5ea66ad0b",
        "cb748b9ed2951f75dd9fb9527d7c9ef8d3b77754f57a1f84234f3a73c64899df"),
    "twisted_cstar": (
        "1afe9d0b78d11916660eeb215636610707f2608b5fb34669b2691e2e4fcbabed",
        "adae0c581bf486dcd7f09577bb88362c59991a38de4999fef5dee049c4be8c2d"),
    "product_superstability": (
        "a2871e922ed3aa1df06c569226f8729e6cef5ec9201009da96d7dc6f0b32f48e",
        "9321acd42ab93f5b0e5cc38228653fff5d0e17ea813b1f91f9c2d4a4163443c1"),
    # No bundled scenario draws hashed random directions; this one does in
    # both maps, with a direction seed and without.
    "pointwise_random_direction": (
        "dfd9ead6ca7f34330c2703b35c99e08c5f4fa85add32d464e594eba9f8da4856",
        "7527dd5a8d7ecb079bae1808253d8cfc9243bb477c7caef75bebc9a1aac0ed33"),
}

POINTWISE_RANDOM_DIRECTION = {
    "algebra": {"kind": "pointwise", "dim": 3},
    "involution": {"kind": "conjugation"},
    "perturbation": {"kind": "random_direction", "theta_delta": 0.1, "r": 0.5,
                     "direction_seed": 11},
    "perturbation2": {"kind": "random_direction", "theta_delta": 0.1, "r": 0.5},
    "control": {"kind": "power_sum", "theta": 0.3, "r": 0.5},
    "sampling": {"num_probes": 4, "seed": 3},
    "lambda": {"arc": 2, "circle": 2, "reals": 2, "complex": 2},
    "laws": {"max_probes": 3},
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
    def test_outputs_unchanged(self, tmp_path, name):
        config = name
        if name == "pointwise_random_direction":
            config = str(write_config(tmp_path, POINTWISE_RANDOM_DIRECTION))
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == 0
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("report.json", "trace.csv"))
        assert got == GOLDEN_DIGESTS[name]


class TestSweep:
    def test_sweep_over_r(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out = tmp_path / "sw"
        rc = main(["sweep", str(cfg), "--param", "r",
                   "--values", "0.25,0.5,1.0", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("param,value,L,max_bound_ratio,max_law_defect,"
                            "bound_pass,cstar_pass,status")
        assert len(lines) == 4
        ok_rows = [l for l in lines[1:] if l.endswith(",ok")]
        assert len(ok_rows) == 2
        assert any("NoContraction" in l for l in lines[1:])

    def test_sweep_records_other_package_errors(self, tmp_path, monkeypatch):
        make_probes = cli.make_probes

        def degenerate_at_five(sc):
            if sc.num_probes == 5:
                raise DegenerateDirection("Gaussian draw was exactly zero 8 times")
            return make_probes(sc)

        monkeypatch.setattr(cli, "make_probes", degenerate_at_five)
        cfg = write_config(tmp_path, small_config())
        out = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--param", "num_probes",
                     "--values", "4,5,6", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        statuses = [row.rsplit(",", 1)[1] for row in rows]
        assert statuses[0] == statuses[2] == "ok"
        assert statuses[1].startswith("DegenerateDirection")

    # sha256 of sweep.csv; the r sweep covers a NoContraction row and both
    # scaling directions.
    @pytest.mark.parametrize("config, param, values, digest", [
        (None, "r", "0.25,0.5,1.0,1.5",
         "a3bca492a18d524ddaa4f70a5b87c2e059aedf70334173759150ed548800bc89"),
        ("adjoint_rsum_r05", "num_probes", "3,4",
         "33f84f8cc186dd3f3bcbf3b0df6f90db8992f54592b44aa7e0a80c190fa2f07a"),
    ], ids=["small-r", "adjoint-num_probes"])
    def test_sweep_csv_unchanged(self, tmp_path, config, param, values, digest):
        config = config or str(write_config(tmp_path, small_config()))
        out = tmp_path / "sw"
        assert main(["sweep", config, "--param", param, "--values", values,
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("param, value, key", [
        ("num_probes", "6.9", "sampling.num_probes"), ("dim", "1.7", "algebra.dim"),
    ])
    def test_sweep_fractional_count_is_config_error(self, tmp_path, param, value, key):
        cfg = write_config(tmp_path, small_config())
        out = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--param", param, "--values", value,
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["value"] == value
        assert row["status"].startswith(f"ConfigError: {key} must be an integer")

    def test_sweep_bad_param_rejected(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        assert main(["sweep", str(cfg), "--param", "theta", "--values", "x,y"]) == 2


class TestModuleEntryPoint:
    def test_python_m_involstab(self):
        # `python -m involstab` runs the CLI without the runpy warning that
        # `python -m involstab.cli` gives.
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "involstab",
             "demo-fixedpoint"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "affine contraction" in proc.stdout


class TestDemo:
    def test_demo_output(self, capsys):
        assert main(["demo-fixedpoint"]) == 0
        out = capsys.readouterr().out
        assert "branch=converged" in out
        assert "branch=all_infinite" in out
        assert "fixed_point=2.0" in out or "fixed_point=1.9999999999999" in out

    def test_demo_bound_attained(self):
        result = cli.demo_fixedpoint(stream=io.StringIO())
        assert abs(result["affine_bound_ratio"] - 1.0) <= 1e-12
        assert result["identity"].n0 == 0
