import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from involstab import algebra, cli, maps, stabilizer, verifier
from involstab.cli import bundled_scenario_path, main
from involstab.errors import DegenerateDirection, IterateOverflow, OutOfRange


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


def tag_calls(monkeypatch, tags, module=algebra, name="stacked_norms"):
    """Record each call of module.name, algebra.stacked_norms by default, as
    (tag, stack copy): the stack is its second argument, and the tag is that
    of the innermost running function of `tags`, {(module, name): tag}, or
    None.  Each is patched in its module, where its callers look it up."""
    stage, calls = [None], []
    counted = getattr(module, name)

    def counting(first, stack):
        calls.append((stage[0], stack.copy()))
        return counted(first, stack)

    def tagged(run, tag):
        def wrapper(*args, **kwargs):
            outer, stage[0] = stage[0], tag
            try:
                return run(*args, **kwargs)
            finally:
                stage[0] = outer
        return wrapper

    for (owner, function), tag in tags.items():
        monkeypatch.setattr(owner, function, tagged(getattr(owner, function), tag))
    monkeypatch.setattr(module, name, counting)
    return calls


# The functions whose norm calls are their own, not the calling stage's.
INNER = {(maps, "eval_f_rows"): "inner", (stabilizer, "eval_f_rows"): "inner",
         (stabilizer, "stabilize_points"): "inner"}
STAGES = {(verifier, "scan_hypotheses"): "scan", (verifier, "verify_bound"): "bound",
          (verifier, "verify_involution_laws"): "laws",
          (verifier, "verify_uniqueness"): "uniqueness", (verifier, "verify_cstar"): "cstar",
          (cli, "make_probes"): "probes"}


REPORT_KEYS = {
    "direction", "hypotheses", "bound", "laws", "uniqueness", "cstar",
    "corollary_audit",
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
        # One row per probe and ladder depth but its last, n*, from the
        # probe's own one-row ladder: its depth, the difference to the next
        # depth, the distance to a_{n*} and the deviation from a_0 = f(x)
        # over the bound.  The bound stage's report carries the columns.
        sc = cli.parse_scenario(small_config(algebra=algebra_cfg,
                                             involution={"kind": involution}))
        results = cli.run_pipeline(sc)
        trace = results["bound"].trace
        direction = results["direction"]
        expected = []

        def norm(a):
            return algebra.stacked_norms(sc.spec, a[None])[0]

        for k, x in enumerate(cli.make_probes(sc)):
            tr = stabilizer.stabilize_points(sc.f, direction, sc.phi, x[None])
            bnd = stabilizer.closeness(direction, sc.phi, np.array([norm(x)]))[0]
            its = tr.iterates
            for j in range(len(its) - 1):
                deviation = norm(its[j] - its[0])
                ratio = (0.0 if deviation == 0.0 else math.inf) if bnd == 0.0 else deviation / bnd
                expected.append((k, tr.depths[j], norm(its[j + 1] - its[j]),
                                 norm(its[j] - its[-1]), ratio))
        got = zip(trace["probe_id"], trace["n"], trace["diff_norm"], trace["error_vs_limit"],
                  trace["ratio"])
        assert list(got) == expected
        assert trace["n"][:2] == [0, 1]

    def test_each_key_stabilized_once(self, monkeypatch):
        # Each distinct (map, point) is in exactly one batch across all
        # stages, the bound's trace rows included, and each batch evaluates f once per
        # ladder entry of its rows: no row is evaluated twice.
        batches, batch_rows, traced = [], [], {}
        stabilize, eval_f_rows = stabilizer.stabilize_points, stabilizer.eval_f_rows

        def counting(f, direction, phi, X):
            batches.append([(id(f), row.tobytes()) for row in X])
            trace = stabilize(f, direction, phi, X)
            traced.update(zip(batches[-1], np.diff(trace.offsets).tolist()))
            return trace

        def counting_rows(f, X):
            batch_rows.append(len(X))
            return eval_f_rows(f, X)

        monkeypatch.setattr(stabilizer, "stabilize_points", counting)
        monkeypatch.setattr(stabilizer, "eval_f_rows", counting_rows)
        sc = cli.parse_scenario(small_config(
            perturbation2={"kind": "random_direction", "theta_delta": 0.1,
                           "r": 0.5, "direction_seed": 5},
        ))
        results = cli.run_pipeline(sc)
        assert results["uniqueness"].passed is True
        calls = [key for batch in batches for key in batch]
        assert {key[0] for key in calls} == {id(sc.f), id(sc.f2)}
        assert len(calls) == len(set(calls))
        assert batch_rows == [sum(traced[key] for key in keys) for keys in batches]

    @pytest.mark.parametrize("scenario", ["adjoint_rsum_r05", "product_superstability"])
    def test_one_batch_per_level(self, monkeypatch, scenario):
        # f stabilizes P and every point the laws read in one batch, each
        # distinct row once in first-seen order, then I(P) in a second; f2,
        # where there is one, stabilizes P.  That is 2 calls for f per pass,
        # where the scan's P and the laws' points were 2 of 3.
        sc = cli.parse_scenario(cli.load_config(scenario))
        P = cli.make_probes(sc)
        IP = verifier.StabilizedMap(sc.f, stabilizer.select_direction(sc.phi), sc.phi).limits(P)[0]
        points = verifier._law_points(sc.spec, maps.sample_lambdas(sc.lambdas),
                                      P[:sc.laws_max_probes])[0]
        first = list(dict.fromkeys(row.tobytes() for row in np.concatenate([P, points])))
        batches, stabilize = [], stabilizer.stabilize_points
        monkeypatch.setattr(stabilizer, "stabilize_points", lambda f, direction, phi, X: (
            batches.append((f, X.copy())) or stabilize(f, direction, phi, X)))
        cli.run_pipeline(sc)
        assert [f for f, _ in batches] == [sc.f, sc.f] + [sc.f2] * (sc.f2 is not None)
        assert [row.tobytes() for row in batches[0][1]] == first
        assert batches[1][1].tobytes() == IP.tobytes()
        if sc.f2 is not None:
            assert batches[2][1].tobytes() == P.tobytes()
        if scenario == "adjoint_rsum_r05":
            assert [len(X) for _, X in batches] == [265, 40, 40]

    def test_bound_norms_from_one_call(self, monkeypatch):
        # The bound stage takes its norms from one call on exactly
        # [a_n - a_{n*}; a_n - a_0] over every ladder entry of I.traces(P):
        # its ||I(x) - f(x)|| is the last entry's a_{n*} - a_0, whose a_0
        # has the bits of f(P), and its e(x) is I's.  The trace rows read
        # each probe's radius and bound from I.limits(P).
        calls = tag_calls(monkeypatch, {**INNER, **STAGES})
        sc = cli.parse_scenario(small_config())
        results = cli.run_pipeline(sc)
        (stack,) = [stack for tag, stack in calls if tag == "bound"]
        P = cli.make_probes(sc)
        I = verifier.StabilizedMap(sc.f, results["direction"], sc.phi)
        tr = I.traces(P)
        its, owner = tr.iterates, np.repeat(np.arange(len(P)), np.diff(tr.offsets))
        first, last = its[tr.offsets[:-1]], its[tr.offsets[1:] - 1]
        assert stack.tobytes() == np.concatenate(
            [its - last[owner], its - first[owner]]).tobytes()
        assert first.tobytes() == maps.eval_f_rows(sc.f, P).tobytes()
        _, radius, bound = I.limits(P)
        trace = results["bound"].trace
        assert trace["radius"] == radius[trace["probe_id"]].tolist()
        assert trace["bound"] == bound[trace["probe_id"]].tolist()

    @pytest.mark.parametrize("scenario", ["adjoint_rsum_r05", "product_superstability"])
    def test_one_norm_call_per_stage(self, monkeypatch, scenario):
        # Each stage takes its norms from one stacked_norms call, leaving
        # out those made inside eval_f_rows and stabilize_points, and reads
        # the radii from I; so does C*, whose ||x||^2 is checked before
        # the products.  The trace rows' norms are the bound's: no call is
        # untagged.  One bundled adjoint_rsum_r05 run makes 20 calls in all
        # once its fixed direction is cached.
        sc = cli.parse_scenario(cli.load_config(scenario))
        maps.eval_f_rows(sc.f, cli.make_probes(sc))  # builds the cached fixed direction
        calls = tag_calls(monkeypatch, {**INNER, **STAGES})
        cli.run_pipeline(sc)
        tags = [tag for tag, _ in calls if tag != "inner"]
        assert sorted(tags, key=str) == sorted(
            ["probes", "scan", "bound", "laws", "cstar"]
            + ["uniqueness"] * (sc.f2 is not None), key=str)
        assert None not in (tag for tag, _ in calls)
        if scenario == "adjoint_rsum_r05":
            assert len(calls) <= 20

    @pytest.mark.parametrize("scenario", ["adjoint_rsum_r05", "product_superstability"])
    def test_one_f_call_per_stage(self, monkeypatch, scenario):
        # Outside stabilize_points, only the scan evaluates f, on all of its
        # arguments in one call; the bound reads f(x) = a_0 from I's
        # ladders, and the laws, uniqueness and C* read only the stabilized
        # map.  Each stack holds a point once per role, for m probes,
        # Z = [P; 0] and nl unit scalars of the |Lambda| sampled: the scan's
        # (x+y)/2 and xy per pair, lam z per row of Z and unit scalar, and
        # Z, 8m + (nl+1)(m+1) rows; the laws' x+y and xy per pair, Z and
        # lam p, then I(p).  On adjoint_rsum_r05 that is 689 rows (4,320
        # with every pair row stacked) and 277 + 12 (372 + 12): the laws
        # ask `limits` for both stacks, the second for I(I(p)).
        calls = tag_calls(monkeypatch, {**INNER, **STAGES}, maps, "eval_f_rows")
        batches = tag_calls(monkeypatch, STAGES, verifier.StabilizedMap, "limits")
        sc = cli.parse_scenario(cli.load_config(scenario))
        cli.run_pipeline(sc)
        assert [tag for tag, _ in calls if tag != "inner"] == ["scan"]
        lams = maps.sample_lambdas(sc.lambdas)
        nl = sum(stage in ("arc", "circle") for stage, _ in lams)
        m = len(cli.make_probes(sc))
        (scan,) = [len(stack) for tag, stack in calls if tag == "scan"]
        assert scan == 8 * m + (nl + 1) * (m + 1)
        m = min(m, sc.laws_max_probes)
        laws = [len(stack) for tag, stack in batches if tag == "laws"]
        assert laws == [8 * m + (m + 1) + len(lams) * m, m]
        if scenario == "adjoint_rsum_r05":
            assert (scan, laws) == (689, [277, 12])

    def test_scalars_sampled_once_per_pass(self):
        # The first-level batch, the scan and the laws read one memoized
        # sample of the scalars.
        maps.sample_lambdas.cache_clear()
        cli.run_pipeline(cli.parse_scenario(small_config()))
        info = maps.sample_lambdas.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_one_trace_per_batch_and_one_witness_per_sup(self, monkeypatch):
        # The ladders stay flat stacks: a pass builds one StabilizationTrace
        # per stabilized map, its empty store; two per stabilized batch, the
        # batch's and the store it is appended to; and one gather, the
        # bound's ladders of P, which trace.csv writes.  Each sup builds the
        # witness of its maximum only: 4 hypotheses, 7 laws, bound and C*.
        sc = cli.parse_scenario(cli.load_config("product_superstability"))
        built, witnesses, batches, gathers = [], [], [], []
        init, sup = stabilizer.StabilizationTrace.__init__, verifier._sup
        stabilize, traces = stabilizer.stabilize_points, verifier.StabilizedMap.traces

        def counting_init(trace, *args):
            built.append(trace)
            init(trace, *args)

        def counting_stabilize(*args):
            batches.append(len(built))
            return stabilize(*args)

        def counting_sup(values, witness):
            calls = []
            result = sup(values, lambda k: calls.append(k) or witness(k))
            witnesses.append(len(calls))
            return result

        monkeypatch.setattr(stabilizer.StabilizationTrace, "__init__", counting_init)
        monkeypatch.setattr(stabilizer, "stabilize_points", counting_stabilize)
        monkeypatch.setattr(verifier, "_sup", counting_sup)
        monkeypatch.setattr(verifier.StabilizedMap, "traces",
                            lambda I, X: gathers.append(traces(I, X)) or gathers[-1])
        cli.run_pipeline(sc)
        assert len(built) == (1 + (sc.f2 is not None)) + 2 * len(batches) + len(gathers)
        assert [len(trace.offsets) for trace in gathers] == [sc.num_probes + 1] == [61]
        assert witnesses == [1] * 13

    @pytest.mark.parametrize("scenario", ["adjoint_rsum_r05", "twisted_cstar",
                                          "product_superstability"])
    def test_pass_builds_no_element(self, monkeypatch, scenario):
        # Element is the type of config-parsed values only: a pass, from
        # the probe draw to the trace rows, works on stacks.
        sc = cli.parse_scenario(cli.load_config(scenario))
        maps._fixed_direction.cache_clear()
        built = []
        post_init = algebra.Element.__post_init__

        def counting(element):
            built.append(element.spec)
            post_init(element)

        monkeypatch.setattr(algebra.Element, "__post_init__", counting)
        cli.run_pipeline(sc)
        assert built == []

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


class ZeroDrawsFrom:
    """A Generator whose Gaussian draws from the `start`-th on come out all
    zero; it records the kind of every draw it makes."""

    Generator = np.random.Generator  # bound before a test patches numpy's

    def __init__(self, bits, start):
        self._rng, self._start, self.draws = self.Generator(bits), start, []

    def standard_normal(self, out):
        self._rng.standard_normal(out=out)
        if self.draws.count("normal") >= self._start:
            out[...] = 0.0
        self.draws.append("normal")
        return out

    def random(self):
        self.draws.append("uniform")
        return self._rng.random()


class TestProbes:
    @pytest.mark.parametrize("algebra_cfg, involution", [
        ({"kind": "scalar"}, "conjugation"),
        ({"kind": "pointwise", "dim": 3}, "conjugation"),
        ({"kind": "matrix", "dim": 2}, "adjoint"),
        ({"kind": "matrix", "dim": 3}, "adjoint"),
    ], ids=["scalar", "pointwise3", "matrix2", "matrix3"])
    def test_bits_of_per_probe_draws(self, algebra_cfg, involution):
        # The stack normalized in one call has the bits of raw generator
        # draws per probe: its Gaussian parts, then numpy's uniform log
        # radius; then the extra probes.
        dim = algebra_cfg.get("dim", 1)
        entries = dim * dim if algebra_cfg["kind"] == "matrix" else dim
        extra = [[[0.5, -1.0]] * entries, [[0.0, -0.0]] * entries]
        sc = cli.parse_scenario(small_config(
            algebra=algebra_cfg, involution={"kind": involution},
            sampling={"num_probes": 9, "seed": 11, "radius_min": 1e-3, "radius_max": 1e3,
                      "extra_probes": extra}))
        rng = np.random.Generator(np.random.PCG64(sc.seed))
        parts, radii = np.empty((9, 2, *sc.spec.shape)), []
        for draw in parts:
            rng.standard_normal(out=draw)
            radii.append(math.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        rows = algebra.unit_rows(sc.spec, parts[:, 0] + 1j * parts[:, 1])
        radii = np.array(radii).reshape((-1,) + (1,) * len(sc.spec.shape))
        want = np.concatenate([radii * rows, [x.data for x in sc.extra_probes]])
        got = cli.make_probes(sc)
        assert got.shape == want.shape == (11, *sc.spec.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("start", [0, 3])
    def test_degenerate_draw_at_the_same_probe(self, monkeypatch, start):
        # Eight zero draws raise at the probe, and after the draws, that the
        # per-probe sample_element loop reaches.
        sc = cli.parse_scenario(small_config(algebra={"kind": "matrix", "dim": 2},
                                             involution={"kind": "adjoint"}))
        ref = ZeroDrawsFrom(np.random.PCG64(sc.seed), start)
        with pytest.raises(DegenerateDirection):
            for _ in range(sc.num_probes):
                algebra.sample_element(sc.spec, (sc.radius_min, sc.radius_max), ref)
        made = []
        monkeypatch.setattr(np.random, "Generator",
                            lambda bits: made.append(ZeroDrawsFrom(bits, start)) or made[-1])
        with pytest.raises(DegenerateDirection):
            cli.make_probes(sc)
        assert made[0].draws == ref.draws == ["normal", "uniform"] * start + ["normal"] * 8
        # Clean draws: one Gaussian and one uniform call per probe.
        clean = []
        monkeypatch.setattr(np.random, "Generator",
                            lambda bits: clean.append(ZeroDrawsFrom(bits, math.inf)) or clean[-1])
        assert len(cli.make_probes(sc)) == sc.num_probes
        assert clean[0].draws == ["normal", "uniform"] * sc.num_probes

    def test_one_norm_call_for_probes_and_law_inputs(self, monkeypatch):
        # make_probes normalizes its rows in one stacked call.  Every other
        # norm of a probe is the stabilizer's: no norm call of a stage, the
        # bound's trace rows included, holds a row of P.
        sc = cli.parse_scenario(small_config(algebra={"kind": "matrix", "dim": 2},
                                             involution={"kind": "adjoint"}))
        probes = {row.tobytes() for row in cli.make_probes(sc)}
        calls = tag_calls(monkeypatch, {**INNER, **STAGES})
        cli.run_pipeline(sc)
        assert [len(stack) for tag, stack in calls if tag == "probes"] == [sc.num_probes]
        staged = [stack for tag, stack in calls if tag not in ("inner", "probes")]
        assert not [row for stack in staged for row in stack if row.tobytes() in probes]
        assert len(staged) == 4


class TestTraceCsv:
    def test_lines_of_csv_writer(self):
        # The lines joined by hand are those csv.writer wrote, for an inf
        # ratio, -0.0, a subnormal and 1e300 in every float column.
        values = [-0.0, 5e-324, 1e300, 0.1, 2.5e-310, 1.0]
        rows = [{"probe_id": k // 3, "radius": values[k // 3], "n": k % 3,
                 "diff_norm": values[k % 6], "error_vs_limit": values[(k + 1) % 6],
                 "bound": values[(k // 3 + 2) % 6],
                 "ratio": [math.inf, -0.0, 5e-324, 1e300][k % 4]} for k in range(12)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(verifier.TRACE_COLUMNS)
        for row in rows:
            writer.writerow([
                row["probe_id"], repr(row["radius"]), row["n"], repr(row["diff_norm"]),
                repr(row["error_vs_limit"]), repr(row["bound"]),
                "inf" if math.isinf(row["ratio"]) else repr(row["ratio"]),
            ])
        columns = {name: [row[name] for row in rows] for name in verifier.TRACE_COLUMNS}
        assert cli._trace_csv(columns) == buf.getvalue()
        empty = {name: [] for name in verifier.TRACE_COLUMNS}
        assert cli._trace_csv(empty) == ",".join(verifier.TRACE_COLUMNS) + "\n"


class TestExitCodes:
    @pytest.mark.parametrize("scenario", ["product_superstability", "adjoint_rsum_r05",
                                          "twisted_cstar"])
    def test_probe_norm_squared_underflows(self, tmp_path, monkeypatch, capsys, scenario):
        # At radius 1e-200 the C* stage's ||x||^2 underflows to 0.
        monkeypatch.chdir(tmp_path)
        cfg = json.loads(bundled_scenario_path(scenario).read_text())
        cfg["sampling"].update(radius_min=1e-200, radius_max=1e-200)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 5
        err = capsys.readouterr().err
        assert "OutOfRange" in err and "verify_cstar" in err
        assert not (tmp_path / "scenario_out").exists()

    def test_missing_config(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe{", None], ids=["invalid-utf8", "directory"])
    def test_unreadable_config(self, tmp_path, content):
        p = tmp_path / "x.json"
        if content is None:
            p.mkdir()
        else:
            p.write_bytes(content)
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
        # JSON's true would pass as 1 and 1.0, and these strings as 10 and 0.1.
        ("stabilizer", "max_n", True),
        ("control", "theta", True),
        ("sampling", "num_probes", " 1_0 "),
        ("control", "theta", "1e-1"),
    ])
    def test_non_numeric_value_names_key(self, tmp_path, capsys, section, key, value):
        cfg = small_config()
        cfg.setdefault(section, {})[key] = value
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["involution.s", "sampling.extra_probes[0]"])
    @pytest.mark.parametrize("part", [True, 10 ** 400, -10 ** 400, "1"],
                             ids=["true", "10**400", "-10**400", "string"])
    def test_element_entry_is_a_config_number(self, tmp_path, capsys, key, part):
        # JSON's true passed as 1, a string that float() parses as its
        # value, and an integer too large for a float ended in an
        # OverflowError traceback.
        entries = [[part, 0], [0, 0], [0, 0], [2, 0]]
        cfg = small_config(algebra={"kind": "matrix", "dim": 2},
                           involution={"kind": "twisted_adjoint",
                                       "s": [[1, 0], [0, 0], [0, 0], [2, 0]]})
        if key == "involution.s":
            cfg["involution"]["s"] = entries
        else:
            cfg["sampling"]["extra_probes"] = [entries]
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be a number, got {part!r}\n"

    @pytest.mark.parametrize("section, value, message", [
        # Read as a typo of max_n, this ran at the default max_n of 48.
        ("stabilizer", {"maxn": 5}, "unknown key stabilizer.maxn"),
        ("perturbation2", {"kind": "none", "theta": 0.1}, "unknown key perturbation2.theta"),
        ("sampling", {"num_probes": 6, "seed": 3, "radius": 2, "extra": []},
         "unknown key sampling.extra"),
        ("stabiliser", {"max_n": 5}, "unknown section stabiliser"),
        # Each probe's depth comes from its tail; the C* stage has no depth,
        # and its tolerance is verifier.CSTAR_TOL: there is no cstar section.
        ("cstar", {"max_n": 5}, "unknown section cstar"),
        ("cstar", {"tol": 1e-8}, "unknown section cstar"),
    ])
    def test_unknown_key_names_key(self, tmp_path, capsys, section, value, message):
        cfg = small_config(**{section: value})
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_empty_perturbation_names_kind(self, tmp_path, capsys):
        # An empty section was read as no perturbation at all, and the
        # first stage ended in an AttributeError traceback.
        cfg = small_config(perturbation={})
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == "config error: missing key perturbation.kind\n"

    @pytest.mark.parametrize("section, kinds", [
        ("algebra", "AlgebraKind"), ("perturbation", "PerturbationKind"),
        ("perturbation2", "PerturbationKind"), ("control", "ControlKind"),
    ])
    def test_unknown_kind_names_key(self, tmp_path, capsys, section, kinds):
        cfg = small_config()
        cfg.setdefault(section, {})["kind"] = "custom"
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == (
            f"config error: {section}.kind: 'custom' is not a valid {kinds}\n")

    @pytest.mark.parametrize("section, key, value", [
        ("control", "kind", "custom"),  # a kind no control has
        ("laws", "max_probes", 0), ("laws", "max_probes", -2),
        ("sampling", "seed", -1), ("lambda", "seed", -1),
        ("perturbation", "direction_seed", -1), ("perturbation", "direction_seed", 1.5),
        # Written as JSON NaN and Infinity, which Python's json reads back
        # (as it reads 1e999) as non-finite floats.
        ("control", "theta", math.nan), ("control", "theta", math.inf),
        ("control", "theta", -math.inf), ("perturbation", "theta_delta", math.nan),
        ("sampling", "radius_max", math.inf),
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

    @pytest.mark.parametrize("overrides, cause", [
        # ||x||^r overflows a float in the control, then in the perturbation,
        # whose amplitude the message names by its exponent.
        ({"control": {"kind": "power_sum", "theta": 0.3, "r": 1030}},
         "power_sum control overflows at r = 1030.0"),
        ({"perturbation": {"kind": "fixed_direction", "theta_delta": 0.1, "r": 1030}},
         "scan_hypotheses: f values (amplitude theta_delta * ||x||^r at perturbation.r = 1030.0)"),
        # L = 2^(1-r), and 2^(1-2r) for the product, underflows to 0.
        ({"control": {"kind": "power_sum", "theta": 0.3, "r": 1100}}, "L underflows to 0"),
        ({"control": {"kind": "power_product", "theta": 0.3, "r": 600}}, "L underflows to 0"),
        # ||x||^r is finite and theta * ||x||^r is not: e(x) is inf, which
        # sent the depth to MAX_DEPTH (a false ladder failure at depth 2048)
        # or the orbit past the 1e300 argument guard (at depth 1024).
        ({"perturbation": {"kind": "none"}, "control": {"kind": "power_sum", "theta": 1e10, "r": 3},
          "sampling": {"num_probes": 6, "seed": 3, "radius_min": 1e100, "radius_max": 1e100}},
         "power_sum control overflows at r = 3.0"),
        ({"perturbation": {"kind": "none"},
          "control": {"kind": "power_sum", "theta": 1e300, "r": 0.5},
          "sampling": {"num_probes": 6, "seed": 3, "radius_min": 1e20, "radius_max": 1e20}},
         "power_sum control overflows at r = 0.5"),
    ], ids=["control-overflow", "perturbation-overflow", "sum-L-underflow",
            "product-L-underflow", "control-product-overflow-3",
            "control-product-overflow-0.5"])
    def test_large_exponent(self, tmp_path, monkeypatch, capsys, overrides, cause):
        monkeypatch.chdir(tmp_path)
        cfg = small_config(**overrides)
        assert main(["run", str(write_config(tmp_path, cfg))]) == 5
        err = capsys.readouterr().err
        assert err.startswith("OutOfRange: ") and cause in err
        assert not (tmp_path / "scenario_out").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "r", "--values", "0.5"]],
                             ids=["run", "sweep"])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_out_names_a_file(self, tmp_path, monkeypatch, capsys, command, under):
        # Checked before the pipeline runs: no stage may be reached.
        def unreachable(sc):
            raise AssertionError("pipeline ran")

        monkeypatch.setattr(cli, "run_pipeline", unreachable)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        config = str(write_config(tmp_path, small_config()))
        assert main([command[0], config, *command[1:], "--out", str(afile / under)]) == 2
        assert "--out" in capsys.readouterr().err
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("command, blocked, name", [
        (["run", "product_superstability"], "report.json.tmp", "report.json"),
        (["run", "product_superstability"], "trace.csv", "trace.csv"),
        (["run", "product_superstability"], "manifest.json", "manifest.json"),
        (["sweep", "product_superstability", "--param", "r", "--values", "0.75"],
         "sweep.csv", "sweep.csv"),
        (["sweep", "product_superstability", "--param", "r", "--values", "0.75"],
         "sweep.csv.tmp", "sweep.csv"),
    ])
    def test_failed_write(self, tmp_path, capsys, command, blocked, name):
        # A directory where an output file or its temporary file goes: the
        # write fails, exit 2 names --out and the file, no temporary file
        # or other output file is left, and the directory is kept.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main([*command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out}: cannot write {name} (")
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp") and not p.is_dir()]
        assert (out / blocked).is_dir()
        # All or nothing: no file written before the failed one is left.
        assert [p.name for p in out.iterdir()] == [blocked]

    @pytest.mark.parametrize("s", [math.inf, [[1, 0]], "x"])
    def test_twist_given_to_another_kind(self, tmp_path, monkeypatch, capsys, s):
        # Only the twisted adjoint reads involution.s; another kind ignored
        # it, and manifest.json wrote it back unchecked.
        monkeypatch.chdir(tmp_path)
        cfg = small_config(involution={"kind": "conjugation", "s": s})
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == (
            "config error: involution.kind: conjugation takes no twist element\n")

    def test_iterate_overflow_of_every_probe(self, tmp_path, capsys):
        # A random direction at r = 1 under an r = 1/2 control does not
        # decay: at radius 1e150, far from the argument guard, a_1 - a_0
        # already breaks the tail bound.
        cfg = small_config(
            algebra={"kind": "pointwise", "dim": 2},
            perturbation={"kind": "random_direction", "theta_delta": 0.1, "r": 1.0,
                          "direction_seed": 3},
            sampling={"num_probes": 1, "seed": 3, "radius_min": 1e150, "radius_max": 1e150},
            stabilizer={"max_n": 600, "tol_rel": 1e-10},
        )
        assert main(["run", str(write_config(tmp_path, cfg))]) == 4
        assert "ladder difference ||a_n - a_m|| exceeds" in capsys.readouterr().err

    def test_nonfinite_iterate(self, tmp_path, capsys):
        # theta_delta = 1e9 at r = 1 does not decay under the r = 1/2
        # control: the ladder stops the map at a_1 - a_0, long before
        # theta_delta * ||q^n x|| could overflow.
        cfg = small_config(
            algebra={"kind": "pointwise", "dim": 2},
            perturbation={"kind": "random_direction", "theta_delta": 1e9, "r": 1.0,
                          "direction_seed": 3},
            stabilizer={"max_n": 1100, "tol_rel": 1e-10},
        )
        assert main(["run", str(write_config(tmp_path, cfg))]) == 4
        assert "ladder difference ||a_n - a_m|| exceeds" in capsys.readouterr().err

    def test_stabilization_failure(self, tmp_path):
        # r = 2 perturbation under an r = 1/2 control: the upward scaling
        # direction amplifies the defect until the iterates overflow
        cfg = small_config(
            perturbation={"kind": "fixed_direction", "theta_delta": 0.1, "r": 2.0},
            stabilizer={"max_n": 400, "tol_rel": 1e-10},
        )
        assert main(["run", str(write_config(tmp_path, cfg))]) == 4


class TestVerdictsOverRadius:
    """adjoint_rsum_r05 with every probe at one radius r. Its limit map is
    the exact adjoint, whose C* defect is 0, and both of its maps share it."""

    @staticmethod
    def results_at(r, scenario="adjoint_rsum_r05"):
        raw = cli.load_config(scenario)
        raw["sampling"].update(radius_min=r, radius_max=r)
        return cli.run_pipeline(cli.parse_scenario(raw))

    @pytest.mark.parametrize("r", [1e-1, 1e-4, 1e-8, 1e-20, 1e-50, 1e-100, 1e-150])
    def test_small_radii_pass(self, r):
        # The step-by-step orbit, stopped by a test absolute below norm 1,
        # refuted C* here with ratios 1.7e-8, 1.7e8 and 7.0e73.
        results = self.results_at(r)
        assert results["bound"].passed and results["uniqueness"].passed
        assert results["cstar"].passed and results["cstar"].max_ratio <= 1e-9

    def test_uniqueness_at_1e4(self):
        # The absolute 1e-7 in the depth rule keeps the tail within
        # UNIQUENESS_TOL; the step-by-step orbit was refuted with 2.88e-6.
        assert self.results_at(1e4)["uniqueness"].passed

    @pytest.mark.parametrize("r", [1e1, 1e2, 1e3])
    def test_uniqueness_below_1e4(self, r):
        assert self.results_at(r)["uniqueness"].passed

    def test_uniqueness_refuted_at_rounding_level_at_1e10(self):
        uniq = self.results_at(1e10)["uniqueness"]
        assert not uniq.passed and uniq.max_diff <= 1e10 * 1e-14

    @pytest.mark.parametrize("r, error, message", [
        (1e150, IterateOverflow, "iterate argument exceeded 1e300 at depth 1, row {row}"),
        (1e154, IterateOverflow, "iterate argument exceeded 1e300 at depth 0, row {row}"),
        *((r, OutOfRange, "scan_hypotheses: stage arithmetic overflowed to non-finite entries")
          for r in (1e155, 1e200, 1e300, 1.3e308, 1.7e308)),
    ])
    @pytest.mark.parametrize("scenario, row", [("adjoint_rsum_r05", 187), ("twisted_cstar", 187),
                                               ("product_superstability", 315)])
    def test_large_radii_fail(self, scenario, row, r, error, message):
        # The whole message: the row is the failing point's place in the
        # laws' first-seen batch order.  The product control's norms are
        # taken too, after each row's own argument guard.
        with pytest.raises(error) as caught:
            self.results_at(r, scenario)
        assert str(caught.value) == message.format(row=row)

    def test_failing_first_batch_caches_nothing(self, monkeypatch):
        # At radius 1e150 the laws' xy rows leave the float range at depth
        # 1, so the first-level batch of P and the laws' points fails.  It
        # leaves I empty: the scan stabilizes P alone, and the laws meet the
        # failure in their own batch, at its row 187.
        seen, limits = [], verifier.StabilizedMap.limits

        def watching(I, X):
            try:
                return limits(I, X)
            finally:
                seen.append((len(X), len(I._index), len(I._trace.depths)))

        monkeypatch.setattr(verifier.StabilizedMap, "limits", watching)
        with pytest.raises(IterateOverflow, match="at depth 1, row 187$"):
            self.results_at(1e150)
        assert seen[0] == (40 + 277, 0, 0)
        assert seen[1][:2] == (40, 40)


class TestDepthKeys:
    """stabilizer.max_n and stabilizer.tol_rel are accepted and range-checked,
    but every probe's depth comes from its tail: no value changes a byte of
    report.json or trace.csv."""

    @staticmethod
    def outputs(tmp_path, cfg, name):
        out = tmp_path / name
        assert main(["run", str(write_config(tmp_path, cfg, f"{name}.json")),
                     "--out", str(out)]) == 0
        return (out / "report.json").read_bytes(), (out / "trace.csv").read_bytes()

    @pytest.mark.parametrize("section, key, value", [
        ("stabilizer", key, value)
        for key, values in (("max_n", (1, 400)), ("tol_rel", (1e-3, 1e-14)))
        for value in values])
    def test_value_has_no_effect(self, tmp_path, section, key, value):
        cfg = small_config()
        cfg.setdefault(section, {})[key] = value
        assert self.outputs(tmp_path, cfg, "set") == self.outputs(
            tmp_path, small_config(), "default")


class TestConfigReference:
    def test_readme_table_lists_the_schema(self):
        # README's config reference against cli.SCHEMA: the same
        # section.key pairs, and the same ones required.
        lines = (Path(__file__).parents[1] / "README.md").read_text().split(
            "### Config reference\n", 1)[1].splitlines()
        start = lines.index("|---|---|---|---|---|") + 1
        documented = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            sections, key, _, _, required = (c.strip() for c in line.strip("|").split("|"))
            for section in sections.replace("`", "").split(", "):
                documented[f"{section}.{key.strip('`')}"] = required == "yes"
        assert documented == {
            f"{section}.{key}": default is cli.REQUIRED
            for section, keys in cli.SCHEMA.items() for key, (_, default) in keys.items()}


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


# sha256 of report.json and trace.csv, by config, in one table. A change
# that claims to keep every output bit must leave it unchanged; it holds for
# the numpy and LAPACK the suite runs with. Of the bundled scenarios only
# adjoint_rsum_r05's perturbation2 draws hashed random directions;
# pointwise_random_direction does in both maps, with a direction seed and
# without. No bundled scenario takes the q = 1/2 (i = 1) direction, whose
# error_bound factor differs; adjoint_rsum_r15 does. The *_warm entries
# are the benchmark workloads' warm passes.
GOLDEN_DIGESTS = json.loads((Path(__file__).parent / "golden_digests.json").read_text())

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


# The benchmark's pointwise_hashed workload as its warm pass certifies it:
# hashed random directions at every ladder depth of the main map.
POINTWISE_HASHED_WARM = {
    "algebra": {"kind": "pointwise", "dim": 4},
    "involution": {"kind": "conjugation"},
    "perturbation": {"kind": "random_direction", "theta_delta": 0.1, "r": 0.5,
                     "direction_seed": 2471825185},
    "perturbation2": {"kind": "fixed_direction", "theta_delta": 0.1, "r": 0.5,
                      "direction_seed": 3566546985},
    "control": {"kind": "power_sum", "theta": 0.3, "r": 0.5},
    "stabilizer": {"max_n": 48, "tol_rel": 1e-10},
    "sampling": {"num_probes": 6, "radius_min": 0.1, "radius_max": 10.0, "seed": 25456244},
    "lambda": {"n0": 3, "arc": 4, "circle": 4, "reals": 3, "complex": 3, "seed": 2065615711},
    "laws": {"max_probes": 3},
}


# The benchmark's matrix_rsum workload as its warm pass certifies it: 2x2
# adjoint ladders with the closed-form norm, both perturbation kinds.
MATRIX_RSUM_WARM = {
    "algebra": {"kind": "matrix", "dim": 2},
    "involution": {"kind": "adjoint"},
    "perturbation": {"kind": "fixed_direction", "theta_delta": 0.1, "r": 0.5,
                     "direction_seed": 2471825185},
    "perturbation2": {"kind": "random_direction", "theta_delta": 0.1, "r": 0.5,
                      "direction_seed": 3566546985},
    "control": {"kind": "power_sum", "theta": 0.3, "r": 0.5},
    "stabilizer": {"max_n": 48, "tol_rel": 1e-10},
    "sampling": {"num_probes": 6, "radius_min": 0.1, "radius_max": 10.0, "seed": 25456244},
    "lambda": {"n0": 3, "arc": 2, "circle": 2, "reals": 2, "complex": 2, "seed": 2065615711},
    "laws": {"max_probes": 3},
}


# The benchmark's scalar_exact workload as its warm pass certifies it:
# product_superstability's control, where e(x) = 0 and I = f.
SCALAR_EXACT_WARM = {
    "algebra": {"kind": "scalar", "dim": 1},
    "involution": {"kind": "conjugation"},
    "perturbation": {"kind": "none"},
    "control": {"kind": "power_product", "theta": 0.1, "r": 0.25},
    "stabilizer": {"max_n": 48, "tol_rel": 1e-10},
    "sampling": {"num_probes": 60, "radius_min": 0.1, "radius_max": 10.0, "seed": 25456244},
    "lambda": {"n0": 3, "arc": 4, "circle": 4, "reals": 3, "complex": 3, "seed": 2065615711},
    "laws": {"max_probes": 20},
}


def adjoint_rsum_r15():
    cfg = json.loads(bundled_scenario_path("adjoint_rsum_r05").read_text())
    for section in ("control", "perturbation", "perturbation2"):
        cfg[section]["r"] = 1.5
    cfg["sampling"]["num_probes"] = 8
    cfg["laws"]["max_probes"] = 4
    return cfg


GOLDEN_CONFIGS = {
    "pointwise_random_direction": POINTWISE_RANDOM_DIRECTION,
    "pointwise_hashed_warm": POINTWISE_HASHED_WARM,
    "matrix_rsum_warm": MATRIX_RSUM_WARM,
    "scalar_exact_warm": SCALAR_EXACT_WARM,
    "adjoint_rsum_r15": adjoint_rsum_r15(),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("workload", ["matrix_rsum", "pointwise_hashed", "scalar_exact"])
    def test_warm_configs_are_the_benchmarks(self, workload):
        # Each *_warm golden digest is of the benchmark's own warm pass.
        # perfbench/workloads.py is imported from its file; sys.path is untouched.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        got = GOLDEN_CONFIGS[f"{workload}_warm"]
        assert got == workloads.make_config(workload, workloads.WARM_SEED, 0)

    @pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
    def test_outputs_unchanged(self, tmp_path, name):
        # A name that is not a config here is a bundled scenario.
        config = name
        if name in GOLDEN_CONFIGS:
            config = str(write_config(tmp_path, GOLDEN_CONFIGS[name]))
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in ("report.json", "trace.csv")}
        assert got == GOLDEN_DIGESTS[name]
        # Both JSON files are json.dumps' text of their data.
        for f in ("report.json", "manifest.json"):
            text = (out / f).read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


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

    def test_sweep_over_r_retunes_perturbation2(self, tmp_path, monkeypatch):
        # adjoint_rsum_r05's perturbation2 takes the swept r and theta as its
        # perturbation does: left at r = 0.5, it grows under q = 1/2 and the
        # r = 1.5 row would read NonCauchy.
        seen = []
        parse_scenario = cli.parse_scenario

        def recording(cfg):
            seen.append({key: cfg[key] for key in ("perturbation", "perturbation2")})
            return parse_scenario(cfg)

        monkeypatch.setattr(cli, "parse_scenario", recording)
        for param, retuned in (("r", {"r": 1.5}), ("theta", {"theta_delta": 0.5})):
            out = tmp_path / param
            assert main(["sweep", "adjoint_rsum_r05", "--param", param, "--values", "1.5",
                         "--out", str(out)]) == 0
            with open(out / "sweep.csv", newline="") as fh:
                (row,) = list(csv.DictReader(fh))
            assert row["status"] == "ok"
            for section in seen.pop().values():
                assert section.items() >= retuned.items()

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
         "61660bb6b3f642067445ca8ffff4496e33a36f5bdeb15ad0d6b90cf48aaaa7d5"),
        ("adjoint_rsum_r05", "num_probes", "3,4",
         "6b6b5dd6e92485f8c667245f41ca2794b0aed85fd8866b7fedc96d84a271aab0"),
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

    def test_sweep_top_level_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["sweep", str(cfg), "--param", "r", "--values", "0.5",
                     "--out", str(tmp_path / "sw")]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, param", [
        ("control", [1], "theta"), ("perturbation", "x", "r"), ("cstar", 5, "theta"),
    ])
    def test_sweep_non_object_section_is_config_error(self, tmp_path, section, value, param):
        # A section the parser does not read, cstar, is unknown before its value is read.
        message = ("unknown section cstar" if section == "cstar"
                   else f"section {section} must be an object")
        cfg = write_config(tmp_path, small_config(**{section: value}))
        out = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--param", param, "--values", "0.5",
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["status"] == f"ConfigError: {message}"

    def test_sweep_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, small_config(stabilizer={"maxn": 5}))
        out = tmp_path / "sw"
        assert main(["sweep", str(cfg), "--param", "r", "--values", "0.5,1.5",
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == [
            "ConfigError: unknown key stabilizer.maxn"] * 2

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
