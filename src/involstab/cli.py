"""Config-driven experiment runner.

Commands:
  run <config.json> [--out DIR]      full pipeline, writes manifest.json,
                                     report.json, trace.csv
  sweep <config.json> --param P --values v1,v2,...
  demo-fixedpoint                    both branches of the alternative

Exit codes: 2 configuration error, 3 no contractive direction,
4 stabilization failure, 5 any other package error (e.g. a degenerate
random direction), 0 otherwise (failed certifications are data).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, algebra, fixedpoint, maps, stabilizer, verifier
from .algebra import AlgebraSpec, Element
from .errors import (
    ConfigError, InvolStabError, KindSpecMismatch, NoContraction, OutOfRange,
    StabilizationFailure,
)
from .maps import ApproxMap, Involution, LambdaSampler, PerturbationSpec
from .stabilizer import ControlFunction


# ------------------------- serialization helpers -------------------------

# Fields a report leaves out: entry names are already the report's keys,
# and per-probe ratios are not part of the report.
_UNREPORTED = {"name", "law", "per_probe"}


def _json(value):
    """A stage result as JSON data: a dataclass becomes its fields in
    declaration order (`passed` written as `pass`), an Element a flat list of
    [re, im] pairs, and an infinite float the string "inf", which strict JSON
    needs in place of an infinity literal."""
    if isinstance(value, Element):
        return [_json(z) for z in value.flat()]
    if dataclasses.is_dataclass(value):
        return {("pass" if f.name == "passed" else f.name): _json(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.name not in _UNREPORTED}
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ----------------------------- configuration -----------------------------

@dataclasses.dataclass
class Scenario:
    raw: dict
    spec: AlgebraSpec
    f: ApproxMap
    f2: ApproxMap | None
    phi: ControlFunction
    max_n: int
    tol_rel: float
    num_probes: int
    radius_min: float
    radius_max: float
    seed: int
    extra_probes: list[Element]
    lambdas: LambdaSampler
    laws_max_probes: int
    cstar_max_n: int
    cstar_tol_rel: float
    cstar_tol: float


def _get(section: dict, key: str, where: str, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing key {where}.{key}")
        return default
    return section[key]


def _number(section: dict, key: str, where: str, conv, default=None, required=False):
    value = _get(section, key, where, default=default, required=required)
    try:
        number = conv(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    # float() passes JSON's NaN and Infinity; int() truncates 6.9 to 6.
    if conv is float and not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    if conv is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return number


def _seed(section: dict, key: str, where: str, default=None, required=False):
    value = _get(section, key, where, default=default, required=required)
    if type(value) is not int or value < 0:
        raise ConfigError(f"{where}.{key} must be a non-negative integer, got {value!r}")
    return value


def _section(raw: dict, key: str, required=True) -> dict:
    sec = raw.get(key)
    if sec is None:
        if required:
            raise ConfigError(f"missing section {key}")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section {key} must be an object")
    return sec


def _parse_element(spec: AlgebraSpec, entries, where: str) -> Element:
    try:
        flat = [complex(re, im) for re, im in entries]
        return algebra.element(spec, flat)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected {spec.n_entries} [re, im] pairs ({exc})")


def parse_scenario(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    alg = _section(raw, "algebra")
    try:
        spec = AlgebraSpec(_get(alg, "kind", "algebra", required=True),
                           _number(alg, "dim", "algebra", int, default=1))
    except ValueError as exc:
        raise ConfigError(f"algebra: {exc}")

    inv = _section(raw, "involution")
    kind = _get(inv, "kind", "involution", required=True)
    try:
        if kind == "twisted_adjoint":
            s = _parse_element(spec, _get(inv, "s", "involution", required=True),
                               "involution.s")
            base = maps.twisted_adjoint(s)
        else:
            base = Involution(kind)
        # Raises KindSpecMismatch if the involution is not defined on spec.
        maps.eval_involution(base, algebra.zero(spec))
    except (ValueError, KindSpecMismatch) as exc:
        raise ConfigError(f"involution.kind: {exc}")

    def parse_pert(section_name: str, required: bool) -> PerturbationSpec | None:
        sec = _section(raw, section_name, required=required)
        if not sec:
            return None
        try:
            return PerturbationSpec(
                kind=_get(sec, "kind", section_name, required=True),
                theta_delta=_number(sec, "theta_delta", section_name, float, default=0.0),
                r=_number(sec, "r", section_name, float, default=1.0),
                direction_seed=(None if sec.get("direction_seed") is None
                                else _seed(sec, "direction_seed", section_name)),
            )
        except ValueError as exc:
            raise ConfigError(f"{section_name}: {exc}")

    pert = parse_pert("perturbation", required=True)
    pert2 = parse_pert("perturbation2", required=False)

    ctl = _section(raw, "control")
    try:
        phi = ControlFunction(
            kind=_get(ctl, "kind", "control", required=True),
            theta=_number(ctl, "theta", "control", float, default=0.0),
            r=_number(ctl, "r", "control", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"control: {exc}")

    stab = _section(raw, "stabilizer", required=False)
    max_n = _number(stab, "max_n", "stabilizer", int, default=48)
    tol_rel = _number(stab, "tol_rel", "stabilizer", float, default=1e-10)
    if max_n < 1:
        raise ConfigError("stabilizer.max_n must be >= 1")
    if tol_rel <= 0:
        raise ConfigError("stabilizer.tol_rel must be > 0")

    samp = _section(raw, "sampling")
    num_probes = _number(samp, "num_probes", "sampling", int, required=True)
    radius_min = _number(samp, "radius_min", "sampling", float, default=0.1)
    radius_max = _number(samp, "radius_max", "sampling", float, default=10.0)
    seed = _seed(samp, "seed", "sampling", required=True)
    if num_probes < 1:
        raise ConfigError("sampling.num_probes must be >= 1")
    if not (0 < radius_min <= radius_max):
        raise ConfigError("sampling.radius_min/radius_max must satisfy 0 < min <= max")
    extra = _get(samp, "extra_probes", "sampling", default=[])
    if not isinstance(extra, list):
        raise ConfigError(f"sampling.extra_probes must be a list, got {extra!r}")
    extra = [
        _parse_element(spec, entries, f"sampling.extra_probes[{k}]")
        for k, entries in enumerate(extra)
    ]

    lam = _section(raw, "lambda", required=False)
    try:
        lambdas = LambdaSampler(
            n0=_number(lam, "n0", "lambda", int, default=3),
            arc=_number(lam, "arc", "lambda", int, default=4),
            circle=_number(lam, "circle", "lambda", int, default=4),
            reals=_number(lam, "reals", "lambda", int, default=3),
            cplx=_number(lam, "complex", "lambda", int, default=3),
            seed=_seed(lam, "seed", "lambda", default=0),
        )
    except ValueError as exc:
        raise ConfigError(f"lambda: {exc}")

    laws = _section(raw, "laws", required=False)
    laws_max_probes = _number(laws, "max_probes", "laws", int, default=16)
    if laws_max_probes < 1:
        raise ConfigError("laws.max_probes must be >= 1")

    cstar_sec = _section(raw, "cstar", required=False)
    cstar_max_n = _number(cstar_sec, "max_n", "cstar", int, default=96)
    cstar_tol_rel = _number(cstar_sec, "tol_rel", "cstar", float, default=1e-12)
    cstar_tol = _number(cstar_sec, "tol", "cstar", float, default=1e-8)
    if cstar_tol_rel <= 0:
        raise ConfigError("cstar.tol_rel must be > 0")

    f = ApproxMap(base=base, perturbation=pert, spec=spec)
    f2 = ApproxMap(base=base, perturbation=pert2, spec=spec) if pert2 else None
    return Scenario(
        raw=raw, spec=spec, f=f, f2=f2, phi=phi, max_n=max_n, tol_rel=tol_rel,
        num_probes=num_probes, radius_min=radius_min, radius_max=radius_max,
        seed=seed, extra_probes=extra, lambdas=lambdas,
        laws_max_probes=laws_max_probes, cstar_max_n=cstar_max_n,
        cstar_tol_rel=cstar_tol_rel, cstar_tol=cstar_tol,
    )


def load_config(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        bundled = bundled_scenario_path(str(path))
        if bundled is not None:
            p = bundled
        else:
            raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p}: invalid JSON ({exc})")


def bundled_scenario_path(name: str) -> Path | None:
    """Resolve a bundled scenario by bare name, e.g. 'adjoint_rsum_r05.json'."""
    if "/" in name or os.sep in name:
        return None
    if not name.endswith(".json"):
        name += ".json"
    ref = resources.files("involstab").joinpath("scenarios").joinpath(name)
    with resources.as_file(ref) as p:
        return p if p.exists() else None


def make_probes(sc: Scenario) -> list[Element]:
    rng = np.random.Generator(np.random.PCG64(sc.seed))
    probes = [
        algebra.sample_element(sc.spec, (sc.radius_min, sc.radius_max), rng)
        for _ in range(sc.num_probes)
    ]
    return probes + sc.extra_probes


# ------------------------------- pipeline --------------------------------

def run_pipeline(sc: Scenario) -> tuple[dict, list[dict]]:
    """Execute the full certification pipeline; returns (results, traces),
    where results maps each report key to its stage result.  Raises
    NoContraction / StabilizationFailure."""
    direction = stabilizer.select_direction(sc.phi)
    probes = make_probes(sc)
    # Every stage reads the one stabilized map per (map, depth), so each
    # probe is stabilized once per depth.
    I = verifier.StabilizedMap(sc.f, direction, sc.max_n, sc.tol_rel)

    hyp = verifier.scan_hypotheses(I, sc.phi, sc.lambdas, probes)
    bound = verifier.verify_bound(I, sc.phi, probes)
    laws = verifier.verify_involution_laws(I, sc.lambdas, probes[: sc.laws_max_probes])
    uniq = None
    if sc.f2 is not None:
        I2 = verifier.StabilizedMap(sc.f2, direction, sc.max_n, sc.tol_rel)
        uniq = verifier.verify_uniqueness(I, I2, probes)
    # The C*-check certifies the limit map; the scaling tail at the bound
    # depth is above the 1e-8 certification tolerance at small radii, so
    # stabilize deeper here.
    cstar_depth = (max(sc.max_n, sc.cstar_max_n), min(sc.tol_rel, sc.cstar_tol_rel))
    I_cstar = I
    if cstar_depth != (sc.max_n, sc.tol_rel):
        I_cstar = verifier.StabilizedMap(sc.f, direction, *cstar_depth)
    cstar = verifier.verify_cstar(I_cstar, probes, tol=sc.cstar_tol)

    results = {
        "direction": direction,
        "hypotheses": hyp.entries,
        "bound": bound,
        "laws": laws,
        "uniqueness": uniq,
        "cstar": cstar,
        "corollary_audit": _corollary_audit(sc.phi),
        "tolerances": {"max_n": sc.max_n, "tol_rel": sc.tol_rel},
    }

    trace_rows = []
    for probe_id, x in enumerate(probes):
        tr = I.trace(x)
        radius = algebra.norm(x)
        bnd = stabilizer.error_bound(direction, sc.phi, x)
        # Row n pairs a_n with diffs[n] = ||a_{n+1} - a_n||, so the last
        # iterate gets no row. Each norm column is one stacked call; the
        # deviation is from a_0 = f(x).
        iterates = tr.iterates[:-1]
        errors = algebra.stacked_norms(sc.spec, iterates - tr.result.data)
        deviations = algebra.stacked_norms(sc.spec, iterates - tr.iterates[0])
        for n, diff in enumerate(tr.diffs):
            trace_rows.append({
                "probe_id": probe_id,
                "radius": radius,
                "n": n,
                "diff_norm": diff,
                "error_vs_limit": errors[n],
                "bound": bnd,
                "ratio": verifier._ratio(deviations[n], bnd),
            })
    return results, trace_rows


def _corollary_audit(phi: ControlFunction) -> dict | None:
    from .stabilizer import Regime, corollary_constant

    if phi.kind is stabilizer.ControlKind.POWER_SUM:
        regime = Regime.SUM_R_LT_1 if phi.r < 1 else Regime.SUM_R_GT_1
    elif phi.kind is stabilizer.ControlKind.POWER_PRODUCT:
        regime = Regime.PRODUCT
    else:
        return None
    try:
        audit = corollary_constant(phi.r, regime)
    except (OutOfRange, OverflowError):
        return None
    return {"regime": regime.value, **dataclasses.asdict(audit)}


TRACE_COLUMNS = ["probe_id", "radius", "n", "diff_norm", "error_vs_limit", "bound", "ratio"]


def _trace_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for row in rows:
        writer.writerow([
            row["probe_id"], repr(row["radius"]), row["n"], repr(row["diff_norm"]),
            repr(row["error_vs_limit"]), repr(row["bound"]),
            "inf" if math.isinf(row["ratio"]) else repr(row["ratio"]),
        ])
    return buf.getvalue()


def run_scenario(config_path: str | Path, out_dir: str | Path | None = None) -> Path:
    raw = load_config(config_path)
    sc = parse_scenario(raw)
    results, trace_rows = run_pipeline(sc)
    report = _json(results)

    out = Path(out_dir) if out_dir else Path(Path(str(config_path)).stem + "_out")
    out.mkdir(parents=True, exist_ok=True)

    report_text = json.dumps(report, indent=2)
    _atomic_write(out / "report.json", report_text + "\n")
    _atomic_write(out / "trace.csv", _trace_csv(trace_rows))
    manifest = {
        "config": raw,
        "derived": report["direction"],
        "corollary_audit": report["corollary_audit"],
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": {"report": "report.json", "trace": "trace.csv"},
    }
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return out


SWEEP_PARAMS = ("theta", "r", "dim", "num_probes")


def sweep(config_path: str | Path, param: str, values: list[float],
          out_dir: str | Path | None = None) -> Path:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep.param must be one of {SWEEP_PARAMS}, got {param!r}")
    raw = load_config(config_path)
    out = Path(out_dir) if out_dir else Path(Path(str(config_path)).stem + "_sweep")
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for k, value in enumerate(values):
        cfg = json.loads(json.dumps(raw))
        if param == "theta":
            cfg.setdefault("control", {})["theta"] = value
            if cfg.get("perturbation", {}).get("kind", "none") != "none":
                # Budget rule: a third of the control amplitude keeps the
                # Jensen hypothesis satisfied.
                cfg["perturbation"]["theta_delta"] = value / 3.0
        elif param == "r":
            cfg.setdefault("control", {})["r"] = value
            if cfg.get("perturbation", {}).get("kind", "none") != "none":
                cfg["perturbation"]["r"] = value
        elif param == "dim":
            cfg.setdefault("algebra", {})["dim"] = value
        else:
            cfg.setdefault("sampling", {})["num_probes"] = value
        row = {"param": param, "value": value}
        try:
            sc = parse_scenario(cfg)
            results, _ = run_pipeline(sc)
            laws = results["laws"]
            row.update({
                "L": results["direction"].L,
                "max_bound_ratio": results["bound"].max_ratio,
                "max_law_defect": max(entry.max_defect for entry in (
                    laws.additivity, laws.antimultiplicativity, laws.involutivity,
                    *laws.conj_homogeneity.values())),
                "bound_pass": results["bound"].passed,
                "cstar_pass": results["cstar"].passed,
                "status": "ok",
            })
        except InvolStabError as exc:
            row.update({
                "L": "", "max_bound_ratio": "", "max_law_defect": "",
                "bound_pass": "", "cstar_pass": "",
                "status": f"{type(exc).__name__}: {exc}",
            })
        rows.append(row)

    buf = io.StringIO()
    cols = ["param", "value", "L", "max_bound_ratio", "max_law_defect",
            "bound_pass", "cstar_pass", "status"]
    writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _atomic_write(out / "sweep.csv", buf.getvalue())
    return out


# --------------------------- fixed-point demo -----------------------------

def demo_fixedpoint(stream=None) -> dict:
    """Run both branches of the alternative and the a-posteriori equality
    check on the affine contraction."""
    stream = stream or sys.stdout
    reals = fixedpoint.GeneralizedMetricSpace("reals", lambda a, b: abs(a - b))
    affine = fixedpoint.iterate_alternative(
        lambda t: 0.5 * t + 1.0, 0.0, 0.5, reals, max_iter=64, tol=1e-15
    )
    bound_ratio = abs(affine.fixed_point - 0.0) / affine.aposteriori_bound

    discrete = fixedpoint.GeneralizedMetricSpace(
        "integers with the discrete infinite metric",
        lambda a, b: 0.0 if a == b else fixedpoint.INF,
    )
    all_inf = fixedpoint.iterate_alternative(
        lambda n: n + 1, 0, 0.5, discrete, max_iter=16, tol=1e-15
    )
    ident = fixedpoint.iterate_alternative(
        lambda t: t, 1.25, 0.5, reals, max_iter=16, tol=1e-15
    )

    print(f"affine contraction: branch={affine.branch.value} "
          f"fixed_point={affine.fixed_point!r} n0={affine.n0} "
          f"aposteriori_bound={affine.aposteriori_bound!r} "
          f"bound_ratio={bound_ratio!r}", file=stream)
    print(f"discrete infinite metric: branch={all_inf.branch.value}", file=stream)
    print(f"identity map: branch={ident.branch.value} n0={ident.n0} "
          f"fixed_point={ident.fixed_point!r}", file=stream)
    return {
        "affine": affine,
        "affine_bound_ratio": bound_ratio,
        "all_infinite": all_inf,
        "identity": ident,
    }


# --------------------------------- main -----------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="involstab",
        description="Construct and certify involutions from approximately "
                    "involutive maps on Banach algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("config", help="scenario JSON (path or bundled name)")
    p_run.add_argument("--out", default=None, help="output directory")

    p_sweep = sub.add_parser("sweep", help="run a scenario over a parameter axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 0.25,0.5,0.75")
    p_sweep.add_argument("--out", default=None)

    sub.add_parser("demo-fixedpoint", help="both branches of the alternative")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            out = run_scenario(args.config, args.out)
            print(f"wrote {out / 'report.json'}")
        elif args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"--values: {exc}")
            if not values:
                raise ConfigError("--values: at least one value required")
            out = sweep(args.config, args.param, values, args.out)
            print(f"wrote {out / 'sweep.csv'}")
        else:
            demo_fixedpoint()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoContraction as exc:
        print(f"no contraction: {exc}", file=sys.stderr)
        return 3
    except StabilizationFailure as exc:
        print(f"stabilization failure: {exc}", file=sys.stderr)
        return 4
    except InvolStabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
