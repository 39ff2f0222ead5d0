"""Config-driven experiment runner.

Commands:
  run <config.json> [--out DIR]      full pipeline, writes manifest.json,
                                     report.json, trace.csv
  sweep <config.json> --param P --values v1,v2,...
  demo-fixedpoint                    both branches of the alternative

Exit codes: 2 configuration error (including an --out that is a file or
lies under one, or an output file that cannot be written), 3 no
contractive direction, 4 stabilization failure, 5 any other package
error (e.g. a degenerate random direction), 0 otherwise (failed
certifications are data).
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
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, algebra, fixedpoint, maps, stabilizer, verifier
from .algebra import AlgebraKind, AlgebraSpec, Element
from .errors import (
    ConfigError, InvolStabError, KindSpecMismatch, NoContraction, OutOfRange,
    StabilizationFailure,
)
from .fixedpoint import Regime, corollary_constant
from .maps import ApproxMap, Involution, LambdaSampler, PerturbationKind, PerturbationSpec
from .stabilizer import ControlFunction, ControlKind


# ----------------------------- output files ------------------------------

def _atomic_write(path: Path, text: str) -> None:
    """Write through `path`.tmp; a failed write is a ConfigError."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ConfigError(f"--out {path.parent}: cannot write {path.name} ({exc})")


# ----------------------------- configuration -----------------------------

@dataclasses.dataclass
class Scenario:
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
        # JSON's true and false are Python ints, which conv would pass.
        if isinstance(value, bool):
            raise TypeError(value)
        number = conv(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    # float() passes JSON's NaN and Infinity; int() truncates 6.9 to 6.
    if conv is float and not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    if conv is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return number


def _kind(section: dict, where: str, kinds: type[Enum]) -> Enum:
    value = _get(section, "kind", where, required=True)
    try:
        return kinds(value)
    except ValueError as exc:
        raise ConfigError(f"{where}.kind: {exc}")


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


# The keys parse_scenario reads, by section.
_PERTURBATION_KEYS = {"kind", "theta_delta", "r", "direction_seed"}
_KEYS = {
    "algebra": {"kind", "dim"}, "involution": {"kind", "s"},
    "perturbation": _PERTURBATION_KEYS, "perturbation2": _PERTURBATION_KEYS,
    "control": {"kind", "theta", "r"}, "stabilizer": {"max_n", "tol_rel"},
    "sampling": {"num_probes", "radius_min", "radius_max", "seed", "extra_probes"},
    "lambda": {"n0", "arc", "circle", "reals", "complex", "seed"},
    "laws": {"max_probes"}, "cstar": {"max_n", "tol_rel", "tol"},
}


def parse_scenario(raw: dict) -> Scenario:
    for key, section in raw.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown section {key}")
        unknown = sorted(section.keys() - _KEYS[key]) if isinstance(section, dict) else []
        if unknown:
            raise ConfigError(f"unknown key {key}.{unknown[0]}")
    alg = _section(raw, "algebra")
    try:
        spec = AlgebraSpec(_kind(alg, "algebra", AlgebraKind),
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
            base = Involution(kind, inv.get("s"))
        # Raises KindSpecMismatch if the involution is not defined on spec.
        maps._involution_rows(base, spec, np.zeros((1, *spec.shape), dtype=np.complex128))
    except (ValueError, KindSpecMismatch) as exc:
        raise ConfigError(f"involution.kind: {exc}")

    def parse_pert(section_name: str, required: bool) -> PerturbationSpec | None:
        sec = _section(raw, section_name, required=required)
        if not sec:
            return None
        try:
            return PerturbationSpec(
                kind=_kind(sec, section_name, PerturbationKind),
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
            kind=_kind(ctl, "control", ControlKind),
            theta=_number(ctl, "theta", "control", float, default=0.0),
            r=_number(ctl, "r", "control", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"control: {exc}")

    # The depth keys of both sections are read and range-checked, and the
    # stabilizer's are reported, but none has an effect: each probe's depth
    # comes from its tail (stabilizer.DEPTH_TOL_REL, DEPTH_TOL_ABS).
    depth_keys = {}
    for name in ("stabilizer", "cstar"):
        section = _section(raw, name, required=False)
        max_n = _number(section, "max_n", name, int, default=48)
        tol_rel = _number(section, "tol_rel", name, float, default=1e-10)
        if max_n < 1:
            raise ConfigError(f"{name}.max_n must be >= 1")
        if tol_rel <= 0:
            raise ConfigError(f"{name}.tol_rel must be > 0")
        depth_keys[name] = max_n, tol_rel
    max_n, tol_rel = depth_keys["stabilizer"]

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

    cstar_tol = _number(_section(raw, "cstar", required=False), "tol", "cstar", float,
                        default=1e-8)
    if cstar_tol < 0:
        raise ConfigError("cstar.tol must be >= 0")

    f = ApproxMap(base=base, perturbation=pert, spec=spec)
    f2 = ApproxMap(base=base, perturbation=pert2, spec=spec) if pert2 else None
    return Scenario(
        spec=spec, f=f, f2=f2, phi=phi, max_n=max_n, tol_rel=tol_rel,
        num_probes=num_probes, radius_min=radius_min, radius_max=radius_max,
        seed=seed, extra_probes=extra, lambdas=lambdas,
        laws_max_probes=laws_max_probes, cstar_tol=cstar_tol,
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
        raw = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {p}: unreadable or invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    return raw


def bundled_scenario_path(name: str) -> Path | None:
    """Resolve a bundled scenario by bare name, e.g. 'adjoint_rsum_r05.json'."""
    if "/" in name or os.sep in name:
        return None
    if not name.endswith(".json"):
        name += ".json"
    ref = resources.files("involstab").joinpath("scenarios").joinpath(name)
    with resources.as_file(ref) as p:
        return p if p.exists() else None


def make_probes(sc: Scenario) -> np.ndarray:
    """The probe stack: the sampled probes, with the draws and bits of
    `algebra.sample_element`, normalized in one call; then the extra ones."""
    rng = np.random.Generator(np.random.PCG64(sc.seed))
    # Each probe draws its Gaussian parts, then its radius.
    parts, radii = np.empty((sc.num_probes, 2, *sc.spec.shape)), []
    for draw in parts:
        algebra.gaussian_parts(rng, draw)
        radii.append(math.exp(rng.uniform(math.log(sc.radius_min), math.log(sc.radius_max))))
    raw = parts[:, 0] + 1j * parts[:, 1]
    column = (-1,) + (1,) * len(sc.spec.shape)
    inverse = (1.0 / algebra.stacked_norms(sc.spec, raw)).astype(np.complex128)
    probes = np.array(radii, dtype=np.complex128).reshape(column) * (inverse.reshape(column) * raw)
    return np.concatenate([probes, *(x.data[None] for x in sc.extra_probes)])


# ------------------------------- pipeline --------------------------------

def run_pipeline(sc: Scenario) -> tuple[dict, dict[str, list]]:
    """Execute the full certification pipeline; returns (results, trace):
    each report key's stage result, and each trace.csv column's cells.
    Raises NoContraction / StabilizationFailure."""
    direction = stabilizer.select_direction(sc.phi)
    P = make_probes(sc)
    # Every stage reads the one stabilized map per map, so each probe is
    # stabilized once.
    I = verifier.StabilizedMap(sc.f, direction, sc.phi)

    hyp = verifier.scan_hypotheses(I, sc.phi, sc.lambdas, P)
    bound = verifier.verify_bound(I, P)
    laws = verifier.verify_involution_laws(I, sc.lambdas, P[: sc.laws_max_probes])
    uniq = None
    if sc.f2 is not None:
        uniq = verifier.verify_uniqueness(I, verifier.StabilizedMap(sc.f2, direction, sc.phi), P)
    cstar = verifier.verify_cstar(I, P, tol=sc.cstar_tol)

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

    # One row per probe and ladder depth but its last, n*: the difference
    # to the next depth, the distance to the limit a_{n*}, the deviation
    # from a_0 = f(x) and the probe's radius, the last three from one
    # stacked call.
    tr = I.traces(P)
    its, first, last = tr.iterates, tr.offsets[:-1], tr.offsets[1:] - 1
    probe = np.repeat(np.arange(len(P)), np.diff(tr.offsets) - 1)
    at = np.delete(np.arange(len(its)), last)
    errors, deviations, radii = np.split(algebra.stacked_norms(sc.spec, np.concatenate(
        [its[at] - its[last[probe]], its[at] - its[first[probe]], P])), [len(at), 2 * len(at)])
    bounds = np.asarray(bound.per_probe_bounds)[probe]
    columns = [probe, radii[probe], tr.depths[at], tr.gaps[at],
               errors, bounds, verifier._ratios(deviations, bounds)]
    return results, {name: c.tolist() for name, c in zip(TRACE_COLUMNS, columns)}


def _corollary_audit(phi: ControlFunction) -> dict | None:
    regime = Regime.PRODUCT
    if phi.kind is stabilizer.ControlKind.POWER_SUM:
        regime = Regime.SUM_R_LT_1 if phi.r < 1 else Regime.SUM_R_GT_1
    try:
        audit = corollary_constant(phi.r, regime)
    except (OutOfRange, OverflowError):
        return None
    return {"regime": regime.value, **dataclasses.asdict(audit)}


TRACE_COLUMNS = ["probe_id", "radius", "n", "diff_norm", "error_vs_limit", "bound", "ratio"]


def _trace_csv(trace: dict[str, list]) -> str:
    # Every cell is an int, a float repr or "inf", none of which CSV quotes.
    # A probe's radius and bound are rendered once, on its first row.
    lines = [",".join(TRACE_COLUMNS)]
    probe = None
    for probe_id, radius, n, diff, error, bound, ratio in zip(
            *(trace[name] for name in TRACE_COLUMNS)):
        if probe_id != probe:
            probe, radius_s, bound_s = probe_id, repr(radius), repr(bound)
        ratio_s = "inf" if math.isinf(ratio) else repr(ratio)
        lines.append(f"{probe},{radius_s},{n},{diff!r},{error!r},{bound_s},{ratio_s}")
    return "\n".join(lines) + "\n"


def _output_dir(out_dir: str | Path | None, config_path: str | Path, suffix: str) -> Path:
    """`--out`, or the config's stem plus `suffix` in the working directory.
    A path that is a file, or lies under one, is a ConfigError before any
    work is done; the directory itself is made by `_make_dir`."""
    out = Path(out_dir) if out_dir else Path(Path(str(config_path)).stem + suffix)
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"--out {out}: {p} exists and is not a directory")
            break
    return out


def _make_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot create the directory ({exc})")


def run_scenario(config_path: str | Path, out_dir: str | Path | None = None) -> Path:
    raw = load_config(config_path)
    sc = parse_scenario(raw)
    out = _output_dir(out_dir, config_path, "_out")
    results, trace = run_pipeline(sc)
    # Made only now, so a run that fails leaves no directory behind.
    _make_dir(out)

    _atomic_write(out / "report.json", verifier._render(results) + "\n")
    _atomic_write(out / "trace.csv", _trace_csv(trace))
    # parse_scenario has checked each number in raw finite: no "inf" rule.
    manifest = {
        "config": raw,
        "derived": results["direction"],
        "corollary_audit": results["corollary_audit"],
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": {"report": "report.json", "trace": "trace.csv"},
    }
    _atomic_write(out / "manifest.json", verifier._render(manifest) + "\n")
    return out


SWEEP_PARAMS = ("theta", "r", "dim", "num_probes")


def _override(cfg: dict, key: str, **values) -> None:
    """Set values in section key of cfg; a section that is not an object
    is the ConfigError `run` gives."""
    cfg[key] = {**_section(cfg, key, required=False), **values}


def sweep(config_path: str | Path, param: str, values: list[float],
          out_dir: str | Path | None = None) -> Path:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep.param must be one of {SWEEP_PARAMS}, got {param!r}")
    raw = load_config(config_path)
    out = _output_dir(out_dir, config_path, "_sweep")
    _make_dir(out)
    rows = []
    for k, value in enumerate(values):
        cfg = json.loads(json.dumps(raw))
        row = {"param": param, "value": value}
        try:
            if param in ("theta", "r"):
                _override(cfg, "control", **{param: value})
                # Budget rule: a third of the control amplitude keeps the
                # Jensen hypothesis satisfied.
                retune = {"theta_delta": value / 3.0} if param == "theta" else {"r": value}
                for key in ("perturbation", "perturbation2"):
                    if _section(cfg, key, required=False).get("kind", "none") != "none":
                        _override(cfg, key, **retune)
            elif param == "dim":
                _override(cfg, "algebra", dim=value)
            else:
                _override(cfg, "sampling", num_probes=value)
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
