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
import contextlib
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

def _write_files(out: Path, files: dict[str, str]) -> None:
    """Write each file of `files` ({name: text}) as UTF-8 through NAME.tmp,
    every temporary file before the first replace. A failed write is a
    ConfigError naming the file, and leaves none of the call's files."""
    written: list[str] = []  # each temporary file begun, then each file replaced
    try:
        for name, text in files.items():
            written.append(os.path.join(out, f"{name}.tmp"))
            fd = os.open(written[-1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                data = memoryview(text.encode())
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
        for name in files:
            os.replace(os.path.join(out, f"{name}.tmp"), os.path.join(out, name))
            written.append(os.path.join(out, name))
    except OSError as exc:
        for path in written:
            # A path that is gone (a replaced temporary file) or a
            # directory in the way is not this call's file.
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise ConfigError(f"--out {out}: cannot write {name} ({exc})")


# ----------------------------- configuration -----------------------------

@dataclasses.dataclass
class Scenario:
    spec: AlgebraSpec
    f: ApproxMap
    f2: ApproxMap | None
    phi: ControlFunction
    num_probes: int
    radius_min: float
    radius_max: float
    seed: int
    extra_probes: list[Element]
    lambdas: LambdaSampler
    laws_max_probes: int


# A reader takes a key's value and its dotted name, "section.key", and
# returns the value parsed or raises a ConfigError naming the key.

def _number(conv):
    def read(value, name):
        try:
            # JSON's true and false are Python ints, and strings such as
            # " 1_0 " or "1e-1" parse, which conv would pass.
            if isinstance(value, (bool, str)):
                raise TypeError(value)
            number = conv(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        # float() passes JSON's NaN and Infinity; int() truncates 6.9 to 6.
        if conv is float and not math.isfinite(number):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if conv is int and isinstance(value, float) and number != value:
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return number
    return read


_int, _real = _number(int), _number(float)


def _at_least(read_number, low, strict=False):
    def read(value, name):
        number = read_number(value, name)
        if number < low or strict and number == low:
            raise ConfigError(f"{name} must be {'>' if strict else '>='} {low}")
        return number
    return read


def _seed(value, name):
    if type(value) is not int or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _seed_or_null(value, name):
    return None if value is None else _seed(value, name)


def _kind(kinds: type[Enum]):
    def read(value, name):
        try:
            return kinds(value)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}")
    return read


def _list(value, name):
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _as_is(value, name):
    return value


REQUIRED = object()

# The config schema: section -> key -> (reader, default). A key that is
# absent takes its default, and one whose default is REQUIRED is an error;
# a default of None leaves the key out, so that the section's dataclass
# declares it (or, for the stabilizer, that nothing reads it).
_PERTURBATION = {
    "kind": (_kind(PerturbationKind), REQUIRED), "theta_delta": (_real, None),
    "r": (_real, None), "direction_seed": (_seed_or_null, None),
}
SCHEMA = {
    "algebra": {"kind": (_kind(AlgebraKind), REQUIRED), "dim": (_int, None)},
    "involution": {"kind": (_kind(maps.InvolutionKind), REQUIRED), "s": (_as_is, None)},
    "perturbation": _PERTURBATION,
    "perturbation2": _PERTURBATION,
    "control": {"kind": (_kind(ControlKind), REQUIRED), "theta": (_real, None),
                "r": (_real, None)},
    # Checked, then dropped: each probe's depth comes from its tail
    # (stabilizer.DEPTH_TOL_REL, DEPTH_TOL_ABS).
    "stabilizer": {"max_n": (_at_least(_int, 1), None),
                   "tol_rel": (_at_least(_real, 0, strict=True), None)},
    "sampling": {
        "num_probes": (_at_least(_int, 1), REQUIRED), "radius_min": (_real, 0.1),
        "radius_max": (_real, 10.0), "seed": (_seed, REQUIRED), "extra_probes": (_list, []),
    },
    "lambda": {"n0": (_int, None), "arc": (_int, None), "circle": (_int, None),
               "reals": (_int, None), "complex": (_int, None), "seed": (_seed, None)},
    "laws": {"max_probes": (_at_least(_int, 1), 16)},
}


def _section(raw: dict, key: str, required=True) -> dict:
    sec = raw.get(key)
    if sec is None:
        if required:
            raise ConfigError(f"missing section {key}")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section {key} must be an object")
    return sec


def _read(raw: dict, name: str, required=True) -> dict:
    """Section `name` of raw, each key read by its SCHEMA reader."""
    section, values = _section(raw, name, required), {}
    for key, (read, default) in SCHEMA[name].items():
        if key in section:
            values[key] = read(section[key], f"{name}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"missing key {name}.{key}")
        elif default is not None:
            values[key] = default
    return values


def _parse_element(spec: AlgebraSpec, entries, where: str) -> Element:
    try:
        flat = [complex(_real(re, where), _real(im, where)) for re, im in entries]
        return algebra.element(spec, flat)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected {spec.n_entries} [re, im] pairs ({exc})")


def _build(name: str, cls, values: dict):
    """cls(**values); its ValueError is a ConfigError naming the section."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}")


def parse_scenario(raw: dict) -> Scenario:
    for name, section in raw.items():
        if name not in SCHEMA:
            raise ConfigError(f"unknown section {name}")
        unknown = sorted(section.keys() - SCHEMA[name].keys()) if isinstance(section, dict) else []
        if unknown:
            raise ConfigError(f"unknown key {name}.{unknown[0]}")
    spec = _build("algebra", AlgebraSpec, _read(raw, "algebra"))

    inv = _read(raw, "involution")
    try:
        if inv["kind"] is maps.InvolutionKind.TWISTED_ADJOINT:
            if "s" not in inv:
                raise ConfigError("missing key involution.s")
            base = maps.twisted_adjoint(_parse_element(spec, inv["s"], "involution.s"))
        else:
            base = Involution(inv["kind"], inv.get("s"))
        # Raises KindSpecMismatch if the involution is not defined on spec.
        maps._involution_rows(base, spec, np.zeros((1, *spec.shape), dtype=np.complex128))
    except (ValueError, KindSpecMismatch) as exc:
        raise ConfigError(f"involution.kind: {exc}")

    pert = _build("perturbation", PerturbationSpec, _read(raw, "perturbation"))
    pert2 = None
    if _section(raw, "perturbation2", required=False):
        pert2 = _build("perturbation2", PerturbationSpec, _read(raw, "perturbation2"))
    phi = _build("control", ControlFunction, _read(raw, "control"))
    _read(raw, "stabilizer", required=False)  # checked only: nothing reads its values

    samp = _read(raw, "sampling")
    if not (0 < samp["radius_min"] <= samp["radius_max"]):
        raise ConfigError("sampling.radius_min/radius_max must satisfy 0 < min <= max")
    extra = [_parse_element(spec, entries, f"sampling.extra_probes[{k}]")
             for k, entries in enumerate(samp["extra_probes"])]

    lam = _read(raw, "lambda", required=False)
    if "complex" in lam:
        lam["cplx"] = lam.pop("complex")
    lambdas = _build("lambda", LambdaSampler, lam)

    return Scenario(
        spec=spec, f=ApproxMap(base=base, perturbation=pert, spec=spec),
        f2=ApproxMap(base=base, perturbation=pert2, spec=spec) if pert2 else None,
        phi=phi, num_probes=samp["num_probes"], radius_min=samp["radius_min"],
        radius_max=samp["radius_max"], seed=samp["seed"], extra_probes=extra,
        lambdas=lambdas, laws_max_probes=_read(raw, "laws", required=False)["max_probes"],
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
    """The probe stack: `num_probes` rows of `algebra.sample_rows` from the
    seed, then the extra probes."""
    rng = np.random.Generator(np.random.PCG64(sc.seed))
    probes = algebra.sample_rows(sc.spec, sc.num_probes, rng, (sc.radius_min, sc.radius_max))
    return np.concatenate([probes, *(x.data[None] for x in sc.extra_probes)])


# ------------------------------- pipeline --------------------------------

def run_pipeline(sc: Scenario) -> dict:
    """Execute the full certification pipeline; returns each report key's
    stage result.  Raises NoContraction / StabilizationFailure."""
    direction = stabilizer.select_direction(sc.phi)
    P = make_probes(sc)
    # Every stage reads the one stabilized map per map, so each probe is
    # stabilized once.
    I = verifier.StabilizedMap(sc.f, direction, sc.phi)
    hyp = verifier.scan_hypotheses(I, sc.lambdas, P)
    bound = verifier.verify_bound(I, P)
    laws = verifier.verify_involution_laws(I, sc.lambdas, P[: sc.laws_max_probes])
    uniq = None
    if sc.f2 is not None:
        uniq = verifier.verify_uniqueness(I, verifier.StabilizedMap(sc.f2, direction, sc.phi), P)
    cstar = verifier.verify_cstar(I, P)

    return {
        "direction": direction,
        "hypotheses": hyp.entries,
        "bound": bound,
        "laws": laws,
        "uniqueness": uniq,
        "cstar": cstar,
        "corollary_audit": _corollary_audit(sc.phi),
    }


def _corollary_audit(phi: ControlFunction) -> dict | None:
    regime = Regime.PRODUCT
    if phi.kind is stabilizer.ControlKind.POWER_SUM:
        regime = Regime.SUM_R_LT_1 if phi.r < 1 else Regime.SUM_R_GT_1
    try:
        audit = corollary_constant(phi.r, regime)
    except (OutOfRange, OverflowError):
        return None
    return {"regime": regime.value, **dataclasses.asdict(audit)}


def _trace_csv(trace: dict[str, list]) -> str:
    # Every cell is an int or a float repr, "inf" included, which CSV never
    # quotes.  A probe's radius and bound, the same on each of its rows, are
    # rendered once.
    ids = trace["probe_id"]
    cells = {probe: (f"{probe},{radius!r}", repr(bound)) for probe, (radius, bound)
             in dict(zip(ids, zip(trace["radius"], trace["bound"]))).items()}
    lines = [f"{cells[probe][0]},{n},{diff!r},{error!r},{cells[probe][1]},{ratio!r}"
             for probe, n, diff, error, ratio in zip(
                 ids, trace["n"], trace["diff_norm"], trace["error_vs_limit"], trace["ratio"])]
    return "\n".join([",".join(verifier.TRACE_COLUMNS), *lines]) + "\n"


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
    results = run_pipeline(sc)
    # Made only now, so a run that fails leaves no directory behind.
    _make_dir(out)

    # parse_scenario has checked each number in raw finite: no "inf" rule.
    manifest = {
        "config": raw,
        "derived": results["direction"],
        "corollary_audit": results["corollary_audit"],
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": {"report": "report.json", "trace": "trace.csv"},
    }
    _write_files(out, {"report.json": verifier._render(results) + "\n",
                       "trace.csv": _trace_csv(results["bound"].trace),
                       "manifest.json": verifier._render(manifest) + "\n"})
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
            results = run_pipeline(sc)
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
    _write_files(out, {"sweep.csv": buf.getvalue()})
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
