"""`involstab run` over a grid of configs around the bundled scenarios, most
of which fail: every probe at one extreme radius, a control or perturbation
exponent of 1030, 3 probes, and extreme control amplitudes.  Each config's
exit code, last stderr line and, for exit 0, the sha256 of report.json and
trace.csv are pinned in one table, tests/failure_grid.json.  A change that
claims to keep every output and every failure rule leaves it unchanged;

    PYTHONPATH=src python tests/test_failure_grid.py

rewrites it from the code on PYTHONPATH, for a change that moves an output
on purpose.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from involstab import cli

TABLE = Path(__file__).parent / "failure_grid.json"
SCENARIOS = ("adjoint_rsum_r05", "twisted_cstar", "product_superstability")
RADII = (1e-300, 1e-150, 1e10, 1e20, 1e100, 1e150, 1e154, 1e155, 1e200, 1e300,
         1.3e308, 1.7e308)


def at_radius(r):
    return {"sampling": {"radius_min": r, "radius_max": r}}


def grid() -> dict[str, tuple[str, dict]]:
    """Config name -> (bundled scenario, {section: values set in it})."""
    configs = {}
    for name in SCENARIOS:
        raw = cli.load_config(name)
        for r in RADII:
            configs[f"{name}/radius={r!r}"] = name, at_radius(r)
        configs[f"{name}/control.r=1030"] = name, {"control": {"r": 1030.0}}
        configs[f"{name}/perturbation.r=1030"] = name, {
            key: {"r": 1030.0} for key in ("perturbation", "perturbation2")
            if raw.get(key, {"kind": "none"})["kind"] != "none"}
        configs[f"{name}/num_probes=3"] = name, {"sampling": {"num_probes": 3}}
        for theta in (1e10, 1e300):
            configs[f"{name}/theta={theta!r}"] = name, {"control": {"theta": theta}}
            for r in (1e20, 1e100):
                configs[f"{name}/theta={theta!r},radius={r!r}"] = name, {
                    "control": {"theta": theta}, **at_radius(r)}
    return configs


GRID = grid()


def outcome(tmp_path: Path, name: str) -> dict:
    """The exit code of `run` on the grid's config `name`, its last stderr
    line, and for exit 0 the digests of report.json and trace.csv."""
    scenario, changes = GRID[name]
    raw = cli.load_config(scenario)
    for section, values in changes.items():
        raw[section].update(values)
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(raw))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(config), "--out", str(out)])
    got = {"exit": code, "stderr": (stderr.getvalue().splitlines() or [""])[-1]}
    if code == 0:
        got.update({f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("report.json", "trace.csv")})
    return got


EXPECTED = json.loads(TABLE.read_text()) if TABLE.exists() else {}


def test_table_covers_the_grid():
    assert list(EXPECTED) == list(GRID)
    assert len(GRID) == 63


@pytest.mark.parametrize("name", list(GRID))
def test_outcome_unchanged(tmp_path, name):
    assert outcome(tmp_path, name) == EXPECTED[name]


if __name__ == "__main__":
    # The suite's warning filter: a warning is an error.
    warnings.simplefilter("error")
    table = {}
    for name in GRID:
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = outcome(Path(tmp), name)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    codes = [row["exit"] for row in table.values()]
    print(f"wrote {TABLE}: " + ", ".join(
        f"{codes.count(code)} exit {code}" for code in sorted(set(codes))), file=sys.stderr)
