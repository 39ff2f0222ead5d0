"""One benchmark process; started by run.py, which sets its environment.

    python3 perfbench/worker.py setup   WORKLOAD SEED OUT_DIR
    python3 perfbench/worker.py measure WORKLOAD SEED OUT_DIR SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED OUT_DIR SECONDS

Every mode imports involstab and runs one untimed warm pass on fixed
inputs, with the host's speed sampled throughout; the perf_counter reading
after that (CLOCK_MONOTONIC, comparable across processes) is `ready`.
`setup` stops there. `measure` then runs sampled passes for SECONDS.
`trace` alternates untraced and traced passes for SECONDS. Pass k of a run
certifies the config workloads.make_config(workload, seed, k). The last
stdout line is a JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostref
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
OUTPUTS = ("report.json", "trace.csv")


@dataclass
class PassResult:
    wall: float
    cpu: float
    nominal: float | None
    ref: float | None
    digests: dict | None


class Passes:
    """Certified passes of one workload, each on the config for its pass
    number (see workloads.py) and into a fresh directory under `out_dir`.
    A pass fails if it raises or misses a verdict."""

    def __init__(self, cli, workload: str, seed: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0

    def run(self, pass_no: int, sampled: bool = False) -> PassResult:
        """One pass on the config for `pass_no`; `sampled` samples the
        host's speed while it runs."""
        self.attempted += 1
        config = workloads.make_config(self.workload, self.seed, pass_no)
        config_path = self.out_dir / f"config{self.attempted}.json"
        config_path.write_text(json.dumps(config, indent=2))
        out = self.out_dir / f"pass{self.attempted}"
        timer = hostref.Sampler(active=sampled)
        c0 = time.process_time()
        try:
            with timer:
                self.cli.run_scenario(config_path, out)
            error = None
        except Exception:
            error = traceback.format_exc()
        cpu = time.process_time() - c0
        if error is None:
            report = json.loads((out / "report.json").read_text())
            problems = workloads.check_report(config, report)
            digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                       for name in OUTPUTS}
        else:
            problems, digests = [error], None
        if problems:
            self.failed += 1
            print(f"pass {pass_no} failed: {'; '.join(problems)}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        config_path.unlink()
        return PassResult(timer.wall_s, cpu, timer.nominal_s, timer.ref_s, digests)


def import_program():
    import involstab
    from involstab import cli

    where = Path(involstab.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise SystemExit(f"involstab imported from {where}, not from {ROOT / 'src'}")
    return involstab, cli


def measure(passes: Passes, seconds: float) -> dict:
    results = []
    t_start = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        results.append(passes.run(len(results) + 1, sampled=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    nominal = [r.nominal for r in results]
    walls = [r.wall for r in results]
    return {
        "pass_s": statistics.median(nominal),
        "peak_rss_mb": peak_rss_mb,
        "passes": len(results),
        "pass_p90_s": statistics.quantiles(nominal, n=10)[-1],
        "pass_wall_s": statistics.median(walls),
        "cpu_frac": sum(r.cpu for r in results) / sum(walls),
        "ref_s": statistics.median(r.ref for r in results),
    }


def trace(package, passes: Passes, out_dir: Path, seconds: float) -> dict:
    """Untraced and traced passes on the same config, alternating. Times
    are medians over the traced passes; counts are those of the first,
    so they depend on the seed only."""
    from tracer import Tracer

    tracer = Tracer(package)
    untraced, traced, per_pass = [], [], []
    t_start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        pass_no = len(traced) + 1
        untraced.append(passes.run(pass_no).wall)
        with tracer.installed():
            traced.append(passes.run(pass_no).wall)
        per_pass.append(tracer.pass_metrics())

    spans = tracer.spans()
    np.savez_compressed(out_dir / "spans.npz", names=np.array(tracer.names), **spans)
    metrics = {}
    for name, first in per_pass[0].items():
        timed = name.endswith("_s") or name.endswith("_us")
        metrics[name] = statistics.median(m[name] for m in per_pass) if timed else first
    traced_s = statistics.median(traced)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / statistics.median(untraced) - 1.0
    metrics["trace.unattributed_frac"] = 1.0 - metrics.pop("trace.root_s") / traced_s
    return {"metrics": metrics, "traced_passes": len(traced)}


def main(argv: list[str]) -> int:
    mode, workload, seed, out_dir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    seconds = float(argv[4]) if len(argv) > 4 else 0.0
    with hostref.Sampler() as setup_speed:
        package, cli = import_program()
        # The warm pass certifies the same inputs in every run, so set-up
        # work does not vary with the seed, and its outputs are the ones
        # digests.json records. It pays numpy's lazy imports and the first
        # call of every code path.
        warm = Passes(cli, workload, workloads.WARM_SEED, out_dir / "warm")
        digests = warm.run(0).digests
    result = {"ready": time.perf_counter(), "setup_sampled_s": setup_speed.sampled_s,
              "setup_ref_s": setup_speed.ref_s, "numpy": np.__version__}
    recorded = json.loads((Path(__file__).parent / "digests.json").read_text())
    result.update(digests=digests, digest_match=digests == recorded.get(workload))
    passes = Passes(cli, workload, seed, out_dir / "passes")
    if mode == "measure":
        result.update(measure(passes, seconds))
    elif mode == "trace":
        result.update(trace(package, passes, out_dir, seconds))
    result.update(attempted=warm.attempted + passes.attempted,
                  failed=warm.failed + passes.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
