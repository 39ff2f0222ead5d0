"""Benchmark for involstab's certified passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. A pass is one `cli.run_scenario` call into
a fresh output directory; its report is checked after the timed span.

--trace 0 reports the end-to-end metrics: `pass_s`, the median time of the
passes run for S seconds; `setup_s`, the median over SETUP_SAMPLES
processes of the time from process start to the first timed pass (imports
and one warm pass on fixed inputs); `peak_rss_mb`; and `ok_frac`, the share
of passes attempted that neither raised nor missed a verdict. Both times
are in nominal seconds: wall time corrected by the host's speed, sampled
while the work runs (hostref.py). The wall medians are diagnostics.

--trace 1 alternates untraced and traced passes for S seconds and reports
the per-module metrics of tracer.py, in wall seconds.

Diagnostics that gate nothing (wall times, host reference, CPU share, p90,
output digests, versions) are printed as JSON on the line before the result.

--smoke runs every workload for one second in both modes and checks that
each metric named in BENCHMARK.json is printed with its unit, that every
pass met its verdicts, that two traced runs at one seed repeat their
counts, and that the per-module self times add up to the traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
TIMEOUT_S = 170.0
BLAS_THREADS = "1"
# numpy would start one BLAS thread per core; 2x2 products use none. The
# workers inherit the cap, and this process imports numpy only after it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
WORKLOADS = ("matrix_rsum", "pointwise_hashed", "scalar_exact")
UNITS = {
    "pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("STABILIZER_THREADS", None)  # measure the program's default
    return env


class Launcher:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.args = [workload, str(seed), str(out_dir)]
        self.env = child_env()
        self.deadline = time.perf_counter() + TIMEOUT_S

    def spawn(self, mode: str, *extra: str) -> tuple[dict, float, float]:
        """Run one worker; returns its result and its set-up time in wall
        and in nominal seconds (see hostref.py)."""
        import hostref

        cmd = [sys.executable, str(HERE / "worker.py"), mode, *self.args, *extra]
        t_spawn = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=self.deadline - t_spawn)
        if proc.returncode != 0:
            raise SystemExit(f"worker {mode} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        wall = result.pop("ready") - t_spawn
        setup_s = hostref.nominal(wall, result.pop("setup_sampled_s"), result.pop("setup_ref_s"))
        return result, wall, setup_s


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    out_dir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    launcher = Launcher(workload, seed, out_dir)
    diagnostics = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }
    if traced:
        res, _, _ = launcher.spawn("trace", str(seconds))
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in res.pop("metrics").items()}
        attempted, failed = res.pop("attempted"), res.pop("failed")
        diagnostics.update(res)
    else:
        walls, samples, attempted, failed = [], [], 0, 0
        for k in range(SETUP_SAMPLES):
            mode = ("measure", str(seconds)) if k == SETUP_SAMPLES - 1 else ("setup",)
            res, wall, setup_s = launcher.spawn(*mode)
            walls.append(wall)
            samples.append(setup_s)
            attempted += res.pop("attempted")
            failed += res.pop("failed")
        values = {
            "pass_s": res.pop("pass_s"),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": res.pop("peak_rss_mb"),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        diagnostics.update({f"run.{k}": v for k, v in res.items()})
        diagnostics["setup_wall_s"] = statistics.median(walls)
    print(json.dumps({"diagnostics": diagnostics}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for key, trace in (("e2e", "0"), ("trace", "1"), ("trace again", "1")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", trace],
                stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S + 10)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit code {proc.returncode}")
                continue
            results[key] = json.loads(proc.stdout.splitlines()[-1])
            print(f"{workload} trace={trace}: {proc.stdout.splitlines()[-1]}")
        for key, listed in (("e2e", spec["end_to_end"]), ("trace", spec["per_layer"])):
            res = results.get(key)
            if res is None:
                continue
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} {key}: verdict check failed")
            for metric in listed:
                got = res["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} {key}: {metric['name']} missing or "
                                    f"not in {metric['unit']}: {got}")
        if "trace" in results and "trace again" in results:
            traced = results["trace"]["metrics"]
            for name, got in traced.items():
                again = results["trace again"]["metrics"][name]["value"]
                counted = got["unit"] == "count" or name.endswith(("unique_frac", "converged_frac"))
                if counted and got["value"] != again:
                    problems.append(f"{workload}: {name} {got['value']} then {again}")
            # Self times partition the root span; what they miss is tracing cost.
            unattributed = traced["trace.unattributed_frac"]["value"]
            if not abs(unattributed) <= max(traced["trace.overhead_frac"]["value"], 0.05):
                problems.append(f"{workload}: self times miss {unattributed:.1%} of the pass")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "involstab" / "__init__.py").is_file():
        print(f"no involstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    print(json.dumps(bench(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
