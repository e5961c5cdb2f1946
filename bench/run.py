"""End-to-end benchmark of the ``curlgauge`` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {audit,decode,train} --seed N --seconds S --trace {0,1}

A run builds the workload's job list from the seed, times several fresh
set-up launches, then runs whole rounds of jobs in this process, one job at
a time (a closed loop with one client), until the time spent inside jobs
reaches ``--seconds`` and at least 40 jobs ran. A job is one call of
``curlgauge.cli.main([...], standalone_mode=False)``; it builds its own
model and writes its JSON and CSV report. Every report is checked (see
``checks.py``). Config generation, checks and garbage collection happen
between jobs, outside the job timings.

With ``--trace 1`` the jobs run with the layer tracer of ``tracing.py``
installed, and the run reports per-layer calls and self times per round
instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from checks import TABLE_COMMANDS, Checker, load_log_mass
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_JOBS = 40
SETUP_LAUNCHES = 3
# The tail is the 75th percentile: with at least MIN_JOBS jobs, ten or more lie
# beyond it. A higher percentile chosen from the job count would change with
# machine and program speed, so runs of different speed would not compare.
TAIL_PERCENTILE = 75
IMPORT_MODULES = ("curlgauge.core", "curlgauge.decoding", "curlgauge.cli")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if match and match.group(2) in IMPORT_MODULES:
            out[match.group(2)] = int(match.group(1)) / 1e6
    return out


class Run:
    def __init__(self, workload, checker, main, tracer=None):
        self.workload = workload
        self.checker = checker
        self.main = main
        self.tracer = tracer
        self.errors: list[str] = []
        self.failed = 0
        self.bytes_written = 0
        self.train_steps = 0

    def job(self, job) -> tuple[float, bool]:
        """Run one job and check its report; returns its wall time and whether it succeeded."""
        argv = [job.command, "--config", str(self.workload.config_path(job)), "--out", str(self.workload.out_dir(job))]
        argv += ["--format", "json+csv"]
        gc.collect()
        stdout = io.StringIO()
        call = lambda: self.main(argv, standalone_mode=False)  # noqa: E731
        with contextlib.redirect_stdout(stdout):
            start = time.perf_counter()
            try:
                self.tracer.run_job(call) if self.tracer else call()
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            except Exception:  # a crashing job is a failed operation, not a benchmark crash
                code = traceback.format_exc()
            elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"job {job.name} failed: {code}", file=sys.stderr)
            return elapsed, False
        written = stdout.getvalue().splitlines()
        self.bytes_written += sum(os.path.getsize(p) for p in written if os.path.isfile(p))
        report_path = self.workload.out_dir(job) / job.report_name
        try:
            report = json.loads(report_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            self.errors.append(f"{job.name}: unreadable report {report_path}: {exc}")
            return elapsed, True
        self.errors.extend(self.checker.check(job, report, written))
        if job.command == "train":
            self.train_steps += report["sections"]["training"]["steps_run"]
        return elapsed, True


def launch(workload, job, index: int, importtime: bool) -> tuple[float, str]:
    """Time one fresh interpreter from launch to the end of the job."""
    out_dir = workload.workdir / "setup" / str(index)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(BENCH / "launch.py")]
    cmd += [job.command, str(workload.config_path(job)), str(out_dir)]
    env = {k: v for k, v in os.environ.items() if k != "CURLGAUGE_THREADS"}
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up launch failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    end = float(proc.stdout.split()[-1])
    return end - start, proc.stderr


def build_references(workload, main) -> dict:
    """Reference log-mass tables, written by ``synth-gen``, for the recipes whose checks need one."""
    out_dir = workload.workdir / "references"
    jobs = [j for j in [*workload.jobs, workload.smallest] if j.command in TABLE_COMMANDS]
    recipes = {j.recipe.key: j.recipe for j in jobs}
    references = {}
    for key, recipe in recipes.items():
        config = out_dir / f"{key}.config.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps({"model": {"synthetic": recipe.section()}, "model_out": f"{key}.json"}))
        with contextlib.redirect_stdout(io.StringIO()):
            main(["synth-gen", "--config", str(config), "--out", str(out_dir), "--format", "json"], standalone_mode=False)
        references[key] = load_log_mass(out_dir / f"{key}.json")
    return references


def measure(args) -> dict:
    os.environ.pop("CURLGAUGE_THREADS", None)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        workload.write_configs()

        launches = 1 if args.trace else SETUP_LAUNCHES
        began = time.monotonic()
        setup = [launch(workload, workload.smallest, k, importtime=bool(args.trace)) for k in range(launches)]
        launched = time.monotonic()

        sys.path.insert(0, str(SRC))
        from curlgauge.cli import main

        checker = Checker(build_references(workload, main))
        tracer = Tracer() if args.trace else None
        warm_up = Run(workload, checker, main)
        for k in range(launches):  # the set-up launches' reports pass the same checks
            report = json.loads((workdir / "setup" / str(k) / workload.smallest.report_name).read_text())
            warm_up.errors.extend(checker.check(workload.smallest, report, []))
        if not warm_up.job(workload.smallest)[1]:
            raise RuntimeError(f"warm-up job {workload.smallest.name} failed")
        run = Run(workload, checker, main, tracer)
        run.errors = warm_up.errors
        if tracer:
            tracer.install()
        warmed = time.monotonic()

        times: list[float] = []  # wall times of the jobs that succeeded
        per_job: dict[str, list[float]] = {job.name: [] for job in workload.jobs}
        spent = 0.0
        rounds = 0
        while spent < args.seconds or len(times) + run.failed < MIN_JOBS:
            shutil.rmtree(workdir / "out", ignore_errors=True)
            for job in workload.jobs:
                elapsed, ok = run.job(job)
                spent += elapsed
                if ok:
                    times.append(elapsed)
                    per_job[job.name].append(elapsed)
            rounds += 1
        finished = time.monotonic()
        attempted = len(times) + run.failed
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in run.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if not times:
        raise RuntimeError(f"all {attempted} jobs failed")
    for name, job_times in per_job.items():
        if job_times:
            print(f"  {name:40s} median {statistics.median(job_times):.4f} s over {len(job_times)}", file=sys.stderr)
    print(
        f"{args.workload}: set-up launches {launched - began:.1f} s, import, references and warm-up"
        f" {warmed - launched:.1f} s, {rounds} rounds of {len(workload.jobs)} jobs {finished - warmed:.1f} s"
        f" ({sum(times):.1f} s in {len(times)} timed jobs), {len(run.errors)} check failures",
        file=sys.stderr,
    )
    jobs_per_s = len(times) / sum(times)
    if tracer:
        metrics = tracer.metrics(rounds)
        metrics["synth.train_tabular.steps"] = (run.train_steps / rounds, "count")
        metrics["reports.bytes_written"] = (run.bytes_written / rounds, "bytes")
        imports = parse_importtime(setup[0][1])
        for module in IMPORT_MODULES:
            metrics[f"import.{module}_s"] = (imports[module], "s")
        metrics["trace.jobs_per_s"] = (jobs_per_s, "1/s")
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_s_p50": (statistics.median(times), "s"),
            "job_s_tail": (statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1], "s"),
            "setup_s": (statistics.median(s for s, _ in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent inside jobs to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "curlgauge" / "cli.py").is_file():
        print(f"no curlgauge sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
