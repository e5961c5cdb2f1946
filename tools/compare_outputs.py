"""Compare the report, CSV and model files that two checkouts write for the same jobs.

Usage: ``python3 tools/compare_outputs.py PARENT CHANGE [--seeds 201,202,203]``

The jobs are every job of the bench workloads ``audit``, ``decode`` and ``train``
at each seed, set-up job included, built by ``bench/workloads.py`` of this
checkout (imported, never written to), and one job per command of the CLI
tests' configs (``tests/test_reports_cli.py``'s ``fuzz_config``).  Each
checkout runs all of them through its own ``curlgauge.cli`` in one fresh
interpreter with ``PYTHONDONTWRITEBYTECODE=1``, from the same scratch path in
turn, so paths written into configs and reports agree and no stale ``.pyc``
file is read.  The job's exit code is kept beside its files.

Files are compared byte for byte, except that a JSON report is compared as
text with the value of its top-level ``meta`` key (timings and counters)
masked, so a change of layout (indent, separators, key order) counts as a
difference.  Prints each file that differs or exists on one side only, and
exits 1 if there is any, 0 otherwise.  Under a JSON report that differs it
prints each leaf path whose values differ, list indices written ``[*]``, with
how many leaves differ there and, where they are numbers on both sides, the
largest |difference|, so that a declared last-bit change can be cited by field
and size.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402

# runs in the fresh interpreter: argv is the checkout's src and the job list file
RUNNER = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from curlgauge.cli import main
codes = {}
for name, command, config, out in json.loads(open(sys.argv[2]).read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main([command, "--config", config, "--out", out, "--format", "json+csv"], standalone_mode=False)
            codes[name] = 0
        except SystemExit as exc:
            codes[name] = exc.code or 0
        except Exception as exc:
            codes[name] = type(exc).__name__
print(json.dumps(codes, indent=1, sort_keys=True))
"""


def write_jobs(run_dir: Path, seeds: list[int]) -> list[tuple[str, str, str, str]]:
    """Write every job's config under ``run_dir``; return (name, command, config, out) per job, in run order."""
    from test_reports_cli import FUZZ_CONFIGS, fuzz_config

    jobs = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            workload = workloads.build(name, seed, run_dir / f"{name}-{seed}")
            workload.write_configs()
            for job in [*workload.jobs, workload.smallest]:
                out = workload.out_dir(job)
                jobs.append((f"{name}-{seed}/{job.name}", job.command, str(workload.config_path(job)), str(out)))
    for command in sorted(FUZZ_CONFIGS):
        config = run_dir / "cli-tests" / "configs" / f"{command}.json"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps(fuzz_config(command), indent=1, sort_keys=True))
        jobs.append((f"cli-tests/{command}", command, str(config), str(run_dir / "cli-tests" / "out" / command)))
    return jobs


def run_side(checkout: Path, run_dir: Path, seeds: list[int], result_dir: Path) -> None:
    """Run every job through ``checkout``'s CLI in ``run_dir``, then move what it wrote to ``result_dir``."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    jobs_file = run_dir / "jobs.json"
    jobs_file.write_text(json.dumps(write_jobs(run_dir, seeds)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(checkout / "src"), str(jobs_file)],
        capture_output=True, text=True, env=env, cwd=run_dir, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: the job runner failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    (run_dir / "exit_codes.json").write_text(proc.stdout)
    shutil.move(str(run_dir), str(result_dir))


def _report(data: bytes) -> dict | None:
    """A JSON report parsed, or None if ``data`` is no JSON object with a ``meta`` key."""
    try:
        report = json.loads(data)
    except ValueError:
        return None
    return report if isinstance(report, dict) and "meta" in report else None


def without_meta(data: bytes) -> bytes | None:
    """A JSON report's text with the value of its ``meta`` key masked, or None if ``data`` is no
    such report.  The key is found where ``json.dumps(indent=1)`` writes a top-level key, on a
    line of its own after one space; a report laid out otherwise is kept whole."""
    if _report(data) is None:
        return None
    text, key = data.decode("utf-8"), '\n "meta": '
    if (start := text.find(key)) < 0:
        return data
    start += len(key)
    end = json.JSONDecoder().raw_decode(text, start)[1]
    return (text[:start] + "<meta>" + text[end:]).encode("utf-8")


def _leaves(value, path=""):
    """(path, value) for every leaf of a JSON value: ``a.b`` for a key, ``a[3]`` for a list index."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def leaf_differences(data_a: bytes, data_b: bytes) -> list[str]:
    """One line per leaf path, list indices written ``[*]``, where two JSON reports differ with their
    ``meta`` removed: how many leaves differ there and, if every one is a number on both sides, the
    largest |difference|.  Empty unless both sides are such reports."""
    reports = [_report(data) for data in (data_a, data_b)]
    if None in reports:
        return []
    a, b = (dict(_leaves({k: v for k, v in report.items() if k != "meta"})) for report in reports)
    counts, largest, not_numbers = Counter(), {}, set()
    for path in dict.fromkeys([*a, *b]):
        x, y = a.get(path, ...), b.get(path, ...)  # ... marks a leaf on one side only
        if x == y and type(x) is type(y):
            continue
        key = re.sub(r"\[\d+\]", "[*]", path)
        counts[key] += 1
        if all(type(v) in (int, float) for v in (x, y)):
            largest[key] = max(largest.get(key, 0.0), abs(x - y))
        else:
            not_numbers.add(key)
    return [
        f"{key}: {n} differing" + ("" if key in not_numbers else f", largest |difference| {largest[key]:.3g}")
        for key, n in counts.items()
    ]


def differences(left: Path, right: Path) -> list[str]:
    files = {p.relative_to(left) for p in left.rglob("*") if p.is_file()}
    files |= {p.relative_to(right) for p in right.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        a, b = left / rel, right / rel
        if not (a.is_file() and b.is_file()):
            out.append(f"only in {'parent' if a.is_file() else 'change'}: {rel}")
            continue
        data_a, data_b = a.read_bytes(), b.read_bytes()
        if data_a == data_b:
            continue
        stripped = without_meta(data_a) if rel.suffix == ".json" else None
        if stripped is None or stripped != without_meta(data_b):
            out.append(f"differs: {rel}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout whose files are the reference")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    parser.add_argument("--seeds", default="201,202,203", help="comma-separated workload seeds")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        scratch = Path(scratch)
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            run_side(checkout.resolve(), scratch / "run", seeds, scratch / side)
        found = differences(scratch / "parent", scratch / "change")
        compared = sum(1 for p in (scratch / "parent").rglob("*") if p.is_file())
        for line in found:
            print(line)
            if line.startswith("differs: "):
                rel = line.removeprefix("differs: ")
                for detail in leaf_differences(*((scratch / side / rel).read_bytes() for side in ("parent", "change"))):
                    print(f"  {detail}")
    print(f"{compared} files compared, {len(found)} differ", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
