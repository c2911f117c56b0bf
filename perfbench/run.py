"""Benchmark of the trotterforge CLI: end-to-end metrics untraced, layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload count-sweep --seed 0 --seconds 25 --trace 0

Each workload is a fixed list of CLI commands (see ``workloads.py``), run one
child process at a time (closed loop, one client). A run repeats the list
(one "pass") until ``--seconds`` of measuring have passed, at least once, and
reports medians over passes. With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics of ``layers.py``.
``--workload all`` runs every workload in turn and prints one table.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it give the machine and code
record and every metric with its unit, ``fail_frac`` included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
RUN_BUDGET_S = 165.0  # every child is killed after this, so a run ends within 180 s

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("TROTTERFORGE_THREADS", None)  # children use the program's default thread cap
    return env


def run_child(argv: list[str], cwd: Path, deadline: float) -> ChildResult:
    """Run one process to completion; wall from spawn to reap, CPU and RSS from wait4."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def cli_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "trotterforge.cli", *args]


def traced_argv(spans_path: Path, args: tuple[str, ...]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_path), *args]


# -- record of the machine and the code ------------------------------------------------

_RECORD_PROBE = """
import json, sys, numpy
from trotterforge.runtime import thread_cap
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
                  "thread_cap": thread_cap()}))
"""


def machine_record(work: Path, deadline: float) -> dict:
    probe = run_child([sys.executable, "-c", _RECORD_PROBE], work, deadline)
    record = json.loads(probe.stdout) if probe.code == 0 else {"probe_error": probe.stderr[-500:]}
    meminfo = Path("/proc/meminfo")
    lines = meminfo.read_text().splitlines() if meminfo.exists() else []
    mem = next((int(line.split()[1]) for line in lines if line.startswith("MemTotal:")), None)
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    git = shutil.which("git")
    commit = None
    if git and (ROOT / ".git").exists():
        rev = subprocess.run([git, "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = rev.stdout.strip() if rev.returncode == 0 else None
    record.update(
        {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "mem_total_kib": mem,
            "platform": platform.platform(),
            "git_commit": commit,
            "src_sha256": digest.hexdigest(),
            "src_lines": sum(len(p.read_bytes().splitlines()) for p in files),
        }
    )
    return record


# -- one workload run ------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kib: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


def run_pass(commands, inputs, seed, reference, work: Path, deadline: float, traced: bool) -> PassResult:
    result = PassResult()
    for i, command in enumerate(commands):
        spans_path = work / f"spans{i}.json"
        argv = traced_argv(spans_path, command.argv) if traced else cli_argv(command.argv)
        child = run_child(argv, work, deadline)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.maxrss_kib = max(result.maxrss_kib, child.maxrss_kib)
        if child.code != 0:
            result.failures.append(f"{command.key}: exit {child.code}: {child.stderr.strip()[-300:]}")
            continue
        problems = workloads.check_output(command, child.stdout, inputs, seed, reference)
        result.failures += [f"{command.key}: {p}" for p in problems]
        if traced:
            result.traces.append(json.loads(spans_path.read_text()))
    return result


def measure_setup(inputs, work: Path, deadline: float) -> list[float]:
    """Fresh interpreter plus ``import trotterforge.cli``, plus writing the spec files to disk."""
    import_argv = [sys.executable, "-c", "import trotterforge.cli"]
    warm = run_child(import_argv, work, deadline)  # fills __pycache__, which users keep
    if warm.code != 0:
        raise RuntimeError(f"trotterforge does not import: {warm.stderr.strip()[-500:]}")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workloads.write_specs(inputs, work)
        write_s = time.perf_counter() - start
        times.append(run_child(import_argv, work, deadline).wall_s + write_s)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple[dict, dict]:
    """Returns (result object for the last line, machine and code record)."""
    commands, inputs = workloads.WORKLOADS[name](seed)
    reference = workloads.load_reference()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        record = machine_record(work, deadline)
        setup = measure_setup(inputs, work, deadline)
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        started = time.monotonic()
        while True:
            pass_start = time.monotonic()
            untraced.append(run_pass(commands, inputs, seed, reference, work, deadline, traced=False))
            if trace:
                traced.append(run_pass(commands, inputs, seed, reference, work, deadline, traced=True))
            now = time.monotonic()
            if now - started >= seconds or now + (now - pass_start) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    attempted = len(commands) * len(passes)
    if trace:
        per_pass = [
            layers.pass_metrics(t.traces, t.wall_s, u.wall_s) if not t.failures else None
            for u, t in zip(untraced, traced)
        ]
        good = [m for m in per_pass if m is not None]
        metrics = {
            key: {"value": statistics.median(m[key] for m in good) if good else 0.0, "unit": unit}
            for key, unit in layers.PER_LAYER_UNITS.items()
        }
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "cpu_s": statistics.median(p.cpu_s for p in untraced),
            "peak_rss_mb": max(p.maxrss_kib for p in untraced) / 1024.0,
            "setup_s": statistics.median(setup),
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in E2E_UNITS.items()}
    record.update(
        {
            "workload": name,
            "seed": seed,
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "pass_wall_s": [round(p.wall_s, 4) for p in passes],
            "commands_per_pass": len(commands),
            "fail_frac": len(failures) / attempted,
            "failures": failures[:20],
        }
    )
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, record


def _print_table(name: str, result: dict, record: dict) -> None:
    print(f"record {json.dumps(record, sort_keys=True)}")
    print(f"== {name}: {record['untraced_passes']} untraced + {record['traced_passes']} traced passes of {record['commands_per_pass']} commands")
    for key, metric in result["metrics"].items():
        print(f"{name:>13} {key:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{name:>13} {'fail_frac':<32} {record['fail_frac']:>16.6g} ratio ({result['failed']}/{result['attempted']})")
    for failure in record["failures"]:
        print(f"  failure: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trotterforge" / "cli.py").is_file():
        print(f"error: no trotterforge sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_table(name, result, record)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
