"""Sweep benchmark: ``lefschetz verify`` on fixed grids, in fresh interpreters.

    python3 sweepbench/run.py --workload sweep-n2 --seed 1 --seconds 40 --trace 0
    python3 sweepbench/run.py --workload all --seed 1 --seconds 40

One client runs a closed loop: each ``verify`` starts after the previous
one has ended. With ``--trace 0`` a run repeats rounds of two set-up
timings and one sweep each at ``--jobs 1`` and ``--jobs N`` (N = CPUs this
process may use) until the time is up, and reports the medians of the
end-to-end metrics of ``BENCHMARK.json``. With
``--trace 1`` it alternates untraced and traced sweeps at ``--jobs 1`` and
reports the per-layer metrics. Every report is checked outside the timed
region. The last line of stdout is the result as one JSON object; the line
before it records the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from checks import WORKLOADS, ReportChecker, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_PER_ROUND = 2
# Children write bytecode, so set-up after the first import does not compile.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
# A run must end within 180 s; children still running at this point are killed.
RUN_BUDGET_S = 165.0
# Per-layer metrics that must repeat exactly between traced sweeps.
EXACT_SUFFIXES = (".calls", ".entries", ".max_entries", ".misses", ".hit_ratio", "report_bytes")


class Child:
    """A finished child interpreter: exit code, parsed last stdout line and
    its own peak resident memory (from ``wait4``, not a cumulative maximum)."""

    def __init__(self, work: Path, mode: str, argv: list[str], deadline: float):
        out_path, err_path = work / "child.out", work / "child.err"
        self.started = time.monotonic()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(SRC), mode, *argv],
                stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV,
            )
        status, usage = _wait(proc, deadline)
        self.exit = os.waitstatus_to_exitcode(status)
        proc.returncode = self.exit
        self.peak_rss_mb = usage.ru_maxrss / 1024
        lines = out_path.read_text().splitlines()
        self.out = json.loads(lines[-1]) if self.exit == 0 and lines else None
        if self.out is None:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"child {mode} exited {self.exit}: {tail}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return self.out is not None and self.out.get("exit", 0) == 0


def _wait(proc: subprocess.Popen, deadline: float):
    # Polls, so that a child still running at the deadline can be killed.
    try:
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, usage
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    return status, usage


class Run:
    """One benchmark run of one workload: its children, checks and counts."""

    def __init__(self, workload: Workload, work: Path, seconds: int, seed: int):
        self.workload = workload
        self.work = work
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.jobs_n = len(os.sched_getaffinity(0))
        self.checker = ReportChecker(workload)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def child(self, mode: str, argv: list[str] = ()) -> Child:
        return Child(self.work, mode, list(argv), self.deadline)

    def sweep(self, mode: str, jobs: int) -> tuple[Child, bytes | None]:
        """One checked ``verify`` call; returns the child and its report."""
        report = self.work / f"report-{jobs}.json"
        report.unlink(missing_ok=True)
        child = self.child(mode, self.workload.argv(jobs, str(report)))
        data = report.read_bytes() if child.ok and report.exists() else None
        failed = self.checker.failed(data)
        self.attempted += self.workload.algebras
        self.failed += failed
        if failed:
            self.problems.append(f"{mode} --jobs {jobs}: {failed} algebras failed")
        return child, data

    def rounds(self):
        """Yields until --seconds have passed; a round that would end later
        than that, judged by the one before, is not started."""
        end = time.monotonic() + self.seconds
        while True:
            started = time.monotonic()
            yield
            now = time.monotonic()
            if 2 * now - started > end or now >= self.deadline:
                return

    def end_to_end(self) -> dict[str, float]:
        setup, seq, par, rss = [], [], [], []
        for _ in self.rounds():
            # Set-up is sampled in every round, so that it sees the same
            # machine as the sweeps; the seed orders each round.
            steps = ["setup"] * SETUP_PER_ROUND + ["seq", "par"]
            self.rng.shuffle(steps)
            reports = {}
            for step in steps:
                if step == "setup":
                    child = self.child("setup")
                    if child.ok:
                        setup.append(child.out["ready"] - child.started)
                    continue
                jobs = 1 if step == "seq" else self.jobs_n
                child, reports[step] = self.sweep("sweep", jobs)
                if not child.ok:
                    continue
                if step == "seq":
                    seq.append(child.out["sweep_s"])
                    rss.append(child.peak_rss_mb)
                else:
                    par.append(child.out["sweep_s"])
            if reports["seq"] != reports["par"]:
                self.failed += self.workload.algebras
                self.problems.append("--jobs 1 and --jobs N reports differ")
        self.samples = dict(setup_s=setup, sweep_s=seq, sweep_s_par=par, peak_rss_mb=rss)
        return _medians(**self.samples)

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        untraced, traced = [], []
        for _ in self.rounds():
            child, _ = self.sweep("sweep", 1)
            if child.ok:
                untraced.append(child.out["sweep_s"])
            child, data = self.sweep("trace", 1)
            if child.ok:
                metrics = dict(child.out["metrics"])
                metrics["cli.report_bytes"] = len(data) if data is not None else 0
                traced.append((child.out["sweep_s"], metrics, child.out["absent"]))
        self.samples = dict(sweep_s=untraced, traced_sweep_s=[t for t, _, _ in traced])
        if not traced or not untraced:
            return {}, []
        first = traced[0][1]
        for _, metrics, _ in traced[1:]:
            for name, value in first.items():
                if name.endswith(EXACT_SUFFIXES) and metrics.get(name) != value:
                    self.problems.append(f"{name} differs between traced sweeps")
        out = {
            name: value if name.endswith(EXACT_SUFFIXES)
            else statistics.median(m[name] for _, m, _ in traced)
            for name, value in first.items()
        }
        out["trace.overhead_s"] = (
            statistics.median(t for t, _, _ in traced) - statistics.median(untraced)
        )
        return out, traced[0][2]


def _medians(**samples: list[float]) -> dict[str, float]:
    # A metric without a single good sample is left out and reported absent.
    return {name: statistics.median(values) for name, values in samples.items() if values}


def machine_record(seed: int, jobs_n: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cores_available": jobs_n,
        "cores_online": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(workload: Workload, trace: int, args, spec: dict, work: Path) -> dict:
    """Runs one workload, prints the record line and returns the result."""
    run = Run(workload, work, args.seconds, args.seed)
    record = machine_record(args.seed, run.jobs_n)
    record.update(workload=workload.name, seconds=args.seconds, trace=trace)
    run.child("setup")  # compiles the bytecode, which an installed package ships
    if trace:
        declared = spec["per_layer"]
        measured, absent = run.per_layer()
    else:
        declared = spec["end_to_end"]
        measured, absent = run.end_to_end(), []
    metrics, absent_metrics = {}, []
    for m in declared:
        value = measured.get(m["name"])
        if value is None:
            absent_metrics.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    record.update(loadavg_end=list(os.getloadavg()), absent_targets=absent,
                  absent_metrics=absent_metrics, problems=run.problems, samples=run.samples)
    print(json.dumps({"record": record}))
    return {
        "correct": run.failed == 0 and not run.problems and not absent_metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lefschetz" / "cli.py").is_file():
        print(f"error: no lefschetz source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = Path(tempfile.mkdtemp(prefix=".sweepbench-", dir=ROOT))
    try:
        if args.workload != "all":
            result = run_workload(WORKLOADS[args.workload], args.trace, args, spec, work)
            print(json.dumps(result))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name, workload in WORKLOADS.items():
            for trace in (0, 1):
                result = run_workload(workload, trace, args, spec, work)
                for metric, m in result["metrics"].items():
                    print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
                total["correct"] &= result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                total["metrics"].update(
                    {f"{name}.{metric}": m for metric, m in result["metrics"].items()}
                )
        print(json.dumps(total))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
