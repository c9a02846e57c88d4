"""End-to-end benchmark of ``verify`` at one job and at all cores.

Times ``lefschetz verify --format json`` on the three ``sweepbench``
workload grids (their arguments and report digests come from
``sweepbench/checks.py``):

* ``sweep-n2``: p in 2, 3, 5, 7, 2 <= a <= b <= 30, four modes;
* ``sweep-n3-largep``: p = 31, 2 <= d1 <= d2 <= d3 <= 10, oracle and digits;
* ``sweep-n2-digits``: p in 2, 3, 5, 7, 2 <= a <= b <= 80, digits and
  manhattan.

Each grid runs at ``--jobs 1`` and at ``--jobs N``, N the processors this
process may use. Every sample is one ``verify`` call, from argument parsing
to the written report, in a fresh interpreter (see ``layer_runs.py``); a
round takes one sample of every grid and job count, and ``REPEATS`` rounds
make a run. Each report must have its recorded sha256. The run is appended
to the output file:

    python3 bench/verify_layer.py [--out bench/BENCH_verify.json]

This is a measurement, not a test: nothing here asserts a time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

from layer_runs import ROOT, append_run, import_lefschetz, in_fresh_interpreter, summary

sys.path.insert(0, str(ROOT / "sweepbench"))
from checks import WORKLOADS  # noqa: E402

REPEATS = 9


def _time_verify(argv: list[str], out: str) -> tuple[float, str]:
    # Runs in a fresh worker interpreter; returns the sweep's wall time and
    # the sha256 of the report it wrote. A spawned worker inherits the spawn
    # start method; the platform default is restored so that verify starts
    # its pool as it does from the command line.
    multiprocessing.set_start_method(None, force=True)
    import_lefschetz()
    cli = importlib.import_module("lefschetz.cli")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"verify exited {code}: {err.getvalue()}")
    return elapsed, hashlib.sha256(Path(out).read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "BENCH_verify.json"),
                        help="JSON file the run is appended to")
    args = parser.parse_args(argv)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cases = [(name, jobs) for name in WORKLOADS for jobs in sorted({1, cores})]
    samples = {case: [] for case in cases}
    with tempfile.TemporaryDirectory() as work:
        out = str(Path(work) / "report.json")
        for _ in range(REPEATS):
            for name, jobs in cases:
                elapsed, digest = in_fresh_interpreter(
                    _time_verify, WORKLOADS[name].argv(jobs, out), out
                )
                if digest != WORKLOADS[name].digest:
                    sys.exit(f"{name} --jobs {jobs}: report differs from the recorded sha256")
                samples[name, jobs].append(elapsed)

    layers = {}
    for (name, jobs), values in samples.items():
        stats = summary(values, 1)
        layers[f"{name} --jobs {jobs}"] = stats
        print(f"verify {name} --jobs {jobs}: median {stats['median_s']} s "
              f"[{stats['q1_s']}-{stats['q3_s']}], {REPEATS} fresh interpreters")
    # each grid's verify arguments, without the subcommand, --jobs and --out
    grids = {name: WORKLOADS[name].argv(1, "REPORT")[1:-4] for name in WORKLOADS}
    append_run(Path(args.out), {"benchmark": "verify_layer", "grids": grids},
               {"repeats": REPEATS, "jobs_n": cores, "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main())
