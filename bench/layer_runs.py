"""Helpers shared by the layer benchmarks in this directory.

Each benchmark imports the package from the ``src/`` of the checkout it sits
in, takes every sample in a fresh interpreter so caches start empty, as they
do in one ``lefschetz verify`` run, and appends one run (machine, git commit,
every sample) to its ``BENCH_<name>.json``, so the file keeps the history of
runs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_lefschetz():
    sys.path.insert(0, str(SRC))
    import lefschetz

    if not Path(lefschetz.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"lefschetz imported from {lefschetz.__file__}, not from {SRC}")
    return lefschetz


def in_fresh_interpreter(fn, *args):
    """``fn(*args)`` in a single-worker spawned pool: a new interpreter each call."""
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def _git(*args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None


def machine() -> dict:
    head = _git("rev-parse", "HEAD")
    changed = _git("diff", "--quiet", "HEAD", "--", "src")
    return {
        "git_commit": head.stdout.strip() if head and head.returncode == 0 else None,
        # whether src/ differs from that commit (a measured, uncommitted change)
        "src_modified": changed.returncode == 1 if changed else None,
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "online_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _significant(x: float) -> float:
    # 4 significant digits, so a layer near 1 ms is as comparable as one near 1 s
    return float(f"{x:.4g}")


def summary(samples: list[float], calls: int) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "calls": calls,
        "median_s": _significant(median),
        "q1_s": _significant(q1),
        "q3_s": _significant(q3),
        "per_call_us": round(median / calls * 1e6, 2),
        "samples_s": [_significant(s) for s in samples],
    }


def append_run(out: Path, header: dict, run: dict) -> None:
    """Append ``run`` to the history in ``out``, started with ``header`` if new."""
    history = json.loads(out.read_text()) if out.exists() else {**header, "runs": []}
    history["runs"].append(
        {"date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "machine": machine(), **run}
    )
    out.write_text(json.dumps(history, indent=2) + "\n")
