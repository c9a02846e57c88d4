"""Layer benchmark of the kernel-witness path.

Times two layers over the non-SLP pairs of the ``sweep-n2-digits`` grid
(p in 2, 3, 5, 7 and 2 <= a <= b <= 80, 12,131 algebras):

* ``kernel_witness``: one call per algebra, construction and re-check;
* ``hilbert_function``: the two calls the witness check makes per algebra,
  at the witness's source and target degrees.

Each layer is timed ``REPEATS`` times, each in a fresh interpreter, so
every cache starts empty, as it does in one ``lefschetz verify`` run. The package is
imported from the ``src/`` of the checkout this script sits in. One run
(machine, git commit, every sample) is appended to the output file, so the
file keeps the history of runs:

    python3 bench/witness_layer.py [--out bench/BENCH_witness.json]

This is a measurement, not a test: nothing here asserts a time.
"""

from __future__ import annotations

import argparse
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
PRIMES = (2, 3, 5, 7)
MAX_EXPONENT = 80
LAYERS = ("kernel_witness", "hilbert_function")
REPEATS = 9


def _import_lefschetz():
    sys.path.insert(0, str(SRC))
    import lefschetz

    if not Path(lefschetz.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"lefschetz imported from {lefschetz.__file__}, not from {SRC}")
    return lefschetz


def _witness_cases() -> list[tuple[int, int, int, int, int]]:
    # (p, a, b, source degree, target degree) of every non-SLP pair, in the
    # order ``verify`` sweeps them.
    lz = _import_lefschetz()
    cases = []
    for p in PRIMES:
        field = lz.PrimeField(p)
        for a in range(2, MAX_EXPONENT + 1):
            for b in range(a, MAX_EXPONENT + 1):
                if lz.slp_step_check(field, a, b).satisfied:
                    continue
                w = lz.kernel_witness(lz.MonomialCI(field, (a, b)))
                cases.append((p, a, b, w.degree, w.target_degree))
    return cases


def _time_layer(layer: str, cases) -> float:
    # Runs in a fresh worker interpreter; returns the layer's wall time.
    lz = _import_lefschetz()
    fields = {p: lz.PrimeField(p) for p in PRIMES}
    calls = [(lz.MonomialCI(fields[p], (a, b)), src, dst) for p, a, b, src, dst in cases]
    if layer == "kernel_witness":
        started = time.perf_counter()
        for algebra, _, _ in calls:
            lz.kernel_witness(algebra)
    else:
        started = time.perf_counter()
        for algebra, source, target in calls:
            lz.hilbert_function(algebra, source)
            lz.hilbert_function(algebra, target)
    return time.perf_counter() - started


def _git(*args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None


def _machine() -> dict:
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


def _summary(samples: list[float], calls: int) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "calls": calls,
        "median_s": round(median, 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "per_call_us": round(median / calls * 1e6, 2),
        "samples_s": [round(s, 4) for s in samples],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "BENCH_witness.json"),
                        help="JSON file the run is appended to")
    args = parser.parse_args(argv)

    cases = _witness_cases()
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for r in range(REPEATS):
        for layer in LAYERS if r % 2 == 0 else LAYERS[::-1]:
            # one single-worker pool per sample: a fresh interpreter each time
            with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
                samples[layer].append(pool.submit(_time_layer, layer, cases).result())

    calls = {"kernel_witness": len(cases), "hilbert_function": 2 * len(cases)}
    run = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": _machine(),
        "repeats": REPEATS,
        "layers": {layer: _summary(samples[layer], calls[layer]) for layer in LAYERS},
    }
    out = Path(args.out)
    if out.exists():
        history = json.loads(out.read_text())
    else:
        history = {
            "benchmark": "witness_layer",
            "grid": {"primes": list(PRIMES), "n": 2, "max_exponent": MAX_EXPONENT,
                     "non_slp_pairs": len(cases)},
            "runs": [],
        }
    history["runs"].append(run)
    out.write_text(json.dumps(history, indent=2) + "\n")
    for layer, summary in run["layers"].items():
        print(f"{layer}: median {summary['median_s']} s over {summary['calls']} calls "
              f"({summary['per_call_us']} us per call), {REPEATS} fresh interpreters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
