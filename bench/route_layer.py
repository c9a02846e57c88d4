"""Layer benchmark of the decision routes, one algebra at a time.

Times each route as ``verify`` calls it, over the grid of the ``sweepbench``
workload that runs it:

* ``manhattan_check`` and ``classify`` on ``sweep-n2-digits``: p in 2, 3, 5,
  7 and 2 <= a <= b <= 80 (12,640 pairs);
* ``slp_via_delta`` on ``sweep-n2``: p in 2, 3, 5, 7 and 2 <= a <= b <= 30
  (1,740 pairs);
* ``is_slp_oracle`` on ``sweep-n3-largep``: p = 31, sorted triples
  2 <= d1 <= d2 <= d3 <= 10 (165 algebras).

Each layer is timed ``REPEATS`` times, each in a fresh interpreter (see
``layer_runs.py``), so caches start empty as in one sweep. The run, with the
number of algebras each route accepts, is appended to the output file:

    python3 bench/route_layer.py [--out bench/BENCH_route.json]

This is a measurement, not a test: nothing here asserts a time.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

from layer_runs import ROOT, append_run, import_lefschetz, in_fresh_interpreter, summary

# name -> (primes, number of variables, largest exponent), as in sweepbench
GRIDS = {
    "sweep-n2-digits": ((2, 3, 5, 7), 2, 80),
    "sweep-n2": ((2, 3, 5, 7), 2, 30),
    "sweep-n3-largep": ((31,), 3, 10),
}
# route -> grid it is timed on
LAYERS = {
    "manhattan_check": "sweep-n2-digits",
    "classify": "sweep-n2-digits",
    "slp_via_delta": "sweep-n2",
    "is_slp_oracle": "sweep-n3-largep",
}
REPEATS = 9


def _cases(grid: str) -> list[tuple[int, tuple[int, ...]]]:
    primes, n, max_exponent = GRIDS[grid]
    return [(p, exps) for p in primes
            for exps in combinations_with_replacement(range(2, max_exponent + 1), n)]


def _time_layer(layer: str) -> tuple[float, int]:
    # Runs in a fresh worker interpreter; returns the layer's wall time and
    # how many algebras the route says have the SLP.
    lz = import_lefschetz()
    route = getattr(lz, layer)
    cases = _cases(LAYERS[layer])
    fields = {p: lz.PrimeField(p) for p, _ in cases}
    if layer == "is_slp_oracle":
        calls = [(lz.MonomialCI(fields[p], exps),) for p, exps in cases]
    elif layer == "classify":
        calls = [(fields[p], exps) for p, exps in cases]
    else:
        calls = [(fields[p], *exps) for p, exps in cases]
    started = time.perf_counter()
    verdicts = [route(*args) for args in calls]
    elapsed = time.perf_counter() - started
    return elapsed, sum(getattr(v, "has_slp", v) for v in verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "BENCH_route.json"),
                        help="JSON file the run is appended to")
    args = parser.parse_args(argv)

    order = list(LAYERS)
    runs: dict[str, list[tuple[float, int]]] = {layer: [] for layer in order}
    for r in range(REPEATS):
        for layer in order if r % 2 == 0 else order[::-1]:
            runs[layer].append(in_fresh_interpreter(_time_layer, layer))

    layers = {}
    for layer, results in runs.items():
        accepted = {count for _, count in results}
        if len(accepted) != 1:
            sys.exit(f"{layer}: the verdicts differ between interpreters")
        calls = len(_cases(LAYERS[layer]))
        layers[layer] = {"grid": LAYERS[layer], "has_slp": accepted.pop(),
                         **summary([elapsed for elapsed, _ in results], calls)}
    header = {
        "benchmark": "route_layer",
        "grids": {grid: {"primes": list(primes), "n": n, "max_exponent": max_exponent,
                         "algebras": len(_cases(grid))}
                  for grid, (primes, n, max_exponent) in GRIDS.items()},
    }
    append_run(Path(args.out), header, {"repeats": REPEATS, "layers": layers})
    for layer, stats in layers.items():
        print(f"{layer} on {stats['grid']}: median {stats['median_s']} s over "
              f"{stats['calls']} algebras ({stats['per_call_us']} us per call), "
              f"{REPEATS} fresh interpreters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
