"""Layer benchmark of the rank oracle's matrices.

Times two layers over the central maps that ``is_slp_oracle`` builds on two
fixed ``verify`` grids:

* ``sweep-n3-largep``: p = 31, sorted triples 2 <= d1 <= d2 <= d3 <= 10
  (165 algebras, 1,280 maps), where every algebra has the SLP, so every
  candidate power is tested;
* ``sweep-n2``: p in 2, 3, 5, 7 and 2 <= a <= b <= 30 (1,740 algebras,
  2,992 maps), small maps that often stop at the first failing power.

The layers are

* ``mult_matrix``: building every map;
* ``rank``: the rank of every map, built before the clock starts.

Each (grid, layer) pair is timed ``REPEATS`` times, each in a fresh
interpreter (see ``layer_runs.py``), and the run is appended to the output
file:

    python3 bench/oracle_layer.py [--out bench/BENCH_oracle.json]

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
    "sweep-n3-largep": ((31,), 3, 10),
    "sweep-n2": ((2, 3, 5, 7), 2, 30),
}
LAYERS = ("mult_matrix", "rank")
REPEATS = 9


def _central_maps(grid: str) -> list[tuple[int, tuple[int, ...], int, int]]:
    # (p, exponents, power, source degree) of every map the oracle builds on
    # the grid, recorded by running it with mult_matrix wrapped.
    lz = import_lefschetz()
    oracle = lz.lefschetz_oracle
    primes, n, max_exponent = GRIDS[grid]
    maps = []
    build = oracle.mult_matrix

    def recording(algebra, power, degree):
        maps.append((algebra.field.p, algebra.exponents, power, degree))
        return build(algebra, power, degree)

    oracle.mult_matrix = recording
    try:
        for p in primes:
            field = lz.PrimeField(p)
            for exps in combinations_with_replacement(range(2, max_exponent + 1), n):
                oracle.is_slp_oracle(lz.MonomialCI(field, exps))
    finally:
        oracle.mult_matrix = build
    return maps


def _time_layer(layer: str, maps) -> float:
    # Runs in a fresh worker interpreter; returns the layer's wall time.
    lz = import_lefschetz()
    fields = {p: lz.PrimeField(p) for p in {p for p, _, _, _ in maps}}
    algebras = {(p, exps): lz.MonomialCI(fields[p], exps) for p, exps, _, _ in maps}
    calls = [(algebras[p, exps], power, degree) for p, exps, power, degree in maps]
    if layer == "mult_matrix":
        started = time.perf_counter()
        for algebra, power, degree in calls:
            lz.mult_matrix(algebra, power, degree)
    else:
        matrices = [(lz.mult_matrix(*call), call[0].field) for call in calls]
        started = time.perf_counter()
        for matrix, field in matrices:
            lz.rank(matrix, field)
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "BENCH_oracle.json"),
                        help="JSON file the run is appended to")
    args = parser.parse_args(argv)

    maps = {grid: _central_maps(grid) for grid in GRIDS}
    series = [(grid, layer) for grid in GRIDS for layer in LAYERS]
    samples: dict[tuple[str, str], list[float]] = {key: [] for key in series}
    for r in range(REPEATS):
        for grid, layer in series if r % 2 == 0 else series[::-1]:
            samples[grid, layer].append(in_fresh_interpreter(_time_layer, layer, maps[grid]))

    layers = {
        grid: {layer: summary(samples[grid, layer], len(maps[grid])) for layer in LAYERS}
        for grid in GRIDS
    }
    header = {
        "benchmark": "oracle_layer",
        "grids": {
            grid: {"primes": list(primes), "n": n, "max_exponent": max_exponent,
                   "algebras": len({(p, exps) for p, exps, _, _ in maps[grid]}),
                   "maps": len(maps[grid])}
            for grid, (primes, n, max_exponent) in GRIDS.items()
        },
    }
    append_run(Path(args.out), header, {"repeats": REPEATS, "layers": layers})
    for grid, by_layer in layers.items():
        for layer, stats in by_layer.items():
            print(f"{grid} {layer}: median {stats['median_s']} s over {stats['calls']} maps "
                  f"({stats['per_call_us']} us per map), {REPEATS} fresh interpreters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
