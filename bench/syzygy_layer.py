"""Layer benchmark of the syzygy-gap route's matrices.

Times two layers over the presentation matrices that ``slp_via_delta``
builds on the ``sweep-n2`` grid of ``verify`` (p in 2, 3, 5, 7 and
2 <= a <= b <= 30: 1,740 algebras, 2,992 matrices, one per gap tested, up
to the first nonzero gap):

* ``presentation_matrix``: building every matrix;
* ``rank``: the rank of every matrix, built before the clock starts.

Each layer is timed ``REPEATS`` times, each in a fresh interpreter (see
``layer_runs.py``), and the run is appended to the output file:

    python3 bench/syzygy_layer.py [--out bench/BENCH_syzygy.json]

This is a measurement, not a test: nothing here asserts a time.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from layer_runs import ROOT, append_run, import_lefschetz, in_fresh_interpreter, summary

# as in sweepbench's sweep-n2 workload
PRIMES = (2, 3, 5, 7)
MAX_EXPONENT = 30
LAYERS = ("presentation_matrix", "rank")
REPEATS = 9


def _presentation_calls() -> list[tuple[int, int, int, int, int]]:
    # (p, d1, d2, d3, tau) of every matrix the delta route builds on the grid,
    # recorded by running it with presentation_matrix wrapped.
    lz = import_lefschetz()
    syzygy = lz.syzygy_gap
    calls = []
    build = syzygy.presentation_matrix

    def recording(field, d1, d2, d3, tau):
        calls.append((field.p, d1, d2, d3, tau))
        return build(field, d1, d2, d3, tau)

    syzygy.presentation_matrix = recording
    try:
        for p in PRIMES:
            field = lz.PrimeField(p)
            for a in range(2, MAX_EXPONENT + 1):
                for b in range(a, MAX_EXPONENT + 1):
                    syzygy.slp_via_delta(field, a, b)
    finally:
        syzygy.presentation_matrix = build
    return calls


def _time_layer(layer: str, calls) -> float:
    # Runs in a fresh worker interpreter; returns the layer's wall time.
    lz = import_lefschetz()
    fields = {p: lz.PrimeField(p) for p in {call[0] for call in calls}}
    calls = [(fields[p], *degrees) for p, *degrees in calls]
    if layer == "presentation_matrix":
        started = time.perf_counter()
        for call in calls:
            lz.presentation_matrix(*call)
    else:
        matrices = [(lz.presentation_matrix(*call), call[0]) for call in calls]
        started = time.perf_counter()
        for matrix, field in matrices:
            lz.rank(matrix, field)
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "BENCH_syzygy.json"),
                        help="JSON file the run is appended to")
    args = parser.parse_args(argv)

    calls = _presentation_calls()
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for r in range(REPEATS):
        for layer in LAYERS if r % 2 == 0 else LAYERS[::-1]:
            samples[layer].append(in_fresh_interpreter(_time_layer, layer, calls))

    layers = {layer: summary(samples[layer], len(calls)) for layer in LAYERS}
    header = {
        "benchmark": "syzygy_layer",
        "grid": {"primes": list(PRIMES), "n": 2, "max_exponent": MAX_EXPONENT,
                 "algebras": len({(p, d1, d2) for p, d1, d2, _, _ in calls}),
                 "matrices": len(calls),
                 "columns": sum(max(tau - d + 1, 0) for _, *ds, tau in calls for d in ds)},
    }
    append_run(Path(args.out), header, {"repeats": REPEATS, "layers": layers})
    for layer, stats in layers.items():
        print(f"sweep-n2 {layer}: median {stats['median_s']} s over {stats['calls']} matrices "
              f"({stats['per_call_us']} us per matrix), {REPEATS} fresh interpreters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
