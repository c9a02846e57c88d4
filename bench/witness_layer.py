"""Layer benchmark of the kernel-witness path.

Times two layers over the non-SLP pairs of the ``sweep-n2-digits`` grid
(p in 2, 3, 5, 7 and 2 <= a <= b <= 80, 12,131 algebras):

* ``kernel_witness``: one call per algebra, construction and re-check;
* ``hilbert_function``: two calls per algebra, at the witness's source and
  target degrees, the two dimensions the witness check compares.

Each layer is timed ``REPEATS`` times, each in a fresh interpreter (see
``layer_runs.py``), and the run is appended to the output file:

    python3 bench/witness_layer.py [--out bench/BENCH_witness.json]

This is a measurement, not a test: nothing here asserts a time.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from layer_runs import ROOT, append_run, import_lefschetz, in_fresh_interpreter, summary

PRIMES = (2, 3, 5, 7)
MAX_EXPONENT = 80
LAYERS = ("kernel_witness", "hilbert_function")
REPEATS = 9


def _witness_cases() -> list[tuple[int, int, int, int, int]]:
    # (p, a, b, source degree, target degree) of every non-SLP pair, in the
    # order ``verify`` sweeps them.
    lz = import_lefschetz()
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
    lz = import_lefschetz()
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "BENCH_witness.json"),
                        help="JSON file the run is appended to")
    args = parser.parse_args(argv)

    cases = _witness_cases()
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for r in range(REPEATS):
        for layer in LAYERS if r % 2 == 0 else LAYERS[::-1]:
            samples[layer].append(in_fresh_interpreter(_time_layer, layer, cases))

    calls = {"kernel_witness": len(cases), "hilbert_function": 2 * len(cases)}
    layers = {layer: summary(samples[layer], calls[layer]) for layer in LAYERS}
    header = {
        "benchmark": "witness_layer",
        "grid": {"primes": list(PRIMES), "n": 2, "max_exponent": MAX_EXPONENT,
                 "non_slp_pairs": len(cases)},
    }
    append_run(Path(args.out), header, {"repeats": REPEATS, "layers": layers})
    for layer, stats in layers.items():
        print(f"{layer}: median {stats['median_s']} s over {stats['calls']} calls "
              f"({stats['per_call_us']} us per call), {REPEATS} fresh interpreters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
