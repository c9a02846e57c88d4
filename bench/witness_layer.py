"""Layer benchmark of the kernel-witness path.

Times ``kernel_witness`` (construction and re-check, which counts the two
graded pieces itself) over the non-SLP pairs of the ``sweep-n2-digits``
grid: p in 2, 3, 5, 7 and 2 <= a <= b <= 80, 12,131 algebras, one call
each.

The layer is timed ``REPEATS`` times, each in a fresh interpreter (see
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
REPEATS = 9


def _witness_cases() -> list[tuple[int, int, int]]:
    # (p, a, b) of every non-SLP pair, in the order ``verify`` sweeps them.
    lz = import_lefschetz()
    cases = []
    for p in PRIMES:
        field = lz.PrimeField(p)
        for a in range(2, MAX_EXPONENT + 1):
            for b in range(a, MAX_EXPONENT + 1):
                if not lz.slp_step_check(field, a, b).satisfied:
                    cases.append((p, a, b))
    return cases


def _time_witnesses(cases) -> float:
    # Runs in a fresh worker interpreter; returns the layer's wall time.
    lz = import_lefschetz()
    fields = {p: lz.PrimeField(p) for p in PRIMES}
    algebras = [lz.MonomialCI(fields[p], (a, b)) for p, a, b in cases]
    started = time.perf_counter()
    for algebra in algebras:
        lz.kernel_witness(algebra)
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "BENCH_witness.json"),
                        help="JSON file the run is appended to")
    args = parser.parse_args(argv)

    cases = _witness_cases()
    samples = [in_fresh_interpreter(_time_witnesses, cases) for _ in range(REPEATS)]
    stats = summary(samples, len(cases))
    header = {
        "benchmark": "witness_layer",
        "grid": {"primes": list(PRIMES), "n": 2, "max_exponent": MAX_EXPONENT,
                 "non_slp_pairs": len(cases)},
    }
    append_run(Path(args.out), header,
               {"repeats": REPEATS, "layers": {"kernel_witness": stats}})
    print(f"kernel_witness: median {stats['median_s']} s over {stats['calls']} calls "
          f"({stats['per_call_us']} us per call), {REPEATS} fresh interpreters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
