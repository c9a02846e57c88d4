"""Layer benchmark of the ``verify`` JSON report render.

Times ``cli.render_json`` on the reports of the three ``sweepbench``
workloads:

* ``sweep-n2``: p in 2, 3, 5, 7, 2 <= a <= b <= 30, four modes
  (1,740 entries);
* ``sweep-n3-largep``: p = 31, 2 <= d1 <= d2 <= d3 <= 10, oracle and digits
  (165 entries, no witnesses);
* ``sweep-n2-digits``: p in 2, 3, 5, 7, 2 <= a <= b <= 80, digits and
  manhattan (12,640 entries, 12,131 witnesses).

Each report is written once by the sweep itself at ``--jobs 1`` and read
back. Its render is timed ``REPEATS`` times, once in each of that many fresh
interpreters (see ``layer_runs.py``). ``verify`` itself renders each entry
in the share that decides it, with the same entry renderer, so this times
that part of a sweep and the head and tail around it in one piece. The
run, with the sha256 of the rendered report, is appended to the output
file:

    python3 bench/render_layer.py [--out bench/BENCH_render.json]

This is a measurement, not a test: nothing here asserts a time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

from layer_runs import ROOT, append_run, import_lefschetz, in_fresh_interpreter, summary

# name -> (primes, number of variables, largest exponent, modes), as in sweepbench
GRIDS = {
    "sweep-n2": ((2, 3, 5, 7), 2, 30, ("oracle", "digits", "manhattan", "delta")),
    "sweep-n3-largep": ((31,), 3, 10, ("oracle", "digits")),
    "sweep-n2-digits": ((2, 3, 5, 7), 2, 80, ("digits", "manhattan")),
}
REPEATS = 9


def _cli():
    import_lefschetz()
    return importlib.import_module("lefschetz.cli")


def _report(grid: str) -> dict:
    # The grid's JSON report, written by the sweep and read back as a dict.
    cli = _cli()
    primes, n, max_exponent, modes = GRIDS[grid]
    payload = io.StringIO()
    with contextlib.redirect_stdout(payload), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(
            ["verify", "--primes", ",".join(map(str, primes)), "--n", str(n),
             "--max", str(max_exponent), "--modes", ",".join(modes), "--jobs", "1",
             "--format", "json"]
        )
    if code != 0:
        sys.exit(f"{grid}: verify exited {code}")
    return json.loads(payload.getvalue())


def _time_render(report: dict) -> tuple[float, str]:
    # Runs in a fresh worker interpreter; returns the render's wall time and
    # the sha256 of the report it wrote.
    cli = _cli()
    started = time.perf_counter()
    payload = cli.render_json(report)
    elapsed = time.perf_counter() - started
    return elapsed, hashlib.sha256(payload.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "BENCH_render.json"),
                        help="JSON file the run is appended to")
    args = parser.parse_args(argv)

    layers, grids = {}, {}
    for grid in GRIDS:
        report = _report(grid)
        runs = [in_fresh_interpreter(_time_render, report) for _ in range(REPEATS)]
        digests = {digest for _, digest in runs}
        if len(digests) != 1:
            sys.exit(f"{grid}: the renders differ between interpreters")
        stats = summary([elapsed for elapsed, _ in runs], 1)
        layers[grid] = {**stats, "sha256": digests.pop()}
        grids[grid] = {**report["config"], "entries": len(report["entries"])}
        print(f"render_json {grid}: median {stats['median_s']} s for "
              f"{len(report['entries'])} entries, {REPEATS} fresh interpreters")
    append_run(Path(args.out), {"benchmark": "render_layer", "grids": grids},
               {"repeats": REPEATS, "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main())
