"""Layer benchmarks on the workloads of ``sweepbench``.

    python3 bench/layers.py [BENCH ...]

BENCH is one of the benchmarks below; no names runs all six. Every grid,
mode list, ``verify`` argument list and report digest comes from
``sweepbench/checks.py``. Every call list is what one ``verify --jobs 1``
sweep of the workload calls: ``record`` runs that sweep in this process and
keeps each call of a function of ``TABLE``, whose rows are the timed
functions. A new layer is one more row.

* ``oracle``: the ``mult_matrix`` builds of the central maps that
  ``is_slp_oracle`` makes on ``sweep-n3-largep`` and ``sweep-n2``, and the
  ``rank`` of every built map;
* ``syzygy``: the same for the ``presentation_matrix`` builds that
  ``slp_via_delta`` makes on ``sweep-n2``;
* ``witness``: ``kernel_witness`` on every pair of ``sweep-n2-digits`` that
  ``verify`` gives a witness;
* ``route``: each decision route as ``verify`` calls it, on the workload
  that runs it, with the number of algebras it accepts;
* ``render``: ``verify``'s sweep of each workload at ``--jobs 1`` with
  every decision (the ``cli`` rows of ``TABLE``) replayed from the record
  of the same sweep, which leaves the path of its entries (agreement,
  witness choice, rendering) and the report's assembly; each report must
  have the recorded sha256;
* ``import``: ``import lefschetz.cli`` in a new interpreter, on no
  workload: the sum of the cumulative ``-X importtime`` figures of the
  imports that statement starts, what every command pays before it runs;
  the sorted names of the modules it adds to ``sys.modules`` must be the
  same in every sample.

Each layer is sampled ``REPEATS`` times, every sample in a fresh spawned
interpreter, so caches start empty as in one sweep. A round takes one
sample of every layer of the benchmark, in reverse order every other round.
The run (machine, git commit, every sample) is appended to
``bench/BENCH_<bench>.json``, its layers keyed ``"<workload> <layer>"``.

This is a measurement, not a test: nothing here asserts a time. Whole
``verify`` calls are timed end to end by ``sweepbench/run.py`` alone: its
``sweep_s`` at one job and ``sweep_s_par`` at every processor.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "sweepbench"))
from checks import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402

REPEATS = 9
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# timed function -> (the lefschetz module that looks it up per call, its
# bench, its workloads). A bench's layers follow the rows and, in a row, its
# workloads; a row whose calls build a MatrixGFp also times the rank of each.
TABLE = {
    "manhattan_check": ("cli", "route", ("sweep-n2-digits",)),
    "classify": ("cli", "route", ("sweep-n2-digits",)),
    "slp_via_delta": ("cli", "route", ("sweep-n2",)),
    "is_slp_oracle": ("cli", "route", ("sweep-n3-largep",)),
    "kernel_witness": ("cli", "witness", ("sweep-n2-digits",)),
    "mult_matrix": ("lefschetz_oracle", "oracle", ("sweep-n3-largep", "sweep-n2")),
    "presentation_matrix": ("syzygy_gap", "syzygy", ("sweep-n2",)),
}
# the functions cli calls to decide an algebra, which render replays
DECISIONS = tuple(name for name, (module, *_) in TABLE.items() if module == "cli")


def import_lefschetz():
    sys.path.insert(0, str(SRC))
    import lefschetz

    if not Path(lefschetz.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"lefschetz imported from {lefschetz.__file__}, not from {SRC}")
    return lefschetz


def _cli():
    import_lefschetz()
    return importlib.import_module("lefschetz.cli")


def _one_job_spec(cli, argv: list[str]) -> tuple:
    # the checked spec of verify with the arguments argv, for _sweep at one job
    args = cli._build_parser().parse_args(argv)
    if args.jobs != 1:
        raise ValueError("record a sweep at --jobs 1: a worker's calls stay in the worker")
    return cli._sweep_config(args)


def record(argv: list[str]) -> list[tuple]:
    """``(name, args, result)`` of each call of a ``TABLE`` function, in the
    order the calls return, while ``verify`` with the arguments ``argv``
    sweeps in this process at one job. A ``spans.Tracer`` wraps each name in
    the module that looks it up per call and restores it also when the
    sweep raises; a name it cannot find is an error before the sweep."""
    cli = _cli()
    spec = _one_job_spec(cli, argv)
    calls = []
    # each target's sizer, called as each call returns, keeps the call
    targets = [(f"lefschetz.{module}", name, name,
                lambda args, result, name=name: calls.append((name, args, result)))
               for name, (module, *_) in TABLE.items()]
    with Tracer(targets) as tracer:
        if tracer.absent:
            raise AttributeError(f"cannot record {', '.join(tracer.absent)}: no such function")
        cli._sweep(spec, 1)
    return calls


# The samplers run in a fresh interpreter and return the wall time and an
# outcome, which must be the same in every sample of a layer.


def _time_builds(matrix_fn: str, builds: list[tuple], rank_them: bool) -> tuple[float, dict]:
    lz = import_lefschetz()
    build = getattr(lz, matrix_fn)
    if rank_them:
        # the first argument is the field
        matrices = [(build(*args), args[0]) for args in builds]
        started = time.perf_counter()
        for matrix, field in matrices:
            lz.rank(matrix, field)
    else:
        started = time.perf_counter()
        for args in builds:
            build(*args)
    return time.perf_counter() - started, {}


def _time_calls(name: str, calls: list[tuple], count_slp: bool) -> tuple[float, dict]:
    lz = import_lefschetz()
    fn = getattr(lz, name)
    started = time.perf_counter()
    results = [fn(*args) for args in calls]
    elapsed = time.perf_counter() - started
    if not count_slp:
        return elapsed, {}
    # the outcome key of every run in BENCH_route.json, so the runs stay comparable
    return elapsed, {"has_slp": sum(r.holds for r in results)}


def _time_render(argv: list[str], recorded: dict) -> tuple[float, dict]:
    # The sweep at one job, every decision looked up in the record.
    cli = _cli()
    spec = _one_job_spec(cli, argv)
    for name in DECISIONS:
        setattr(cli, name, lambda *args, name=name: recorded[name, args])
    started = time.perf_counter()
    text, _ = cli._sweep(spec, 1)
    elapsed = time.perf_counter() - started
    return elapsed, {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _time_import() -> tuple[float, dict]:
    # A new interpreter of its own: the sampler's has loaded much of what
    # lefschetz.cli imports. It may write and read bytecode, as sweepbench's
    # children do. The marker line on stderr ends the imports of start-up;
    # each top-level row after it (one blank before the name) is an import
    # that `import lefschetz.cli` started, with its cumulative us.
    probe = ("import sys; before = set(sys.modules); print('-', file=sys.stderr); "
             "import lefschetz.cli; print(*sorted(set(sys.modules) - before))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", probe],
                          env={**env, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    rows = [row.split("|") for row in done.stderr.split("-\n", 1)[1].splitlines()]
    micros = sum(int(cumulative) for _, cumulative, name in rows if not name.startswith("  "))
    return micros / 1e6, {"modules": done.stdout.split()}


def in_fresh_interpreter(fn, *args):
    """``fn(*args)`` in a single-worker spawned pool: a new interpreter each call."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(fn, *args).result()


def tasks(bench: str, work: str) -> list[tuple]:
    """``(workload, layer, calls, sampler, args)`` of every layer of the bench."""
    out = str(Path(work) / "report.json")
    if bench == "import":
        _time_import()  # compiles the bytecode that every sample reads
        return [("start-up", "lefschetz.cli", 1, _time_import, ())]
    records = {}  # workload -> the record of its sweep, made at most once

    def calls(w: str, names) -> list[tuple]:
        if w not in records:
            records[w] = record(WORKLOADS[w].argv(1, out))
        return [(name, args, result) for name, args, result in records[w] if name in names]

    if bench == "render":
        return [(w, "_sweep replayed", WORKLOADS[w].algebras, _time_render,
                 (WORKLOADS[w].argv(1, out), {(n, a): r for n, a, r in calls(w, DECISIONS)}))
                for w in WORKLOADS]
    lz = import_lefschetz()
    series = []
    for name, (_, row_bench, workloads) in TABLE.items():
        for w in workloads if row_bench == bench else ():
            _, args, results = map(list, zip(*calls(w, (name,))))
            if isinstance(results[0], lz.MatrixGFp):
                series += [(w, layer, len(args), _time_builds, (name, args, layer == "rank"))
                           for layer in (name, "rank")]
            else:
                series.append((w, name, len(args), _time_calls,
                               (name, args, isinstance(results[0], lz.Verdict))))
    return series


def _git(*args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None


def machine() -> dict:
    head = _git("rev-parse", "HEAD")
    changed = _git("diff", "--quiet", "HEAD", "--", "src")
    diff = _git("diff", "HEAD", "--", "src", "bench/layers.py")
    return {
        "git_commit": head.stdout.strip() if head and head.returncode == 0 else None,
        # whether src/ differs from that commit (a measured, uncommitted change)
        "src_modified": changed.returncode == 1 if changed else None,
        # which uncommitted change of the code and of this script was measured:
        # the sha256 of their diff from that commit (that of b"" for none)
        "diff_sha256": (hashlib.sha256(diff.stdout.encode()).hexdigest()
                        if diff and diff.returncode == 0 else None),
        "cores": CORES,
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


def run(bench: str) -> None:
    """Sample every layer of ``bench`` and append the run to its file."""
    with tempfile.TemporaryDirectory() as work:
        series = tasks(bench, work)
        samples = {(w, layer): [] for w, layer, *_ in series}
        outcomes = {key: [] for key in samples}
        for r in range(REPEATS):
            for w, layer, _, sampler, args in series if r % 2 == 0 else series[::-1]:
                elapsed, outcome = in_fresh_interpreter(sampler, *args)
                samples[w, layer].append(elapsed)
                outcomes[w, layer].append(outcome)
    layers = {}
    for w, layer, calls, _, _ in series:
        key = f"{w} {layer}"
        outcome = outcomes[w, layer][0]
        if any(o != outcome for o in outcomes[w, layer]):
            sys.exit(f"{bench} {key}: the outcomes differ between interpreters")
        if "sha256" in outcome and outcome["sha256"] != WORKLOADS[w].digest:
            sys.exit(f"{bench} {key}: report differs from the recorded sha256")
        stats = layers[key] = {**outcome, **summary(samples[w, layer], calls)}
        print(f"{bench} {key}: median {stats['median_s']} s [{stats['q1_s']}-{stats['q3_s']}] "
              f"over {calls} calls ({stats['per_call_us']} us per call), "
              f"{REPEATS} fresh interpreters")
    # a new file's header names each workload by its verify arguments
    grids = {w: WORKLOADS[w].argv(1, "REPORT")[1:-4] for w, *_ in series if w in WORKLOADS}
    append_run(ROOT / "bench" / f"BENCH_{bench}.json",
               {"benchmark": f"{bench}_layer", "grids": grids},
               {"repeats": REPEATS, "layers": layers})


BENCHES = ("oracle", "syzygy", "witness", "route", "render", "import")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("benches", nargs="*", metavar="BENCH",
                        help=f"one of {', '.join(BENCHES)}; none runs all")
    args = parser.parse_args(argv)
    unknown = [b for b in args.benches if b not in BENCHES]
    if unknown:
        parser.error(f"unknown benchmark {unknown[0]!r}; choose from {', '.join(BENCHES)}")
    for bench in args.benches or BENCHES:
        run(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
