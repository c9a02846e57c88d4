"""Tests of the sweep benchmark itself: python3 -m pytest -q sweepbench"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lefschetz.cli  # noqa: E402
import lefschetz.lefschetz_oracle  # noqa: E402
import spans  # noqa: E402
from checks import ReportChecker, Workload, entry_failures, witness_ok  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = dict(name="small", primes=(2, 3), n=2, max_exponent=7, modes=("digits", "manhattan"))


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small workload, its genuine report and a checker that expects it."""
    out = tmp_path_factory.mktemp("report") / "report.json"
    workload = Workload(**SMALL, digest="")
    assert lefschetz.cli.main(workload.argv(1, str(out))) == 0
    data = out.read_bytes()
    workload = Workload(**SMALL, digest=hashlib.sha256(data).hexdigest())
    return workload, data


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_genuine_report_passes(small):
    workload, data = small
    assert ReportChecker(workload).failed(data) == 0


def test_corrupted_report_fails_every_algebra(small):
    workload, data = small
    corrupted = data.replace(b'"manhattan": false', b'"manhattan": true', 1)
    assert corrupted != data
    checker = ReportChecker(workload)
    assert checker.failed(corrupted) == workload.algebras
    assert checker.failed(None) == workload.algebras


def test_forged_witness_is_counted_as_failed(small):
    workload, data = small
    report = json.loads(data)
    entry = next(e for e in report["entries"] if e["witness"])
    entry["witness"]["power"] -= 1
    entry["witness"]["target_degree"] -= 1
    assert entry_failures(workload, report) == 1
    forged = lefschetz.cli.render_json(report).encode()
    assert ReportChecker(workload).failed(forged) == workload.algebras


def test_witness_check_is_independent_of_the_routes():
    # x^1 y^1 in K[x,y]/(x^2, y^2) is killed by (x + y)^1 only for the
    # wrong reason: it spans a piece larger than its target piece (0).
    assert not witness_ok(3, 2, 2, {"monomial": [1, 1], "power": 1, "target_degree": 3})
    # (x + y)^2 = x^2 + y^2 in characteristic 2 kills 1 in K[x,y]/(x^2, y^2).
    assert witness_ok(2, 2, 2, {"monomial": [0, 0], "power": 2, "target_degree": 2})
    # In characteristic 3 the cross term 2xy survives.
    assert not witness_ok(3, 2, 2, {"monomial": [0, 0], "power": 2, "target_degree": 2})


def test_known_slp_answer_counts_each_non_slp_entry(small):
    workload, data = small
    report = json.loads(data)
    must_all_hold = Workload(**{**SMALL, "digest": workload.digest, "all_slp": True})
    non_slp = report["summary"]["non_slp"]
    assert non_slp > 0
    assert entry_failures(must_all_hold, report) == non_slp


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "sweepbench", tmp_path / "sweepbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "sweepbench/run.py", "--workload", "sweep-n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_restores_names_and_reports_absent_targets(tmp_path):
    original = lefschetz.lefschetz_oracle.rank
    targets = spans.TARGETS + (("lefschetz.cli", "no_such_route", "cli.gone", None),
                               ("lefschetz.no_such_module", "rank", "gone.rank", None))
    tracer = spans.Tracer(targets)
    with tracer:
        assert lefschetz.lefschetz_oracle.rank is not original
        with tracer.span(spans.ROOT):
            argv = ["verify", "--primes", "2", "--max", "5", "--modes", "oracle,delta",
                    "--jobs", "1", "--format", "json", "--out", str(tmp_path / "r.json")]
            assert lefschetz.cli.main(argv) == 0
    assert lefschetz.lefschetz_oracle.rank is original
    assert not hasattr(lefschetz.cli, "no_such_route")
    assert tracer.absent == ["lefschetz.cli.no_such_route", "lefschetz.no_such_module.rank"]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["prime_field.rank.calls"] > 0
    assert metrics["syzygy_gap.presentation_matrix.entries"] > 0
    # The child adds the cache counters, the run adds the report size and overhead.
    added = {"prime_field.binomial_mod_p.hit_ratio", "prime_field.binomial_mod_p.misses",
             "cli.report_bytes", "trace.overhead_s"}
    assert set(metrics) | added == {m["name"] for m in SPEC["per_layer"]}
