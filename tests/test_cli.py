"""Command-line interface: exit codes, determinism, formats, options from an @FILE."""

from __future__ import annotations

import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import lefschetz
from lefschetz import Verdict, classify, cli, lefschetz_oracle, prime_field, syzygy_gap
from lefschetz.cli import main


def _load_workloads():
    # The sweep benchmark's workloads with the sha256 of each JSON report,
    # read from the benchmark's own file so the digests have one home.
    path = Path(__file__).resolve().parents[1] / "sweepbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("sweepbench_checks", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def forked_workers(monkeypatch):
    """The pids of the verify workers forked during the test; each must have
    been reaped by verify when the test ends."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no longer a child: reaped
            os.waitpid(pid, os.WNOHANG)


class TestCheck:
    def test_slp_exit_zero(self, capsys):
        code, out, _ = run_cli(["check", "--p", "2", "--d", "2,3"], capsys)
        assert code == 0
        assert "SLP" in out and "condition 2" in out

    def test_non_slp_exit_one_with_witness(self, capsys):
        code, out, _ = run_cli(["check", "--p", "2", "--d", "2,2"], capsys)
        assert code == 1
        assert "no SLP" in out
        assert "witness" in out and "power 2" in out

    def test_composite_characteristic_exit_two(self, capsys):
        code, _, err = run_cli(["check", "--p", "4", "--d", "2,2"], capsys)
        assert code == 2
        assert "4 is not prime" in err

    def test_small_exponent_exit_two(self, capsys):
        code, _, err = run_cli(["check", "--p", "3", "--d", "1,4"], capsys)
        assert code == 2
        assert "at least 2" in err

    def test_malformed_exponents_exit_two(self, capsys):
        code, _, err = run_cli(["check", "--p", "3", "--d", "2,x"], capsys)
        assert code == 2

    def test_two_variable_mode_rejected_for_three(self, capsys):
        code, _, err = run_cli(
            ["check", "--p", "3", "--d", "2,2,2", "--mode", "manhattan"], capsys
        )
        assert code == 2
        assert "two variables" in err

    def test_single_mode(self, capsys):
        code, out, _ = run_cli(["check", "--p", "3", "--d", "2,2", "--mode", "oracle"], capsys)
        assert code == 0 and "SLP" in out

    def test_digits_decided_once(self, monkeypatch, capsys):
        # the printed condition comes from the verdict the route check made
        calls = []

        def counting(field, ds):
            calls.append(ds)
            return classify(field, ds)

        monkeypatch.setattr(cli, "classify", counting)
        code, out, _ = run_cli(["check", "--p", "3", "--d", "4,4"], capsys)
        assert code == 0 and "condition 3" in out
        assert calls == [(4, 4)]

    def test_route_disagreement_is_refused(self, monkeypatch, capsys):
        # a wrong route makes check refuse a verdict rather than pick one
        real = cli.manhattan_check
        monkeypatch.setattr(cli, "manhattan_check",
                            lambda field, ds: Verdict(not real(field, ds).holds))
        code, out, err = run_cli(["check", "--p", "3", "--d", "2,2"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: internal error: RuntimeError: "
                              "internal disagreement between decision routes: ")
        assert "manhattan=False" in err

    def test_failing_power_disagreement_is_refused(self, monkeypatch, capsys):
        # the routes agree on "no SLP" but not on the first failing power
        monkeypatch.setattr(cli, "slp_via_delta",
                            lambda field, ds: Verdict(False, failing_exponent=3))
        code, out, err = run_cli(["check", "--p", "2", "--d", "4,5"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: internal error: RuntimeError: internal disagreement between "
                       "decision routes: oracle=False (power 5), "
                       "digits=False, manhattan=False, delta=False (power 3)\n")


class TestClassifyCommand:
    def test_many_variables(self, capsys):
        code, out, _ = run_cli(["classify", "--p", "5", "--d", "2,2,2"], capsys)
        assert code == 0
        assert "condition 4" in out

    def test_negative(self, capsys):
        code, out, _ = run_cli(["classify", "--p", "3", "--d", "3,2,2"], capsys)
        assert code == 1
        assert "no SLP" in out


class TestWlp:
    def test_wlp_holds(self, capsys):
        code, out, _ = run_cli(["wlp", "--p", "2", "--d", "2,2"], capsys)
        assert code == 0 and "WLP" in out

    def test_wlp_fails(self, capsys):
        # check's verdict line, for the weak property
        code, out, _ = run_cli(["wlp", "--p", "2", "--d", "2,2,2"], capsys)
        assert code == 1 and out == "p=2 d=(2,2,2): no WLP (via oracle)\n"


class TestSyzgap:
    def test_examples(self, capsys):
        code, out, _ = run_cli(["syzgap", "--p", "2", "--d", "1,1,1"], capsys)
        assert code == 0
        assert "alpha=1 beta=2 delta=1" in out and "L_strict" in out

        code, out, _ = run_cli(["syzgap", "--p", "3", "--d", "2,2,2"], capsys)
        assert "alpha=3 beta=3 delta=0" in out

        code, out, _ = run_cli(["syzgap", "--p", "5", "--d", "1,1,2"], capsys)
        assert "delta=0" in out and "L_equal" in out

    def test_bad_degree(self, capsys):
        code, _, err = run_cli(["syzgap", "--p", "2", "--d", "0,1,1"], capsys)
        assert code == 2

    def test_wrong_arity(self, capsys):
        code, _, err = run_cli(["syzgap", "--p", "2", "--d", "1,1"], capsys)
        assert code == 2


# Each usage-error contract of the single-algebra commands is one row here;
# a row with a message also checks that the error names the cause.
@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(cmd + flags, message, id=f"{cmd[0]}-{case}")
        for cmd, good_d in [
            (["check"], "2,3"),
            (["classify"], "2,3"),
            (["wlp"], "2,3"),
            (["syzgap"], "2,2,2"),
        ]
        for case, flags, message in [
            ("composite-p", ["--p", "4", "--d", good_d], "4 is not prime"),
            ("zero-p", ["--p", "0", "--d", good_d], None),
            ("negative-p", ["--p=-3", "--d", good_d], None),
            ("p-above-cap", ["--p", str(2**31), "--d", good_d], "exceeds"),
            ("malformed-d", ["--p", "3", "--d", "2,x"], None),
            ("empty-d", ["--p", "3", "--d", ""], None),
            ("separators-only-d", ["--p", "3", "--d", ","], None),
            ("empty-item-d", ["--p", "3", "--d", good_d.replace(",", ",,")], None),
            ("leading-comma-d", ["--p", "3", "--d", "," + good_d], None),
            ("trailing-comma-d", ["--p", "3", "--d", good_d + ","], None),
            ("non-integer-p", ["--p", "x", "--d", good_d], None),
            ("missing-d", ["--p", "3"], None),
            ("unknown-flag", ["--p", "3", "--d", good_d, "--bogus", "1"], None),
            # only verify reads an @FILE: here "@x" is a malformed list, not a file
            ("at-file-d", ["--p", "3", "--d", "@x"], "malformed"),
        ]
    ]
    + [
        pytest.param(["check", "--p", "3", "--d", "1,4"], "at least 2",
                     id="check-exponent-below-2"),
        pytest.param(["classify", "--p", "3", "--d", "1,4"], "at least 2",
                     id="classify-exponent-below-2"),
        pytest.param(["wlp", "--p", "3", "--d", "0,3"], "at least 2", id="wlp-exponent-below-2"),
        pytest.param(["wlp", "--p", "2", "--d", "1,3"], "at least 2", id="wlp-exponent-one"),
        pytest.param(["syzgap", "--p", "3", "--d", "0,1,1"], "positive",
                     id="syzgap-degree-below-1"),
        pytest.param(
            ["check", "--p", "3", "--d", "2,2,2", "--mode", "manhattan"], "two variables",
            id="check-manhattan-three-variables",
        ),
        pytest.param(
            ["check", "--p", "3", "--d", "4", "--mode", "manhattan"], None,
            id="check-manhattan-one-variable",
        ),
        pytest.param(
            ["check", "--p", "3", "--d", "2,2,2", "--mode", "delta"], None,
            id="check-delta-three-variables",
        ),
        pytest.param(["syzgap", "--p", "3", "--d", "2,2"], None, id="syzgap-two-degrees"),
        # argparse's own refusals: one error: line, no usage block
        pytest.param(["check", "--p", "x", "--d", "2,2"], "argument --p: invalid int value: 'x'",
                     id="check-argparse-invalid-p"),
        pytest.param(["check", "--p", "2"], "the following arguments are required: --d",
                     id="check-argparse-missing-d"),
        pytest.param(["check", "--p", "3", "--d", "2,2", "--mode", "bogus"], None,
                     id="check-unknown-mode"),
        pytest.param(["bogus"], None, id="unknown-subcommand"),
        pytest.param([], None, id="no-subcommand"),
    ],
)
def test_single_algebra_bad_input_is_a_usage_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert message is None or message in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["top", "verify"])
def test_help_is_not_a_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert out.startswith("usage: lefschetz")
    if argv[0] == "verify":
        words = " ".join(out.split())  # argparse wraps help to the terminal width
        assert "@FILE" in words
        for default in ("--n N number of variables (default 2)",
                        "--max MAX largest exponent per variable (default 6)",
                        "(default text)"):
            assert default in words


# Sweeps (verify arguments) and hand-built reports (names) to render.
RENDER_SOURCES = [
    pytest.param(["--primes", "2,3", "--n", "1", "--max", "6",
                  "--modes", "oracle,digits"], id="n1"),
    pytest.param(["--primes", "2,3", "--n", "2", "--max", "8",
                  "--modes", "oracle,digits"], id="n2"),
    pytest.param(["--primes", "3", "--n", "3", "--max", "4",
                  "--modes", "oracle,digits"], id="n3"),
    *(pytest.param(["--primes", "2,3", "--max", "6", "--modes", mode], id=mode)
      for mode in cli.MODES),
    pytest.param(["--primes", "2,3", "--max", "6",
                  "--modes", "delta,manhattan,oracle,digits"], id="all-modes"),
    pytest.param(["--primes", "2,3,5,7", "--max", "20",
                  "--modes", "digits,manhattan"], id="digits-manhattan"),
    *(pytest.param(kind, id=kind)
      for kind in ("disagreement", "empty-containers", "no-entries", "unusual-shapes")),
]


def csv_by_writer(report: dict) -> str:
    """The CSV report as ``csv.writer`` writes it: the reference for ``render_csv``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["p", "d", "verdict_oracle", "verdict_digits", "verdict_manhattan",
         "verdict_delta", "agree", "witness_monomial", "witness_power"]
    )
    for e in report["entries"]:
        row = [e["p"], ";".join(str(d) for d in e["d"])]
        for mode in cli.MODES:
            v = e["verdicts"].get(mode)
            row.append("" if v is None else str(v).lower())
        row.append(str(e["agree"]).lower())
        w = e["witness"]
        row.append(";".join(str(x) for x in w["monomial"]) if w else "")
        row.append(w["power"] if w else "")
        writer.writerow(row)
    return buf.getvalue()


def text_by_hand(report: dict) -> str:
    """The text report written out from the JSON report: the reference for
    ``verify --format text``."""
    lines = []
    for e in report["entries"]:
        words = [f"p={e['p']}", "d=" + ";".join(str(d) for d in e["d"])]
        words += [f"{mode}={'yes' if e['verdicts'][mode] else 'no'}"
                  for mode in cli.MODES if mode in e["verdicts"]]
        words.append(f"agree={'yes' if e['agree'] else 'no'}")
        w = e["witness"]
        if w:
            words += ["witness=" + ";".join(str(x) for x in w["monomial"]), f"power={w['power']}"]
        lines.append(" ".join(words))
    summary = report["summary"]
    lines.append(f"summary: tuples={summary['tuples']} slp={summary['slp']} "
                 f"non_slp={summary['non_slp']} disagreements={summary['disagreements']}")
    return "\n".join(lines) + "\n"


class TestVerify:
    BASE =["verify", "--primes", "2,3", "--n", "2", "--max", "8",
            "--modes", "oracle,digits", "--jobs", "1"]

    def test_agreement_and_exit_zero(self, capsys):
        code, out, _ = run_cli(self.BASE + ["--format", "text"], capsys)
        assert code == 0
        assert "disagreements=0" in out

    def test_json_deterministic_and_round_trips(self, capsys):
        argv = self.BASE + ["--format", "json"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second
        report = json.loads(first)
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == first
        assert report["summary"]["disagreements"] == 0
        assert report["summary"]["tuples"] == len(report["entries"])
        entry = report["entries"][0]
        assert set(entry) == {"p", "d", "verdicts", "agree", "witness"}

    @staticmethod
    def _report(argv):
        # The JSON report of a sweep, read back as a dict.
        args = cli._build_parser().parse_args(["verify", "--jobs", "1", "--format", "json"] + argv)
        payload, _ = cli._sweep(cli._sweep_config(args), args.jobs)
        return json.loads(payload)

    @staticmethod
    def _hand_built_report(kind):
        # Reports no correct sweep produces: routes that disagree, empty
        # containers, no entries, and shapes verify never writes (a
        # three-term witness on three exponents, with every mode in reverse
        # table order, beside an entry with no modes).
        report = TestVerify._report(["--primes", "2", "--max", "4", "--modes", "oracle,digits"])
        if kind == "disagreement":
            report["entries"][0].update(
                verdicts={"oracle": True, "digits": False}, agree=False, witness=None
            )
        elif kind == "empty-containers":
            report["entries"][0].update(
                d=[], verdicts={}, witness={"monomial": [], "power": 2, "target_degree": 2}
            )
        elif kind == "unusual-shapes":
            report["entries"][1:1] = [
                {"agree": True, "d": [2, 3, 4], "p": 2,
                 "verdicts": dict(zip(reversed(cli.MODES), (True, True, False, False))),
                 "witness": {"monomial": [1, 0, 2], "power": 3, "target_degree": 6}},
                {"agree": True, "d": [3, 3, 3], "p": 2, "verdicts": {}, "witness": None},
            ]
        else:
            report["entries"] = []
        return report

    @pytest.mark.parametrize("source", RENDER_SOURCES)
    def test_json_render_matches_reference_encoder(self, source):
        if isinstance(source, str):
            report = self._hand_built_report(source)
        else:
            report = self._report(source)
        assert cli.render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("source", RENDER_SOURCES)
    def test_csv_render_matches_csv_writer(self, source):
        if isinstance(source, str):
            report = self._hand_built_report(source)
        else:
            report = self._report(source)
        assert cli.render_csv(report) == csv_by_writer(report)

    @staticmethod
    def assert_matches_references(outputs):
        # The three formats of one sweep, each equal to its reference built
        # from the JSON report.
        report = json.loads(outputs["json"])
        assert outputs["json"] == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert outputs["csv"] == csv_by_writer(report)
        assert outputs["text"] == cli.render_text(report)
        assert outputs["text"] == text_by_hand(report)

    # Grids whose reports must not depend on the worker count and must equal
    # their references, each a shape the entry templates fix in advance: one
    # variable, three variables, three algebras for the shares of three jobs,
    # and modes in neither table nor sorted order.
    SHARED_GRIDS = [
        pytest.param(["--primes", "3,2", "--n", "1", "--max", "7",
                      "--modes", "oracle,digits"], id="n1"),
        pytest.param(["--primes", "3", "--n", "3", "--max", "5",
                      "--modes", "oracle,digits"], id="n3"),
        pytest.param(["--primes", "2", "--n", "2", "--max", "3",
                      "--modes", "digits,manhattan,delta"], id="fewer-algebras-than-shares"),
        pytest.param(["--primes", "2,3", "--max", "6",
                      "--modes", "delta,digits,oracle"], id="modes-out-of-table-order"),
    ]

    @pytest.mark.parametrize("grid", SHARED_GRIDS)
    @pytest.mark.parametrize("jobs", [pytest.param(2, id="jobs2"), pytest.param(3, id="jobs3")])
    def test_every_format_is_the_same_at_one_and_two_jobs(
        self, grid, jobs, forked_workers, monkeypatch, capsys
    ):
        # At N jobs this process decides share 0 and N - 1 forked workers the
        # others; three jobs give a worker a share that is not the last.
        monkeypatch.setattr(cli, "_available_cpus", lambda: 3)
        outputs = {}
        for fmt in cli.FORMATS:
            argv = ["verify", *grid, "--format", fmt, "--jobs"]
            code, serial, _ = run_cli(argv + ["1"], capsys)
            assert code == 0
            code, parallel, _ = run_cli(argv + [str(jobs)], capsys)
            assert code == 0 and parallel == serial, fmt
            outputs[fmt] = serial
        assert len(forked_workers) == (jobs - 1) * len(cli.FORMATS)
        self.assert_matches_references(outputs)

    @pytest.mark.parametrize("grid", SHARED_GRIDS[1:] + [
        pytest.param(["--primes", "2,3", "--max", "7", "--modes", "oracle,digits,manhattan"],
                     id="n2-witnesses"),
    ])
    def test_merged_shares_equal_one_share(self, grid):
        # share i of count holds positions i, i + count, ... of the one-share
        # texts, and the shares' counts sum to its counts
        args = cli._build_parser().parse_args(["verify", *grid, "--format", "json"])
        spec = cli._sweep_config(args)
        texts, slp, disagreements = cli._sweep_share(spec, 0, 1)
        for count in range(1, 6):
            shares = [cli._sweep_share(spec, index, count) for index in range(count)]
            for index, (part, _, _) in enumerate(shares):
                assert part == texts[index::count], (index, count)
            assert sum(s[1] for s in shares) == slp and sum(s[2] for s in shares) == disagreements

    @pytest.fixture
    def two_processors(self, forked_workers, monkeypatch):
        # Two processors, so --jobs 2 and above fork one worker on any machine.
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        return forked_workers

    def test_workers_capped_at_available_processors(self, two_processors, capsys):
        argv = ["verify", "--primes", "2", "--max", "4", "--modes", "oracle,digits",
                "--format", "json", "--jobs"]
        code, many, _ = run_cli(argv + ["64"], capsys)
        assert code == 0 and len(two_processors) == 1
        _, serial, _ = run_cli(argv + ["1"], capsys)
        assert len(two_processors) == 1 and many == serial

    def test_prime_order_does_not_change_entries(self, two_processors, capsys):
        # The grid walks the primes in ascending order and the shares are
        # merged by index, so the report needs no sort; its config keeps the
        # primes in the order given.
        results = []
        for jobs in ("1", "2"):
            for primes in ("5,2,3", "2,3,5"):
                code, out, _ = run_cli(
                    ["verify", "--primes", primes, "--max", "6", "--modes", "oracle,digits",
                     "--format", "json", "--jobs", jobs],
                    capsys,
                )
                assert code == 0
                report = json.loads(out)
                assert report["config"]["primes"] == [int(p) for p in primes.split(",")]
                ps = [e["p"] for e in report["entries"]]
                assert ps == sorted(ps) and set(ps) == {2, 3, 5}
                results.append((report["entries"], report["summary"]))
        assert len(two_processors) == 2
        assert all(result == results[0] for result in results)

    def test_default_jobs_is_available_processors(self, two_processors, capsys):
        # no --jobs on two processors: one worker, and the --jobs 1 report
        argv = ["verify", "--primes", "2,3", "--max", "7",
                "--modes", "oracle,digits,manhattan", "--format", "json"]
        code, default, _ = run_cli(argv, capsys)
        assert code == 0 and len(two_processors) == 1
        code, serial, _ = run_cli(argv + ["--jobs", "1"], capsys)
        assert code == 0 and len(two_processors) == 1 and default == serial

    def test_without_fork_every_format_is_one_share(self, monkeypatch, capsys):
        # Where Python has no os.fork, --jobs 2 on two processors is one
        # share in this process, with the --jobs 1 report.
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        for fmt in cli.FORMATS:
            argv = ["verify", "--primes", "2,3", "--max", "7",
                    "--modes", "oracle,digits,manhattan", "--format", fmt, "--jobs"]
            code, serial, _ = run_cli(argv + ["1"], capsys)
            assert code == 0
            code, parallel, _ = run_cli(argv + ["2"], capsys)
            assert code == 0 and parallel == serial, fmt

    def test_disagreeing_sweep_matches_references_at_one_and_two_jobs(
        self, two_processors, monkeypatch, capsys
    ):
        # The oracle made wrong on p=3, d=(2,2): that entry disagrees, and
        # each verdict must sit under its own mode, though the sweep holds
        # them in neither table nor sorted order. A forked worker inherits
        # the patched cli, so the wrong oracle decides in every share.
        _oracle_wrong_on_f3_square(monkeypatch)
        outputs = {}
        for fmt in cli.FORMATS:
            argv = ["verify", "--primes", "2,3", "--max", "5", "--modes",
                    "digits,oracle,manhattan", "--format", fmt, "--jobs"]
            code, serial, _ = run_cli(argv + ["1"], capsys)
            assert code == 1
            code, parallel, _ = run_cli(argv + ["2"], capsys)
            assert code == 1 and parallel == serial, fmt
            outputs[fmt] = serial
        assert len(two_processors) == len(cli.FORMATS)
        self.assert_matches_references(outputs)
        report = json.loads(outputs["json"])
        assert report["summary"]["disagreements"] == 1
        assert [e for e in report["entries"] if not e["agree"]] == [{
            "agree": False, "d": [2, 2], "p": 3, "witness": None,
            "verdicts": {"digits": True, "manhattan": True, "oracle": False},
        }]
        assert "3,2;2,false,true,true,,false,," in outputs["csv"].splitlines()
        assert "p=3 d=2;2 oracle=no digits=yes manhattan=yes agree=no" in outputs["text"]

    def test_interrupted_sweep_leaves_no_worker(self, two_processors, monkeypatch, capsys):
        # Ctrl-C while verify decides its own share: the worker is killed and
        # reaped (the fixture checks), and the interrupt goes on.
        parent, real = os.getpid(), cli.classify

        def classify(field, ds):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(field, ds)

        monkeypatch.setattr(cli, "classify", classify)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--primes", "2,3", "--max", "8", "--modes", "digits", "--jobs", "2"])
        assert len(two_processors) == 1 and capsys.readouterr().out == ""

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(self.BASE + ["--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "p,d,verdict_oracle,verdict_digits,verdict_manhattan,"
            "verdict_delta,agree,witness_monomial,witness_power"
        )
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "2;2"
        assert first[2] == "false" and first[3] == "false"
        assert first[4] == "" and first[5] == ""  # modes not requested
        assert first[6] == "true"
        assert first[7] == "0;0" and first[8] == "2"

    def test_fields_built_once_per_prime(self, monkeypatch, capsys):
        # primality is checked per prime, not per algebra or per route
        calls = []
        real = prime_field._is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(prime_field, "_is_prime", counting)
        counts = []
        for top in ("4", "8"):
            calls.clear()
            code, _, _ = run_cli(
                ["verify", "--primes", "2,3", "--n", "2", "--max", top,
                 "--modes", "oracle,digits,manhattan,delta", "--jobs", "1"],
                capsys,
            )
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_route_disagreement_is_reported(self, monkeypatch, capsys):
        # a route made wrong on the square algebras: those entries disagree,
        # get no witness and count in neither slp nor non_slp
        real = cli.manhattan_check
        monkeypatch.setattr(
            cli, "manhattan_check",
            lambda field, ds: Verdict(real(field, ds).holds != (ds[0] == ds[1])))
        code, out, _ = run_cli(["verify", "--primes", "2,3", "--max", "6",
                                "--modes", "digits,manhattan", "--format", "json", "--jobs", "1"],
                               capsys)
        assert code == 1
        report = json.loads(out)
        summary = report["summary"]
        disagreeing = [e for e in report["entries"] if not e["agree"]]
        assert [e["d"] for e in disagreeing] == [[a, a] for a in range(2, 7)] * 2
        assert all(e["witness"] is None for e in disagreeing)
        assert summary["disagreements"] == len(disagreeing)
        assert summary["slp"] > 0
        assert summary["non_slp"] == summary["tuples"] - summary["slp"] - len(disagreeing) > 0

    @pytest.mark.parametrize("source", [s for s in RENDER_SOURCES
                                        if not isinstance(s.values[0], str)])
    def test_text_render_matches_verify_text(self, source, capsys):
        code, out, _ = run_cli(["verify", "--jobs", "1", "--format", "text", *source], capsys)
        assert code == 0
        assert cli.render_text(self._report(source)) == out

    def test_elapsed_goes_to_stderr_only(self, capsys):
        _, out, err = run_cli(self.BASE + ["--format", "text"], capsys)
        assert "elapsed" not in out
        assert "elapsed" in err

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_routes_looked_up_in_cli_per_call(self, mode, monkeypatch, capsys):
        # a wrapper set on cli's name after import sees every decision of its mode
        name = {"oracle": "is_slp_oracle", "digits": "classify",
                "manhattan": "manhattan_check", "delta": "slp_via_delta"}[mode]
        real = getattr(cli, name)
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, name, counting)
        code, _, _ = run_cli(["verify", "--primes", "2,3", "--max", "6", "--modes", mode,
                              "--jobs", "1"], capsys)
        assert code == 0
        assert len(calls) == 30  # 2 primes x 15 pairs 2 <= a <= b <= 6

    def test_unwritable_out_refused_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def no_sweep(spec, jobs):
            raise AssertionError("swept before the report file was opened")

        monkeypatch.setattr(cli, "_sweep", no_sweep)
        code, out, err = run_cli(
            ["verify", "--primes", "2,3,5,7", "--max", "30",
             "--modes", "oracle,digits,manhattan,delta",
             "--out", str(tmp_path / "missing" / "r.json")],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write report to ") and err.count("\n") == 1

    def test_failed_sweep_closes_the_out_file(self, tmp_path, monkeypatch, capsys):
        # A route that raises mid-sweep: the report file is left empty and
        # closed, so no ResourceWarning comes when it is collected.
        def broken(field, ds):
            raise ZeroDivisionError("a route that fails mid-sweep")

        monkeypatch.setattr(cli, "classify", broken)
        target = tmp_path / "new.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["verify", "--primes", "2", "--max", "4", "--modes", "digits",
                                      "--jobs", "1", "--out", str(target)], capsys)
            gc.collect()
        assert code == 2 and out == ""
        assert err == "error: internal error: ZeroDivisionError: a route that fails mid-sweep\n"
        assert target.read_bytes() == b""
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(self.BASE + ["--format", "json", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["summary"]["disagreements"] == 0

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_report_bytes_match_recorded_digest(self, name, tmp_path, capsys):
        # the whole JSON report of each benchmark grid, byte for byte
        workload = WORKLOADS[name]
        report = tmp_path / "report.json"
        code, out, _ = run_cli(workload.argv(1, str(report)), capsys)
        assert code == 0 and out == ""
        assert hashlib.sha256(report.read_bytes()).hexdigest() == workload.digest

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.args"
        cfg.write_text(
            "# sweep options\n"
            "--primes 2,3\n"
            "--n 2\n"
            "--max=6\n"
            "--modes oracle,digits\n"
            "--format text\n"
            "--jobs 1\n"
        )
        code, out, _ = run_cli(["verify", f"@{cfg}"], capsys)
        assert code == 0 and "summary:" in out

        # later arguments win, whether they come after the file or from it
        code, out, _ = run_cli(["verify", f"@{cfg}", "--format", "json", "--max", "4"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["max_exponent"] == 4
        code, out, _ = run_cli(["verify", "--max", "4", "--format", "json", f"@{cfg}"], capsys)
        assert code == 0 and out.startswith("p=2 d=2;2 ")
        assert out.splitlines()[-1].startswith("summary: tuples=30 ")

    @pytest.mark.parametrize(
        "key, value, what",
        [
            pytest.param("primes", "2,,3", "prime list", id="primes-inner"),
            pytest.param("primes", ",2", "prime list", id="primes-leading"),
            pytest.param("primes", "2,", "prime list", id="primes-trailing"),
            pytest.param("modes", "oracle,,digits", "modes", id="modes-inner"),
            pytest.param("modes", ",digits", "modes", id="modes-leading"),
            pytest.param("modes", "digits,", "modes", id="modes-trailing"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_list_item_names_its_list(self, key, value, what, source, tmp_path, capsys):
        # "2,,3" is refused, not read as "2,3"
        given = {"primes": "2", "modes": "digits", key: value}
        if source == "flag":
            argv = ["verify", "--primes", given["primes"], "--modes", given["modes"]]
        else:
            cfg = tmp_path / "sweep.args"
            cfg.write_text(f"--primes {given['primes']}\n--modes {given['modes']}\n")
            argv = ["verify", f"@{cfg}"]
        code, out, err = run_cli(argv + ["--max", "4", "--jobs", "1"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: empty item in {what}: {value!r}\n"

    def test_config_comments_follow_whitespace(self, tmp_path, capsys):
        # blank lines and lines whose first non-blank character is '#' are
        # skipped; the blanks around an option and its value are stripped
        cfg = tmp_path / "sweep.args"
        cfg.write_text("# sweep\n   # indented comment\n\n--primes 2,3\n"
                       "\t--modes   digits  \n--jobs 1\n")
        code, out, _ = run_cli(["verify", f"@{cfg}", "--format", "json"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert config["primes"] == [2, 3] and config["modes"] == ["digits"]

    def test_args_file_value_is_kept_verbatim(self, tmp_path, monkeypatch, capsys):
        # a value is the rest of its line: spaces and '#' are part of a path
        cfg = tmp_path / "sweep.args"
        report = tmp_path / "my report#1.json"
        cfg.write_text(f"--primes 2\n--modes digits\n--max 4\n--jobs 1\n--format json\n"
                       f"--out {report}\n")
        code, out, _ = run_cli(["verify", f"@{cfg}"], capsys)
        assert code == 0 and out == ""
        assert sorted(tmp_path.iterdir()) == sorted([cfg, report])
        assert json.loads(report.read_text())["config"]["primes"] == [2]
        # a value that starts with '@' is written --out=@name, so it names no file to read
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["verify", f"@{cfg}", "--out=@name"], capsys)
        assert code == 0 and out == ""
        assert (tmp_path / "@name").read_bytes() == report.read_bytes()

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            pytest.param(["--max", "abc"], None, "argument --max: invalid int value: 'abc'",
                         id="max-flag"),
            pytest.param(["--n", "two"], None, "argument --n: invalid int value: 'two'",
                         id="n-flag"),
            pytest.param(["--jobs", "x"], None, "argument --jobs: invalid int value: 'x'",
                         id="jobs-flag"),
            pytest.param([], b"--max abc\n", "argument --max: invalid int value: 'abc'",
                         id="max-config"),
            pytest.param([], b"--n two\n", "argument --n: invalid int value: 'two'",
                         id="n-config"),
            pytest.param([], b"--jobs x\n", "argument --jobs: invalid int value: 'x'",
                         id="jobs-config"),
            # the same message on every Python: argparse's own reader decodes
            # by the locale before 3.12 and with surrogateescape from 3.12
            pytest.param([], b"--max \xff\n", "cannot read {tmp}/sweep.args: not UTF-8",
                         id="undecodable-config"),
            pytest.param(["@{tmp}/missing.args"], None, "No such file or directory",
                         id="missing-config"),
            pytest.param(["--out", "{tmp}/missing/report.txt"], None, "cannot write report to",
                         id="unwritable-out"),
            # opens, then fails to write (ENOSPC)
            pytest.param(["--out", "/dev/full"], None, "cannot write report to /dev/full",
                         id="full-out",
                         marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="no /dev/full")),
            pytest.param(["--primes", "2,3,2"], None, "repeated primes: 2",
                         id="repeated-prime-flag"),
            pytest.param(["--modes", "digits,digits"], None, "repeated modes: digits",
                         id="repeated-mode-flag"),
            pytest.param(["--bogus"], None, "unrecognized arguments: --bogus", id="unknown-flag"),
            pytest.param(["--format", ""], None, "argument --format: invalid choice: ''",
                         id="empty-format-flag"),
            pytest.param([], b"--format=\n", "argument --format: invalid choice: ''",
                         id="empty-format-config"),
            pytest.param(["--out", ""], None, "empty output path", id="empty-out-flag"),
            pytest.param([], b"--out=\n", "empty output path", id="empty-out-config"),
            # a '#' after a value is part of it: refused as a bad int, not cut
            pytest.param([], b"--jobs 1#2\n", "argument --jobs: invalid int value: '1#2'",
                         id="hash-inside-config-value"),
            pytest.param([], b"--jobs 1  # one\n",
                         "argument --jobs: invalid int value: '1  # one'",
                         id="comment-after-config-value"),
            pytest.param(["--modes", ","], None, "empty modes", id="empty-modes-flag"),
            pytest.param(["--primes", "2,9"], None, "9 is not prime", id="composite-prime-flag"),
            pytest.param(["--n", "3", "--modes", "delta"], None, "two variables only",
                         id="two-variable-mode-at-n3"),
            pytest.param([], b"--wibble 3\n", "unrecognized arguments: --wibble 3",
                         id="unknown-config-key"),
            pytest.param(["--modes", "bogus"], None, "unknown modes: bogus", id="unknown-mode"),
            pytest.param([], b"primes 2\n", "unrecognized arguments: primes 2",
                         id="config-line-no-equals"),
            pytest.param(["--n", "0"], None, "n must be at least 1", id="zero-n"),
            pytest.param(["--max", "1"], None, "max exponent must be at least 2",
                         id="max-below-2"),
            pytest.param(["--jobs", "0"], None, "jobs must be at least 1", id="zero-jobs"),
            # a row that starts with the command is the whole command line
            pytest.param(["verify", "--modes", "digits"], None,
                         "the following arguments are required: --primes", id="no-primes"),
            pytest.param(["verify", "--primes", "2"], None,
                         "the following arguments are required: --modes", id="no-modes"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, flags, config, message, tmp_path, capsys):
        argv = [] if flags[:1] == ["verify"] else ["verify", "--primes", "2", "--modes", "digits"]
        argv += [f.format(tmp=tmp_path) for f in flags]
        if config is not None:
            cfg = tmp_path / "sweep.args"
            cfg.write_bytes(config)
            argv.append(f"@{cfg}")
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message.format(tmp=tmp_path) in err

    @pytest.mark.parametrize("files, named", [
        pytest.param({"a.args": "--primes 2\n@./a.args\n"}, "./a.args", id="direct-cycle"),
        pytest.param({"a.args": "--primes 2\n@b.args\n",
                      "b.args": "--modes digits\n@{tmp}/a.args\n"},
                     "{tmp}/a.args", id="indirect-cycle"),
    ])
    def test_args_file_cycle_is_a_usage_error(self, files, named, tmp_path, monkeypatch, capsys):
        # an @FILE that names itself, directly or through another, by any
        # path to the same file, is refused by the name it was given there
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text.format(tmp=tmp_path))
        code, out, err = run_cli(["verify", "@a.args", "--max", "4", "--jobs", "1"], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: cannot read {named.format(tmp=tmp_path)}: it names itself, "
                       "directly or through another @FILE\n")


def _oracle_wrong_on_f3_square(monkeypatch):
    real = cli.is_slp_oracle

    def wrong(field, ds):
        if field.p == 3 and tuple(ds) == (2, 2):
            return Verdict(False, failing_exponent=2)
        return real(field, ds)

    monkeypatch.setattr(cli, "is_slp_oracle", wrong)


def _witness_check_fails(monkeypatch):
    def fail(*args):
        raise RuntimeError("witness construction produced a surviving term")

    monkeypatch.setattr(lefschetz_oracle, "_verify_witness", fail)


def _kernel_too_large(monkeypatch):
    # the whole relation space at tau: alpha = 0, below any relation degree
    monkeypatch.setattr(syzygy_gap, "kernel_dimension", lambda field, d1, d2, d3, tau: tau + 1)


# Each case makes one internal check fail, named by the message: the oracle's
# wrong "no SLP" leaves kernel_witness an algebra with the SLP, a witness
# fails its re-check, and syzygy_profile finds inconsistent degrees.
@pytest.mark.parametrize("fault, argv, message", [
    pytest.param(_oracle_wrong_on_f3_square,
                 ["check", "--p", "3", "--d", "2,2", "--mode", "oracle"],
                 "internal error: RuntimeError: algebra has the strong Lefschetz property",
                 id="check-oracle-wrong"),
    pytest.param(_oracle_wrong_on_f3_square,
                 ["verify", "--primes", "3", "--max", "2", "--modes", "oracle", "--jobs", "1"],
                 "internal error: RuntimeError: algebra has the strong Lefschetz property",
                 id="verify-oracle-wrong"),
    # p=3, d=(2,2) is grid position 1: the forked worker's share
    pytest.param(_oracle_wrong_on_f3_square,
                 ["verify", "--primes", "2,3", "--max", "2", "--modes", "oracle", "--jobs", "2"],
                 "internal error: RuntimeError: algebra has the strong Lefschetz property",
                 id="verify-oracle-wrong-two-jobs"),
    # p=3, d=(2,2) is grid position 0: verify's own share, the worker's still running
    pytest.param(_oracle_wrong_on_f3_square,
                 ["verify", "--primes", "3", "--max", "3", "--modes", "oracle", "--jobs", "2"],
                 "internal error: RuntimeError: algebra has the strong Lefschetz property",
                 id="verify-oracle-wrong-own-share"),
    pytest.param(_witness_check_fails, ["check", "--p", "2", "--d", "2,2"],
                 "internal error: RuntimeError: witness", id="check-witness-fails"),
    pytest.param(_kernel_too_large, ["syzgap", "--p", "3", "--d", "2,2,2"],
                 "internal error: RuntimeError: inconsistent syzygy degrees",
                 id="syzgap-inconsistent-degrees"),
])
def test_failed_internal_check_is_not_a_verdict(fault, argv, message, forked_workers,
                                                 monkeypatch, capsys):
    # exit 1 would read as "no SLP" or as a disagreement
    fault(monkeypatch)
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)  # --jobs 2 forks on any machine
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert message in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    pytest.param(["check", "--p", "2", "--d", "2,3"], id="check"),
    pytest.param(["verify", "--primes", "2", "--max", "4", "--modes", "digits", "--jobs", "1"],
                 id="verify"),
])
def test_unwritable_stdout_is_a_usage_error(argv):
    # exit 1 would read as a verdict: "no SLP" for check, a disagreement for verify
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lefschetz.__file__)))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "lefschetz", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write output: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_cli_import_loads_only_what_a_command_runs():
    # In a fresh interpreter, neither importing the CLI nor a text sweep at
    # one or two jobs loads any of these: the records are named tuples (no
    # dataclasses, and with it no inspect), the workers are forked without
    # multiprocessing, pickle and signal serve only a failed worker, json
    # only lays out a JSON report, and numpy is no dependency. Modules are
    # counted from those loaded before the import, since site may load typing.
    unneeded = {"dataclasses", "inspect", "json", "multiprocessing", "pickle", "signal",
                "typing", "numpy"}
    probe = "\n".join([
        "import io, sys",
        "before = set(sys.modules)",
        "import lefschetz.cli",
        "imported = sorted(set(sys.modules) - before)",
        "lefschetz.cli._available_cpus = lambda: 2",
        "stdout, sys.stdout = sys.stdout, io.StringIO()",
        "code = lefschetz.cli.main(sys.argv[1:])",
        "swept = sorted(set(sys.modules) - before)",
        "import json",
        "print(json.dumps([code, imported, swept]), file=stdout)",
    ])
    argv = ["verify", "--primes", "2", "--max", "4", "--modes", "digits", "--format", "text",
            "--jobs"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lefschetz.__file__)))
    for jobs in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", probe, *argv, jobs], env=env,
                              capture_output=True, text=True, check=True)
        code, imported, swept = json.loads(done.stdout)
        assert "lefschetz.cli" in imported and code == 0
        assert unneeded.isdisjoint(imported), sorted(unneeded.intersection(imported))
        assert unneeded.isdisjoint(swept), (jobs, sorted(unneeded.intersection(swept)))


def test_killed_worker_is_an_error_not_a_hang():
    # A worker killed by a signal sends no result: verify must end with exit
    # 2 and one error line, not wait for it, and leave no process behind.
    # classify kills the process deciding p=2, d=(2,3), grid position 1, when
    # that is not verify itself: the worker of share 1 of 2.
    probe = "\n".join([
        "import os, signal, sys",
        "from lefschetz import cli",
        "parent, real = os.getpid(), cli.classify",
        "def classify(field, ds):",
        "    if field.p == 2 and tuple(ds) == (2, 3) and os.getpid() != parent:",
        "        os.kill(os.getpid(), signal.SIGKILL)",
        "    return real(field, ds)",
        "cli.classify, cli._available_cpus = classify, lambda: 2",
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    argv = ["verify", "--primes", "2", "--max", "4", "--modes", "digits", "--jobs", "2"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lefschetz.__file__)))
    # its own session, so that whatever it leaves can be found and killed
    proc = subprocess.Popen([sys.executable, "-c", probe, *argv], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "internal error: RuntimeError: sweep worker 1" in err
        assert f"killed by signal {signal.SIGKILL.value}" in err
        with pytest.raises(ProcessLookupError):  # nothing left in the session
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
