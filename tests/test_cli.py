"""Command-line interface: exit codes, determinism, formats, config handling."""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lefschetz
from lefschetz import classify, cli, prime_field
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
        monkeypatch.setattr(cli, "manhattan_check", lambda field, a, b: not real(field, a, b))
        code, out, err = run_cli(["check", "--p", "3", "--d", "2,2"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("internal disagreement between decision routes: ")
        assert "manhattan=False" in err


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
        code, out, _ = run_cli(["wlp", "--p", "2", "--d", "2,2,2"], capsys)
        assert code == 1 and "no WLP" in out


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
            ("p-above-cap", ["--p", str(2**31), "--d", good_d], None),
            ("malformed-d", ["--p", "3", "--d", "2,x"], None),
            ("empty-d", ["--p", "3", "--d", ""], None),
            ("separators-only-d", ["--p", "3", "--d", ","], None),
            ("empty-item-d", ["--p", "3", "--d", good_d.replace(",", ",,")], None),
            ("leading-comma-d", ["--p", "3", "--d", "," + good_d], None),
            ("trailing-comma-d", ["--p", "3", "--d", good_d + ","], None),
            ("non-integer-p", ["--p", "x", "--d", good_d], None),
            ("missing-d", ["--p", "3"], None),
            ("unknown-flag", ["--p", "3", "--d", good_d, "--bogus", "1"], None),
        ]
    ]
    + [
        pytest.param(["check", "--p", "3", "--d", "1,4"], "at least 2",
                     id="check-exponent-below-2"),
        pytest.param(["classify", "--p", "3", "--d", "1,4"], "at least 2",
                     id="classify-exponent-below-2"),
        pytest.param(["wlp", "--p", "3", "--d", "0,3"], None, id="wlp-exponent-below-1"),
        pytest.param(["syzgap", "--p", "3", "--d", "0,1,1"], None, id="syzgap-degree-below-1"),
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
      for kind in ("disagreement", "empty-containers", "no-entries")),
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
        payload, _ = cli._sweep(cli._sweep_config(args))
        return json.loads(payload)

    @staticmethod
    def _hand_built_report(kind):
        # Reports no correct sweep produces: routes that disagree, empty
        # containers, no entries.
        report = TestVerify._report(["--primes", "2", "--max", "4", "--modes", "oracle,digits"])
        if kind == "disagreement":
            report["entries"][0].update(
                verdicts={"oracle": True, "digits": False}, agree=False, witness=None
            )
        elif kind == "empty-containers":
            report["entries"][0].update(
                d=[], verdicts={}, witness={"monomial": [], "power": 2, "target_degree": 2}
            )
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

    # Grids whose reports must not depend on the worker count: one
    # variable, three variables, and three algebras for the eight shares of
    # two workers.
    SHARED_GRIDS = [
        pytest.param(["--primes", "3,2", "--n", "1", "--max", "7",
                      "--modes", "oracle,digits"], id="n1"),
        pytest.param(["--primes", "3", "--n", "3", "--max", "5",
                      "--modes", "oracle,digits"], id="n3"),
        pytest.param(["--primes", "2", "--n", "2", "--max", "3",
                      "--modes", "digits,manhattan,delta"], id="fewer-algebras-than-shares"),
    ]

    @pytest.mark.parametrize("grid", SHARED_GRIDS)
    @pytest.mark.parametrize("context", ["default", "spawn"])
    def test_every_format_is_the_same_at_one_and_two_jobs(
        self, grid, context, monkeypatch, capsys
    ):
        # Under "spawn" each worker is a new interpreter, so the shares and
        # their results are shown to pickle and the module to re-import.
        pools = []
        real = multiprocessing.get_context(None if context == "default" else context)

        class Recording:
            @staticmethod
            def Pool(processes):
                pools.append(processes)
                return real.Pool(processes)

        monkeypatch.setattr(cli, "multiprocessing", Recording)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        for fmt in cli.FORMATS:
            argv = ["verify", *grid, "--format", fmt, "--jobs"]
            code, serial, _ = run_cli(argv + ["1"], capsys)
            assert code == 0
            code, parallel, _ = run_cli(argv + ["2"], capsys)
            assert code == 0 and parallel == serial, fmt
        assert pools == [2] * len(cli.FORMATS)

    @pytest.mark.parametrize("grid", SHARED_GRIDS[1:] + [
        pytest.param(["--primes", "2,3", "--max", "7", "--modes", "oracle,digits,manhattan"],
                     id="n2-witnesses"),
    ])
    def test_merged_shares_equal_one_share(self, grid):
        args = cli._build_parser().parse_args(["verify", *grid, "--format", "json"])
        config = cli._sweep_config(args)
        spec = (config["fields"], config["n"], config["max_exponent"],
                tuple(config["modes"]), config["format"])
        whole = cli._sweep_share((spec, 0, 1))
        for count in range(1, 6):
            shares = [cli._sweep_share((spec, index, count)) for index in range(count)]
            assert sum(len(texts) for texts, _, _ in shares) == len(whole[0])
            assert cli._merge_shares(shares, len(whole[0])) == whole, count

    @pytest.fixture
    def in_process_pool(self, monkeypatch):
        # Two processors and a Pool that records the workers asked for and
        # maps in this process: no process is started.
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks, chunksize=1):
                return [func(task) for task in tasks]

        monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        return started

    def test_workers_capped_at_available_processors(self, in_process_pool, capsys):
        argv = ["verify", "--primes", "2", "--max", "4", "--modes", "oracle,digits",
                "--format", "json", "--jobs"]
        code, many, _ = run_cli(argv + ["64"], capsys)
        assert code == 0 and in_process_pool == [2]
        _, serial, _ = run_cli(argv + ["1"], capsys)
        assert in_process_pool == [2] and many == serial

    def test_prime_order_does_not_change_entries(self, in_process_pool, capsys):
        # The grid walks the primes in ascending order and Pool.map keeps
        # the order of its input, so the report needs no sort.
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
                results.append((report["entries"], report["summary"]))
        assert in_process_pool == [2, 2]
        assert all(result == results[0] for result in results)

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
        def no_sweep(config):
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
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "primes = 2,3\n"
            "n = 2\n"
            "max = 6\n"
            "modes = oracle,digits\n"
            "format = text\n"
            "jobs = 1\n"
        )
        code, out, _ = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 0 and "summary:" in out

        code, out, _ = run_cli(
            ["verify", "--config", str(cfg), "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["config"]["max_exponent"] == 6

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
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(f"primes = {given['primes']}\nmodes = {given['modes']}\n")
            argv = ["verify", "--config", str(cfg)]
        code, out, err = run_cli(argv + ["--max", "4", "--jobs", "1"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: empty item in {what}: {value!r}\n"

    def test_repeated_config_key_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("primes = 2\nmodes = digits\nprimes = 3\n")
        code, out, err = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {cfg}:3: repeated key 'primes'\n"

    def test_empty_config_key_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("primes = 2\nmodes = digits\n= 3\n")
        code, out, err = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {cfg}:3: empty key before '=', got '= 3\\n'\n"

    def test_config_comments_follow_whitespace(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep\n   # indented comment\nprimes = 2,3  # small\n"
                       "modes = digits\t# tab before the comment\njobs = 1\n")
        code, out, _ = run_cli(["verify", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["primes"] == [2, 3]

    def test_hash_inside_config_value_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        report = tmp_path / "report#1.json"
        cfg.write_text(f"primes = 2\nmodes = digits\nout = {report}\n")
        code, out, err = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {cfg}:3: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            pytest.param(["--max", "abc"], None, None, id="max-flag"),
            pytest.param(["--n", "two"], None, None, id="n-flag"),
            pytest.param(["--jobs", "x"], None, None, id="jobs-flag"),
            pytest.param([], b"max = abc\n", None, id="max-config"),
            pytest.param([], b"n = two\n", None, id="n-config"),
            pytest.param([], b"jobs = x\n", None, id="jobs-config"),
            pytest.param([], b"max = \xff\n", None, id="undecodable-config"),
            pytest.param(["--config", "{tmp}/missing.cfg"], None, None, id="missing-config"),
            pytest.param(["--out", "{tmp}/missing/report.txt"], None, None, id="unwritable-out"),
            # opens, then fails to write (ENOSPC)
            pytest.param(["--out", "/dev/full"], None, None, id="full-out",
                         marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="no /dev/full")),
            pytest.param(["--primes", "2,3,2"], None, None, id="repeated-prime-flag"),
            pytest.param(["--modes", "digits,digits"], None, None, id="repeated-mode-flag"),
            pytest.param(["--bogus"], None, None, id="unknown-flag"),
            pytest.param([], b"primes = 2\nprimes = 3\n", None, id="repeated-config-key"),
            pytest.param(["--format", ""], None, None, id="empty-format-flag"),
            pytest.param([], b"format =\n", None, id="empty-format-config"),
            pytest.param(["--out", ""], None, None, id="empty-out-flag"),
            pytest.param([], b"out =\n", None, id="empty-out-config"),
            pytest.param([], b"jobs = 1#2\n", None, id="hash-inside-config-value"),
            pytest.param(["--modes", ","], None, "empty modes", id="empty-modes-flag"),
            pytest.param(["--primes", "2,9"], None, "9 is not prime", id="composite-prime-flag"),
            pytest.param(["--n", "3", "--modes", "delta"], None, "two variables only",
                         id="two-variable-mode-at-n3"),
            pytest.param([], b"wibble = 3\n", "wibble", id="unknown-config-key"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, flags, config, message, tmp_path, capsys):
        argv = ["verify", "--primes", "2", "--modes", "digits"]
        argv += [f.format(tmp=tmp_path) for f in flags]
        if config is not None:
            cfg = tmp_path / "sweep.cfg"
            cfg.write_bytes(config)
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message is None or message in err


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(lefschetz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, lefschetz.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
