"""Command-line front end: single checks, batch sweeps, machine-readable reports.

Subcommands
-----------
check     decide the strong Lefschetz property of one algebra by the routes of
          ``ROUTES["slp"]`` (exit 0 yes, 1 no, 2 usage error), printing the fired
          condition and, for two-variable failures, a verified kernel witness
classify  ``check --mode digits`` without the witness
wlp       ``check`` for the weak Lefschetz property, by ``ROUTES["wlp"]``
syzgap    syzygy gap profile (alpha, beta, gap, region) of a degree triple
verify    sweep a grid of algebras with several decision routes and report
          agreement (exit 0 iff no disagreements); supports json, csv and
          text output, options from an @FILE, and, at --jobs N, N shares of
          the grid decided at once: one in this process, one in each of
          N - 1 forked workers (one job is one share, and no fork)

Report data is byte-identical across runs for identical configuration; the
elapsed time goes to stderr only. Exit code 2 also covers a failed internal
check, such as routes that disagree on one algebra in ``check``, or a kernel
witness or syzygy degrees that do not verify: one ``error:`` line goes to
stderr and no verdict line is printed. So does a ``verify`` worker that
ends without a result, killed by a signal for one: no worker outlives
``verify``, whether the sweep succeeds or fails.
"""

import argparse
import itertools
import marshal
import os
import sys
import time
from math import comb
from types import SimpleNamespace

from .classifier import classify, manhattan_check
from .lefschetz_oracle import is_slp_oracle, is_wlp_oracle, kernel_witness
from .prime_field import PrimeField
from .syzygy_gap import region, slp_via_delta, syzygy_profile

# property -> mode -> (variables it needs, None for any; route(field, exponents) -> Verdict).
# Each route is looked up as this module's name per call, so wrappers set there see it.
ROUTES = {
    "slp": {
        "oracle": (None, lambda field, ds: is_slp_oracle(field, ds)),
        "digits": (None, lambda field, ds: classify(field, ds)),
        "manhattan": (2, lambda field, ds: manhattan_check(field, ds)),
        "delta": (2, lambda field, ds: slp_via_delta(field, ds)),
    },
    "wlp": {"oracle": (None, lambda field, ds: is_wlp_oracle(field, ds))},
}
MODES = tuple(ROUTES["slp"])  # check --mode, verify --modes and the CSV columns


class _Parser(argparse.ArgumentParser):
    # Input argparse rejects is a usage error like any other: one
    # ``error:`` line and exit code 2, without the usage block.
    def error(self, message: str):
        raise ValueError(message)

    # An @FILE of verify holds one option a line, "--max 6" or "--max=6":
    # the value is the rest of the line, blanks around it stripped, so a
    # path may hold spaces and a '#' after a value is part of it. Blank
    # lines and lines whose first non-blank character is '#' are skipped.
    # The file is read as UTF-8 on every Python (argparse's own reader takes
    # the locale's encoding before 3.12); one that is not is refused by name.
    # reading holds the resolved paths of the @FILEs whose lines are being
    # read: one that names any of them again is a cycle, refused by name.
    def _read_args_from_files(self, arg_strings: list[str], reading=()) -> list[str]:
        args = []
        for arg in arg_strings:
            if not arg.startswith("@"):
                args.append(arg)
                continue
            path = os.path.realpath(arg[1:])
            if path in reading:
                raise ValueError(f"cannot read {arg[1:]}: it names itself, "
                                 "directly or through another @FILE")
            try:
                with open(arg[1:], encoding="utf-8") as handle:
                    lines = [line.strip() for line in handle.read().splitlines()]
            except UnicodeDecodeError as exc:
                raise ValueError(f"cannot read {arg[1:]}: not UTF-8 ({exc.reason})") from None
            except OSError as exc:
                raise ValueError(str(exc)) from None
            # an @FILE may name another, as with argparse's reader
            args += self._read_args_from_files(
                [a for line in lines if line[:1] not in ("", "#") for a in line.split(None, 1)],
                (*reading, path))
        return args


def _split_list(text: str, what: str) -> list[str]:
    # The items of a comma list, stripped; an empty item is a usage error,
    # so "2,,3" is not read as "2,3".
    items = [item.strip() for item in text.split(",")]
    if not any(items):
        raise ValueError(f"empty {what}")
    if not all(items):
        raise ValueError(f"empty item in {what}: {text!r}")
    return items


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    items = _split_list(text, what)
    try:
        return tuple(int(item) for item in items)
    except ValueError:
        raise ValueError(f"malformed {what}: {text!r}") from None


def _reject_repeats(values, what: str) -> None:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"repeated {what}s: {', '.join(map(str, repeated))}")


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _check_modes(routes: dict, modes, n: int) -> None:
    bad = [m for m in modes if m not in routes]
    if bad:
        raise ValueError(f"unknown modes: {', '.join(bad)}")
    misfits = [m for m in modes if routes[m][0] not in (None, n)]
    if misfits:
        raise ValueError(f"modes {', '.join(misfits)} apply to two variables only (n={n})")


# ---------------------------------------------------------------------------
# check / classify / wlp / syzgap


def _cmd_check(args) -> int:
    field = PrimeField(args.p)
    ds = _parse_int_list(args.d, "exponent list")
    if any(d < 2 for d in ds):
        raise ValueError("exponents must be at least 2")
    routes = ROUTES[args.property]
    if args.mode == "all":
        modes = [m for m, (arity, _) in routes.items() if arity in (None, len(ds))]
    else:
        modes = [args.mode]
    _check_modes(routes, modes, len(ds))
    verdicts = {m: routes[m][1](field, ds) for m in modes}
    # one yes or no, and one failing power among the routes that give one
    powers = {v.failing_exponent for v in verdicts.values()} - {None}
    if len({v.holds for v in verdicts.values()}) > 1 or len(powers) > 1:
        detail = ", ".join(
            f"{m}={v.holds}" + (f" (power {v.failing_exponent})" if v.failing_exponent else "")
            for m, v in verdicts.items()
        )
        raise RuntimeError(f"internal disagreement between decision routes: {detail}")
    holds = next(iter(verdicts.values())).holds
    dtext = ",".join(str(d) for d in ds)
    condition = verdicts["digits"].condition if "digits" in verdicts else "via " + "/".join(modes)
    word = args.property.upper() if holds else "no " + args.property.upper()
    # built before any output: a witness that fails its check prints no verdict
    w = kernel_witness(field, *ds) if args.witness and not holds and len(ds) == 2 else None
    print(f"p={field.p} d=({dtext}): {word} ({condition})")
    if w:
        e1, e2 = w.monomial
        print(
            f"witness: monomial x^{e1}*y^{e2}, power {w.power}, "
            f"degree {w.degree} -> {w.target_degree}"
        )
    return 0 if holds else 1


def _cmd_syzgap(args) -> int:
    field = PrimeField(args.p)
    ds = _parse_int_list(args.d, "degree triple")
    if len(ds) != 3:
        raise ValueError("syzgap needs exactly three degrees, e.g. --d 2,2,2")
    profile = syzygy_profile(field, *ds)
    tag = region(*ds)
    print(
        f"p={field.p} d=({ds[0]},{ds[1]},{ds[2]}): alpha={profile.alpha} "
        f"beta={profile.beta} delta={profile.delta} region={tag.value}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def _sweep_config(args) -> tuple:
    # argparse has made the types, defaults, choices and required flags;
    # these are the checks it cannot make. The result is the spec of
    # _sweep and of every share.
    primes = _parse_int_list(args.primes, "prime list")
    _reject_repeats(primes, "prime")
    fields = {p: PrimeField(p) for p in primes}
    if args.n < 1:
        raise ValueError("n must be at least 1")
    if args.max < 2:
        raise ValueError("max exponent must be at least 2")
    size = _grid_size(fields, args.n, args.max)
    if size > sys.maxsize:
        raise ValueError(f"grid too large: {size} algebras, more than a list can index")
    modes = tuple(_split_list(args.modes, "modes"))
    _reject_repeats(modes, "mode")
    _check_modes(ROUTES["slp"], modes, args.n)
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("jobs must be at least 1")
    if args.out == "":
        raise ValueError("empty output path")
    return fields, args.n, args.max, modes, args.format


def _grid_size(primes, n: int, max_exponent: int) -> int:
    # multisets of n exponents from the max_exponent - 1 values 2..max_exponent
    return len(primes) * comb(max_exponent + n - 2, n)


def _grid(primes, n, max_exponent):
    # Non-decreasing exponent tuples in lexicographic order: every decision
    # route is invariant under permuting the exponents, so one
    # representative per orbit.
    exponents = range(2, max_exponent + 1)
    for p in sorted(primes):
        for ds in itertools.combinations_with_replacement(exponents, n):
            yield p, ds


def _sweep_share(spec, index: int, count: int) -> tuple[list[str], int, int]:
    """One share of a sweep: its entries rendered, its SLP and disagreement counts.

    ``spec`` is ``(fields, n, max_exponent, modes, format)``. Share ``index``
    of ``count`` holds the algebras at grid positions index, index + count,
    index + 2*count, ...: costs grow along the grid, so every share samples
    all of it.
    """
    fields, n, max_exponent, modes, fmt = spec
    maker = _RENDERERS[fmt][0]
    # the two shapes of the share's entries: without a witness, and with a
    # two-variable one
    plain = maker(n, modes, None)
    witnessed = maker(n, modes, 2) if n == 2 else None
    routes = [ROUTES["slp"][m][1] for m in modes]
    texts = []
    slp = disagreements = 0
    for p, ds in itertools.islice(_grid(fields, n, max_exponent), index, None, count):
        field = fields[p]
        verdicts = [route(field, ds).holds for route in routes]
        first = verdicts[0]
        agree = verdicts.count(first) == len(verdicts)
        if not agree:
            disagreements += 1
        elif first:
            slp += 1
        elif witnessed:
            texts.append(witnessed(p, ds, verdicts, True, kernel_witness(field, *ds)))
            continue
        texts.append(plain(p, ds, verdicts, agree, None))
    return texts, slp, disagreements


def _run_worker(spec, index: int, count: int, write: int, unread: list[int]) -> None:
    # In a forked worker: closes the read ends in unread, its own among them,
    # so that no reply waits on a pipe this process holds open; writes one
    # marshal of (True, the share's result) or of (False, the pickled
    # exception it raised); and ends by os._exit, so none of the parent's
    # exit code runs here (atexit handlers, buffered output, a test runner's
    # teardown). The exit status is 0 only once the whole reply is written.
    status = 1
    try:
        for fd in unread:
            os.close(fd)
        try:
            reply = (True, _sweep_share(spec, index, count))
        except BaseException as exc:
            import pickle  # only a failure is pickled

            reply = (False, pickle.dumps(exc))
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(reply))
        status = 0
    finally:
        os._exit(status)


def _shares(spec, count: int, size: int) -> tuple[list[str], int, int]:
    """The entry texts of a sweep in grid order, and its SLP and disagreement counts.

    The grid of ``size`` algebras is decided in ``count`` shares: share 0
    here and, meanwhile, share k in worker k, forked from this process (at
    one share, none). This process then reads each worker's pipe to EOF and
    reaps the worker. Share i's texts fill positions i, i + count, ... as
    they come in, and its counts are summed. A share that raised raises
    here, so a failure reads as at one share; a worker that ends without a
    result (killed by a signal, or exited early) is a RuntimeError. Workers
    still running when this returns or raises are killed and reaped, so none
    outlives ``verify``. Forking is safe as ``verify`` starts no thread: no
    worker inherits a lock another thread holds.
    """
    # a worker's copy of unflushed output would be lost, or written twice
    sys.stdout.flush()
    sys.stderr.flush()
    workers = {}  # pid -> (share index, read end of its pipe), until reaped
    try:
        for index in range(1, count):
            try:
                read, write = os.pipe()
                pid = os.fork()
            except OSError as exc:
                # exit 2 as an internal error: main reads an OSError as a failed write
                raise RuntimeError(f"cannot start sweep worker {index}: {exc}") from None
            if pid == 0:
                unread = [read, *(pipe.fileno() for _, pipe in workers.values())]
                _run_worker(spec, index, count, write, unread)
            os.close(write)
            workers[pid] = (index, open(read, "rb"))
        texts = [""] * size
        texts[0::count], slp, disagreements = _sweep_share(spec, 0, count)
        for pid, (index, pipe) in list(workers.items()):
            with pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if status:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(
                    f"sweep worker {index} (pid {pid}) ended without a result: {how}")
            done, result = marshal.loads(reply)
            if not done:
                import pickle

                raise pickle.loads(result)
            texts[index::count] = result[0]
            slp += result[1]
            disagreements += result[2]
        return texts, slp, disagreements
    finally:
        if workers:
            import signal  # only a failure leaves workers to kill
        for pid, (_, pipe) in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _sweep(spec, jobs: int | None) -> tuple[str, int]:
    """The rendered report of a sweep and its number of disagreements.

    At N jobs (``--jobs``, None for all processors) the grid is N shares,
    run by ``_shares``: this process decides share 0 and N - 1 forked workers
    the others, so one job is one share and no fork. Without ``os.fork`` N
    is 1, whatever the job count. The entry texts come back in grid order and
    are wrapped in the format's head and tail, so the report does not depend
    on the worker count.
    """
    fields, n, max_exponent, modes, fmt = spec
    size = _grid_size(fields, n, max_exponent)
    # No --jobs is all processors, and more workers than processors or
    # algebras only add interpreters.
    jobs = min(jobs or size, size, _available_cpus()) if hasattr(os, "fork") else 1
    texts, slp, disagreements = _shares(spec, jobs, size)
    summary = {
        "tuples": size,
        "slp": slp,
        "non_slp": size - slp - disagreements,
        "disagreements": disagreements,
    }
    # primes as given: repeats are refused, so the fields keep their order
    reported = {"primes": list(fields), "n": n, "max_exponent": max_exponent,
                "modes": list(modes)}
    return _RENDERERS[fmt][1](reported, texts, summary), disagreements


# Each format is an entry maker and an assembler. The maker takes an entry's
# shape (n exponents; its modes, in the order it holds their verdicts; the
# length of its witness monomial, None for no witness), builds that shape's
# format string once, and returns the renderer (p, d, verdicts, agree,
# witness) -> text, the witness a record with monomial, power and
# target_degree such as a KernelWitness. Each entry is one template % values,
# every value written by %s. The assembler wraps the entry texts, in grid
# order, in the report's head and tail. Sweeps and render_* both use these.
# json.dumps lays out the JSON ones from placeholders, "%s" for each value:
# mode names are identifiers from MODES, so no key holds a quote or a %.


def _json_entry(n: int, modes, wlen):
    # An entry at depth 2 of a report, after the line break that joins it to
    # the one before; its %s slots come in sorted-key order.
    import json

    entry = {"agree": "%s", "d": ["%s"] * n, "p": "%s", "verdicts": dict.fromkeys(modes, "%s"),
             "witness": None if wlen is None else
             {"monomial": ["%s"] * wlen, "power": "%s", "target_degree": "%s"}}
    text = "\n" + json.dumps(entry, indent=2, sort_keys=True)
    template = text.replace("\n", "\n    ").replace('"%s"', "%s")
    order = sorted(range(len(modes)), key=modes.__getitem__)
    words = ("false", "true")
    if wlen is None:
        return lambda p, d, verdicts, agree, w: template % (
            words[agree], *d, p, *[words[verdicts[i]] for i in order])
    return lambda p, d, verdicts, agree, w: template % (
        words[agree], *d, p, *[words[verdicts[i]] for i in order],
        *w.monomial, w.power, w.target_degree)


def _json_report(config: dict, texts: list[str], summary: dict) -> str:
    # With an indent, json.dumps runs its pure-Python encoder, so only the
    # config, the summary and one placeholder entry (none if there are no
    # entries) go through it; the joined entry texts take the placeholder's
    # place. Imported here, as no other format needs it.
    import json

    text = json.dumps({"config": config, "entries": ["%s"][:len(texts)], "summary": summary},
                      indent=2, sort_keys=True)
    head, _, tail = text.partition('\n    "%s"')
    return "".join([head, ",".join(texts), tail, "\n"])


def _row_entry(template: str, words, modes, wlen):
    # A CSV row and a text line take the same values: p, the exponents, the
    # verdicts of the modes in table order, agree, and the witness monomial
    # and power; a verdict of a mode not in MODES is not shown.
    order = [modes.index(m) for m in MODES if m in modes]
    if wlen is None:
        return lambda p, d, verdicts, agree, w: template % (
            p, *d, *[words[verdicts[i]] for i in order], words[agree])
    return lambda p, d, verdicts, agree, w: template % (
        p, *d, *[words[verdicts[i]] for i in order], words[agree], *w.monomial, w.power)


def _slots(count: int) -> str:
    # count %s cells of a semicolon-joined list
    return ";".join(["%s"] * count)


_CSV_HEADER = ",".join(["p", "d", *(f"verdict_{mode}" for mode in MODES),
                        "agree", "witness_monomial", "witness_power"])


def _csv_entry(n: int, modes, wlen):
    # No cell holds a comma, a quote or a line break, so csv.writer would
    # quote none: a row is its cells joined by commas. Every mode of MODES
    # has its column, blank where the entry has no verdict of that mode.
    cells = ["%s", _slots(n), *("%s" if m in modes else "" for m in MODES), "%s"]
    cells += ["", ""] if wlen is None else [_slots(wlen), "%s"]
    return _row_entry(",".join(cells), ("false", "true"), modes, wlen)


def _csv_report(config: dict, texts: list[str], summary: dict) -> str:
    return "\n".join([_CSV_HEADER, *texts]) + "\n"


def _text_entry(n: int, modes, wlen):
    parts = ["p=%s", "d=" + _slots(n), *(f"{m}=%s" for m in MODES if m in modes), "agree=%s"]
    if wlen is not None:
        parts += ["witness=" + _slots(wlen), "power=%s"]
    return _row_entry(" ".join(parts), ("no", "yes"), modes, wlen)


def _text_report(config: dict, texts: list[str], summary: dict) -> str:
    last = (
        f"summary: tuples={summary['tuples']} slp={summary['slp']} "
        f"non_slp={summary['non_slp']} disagreements={summary['disagreements']}"
    )
    return "\n".join([*texts, last]) + "\n"


_RENDERERS = {
    "json": (_json_entry, _json_report),
    "csv": (_csv_entry, _csv_report),
    "text": (_text_entry, _text_report),
}
FORMATS = tuple(_RENDERERS)  # verify --format


def _render(fmt: str, report: dict) -> str:
    # Each entry is rendered for its own shape, and each shape's renderer is
    # made once per call.
    maker, assemble = _RENDERERS[fmt]
    renderers = {}
    texts = []
    for e in report["entries"]:
        verdicts, witness = e["verdicts"], e["witness"]
        shape = (len(e["d"]), tuple(verdicts),
                 None if witness is None else len(witness["monomial"]))
        if shape not in renderers:
            renderers[shape] = maker(*shape)
        texts.append(renderers[shape](e["p"], e["d"], tuple(verdicts.values()), e["agree"],
                                      witness and SimpleNamespace(**witness)))
    return assemble(report["config"], texts, report["summary"])


def render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    ``report`` has the keys ``config``, ``entries`` and ``summary`` of a
    ``verify`` JSON report. The entries, nearly all of a report, are
    written from their fixed schema.
    """
    return _render("json", report)


def render_csv(report: dict) -> str:
    """The ``verify`` CSV report of ``report``: a header row, one row an entry."""
    return _render("csv", report)


def render_text(report: dict) -> str:
    """The ``verify`` text report of ``report``: one line an entry, then the summary."""
    return _render("text", report)


def _cmd_verify(args) -> int:
    spec = _sweep_config(args)
    # opened before the sweep: an unwritable path fails at once, not after it
    try:
        handle = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    except OSError as exc:
        raise ValueError(f"cannot write report to {args.out}: {exc}") from None
    started = time.monotonic()
    try:
        payload, disagreements = _sweep(spec, args.jobs)
    except BaseException:
        if handle is not None:
            handle.close()  # a sweep that fails leaves the file empty, and closed
        raise
    elapsed = time.monotonic() - started
    if handle is None:
        # flushed before the elapsed line, so a failed write leaves one line on stderr
        sys.stdout.write(payload)
        sys.stdout.flush()
    else:
        try:
            with handle:
                handle.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write report to {args.out}: {exc}") from None
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0 if disagreements == 0 else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lefschetz",
        description="Decide the strong/weak Lefschetz property of monomial "
        "complete intersections over GF(p), exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide the SLP for one algebra")
    check.add_argument("--p", type=int, required=True, help="prime characteristic")
    check.add_argument("--d", required=True, help="comma-separated exponents, e.g. 2,3")
    check.add_argument("--mode", default="all", choices=("all",) + MODES,
                       help="decision route (default: all applicable, cross-checked)")
    check.set_defaults(func=_cmd_check, property="slp", witness=True)

    cls = sub.add_parser("classify", help="closed-form classification only")
    cls.add_argument("--p", type=int, required=True)
    cls.add_argument("--d", required=True)
    cls.set_defaults(func=_cmd_check, property="slp", mode="digits", witness=False)

    wlp = sub.add_parser("wlp", help="decide the WLP for one algebra")
    wlp.add_argument("--p", type=int, required=True)
    wlp.add_argument("--d", required=True)
    wlp.set_defaults(func=_cmd_check, property="wlp", mode="all", witness=False)

    syz = sub.add_parser("syzgap", help="syzygy gap of x^d1, y^d2, (x+y)^d3")
    syz.add_argument("--p", type=int, required=True)
    syz.add_argument("--d", required=True, help="three degrees, e.g. 2,2,2")
    syz.set_defaults(func=_cmd_syzgap)

    verify = sub.add_parser(
        "verify", help="sweep a grid and cross-verify routes", fromfile_prefix_chars="@",
        description="Sweep a grid of algebras and cross-verify decision routes. An argument "
        "@FILE reads options from FILE, one a line ('--max 6' or '--max=6'); blank lines "
        "and lines starting with '#' are skipped, and later arguments override earlier ones.",
    )
    verify.add_argument("--primes", required=True, help="comma-separated primes, e.g. 2,3,5")
    verify.add_argument("--n", type=int, default=2,
                        help="number of variables (default %(default)s)")
    verify.add_argument("--max", type=int, default=6,
                        help="largest exponent per variable (default %(default)s)")
    verify.add_argument("--modes", required=True, help=f"subset of {','.join(MODES)}")
    verify.add_argument("--format", default="text", choices=FORMATS,
                        help="report format (default %(default)s)")
    verify.add_argument("--out", help="write the report to FILE instead of stdout")
    verify.add_argument("--jobs", type=int,
                        help="parallel workers (default: available processors)")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # Flushed here, so that a failed write is reported below: left to the
        # interpreter's last flush at exit, it would end in exit code 120.
        sys.stdout.flush()
        return code
    except ValueError as exc:
        # cli's own refusals and the library's argument checks alike
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # The commands report their own file errors as usage errors, so this
        # is a failed write of stdout. Exit 1 would read as a verdict.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A failed internal check is no verdict either: exit 1 would read as
        # "no SLP" or as a disagreement.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
