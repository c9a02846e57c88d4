"""Workload definitions and the output checks of the sweep benchmark.

The checks run outside the timed region and use nothing from ``lefschetz``:
the grid, the known SLP answer for t < p and the kernel witnesses are all
re-derived here with plain integers and :func:`math.comb`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One fixed ``verify`` grid and the sha256 of its JSON report."""

    name: str
    primes: tuple[int, ...]
    n: int
    max_exponent: int
    modes: tuple[str, ...]
    digest: str
    # Every algebra has the SLP, known independently of every route.
    all_slp: bool = False

    def argv(self, jobs: int, out: str) -> list[str]:
        return [
            "verify",
            "--primes", ",".join(map(str, self.primes)),
            "--n", str(self.n),
            "--max", str(self.max_exponent),
            "--modes", ",".join(self.modes),
            "--format", "json",
            "--jobs", str(jobs),
            "--out", out,
        ]

    def grid(self) -> list[tuple[int, tuple[int, ...]]]:
        """The (p, d) pairs the report must list, in report order."""
        out = []

        def tuples(prefix, minimum):
            if len(prefix) == self.n:
                out.append((p, prefix))
                return
            for d in range(minimum, self.max_exponent + 1):
                tuples(prefix + (d,), d)

        for p in sorted(self.primes):
            tuples((), 2)
        return out

    @property
    def algebras(self) -> int:
        return len(self.grid())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-n2", (2, 3, 5, 7), 2, 30, ("oracle", "digits", "manhattan", "delta"),
            "09e20572bbab832102e0d0a854958d1d443e879f99116f190fc8dc3f73daa292",
        ),
        Workload(
            "sweep-n3-largep", (31,), 3, 10, ("oracle", "digits"),
            "a0809aab083c71ded611d99aa61d7068f6249ed7caa247f2e84b9dfe4174bd6c",
            all_slp=True,
        ),
        Workload(
            "sweep-n2-digits", (2, 3, 5, 7), 2, 80, ("digits", "manhattan"),
            "e1a9f63fdf14054fc981bc416fd7eff245a65f8c49b4f9bac8c34dec195562f5",
        ),
    )
}


def _hilbert_2(a: int, b: int, k: int) -> int:
    # Monomials x^i y^(k-i) with i < a and k - i < b.
    return max(0, min(k, a - 1) - max(0, k - b + 1) + 1)


def witness_ok(p: int, a: int, b: int, witness: dict) -> bool:
    """Whether x^e1 y^e2 is a nonzero element of K[x,y]/(x^a, y^b) that
    (x + y)^power kills, with a source piece no larger than the target piece:
    a certificate that multiplication by that power misses maximal rank."""
    try:
        e1, e2 = witness["monomial"]
        power = witness["power"]
        target = witness["target_degree"]
    except (KeyError, TypeError, ValueError):
        return False
    if not (0 <= e1 < a and 0 <= e2 < b and power >= 1 and target == e1 + e2 + power):
        return False
    for j in range(power + 1):
        if e1 + j < a and e2 + power - j < b and math.comb(power, j) % p:
            return False
    return _hilbert_2(a, b, e1 + e2) <= _hilbert_2(a, b, target)


def entry_failures(workload: Workload, report: dict) -> int:
    """Number of report entries that fail the route-independent checks, or
    every algebra if the report does not list exactly the workload's grid."""
    try:
        entries = report["entries"]
        listed = [(e["p"], tuple(e["d"])) for e in entries]
    except (KeyError, TypeError):
        return workload.algebras
    if listed != workload.grid() or report.get("summary", {}).get("disagreements") != 0:
        return workload.algebras
    failed = 0
    for e in entries:
        verdicts = list(e["verdicts"].values())
        slp = bool(verdicts) and verdicts[0] is True
        ok = e["agree"] is True and len(set(verdicts)) == 1
        if workload.all_slp:
            ok = ok and slp
        if workload.n == 2:
            w = e["witness"]
            ok = ok and (w is None if slp else w is not None and witness_ok(e["p"], *e["d"], w))
        failed += not ok
    return failed


class ReportChecker:
    """Counts failed algebras per ``verify`` run; a report's entries are
    checked once per distinct content."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._by_digest: dict[str, int] = {}

    def failed(self, data: bytes | None) -> int:
        """Failed algebras of one run: all of them if it wrote no report
        (``None``: it crashed or exited non-zero) or a report other than
        the recorded one."""
        if data is None:
            return self.workload.algebras
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.workload.digest:
            return self.workload.algebras
        if digest not in self._by_digest:
            self._by_digest[digest] = entry_failures(self.workload, json.loads(data))
        return self._by_digest[digest]
