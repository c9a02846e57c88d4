"""In-memory spans around the calls into each ``lefschetz`` layer.

Wrappers go on the module attributes the callers look up, for example
``lefschetz_oracle.rank`` rather than ``prime_field.rank``, because the
callers bind the name at import. A target that a later version removes or
renames is listed as absent and skipped; every patched name is restored on
exit. Spans stay in memory until the traced run ends.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

ROUTES = (
    "lefschetz_oracle.is_slp_oracle",
    "syzygy_gap.slp_via_delta",
    "classifier.manhattan_check",
    "classifier.classify",
)
WITNESS = "lefschetz_oracle.kernel_witness"
ROOT = "cli.verify"


def cells(matrix) -> int:
    """rows * cols of a matrix, a graded map holding one, or a numpy array."""
    matrix = getattr(matrix, "matrix", matrix)
    if hasattr(matrix, "rows") and hasattr(matrix, "cols"):
        return matrix.rows * matrix.cols
    if hasattr(matrix, "shape"):
        rows, cols = matrix.shape
        return rows * cols
    return len(matrix) * (len(matrix[0]) if len(matrix) else 0)


def _first_arg(args, result):
    return cells(args[0])


def _result(args, result):
    return cells(result)


# (module the caller looks the name up in, attribute, span name, size of the work)
TARGETS = (
    ("lefschetz.lefschetz_oracle", "rank", "prime_field.rank", _first_arg),
    ("lefschetz.syzygy_gap", "rank", "prime_field.rank", _first_arg),
    ("lefschetz.lefschetz_oracle", "mult_matrix", "graded_quotient.mult_matrix", _result),
    ("lefschetz.lefschetz_oracle", "max_rank_in_every_degree",
     "lefschetz_oracle.max_rank_in_every_degree", None),
    ("lefschetz.syzygy_gap", "presentation_matrix", "syzygy_gap.presentation_matrix", _result),
    ("lefschetz.syzygy_gap", "syzygy_profile", "syzygy_gap.syzygy_profile", None),
    ("lefschetz.cli", "is_slp_oracle", "lefschetz_oracle.is_slp_oracle", None),
    ("lefschetz.cli", "slp_via_delta", "syzygy_gap.slp_via_delta", None),
    ("lefschetz.cli", "manhattan_check", "classifier.manhattan_check", None),
    ("lefschetz.cli", "classify", "classifier.classify", None),
    ("lefschetz.cli", "kernel_witness", WITNESS, None),
    ("lefschetz.cli", "render_json", "cli.render", None),
    ("lefschetz.cli", "render_csv", "cli.render", None),
    ("lefschetz.cli", "render_text", "cli.render", None),
)


class Tracer:
    """Patches the targets on entry and restores them on exit.

    Each span is ``[name, parent index or -1, start, end, cells]``.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, sizer in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, sizer))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, sizer):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if sizer is not None:
                record[4] = sizer(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _percentile(sorted_values: list[float], q: float) -> float:
    # Nearest rank.
    if not sorted_values:
        return 0.0
    index = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(index)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics named ``<module>.<function>.<stat>``.

    ``busy_s`` is total span time; ``self_s`` is span time minus the time of
    its child spans. ``cli.self_s`` is the root span minus the route and
    witness spans, so it holds argument handling, sorting and rendering.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for index, (name, parent, start, end, size) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0,
                                    "entries": 0, "max_entries": 0, "durations": []})
        s["calls"] += 1
        s["busy"] += end - start
        s["self"] += end - start - child_time[index]
        s["entries"] += size
        s["max_entries"] = max(s["max_entries"], size)
        s["durations"].append(end - start)
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "entries": 0, "max_entries": 0,
             "durations": []}

    def get(name):
        return stats.get(name, empty)

    rank = get("prime_field.rank")
    out = {
        "prime_field.rank.calls": rank["calls"],
        "prime_field.rank.busy_s": rank["busy"],
        "prime_field.rank.entries": rank["entries"],
        "prime_field.rank.max_entries": rank["max_entries"],
        "lefschetz_oracle.max_rank_in_every_degree.calls":
            get("lefschetz_oracle.max_rank_in_every_degree")["calls"],
        "lefschetz_oracle.max_rank_in_every_degree.self_s":
            get("lefschetz_oracle.max_rank_in_every_degree")["self"],
        "syzygy_gap.syzygy_profile.calls": get("syzygy_gap.syzygy_profile")["calls"],
        "syzygy_gap.syzygy_profile.self_s": get("syzygy_gap.syzygy_profile")["self"],
        f"{WITNESS}.calls": get(WITNESS)["calls"],
        f"{WITNESS}.busy_s": get(WITNESS)["busy"],
        "cli.render.busy_s": get("cli.render")["busy"],
    }
    for name in ("graded_quotient.mult_matrix", "syzygy_gap.presentation_matrix"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_s"] = get(name)["self"]
        out[f"{name}.entries"] = get(name)["entries"]
    for name in ROUTES:
        durations = sorted(get(name)["durations"])
        out[f"{name}.self_s"] = get(name)["self"]
        out[f"{name}.p50_ms"] = 1e3 * _percentile(durations, 50)
        out[f"{name}.p99_ms"] = 1e3 * _percentile(durations, 99)
    routed = sum(get(name)["busy"] for name in ROUTES + (WITNESS,))
    out["cli.self_s"] = get(ROOT)["busy"] - routed
    return out
