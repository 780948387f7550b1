"""Span tracing of the library's public functions, from outside the library.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper at every
module attribute that holds it, which is where its callers look it up (for
example ``certificate.forward`` as well as ``model.forward``).  A wrapper
records a span only while an item is open, so work outside the timed items,
such as the correctness gate, leaves no trace.  Spans and counts stay in
memory until the run writes them out.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous and single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional

MODULES = ("model", "gradients", "training", "targets", "certificate", "simplex", "decisions", "cli")

_KIND_SUFFIX = {"CappedSimplex": "capped", "Simplex": "simplex", "Box": "box"}


def _rows(position: int, name: str):
    """Counts the rows of the batch argument; a single point is one row."""

    def measure(args, kwargs, result) -> dict:
        X = args[position] if len(args) > position else kwargs[name]
        return {"rows": X.shape[0] if getattr(X, "ndim", 1) == 2 else 1}

    return measure


def _lift_rows(args, kwargs, result) -> dict:
    return {"rows": result.num_rows}


def _tableau_bytes(args, kwargs, result) -> dict:
    """Bytes of solve_min_geq's dense tableau: one row per constraint plus the
    objective, one column per variable, surplus and artificial (one for every
    row with b > 0), plus the right-hand side."""
    A = args[1] if len(args) > 1 else kwargs["A"]
    b = args[2] if len(args) > 2 else kwargs["b"]
    m, n = A.shape
    n_art = int((b > 0.0).sum())
    return {"tableau_bytes": 8 * (m + 1) * (n + m + n_art + 1)}


def _projection(args, kwargs, result) -> dict:
    counts = _rows(1, "Y")(args, kwargs, result)
    feasible = args[0] if args else kwargs["feasible"]
    counts["kind"] = _KIND_SUFFIX[feasible.kind]
    return counts


# (module, public function, counts taken from its arguments and result)
TRACED = (
    ("certificate", "run_verification_trials", None),
    ("certificate", "diagnostics_report", None),
    ("certificate", "extract_dual_certificate", None),
    ("certificate", "socp_oracle_value", None),
    ("certificate", "build_lp_lift", _lift_rows),
    ("certificate", "simplex_lp_solve", None),
    ("simplex", "solve_min_geq", _tableau_bytes),
    ("model", "init_model", None),
    ("model", "forward", None),
    ("model", "batch_forward", _rows(1, "X")),
    ("gradients", "parameter_gradients", _rows(1, "batch_x")),
    ("gradients", "value_and_input_gradient_batch", _rows(1, "X")),
    ("training", "fit_variant_to_target", None),
    ("training", "sample_uniform_dataset", None),
    ("training", "train", None),
    ("training", "relative_l2_error", None),
    ("targets", "target_values_batch", _rows(1, "X")),
    ("decisions", "sample_feasible", None),
    ("decisions", "project_onto_batch", _projection),
    ("decisions", "task_objective", _rows(2, "x")),
    ("decisions", "pgd_minimize", None),
    ("decisions", "minimize_task", None),
    ("decisions", "evaluate_decision_quality", None),
    ("cli", "decide_instance", None),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: int
    self_s: float
    counts: dict


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.items: List[tuple] = []  # (item id, start, end)
        self.missing: List[str] = []
        self._stack: List[list] = []  # [span index, seconds covered by children]
        self._item: Optional[int] = None
        self._patches: List[tuple] = []

    # -- items ---------------------------------------------------------------

    def begin_item(self, item: int) -> None:
        self._item = item

    def end_item(self, start: float, end: float) -> None:
        """Closes the open item, whose timed interval was [start, end]."""
        self.items.append((self._item, start, end))
        self._item = None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, measure=None) -> Callable:
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._item is None:
                return fn(*args, **kwargs)
            stack = self._stack
            index = len(self.spans)
            parent = stack[-1][0] if stack else None
            self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                counts = measure(args, kwargs, result) if measure and result is not None else {}
                self.spans[index] = Span(name, start, end, parent, self._item, end - start - frame[1], counts)

        return traced

    def install(self) -> None:
        """Wrap every function of TRACED at each module attribute holding it.
        A function that no longer exists is listed in ``missing``."""
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"socicnn.{name}")
            except ImportError:
                pass
        modules["socicnn"] = importlib.import_module("socicnn")
        for home, fn_name, measure in TRACED:
            original = getattr(modules.get(home), fn_name, None)
            if original is None:
                self.missing.append(f"{home}.{fn_name}")
                continue
            wrapper = self.wrap(f"{home}.{fn_name}", original, measure)
            for module in modules.values():
                if vars(module).get(fn_name) is original:
                    setattr(module, fn_name, wrapper)
                    self._patches.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patches):
            setattr(module, fn_name, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def totals(self, scales: Optional[Dict[int, float]] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive ms, self ms and summed counts.  A
        span with a ``kind`` count is also summed under ``<name>.<kind>``.
        ``scales`` maps an item to the factor its times are multiplied by."""
        agg: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            to_ms = 1e3 * (scales[span.item] if scales else 1.0)
            keys = [span.name]
            if "kind" in span.counts:
                keys.append(f"{span.name}.{span.counts['kind']}")
            for key in keys:
                entry = agg[key]
                entry["calls"] += 1
                entry["ms"] += (span.end - span.start) * to_ms
                entry["self_ms"] += span.self_s * to_ms
                for count, value in span.counts.items():
                    if count != "kind":
                        entry[count] += value
        return agg

    def child_count(self, name: str, parent_name: str) -> int:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        return sum(
            1
            for span in self.spans
            if span.name == name and span.parent is not None and self.spans[span.parent].name == parent_name
        )

    def item_self_seconds(self) -> Dict[int, float]:
        """Summed self time of every span, per item."""
        out: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            out[span.item] += span.self_s
        return out

    def to_json(self) -> dict:
        return {
            "fields": list(Span._fields),
            "spans": [list(span) for span in self.spans],
            "items": [list(item) for item in self.items],
            "missing": self.missing,
        }
