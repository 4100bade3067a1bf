"""Span tracer that times lislab's layers from outside the package.

Each traced function is replaced, in every lislab module that binds it by
name, with a wrapper that records a span: its name, start, end and the span
that was open when it began. Some wrappers also add to work counters (for
example the DP cells a `pair_weight` call fills). Spans stay in memory; the
per-layer table is computed from them when the run ends.

The benchmark is one caller in one thread, so spans nest strictly and no
work ever waits in a queue: there is no per-layer wait time to report.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from lislab.robp import DistinguisherError


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_symbols(counts, args, kwargs, result):
    counts["core.lis_patience.symbols"] += len(_arg(args, kwargs, 0, "x").symbols)


def _count_attempts(counts, args, kwargs, result):
    counts["codes.gen_inner_binary.attempts"] += result.meta["attempts"]


def _count_pairs(counts, args, kwargs, result):
    size = _arg(args, kwargs, 0, "code").size
    counts["codes.min_distance.pairs"] += size * (size - 1) // 2


def _count_codewords(counts, args, kwargs, result):
    counts["codes.gen_outer.codewords"] += result.size


def _count_items(counts, args, kwargs, result):
    order = _arg(args, kwargs, 2, "order")
    counts["orders.run_stream.items"] += order.n * _arg(args, kwargs, 3, "passes", 1)


def _count_state_bytes(counts, args, kwargs, result):
    counts["orders.state_bytes.bytes"] += len(result)


def _count_dp_cells(counts, args, kwargs, result):
    rows = 9 * _arg(args, kwargs, 2, "inner").length
    cols = 8 * len(_arg(args, kwargs, 0, "u"))
    counts["type2.pair_weight.dp_cells"] += rows * cols


def _count_distinguisher_failure(counts, exc):
    if isinstance(exc, DistinguisherError):
        counts["robp.build_distinguisher.failed"] += 1


def _count_file_bytes(counts, args, kwargs, result):
    counts["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _suite_span(args, kwargs):
    return f"cli.run_suite.{_arg(args, kwargs, 0, 'name')}"


@dataclass(frozen=True)
class Target:
    """One traced callable: `attr` in `module`, `Class.method` for methods.

    `span` False makes a counter-only wrapper; `name` overrides the span
    name, per call when it is a function of the call's arguments.
    """

    module: str
    attr: str
    count: Callable | None = None
    on_error: Callable | None = None
    span: bool = True
    name: Callable | None = None


TARGETS = (
    Target("core", "lis_patience", _count_symbols),
    Target("core", "lis_dp"),
    Target("core", "lis_exhaustive"),
    Target("codes", "gen_inner_binary", _count_attempts),
    Target("codes", "min_distance", _count_pairs),
    Target("codes", "gen_outer", _count_codewords),
    Target("codes", "sampled_distance_floor"),
    Target("orders", "run_stream", _count_items),
    Target("orders", "StoreAll.state_bytes", _count_state_bytes),
    Target("orders", "NaturalOrderPatience.state_bytes", _count_state_bytes),
    Target("orders", "type1_witness"),
    Target("orders", "banded_order"),
    Target("orders", "random_order"),
    Target("type1", "gap_code"),
    Target("type1", "build_z"),
    Target("type1", "embed_in_order"),
    Target("type2", "pair_weight", _count_dp_cells),
    Target("type2", "matrix_array"),
    Target("type2", "build_matrix"),
    Target("type2", "grid_max_weight"),
    Target("type2", "lis_equals_max_path_check"),
    Target("type2", "matrix_chain"),
    Target("robp", "build_distinguisher", on_error=_count_distinguisher_failure),
    Target("robp", "search_separated_family"),
    Target("robp", "verify_separated_family"),
    Target("robp", "check_read_once"),
    Target("robp", "check_computes_lis"),
    Target("robp", "evaluate"),
    Target("fooling", "type1_game"),
    Target("fooling", "check_fooling_set"),
    Target("cli", "run_suite", name=_suite_span),
    Target("cli", "main"),
    # the writers cmd_gen calls: counted, their time stays in cli.main
    Target("cli", "write_sequence_file", _count_file_bytes, span=False),
    Target("cli", "write_matrix_file", _count_file_bytes, span=False),
    Target("cli", "_write_json", _count_file_bytes, span=False),
)

SUITES = (
    "distinguisher", "es", "family", "fooling", "grid", "oracles",
    "random-order", "type1", "type2",
)

COUNTERS = (
    "core.lis_patience.symbols",
    "codes.gen_inner_binary.attempts",
    "codes.min_distance.pairs",
    "codes.gen_outer.codewords",
    "orders.run_stream.items",
    "orders.state_bytes.bytes",
    "type2.pair_weight.dp_cells",
    "robp.build_distinguisher.failed",
    "cli.bytes_written",
)


def span_names() -> list[str]:
    return [f"{t.module}.{t.attr}" for t in TARGETS if t.span]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"cli.run_suite.{suite}.self_s" for suite in SUITES]
    names += list(COUNTERS)
    names.append("trace_overhead_ratio")
    return names


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    `spans` is a list of (name, start, end, parent) with parent the index
    of the enclosing span, or -1 at the root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Patches the targets while active; collects spans and counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._patched: list[str] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        static_name = f"{target.module}.{target.attr}"
        name_of, count, on_error = target.name, target.count, target.on_error

        if not target.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                name = name_of(args, kwargs) if name_of else static_name
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "lislab" or name.startswith("lislab.")
        ]
        for target in TARGETS:
            home = sys.modules[f"lislab.{target.module}"]
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(target, original))
                continue
            original = getattr(home, target.attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patched = [
            f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in self._undo
        ]
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def bindings(self) -> list[str]:
        """Names of every binding the last activation patched, as module.attr."""
        return sorted(self._patched)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, self seconds and counters, by metric name."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            self_s[name] += own
            if name.startswith("cli.run_suite."):
                calls["cli.run_suite"] += 1
                self_s["cli.run_suite"] += own

        def per_pass(total):
            return total // passes if total % passes == 0 else total / passes

        out: dict[str, float] = {}
        for span in span_names():
            out[f"{span}.calls"] = per_pass(calls[span])
            out[f"{span}.self_s"] = self_s[span] / passes
        for suite in SUITES:
            out[f"cli.run_suite.{suite}.self_s"] = self_s[f"cli.run_suite.{suite}"] / passes
        for name in COUNTERS:
            out[name] = per_pass(self.counts[name])
        return out
