"""In-memory spans around the library calls each layer is entered through.

The benchmark never edits the package: it replaces, for the length of a
traced run, the module attributes that callers actually look up (for example
``tensorcert.certifier.find_T_selection``, which the certifier imported by
name) with a wrapper that records a span, and puts the originals back
afterwards.  A binding that no longer exists is reported as absent instead of
failing the run, so later refactors that rename or delete a function only
blank that layer's numbers.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

OP_SPAN = "cli.main"
GATE_OP = "gate"  # op id of spans recorded while the answers are checked


def _first_is_true(result: Any) -> dict:
    return {"true": bool(result[0])}


def _is_true(result: Any) -> dict:
    return {"true": bool(result)}


def _least_squares_info(result: Any) -> dict:
    return {"nfev": getattr(result, "nfev", None) or 0, "njev": getattr(result, "njev", None) or 0}


def _completion_info(result: Any) -> dict:
    return {"converged": getattr(result, "converged", 0), "starts": getattr(result, "starts", 0)}


@dataclass(frozen=True)
class Layer:
    name: str  # "<module>.<function>", the key of its metrics
    bindings: tuple[tuple[str, str], ...]  # (module, attribute) pairs callers look up
    info: Optional[Callable[[Any], dict]] = None  # facts read from the return value


LAYERS = (
    Layer("core.read_pattern", (("tensorcert.cli", "read_pattern"),)),
    Layer("assumptions.find_T_selection", (("tensorcert.certifier", "find_T_selection"),)),
    Layer("assumptions.check_Aj", (("tensorcert.assumptions", "check_Aj"),), _first_is_true),
    Layer("assumptions.check_Aj_plus", (("tensorcert.assumptions", "check_Aj_plus"),), _first_is_true),
    Layer("assumptions.selection_pins_factors", (("tensorcert.assumptions", "selection_pins_factors"),)),
    Layer("constraint.build_constraint", (("tensorcert.certifier", "build_constraint"),)),
    Layer("certifier.generic_rank_finite", (("tensorcert.certifier", "generic_rank_finite"),), _is_true),
    Layer("certifier.thm4_dependent", (("tensorcert.certifier", "thm4_dependent"),)),
    Layer(
        "certifier.certify_finite",
        (("tensorcert.cli", "certify_finite"), ("tensorcert.certifier", "certify_finite")),
    ),
    Layer("certifier.certify_unique", (("tensorcert.cli", "certify_unique"),)),
    Layer("oracle.enumerate_completions", (("tensorcert.cli", "enumerate_completions"),), _completion_info),
    Layer("oracle.least_squares", (("tensorcert.oracle", "least_squares"),), _least_squares_info),
    Layer("oracle.jacobian_rank", (("tensorcert.oracle", "jacobian_rank"),)),
    Layer("hallgraph.defect_at_least", (("tensorcert.montecarlo", "defect_at_least"),), _first_is_true),
    Layer("montecarlo.estimate", (("tensorcert.cli", "estimate"),)),
    Layer("montecarlo.sample_column_graph", (("tensorcert.montecarlo", "sample_column_graph"),)),
)

# Every per-layer metric a traced run reports, with its unit, in print order.
METRICS: tuple[tuple[str, str], ...] = (
    ("cli.main.calls", "count"),
    ("cli.main.total_s", "s"),
    ("cli.self_s", "s"),
    ("core.read_pattern.calls", "count"),
    ("core.read_pattern.total_s", "s"),
    ("assumptions.find_T_selection.calls", "count"),
    ("assumptions.find_T_selection.total_s", "s"),
    ("assumptions.find_T_selection.self_s", "s"),
    ("assumptions.check_Aj.calls", "count"),
    ("assumptions.check_Aj.total_s", "s"),
    ("assumptions.check_Aj_plus.calls", "count"),
    ("assumptions.check_Aj_plus.total_s", "s"),
    ("assumptions.selection_pins_factors.calls", "count"),
    ("assumptions.selection_pins_factors.total_s", "s"),
    ("assumptions.selection_accept_ratio", "ratio"),
    ("constraint.build_constraint.calls", "count"),
    ("constraint.build_constraint.total_s", "s"),
    ("certifier.generic_rank_finite.calls", "count"),
    ("certifier.generic_rank_finite.total_s", "s"),
    ("certifier.generic_rank_finite.true_ratio", "ratio"),
    ("certifier.rank_probes_per_op", "count/op"),
    ("certifier.selections_per_op", "count/op"),
    ("certifier.thm4_dependent.calls", "count"),
    ("certifier.thm4_dependent.total_s", "s"),
    ("certifier.certify_finite.calls", "count"),
    ("certifier.certify_finite.total_s", "s"),
    ("certifier.certify_finite.self_s", "s"),
    ("certifier.certify_unique.calls", "count"),
    ("certifier.certify_unique.total_s", "s"),
    ("certifier.certify_unique.self_s", "s"),
    ("oracle.enumerate_completions.calls", "count"),
    ("oracle.enumerate_completions.total_s", "s"),
    ("oracle.least_squares.calls", "count"),
    ("oracle.least_squares.total_s", "s"),
    ("oracle.least_squares.nfev", "count"),
    ("oracle.least_squares.njev", "count"),
    ("oracle.least_squares.s_per_eval", "s"),
    ("oracle.converged_ratio", "ratio"),
    ("oracle.jacobian_rank.calls", "count"),
    ("oracle.jacobian_rank.total_s", "s"),
    ("hallgraph.defect_at_least.calls", "count"),
    ("hallgraph.defect_at_least.total_s", "s"),
    ("hallgraph.defect_at_least.true_ratio", "ratio"),
    ("montecarlo.estimate.calls", "count"),
    ("montecarlo.estimate.total_s", "s"),
    ("montecarlo.estimate.self_s", "s"),
    ("montecarlo.sample_column_graph.calls", "count"),
    ("montecarlo.sample_column_graph.total_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


class Tracer:
    """Spans as [name, start, end, parent index, op id, info], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: Any = None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             info: Optional[Callable[[Any], dict]] = None) -> Any:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if info is not None:
            span[5] = info(result)
        return result

    def wrap(self, name: str, fn: Callable, info: Optional[Callable[[Any], dict]]) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if info is not None:
                    record["info"] = info
                fh.write(json.dumps(record) + "\n")


@contextmanager
def installed(tracer: Tracer, layers: Sequence[Layer] = LAYERS) -> Iterator[list[str]]:
    """Wrap every binding that exists; yields the names of absent layers."""
    patched = []
    absent = []
    try:
        for layer in layers:
            found = False
            for module_name, attr in layer.bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                setattr(module, attr, tracer.wrap(layer.name, original, layer.info))
                patched.append((module, attr, original))
                found = True
            if not found:
                absent.append(layer.name)
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_times(spans: Sequence[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover (the
    load is single-threaded, so children never overlap)."""
    selfs = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[list], untraced_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed as in METRICS.

    `untraced_s` is the wall time the same ops took with tracing off."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    facts: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # outermost span of its layer: count its time once
            total[name] = total.get(name, 0.0) + (end - start)
        if info:
            acc = facts.setdefault(name, {})
            for key, value in info.items():
                acc[key] = acc.get(key, 0) + value

    def fact(name: str, key: str) -> float:
        return facts.get(name, {}).get(key, 0)

    ops = calls.get(OP_SPAN, 0)
    out: dict[str, float] = {}
    for metric, _unit in METRICS:
        head, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(head, 0)
        elif kind == "total_s":
            out[metric] = total.get(head, 0.0)
        elif kind == "self_s" and head in self_s:
            out[metric] = self_s[head]
    out["cli.self_s"] = self_s.get(OP_SPAN, 0.0)
    checks = calls.get("assumptions.check_Aj", 0) + calls.get("assumptions.check_Aj_plus", 0)
    accepted = fact("assumptions.check_Aj", "true") + fact("assumptions.check_Aj_plus", "true")
    out["assumptions.selection_accept_ratio"] = _ratio(accepted, checks)
    out["certifier.generic_rank_finite.true_ratio"] = _ratio(
        fact("certifier.generic_rank_finite", "true"), calls.get("certifier.generic_rank_finite", 0)
    )
    out["certifier.rank_probes_per_op"] = _ratio(calls.get("certifier.generic_rank_finite", 0), ops)
    out["certifier.selections_per_op"] = _ratio(calls.get("assumptions.find_T_selection", 0), ops)
    nfev = fact("oracle.least_squares", "nfev")
    out["oracle.least_squares.nfev"] = nfev
    out["oracle.least_squares.njev"] = fact("oracle.least_squares", "njev")
    out["oracle.least_squares.s_per_eval"] = _ratio(total.get("oracle.least_squares", 0.0), nfev)
    out["oracle.converged_ratio"] = _ratio(
        fact("oracle.enumerate_completions", "converged"), fact("oracle.enumerate_completions", "starts")
    )
    out["hallgraph.defect_at_least.true_ratio"] = _ratio(
        fact("hallgraph.defect_at_least", "true"), calls.get("hallgraph.defect_at_least", 0)
    )
    out["trace_overhead_frac"] = _ratio(total.get(OP_SPAN, 0.0), untraced_s) - 1.0
    for metric, _unit in METRICS:
        out.setdefault(metric, 0.0)
    return out


def op_self_sum(spans: Sequence[list]) -> tuple[float, float]:
    """(sum of self times of every span inside an op, total op time); the two
    agree when the spans nest cleanly."""
    selfs = self_times(spans)
    inside = sum(s for s, span in zip(selfs, spans) if span[4] != GATE_OP)
    ops = sum(end - start for name, start, end, parent, _, _ in spans if name == OP_SPAN and parent < 0)
    return inside, ops
