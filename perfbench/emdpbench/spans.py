"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, round]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``round`` the operation that caused it.
Spans come from two places: ``Tracer.span`` around the benchmark's own calls
into the package, and wrappers installed on the names that one ``emdp`` layer
looks up in another (``emdp.audit.emd``, ``emdp.reduction.substream``, ...).
The wrappers are installed only for the traced pass and removed after it, so
the untraced measurements run the package unmodified.
"""
from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Iterator

import emdp.audit
import emdp.frequency
import emdp.linear_mech
import emdp.metric_space
import emdp.reduction
import emdp.shuffle_amp

# Names the traced pass wraps, as (owner, attribute, span name). Each is
# looked up at call time by another layer, so wrapping the attribute traces
# every cross-layer call without touching the package source.
LAYER_BOUNDARIES = (
    (emdp.metric_space, "validate_distance_table", "metric_space.validate"),
    (emdp.reduction, "substream", "rng.substream"),
    (emdp.frequency, "substream", "rng.substream"),
    (emdp.reduction, "project", "reduction.project"),
    (emdp.shuffle_amp, "effective_budget", "shuffle_amp.effective_budget"),
    (emdp.shuffle_amp.TransitionMechanism, "__post_init__", "shuffle_amp.certify"),
    (emdp.audit, "emd", "transport.emd"),
    (emdp.audit, "exact_itemwise_distribution", "audit.law"),
    (emdp.audit, "hockey_stick", "audit.hockey_stick"),
    (emdp.linear_mech, "lipschitz_constant", "linear_mech.lipschitz"),
)


def _count_law(tracer: "Tracer", args: tuple, result: Any) -> None:
    data, mech = args[0], args[1]
    tracer.count("audit.law_tuples", mech.out_size ** data.size)
    tracer.count("audit.law_multisets", len(result))


COUNTERS: dict[str, Callable[["Tracer", tuple, Any], None]] = {"audit.law": _count_law}


class NullTracer:
    """Stand-in used by untraced runs: every hook is a no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def distinct(self, name: str, key: Any) -> None:
        pass


class Tracer:
    """Records spans, counters and distinct-key sets in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self.round: Any = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.round]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def distinct(self, name: str, key: Any) -> None:
        self.keys.setdefault(name, set()).add(key)

    def wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer boundary for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in LAYER_BOUNDARIES:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, round."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics from self time, as metric -> span names summed. Spans that
# wrap no traced child have self time equal to their duration.
SELF_TIME_METRICS = {
    "metric_space.validate_s": ("metric_space.validate",),
    "shuffle_amp.certify_s": ("shuffle_amp.certify",),
    "rng.substream_s": ("rng.substream",),
    "reduction.project_s": ("reduction.project",),
    "frequency.freq_est_local_s": ("frequency.freq_est_local",),
    "transport.emd_s": ("transport.emd",),
    "linear_mech.lipschitz_s": ("linear_mech.lipschitz",),
    "linear_mech.release_self_s": ("linear_mech.release",),
    "audit.law_s": ("audit.law",),
    "audit.hockey_stick_s": ("audit.hockey_stick",),
    "audit.self_s": ("audit.verify_emd_dp", "audit.verify_item"),
}

# Metric -> (unit, better), in the order the traced run prints them.
PER_LAYER = {
    "metric_space.validate_s": ("s", "lower"),
    "metric_space.validate_calls": ("count", "lower"),
    "shuffle_amp.certify_s": ("s", "lower"),
    "shuffle_amp.calibrate_s": ("s", "lower"),
    "shuffle_amp.effective_budget_calls_per_calibration": ("count", "lower"),
    "rng.substream_s": ("s", "lower"),
    "rng.substream_calls_per_user": ("count", "lower"),
    "reduction.project_s": ("s", "lower"),
    "reduction.project_calls": ("count", "lower"),
    "frequency.freq_est_local_s": ("s", "lower"),
    "frequency.users_estimated": ("count", "higher"),
    "transport.emd_s": ("s", "lower"),
    "transport.emd_calls": ("count", "lower"),
    "transport.emd_calls_per_unordered_pair": ("count", "lower"),
    "linear_mech.lipschitz_s": ("s", "lower"),
    "linear_mech.lipschitz_calls_per_distinct_query": ("count", "lower"),
    "linear_mech.release_self_s": ("s", "lower"),
    "audit.law_s": ("s", "lower"),
    "audit.law_tuples_per_multiset": ("count", "lower"),
    "audit.hockey_stick_s": ("s", "lower"),
    "audit.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the overhead, which needs untraced numbers.

    Layers a workload does not exercise report 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for rec, t in zip(spans, own):
        self_by_name[rec[0]] = self_by_name.get(rec[0], 0.0) + t
        calls[rec[0]] = calls.get(rec[0], 0) + 1

    def child_calls(name: str, parent: str) -> int:
        return sum(1 for rec in spans if rec[0] == name and rec[3] >= 0 and spans[rec[3]][0] == parent)

    out = {metric: sum(self_by_name.get(n, 0.0) for n in names) for metric, names in SELF_TIME_METRICS.items()}
    counts = tracer.counts
    users = counts.get("frequency.users_estimated", 0)
    out.update({
        "metric_space.validate_calls": calls.get("metric_space.validate", 0),
        "shuffle_amp.calibrate_s": sum(e - s for n, s, e, _, _ in spans if n == "shuffle_amp.calibrate"),
        "shuffle_amp.effective_budget_calls_per_calibration": _ratio(
            child_calls("shuffle_amp.effective_budget", "shuffle_amp.calibrate"), calls.get("shuffle_amp.calibrate", 0)
        ),
        "rng.substream_calls_per_user": _ratio(calls.get("rng.substream", 0), users),
        "reduction.project_calls": calls.get("reduction.project", 0),
        "frequency.users_estimated": users,
        "transport.emd_calls": calls.get("transport.emd", 0),
        "transport.emd_calls_per_unordered_pair": _ratio(
            child_calls("transport.emd", "audit.verify_emd_dp"), counts.get("audit.unordered_pairs", 0)
        ),
        "linear_mech.lipschitz_calls_per_distinct_query": _ratio(
            calls.get("linear_mech.lipschitz", 0), len(tracer.keys.get("linear_mech.queries", ()))
        ),
        "audit.law_tuples_per_multiset": _ratio(
            counts.get("audit.law_tuples", 0), counts.get("audit.law_multisets", 0)
        ),
        "trace.spans": len(spans),
    })
    return out
