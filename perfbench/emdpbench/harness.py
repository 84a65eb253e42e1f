"""Closed-loop harness shared by the workloads.

One client issues operations one after another; each operation starts only
after the previous one returned. A workload object supplies:

- ``setup(seed)``: builds the inputs and everything the operations reuse;
- ``ops(state, seed)``: an endless iterator of ``Op``s, fixed by the seed;
- ``check(state, records)``: one failure message (or None) per record;
- ``metrics(records)``: its own end-to-end metrics;
- ``samples(records)``: the sample count behind each of those metrics;
- ``traced_ops``: how many operations the traced pass runs;
- ``min_ops``: how many operations a timed loop runs at least;
- ``probe()`` (a class method): a small instance of the workload, which
  reports its metrics from the runs of the other workloads.
"""
from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np
import scipy

from .spans import PER_LAYER, NullTracer, Tracer, layer_metrics

NULL_TRACER = NullTracer()

# Metric -> (unit, better, bound). The bound is the share of the parent's
# median by which the metric may worsen before a change counts as a regression.
# Timings get the largest bound allowed: on the shared two-core machine the
# benchmark was tuned on, machine speed drifts by 10-20% over minutes, which no
# run length averages out. Peak memory repeats within a few percent.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "freq.users_per_s_k64": ("users/s", "higher", 0.25),
    "freq.users_per_s_k256": ("users/s", "higher", 0.25),
    "linear.releases_per_s": ("releases/s", "higher", 0.25),
    "linear.release_p50_ms": ("ms", "lower", 0.25),
    "linear.release_p99_ms": ("ms", "lower", 0.25),
    "audit.pairs_per_s": ("pairs/s", "higher", 0.25),
}

# Set-up is repeated until both limits are met (or MAX_REPS is reached) and
# its median reported, so one slow repetition does not move setup_s.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 10_000

# Share of an untraced run spent on the probes of the other workloads.
PROBE_SHARE = 0.35

@dataclass
class Op:
    """One operation: ``run(tracer)`` does the work and returns its output."""

    kind: str
    work: float
    run: Callable[[Any], Any]
    round: int


@dataclass
class Record:
    op: Op
    output: Any
    error: str | None
    elapsed: float


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a timed loop, as ``timeit`` does.

    With it running, gen-2 collections over the benchmark's own records and
    inputs set the latency tail (single releases of 12-17 ms against 6 ms).
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_op(op: Op, tracer=NULL_TRACER) -> Record:
    """Run one operation; one that raises is recorded with its traceback."""
    if isinstance(tracer, Tracer):
        tracer.round = op.round
    t0 = perf_counter()
    try:
        output, error = op.run(tracer), None
    except Exception:  # one failed operation must not end the run
        output, error = None, traceback.format_exc()
    return Record(op, output, error, perf_counter() - t0)


def run_ops(
    ops: Iterator[Op],
    tracer=NULL_TRACER,
    seconds: float | None = None,
    count: int | None = None,
    min_count: int = 1,
) -> list[Record]:
    """Run operations back to back until ``seconds`` pass or ``count`` are done.

    At least ``min_count`` operations always run.
    """
    records: list[Record] = []
    start = perf_counter()
    while not (
        (count is not None and len(records) >= count)
        or (seconds is not None and len(records) >= min_count and perf_counter() - start >= seconds)
    ):
        records.append(run_op(next(ops), tracer))
    return records


def run_interleaved(streams: list[Iterator[Op]], min_counts: list[int], seconds: float) -> list[list[Record]]:
    """Share ``seconds`` equally among the streams, one operation at a time.

    The next operation always comes from the stream that has been busy the
    least, so the streams sample the run's slow drifts in machine speed alike.
    Every stream runs at least its ``min_counts`` operations.
    """
    records: list[list[Record]] = [[] for _ in streams]
    busy = [0.0] * len(streams)
    start = perf_counter()
    while perf_counter() - start < seconds or any(len(r) < m for r, m in zip(records, min_counts)):
        i = min(range(len(streams)), key=busy.__getitem__)
        records[i].append(run_op(next(streams[i])))
        busy[i] += records[i][-1].elapsed
    return records


def verdicts(workload, state, records: list[Record]) -> list[str | None]:
    """Failure message per record: its exception, else the workload's check."""
    checked = workload.check(state, [r for r in records if r.error is None])
    it = iter(checked)
    return [r.error.strip().splitlines()[-1] if r.error else next(it) for r in records]


def rate_by_kind(records: list[Record]) -> dict[str, float]:
    work: dict[str, float] = {}
    busy: dict[str, float] = {}
    for r in records:
        work[r.op.kind] = work.get(r.op.kind, 0.0) + r.op.work
        busy[r.op.kind] = busy.get(r.op.kind, 0.0) + r.elapsed
    return {k: work[k] / busy[k] for k in work if busy[k] > 0}


def timed_setup(workload, seed: int):
    """Median set-up time over repeated set-ups, and the last state built."""
    times: list[float] = []
    state = None
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS):
        state = None  # release the previous inputs before building new ones
        t0 = perf_counter()
        state = workload.setup(seed)
        times.append(perf_counter() - t0)
    return statistics.median(times), len(times), state


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def _tally(info: dict, records: list[Record], messages: list[str | None]) -> None:
    info["attempted"] += len(records)
    failures = [m for m in messages if m is not None]
    info["failed"] += len(failures)
    info["failures"].extend(failures[:5])


def run(workloads: dict, name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; return (result line, info line) as dicts."""
    workload = workloads[name]()
    info = {"workload": name, "seconds": seconds, "trace": int(trace), **environment(seed)}
    info.update(attempted=0, failed=0, failures=[])
    if trace:
        metrics = _traced(workload, seed, seconds, info, out_dir)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = _untraced(workloads, workload, seed, seconds, info)
        units = {k: v[0] for k, v in END_TO_END.items()}
    info["os_threads"] = os_threads()
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return result, info


def _untraced(workloads: dict, workload, seed: int, seconds: float, info: dict) -> dict:
    setup_s, reps, state = timed_setup(workload, seed)
    with gc_paused():
        records = run_ops(workload.ops(state, seed), seconds=(1.0 - PROBE_SHARE) * seconds, min_count=workload.min_ops)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    info["setup_reps"] = reps
    _tally(info, records, verdicts(workload, state, records))
    metrics.update(workload.metrics(records))
    info["samples"] = workload.samples(records)
    del state, records
    # Metrics owned by the other workloads come from small instances of them,
    # run after peak_rss_mb was read so they cannot raise it.
    probes = [cls.probe() for name, cls in workloads.items() if name != info["workload"]]
    states = [p.setup(seed) for p in probes]
    streams = [p.ops(st, seed) for p, st in zip(probes, states)]
    with gc_paused():
        probe_records = run_interleaved(streams, [p.min_ops for p in probes], PROBE_SHARE * seconds)
    for probe, st, recs in zip(probes, states, probe_records):
        _tally(info, recs, verdicts(probe, st, recs))
        metrics.update(probe.metrics(recs))
        info["samples"].update(probe.samples(recs))
    return metrics


def _traced(workload, seed: int, seconds: float, info: dict, out_dir: Path) -> dict:
    tracer = Tracer()
    tracer.round = "setup"
    with tracer.installed():
        state = workload.setup(seed)
    # Untraced reference for the overhead, then the traced pass on the same
    # first operations. The pass has a fixed length so counts repeat exactly.
    with gc_paused():
        records = run_ops(workload.ops(state, seed), seconds=seconds, min_count=workload.min_ops)
    with gc_paused(), tracer.installed():
        traced = run_ops(workload.ops(state, seed), tracer, count=workload.traced_ops)
    all_records = records + traced
    _tally(info, all_records, verdicts(workload, state, all_records))
    rates = rate_by_kind(records)
    overall = sum(r.op.work for r in records) / sum(r.elapsed for r in records)
    expected = sum(r.op.work / rates.get(r.op.kind, overall) for r in traced)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_pct"] = 100.0 * (sum(r.elapsed for r in traced) / expected - 1.0)
    info["trace"] = {"untraced_ops": len(records), "traced_ops": len(traced), "spans": len(tracer.spans)}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{info['workload']}-seed{seed}.jsonl"
    tracer.write(path)
    info["trace"]["file"] = str(path)
    return metrics
