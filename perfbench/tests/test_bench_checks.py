"""Each output check accepts a real output and rejects a corrupted copy."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import emdp
from emdpbench import audit, freq, linear
from emdpbench.harness import Op, Record, run_ops, verdicts

TINY_DOMAINS = (freq.Domain("k64", 8, 8, 0.3, 300), freq.Domain("k256", 16, 16, 0.3, 100))


@pytest.fixture(scope="module")
def freq_outputs():
    wl = freq.FreqUnbounded(TINY_DOMAINS)
    records = run_ops(wl.ops(wl.setup(3), 3), count=2)
    return [r.output for r in records]


def test_freq_accepts_real_rounds(freq_outputs):
    assert [freq.check_round(out) for out in freq_outputs] == [None, None]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda out: dataclasses.replace(out, estimate=out.estimate + 1e-6),
        lambda out: dataclasses.replace(out, estimate=np.where(np.arange(out.estimate.size) == 0, np.nan, out.estimate)),
        lambda out: dataclasses.replace(out, estimate=out.estimate[:-1]),
        lambda out: dataclasses.replace(out, error=2.0 * freq.error_tolerance(out)),
        lambda out: dataclasses.replace(out, alpha0=1.5 * out.alpha0),
    ],
    ids=["sum", "nan", "shape", "error", "alpha0"],
)
def test_freq_rejects_corrupted_round(freq_outputs, corrupt):
    for out in freq_outputs:
        assert freq.check_round(corrupt(out)) is not None


@pytest.fixture(scope="module")
def linear_run():
    wl = linear.LinearLocal(pool=60)
    state = wl.setup(4)
    records = run_ops(wl.ops(state, 4), count=60)
    return wl, state, records


def test_linear_accepts_real_releases(linear_run):
    wl, state, records = linear_run
    assert wl.check(state, records) == [None] * len(records)


def test_linear_rejects_non_finite_and_misshapen_release(linear_run):
    wl, state, records = linear_run
    bad = list(records)
    bad[3] = dataclasses.replace(bad[3], output=np.full(linear.DIM, np.nan))
    bad[5] = dataclasses.replace(bad[5], output=bad[5].output[:-1])
    messages = wl.check(state, bad)
    assert messages[3] is not None and messages[5] is not None
    assert sum(m is not None for m in messages) == 2


@pytest.mark.parametrize("kind", linear.KINDS)
def test_linear_rejects_miscalibrated_noise(linear_run, kind):
    wl, state, records = linear_run
    bad = []
    for r in records:
        if r.op.kind == kind:
            req = state.requests[r.op.round % len(state.requests)]
            exact = state.queries[req.query].value(req.data)
            r = dataclasses.replace(r, output=exact + 1.5 * (r.output - exact))
        bad.append(r)
    messages = wl.check(state, bad)
    assert all((m is not None) == (r.op.kind == kind) for r, m in zip(bad, messages))


def _result(passed: bool, divergence: float) -> emdp.AuditResult:
    return emdp.AuditResult(passed=passed, alpha=1.0, delta=0.0, worst_pair=(), divergence=divergence)


def test_audit_accepts_real_result_and_rejects_corrupted():
    wl = audit.AuditProbe()
    state = wl.setup(1)
    records = run_ops(wl.ops(state, 1), count=1)
    task, result = records[0].output
    assert wl.check(state, records) == [None]
    assert audit.check_task(task, dataclasses.replace(result, passed=False)) is not None
    assert audit.check_task(task, dataclasses.replace(result, divergence=1e-6)) is not None


def test_audit_fail_expectations():
    task = audit.AuditTiny().plan(audit.AuditTiny().setup(0), 1.0)[1]
    expected = audit.FAIL_DIVERGENCE[1.0]
    assert audit.check_task(task, _result(False, expected + 5e-10)) is None
    assert audit.check_task(task, _result(True, expected)) is not None
    assert audit.check_task(task, _result(False, expected + 1e-6)) is not None


def test_raising_operation_counts_as_failed():
    def boom(tracer):
        raise RuntimeError("solver failed")

    class Passing:
        def check(self, state, records):
            return [None] * len(records)

    ops = iter([Op("x", 1, lambda tracer: 1, 0), Op("x", 1, boom, 1)])
    records = run_ops(ops, count=2)
    assert verdicts(Passing(), None, records) == [None, "RuntimeError: solver failed"]
    assert isinstance(records[1], Record) and records[1].output is None
