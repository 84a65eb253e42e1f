"""Span recorder: self time, wrapper installation and exact per-layer counts."""
from __future__ import annotations

import emdp
from emdpbench import audit, freq
from emdpbench.harness import run_ops
from emdpbench.spans import LAYER_BOUNDARIES, PER_LAYER, Tracer, layer_metrics, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_installed_wraps_and_restores_every_boundary():
    originals = [owner.__dict__[attr] for owner, attr, _ in LAYER_BOUNDARIES]
    tracer = Tracer()
    with tracer.installed():
        assert all(owner.__dict__[attr] is not fn for (owner, attr, _), fn in zip(LAYER_BOUNDARIES, originals))
        emdp.build_clustered(2, 2, 0.3)
    assert [owner.__dict__[attr] for owner, attr, _ in LAYER_BOUNDARIES] == originals
    assert [s[0] for s in tracer.spans] == ["metric_space.validate"]


def test_traced_freq_round_counts():
    wl = freq.FreqUnbounded((freq.Domain("k64", 8, 8, 0.3, 150),))
    state = wl.setup(1)
    tracer = Tracer()
    with tracer.installed():
        run_ops(wl.ops(state, 1), tracer, count=1)
    m = layer_metrics(tracer)
    assert set(m) | {"trace.overhead_pct"} == set(PER_LAYER)
    assert m["rng.substream_calls_per_user"] == 2.0
    assert m["shuffle_amp.effective_budget_calls_per_calibration"] == 61.0
    assert m["reduction.project_calls"] == m["frequency.users_estimated"] == 150
    assert m["metric_space.validate_calls"] == 1 and m["transport.emd_calls"] == 1
    assert m["linear_mech.lipschitz_s"] == 0.0
    assert all(rec[4] == 0 for rec in tracer.spans)


def test_traced_audit_counts():
    wl = audit.AuditProbe()
    state = wl.setup(1)
    tracer = Tracer()
    with tracer.installed():
        run_ops(wl.ops(state, 1), tracer, count=1)
    m = layer_metrics(tracer)
    # 20 multisets of size 3 over 4 points, each law enumerating 4^3 tuples.
    assert m["transport.emd_calls"] == 20 * 19
    assert m["transport.emd_calls_per_unordered_pair"] == 2.0
    assert m["audit.law_tuples_per_multiset"] == 64 / 20
    assert m["transport.emd_s"] == max(m[k] for k in m if k.endswith("_s"))
