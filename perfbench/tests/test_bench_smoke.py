"""Tiny-size runs of every workload, through the harness and the command."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import emdp
import run
from emdpbench import WORKLOADS, audit, freq, linear
from emdpbench.harness import END_TO_END, run_ops, verdicts
from emdpbench.spans import PER_LAYER

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent

TINY = {
    "freq-unbounded": (freq.FreqUnbounded((freq.Domain("k64", 8, 8, 0.3, 200), freq.Domain("k256", 16, 16, 0.3, 60))), 2),
    "linear-local": (linear.LinearLocal(pool=40), 40),
    "audit-tiny": (audit.AuditProbe(), 1),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name):
    wl, n_ops = TINY[name]
    state = wl.setup(5)
    records = run_ops(wl.ops(state, 5), count=n_ops)
    assert len(records) == n_ops
    assert verdicts(wl, state, records) == [None] * n_ops
    metrics = wl.metrics(records)
    assert metrics and all(v > 0 for v in metrics.values())
    assert set(wl.samples(records)) == set(metrics)


def test_same_seed_same_inputs():
    wl, _ = TINY["linear-local"]
    a, b = wl.setup(9), wl.setup(9)
    assert all((x.data.counts == y.data.counts).all() and x.query == y.query for x, y in zip(a.requests, b.requests))
    run_a = run_ops(wl.ops(a, 9), count=3)
    run_b = run_ops(wl.ops(b, 9), count=3)
    assert all((x.output == y.output).all() for x, y in zip(run_a, run_b))


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_command_untraced_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "linear-local", "--seed", "2", "--seconds", "0.2", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: v[0] for k, v in END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    info = json.loads(out.strip().splitlines()[-2])["info"]
    assert {"nproc", "blas_threads", "python", "numpy", "scipy", "seed"} <= set(info)


def test_command_traced_prints_every_per_layer_metric(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "linear-local", "--seed", "2", "--seconds", "0.2", "--trace", "1"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: v[0] for k, v in PER_LAYER.items()}
    assert result["metrics"]["linear_mech.lipschitz_calls_per_distinct_query"]["value"] == 60.0
    assert list(tmp_path.glob("trace-linear-local-seed2.jsonl"))
    assert emdp.linear_mech.lipschitz_constant is emdp.lipschitz_constant  # wrappers removed


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-tiny", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
