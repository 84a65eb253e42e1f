"""audit-tiny: exhaustive offline verification of the item-wise mechanisms.

Each round audits the clustered randomized response on clustered:2,2,0.3 at
m=4, once at the composition budget m*alpha0 (passes) and once at half of it
(fails), then Hadamard response at k=4, m=3, then both channels item by item.
The per-item level of each round comes from the seed. This is the transport
layer's many-small-LPs use: one k=4 LP per ordered dataset pair.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

import emdp

from .harness import Op

GKRR_SHAPE = (2, 2, 0.3)
GKRR_M = 4
ALPHA0_TABLE = (0.5, 1.0, 1.5, 2.0)
HADAMARD_K = 4
HADAMARD_M = 3
HADAMARD_EPS0 = 1.0
DIV_ATOL = 1e-9
# Worst hockey-stick divergence of the GKRR audit at alpha = GKRR_M * alpha0 / 2,
# as computed when this benchmark was written. Every other audit of a round
# passes with worst divergence 0.
FAIL_DIVERGENCE = {
    0.5: 0.07213215338977784,
    1.0: 0.19669950745400722,
    1.5: 0.35629371274238675,
    2.0: 0.5205999604823354,
}


@dataclass(frozen=True)
class Task:
    kind: str
    mech: emdp.TransitionMechanism
    m: int  # dataset size; 0 marks an item-level audit
    alpha: float
    passes: bool
    divergence: float

    @property
    def datasets(self) -> int:
        k = self.mech.space.size
        return math.comb(k + self.m - 1, self.m) if self.m else k

    @property
    def ordered_pairs(self) -> int:
        return self.datasets * (self.datasets - 1)


def run_task(task: Task, tracer):
    if task.m == 0:
        with tracer.span("audit.verify_item"):
            return task, emdp.verify_item_metric_dp(task.mech, task.alpha, 0.0)
    tracer.count("audit.unordered_pairs", task.ordered_pairs // 2)
    with tracer.span("audit.verify_emd_dp"):
        return task, emdp.verify_emd_dp(task.mech, task.m, task.alpha, 0.0)


def check_task(task: Task, result) -> str | None:
    if result.passed != task.passes or abs(result.divergence - task.divergence) > DIV_ATOL:
        return (
            f"{task.kind} at alpha={task.alpha}: got passed={result.passed}, divergence={result.divergence!r}; "
            f"expected passed={task.passes}, divergence={task.divergence!r}"
        )
    return None


class AuditTiny:
    name = "audit-tiny"
    traced_ops = 5  # one round
    min_ops = 1

    def setup(self, seed: int) -> dict:
        gkrr = {a0: emdp.gkrr_mechanism(*GKRR_SHAPE, a0) for a0 in ALPHA0_TABLE}
        hadamard, _ = emdp.hadamard_response(HADAMARD_K, HADAMARD_EPS0)
        return {"gkrr": gkrr, "hadamard": hadamard}

    def plan(self, state: dict, alpha0: float) -> list[Task]:
        gkrr, had = state["gkrr"][alpha0], state["hadamard"]
        return [
            Task("gkrr-pass", gkrr, GKRR_M, GKRR_M * alpha0, True, 0.0),
            Task("gkrr-fail", gkrr, GKRR_M, GKRR_M * alpha0 / 2, False, FAIL_DIVERGENCE[alpha0]),
            Task("hadamard", had, HADAMARD_M, HADAMARD_M * HADAMARD_EPS0, True, 0.0),
            Task("gkrr-item", gkrr, 0, alpha0, True, 0.0),
            Task("hadamard-item", had, 0, HADAMARD_EPS0, True, 0.0),
        ]

    def ops(self, state: dict, seed: int):
        n = 0
        for i in itertools.count():
            rng = np.random.default_rng(np.random.SeedSequence([seed, 2, i]))
            alpha0 = ALPHA0_TABLE[int(rng.integers(len(ALPHA0_TABLE)))]
            for task in self.plan(state, alpha0):
                yield Op(task.kind, task.ordered_pairs, partial(run_task, task), n)
                n += 1

    def check(self, state, records) -> list[str | None]:
        return [check_task(*r.output) for r in records]

    def metrics(self, records) -> dict[str, float]:
        return {"audit.pairs_per_s": sum(r.op.work for r in records) / sum(r.elapsed for r in records)}

    def samples(self, records) -> dict[str, int]:
        return {"audit.pairs_per_s": len(records)}

    @classmethod
    def probe(cls) -> "AuditTiny":
        return AuditProbe()


class AuditProbe(AuditTiny):
    """One passing GKRR audit at m=3: the workload's shape at a tenth of its cost."""

    def plan(self, state: dict, alpha0: float) -> list[Task]:
        return [Task("gkrr-pass", state["gkrr"][alpha0], 3, 3 * alpha0, True, 0.0)]
