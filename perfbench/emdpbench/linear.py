"""linear-local: the online per-user linear-query release.

Set-up builds one embedding space (its O(k^3) triangle check is the set-up
cost) and a few fixed query tables. Each request releases one user's query
answer with noise of one of three kinds, through ``priv_emd_linear`` with
its default Lipschitz check. No transport LP, substream, reduction or
frequency code runs here.
"""
from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass
from functools import partial

import numpy as np

import emdp
from emdp.linear_mech import embedding_linear_query

from .harness import Op

POINTS = 300  # points of the embedding space
DIM = 16
QUERIES = 4
ITEMS = (40, 60)  # inclusive range of a user's dataset size
PREFERENCE = 0.05  # Dirichlet concentration of one user's item preferences
ALPHA = 25.0
DELTA = 1e-6
KINDS = ("gamma-l2", "gamma-l1", "gaussian")
POOL = 1200  # distinct requests, cycled; a multiple of QUERIES and of len(KINDS)
# The p99 is the median of the p99s of consecutive blocks of this many
# releases. Slow releases come in bursts from stalls of the host (seen: 17 in
# a row), and whether a run caught one or two of them moved a whole-run p99
# by up to 40% between runs; a burst sets only its own block's p99.
P99_BLOCK = 200
# A kind's mean normalized noise norm may sit this many standard errors from
# its analytic expectation.
NOISE_Z = 6.0


@dataclass
class Request:
    query: int
    kind: int
    data: emdp.Multiset


@dataclass
class State:
    space: emdp.MetricSpace
    queries: list
    noises: list  # per query, one NoiseSpec per kind
    requests: list
    seed_base: int


def noise_specs(table: np.ndarray, scale: float) -> tuple:
    """Noise for each kind, with Lipschitz bounds from the table's spectral norm.

    ||F(u - v)||_2 <= ||F||_2 ||u - v||_2 and ||w||_1 <= sqrt(d) ||w||_2, in
    units of the normalized distance ||u - v||_2 / scale.
    """
    l2 = float(np.linalg.norm(table, 2)) * scale * (1.0 + 1e-9)
    l1 = math.sqrt(table.shape[0]) * l2
    return (
        emdp.NoiseSpec("gamma", omega=1.0 / ALPHA, lipschitz=l2, norm=2),
        emdp.NoiseSpec("gamma", omega=1.0 / ALPHA, lipschitz=l1, norm=1),
        emdp.NoiseSpec("gaussian", omega=1.0 / ALPHA, lipschitz=l2, delta=DELTA),
    )


def expected_norm(kind: str) -> tuple[float, float]:
    """Mean and standard deviation of the noise norm in units of its scale.

    Gamma noise is a Gamma(DIM, 1) radius along a unit direction (Euclidean
    for gamma-l2, l1 for gamma-l1, each measured in its own norm); Gaussian
    noise is a chi distribution with DIM degrees of freedom.
    """
    if kind.startswith("gamma"):
        return float(DIM), math.sqrt(DIM)
    mean = math.sqrt(2.0) * math.exp(math.lgamma((DIM + 1) / 2.0) - math.lgamma(DIM / 2.0))
    return mean, math.sqrt(DIM - mean * mean)


def noise_scale(noise: emdp.NoiseSpec) -> float:
    if noise.kind == "gaussian":
        return noise.lipschitz * noise.omega * math.sqrt(1.25 * math.log(1.0 / noise.delta))
    return noise.lipschitz * noise.omega


def release(query, data, noise, seed: int, tracer) -> np.ndarray:
    tracer.distinct("linear_mech.queries", id(query))
    with tracer.span("linear_mech.release"):
        return emdp.priv_emd_linear(query, data, noise, seed=seed)


class LinearLocal:
    name = "linear-local"
    traced_ops = 240  # every query appears, so per-query counts are exact
    min_ops = 1

    def __init__(self, pool: int = POOL, points: int = POINTS):
        self.pool = pool
        self.points = points

    def setup(self, seed: int) -> State:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        emb = emdp.EmbeddingTable(rng.standard_normal((self.points, DIM)))
        space = emdp.build_embedding(emb)
        queries, noises = [], []
        for _ in range(QUERIES):
            table = rng.standard_normal((DIM, DIM))
            table /= np.linalg.norm(table, axis=1, keepdims=True)
            queries.append(embedding_linear_query(table, emb, space))
            noises.append(noise_specs(table, space.scale))
        query_ids = rng.permutation(np.resize(np.arange(QUERIES), self.pool))
        kind_ids = rng.permutation(np.resize(np.arange(len(KINDS)), self.pool))
        sizes = rng.integers(ITEMS[0], ITEMS[1] + 1, size=self.pool)
        prefs = rng.dirichlet(np.full(self.points, PREFERENCE), size=self.pool)
        counts = rng.multinomial(sizes, prefs)
        requests = [
            Request(int(q), int(k), emdp.Multiset(space, c)) for q, k, c in zip(query_ids, kind_ids, counts)
        ]
        seed_base = int(np.random.SeedSequence([seed, 2]).generate_state(1)[0])
        return State(space, queries, noises, requests, seed_base)

    def ops(self, state: State, seed: int):
        for i in itertools.count():
            req = state.requests[i % len(state.requests)]
            query = state.queries[req.query]
            noise = state.noises[req.query][req.kind]
            yield Op(KINDS[req.kind], 1, partial(release, query, req.data, noise, state.seed_base + i), i)

    def check(self, state: State, records) -> list[str | None]:
        messages: list[str | None] = [None] * len(records)
        norms: dict[str, list[tuple[int, float]]] = {k: [] for k in KINDS}
        for j, r in enumerate(records):
            out = np.asarray(r.output)
            if out.shape != (DIM,) or not np.all(np.isfinite(out)):
                messages[j] = f"release {r.op.round} is not a finite vector of length {DIM}"
                continue
            req = state.requests[r.op.round % len(state.requests)]
            noise = state.noises[req.query][req.kind]
            delta = out - state.queries[req.query].value(req.data)
            norm = np.abs(delta).sum() if noise.norm == 1 else np.linalg.norm(delta)
            norms[r.op.kind].append((j, norm / noise_scale(noise)))
        for kind, samples in norms.items():
            if not samples:
                continue
            mean, sd = expected_norm(kind)
            observed = statistics.fmean(v for _, v in samples)
            tol = NOISE_Z * sd / math.sqrt(len(samples))
            if abs(observed - mean) > tol:
                msg = f"{kind}: mean noise norm {observed:.6g} is not within {tol:.3g} of {mean:.6g}"
                for j, _ in samples:
                    messages[j] = messages[j] or msg
        return messages

    def metrics(self, records) -> dict[str, float]:
        latencies = np.array([r.elapsed for r in records])
        blocks = np.array_split(latencies, max(1, len(latencies) // P99_BLOCK))
        return {
            "linear.releases_per_s": len(records) / latencies.sum(),
            "linear.release_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "linear.release_p99_ms": statistics.median(float(np.percentile(b, 99)) for b in blocks) * 1e3,
        }

    def samples(self, records) -> dict[str, int]:
        return dict.fromkeys(("linear.releases_per_s", "linear.release_p50_ms", "linear.release_p99_ms"), len(records))

    @classmethod
    def probe(cls) -> "LinearLocal":
        # Half the points: a release costs a quarter, so the probe's p99 rests
        # on thousands of releases, and its temporaries fit in a core's L2.
        return cls(pool=300, points=POINTS // 2)
