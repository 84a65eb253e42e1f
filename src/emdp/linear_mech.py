"""Linear queries, Lipschitz sensitivity, and the noisy linear-query release.

A linear query evaluates the expectation of a vector-valued function f over a
normalized dataset, i.e. F @ K_tilde for a d x k matrix F whose columns are
f(x). Its sensitivity under the earth mover's distance is bounded by the
Lipschitz constant of f with respect to the space's metric, which this module
computes exactly by pairwise maximization. The release mechanism adds either
gamma-radial noise (a uniform direction scaled by a Gamma(d, omega) radius)
for a pure guarantee, or per-coordinate Gaussian noise for an approximate
one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .metric_space import EmbeddingTable, MetricSpace, build_embedding
from .rng import SeedLike, make_rng
from .transport import Histogram, Multiset

_ZERO_DIST_ATOL = 1e-15
_LIPSCHITZ_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class LinearQuery:
    """d x k query table over a metric space; column x holds f(x)."""

    space: MetricSpace
    table: np.ndarray

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.table, dtype=float))
        if t.shape[1] != self.space.size:
            raise ValueError("query table must have one column per point")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    def value(self, data: Union[Multiset, Histogram, np.ndarray]) -> np.ndarray:
        """Exact query value F @ K_tilde."""
        if isinstance(data, Multiset):
            # Same values as data.normalize().mass, without building and
            # re-validating a Histogram on every call.
            size = data.size
            if size == 0:
                raise ValueError("cannot normalize an empty multiset")
            mass = data.counts / size
        elif isinstance(data, Histogram):
            mass = data.mass
        else:
            mass = np.asarray(data, dtype=float)
        return self.table @ mass


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration for the linear-query release.

    ``kind`` is "gamma" (radial noise, pure guarantee) or "gaussian"
    (per-coordinate, requires ``delta``). ``omega`` is the base scale, 1/alpha
    for the target metric budget; the central model divides it further by the
    number of users. ``lipschitz`` is the caller's upper bound on the query's
    Lipschitz constant. ``norm`` picks the radial geometry for gamma noise:
    2 for a Euclidean ball, 1 for the multidimensional Laplace.
    """

    kind: str
    omega: float
    lipschitz: float
    delta: float | None = None
    norm: int = 2

    def __post_init__(self):
        if self.kind not in ("gamma", "gaussian"):
            raise ValueError("noise kind must be 'gamma' or 'gaussian'")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.lipschitz < 0:
            raise ValueError("lipschitz bound must be nonnegative")
        if self.kind == "gaussian":
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise ValueError("gaussian noise requires delta in (0, 1)")
        if self.norm not in (1, 2):
            raise ValueError("norm must be 1 or 2")


def lipschitz_constant(query: LinearQuery, ord: int = 2) -> float:
    """Exact max over point pairs of ||f(x) - f(x')|| / d(x, x').

    Pairs at distance zero with differing columns make the constant
    unbounded and raise a ValueError.
    """
    space = query.space
    k = space.size
    if k < 2:
        return 0.0
    diffs = query.table[:, :, None] - query.table[:, None, :]
    if ord == 2:
        num = np.sqrt((diffs * diffs).sum(axis=0))
    else:
        num = np.abs(diffs).sum(axis=0)
    dist = space.dist
    iu = np.triu_indices(k, 1)
    num_u = num[iu]
    dist_u = dist[iu]
    zero = dist_u <= _ZERO_DIST_ATOL
    if np.any(num_u[zero] > _ZERO_DIST_ATOL):
        raise ValueError("unbounded Lipschitz constant: distinct columns at distance 0")
    positive = ~zero
    if not np.any(positive):
        return 0.0
    return float((num_u[positive] / dist_u[positive]).max())


def _sphere_direction(rng: np.random.Generator, d: int, norm: int) -> np.ndarray:
    if norm == 2:
        while True:
            z = rng.standard_normal(d)
            length = np.linalg.norm(z)
            if length > 0:
                return z / length
    # Uniform on the unit l1 sphere: exponential radii with random signs.
    e = rng.standard_exponential(d)
    signs = rng.integers(0, 2, size=d) * 2 - 1
    return signs * e / e.sum()


def priv_emd_linear(
    query: LinearQuery,
    data: Union[Multiset, Histogram],
    noise: NoiseSpec,
    model: str = "local",
    n: int = 1,
    seed: SeedLike = 0,
    check_lipschitz: bool = True,
) -> np.ndarray:
    """Release the linear query with noise calibrated to the metric budget.

    With omega = 1/alpha the gamma release q + l*g*U (g ~ Gamma(d, omega), U
    uniform on the unit sphere) satisfies the pure (alpha, 0) metric
    guarantee in the local model; the bounded central model passes the pooled
    dataset and n >= 1, which shrinks the scale to omega/n. Gaussian noise
    uses per-coordinate deviation l * omega_eff * sqrt(1.25 * ln(1/delta)).

    ``check_lipschitz`` validates the caller-supplied bound against the exact
    constant; disable only when the bound is known by construction.
    """
    if model not in ("local", "central"):
        raise ValueError("model must be 'local' or 'central'")
    if model == "central" and n < 1:
        raise ValueError("central model requires n >= 1")
    if check_lipschitz:
        actual = lipschitz_constant(query, ord=noise.norm)
        if noise.lipschitz < actual - _LIPSCHITZ_SLACK:
            raise ValueError(
                f"supplied lipschitz bound {noise.lipschitz} is below the "
                f"computed constant {actual}"
            )
    omega_eff = noise.omega / n if model == "central" else noise.omega
    value = query.value(data)
    d = query.dim
    rng = make_rng(seed)
    if noise.kind == "gaussian":
        z = rng.standard_normal(d)
        sigma = noise.lipschitz * omega_eff * math.sqrt(1.25 * math.log(1.0 / noise.delta))
        return value + sigma * z
    direction = _sphere_direction(rng, d, noise.norm)
    radius = rng.gamma(shape=d, scale=omega_eff)
    return value + noise.lipschitz * radius * direction


def embedding_linear_query(table: np.ndarray, emb: EmbeddingTable, space: MetricSpace | None = None) -> LinearQuery:
    """Compose a d x t matrix with an embedding into the d x k query F @ Phi.

    Every row of the matrix must have Euclidean norm at most 1; the
    composite's Lipschitz constant with respect to the unnormalized embedding
    distance is then bounded by the spectral norm of the matrix (times the
    space's normalization factor in normalized units).
    """
    f = np.atleast_2d(np.asarray(table, dtype=float))
    if f.shape[1] != emb.dim:
        raise ValueError("matrix width must equal the embedding dimension")
    row_norms = np.linalg.norm(f, axis=1)
    if np.any(row_norms > 1.0 + 1e-9):
        raise ValueError("every query row must have Euclidean norm at most 1")
    if space is None:
        space = build_embedding(emb)
    if space.size != emb.size:
        raise ValueError("space size must match the embedding table")
    return LinearQuery(space, f @ emb.vectors.T)


def embedding_query(table: np.ndarray, emb: EmbeddingTable, data: Multiset) -> np.ndarray:
    """Exact value of the embedding query F @ Phi @ K_tilde."""
    composite = embedding_linear_query(table, emb, data.space)
    return composite.value(data)
