"""Exact earth mover's distance and optimal couplings on finite spaces.

The distance between two histograms on a shared metric space is the optimal
value of the transportation linear program; the optimal plan is returned
alongside the cost. For equal-size multisets the optimum is attained by a
permutation matching of the items, computed with the Hungarian method.

All solvers are exact up to solver tolerance (well below 1e-9 at desk scale)
and allocate per-call scratch, so concurrent calls on shared inputs are safe.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from .metric_space import MetricSpace
from .rng import SeedLike, make_rng

MASS_ATOL = 1e-12
MARGINAL_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class Histogram:
    """Probability vector over the points of a metric space."""

    space: MetricSpace
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.shape != (self.space.size,):
            raise ValueError("mass vector length must match the space size")
        if np.any(m < -MASS_ATOL):
            raise ValueError("mass entries must be nonnegative")
        if abs(m.sum() - 1.0) > MASS_ATOL:
            raise ValueError(f"mass must sum to 1, got {m.sum()!r}")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)


@dataclass(frozen=True, eq=False)
class Multiset:
    """Integer item counts over the points of a metric space."""

    space: MetricSpace
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (self.space.size,):
            raise ValueError("count vector length must match the space size")
        if not np.issubdtype(c.dtype, np.integer):
            rounded = np.rint(np.asarray(c, dtype=float)).astype(np.int64)
            if np.any(np.abs(c - rounded) > 0):
                raise ValueError("counts must be integers")
            c = rounded
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        c = c.astype(np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @classmethod
    def from_items(cls, space: MetricSpace, items: Iterable[int]) -> "Multiset":
        counts = np.bincount(list(items), minlength=space.size)
        return cls(space, counts)

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    def items(self) -> np.ndarray:
        """Expand to a sorted array of point indices, one per occurrence."""
        return np.repeat(np.arange(self.space.size), self.counts)

    def normalize(self) -> Histogram:
        m = self.size
        if m == 0:
            raise ValueError("cannot normalize an empty multiset")
        return Histogram(self.space, self.counts / m)


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint mass table whose marginals are the two coupled histograms."""

    joint: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.joint, dtype=float)
        if j.ndim != 2:
            raise ValueError("joint table must be 2-D")
        if np.any(j < -MARGINAL_ATOL):
            raise ValueError("joint mass must be nonnegative")
        j = np.clip(j, 0.0, None)
        j.setflags(write=False)
        object.__setattr__(self, "joint", j)

    def first_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    def second_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    def expected_distance(self, space: MetricSpace) -> float:
        return float((self.joint * space.dist).sum())

    def check_marginals(self, p: np.ndarray, q: np.ndarray, atol: float = MARGINAL_ATOL) -> None:
        if np.abs(self.first_marginal() - p).max() > atol:
            raise ValueError("row sums do not match the first marginal")
        if np.abs(self.second_marginal() - q).max() > atol:
            raise ValueError("column sums do not match the second marginal")


@dataclass(frozen=True, eq=False)
class Matching:
    """Item permutation realizing an optimal equal-size transport."""

    permutation: np.ndarray
    cost: float


def _require_same_space(p, q) -> MetricSpace:
    # Shared space of two objects with a ``space`` attribute (histograms,
    # multisets, channels); equal distance tables count as the same space.
    if p.space is q.space:
        return p.space
    if p.space.size == q.space.size and np.array_equal(p.space.dist, q.space.dist):
        return p.space
    raise ValueError("inputs live on different metric spaces")


def _balanced(mass: np.ndarray) -> np.ndarray:
    # Absorb up-to-1e-12 float slack into the largest bin so that the two
    # LP marginals sum to exactly the same total.
    out = mass.copy()
    out[np.argmax(out)] += 1.0 - out.sum()
    return out


def emd(p: Histogram, q: Histogram) -> tuple[float, Coupling]:
    """Earth mover's distance and an optimal transport plan.

    Solves the transportation linear program
        min sum_ij d(i, j) C_ij  s.t.  C 1 = p, C^T 1 = q, C >= 0
    exactly. Ties between optimal plans are broken by the solver; only the
    cost is contractual.
    """
    space = _require_same_space(p, q)
    k = space.size
    a = _balanced(p.mass)
    b = _balanced(q.mass)
    if np.array_equal(a, b):
        return 0.0, Coupling(np.diag(a))

    cost = space.dist.ravel()
    # Equality rows: k row-sum constraints then k column-sum constraints.
    row_idx = np.repeat(np.arange(k), k)
    col_idx = np.tile(np.arange(k), k) + k
    ones = np.ones(k * k)
    a_eq = coo_matrix(
        (np.concatenate([ones, ones]),
         (np.concatenate([row_idx, col_idx]), np.tile(np.arange(k * k), 2))),
        shape=(2 * k, k * k),
    )
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([a, b]), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = Coupling(res.x.reshape(k, k))
    return float(res.fun), plan


def bvn_matching(k1: Multiset, k2: Multiset) -> Matching:
    """Optimal item-to-item matching between two equal-size multisets.

    Returns the permutation pi minimizing (1/m) sum_i d(x_i, y_pi(i)) over
    the sorted item expansions of the two multisets. The cost equals the
    earth mover's distance between the normalized histograms.
    """
    if k1.size != k2.size:
        raise ValueError("multisets must have equal sizes")
    if k1.size == 0:
        raise ValueError("multisets must be nonempty")
    space = _require_same_space(k1.normalize(), k2.normalize())
    items1 = k1.items()
    items2 = k2.items()
    costs = space.dist[np.ix_(items1, items2)]
    rows, cols = linear_sum_assignment(costs)
    perm = np.empty_like(cols)
    perm[rows] = cols
    total = float(costs[rows, cols].sum()) / k1.size
    return Matching(permutation=perm, cost=total)


def sample_coupling(plan: Coupling, count: int, seed: SeedLike) -> np.ndarray:
    """Draw ``count`` i.i.d. point pairs proportional to the joint mass.

    Returns an array of shape (count, 2); deterministic given the seed.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = make_rng(seed)
    flat = plan.joint.ravel()
    total = flat.sum()
    if total <= 0:
        raise ValueError("coupling carries no mass")
    idx = rng.choice(flat.size, size=count, p=flat / total)
    ncols = plan.joint.shape[1]
    return np.column_stack((idx // ncols, idx % ncols))


def multiset_from_csv(path: str, space: MetricSpace) -> Multiset:
    """Load a multiset from CSV.

    Two layouts are accepted: one row per item occurrence with a
    ``point_index`` column, or aggregated rows with ``point_index,count``.
    """
    counts = np.zeros(space.size, dtype=np.int64)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "point_index" not in reader.fieldnames:
            raise ValueError("CSV must have a point_index column")
        aggregated = "count" in reader.fieldnames
        for row in reader:
            idx = int(row["point_index"])
            counts[idx] += int(row["count"]) if aggregated else 1
    return Multiset(space, counts)


def multisets_by_user_from_csv(path: str, space: MetricSpace) -> list[Multiset]:
    """Load per-user multisets from CSV with ``user_id,point_index`` rows."""
    per_user: dict[str, np.ndarray] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"user_id", "point_index"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError("CSV must have user_id and point_index columns")
        for row in reader:
            counts = per_user.setdefault(row["user_id"], np.zeros(space.size, dtype=np.int64))
            counts[int(row["point_index"])] += 1
    return [Multiset(space, per_user[u]) for u in sorted(per_user)]
