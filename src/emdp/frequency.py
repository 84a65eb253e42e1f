"""Frequency estimation under local metric DP on the clustered space.

Each user pushes every item through a row-stochastic channel A and reports
the multiset of outputs; the aggregator averages the per-user output
histograms and multiplies by a right inverse B of A (A @ B = I) to debias,
yielding an estimate that is exactly unbiased for the pooled input histogram.

Channels provided here: the generalized randomized response on the clustered
space (three probability levels: keep, same-cluster, cross-cluster, with
closed-form inverse), a Hadamard response baseline certified for the uniform
metric, and a central-model Laplace baseline. The expected earth mover's
error of the channel estimator is bounded in closed form from operator norms
of the inverse.

Measurement convention: estimates are returned raw (coordinates may be
negative, they always sum to 1); earth-mover error is measured after
``project_to_simplex``, which clamps negatives and renormalizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import hadamard

from .metric_space import ClusteredSpace, build_clustered, build_discrete
from .rng import SeedLike, make_rng, substream
from .shuffle_amp import TransitionMechanism
from .transport import Multiset

_INVERSE_ATOL = 1e-9


@dataclass(frozen=True)
class GKRRParams:
    """Closed-form coefficients of the clustered randomized response.

    The forward channel is A = a*I + (b*I_B + c*1_B) (x) 1_C in cluster-major
    order, where (x) is the Kronecker product and 1 denotes all-ones blocks:
    keep probability a + b + c, same-cluster probability b + c, cross-cluster
    probability c. Its inverse has the same structure with coefficients
    a_inv, b_inv, c_inv satisfying a_inv + t*b_inv + s*t*c_inv = 1.
    """

    s: int
    t: int
    r: float
    alpha0: float
    a: float
    b: float
    c: float
    a_inv: float
    b_inv: float
    c_inv: float

    @property
    def size(self) -> int:
        return self.s * self.t


def gkrr_params(s: int, t: int, r: float, alpha0: float) -> GKRRParams:
    """Evaluate the forward and inverse coefficients for the given shape.

    alpha0 = 0 (uniform channel) and r = 0 make the inverse degenerate and
    are rejected; the forward channel alone is available through
    ``gkrr_mechanism`` for alpha0 = 0.

    Cancellation-prone differences are computed through expm1 so the
    coefficients stay accurate to a few ulps even for small r * alpha0.
    """
    ClusteredSpace(s, t, r)  # validate shape parameters
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive for an invertible channel")
    beta = (1.0 - r) * alpha0
    # keep_gap = e^alpha0 - e^beta, strictly positive for r > 0.
    keep_gap = math.exp(beta) * math.expm1(r * alpha0)
    # cluster_gap = e^alpha0 + (t-1) e^beta - t, strictly positive for alpha0 > 0.
    cluster_gap = math.expm1(alpha0) + (t - 1) * math.expm1(beta)
    denom = cluster_gap + s * t
    a = keep_gap / denom
    b = math.expm1(beta) / denom
    c = 1.0 / denom
    a_inv = denom / keep_gap
    b_inv = -math.expm1(beta) * denom / (keep_gap * cluster_gap)
    c_inv = -1.0 / cluster_gap
    return GKRRParams(s, t, r, alpha0, a, b, c, a_inv, b_inv, c_inv)


def _structured_matrix(s: int, t: int, diag: float, cluster: float, everywhere: float) -> np.ndarray:
    k = s * t
    out = np.full((k, k), everywhere)
    for block in range(s):
        sl = slice(block * t, (block + 1) * t)
        out[sl, sl] += cluster
    out[np.diag_indices(k)] += diag
    return out


def gkrr_forward_matrix(p: GKRRParams) -> np.ndarray:
    return _structured_matrix(p.s, p.t, p.a, p.b, p.c)


def gkrr_right_inverse(p: GKRRParams) -> np.ndarray:
    """Closed-form inverse B with B @ A = A @ B = I."""
    return _structured_matrix(p.s, p.t, p.a_inv, p.b_inv, p.c_inv)


def gkrr_mechanism(s: int, t: int, r: float, alpha0: float) -> TransitionMechanism:
    """Clustered randomized response certified at level alpha0.

    Transition probabilities are proportional to e^alpha0 (keep),
    e^((1-r)*alpha0) (same cluster) and 1 (different cluster); rows sum to 1
    by construction and the certification ratios are exact.
    """
    space = build_clustered(s, t, r)
    if alpha0 < 0:
        raise ValueError("alpha0 must be nonnegative")
    if alpha0 == 0:
        k = s * t
        return TransitionMechanism(space, np.full((k, k), 1.0 / k), 0.0)
    p = gkrr_params(s, t, r, alpha0)
    return TransitionMechanism(space, gkrr_forward_matrix(p), alpha0)


def hadamard_response(k: int, eps0: float) -> tuple[TransitionMechanism, np.ndarray]:
    """Hadamard-encoded response over k inputs, certified for the uniform metric.

    The output alphabet has size Y = smallest power of two >= 2k. Input x is
    encoded by a zero-sum row h_x of the order-Y Hadamard matrix (the all-ones
    row is dropped); the channel is q1 + q2 * h_x entrywise, so every entry is
    one of two values with ratio e^eps0. The returned right inverse
    B = H_sel^T / (q2 * Y) satisfies A @ B = I exactly.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    order = 1
    while order < 2 * k:
        order *= 2
    h = hadamard(order).astype(float)
    rows = h[1 : k + 1]
    q1 = 1.0 / order
    gain = math.expm1(eps0) / (math.exp(eps0) + 1.0)  # (e^eps - 1) / (e^eps + 1)
    q2 = q1 * gain
    matrix = q1 + q2 * rows
    mech = TransitionMechanism(build_discrete(k), matrix, eps0)
    inverse = rows.T / (q2 * order)
    return mech, inverse


def hadamard_user_budget(eps: float, m: int, delta: float) -> float:
    """Per-item budget eps / sqrt(m * ln(m/delta)) splitting a user-level eps."""
    if eps <= 0 or m < 1 or not (0.0 < delta < 1.0):
        raise ValueError("need eps > 0, m >= 1, delta in (0, 1)")
    return eps / math.sqrt(m * math.log(m / delta))


def verify_right_inverse(mech: TransitionMechanism, inverse: np.ndarray, atol: float = _INVERSE_ATOL) -> None:
    product = mech.matrix @ inverse
    if np.abs(product - np.eye(mech.space.size)).max() > atol:
        raise ValueError("inverse verification failed: A @ B is not the identity")


def freq_est_local(
    users: Sequence[Multiset],
    mech: TransitionMechanism,
    inverse: np.ndarray,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Channel-randomize every user's items and return the debiased estimate.

    Each user i draws channel outputs for their items from the substream
    (seed, i), reports the normalized output histogram, and the average of
    those reports is multiplied by the right inverse. The estimate is exactly
    unbiased for the pooled input histogram; coordinates may be negative but
    always sum to 1.
    """
    if not users:
        raise ValueError("need at least one user dataset")
    verify_right_inverse(mech, inverse)
    aggregate = np.zeros(mech.out_size)
    for i, user in enumerate(users):
        if user.size == 0:
            raise ValueError("user datasets must be nonempty")
        # Only the point set must match: a baseline channel may be certified
        # for a different metric on the same points.
        if user.space.size != mech.space.size:
            raise ValueError("user dataset and channel have different point counts")
        rng = substream(seed, i)
        outputs = rng.multinomial(user.counts, mech.matrix).sum(axis=0)
        aggregate += outputs / user.size
    mean_report = aggregate / len(users)
    return mean_report @ inverse


def freq_est_central(
    users: Sequence[Multiset],
    mech: TransitionMechanism,
    inverse: np.ndarray,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Central-model variant: pool all users into one logical dataset."""
    if not users:
        raise ValueError("need at least one user dataset")
    pooled = Multiset(users[0].space, np.sum([u.counts for u in users], axis=0))
    return freq_est_local([pooled], mech, inverse, seed)


def laplace_freq_central(
    data: Multiset, n: int, eps: float, seed: SeedLike = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Laplace-noised histogram of the pooled dataset of n users.

    Adds Laplace(1/(n*eps)) to every coordinate of the normalized histogram,
    then clamps negatives to zero and rescales to sum 1. Returns the
    normalized estimate together with the raw noisy vector.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = make_rng(seed)
    raw = data.normalize().mass + rng.laplace(scale=1.0 / (n * eps), size=data.space.size)
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    if total <= 0:
        estimate = np.full(data.space.size, 1.0 / data.space.size)
    else:
        estimate = clipped / total
    return estimate, raw


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Clamp negatives and renormalize; the EMD measurement convention."""
    clipped = np.clip(np.asarray(v, dtype=float), 0.0, None)
    total = clipped.sum()
    if total <= 0:
        return np.full(clipped.shape, 1.0 / clipped.size)
    return clipped / total


def emd_upper_clustered(u: np.ndarray, r: float, cluster_size: int) -> float:
    """Transport-plan upper bound r*||u||_1 + ||cluster sums of u||_1.

    ``u`` is a signed difference of two histograms on the clustered space in
    cluster-major order; it must sum to zero. The first term moves mass
    within clusters, the second equalizes the clusters' totals.
    """
    u = np.asarray(u, dtype=float)
    if abs(u.sum()) > 1e-9:
        raise ValueError("difference vector must sum to zero")
    if u.size % cluster_size != 0:
        raise ValueError("vector length must be a multiple of the cluster size")
    cluster_sums = u.reshape(-1, cluster_size).sum(axis=1)
    return float(r * np.abs(u).sum() + np.abs(cluster_sums).sum())


def operator_norm_1_2(mat: np.ndarray) -> float:
    """The 1->2 operator norm: maximum Euclidean norm of a column."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        raise ValueError("matrix must be nonempty")
    return float(np.sqrt((mat * mat).sum(axis=0).max()))


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value (the 2->2 operator norm), computed by SVD."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        raise ValueError("matrix must be nonempty")
    return float(np.linalg.norm(mat, 2))


def freq_error_bound(inverse: np.ndarray, s: int, t: int, r: float, m: int, n: int) -> float:
    """Expected earth-mover error bound of the debiased channel estimator.

    r * sqrt(s*t*(||B^T||_{1->2}^2 - 1) / (m*n))
      + sqrt(s*(||P^T B^T||_{1->2}^2 - 1) / (m*n)),
    with P summing coordinates within each cluster. Squared norms slightly
    below 1 (possible for a noiseless channel, up to roundoff) are clamped
    to 1.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    inverse = np.asarray(inverse, dtype=float)
    k = s * t
    if inverse.shape[1] != k:
        raise ValueError("inverse must map reports onto the s*t input points")
    proj = np.kron(np.eye(s), np.ones((t, 1)))  # (k, s), sums within clusters
    term1 = max(operator_norm_1_2(inverse.T) ** 2 - 1.0, 0.0)
    term2 = max(operator_norm_1_2((inverse @ proj).T) ** 2 - 1.0, 0.0)
    return r * math.sqrt(s * t * term1 / (m * n)) + math.sqrt(s * term2 / (m * n))


def gkrr_error_bound(s: int, t: int, r: float, alpha0: float, m: int, n: int) -> float:
    """Closed-form error bound of the clustered randomized response.

    r * sqrt(s*t^3/(m*n)) * (e^a0 + s) / (e^a0 - e^((1-r)a0))
      + sqrt(s^2 t^2/(m*n)) * sqrt(s + 2(e^a0 - 1)) / (e^a0 + (t-1)e^((1-r)a0) - t).
    """
    gkrr_params(s, t, r, alpha0)  # parameter validation
    beta = (1.0 - r) * alpha0
    keep_gap = math.exp(beta) * math.expm1(r * alpha0)
    cluster_gap = math.expm1(alpha0) + (t - 1) * math.expm1(beta)
    first = r * math.sqrt(s * t**3 / (m * n)) * (math.exp(alpha0) + s) / keep_gap
    second = math.sqrt(s**2 * t**2 / (m * n)) * math.sqrt(s + 2.0 * math.expm1(alpha0)) / cluster_gap
    return first + second
