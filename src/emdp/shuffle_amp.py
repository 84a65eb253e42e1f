"""Item-wise release with shuffling and its amplified privacy budget.

Applying a metric-DP channel independently to each of the m items of a
dataset and releasing the outputs as an unordered list is far cheaper than
sequential composition suggests: the amplified budget for the whole release
grows like sqrt(m) * alpha0 rather than m * alpha0. This module implements
the release itself, the amplification bound

    h(m; x0, x1) = x0 * ln(1 + tanh(alpha0*x1 / (2*x0))
                           * (8*sqrt(e^alpha0 * ln(4*x0/delta)) / sqrt(m)
                              + 8*e^alpha0 / m)),

the effective budget (alpha_eff = sup_w h(.; m, m*w)/w, the w -> 0 slope,
and delta_eff = delta * e^{h(.; m, m)}), exact and closed-form calibration
of the per-item level alpha0 for a target budget, and the naive composition
baseline.

The bound is valid when alpha0 < ln(M / (16 * ln(4*M/delta))), M being the
number of shuffled reports (m locally, m*n in the central model). Callers
auditing the raw formula outside that regime (it is unsatisfiable for tiny
m) can disable the check explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import MetricBudget
from .metric_space import MetricSpace
from .rng import SeedLike, make_rng
from .transport import Multiset, _require_same_space

_ROW_ATOL = 1e-12
_CERT_RTOL = 1e-9


class AmplificationInapplicableError(ValueError):
    """The per-item level violates the amplification bound's condition."""


@dataclass(frozen=True, eq=False)
class TransitionMechanism:
    """Row-stochastic channel from a metric space to a finite output alphabet.

    ``alpha0`` is the certified metric-DP level: every pair of rows x, x'
    must satisfy A[x, y] <= exp(alpha0 * d(x, x')) * A[x', y] for all y.
    Certification is checked at construction (in log domain, so sharply
    concentrated channels with very large finite alpha0 are handled).
    """

    space: MetricSpace
    matrix: np.ndarray
    alpha0: float

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != self.space.size:
            raise ValueError("matrix must have one row per input point")
        if not math.isfinite(self.alpha0) or self.alpha0 < 0:
            raise ValueError("alpha0 must be finite and nonnegative")
        if np.any(a < 0):
            raise ValueError("channel entries must be nonnegative")
        if np.abs(a.sum(axis=1) - 1.0).max() > _ROW_ATOL:
            raise ValueError("channel rows must sum to 1")
        self._check_certification(a)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    def _check_certification(self, a: np.ndarray) -> None:
        zero = a <= 0.0
        # Wherever one row is zero, every row within finite distance must be.
        if np.any(zero):
            support_violation = (~zero[:, None, :]) & zero[None, :, :]
            if np.any(support_violation):
                raise ValueError("certification failed: unmatched zero entries across rows")
        with np.errstate(divide="ignore"):
            log_a = np.where(zero, 0.0, np.log(np.where(zero, 1.0, a)))
        gaps = log_a[:, None, :] - log_a[None, :, :]
        gaps = np.where(zero[:, None, :] | zero[None, :, :], -np.inf, gaps)
        allowed = self.alpha0 * self.space.dist
        worst = gaps.max(axis=2)
        if np.any(worst > allowed * (1 + _CERT_RTOL) + 1e-12):
            x, xp = np.unravel_index(np.argmax(worst - allowed), worst.shape)
            raise ValueError(
                f"certification failed for pair ({x}, {xp}): log-ratio "
                f"{worst[x, xp]:.6g} exceeds alpha0*d = {allowed[x, xp]:.6g}"
            )

    @property
    def out_size(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class AmplificationResult:
    """Amplified budget of the shuffled item-wise release.

    ``w_star`` is the transport fraction attaining the supremum that defines
    ``alpha_eff``. That supremum is always the w -> 0 limit (see
    ``effective_budget``), so ``w_star`` is always 0.0; the field stays
    because ``emdp calibrate`` prints it as a CSV column.
    """

    alpha_eff: float
    delta_eff: float
    w_star: float
    status: str = "ok"


def priv_emd_itemwise(data: Multiset, mech: TransitionMechanism, seed: SeedLike = 0) -> np.ndarray:
    """Pass each item independently through the channel and shuffle.

    Returns the length-m array of output indices in shuffled order; only the
    multiset of outputs is contractual. Items are processed in canonical
    (sorted) order before the shuffle, so the result is independent of the
    input's representation.
    """
    if data.size == 0:
        raise ValueError("dataset is empty")
    _require_same_space(data, mech)
    items = data.items()
    rng = make_rng(seed)
    cdf = np.cumsum(mech.matrix[items], axis=1)
    u = rng.random(items.size)
    outputs = (cdf < u[:, None]).sum(axis=1)
    np.minimum(outputs, mech.out_size - 1, out=outputs)
    return outputs[rng.permutation(items.size)]


def applicability_bound(m: int, delta: float) -> float:
    """Largest alpha0 (exclusive) for which the amplification bound applies."""
    if m < 1:
        raise ValueError("m must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    return math.log(m / (16.0 * math.log(4.0 * m / delta)))


def _noise_floor(m: int, x0: float, alpha0: float, delta: float) -> float:
    # The channel-independent factor multiplying tanh(alpha0*x1/(2*x0)).
    return 8.0 * math.sqrt(math.exp(alpha0) * math.log(4.0 * x0 / delta)) / math.sqrt(m) + 8.0 * math.exp(
        alpha0
    ) / m


def h_bound(
    m: int,
    x0: float,
    x1: float,
    alpha0: float,
    delta: float,
    enforce_condition: bool = True,
) -> float:
    """Divergence exponent for changing mass x1 across x0 of m shuffled reports."""
    if m < 1:
        raise ValueError("m must be positive")
    if not (0.0 < x0 <= m):
        raise ValueError("x0 must lie in (0, m]")
    if x1 < 0:
        raise ValueError("x1 must be nonnegative")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if alpha0 < 0:
        raise ValueError("alpha0 must be nonnegative")
    if enforce_condition and alpha0 > 0 and alpha0 >= applicability_bound(m, delta):
        raise AmplificationInapplicableError(
            f"amplification inapplicable: alpha0={alpha0} >= "
            f"ln(m / (16 ln(4m/delta))) = {applicability_bound(m, delta):.6g}"
        )
    if x1 == 0.0 or alpha0 == 0.0:
        return 0.0
    return x0 * math.log1p(math.tanh(alpha0 * x1 / (2.0 * x0)) * _noise_floor(m, x0, alpha0, delta))


def effective_budget(
    alpha0: float,
    delta: float,
    m: int,
    n: int = 1,
    model: str = "local",
    enforce_condition: bool = True,
) -> AmplificationResult:
    """Amplified (alpha_eff, delta_eff) for the shuffled item-wise release.

    alpha_eff = sup over w in [0, 1] of h(M; m, m*w) / w with M = m (local)
    or m*n (central); delta_eff = delta * e^{h(M; m, m)}. The supremum has
    a closed form: w -> m * ln(1 + tanh(alpha0*w/2) * F), with F the noise
    floor, is concave and vanishes at 0, so its ratio to w never increases
    in w and the supremum is the slope at 0, m * (alpha0/2) * F, attained at
    w_star = 0. A delta_eff of 1 or more is reported raw with a warning
    status rather than clamped.
    """
    if model not in ("local", "central"):
        raise ValueError("model must be 'local' or 'central'")
    if model == "central" and n < 1:
        raise ValueError("central model requires n >= 1")
    shuffled = m * n if model == "central" else m
    if alpha0 == 0.0:
        return AmplificationResult(0.0, delta, 0.0)
    if enforce_condition and alpha0 >= applicability_bound(shuffled, delta):
        raise AmplificationInapplicableError(
            f"amplification inapplicable: alpha0={alpha0} >= "
            f"{applicability_bound(shuffled, delta):.6g} for {shuffled} shuffled reports"
        )
    alpha_eff = m * (alpha0 / 2.0) * _noise_floor(shuffled, m, alpha0, delta)
    exponent = h_bound(shuffled, m, m, alpha0, delta, enforce_condition=False)
    try:
        delta_eff = delta * math.exp(exponent)
    except OverflowError:
        delta_eff = math.inf
    status = "ok" if delta_eff < 1.0 else "delta-exceeds-one"
    return AmplificationResult(alpha_eff, delta_eff, 0.0, status)


def calibrate_alpha0(
    target: MetricBudget,
    m: int,
    n: int = 1,
    model: str = "local",
    mode: str = "exact",
) -> float:
    """Per-item level alpha0 achieving the target metric budget after shuffling.

    Exact mode bisects on the effective budget, which increases in alpha0,
    for the largest feasible alpha0; asymptotic mode evaluates the closed-form
    two-branch rule, whose small-budget branch is
    alpha / (32 * sqrt(m * ln(4*m*e^alpha / delta))) locally, with alpha
    replaced by alpha * sqrt(n) in the central model.
    """
    if mode not in ("exact", "asymptotic"):
        raise ValueError("mode must be 'exact' or 'asymptotic'")
    if model not in ("local", "central"):
        raise ValueError("model must be 'local' or 'central'")
    alpha, delta = target.alpha, target.delta
    if alpha == 0.0:
        return 0.0
    if not (0.0 < delta < 1.0):
        raise ValueError("calibration requires delta in (0, 1)")
    if mode == "asymptotic":
        scaled = alpha * math.sqrt(n) if model == "central" else alpha
        log_term = math.log(4.0 * m / delta) + alpha
        threshold = 32.0 * math.sqrt(m * log_term)
        if scaled <= threshold:
            return scaled / threshold
        if alpha < m:
            return 2.0 * math.log(scaled / (16.0 * math.sqrt(m * log_term)))
        raise AmplificationInapplicableError(
            f"no closed-form alpha0: target alpha={alpha} is not below m={m}"
        )
    shuffled = m * n if model == "central" else m
    upper = applicability_bound(shuffled, delta) - 1e-9
    if upper <= 0:
        raise AmplificationInapplicableError(
            f"no feasible alpha0: the amplification condition admits no positive "
            f"level for m={shuffled}, delta={delta}"
        )
    top = effective_budget(upper, delta, m, n, model).alpha_eff
    if top <= alpha:
        return upper
    lo, hi = 0.0, upper
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if effective_budget(mid, delta, m, n, model).alpha_eff <= alpha:
            lo = mid
        else:
            hi = mid
    return lo


def composition_baseline(alpha0: float, m: int) -> float:
    """Budget for m item-wise releases under plain sequential composition."""
    if alpha0 < 0:
        raise ValueError("alpha0 must be nonnegative")
    return m * alpha0
