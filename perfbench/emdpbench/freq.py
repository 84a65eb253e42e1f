"""freq-unbounded: the aggregation pipeline for users with unbounded data.

Every round aggregates one population: calibrate the per-item level for the
target budget, build the clustered randomized response and its inverse,
project every user to SAMPLES items and estimate the pooled histogram through
the channel, clamp the estimate to the simplex, and measure its earth mover's
error against the users' mean normalized histogram. Rounds alternate between
two domains because they stress different layers: at k=64 the per-user fixed
cost (substreams, projection) dominates, at k=256 the k^2 channel sampling,
the O(k^2 Y) channel certification and one large transport LP do.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

import emdp

from .harness import Op, rate_by_kind


@dataclass(frozen=True)
class Domain:
    name: str
    s: int
    t: int
    r: float
    users: int


DOMAINS = (Domain("k64", 8, 8, 0.3, 20_000), Domain("k256", 16, 16, 0.3, 4_000))
PROBE_DOMAINS = (Domain("k64", 8, 8, 0.3, 2_000), Domain("k256", 16, 16, 0.3, 400))
TARGET = emdp.MetricBudget(alpha=25.0, delta=1e-6)
SAMPLES = 50  # projected dataset size, also the m of the calibration
MEAN_ITEMS = 60  # mean of the geometric dataset sizes
CONCENTRATION = 0.5  # Dirichlet concentration per point around the skewed mean
ZIPF = 1.1
SUM_ATOL = 1e-9
# The error tolerance is ERROR_SLACK times the estimator's expected-error bound
# plus the projection's sampling term. When this benchmark was written, the
# error was at most 0.43 of that sum over 20 seeds, on both domains, at the
# full, probe and test sizes.
ERROR_SLACK = 1.0


@dataclass
class Population:
    domain: Domain
    space: emdp.MetricSpace
    users: list
    truth: emdp.Histogram


@dataclass
class RoundOutput:
    domain: Domain
    users: int
    alpha0: float
    inverse: np.ndarray
    estimate: np.ndarray
    error: float


def make_population(domain: Domain, seed: int) -> Population:
    """Users with geometric dataset sizes drawn around a Zipf-skewed mean."""
    rng = np.random.default_rng(seed)
    space = emdp.build_clustered(domain.s, domain.t, domain.r)
    k = space.size
    mean = 1.0 / (1.0 + np.arange(k)) ** ZIPF
    mean = mean[rng.permutation(k)] / mean.sum()
    prefs = rng.dirichlet(CONCENTRATION * k * mean, size=domain.users)
    sizes = rng.geometric(1.0 / MEAN_ITEMS, size=domain.users)  # never 0
    counts = rng.multinomial(sizes, prefs)
    users = [emdp.Multiset(space, c) for c in counts]
    truth = (counts / sizes[:, None]).mean(axis=0)
    return Population(domain, space, users, emdp.Histogram(space, truth / truth.sum()))


def error_tolerance(out: RoundOutput) -> float:
    d = out.domain
    bound = emdp.freq_error_bound(out.inverse, d.s, d.t, d.r, SAMPLES, out.users)
    sampling = d.r * math.sqrt(d.s * d.t / (SAMPLES * out.users)) + math.sqrt(d.s / (SAMPLES * out.users))
    return ERROR_SLACK * (bound + sampling)


def check_round(out: RoundOutput) -> str | None:
    k = out.domain.s * out.domain.t
    if out.estimate.shape != (k,) or not np.all(np.isfinite(out.estimate)):
        return f"{out.domain.name}: estimate is not a finite vector of length {k}"
    if abs(out.estimate.sum() - 1.0) > SUM_ATOL:
        return f"{out.domain.name}: estimate sums to {out.estimate.sum()!r}"
    try:
        budget = emdp.effective_budget(out.alpha0, TARGET.delta, SAMPLES, out.users, "central")
    except emdp.AmplificationInapplicableError as exc:
        return f"{out.domain.name}: alpha0={out.alpha0} is outside the amplification regime ({exc})"
    if not budget.alpha_eff <= TARGET.alpha:
        return f"{out.domain.name}: alpha0={out.alpha0} gives alpha_eff={budget.alpha_eff} > {TARGET.alpha}"
    tol = error_tolerance(out)
    if not out.error <= tol:
        return f"{out.domain.name}: EMD error {out.error} exceeds tolerance {tol}"
    return None


class FreqUnbounded:
    name = "freq-unbounded"
    traced_ops = 2  # one round per domain

    def __init__(self, domains: tuple[Domain, ...] = DOMAINS):
        self.domains = domains
        self.min_ops = len(domains)

    def setup(self, seed: int) -> list[Population]:
        seeds = np.random.SeedSequence([seed, 1]).generate_state(len(self.domains))
        return [make_population(d, int(s)) for d, s in zip(self.domains, seeds)]

    def ops(self, state: list[Population], seed: int):
        for i in itertools.count():
            pop = state[i % len(state)]
            red_seed, est_seed = (int(v) for v in np.random.SeedSequence([seed, 2, i]).generate_state(2))
            yield Op(pop.domain.name, len(pop.users), partial(run_round, pop, red_seed, est_seed), i)

    def check(self, state, records) -> list[str | None]:
        return [check_round(r.output) for r in records]

    def metrics(self, records) -> dict[str, float]:
        rates = rate_by_kind(records)
        return {f"freq.users_per_s_{d.name}": rates[d.name] for d in self.domains}

    def samples(self, records) -> dict[str, int]:
        return {f"freq.users_per_s_{d.name}": sum(r.op.kind == d.name for r in records) for d in self.domains}

    @classmethod
    def probe(cls) -> "FreqUnbounded":
        return cls(PROBE_DOMAINS)


def run_round(pop: Population, red_seed: int, est_seed: int, tracer) -> RoundOutput:
    d = pop.domain
    n = len(pop.users)
    with tracer.span("shuffle_amp.calibrate"):
        alpha0 = emdp.calibrate_alpha0(TARGET, m=SAMPLES, n=n, model="central", mode="exact")
    with tracer.span("frequency.gkrr_mechanism"):
        mech = emdp.gkrr_mechanism(d.s, d.t, d.r, alpha0)
    with tracer.span("frequency.gkrr_right_inverse"):
        inverse = emdp.gkrr_right_inverse(emdp.gkrr_params(d.s, d.t, d.r, alpha0))

    def inner(projected):
        tracer.count("frequency.users_estimated", len(projected))
        with tracer.span("frequency.freq_est_local"):
            return emdp.freq_est_local(projected, mech, inverse, seed=est_seed)

    with tracer.span("reduction.bounded_emd_reduction"):
        estimate = emdp.bounded_emd_reduction(pop.users, SAMPLES, inner=inner, seed=red_seed)
    with tracer.span("frequency.project_to_simplex"):
        simplex = emdp.project_to_simplex(estimate)
    with tracer.span("transport.emd"):
        error, _ = emdp.emd(emdp.Histogram(pop.space, simplex), pop.truth)
    return RoundOutput(d, n, alpha0, inverse, estimate, error)
