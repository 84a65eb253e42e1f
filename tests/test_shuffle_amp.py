import math

import numpy as np
import pytest

from emdp.budget import MetricBudget
from emdp.metric_space import build_clustered, build_discrete
from emdp.shuffle_amp import (
    AmplificationInapplicableError,
    TransitionMechanism,
    applicability_bound,
    calibrate_alpha0,
    composition_baseline,
    effective_budget,
    h_bound,
    priv_emd_itemwise,
)
from emdp.transport import Multiset


def reference_h(m, x0, x1, alpha0, delta):
    # Duplicate-formula oracle, written independently of the implementation.
    ratio = (math.exp(alpha0 * x1 / x0) - 1.0) / (math.exp(alpha0 * x1 / x0) + 1.0)
    tail = 8.0 * math.sqrt(math.exp(alpha0) * math.log(4.0 * x0 / delta)) / math.sqrt(m)
    tail += 8.0 * math.exp(alpha0) / m
    return x0 * math.log(1.0 + ratio * tail)


def near_identity_mechanism(space, eps=1e-15):
    k = space.size
    matrix = np.full((k, k), eps / (k - 1))
    np.fill_diagonal(matrix, 1.0 - eps)
    # Off-diagonal mass eps/(k-1) against 1-eps gives a log-ratio around 34.6,
    # certified here with a comfortably larger finite level.
    alpha0 = (math.log((1.0 - eps) / (eps / (k - 1))) + 1.0) / space.dist[space.dist > 0].min()
    return TransitionMechanism(space, matrix, alpha0)


def test_transition_mechanism_validation():
    space = build_discrete(2)
    with pytest.raises(ValueError, match="finite"):
        TransitionMechanism(space, np.eye(2), math.inf)
    with pytest.raises(ValueError, match="sum to 1"):
        TransitionMechanism(space, np.array([[0.9, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError, match="certification"):
        TransitionMechanism(space, np.array([[0.9, 0.1], [0.1, 0.9]]), 0.5)
    ok = TransitionMechanism(space, np.array([[0.9, 0.1], [0.1, 0.9]]), math.log(9.0))
    assert ok.out_size == 2


def test_itemwise_near_deterministic_channel():
    space = build_clustered(2, 2, 0.3)
    mech = near_identity_mechanism(space)
    data = Multiset(space, np.array([2, 1, 0, 3]))
    out = priv_emd_itemwise(data, mech, seed=5)
    assert np.bincount(out, minlength=4).tolist() == [2, 1, 0, 3]


def test_itemwise_single_item_distribution():
    space = build_clustered(2, 1, 0.3)
    matrix = np.array([[0.8, 0.2], [0.2, 0.8]])
    mech = TransitionMechanism(space, matrix, math.log(4.0))
    data = Multiset(space, np.array([1, 0]))
    draws = 20_000
    ones = sum(int(priv_emd_itemwise(data, mech, seed=i)[0]) for i in range(draws))
    assert abs(ones / draws - 0.2) <= 4 * math.sqrt(0.2 * 0.8 / draws)


def test_itemwise_is_input_order_invariant():
    space = build_clustered(2, 2, 0.3)
    mech = near_identity_mechanism(space)
    a = Multiset.from_items(space, [3, 0, 1, 3])
    b = Multiset.from_items(space, [0, 3, 3, 1])
    assert np.array_equal(priv_emd_itemwise(a, mech, seed=9), priv_emd_itemwise(b, mech, seed=9))


def test_itemwise_rejects_empty():
    space = build_clustered(2, 1, 0.3)
    mech = near_identity_mechanism(space)
    with pytest.raises(ValueError, match="empty"):
        priv_emd_itemwise(Multiset(space, np.array([0, 0])), mech, seed=0)


def test_itemwise_requires_the_channel_space():
    mech = near_identity_mechanism(build_clustered(2, 2, 0.3))
    # An equal distance table counts as the same space.
    same = Multiset(build_clustered(2, 2, 0.3), np.array([1, 0, 0, 1]))
    assert priv_emd_itemwise(same, mech, seed=0).size == 2
    other = Multiset(build_clustered(2, 2, 0.4), np.array([1, 0, 0, 1]))
    with pytest.raises(ValueError, match="different metric spaces"):
        priv_emd_itemwise(other, mech, seed=0)


def test_h_bound_zero_cases():
    assert h_bound(1000, 1000, 0.0, 0.3, 1e-6) == 0.0
    assert h_bound(1000, 1000, 500.0, 0.0, 1e-6) == 0.0


def test_h_bound_matches_reference_formula():
    cases = [
        (1000, 1000.0, 500.0, 0.1, 1e-6),
        (1000, 1000.0, 1000.0, 0.5, 1e-6),
        (10**6, 100.0, 37.5, 2.0, 1e-9),
    ]
    for m, x0, x1, alpha0, delta in cases:
        assert h_bound(m, x0, x1, alpha0, delta) == pytest.approx(
            reference_h(m, x0, x1, alpha0, delta), abs=1e-12
        )


def test_h_bound_condition_enforced():
    # ln(m / (16 ln(4m/delta))) for m=1000, delta=1e-6 is about 1.039.
    bound = applicability_bound(1000, 1e-6)
    assert bound == pytest.approx(math.log(1000 / (16 * math.log(4000 / 1e-6))), abs=1e-12)
    with pytest.raises(AmplificationInapplicableError, match="inapplicable"):
        h_bound(1000, 1000, 500, bound + 0.01, 1e-6)
    h_bound(1000, 1000, 500, bound + 0.01, 1e-6, enforce_condition=False)


def test_h_bound_monotone_in_x1():
    values = [h_bound(1000, 1000, x1, 0.4, 1e-6) for x1 in np.linspace(0, 1000, 200)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_h_bound_concavity_in_ratio():
    # Second differences of h as a function of x1/x0 stay nonpositive.
    x0 = 500.0
    grid = np.linspace(0.0, 1.0, 100)
    vals = np.array([h_bound(1000, x0, w * x0, 0.6, 1e-6) for w in grid])
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert second.max() <= 1e-9


def test_effective_budget_zero_alpha0():
    res = effective_budget(0.0, 1e-6, 1000)
    assert res.alpha_eff == 0.0
    assert res.delta_eff == 1e-6


def test_effective_budget_monotone_in_alpha0():
    top = applicability_bound(1000, 1e-6)
    grid = np.linspace(top / 40, top * 0.999, 20)
    values = [effective_budget(a0, 1e-6, 1000).alpha_eff for a0 in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_effective_budget_matches_small_w_limit():
    # h(.; m, m*w) is concave in w and vanishes at 0, so h/w never increases
    # and the supremum is its slope at zero, attained at w = 0.
    cases = [
        # (alpha0, delta, m, n, model, enforce_condition)
        (1.5, 1e-12, 1000, 100000, "central", True),
        (1e-12, 1e-3, 1000, 1, "local", True),
        (0.5, 0.05, 2, 1, "local", False),
    ]
    for alpha0, delta, m, n, model, enforce in cases:
        res = effective_budget(alpha0, delta, m, n, model, enforce_condition=enforce)
        shuffled = m * n if model == "central" else m
        floor = 8 * math.sqrt(math.exp(alpha0) * math.log(4 * m / delta)) / math.sqrt(shuffled)
        floor += 8 * math.exp(alpha0) / shuffled
        assert res.alpha_eff == pytest.approx(m * alpha0 / 2 * floor, rel=1e-15), (alpha0, m, model)
        assert res.w_star == 0.0


def test_effective_budget_delta_warning():
    res = effective_budget(0.5, 0.05, 2, enforce_condition=False)
    assert res.delta_eff > 1.0
    assert res.status == "delta-exceeds-one"


def test_calibrate_zero_target():
    assert calibrate_alpha0(MetricBudget(0.0, 1e-6), m=100) == 0.0


def test_calibrate_exact_central_worked_example():
    target = MetricBudget(25.0, 1e-12)
    alpha0 = calibrate_alpha0(target, m=1000, n=100000, model="central", mode="exact")
    assert 2.1 <= alpha0 <= 3.9
    res = effective_budget(alpha0, 1e-12, 1000, 100000, "central")
    assert res.alpha_eff <= 25.0


def test_calibrate_round_trip_inequality():
    for alpha in (0.5, 2.0, 10.0, 40.0):
        target = MetricBudget(alpha, 1e-8)
        a0 = calibrate_alpha0(target, m=2000, mode="exact")
        assert effective_budget(a0, 1e-8, 2000).alpha_eff <= alpha


def test_calibrate_asymptotic_small_branch():
    alpha, m, delta = 1.0, 100, 1e-6
    a0 = calibrate_alpha0(MetricBudget(alpha, delta), m=m, mode="asymptotic")
    expected = alpha / (32 * math.sqrt(m * math.log(4 * m * math.exp(alpha) / delta)))
    assert a0 == pytest.approx(expected, rel=1e-12)


def test_calibrate_asymptotic_central_small_branch():
    alpha, m, n, delta = 2.0, 1000, 10**4, 1e-6
    a0 = calibrate_alpha0(MetricBudget(alpha, delta), m=m, n=n, model="central", mode="asymptotic")
    scaled = alpha * math.sqrt(n)
    expected = scaled / (32 * math.sqrt(m * math.log(4 * m * math.exp(alpha) / delta)))
    assert a0 == pytest.approx(expected, rel=1e-12)


def test_calibrate_infeasible_cases():
    with pytest.raises(AmplificationInapplicableError):
        # m so small that no positive alpha0 satisfies the condition.
        calibrate_alpha0(MetricBudget(1.0, 1e-6), m=3, mode="exact")
    with pytest.raises(AmplificationInapplicableError):
        # asymptotic branches require alpha < m.
        calibrate_alpha0(MetricBudget(10**7, 1e-6), m=100, mode="asymptotic")


def test_composition_baseline_worked_example():
    assert composition_baseline(0.025, 1000) == pytest.approx(25.0)
    assert composition_baseline(0.0, 123) == 0.0


def test_amplification_beats_composition():
    alpha0, m, delta = 0.05, 10**4, 1e-8
    amplified = effective_budget(alpha0, delta, m).alpha_eff
    assert amplified < composition_baseline(alpha0, m)
