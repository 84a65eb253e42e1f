import math

import numpy as np
import pytest

from emdp.frequency import (
    freq_error_bound,
    freq_est_central,
    freq_est_local,
    gkrr_error_bound,
    gkrr_forward_matrix,
    gkrr_mechanism,
    gkrr_params,
    gkrr_right_inverse,
    hadamard_response,
    hadamard_user_budget,
    laplace_freq_central,
    emd_upper_clustered,
    operator_norm_1_2,
    project_to_simplex,
    spectral_norm,
)
from emdp.metric_space import build_clustered
from emdp.shuffle_amp import TransitionMechanism
from emdp.transport import Histogram, Multiset, emd

from conftest import random_clustered_shape, random_multiset


def direct_gkrr_matrix(s, t, r, alpha0):
    # Oracle: build the channel row by row from the stated proportionality.
    k = s * t
    raw = np.empty((k, k))
    for x in range(k):
        for y in range(k):
            if x == y:
                raw[x, y] = math.exp(alpha0)
            elif x // t == y // t:
                raw[x, y] = math.exp((1 - r) * alpha0)
            else:
                raw[x, y] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


def test_gkrr_zero_level_is_uniform():
    mech = gkrr_mechanism(2, 3, 0.2, 0.0)
    assert np.abs(mech.matrix - 1 / 6).max() == 0.0


def test_gkrr_worked_probabilities():
    mech = gkrr_mechanism(2, 2, 0.25, 1.0)
    denom = math.exp(1.0) + math.exp(0.75) + 2.0
    assert denom == pytest.approx(6.83528, abs=1e-5)
    assert mech.matrix[0, 0] == pytest.approx(0.39768, abs=1e-5)
    assert mech.matrix[0, 1] == pytest.approx(0.30971, abs=1e-5)
    assert mech.matrix[0, 2] == pytest.approx(0.14630, abs=1e-5)
    assert np.abs(mech.matrix - direct_gkrr_matrix(2, 2, 0.25, 1.0)).max() <= 1e-15


def test_gkrr_matches_direct_construction(rng):
    for _ in range(10):
        s, t, r = random_clustered_shape(rng)
        alpha0 = float(rng.uniform(0.2, 3.0))
        mech = gkrr_mechanism(s, t, r, alpha0)
        assert np.abs(mech.matrix - direct_gkrr_matrix(s, t, r, alpha0)).max() <= 1e-14


def test_gkrr_certification_ratios_exhaustive(rng):
    s, t, r, alpha0 = 3, 2, 0.3, 1.7
    mech = gkrr_mechanism(s, t, r, alpha0)
    dist = mech.space.dist
    for x in range(6):
        for xp in range(6):
            ratios = mech.matrix[x] / mech.matrix[xp]
            assert ratios.max() <= math.exp(alpha0 * dist[x, xp]) * (1 + 1e-12)


def test_gkrr_rows_sum_to_one(rng):
    for _ in range(10):
        s, t, r = random_clustered_shape(rng)
        mech = gkrr_mechanism(s, t, r, float(rng.uniform(0.1, 4.0)))
        assert np.abs(mech.matrix.sum(axis=1) - 1.0).max() <= 1e-12


def test_gkrr_inverse_against_linalg_oracle():
    p = gkrr_params(3, 2, 0.3, 2.0)
    inverse = gkrr_right_inverse(p)
    forward = gkrr_forward_matrix(p)
    assert np.abs(inverse @ forward - np.eye(6)).max() <= 1e-9
    assert np.abs(forward @ inverse - np.eye(6)).max() <= 1e-9
    assert np.abs(inverse - np.linalg.inv(forward)).max() <= 1e-9


def test_gkrr_inverse_identity_sum():
    p = gkrr_params(3, 2, 0.3, 2.0)
    assert p.a_inv + p.t * p.b_inv + p.s * p.t * p.c_inv == pytest.approx(1.0, abs=1e-12)


def test_gkrr_inverse_degenerate_level():
    with pytest.raises(ValueError):
        gkrr_params(2, 2, 0.3, 0.0)


def test_freq_est_near_deterministic_channel(rng):
    space = build_clustered(2, 2, 0.3)
    eps = 1e-15
    matrix = np.full((4, 4), eps / 3)
    np.fill_diagonal(matrix, 1 - eps)
    mech = TransitionMechanism(space, matrix, 200.0)
    users = [random_multiset(rng, space, 20) for _ in range(5)]
    estimate = freq_est_local(users, mech, np.eye(4), seed=0)
    pooled = np.sum([u.counts for u in users], axis=0) / 100
    assert np.abs(estimate - pooled).max() <= 1e-6


def test_unbiasedness_identity_gkrr(rng):
    for _ in range(10):
        s, t, r = random_clustered_shape(rng)
        alpha0 = float(rng.uniform(0.3, 3.0))
        p = gkrr_params(s, t, r, alpha0)
        forward = gkrr_forward_matrix(p)
        inverse = gkrr_right_inverse(p)
        mass = rng.dirichlet(np.ones(s * t))
        assert np.abs(mass @ forward @ inverse - mass).max() <= 1e-9


def test_unbiasedness_identity_hadamard(rng):
    mech, inverse = hadamard_response(5, 1.3)
    mass = rng.dirichlet(np.ones(5))
    assert np.abs(mass @ mech.matrix @ inverse - mass).max() <= 1e-9


def test_freq_est_monte_carlo_unbiased(rng):
    mech = gkrr_mechanism(2, 2, 0.3, 1.0)
    inverse = gkrr_right_inverse(gkrr_params(2, 2, 0.3, 1.0))
    users = [random_multiset(rng, mech.space, 15) for _ in range(8)]
    pooled = np.sum([u.counts for u in users], axis=0)
    pooled = pooled / pooled.sum()
    trials = 2000
    estimates = np.array([freq_est_local(users, mech, inverse, seed=i) for i in range(trials)])
    se = estimates.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(estimates.mean(axis=0) - pooled) <= 4 * se)


def test_freq_est_central_pools_users(rng):
    mech = gkrr_mechanism(2, 1, 0.3, 1.0)
    inverse = gkrr_right_inverse(gkrr_params(2, 1, 0.3, 1.0))
    users = [random_multiset(rng, mech.space, 10) for _ in range(4)]
    pooled = Multiset(mech.space, np.sum([u.counts for u in users], axis=0))
    assert np.array_equal(
        freq_est_central(users, mech, inverse, seed=3),
        freq_est_local([pooled], mech, inverse, seed=3),
    )


def test_freq_est_rejects_bad_inverse(rng):
    mech = gkrr_mechanism(2, 2, 0.3, 1.0)
    users = [random_multiset(rng, mech.space, 5)]
    with pytest.raises(ValueError, match="inverse"):
        freq_est_local(users, mech, np.eye(4), seed=0)


def test_hadamard_low_budget_approaches_uniform():
    mech, _ = hadamard_response(3, 1e-9)
    assert np.abs(mech.matrix - mech.matrix[0, 0]).max() <= 1e-9


def test_hadamard_binary_reduces_to_randomized_response():
    eps0 = 1.1
    mech, _ = hadamard_response(2, eps0)
    # Mass on the two columns where the input's code is positive equals the
    # keep probability of binary randomized response.
    keep = math.exp(eps0) / (math.exp(eps0) + 1.0)
    positive = mech.matrix[0] > mech.matrix[0].min() + 1e-15
    assert mech.matrix[0, positive].sum() == pytest.approx(keep, abs=1e-12)
    assert 1 - mech.matrix[0, positive].sum() == pytest.approx(1 / (math.exp(eps0) + 1), abs=1e-12)


def test_hadamard_right_inverse():
    mech, inverse = hadamard_response(4, 1.0)
    assert mech.out_size == 8
    assert np.abs(mech.matrix @ inverse - np.eye(4)).max() <= 1e-9


def test_hadamard_entries_take_two_values_with_ratio():
    eps0 = 0.7
    mech, _ = hadamard_response(3, eps0)
    values = np.unique(np.round(mech.matrix, 15))
    assert values.size == 2
    assert values.max() / values.min() == pytest.approx(math.exp(eps0), rel=1e-12)


def test_hadamard_user_budget_split():
    assert hadamard_user_budget(2.0, 100, 1e-6) == pytest.approx(
        2.0 / math.sqrt(100 * math.log(100 / 1e-6)), rel=1e-12
    )


def test_laplace_high_budget_returns_histogram(rng):
    space = build_clustered(2, 2, 0.3)
    data = random_multiset(rng, space, 40)
    estimate, _ = laplace_freq_central(data, n=10, eps=1e9, seed=4)
    assert np.abs(estimate - data.normalize().mass).max() <= 1e-6


def test_laplace_prenormalization_error_scale(rng):
    space = build_clustered(2, 2, 0.3)
    data = random_multiset(rng, space, 30)
    n, eps, trials = 20, 0.7, 10**4
    total = 0.0
    for i in range(trials):
        _, raw = laplace_freq_central(data, n, eps, seed=i)
        total += np.abs(raw - data.normalize().mass).sum()
    expected = space.size / (n * eps)  # Laplace mean absolute deviation
    assert abs(total / trials - expected) / expected <= 0.10


def test_laplace_single_point_domain():
    space = build_clustered(1, 1, 0.3)
    data = Multiset(space, np.array([3]))
    estimate, _ = laplace_freq_central(data, n=1, eps=0.5, seed=0)
    assert estimate.tolist() == [1.0]


def test_emd_upper_zero_vector():
    assert emd_upper_clustered(np.zeros(6), r=0.3, cluster_size=2) == 0.0


def test_emd_upper_single_cluster_support():
    u = np.array([0.2, -0.2, 0.0, 0.0])
    assert emd_upper_clustered(u, r=0.3, cluster_size=2) == pytest.approx(0.3 * 0.4, abs=1e-15)


def test_emd_upper_rejects_unbalanced():
    with pytest.raises(ValueError, match="sum to zero"):
        emd_upper_clustered(np.array([0.5, 0.0]), r=0.3, cluster_size=1)


def test_emd_upper_dominates_exact_emd(rng):
    space = build_clustered(2, 3, 0.25)
    for _ in range(500):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        cost, _ = emd(Histogram(space, p), Histogram(space, q))
        assert emd_upper_clustered(p - q, 0.25, 3) >= cost - 1e-12


def test_operator_norms_basics():
    assert operator_norm_1_2(np.eye(5)) == 1.0
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-10)
    assert operator_norm_1_2(np.array([[3.0], [4.0]])) == 5.0


def test_spectral_norm_against_eig_oracle(rng):
    m = rng.standard_normal((5, 7))
    gram_eigs = np.linalg.eigvalsh(m @ m.T)
    assert spectral_norm(m) == pytest.approx(math.sqrt(gram_eigs.max()), abs=1e-8)
    # Nearly tied top singular values, a slow case for iterative methods.
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    near = u[:, :4] @ np.diag([1.0, 1.0 - 1e-5, 0.5, 0.1]) @ v.T
    top = np.linalg.svd(near, compute_uv=False)[0]
    assert spectral_norm(near) == pytest.approx(top, rel=1e-12)


def test_error_bound_identity_inverse_is_zero():
    assert freq_error_bound(np.eye(6), s=2, t=3, r=0.3, m=10, n=10) == 0.0


def test_error_bound_matches_column_norm_oracle():
    s, t, r, alpha0, m, n = 2, 2, 0.25, 2.0, 100, 100
    inverse = gkrr_right_inverse(gkrr_params(s, t, r, alpha0))
    proj = np.kron(np.eye(s), np.ones((t, 1)))
    norm_b = max(np.linalg.norm(inverse.T[:, j]) for j in range(4))
    norm_pb = max(np.linalg.norm((proj.T @ inverse.T)[:, j]) for j in range(4))
    expected = r * math.sqrt(s * t * (norm_b**2 - 1) / (m * n))
    expected += math.sqrt(s * (norm_pb**2 - 1) / (m * n))
    assert freq_error_bound(inverse, s, t, r, m, n) == pytest.approx(expected, abs=1e-9)


def test_error_bound_dominates_monte_carlo(rng):
    s, t, r, alpha0, m, n = 2, 2, 0.25, 2.0, 100, 100
    mech = gkrr_mechanism(s, t, r, alpha0)
    inverse = gkrr_right_inverse(gkrr_params(s, t, r, alpha0))
    bound = freq_error_bound(inverse, s, t, r, m, n)
    pop = rng.dirichlet(np.ones(4))
    errors = np.empty(200)
    for trial in range(200):
        counts = rng.multinomial(m, pop, size=n)
        users = [Multiset(mech.space, c) for c in counts]
        estimate = freq_est_local(users, mech, inverse, seed=trial)
        target = Histogram(mech.space, counts.sum(axis=0) / (m * n))
        errors[trial], _ = emd(Histogram(mech.space, project_to_simplex(estimate)), target)
    assert errors.mean() <= bound


def test_closed_form_bound_dominates_operator_bound_and_error(rng):
    # The closed-form clustered-response bound upper-bounds the operator-norm
    # bound, which in turn dominates the empirical mean error.
    for _ in range(10):
        s, t, r = random_clustered_shape(rng, max_side=3)
        alpha0 = float(rng.uniform(0.4, 2.5))
        m = int(rng.integers(20, 200))
        n = int(rng.integers(20, 200))
        inverse = gkrr_right_inverse(gkrr_params(s, t, r, alpha0))
        operator = freq_error_bound(inverse, s, t, r, m, n)
        closed = gkrr_error_bound(s, t, r, alpha0, m, n)
        assert closed >= operator - 1e-12
        mech = gkrr_mechanism(s, t, r, alpha0)
        pop = rng.dirichlet(np.ones(s * t))
        errors = []
        for trial in range(20):
            counts = rng.multinomial(m, pop, size=n)
            users = [Multiset(mech.space, c) for c in counts]
            estimate = freq_est_local(users, mech, inverse, seed=trial)
            target = Histogram(mech.space, counts.sum(axis=0) / (m * n))
            err, _ = emd(Histogram(mech.space, project_to_simplex(estimate)), target)
            errors.append(err)
        assert np.mean(errors) <= closed


def test_project_to_simplex():
    v = np.array([0.5, -0.1, 0.8])
    out = project_to_simplex(v)
    assert out.min() >= 0 and out.sum() == pytest.approx(1.0, abs=1e-12)
    assert project_to_simplex(np.array([-1.0, -2.0])).tolist() == [0.5, 0.5]
