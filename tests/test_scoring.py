import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from jplda import (
    AllHypothesesExcluded,
    FactorizationFailed,
    HypothesisVector,
    ModelParams,
    NonFinite,
    PriorConfig,
    UnknownId,
    build_k_sum,
    collapse_to_plda,
    compute_phi,
    enumerate_condition_hypotheses,
    hypothesis_log_prior,
    llr,
    partition_factors,
    posterior_moments,
    precompute_session,
    q_term,
    score_trials,
    stack_w,
)
from jplda.oracle import gaussian_llr_oracle, marginal_cov

from conftest import random_model, random_priors


def scalar_model():
    return ModelParams(
        mu=np.zeros(1), V=np.array([[1.0]]), U=(np.array([[2.0]]),), D=np.array([[1.0]])
    )


def gram(model):
    w = stack_w(model)
    return w.T @ model.D @ w


def side_blocks(model, part):
    """The tied and untied loadings W_S, W_D of one partition."""
    w = stack_w(model)
    return w[:, part.tied_cols], w[:, part.untied_cols]


# posterior precision -----------------------------------------------------


def test_k_sum_scalar_blocks():
    model = scalar_model()
    part = partition_factors(model, HypothesisVector(True, (False,)))
    np.testing.assert_allclose(
        build_k_sum(gram(model), part),
        [[3.0, 2.0, 2.0], [2.0, 5.0, 0.0], [2.0, 0.0, 5.0]],
        atol=1e-14,
    )


def test_k_sum_no_tied_block(rng):
    model = random_model(rng, 3, 2, (1,))
    part = partition_factors(model, HypothesisVector(False, (False,)))
    k = build_k_sum(gram(model), part)
    n_d = part.n_d
    _, w_untied = side_blocks(model, part)
    block = w_untied.T @ model.D @ w_untied + np.eye(n_d)
    np.testing.assert_allclose(k[:n_d, :n_d], block, atol=1e-12)
    np.testing.assert_allclose(k[n_d:, n_d:], block, atol=1e-12)
    np.testing.assert_array_equal(k[:n_d, n_d:], np.zeros((n_d, n_d)))


def test_k_sum_no_untied_block(rng):
    model = random_model(rng, 3, 2, (1,))
    part = partition_factors(model, HypothesisVector(True, (True,)))
    k = build_k_sum(gram(model), part)
    w_tied, _ = side_blocks(model, part)
    want = 2.0 * w_tied.T @ model.D @ w_tied + np.eye(part.n_s)
    np.testing.assert_allclose(k, want, atol=1e-12)


def test_session_counts_and_reconstruction(rng, factorizations):
    for n_cond, expected in ((2, 8), (0, 2)):
        r_x = (1, 2)[:n_cond]
        model = random_model(rng, 4, 2, r_x)
        factorizations.clear()
        session = precompute_session(model, PriorConfig.uniform(n_cond))
        assert len(session.factorizations) == expected
        assert len(factorizations) == expected
        for h, fact in session.factorizations.items():
            k = build_k_sum(gram(model), fact.partition)
            recon = fact.chol @ fact.chol.T
            np.testing.assert_allclose(recon, k, rtol=1e-8, atol=1e-12)
            assert math.isfinite(fact.half_log_det_sigma)


def test_session_names_nan_loadings():
    model = ModelParams(mu=np.zeros(2), V=np.array([[np.nan], [1.0]]), U=(), D=np.eye(2))
    with pytest.raises(NonFinite, match="V"):
        precompute_session(model, PriorConfig.uniform(0))


def test_session_rejects_overflowing_model():
    huge = ModelParams(
        mu=np.zeros(2),
        V=np.full((2, 1), 1e200),
        U=(),
        D=np.diag([1e200, 1e200]),
    )
    with np.errstate(over="ignore"), pytest.raises(FactorizationFailed):
        precompute_session(huge, PriorConfig.uniform(0))


# information vector ------------------------------------------------------


def test_phi_zero_inputs(rng):
    model = random_model(rng, 3, 1, (2,))
    session = precompute_session(model, PriorConfig.uniform(1))
    h = HypothesisVector(True, (False,))
    got = compute_phi(session, h, np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(got, np.zeros(1 + 2 * 2))


def test_phi_all_tied_uses_sum(rng):
    model = random_model(rng, 3, 2, (1,))
    session = precompute_session(model, PriorConfig.uniform(1))
    h = HypothesisVector(True, (True,))
    m_e, m_t = rng.standard_normal(3), rng.standard_normal(3)
    w_tied, _ = side_blocks(model, session.factorizations[h].partition)
    want = w_tied.T @ model.D @ (m_e + m_t)
    np.testing.assert_allclose(compute_phi(session, h, m_e, m_t), want, atol=1e-12)


def test_phi_scalar_values():
    session = precompute_session(scalar_model(), PriorConfig.uniform(1))
    got = compute_phi(
        session, HypothesisVector(True, (False,)), np.array([1.0]), np.array([-1.0])
    )
    np.testing.assert_allclose(got, [0.0, 2.0, -2.0], atol=1e-15)


# per-hypothesis terms ----------------------------------------------------


def test_q_term_zero_prior_is_minus_inf(rng):
    model = random_model(rng, 2, 1, (1,))
    session = precompute_session(model, PriorConfig((1.0,), (0.5,)))
    assert q_term(session, True, (False,), np.zeros(2), np.zeros(2)) == -math.inf


def test_q_term_zero_inputs_reduce_to_log_det(rng):
    model = random_model(rng, 3, 2, (1,))
    priors = random_priors(rng, 1)
    session = precompute_session(model, priors)
    h = (True,)
    fact = session.factorizations[HypothesisVector(False, h)]
    want = fact.half_log_det_sigma + fact.log_prior
    got = q_term(session, False, h, np.zeros(3), np.zeros(3))
    assert got == pytest.approx(want, abs=1e-12)


def test_q_term_matches_marginal_density_plus_offset(rng):
    # the per-hypothesis term differs from the explicit pair marginal
    # log-density by the hypothesis-independent noise-only likelihood
    for _ in range(10):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(0, 3))
        r_x = tuple(int(r) for r in rng.integers(1, 3, size=n))
        model = random_model(rng, d, int(rng.integers(0, 3)), r_x, centered=True)
        priors = random_priors(rng, n)
        session = precompute_session(model, priors)
        m_e, m_t = rng.standard_normal(d), rng.standard_normal(d)
        noise_cov = np.linalg.inv(model.D)
        offset = multivariate_normal.logpdf(m_e, cov=noise_cov) + multivariate_normal.logpdf(
            m_t, cov=noise_cov
        )
        pair = np.concatenate([m_e, m_t])
        for spk in (True, False):
            for cond in enumerate_condition_hypotheses(n):
                h = HypothesisVector(spk, cond)
                log_prior = hypothesis_log_prior(h, priors)
                if log_prior == -math.inf:
                    continue
                want = (
                    multivariate_normal.logpdf(pair, cov=marginal_cov(model, h))
                    - offset
                    + log_prior
                )
                got = q_term(session, spk, cond, m_e, m_t)
                assert got == pytest.approx(want, abs=1e-8)


# posterior moments -------------------------------------------------------


def test_posterior_mean_zero_for_zero_inputs(rng):
    model = random_model(rng, 3, 1, (1,))
    session = precompute_session(model, PriorConfig.uniform(1))
    mom = posterior_moments(session, True, (False,), np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(mom.z_hat, np.zeros(3))


def test_posterior_cov_inverts_precision(rng):
    model = random_model(rng, 4, 2, (1, 2))
    session = precompute_session(model, PriorConfig.uniform(2))
    for h, fact in session.factorizations.items():
        mom = posterior_moments(
            session, h.speaker_tied, h.condition_tied, np.zeros(4), np.zeros(4)
        )
        k = build_k_sum(gram(model), fact.partition)
        np.testing.assert_allclose(mom.sigma @ k, np.eye(fact.size), atol=1e-8)


def test_posterior_mean_matches_conditional_gaussian(rng):
    model = random_model(rng, 3, 1, (2,), centered=True)
    session = precompute_session(model, PriorConfig.uniform(1))
    m_e, m_t = rng.standard_normal(3), rng.standard_normal(3)
    for h in session.factorizations:
        part = session.factorizations[h].partition
        d = model.d
        w_tied, w_untied = side_blocks(model, part)
        w_e = np.concatenate([w_tied, w_untied, np.zeros((d, part.n_d))], axis=1)
        w_t = np.concatenate([w_tied, np.zeros((d, part.n_d)), w_untied], axis=1)
        noise = np.linalg.inv(model.D)
        cov_zm = np.concatenate([w_e.T, w_t.T], axis=1)
        cov_mm = np.block(
            [[w_e @ w_e.T + noise, w_e @ w_t.T], [w_t @ w_e.T, w_t @ w_t.T + noise]]
        )
        want = cov_zm @ np.linalg.solve(cov_mm, np.concatenate([m_e, m_t]))
        mom = posterior_moments(session, h.speaker_tied, h.condition_tied, m_e, m_t)
        np.testing.assert_allclose(mom.z_hat, want, atol=1e-9)


# full-trial scores -------------------------------------------------------


def test_llr_zero_speaker_subspace_matched_priors(rng):
    model = ModelParams(
        mu=rng.standard_normal(3),
        V=np.zeros((3, 2)),
        U=(rng.standard_normal((3, 2)),),
        D=np.eye(3),
    )
    session = precompute_session(model, PriorConfig((0.3,), (0.3,)))
    for _ in range(5):
        got = llr(session, rng.standard_normal(3), rng.standard_normal(3))
        assert got == pytest.approx(0.0, abs=1e-10)


def test_llr_swap_symmetry(rng):
    for _ in range(10):
        n = int(rng.integers(0, 3))
        model = random_model(rng, int(rng.integers(1, 5)), 2, (1, 2)[:n])
        session = precompute_session(model, random_priors(rng, model.n_conditions))
        m_e = rng.standard_normal(model.d)
        m_t = rng.standard_normal(model.d)
        assert llr(session, m_e, m_t) == pytest.approx(llr(session, m_t, m_e), abs=1e-10)


def test_llr_matches_oracle(rng):
    model = random_model(rng, 2, 1, (1,))
    priors = random_priors(rng, 1)
    session = precompute_session(model, priors)
    for _ in range(20):
        m_e, m_t = rng.standard_normal(2), rng.standard_normal(2)
        got = llr(session, m_e, m_t)
        want = gaussian_llr_oracle(model, priors, m_e, m_t)
        assert got == pytest.approx(want, abs=1e-8)


def test_llr_degenerate_priors_single_hypothesis(rng):
    # exactly one hypothesis alive per branch: the LLR collapses to a
    # single Gaussian log-density difference
    model = random_model(rng, 3, 2, (1, 1))
    priors = PriorConfig((1.0, 0.0), (0.0, 1.0))
    session = precompute_session(model, priors)
    m_e, m_t = rng.standard_normal(3), rng.standard_normal(3)
    pair = np.concatenate([m_e - model.mu, m_t - model.mu])
    num = multivariate_normal.logpdf(
        pair, cov=marginal_cov(model, HypothesisVector(True, (True, False)))
    )
    den = multivariate_normal.logpdf(
        pair, cov=marginal_cov(model, HypothesisVector(False, (False, True)))
    )
    assert llr(session, m_e, m_t) == pytest.approx(num - den, abs=1e-8)


def test_llr_collapsed_model_is_plain_plda(rng):
    # with no conditions, scoring reduces to the classical two-hypothesis
    # ratio on the collapsed covariance structure
    model = collapse_to_plda(random_model(rng, 3, 2, (2,)))
    session = precompute_session(model, PriorConfig.uniform(0))
    for _ in range(5):
        m_e, m_t = rng.standard_normal(3), rng.standard_normal(3)
        pair = np.concatenate([m_e - model.mu, m_t - model.mu])
        num = multivariate_normal.logpdf(pair, cov=marginal_cov(model, HypothesisVector(True, ())))
        den = multivariate_normal.logpdf(
            pair, cov=marginal_cov(model, HypothesisVector(False, ()))
        )
        assert llr(session, m_e, m_t) == pytest.approx(num - den, abs=1e-8)


def test_llr_prior_scaling_invariance(rng):
    # scaling every hypothesis prior by the same constant in both
    # branches must cancel in the ratio
    model = random_model(rng, 3, 1, (1, 1))
    session = precompute_session(model, random_priors(rng, 2))
    shift = math.log(37.0)
    scaled = dataclasses.replace(
        session,
        factorizations=session.factorizations,
        ss_branch=tuple(
            dataclasses.replace(f, log_prior=f.log_prior + shift) for f in session.ss_branch
        ),
        ds_branch=tuple(
            dataclasses.replace(f, log_prior=f.log_prior + shift) for f in session.ds_branch
        ),
    )
    for _ in range(5):
        m_e, m_t = rng.standard_normal(3), rng.standard_normal(3)
        assert llr(session, m_e, m_t) == pytest.approx(llr(scaled, m_e, m_t), abs=1e-10)


def test_llr_all_hypotheses_excluded(rng):
    model = random_model(rng, 2, 1, (1,))
    session = precompute_session(model, PriorConfig.uniform(1))
    broken = dataclasses.replace(
        session,
        ss_branch=tuple(dataclasses.replace(f, log_prior=-math.inf) for f in session.ss_branch),
    )
    with pytest.raises(AllHypothesesExcluded):
        llr(broken, rng.standard_normal(2), rng.standard_normal(2))


# batch scoring -----------------------------------------------------------


def batch_setup(rng, n_trials, d=4):
    model = random_model(rng, d, 2, (1, 2))
    session = precompute_session(model, random_priors(rng, 2))
    enroll = {f"e{i}": rng.standard_normal(d) for i in range(max(1, n_trials // 3))}
    test = {f"t{i}": rng.standard_normal(d) for i in range(max(1, n_trials // 3))}
    eids = list(enroll)
    tids = list(test)
    trials = [
        (eids[int(rng.integers(len(eids)))], tids[int(rng.integers(len(tids)))])
        for _ in range(n_trials)
    ]
    return session, enroll, test, trials


def test_score_trials_empty(rng):
    session, enroll, test, _ = batch_setup(rng, 3)
    assert score_trials(session, enroll, test, []).shape == (0,)


def test_score_trials_single_equals_llr(rng):
    session, enroll, test, trials = batch_setup(rng, 1)
    (eid, tid) = trials[0]
    got = score_trials(session, enroll, test, trials)
    assert got[0] == llr(session, enroll[eid], test[tid])


def test_score_trials_matches_per_trial_loop_bitwise(rng):
    session, enroll, test, trials = batch_setup(rng, 500)
    batch = score_trials(session, enroll, test, trials)
    loop = np.array([llr(session, enroll[e], test[t]) for e, t in trials])
    assert np.array_equal(batch, loop)


def test_score_trials_order_does_not_change_bits(rng):
    session, enroll, test, trials = batch_setup(rng, 503)
    forward = score_trials(session, enroll, test, trials)
    backward = score_trials(session, enroll, test, trials[::-1])[::-1]
    assert forward.tobytes() == backward.tobytes()


def test_score_trials_unknown_id(rng):
    session, enroll, test, trials = batch_setup(rng, 2)
    with pytest.raises(UnknownId, match="nope"):
        score_trials(session, enroll, test, trials + [("nope", trials[0][1])])


def test_llr_rejects_non_finite_input(rng):
    session, enroll, test, _ = batch_setup(rng, 3)
    good = next(iter(enroll.values()))
    for bad in (np.nan, np.inf):
        vec = good.copy()
        vec[1] = bad
        with pytest.raises(NonFinite):
            llr(session, vec, good)
        with pytest.raises(NonFinite):
            llr(session, good, vec)


def test_score_trials_names_non_finite_embedding(rng):
    session, enroll, test, trials = batch_setup(rng, 30)
    eid = trials[-1][0]
    enroll = dict(enroll, **{eid: np.full_like(enroll[eid], np.nan)})
    with pytest.raises(NonFinite, match=f"enroll id '{eid}'"):
        score_trials(session, enroll, test, trials)


def test_score_trials_never_refactorizes(rng, factorizations):
    session, enroll, test, trials = batch_setup(rng, 100)
    factorizations.clear()
    score_trials(session, enroll, test, trials)
    assert factorizations == []
