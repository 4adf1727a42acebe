import math
import re

import numpy as np
import pytest

from jplda import (
    DimensionMismatch, HypothesisVector, ModelParams, NonFinite, OrphanLatent, PriorConfig,
)
from jplda.oracle import (
    LabeledLatents,
    data_loglik,
    gaussian_llr_oracle,
    joint_prior_logpdf,
    marginal_cov,
    per_sample_prior_logpdf,
)

from conftest import random_model, random_priors

LOG_2PI = math.log(2 * math.pi)


def scalar_model():
    return ModelParams(
        mu=np.zeros(1), V=np.array([[1.0]]), U=(np.array([[2.0]]),), D=np.array([[1.0]])
    )


def random_latents(rng, r_y, r_x, n_speakers, cards, n_samples):
    """Labeled latents where every latent is referenced at least once."""
    assert n_samples >= max([n_speakers] + list(cards))
    y = rng.standard_normal((n_speakers, r_y))
    x = tuple(rng.standard_normal((c, r)) for c, r in zip(cards, r_x))
    spk = np.concatenate(
        [np.arange(n_speakers), rng.integers(0, n_speakers, size=n_samples - n_speakers)]
    )
    cond = np.zeros((len(cards), n_samples), dtype=np.int64)
    for j, c in enumerate(cards):
        cond[j] = np.concatenate([np.arange(c), rng.integers(0, c, size=n_samples - c)])
    return LabeledLatents(y=y, x=x, speaker_idx=spk, cond_idx=cond)


# marginal covariance -----------------------------------------------------


def test_marginal_cov_scalar_case():
    cov = marginal_cov(scalar_model(), HypothesisVector(True, (False,)))
    np.testing.assert_allclose(cov, [[6.0, 1.0], [1.0, 6.0]], atol=1e-12)


def test_marginal_cov_untied_has_zero_cross_block(rng):
    model = random_model(rng, 3, 2, (1,))
    cov = marginal_cov(model, HypothesisVector(False, (False,)))
    np.testing.assert_array_equal(cov[:3, 3:], np.zeros((3, 3)))


def test_marginal_cov_all_tied_cross_block(rng):
    model = random_model(rng, 3, 2, (2,))
    cov = marginal_cov(model, HypothesisVector(True, (True,)))
    want = model.V @ model.V.T + model.U[0] @ model.U[0].T
    np.testing.assert_allclose(cov[:3, 3:], want, atol=1e-12)


def test_marginal_cov_is_spd(rng):
    for _ in range(10):
        d = int(rng.integers(1, 6))
        r_x = tuple(int(r) for r in rng.integers(1, 3, size=rng.integers(0, 3)))
        model = random_model(rng, d, int(rng.integers(0, 3)), r_x)
        for spk in (True, False):
            for cond in [(True,) * len(r_x), (False,) * len(r_x)]:
                cov = marginal_cov(model, HypothesisVector(spk, cond))
                np.linalg.cholesky(cov)


def test_marginal_cov_diagonal_noise_block_is_reciprocal(rng):
    # inv(D) of a diagonal D has the bits of diag(1 / diag D)
    for d in range(1, 9):
        big_d = np.diag(rng.uniform(0.1, 10.0, size=d))
        model = ModelParams(mu=np.zeros(d), V=np.zeros((d, 0)), U=(), D=big_d)
        cov = marginal_cov(model, HypothesisVector(False, ()))
        want = np.diag(1.0 / np.diag(big_d))
        assert cov[:d, :d].tobytes() == want.tobytes()
        assert cov[d:, d:].tobytes() == want.tobytes()


# llr oracle --------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("side", ["enroll", "test"])
def test_oracle_rejects_non_finite_input(rng, side, bad):
    model = random_model(rng, 3, 1, (1,))
    pair = {"enroll": rng.standard_normal(3), "test": rng.standard_normal(3)}
    pair[side][1] = bad
    with pytest.raises(NonFinite, match=f"^{side} vector contains non-finite values$"):
        gaussian_llr_oracle(model, PriorConfig.uniform(1), pair["enroll"], pair["test"])


def test_oracle_rejects_overflowing_input(rng):
    model = random_model(rng, 3, 1, (1,))
    m = np.full(3, 1e200)
    with pytest.raises(NonFinite, match="log-density under .* overflowed$"):
        gaussian_llr_oracle(model, PriorConfig.uniform(1), m, m)


@pytest.mark.parametrize("side", ["enroll", "test"])
def test_oracle_rejects_wrong_length_input(rng, side):
    model = random_model(rng, 3, 1, (1,))
    pair = {"enroll": rng.standard_normal(3), "test": rng.standard_normal(3)}
    pair[side] = rng.standard_normal(4)
    with pytest.raises(
        DimensionMismatch, match=rf"^{side} vector has shape \(4,\), expected a vector of length 3$"
    ):
        gaussian_llr_oracle(model, PriorConfig.uniform(1), pair["enroll"], pair["test"])


def test_oracle_zero_speaker_subspace_gives_zero(rng):
    model = ModelParams(
        mu=rng.standard_normal(3),
        V=np.zeros((3, 2)),
        U=(rng.standard_normal((3, 1)),),
        D=np.eye(3),
    )
    priors = PriorConfig((0.7,), (0.7,))
    for _ in range(5):
        m_e, m_t = rng.standard_normal(3), rng.standard_normal(3)
        assert gaussian_llr_oracle(model, priors, m_e, m_t) == pytest.approx(0.0, abs=1e-12)


def test_oracle_swap_symmetry(rng):
    model = random_model(rng, 3, 2, (1, 2))
    priors = random_priors(rng, 2)
    m_e, m_t = rng.standard_normal(3), rng.standard_normal(3)
    a = gaussian_llr_oracle(model, priors, m_e, m_t)
    b = gaussian_llr_oracle(model, priors, m_t, m_e)
    assert a == pytest.approx(b, abs=1e-10)


# prior densities ---------------------------------------------------------


def test_joint_prior_single_zero_latent():
    latents = LabeledLatents(
        y=np.zeros((1, 1)), x=(), speaker_idx=np.zeros(1, dtype=int), cond_idx=np.zeros((0, 1))
    )
    assert joint_prior_logpdf(latents) == pytest.approx(-0.5 * LOG_2PI, abs=1e-15)


def test_joint_prior_two_scalar_speakers():
    latents = LabeledLatents(
        y=np.array([[1.0], [-1.0]]),
        x=(),
        speaker_idx=np.array([0, 1]),
        cond_idx=np.zeros((0, 2)),
    )
    assert joint_prior_logpdf(latents) == pytest.approx(-LOG_2PI - 1.0, abs=1e-15)


def test_per_sample_prior_single_sample_equals_joint():
    latents = LabeledLatents(
        y=np.array([[0.3, -1.2]]),
        x=(np.array([[0.5]]),),
        speaker_idx=np.zeros(1, dtype=int),
        cond_idx=np.zeros((1, 1), dtype=int),
    )
    assert per_sample_prior_logpdf(latents) == pytest.approx(
        joint_prior_logpdf(latents), abs=1e-15
    )


def test_per_sample_prior_shared_speaker_quadratic():
    # two samples of one speaker with scalar y=2: each contributes
    # -0.5 * (1/2) * 4, matching the joint quadratic -0.5 * 4
    latents = LabeledLatents(
        y=np.array([[2.0]]),
        x=(),
        speaker_idx=np.array([0, 0]),
        cond_idx=np.zeros((0, 2)),
    )
    got = per_sample_prior_logpdf(latents)
    assert got == pytest.approx(-2.0 - 0.5 * LOG_2PI, abs=1e-15)
    assert got == pytest.approx(joint_prior_logpdf(latents), abs=1e-15)


def test_prior_forms_agree_on_random_datasets(rng):
    for _ in range(50):
        n = int(rng.integers(0, 4))
        cards = tuple(int(c) for c in rng.integers(1, 5, size=n))
        latents = random_latents(
            rng,
            r_y=int(rng.integers(1, 4)),
            r_x=tuple(int(r) for r in rng.integers(1, 4, size=n)),
            n_speakers=int(rng.integers(1, 6)),
            cards=cards,
            n_samples=int(rng.integers(6, 21)),
        )
        assert per_sample_prior_logpdf(latents) == pytest.approx(
            joint_prior_logpdf(latents), abs=1e-10
        )


@pytest.mark.parametrize("y, x, cond_idx, message", [
    (np.array([[1.0], [2.0]]), (), np.zeros((0, 2)), "a speaker latent has no samples assigned"),
    (np.ones((1, 1)), (np.ones((1, 1)), np.ones((2, 1))), np.array([[0, 0], [1, 1]]),
     "a condition-2 latent has no samples assigned"),
], ids=["speaker", "condition"])
def test_orphan_latent_rejected(y, x, cond_idx, message):
    latents = LabeledLatents(y=y, x=x, speaker_idx=np.array([0, 0]), cond_idx=cond_idx)
    with pytest.raises(OrphanLatent, match=f"^{message}$"):
        per_sample_prior_logpdf(latents)


LATENTS = dict(y=np.zeros((2, 1)), x=(np.zeros((2, 1)),), speaker_idx=[0, 1], cond_idx=[[0, 1]])


@pytest.mark.parametrize("change, message", [
    (dict(y=np.zeros(2)), "latent arrays must be 2-dimensional (one row per latent)"),
    (dict(speaker_idx=[[0, 1]]), "speaker_idx must be 1-dimensional"),
    (dict(cond_idx=[[0, 1, 0]]), "cond_idx must have shape (N=1, I=2), got (1, 3)"),
    (dict(speaker_idx=[0, 2]), "speaker_idx references a nonexistent speaker latent"),
    (dict(cond_idx=[[0, -1]]), "cond_idx[0] references a nonexistent condition latent"),
], ids=["rank", "speaker-rank", "cond-shape", "speaker-label", "cond-label"])
def test_labeled_latents_rejects_bad_arrays(change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LabeledLatents(**{**LATENTS, **change})


# data likelihood ---------------------------------------------------------


def test_data_loglik_rejects_mismatched_shapes(rng):
    model = random_model(rng, 3, 1, (1,))
    latents = LabeledLatents(**LATENTS)
    with pytest.raises(ValueError, match=r"^samples have shape \(2, 4\), expected \(2, 3\)$"):
        data_loglik(np.zeros((2, 4)), latents, model)
    wide = LabeledLatents(**{**LATENTS, "y": np.zeros((2, 2))})
    with pytest.raises(ValueError, match=r"^latents stack to length 3, model has R_z = 2$"):
        data_loglik(np.zeros((2, 3)), wide, model)


def test_data_loglik_zero_residual_identity_noise(rng):
    model = random_model(rng, 3, 1, (2,), diagonal_noise=False)
    model = ModelParams(mu=model.mu, V=model.V, U=model.U, D=np.eye(3))
    latents = LabeledLatents(
        y=np.zeros((1, 1)),
        x=(np.zeros((1, 2)),),
        speaker_idx=np.zeros(4, dtype=int),
        cond_idx=np.zeros((1, 4), dtype=int),
    )
    samples = np.tile(model.mu, (4, 1))
    assert data_loglik(samples, latents, model) == pytest.approx(
        -4 * 1.5 * LOG_2PI, abs=1e-12
    )


def test_data_loglik_scalar_precision():
    model = ModelParams(mu=np.zeros(1), V=np.zeros((1, 1)), U=(), D=np.array([[4.0]]))
    latents = LabeledLatents(
        y=np.zeros((1, 1)), x=(), speaker_idx=np.zeros(1, dtype=int), cond_idx=np.zeros((0, 1))
    )
    got = data_loglik(np.zeros((1, 1)), latents, model)
    assert got == pytest.approx(0.5 * math.log(4.0) - 0.5 * LOG_2PI, abs=1e-15)


def full_joint_logpdf(samples, latents, model):
    """Direct density of the joint Gaussian over (all latents, all samples)."""
    from jplda.model import stack_w

    n_samples = latents.n_samples
    d = model.d
    blocks = [latents.y.reshape(-1)] + [xj.reshape(-1) for xj in latents.x]
    zeta = np.concatenate(blocks)
    t = zeta.size

    # placement matrix: row block i of A maps zeta to sample i's mean shift
    a = np.zeros((n_samples * d, t))
    y_size = latents.y.size
    r_y = latents.y.shape[1]
    offsets = [0]
    for xj in latents.x:
        offsets.append(offsets[-1] + xj.size)
    for i in range(n_samples):
        s = latents.speaker_idx[i]
        a[i * d : (i + 1) * d, s * r_y : (s + 1) * r_y] = model.V
        for j, xj in enumerate(latents.x):
            r = xj.shape[1]
            c = latents.cond_idx[j, i]
            col = y_size + offsets[j] + c * r
            a[i * d : (i + 1) * d, col : col + r] = model.U[j]

    noise = np.kron(np.eye(n_samples), np.linalg.inv(model.D))
    cov = np.block([[np.eye(t), a.T], [a, a @ a.T + noise]])
    x = np.concatenate([zeta, (np.asarray(samples) - model.mu).reshape(-1)])
    sign, logdet = np.linalg.slogdet(cov)
    quad = x @ np.linalg.solve(cov, x)
    return -0.5 * (x.size * LOG_2PI + logdet + quad)


def test_joint_equals_likelihood_plus_prior(rng):
    for _ in range(10):
        n = int(rng.integers(0, 3))
        r_x = tuple(int(r) for r in rng.integers(1, 3, size=n))
        cards = tuple(int(c) for c in rng.integers(1, 4, size=n))
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)), r_x)
        latents = random_latents(
            rng,
            r_y=model.r_y,
            r_x=r_x,
            n_speakers=int(rng.integers(1, 4)),
            cards=cards,
            n_samples=int(rng.integers(4, 9)),
        )
        samples = rng.standard_normal((latents.n_samples, model.d))
        lhs = data_loglik(samples, latents, model) + joint_prior_logpdf(latents)
        rhs = full_joint_logpdf(samples, latents, model)
        assert lhs == pytest.approx(rhs, abs=1e-8)
