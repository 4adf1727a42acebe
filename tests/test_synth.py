import numpy as np
import pytest
import scipy.linalg

from jplda import (
    DimensionMismatch,
    HypothesisVector,
    PriorConfig,
    make_benchmark,
    sample_dataset,
    sample_trial_pair,
)
from jplda.oracle import marginal_cov
from jplda.synth import sample_trial_pairs

from conftest import random_model


def test_dataset_shapes_and_labels(rng):
    model = random_model(rng, 4, 2, (1, 2))
    data = sample_dataset(model, n_speakers=3, condition_cardinalities=(2, 5),
                          samples_per_speaker=2, seed=11)
    assert data.embeddings.shape == (6, 4)
    assert data.speaker_labels.shape == (6,)
    assert data.condition_labels.shape == (2, 6)
    assert len(data.ids) == 6 and len(set(data.ids)) == 6
    np.testing.assert_array_equal(data.speaker_labels, [0, 0, 1, 1, 2, 2])
    assert data.condition_labels[0].max() < 2
    assert data.condition_labels[1].max() < 5


def test_dataset_deterministic(rng):
    model = random_model(rng, 3, 1, (2,))
    a = sample_dataset(model, 4, (3,), 3, seed=99)
    b = sample_dataset(model, 4, (3,), 3, seed=99)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.condition_labels, b.condition_labels)
    c = sample_dataset(model, 4, (3,), 3, seed=100)
    assert not np.array_equal(a.embeddings, c.embeddings)


def test_dataset_round_robin_assignment(rng):
    model = random_model(rng, 2, 1, (3,))
    data = sample_dataset(model, 2, (3,), 4, assignment="round-robin", seed=0)
    np.testing.assert_array_equal(data.condition_labels[0], np.arange(8) % 3)


def test_dataset_rejects_bad_counts(rng):
    model = random_model(rng, 2, 1, (2,))
    with pytest.raises(ValueError):
        sample_dataset(model, 0, (2,), 3, seed=0)
    with pytest.raises(DimensionMismatch, match="^2 cardinalities given, model has 1 conditions$"):
        sample_dataset(model, 2, (2, 2), 3, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda model: sample_dataset(model, 2, (2,), 3, assignment="sorted"),
     "unknown assignment mode 'sorted'"),
    (lambda model: sample_trial_pairs(model, HypothesisVector(True, (True,)), -1),
     "n_pairs must be >= 0"),
    (lambda model: make_benchmark(model, PriorConfig.uniform(1), 2, -1),
     "trial counts must be >= 0"),
], ids=["assignment", "pair-count", "trial-count"])
def test_rejects_bad_arguments(rng, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(random_model(rng, 2, 1, (2,)))


def test_dataset_covariance_converges(rng):
    # many speakers and condition labels so every latent family averages out
    model = random_model(rng, 3, 2, (1, 2), diagonal_noise=True, centered=True)
    data = sample_dataset(
        model, n_speakers=100_000, condition_cardinalities=(10_000, 10_000),
        samples_per_speaker=2, seed=5,
    )
    emp = np.cov(data.embeddings.T)
    want = (
        model.V @ model.V.T
        + sum(u @ u.T for u in model.U)
        + np.diag(1.0 / np.diag(model.D))
    )
    rel = np.linalg.norm(emp - want) / np.linalg.norm(want)
    assert rel < 0.03


def test_pair_all_tied_low_noise_limit(rng):
    base = random_model(rng, 3, 2, (1,))
    from jplda import ModelParams

    model = ModelParams(mu=base.mu, V=base.V, U=base.U, D=1e12 * np.eye(3))
    m_e, m_t = sample_trial_pair(model, HypothesisVector(True, (True,)), seed=3)
    np.testing.assert_allclose(m_e, m_t, atol=1e-4)


def test_pair_deterministic(rng):
    model = random_model(rng, 3, 1, (1,))
    h = HypothesisVector(True, (False,))
    a = sample_trial_pair(model, h, seed=42)
    b = sample_trial_pair(model, h, seed=42)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_pair_rejects_tie_vector_of_other_length(rng):
    model = random_model(rng, 3, 1, (1,))
    h = HypothesisVector(True, (True, True))
    message = "^tie vector has length 2, the model has 1 conditions$"
    with pytest.raises(DimensionMismatch, match=message):
        sample_trial_pairs(model, h, 3, seed=0)
    with pytest.raises(DimensionMismatch, match=message):
        sample_trial_pair(model, h, seed=0)


def test_pair_all_untied_uncorrelated(rng):
    model = random_model(rng, 1, 1, (1,), diagonal_noise=True, centered=True)
    h = HypothesisVector(False, (False,))
    m_e, m_t = sample_trial_pairs(model, h, 100_000, seed=7)
    corr = np.corrcoef(m_e[:, 0], m_t[:, 0])[0, 1]
    assert abs(corr) < 0.01


@pytest.mark.parametrize("speaker_tied,cond", [(True, (True, False)), (False, (True, True))])
def test_pair_covariance_matches_marginal(rng, speaker_tied, cond):
    model = random_model(rng, 2, 1, (1, 1), diagonal_noise=True, centered=True)
    h = HypothesisVector(speaker_tied, cond)
    m_e, m_t = sample_trial_pairs(model, h, 200_000, seed=13)
    stacked = np.concatenate([m_e, m_t], axis=1)
    emp = np.cov(stacked.T)
    want = marginal_cov(model, h)
    rel = np.linalg.norm(emp - want) / np.linalg.norm(want)
    assert rel < 0.03


def test_benchmark_counts_and_key(rng):
    model = random_model(rng, 3, 1, (1,))
    priors = PriorConfig.uniform(1)
    emb, trials, key = make_benchmark(model, priors, n_target=7, n_nontarget=5, seed=1)
    assert len(trials) == 12 and key.sum() == 7
    assert len(emb) == 24
    assert all(e in emb and t in emb for e, t in trials)
    np.testing.assert_array_equal(key, np.arange(12) < 7)


def test_benchmark_rejects_priors_for_other_condition_count(rng):
    model = random_model(rng, 3, 1, (1,))
    with pytest.raises(DimensionMismatch, match="^priors cover 2 conditions, model has 1$"):
        make_benchmark(model, PriorConfig.uniform(2), 2, 2, seed=0)


@pytest.mark.parametrize("diagonal_noise", [False, True], ids=["full-D", "diagonal-D"])
def test_benchmark_factorizes_noise_once(rng, monkeypatch, diagonal_noise):
    model = random_model(rng, 3, 1, (1, 1), diagonal_noise)
    calls = []
    real = scipy.linalg.cholesky

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # synth imports scipy.linalg where it draws, so the spy sits on scipy's
    monkeypatch.setattr(scipy.linalg, "cholesky", spy)
    make_benchmark(model, PriorConfig.uniform(2), 20, 20, seed=3)
    assert len(calls) == 1


def test_benchmark_no_targets(rng):
    model = random_model(rng, 2, 1, ())
    emb, trials, key = make_benchmark(model, PriorConfig.uniform(0), 0, 4, seed=2)
    assert len(trials) == 4 and not key.any()


def test_benchmark_deterministic(rng):
    model = random_model(rng, 2, 1, (2,))
    priors = PriorConfig((0.8,), (0.3,))
    a = make_benchmark(model, priors, 5, 5, seed=21)
    b = make_benchmark(model, priors, 5, 5, seed=21)
    for (ia, va), (ib, vb) in zip(a[0].items(), b[0].items()):
        assert ia == ib and np.array_equal(va, vb)
    assert a[1] == b[1]
