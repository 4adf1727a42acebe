import numpy as np
import pytest

from jplda import ModelParams, PriorConfig, scoring


def random_model(rng, d, r_y, r_x, diagonal_noise=False, centered=False, scale=1.0):
    """A valid model with a well-conditioned random SPD noise precision."""
    v = scale * rng.standard_normal((d, r_y))
    u = tuple(scale * rng.standard_normal((d, r)) for r in r_x)
    if diagonal_noise:
        big_d = np.diag(rng.uniform(0.5, 3.0, size=d))
    else:
        a = rng.standard_normal((d, d))
        big_d = a @ a.T + d * np.eye(d)
    mu = np.zeros(d) if centered else rng.standard_normal(d)
    return ModelParams(mu=mu, V=v, U=u, D=big_d)


def random_priors(rng, n_conditions):
    return PriorConfig(
        tuple(rng.uniform(0.0, 1.0, size=n_conditions)),
        tuple(rng.uniform(0.0, 1.0, size=n_conditions)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def factorizations(monkeypatch):
    """List that records the hypothesis of every K1 leaf block that
    ``precompute_session`` factorizes: one per hypothesis, in session
    order. ``_factorize_level`` gets each level's blocks with the first
    hypothesis whose path holds each block; on the last level, 2^N
    parents of three blocks each, those of the K1 blocks (the first two
    of each parent) are the leaves' own hypotheses."""
    calls = []
    real = scoring._factorize_level

    def spy(blocks, first):
        if len(first) == 3 * 2 ** len(first[0].condition_tied):
            calls.extend(h for i, h in enumerate(first) if i % 3 < 2)
        return real(blocks, first)

    monkeypatch.setattr(scoring, "_factorize_level", spy)
    return calls


@pytest.fixture
def whitenings(monkeypatch):
    """List of the vector count of every ``scoring._whiten`` call, pads
    included."""
    counts = []
    real = scoring._whiten

    def spy(session, pairs):
        counts.append(2 * pairs.shape[0])
        return real(session, pairs)

    monkeypatch.setattr(scoring, "_whiten", spy)
    return counts
