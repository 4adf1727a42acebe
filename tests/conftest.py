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
    """List that records the hypothesis of every ``_cholesky_lower`` call:
    one per hypothesis, each factorizing the prefix-tree nodes that its
    path does not share with the path of the hypothesis before it."""
    calls = []
    real = scoring._cholesky_lower

    def spy(k, hypothesis):
        calls.append(hypothesis)
        return real(k, hypothesis)

    monkeypatch.setattr(scoring, "_cholesky_lower", spy)
    return calls
