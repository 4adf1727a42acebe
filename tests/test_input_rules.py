"""Every public entry point that takes a raw vector, priors or a tie
vector rejects a bad one with the same error class and message."""

import re

import numpy as np
import pytest

from jplda import (
    DimensionMismatch, HypothesisVector, NonFinite, PriorConfig, llr, make_benchmark,
    precompute_session, q_terms, sample_trial_pair, score_trials, scoring,
)
from jplda.oracle import gaussian_llr_oracle, marginal_cov
from jplda.synth import sample_trial_pairs

from conftest import random_model

D, N = 3, 2


def model_and_priors():
    model = random_model(np.random.default_rng(5), D, 1, (1, 2))
    return model, PriorConfig.uniform(N)


def projected(session, table):
    out = scoring.ProjectedTable(session)
    out.add(list(table), np.array(list(table.values()), dtype=np.float64))
    return out


def score_raw(model, priors, bad, good):
    return score_trials(precompute_session(model, priors), {"e": bad}, {"t": good}, [("e", "t")])


def score_projected(model, priors, bad, good):
    session = precompute_session(model, priors)
    enroll, test = projected(session, {"e": bad}), projected(session, {"t": good})
    return score_trials(session, enroll, test, [("e", "t")])


# each entry point scores the pair (bad, good); the error names bad as ``what``
VECTOR_ENTRIES = {
    "llr": ("enroll vector", lambda m, p, bad, good: llr(precompute_session(m, p), bad, good)),
    "q_terms": ("enroll vector",
                lambda m, p, bad, good: q_terms(precompute_session(m, p), bad, good)),
    "score_trials": ("enroll id 'e'", score_raw),
    "score_trials-projected": ("enroll id 'e'", score_projected),
    "gaussian_llr_oracle": ("enroll vector", gaussian_llr_oracle),
}

BAD_VECTORS = {
    "long": (np.zeros(D + 1), DimensionMismatch,
             f"has shape ({D + 1},), expected a vector of length {D}"),
    "non-finite": (np.array([0.0, np.nan, 0.0]), NonFinite, "contains non-finite values"),
}


@pytest.mark.parametrize("bad", BAD_VECTORS)
@pytest.mark.parametrize("entry", VECTOR_ENTRIES)
def test_every_entry_point_rejects_a_bad_vector_alike(entry, bad):
    model, priors = model_and_priors()
    what, call = VECTOR_ENTRIES[entry]
    vector, error, message = BAD_VECTORS[bad]
    with pytest.raises(error, match=f"^{re.escape(what + ' ' + message)}$"):
        call(model, priors, vector, np.zeros(D))


PRIOR_ENTRIES = {
    "precompute_session": precompute_session,
    "make_benchmark": lambda model, priors: make_benchmark(model, priors, 1, 1, seed=0),
    "gaussian_llr_oracle": lambda model, priors: gaussian_llr_oracle(
        model, priors, np.zeros(D), np.zeros(D)),
}


@pytest.mark.parametrize("n", [N - 1, N + 1])
@pytest.mark.parametrize("entry", PRIOR_ENTRIES)
def test_every_entry_point_rejects_priors_for_another_n_alike(entry, n):
    model, _ = model_and_priors()
    with pytest.raises(DimensionMismatch, match=f"^priors cover {n} conditions, model has {N}$"):
        PRIOR_ENTRIES[entry](model, PriorConfig.uniform(n))


TIE_ENTRIES = {
    "sample_trial_pair": lambda model, h: sample_trial_pair(model, h, seed=0),
    "sample_trial_pairs": lambda model, h: sample_trial_pairs(model, h, 2, seed=0),
    "marginal_cov": marginal_cov,
}


@pytest.mark.parametrize("n", [0, N + 2])
@pytest.mark.parametrize("entry", TIE_ENTRIES)
def test_every_entry_point_rejects_a_tie_vector_for_another_n_alike(entry, n):
    model, _ = model_and_priors()
    h = HypothesisVector(True, (True,) * n)
    message = f"^tie vector has length {n}, the model has {N} conditions$"
    with pytest.raises(DimensionMismatch, match=message):
        TIE_ENTRIES[entry](model, h)
