import math

import numpy as np
import pytest

from jplda import (
    HypothesisVector,
    PriorConfig,
    enumerate_condition_hypotheses,
    hypothesis_log_prior,
    stack_w,
)

from conftest import random_model, random_priors
from reference import split_columns


def test_enumeration_order_two_conditions():
    # binary counting with condition 1 most significant, Same first
    tied, untied = True, False
    assert enumerate_condition_hypotheses(2) == [
        (tied, tied),
        (tied, untied),
        (untied, tied),
        (untied, untied),
    ]


def test_enumeration_empty_product():
    assert enumerate_condition_hypotheses(0) == [()]


def test_enumeration_cardinality_and_uniqueness():
    hyps = enumerate_condition_hypotheses(3)
    assert len(hyps) == 8
    assert len(set(hyps)) == 8
    assert all(len(h) == 3 for h in hyps)


def test_log_prior_uniform():
    priors = PriorConfig.uniform(2)
    for cond in enumerate_condition_hypotheses(2):
        for spk in (True, False):
            got = hypothesis_log_prior(HypothesisVector(spk, cond), priors)
            assert got == pytest.approx(math.log(0.25), abs=1e-15)


def test_log_prior_degenerate():
    priors = PriorConfig((1.0, 1.0), (0.5, 0.5))
    assert hypothesis_log_prior(HypothesisVector(True, (True, True)), priors) == 0.0
    assert hypothesis_log_prior(HypothesisVector(True, (True, False)), priors) == -math.inf
    assert hypothesis_log_prior(HypothesisVector(True, (False, False)), priors) == -math.inf


def test_log_prior_product():
    priors = PriorConfig((0.3, 0.8), (0.5, 0.5))
    got = hypothesis_log_prior(HypothesisVector(True, (True, False)), priors)
    assert got == pytest.approx(math.log(0.3 * 0.2), abs=1e-15)


def test_priors_normalize_over_hypotheses(rng):
    for n in range(4):
        for _ in range(5):
            priors = random_priors(rng, n)
            for spk in (True, False):
                total = sum(
                    math.exp(hypothesis_log_prior(HypothesisVector(spk, c), priors))
                    for c in enumerate_condition_hypotheses(n)
                )
                assert total == pytest.approx(1.0, abs=1e-12)


def test_priors_normalize_at_boundaries():
    priors = PriorConfig((0.0, 1.0), (1.0, 0.0))
    for spk in (True, False):
        total = sum(
            math.exp(hypothesis_log_prior(HypothesisVector(spk, c), priors))
            for c in enumerate_condition_hypotheses(2)
        )
        assert total == pytest.approx(1.0, abs=1e-15)


def test_prior_config_rejects_out_of_range():
    with pytest.raises(ValueError):
        PriorConfig((1.5,), (0.5,))
    with pytest.raises(ValueError):
        PriorConfig((0.5, 0.5), (0.5,))


def test_partition_mixed(rng):
    model = random_model(rng, 4, 2, (1, 3))
    tied, untied = split_columns(model, HypothesisVector(True, (True, False)))
    np.testing.assert_array_equal(tied, np.arange(3))
    np.testing.assert_array_equal(untied, np.arange(3, 6))


def test_partition_all_untied(rng):
    model = random_model(rng, 4, 2, (1, 3))
    tied, untied = split_columns(model, HypothesisVector(False, (False, False)))
    assert tied.shape == (0,)
    np.testing.assert_array_equal(untied, np.arange(6))


def test_partition_all_tied(rng):
    model = random_model(rng, 4, 2, (1, 3))
    tied, untied = split_columns(model, HypothesisVector(True, (True, True)))
    assert untied.shape == (0,)
    np.testing.assert_array_equal(tied, np.arange(6))


def test_partition_is_column_split_of_stack(rng):
    for _ in range(20):
        d = int(rng.integers(1, 6))
        r_x = tuple(int(r) for r in rng.integers(1, 4, size=rng.integers(0, 4)))
        model = random_model(rng, d, int(rng.integers(0, 4)), r_x)
        w = stack_w(model)
        blocks = (model.V,) + model.U
        for cond in enumerate_condition_hypotheses(model.n_conditions):
            for spk in (True, False):
                tied_cols, untied_cols = split_columns(model, HypothesisVector(spk, cond))
                flags = (spk,) + cond
                empty = [np.zeros((d, 0))]
                tied = np.hstack(empty + [b for b, t in zip(blocks, flags) if t])
                untied = np.hstack(empty + [b for b, t in zip(blocks, flags) if not t])
                np.testing.assert_array_equal(w[:, tied_cols], tied)
                np.testing.assert_array_equal(w[:, untied_cols], untied)
