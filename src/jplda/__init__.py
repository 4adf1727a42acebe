"""Joint PLDA: speaker-verification scoring with tied nuisance conditions.

The model explains an embedding as mean + speaker factor + one factor
per nuisance condition + noise, where samples sharing a condition label
share that condition's latent. Scoring marginalizes the trial
likelihood over every combination of "same/different" hypotheses for
the speaker and each condition, in closed form.

Typical use::

    from jplda import ModelParams, PriorConfig, precompute_session, llr

    session = precompute_session(model, PriorConfig.uniform(model.n_conditions))
    score = llr(session, enroll_vector, test_vector)
"""

from . import io, metrics, oracle, synth
from .errors import (
    AllHypothesesExcluded,
    BadMagic,
    DimensionMismatch,
    FactorizationFailed,
    JpldaError,
    MalformedFile,
    MissingClass,
    ModelFileError,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    OrphanLatent,
    TruncatedPayload,
    UnknownId,
    ValidationFailed,
    VersionUnsupported,
)
from .hypothesis import (
    HypothesisVector,
    Partition,
    PriorConfig,
    enumerate_condition_hypotheses,
    hypothesis_log_prior,
    partition_factors,
)
from .metrics import ScoredTrials, calibration_identity, eer
from .model import ModelParams, collapse_to_plda, stack_w, validate
from .scoring import (
    HypothesisFactorization,
    PosteriorMoments,
    ScoringSession,
    build_k_sum,
    compute_phi,
    llr,
    posterior_moments,
    precompute_session,
    q_term,
    score_trials,
)
from .synth import (
    SyntheticDataset,
    make_benchmark,
    sample_dataset,
    sample_trial_pair,
    sample_trial_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "AllHypothesesExcluded",
    "BadMagic",
    "DimensionMismatch",
    "FactorizationFailed",
    "HypothesisFactorization",
    "HypothesisVector",
    "JpldaError",
    "MalformedFile",
    "MissingClass",
    "ModelFileError",
    "ModelParams",
    "NonFinite",
    "NotPositiveDefinite",
    "NotSymmetric",
    "OrphanLatent",
    "Partition",
    "PosteriorMoments",
    "PriorConfig",
    "ScoredTrials",
    "ScoringSession",
    "SyntheticDataset",
    "TruncatedPayload",
    "UnknownId",
    "ValidationFailed",
    "VersionUnsupported",
    "build_k_sum",
    "calibration_identity",
    "collapse_to_plda",
    "compute_phi",
    "eer",
    "enumerate_condition_hypotheses",
    "hypothesis_log_prior",
    "io",
    "llr",
    "make_benchmark",
    "metrics",
    "oracle",
    "partition_factors",
    "posterior_moments",
    "precompute_session",
    "q_term",
    "sample_dataset",
    "sample_trial_pair",
    "sample_trial_pairs",
    "score_trials",
    "stack_w",
    "synth",
    "validate",
]
