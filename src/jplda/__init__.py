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

The package exports what the CLI, the demos and the acceptance tests
use: the model and prior types, the scoring path (``precompute_session``,
``llr``, ``score_trials`` and ``q_terms``, a trial's 2^(N+1) hypothesis
terms, which all take raw vectors; ``score_trials`` also takes
``ProjectedTable``s, the tables that ``jplda score`` keeps as R_z
projections per id), file I/O, synthetic data, detection metrics and the
slow covariance oracle. A ``ModelParams`` checks itself when it is
built, so none of these checks a model again.
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
    SessionTooLarge,
    TruncatedPayload,
    UnknownId,
    ValidationFailed,
    VersionUnsupported,
)
from .hypothesis import (
    HypothesisVector,
    PriorConfig,
    enumerate_condition_hypotheses,
)
from .metrics import ScoredTrials, calibration_identity, eer
from .model import ModelParams, collapse_to_plda
from .scoring import (
    ProjectedTable,
    ScoringSession,
    llr,
    precompute_session,
    q_terms,
    score_trials,
)
from .synth import (
    SyntheticDataset,
    make_benchmark,
    sample_dataset,
    sample_trial_pair,
)

__version__ = "0.1.0"

__all__ = [
    "AllHypothesesExcluded",
    "BadMagic",
    "DimensionMismatch",
    "FactorizationFailed",
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
    "PriorConfig",
    "ProjectedTable",
    "ScoredTrials",
    "ScoringSession",
    "SessionTooLarge",
    "SyntheticDataset",
    "TruncatedPayload",
    "UnknownId",
    "ValidationFailed",
    "VersionUnsupported",
    "calibration_identity",
    "collapse_to_plda",
    "eer",
    "enumerate_condition_hypotheses",
    "io",
    "llr",
    "make_benchmark",
    "metrics",
    "oracle",
    "precompute_session",
    "q_terms",
    "sample_dataset",
    "sample_trial_pair",
    "score_trials",
    "synth",
]
