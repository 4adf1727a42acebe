"""Closed-form trial scoring with marginalization over tie hypotheses.

For a single-enrollment, single-test trial the log-likelihood ratio is

    LLR = logsumexp_h Q(same-speaker, h) - logsumexp_h Q(diff-speaker, h)

where h runs over all condition-tie combinations and

    Q = 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log prior(h).

Sigma is the posterior covariance of the stacked trial latents
[Z_shared; Z_enroll; Z_test] and Phi its information vector. Everything
that depends only on the hypothesis (the posterior precision, its
Cholesky factor, the log-determinant, the prior) is computed once per
session from one Gram matrix W^T D W; a trial costs two projections of
size R_z plus one gather and one triangular solve per hypothesis.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dtrsv

from .errors import AllHypothesesExcluded, FactorizationFailed, NonFinite, UnknownId
from .hypothesis import (
    HypothesisVector,
    Partition,
    PriorConfig,
    enumerate_condition_hypotheses,
    hypothesis_log_prior,
    partition_factors,
)
from .model import ModelParams, stack_w, validate

__all__ = [
    "HypothesisFactorization",
    "ScoringSession",
    "PosteriorMoments",
    "build_k_sum",
    "precompute_session",
    "compute_phi",
    "q_term",
    "llr",
    "posterior_moments",
    "score_trials",
]


@dataclass(frozen=True)
class HypothesisFactorization:
    """Everything trial-independent about one full hypothesis.

    Attributes:
      hypothesis: the tie flags this factorization belongs to.
      partition: tied/untied factor split.
      chol: lower Cholesky factor of the posterior precision of
        [Z_shared; Z_enroll; Z_test], Fortran-ordered, size n_s + 2*n_d.
      half_log_det_sigma: 0.5 log|Sigma| = -sum(log diag(chol)).
      log_prior: log prior of this hypothesis' condition flags in its
        speaker branch (-inf allowed).
      gather: indices that read Phi out of the stacked projections
        [p_e + p_t; p_e; p_t] of a trial.
    """

    hypothesis: HypothesisVector
    partition: Partition
    chol: np.ndarray
    half_log_det_sigma: float
    log_prior: float
    gather: np.ndarray

    @property
    def size(self) -> int:
        return len(self.gather)


@dataclass(frozen=True)
class PosteriorMoments:
    """Posterior mean and covariance of the stacked trial latents."""

    z_hat: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class ScoringSession:
    """Immutable bundle of a model plus all 2^(N+1) hypothesis factorizations.

    Build once with :func:`precompute_session`, then score any number of
    trials; all members are read-only.
    """

    model: ModelParams
    priors: PriorConfig
    factorizations: MappingProxyType
    dw: np.ndarray
    ss_branch: tuple
    ds_branch: tuple

    def project(self, centered: np.ndarray) -> np.ndarray:
        """All factor loadings' noise-weighted projections W^T D m of one
        centered vector, stacked in model order (length R_z)."""
        return self.dw.T @ centered


def build_k_sum(gram: np.ndarray, partition: Partition) -> np.ndarray:
    """Posterior precision of [Z_shared; Z_enroll; Z_test] for one hypothesis.

    ``gram`` is the symmetric W^T D W of the stacked loadings. With
    A = W_S^T D W_S, B = W_S^T D W_D and C = W_D^T D W_D, all sliced
    out of it by the partition's columns, the block form is::

        [ 2A + I   B       B     ]
        [ B^T      C + I   0     ]
        [ B^T      0       C + I ]

    The result is exactly symmetric and positive definite for any valid
    model: the identity blocks come from the unit prior on the latents.
    """
    n_s, n_d = partition.n_s, partition.n_d
    cols = np.concatenate((partition.tied_cols, partition.untied_cols, partition.untied_cols))
    k = gram[np.ix_(cols, cols)]
    k[:n_s, :n_s] *= 2.0
    k[n_s : n_s + n_d, n_s + n_d :] = 0.0
    k[n_s + n_d :, n_s : n_s + n_d] = 0.0
    k[np.diag_indices_from(k)] += 1.0
    return k


def _cholesky_lower(k: np.ndarray, hypothesis: HypothesisVector) -> np.ndarray:
    try:
        chol = sla.cholesky(k, lower=True)
    except (sla.LinAlgError, ValueError) as exc:
        raise FactorizationFailed(
            f"posterior precision for hypothesis {hypothesis} is not positive "
            "definite; check the model's noise precision"
        ) from exc
    chol = np.asfortranarray(chol)
    chol.setflags(write=False)
    return chol


def precompute_session(model: ModelParams, priors: PriorConfig) -> ScoringSession:
    """Factorize every hypothesis once, from one Gram matrix W^T D W.

    Raises:
      NonFinite, DimensionMismatch, ...: the model fails ``validate``.
      FactorizationFailed: some posterior precision was not numerically
        SPD (overflowing or otherwise broken model parameters).
    """
    validate(model)
    if priors.n_conditions != model.n_conditions:
        raise ValueError(
            f"priors cover {priors.n_conditions} conditions, model has {model.n_conditions}"
        )
    w = stack_w(model)
    dw = model.D @ w
    dw.setflags(write=False)
    gram = w.T @ dw
    gram = 0.5 * (gram + gram.T)
    r_z = w.shape[1]

    cond_hyps = enumerate_condition_hypotheses(model.n_conditions)
    facts = {}
    for speaker_tied in (True, False):
        for cond in cond_hyps:
            h = HypothesisVector(speaker_tied, cond)
            part = partition_factors(model, h)
            chol = _cholesky_lower(build_k_sum(gram, part), h)
            gather = np.concatenate(
                (part.tied_cols, r_z + part.untied_cols, 2 * r_z + part.untied_cols)
            )
            gather.setflags(write=False)
            facts[h] = HypothesisFactorization(
                hypothesis=h,
                partition=part,
                chol=chol,
                half_log_det_sigma=-float(np.sum(np.log(np.diag(chol)))),
                log_prior=hypothesis_log_prior(h, priors),
                gather=gather,
            )
    return ScoringSession(
        model=model,
        priors=priors,
        factorizations=MappingProxyType(facts),
        dw=dw,
        ss_branch=tuple(facts[HypothesisVector(True, c)] for c in cond_hyps),
        ds_branch=tuple(facts[HypothesisVector(False, c)] for c in cond_hyps),
    )


def _stack_projections(proj_e, proj_t) -> np.ndarray:
    """[p_e + p_t; p_e; p_t], the vector every hypothesis' Phi is gathered from."""
    return np.concatenate((proj_e + proj_t, proj_e, proj_t))


def compute_phi(session: ScoringSession, h: HypothesisVector, m_enroll, m_test) -> np.ndarray:
    """Information vector [W_S^T D (mE+mT); W_D^T D mE; W_D^T D mT].

    Both inputs must already be centered (mean subtracted).
    """
    proj_e = session.project(np.asarray(m_enroll, dtype=np.float64))
    proj_t = session.project(np.asarray(m_test, dtype=np.float64))
    return _stack_projections(proj_e, proj_t)[session.factorizations[h].gather]


def _q_value(fact: HypothesisFactorization, stacked: np.ndarray) -> float:
    if fact.log_prior == -math.inf:
        return -math.inf
    if fact.size == 0:
        return fact.log_prior
    x = dtrsv(fact.chol, stacked[fact.gather], lower=1)
    return fact.half_log_det_sigma + 0.5 * float(x @ x) + fact.log_prior


def q_term(session: ScoringSession, speaker_tied: bool, h, m_enroll, m_test) -> float:
    """One hypothesis' contribution 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log prior.

    ``h`` is the condition-tie vector; inputs must be centered. Returns
    -inf when the hypothesis prior is zero.
    """
    fact = session.factorizations[HypothesisVector(speaker_tied, tuple(h))]
    proj_e = session.project(np.asarray(m_enroll, dtype=np.float64))
    proj_t = session.project(np.asarray(m_test, dtype=np.float64))
    return _q_value(fact, _stack_projections(proj_e, proj_t))


def posterior_moments(
    session: ScoringSession, speaker_tied: bool, h, m_enroll, m_test
) -> PosteriorMoments:
    """Posterior mean Sigma*Phi and covariance Sigma of the trial latents.

    Inputs must be centered. The mean costs two triangular solves; the
    covariance is the inverse posterior precision.
    """
    hv = HypothesisVector(speaker_tied, tuple(h))
    fact = session.factorizations[hv]
    phi = compute_phi(session, hv, m_enroll, m_test)
    n = fact.size
    if n == 0:
        return PosteriorMoments(z_hat=np.zeros(0), sigma=np.zeros((0, 0)))
    x = dtrsv(fact.chol, phi, lower=1)
    z_hat = dtrsv(fact.chol, x, lower=1, trans=1)
    sigma = sla.cho_solve((fact.chol, True), np.eye(n))
    sigma = 0.5 * (sigma + sigma.T)
    return PosteriorMoments(z_hat=z_hat, sigma=sigma)


def _logsumexp(values: np.ndarray) -> float:
    m = np.max(values)
    if m == -math.inf:
        return -math.inf
    return float(m + np.log(np.sum(np.exp(values - m))))


def _branch_logsumexp(branch, stacked: np.ndarray, name: str) -> float:
    total = _logsumexp(np.array([_q_value(fact, stacked) for fact in branch]))
    if total == -math.inf:
        raise AllHypothesesExcluded(f"every hypothesis in the {name} branch has prior 0")
    return total


def _llr_from_projections(session: ScoringSession, proj_e, proj_t) -> float:
    stacked = _stack_projections(proj_e, proj_t)
    num = _branch_logsumexp(session.ss_branch, stacked, "same-speaker")
    den = _branch_logsumexp(session.ds_branch, stacked, "different-speaker")
    return num - den


def _project_raw(session: ScoringSession, m, what: str = "input vector") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (session.model.d,):
        raise ValueError(f"expected a vector of length {session.model.d}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{what} contains non-finite values")
    return session.project(m - session.model.mu)


def llr(session: ScoringSession, m_enroll, m_test) -> float:
    """Log-likelihood ratio for one trial; inputs are raw (uncentered).

    Raises:
      AllHypothesesExcluded: one branch has zero total prior.
      NonFinite: an input holds a NaN or an infinity.
    """
    return _llr_from_projections(
        session, _project_raw(session, m_enroll), _project_raw(session, m_test)
    )


def score_trials(session: ScoringSession, enroll, test, trials) -> np.ndarray:
    """Score a list of (enroll_id, test_id) pairs against embedding tables.

    Projections are computed once per referenced id; the per-hypothesis
    factorizations come from the session, so no Cholesky runs here. The
    output order matches the input order, and every score is bitwise
    equal to ``llr`` on the pair.

    Args:
      enroll / test: mappings from id to raw embedding vector.
      trials: sequence of (enroll_id, test_id) pairs.

    Raises:
      UnknownId: a trial references an id absent from its table.
      NonFinite: a referenced embedding holds a NaN or an infinity.
    """
    trials = [(e, t) for e, t in trials]
    proj_e, proj_t = {}, {}
    for eid, tid in trials:
        if eid not in proj_e:
            if eid not in enroll:
                raise UnknownId(f"unknown enroll id {eid!r}")
            proj_e[eid] = _project_raw(session, enroll[eid], f"enroll id {eid!r}")
        if tid not in proj_t:
            if tid not in test:
                raise UnknownId(f"unknown test id {tid!r}")
            proj_t[tid] = _project_raw(session, test[tid], f"test id {tid!r}")

    out = np.empty(len(trials))
    for i, (eid, tid) in enumerate(trials):
        out[i] = _llr_from_projections(session, proj_e[eid], proj_t[tid])
    return out
