"""Closed-form trial scoring with marginalization over tie hypotheses.

For a single-enrollment, single-test trial the log-likelihood ratio is

    LLR = logsumexp_h Q(same-speaker, h) - logsumexp_h Q(diff-speaker, h)

where h runs over all condition-tie combinations and

    Q = 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log prior(h).

Sigma is the posterior covariance of the stacked trial latents
[Z_shared; Z_enroll; Z_test] and Phi its information vector. Rotating
the untied latents to their half sum and half difference splits the
posterior precision into two blocks, both read out of one Gram matrix
G = W^T D W::

    K1 = 2G + diag(c)      size R_z, model column order; c is 1 on the
                           tied columns T and 2 on the untied columns U
    K2 = 2G[U, U] + 2I     size n_d

With the trial's projections p = W^T D m, s = p_e + p_t and
delta = p_e - p_t, and L1, L2 the lower Cholesky factors of K1, K2::

    Phi^T Sigma Phi = |L1^-1 s|^2 + |L2^-1 delta[U]|^2
    0.5 log|Sigma|  = -sum log diag L1 - sum log diag L2 + n_d log 2

A session holds each hypothesis' state once, in arrays indexed by its
position (see ``ScoringSession``): every L1^-1 stacked into one matrix
and every L2^-1 (placed in its columns U) into another. A trial costs
two projections of size R_z and two matrix-vector products; the
squares, the per-hypothesis sums and each branch's log-sum-exp are
vectorized over a block of trials. ``llr`` and ``q_term`` apply the
same block function to one trial, so their Q terms are bitwise those
of ``score_trials``.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrtri

from .errors import (
    AllHypothesesExcluded, DimensionMismatch, FactorizationFailed, NonFinite, SessionTooLarge,
    UnknownId,
)
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

# Largest whitening matrices a session may hold: 24 * 2^N * R_z^2 bytes.
MAX_WHITENING_BYTES = 1 << 30

# Bound on the whitened rows of one block of trials in ``score_trials``.
# 256 KiB blocks score as fast as 1 MiB blocks at N = 2 and 4 (d = 200)
# without raising the peak memory of a scoring run.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class PosteriorMoments:
    """Posterior mean and covariance of the stacked trial latents."""

    z_hat: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class ScoringSession:
    """Immutable bundle of a model plus all 2^(N+1) hypothesis factorizations.

    Build once with :func:`precompute_session`, then score any number of
    trials; all members are read-only. ``factorizations`` maps each
    ``HypothesisVector`` to its position i: same-speaker branch first,
    each branch in ``enumerate_condition_hypotheses`` order. Indexed by
    i are ``half_log_det_sigma`` (0.5 log|Sigma|), ``log_prior`` (-inf
    allowed), L1^-1 in rows i*R_z to (i+1)*R_z of ``w_sum``, and L2^-1,
    placed in the untied columns, in max(n_d, 1) rows of ``w_diff``
    from ``diff_starts[i]``. A hypothesis with n_d = 0 gets one zero
    row, since ``np.add.reduceat`` sums no empty segment.
    """

    model: ModelParams
    priors: PriorConfig
    factorizations: MappingProxyType
    half_log_det_sigma: np.ndarray
    log_prior: np.ndarray
    dw: np.ndarray
    w_sum: np.ndarray
    w_diff: np.ndarray
    diff_starts: np.ndarray

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
    Scoring factorizes the rotated blocks K1, K2 instead (see the module
    docstring); this full form serves ``posterior_moments``.
    """
    n_s, n_d = partition.n_s, partition.n_d
    cols = np.concatenate((partition.tied_cols, partition.untied_cols, partition.untied_cols))
    k = gram[np.ix_(cols, cols)]
    k[:n_s, :n_s] *= 2.0
    k[n_s : n_s + n_d, n_s + n_d :] = 0.0
    k[n_s + n_d :, n_s : n_s + n_d] = 0.0
    k[np.diag_indices_from(k)] += 1.0
    return k


def _gram(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """The symmetrized Gram matrix W^T D W from W and D W."""
    gram = w.T @ dw
    return 0.5 * (gram + gram.T)


def _cholesky_lower(k: tuple, hypothesis: HypothesisVector) -> tuple:
    """Lower Cholesky factors of one hypothesis' block pair (K1, K2)."""
    try:
        return tuple(sla.cholesky(block, lower=True) for block in k)
    except (sla.LinAlgError, ValueError) as exc:
        raise FactorizationFailed(
            f"posterior precision for hypothesis {hypothesis} is not positive "
            "definite; check the model's noise precision"
        ) from exc


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    # K >= I bounds |L^-1|_2 by 1, so applying the explicit inverse is as
    # stable as a triangular solve.
    if chol.shape[0] == 0:
        return chol
    inv, info = dtrtri(chol, lower=1)
    if info != 0:
        raise FactorizationFailed(f"triangular inverse failed (LAPACK info {info})")
    return inv


def precompute_session(model: ModelParams, priors: PriorConfig) -> ScoringSession:
    """Factorize every hypothesis once, from one Gram matrix W^T D W.

    Raises:
      NonFinite, DimensionMismatch, ...: the model fails ``validate``.
      SessionTooLarge: the whitening matrices, 24 * 2^N * R_z^2 bytes,
        would exceed ``MAX_WHITENING_BYTES``; checked before anything is
        allocated or factorized.
      FactorizationFailed: some posterior precision was not numerically
        SPD (overflowing or otherwise broken model parameters).
    """
    validate(model)
    if priors.n_conditions != model.n_conditions:
        raise ValueError(
            f"priors cover {priors.n_conditions} conditions, model has {model.n_conditions}"
        )
    n_cond, r_z = model.n_conditions, model.r_z
    size = 24 * 2**n_cond * r_z**2
    if size > MAX_WHITENING_BYTES:
        raise SessionTooLarge(
            f"N={n_cond} conditions and R_z={r_z} latents need {size} bytes of "
            f"whitening matrices, above the limit of {MAX_WHITENING_BYTES} bytes"
        )
    w = stack_w(model)
    dw = model.D @ w
    dw.setflags(write=False)
    gram2 = 2.0 * _gram(w, dw)

    cond_hyps = enumerate_condition_hypotheses(n_cond)
    hyps = [HypothesisVector(spk, c) for spk in (True, False) for c in cond_hyps]
    parts = [partition_factors(model, h) for h in hyps]
    diff_rows = [max(part.n_d, 1) for part in parts]
    diff_starts = np.cumsum([0] + diff_rows[:-1])
    w_sum = np.empty((len(hyps) * r_z, r_z))
    w_diff = np.zeros((sum(diff_rows), r_z))
    half_log_det_sigma = np.empty(len(hyps))
    for i, (h, part) in enumerate(zip(hyps, parts)):
        u = part.untied_cols
        k1 = gram2.copy()
        k1[np.diag_indices(r_z)] += 1.0
        k1[u, u] += 1.0
        k2 = gram2[np.ix_(u, u)]
        k2[np.diag_indices(part.n_d)] += 2.0
        l1, l2 = _cholesky_lower((k1, k2), h)
        w_sum[i * r_z : (i + 1) * r_z] = _lower_inverse(l1)
        w_diff[diff_starts[i] : diff_starts[i] + part.n_d, u] = _lower_inverse(l2)
        log_diag = np.sum(np.log(np.diag(l1))) + np.sum(np.log(np.diag(l2)))
        half_log_det_sigma[i] = part.n_d * math.log(2.0) - float(log_diag)
    log_prior = np.array([hypothesis_log_prior(h, priors) for h in hyps])
    for a in (half_log_det_sigma, log_prior, w_sum, w_diff, diff_starts):
        a.setflags(write=False)
    return ScoringSession(
        model=model,
        priors=priors,
        factorizations=MappingProxyType({h: i for i, h in enumerate(hyps)}),
        half_log_det_sigma=half_log_det_sigma,
        log_prior=log_prior,
        dw=dw,
        w_sum=w_sum,
        w_diff=w_diff,
        diff_starts=diff_starts,
    )


def _projections(session: ScoringSession, m_enroll, m_test) -> tuple:
    return (
        session.project(np.asarray(m_enroll, dtype=np.float64)),
        session.project(np.asarray(m_test, dtype=np.float64)),
    )


def compute_phi(session: ScoringSession, h: HypothesisVector, m_enroll, m_test) -> np.ndarray:
    """Information vector [W_S^T D (mE+mT); W_D^T D mE; W_D^T D mT].

    Both inputs must already be centered (mean subtracted).
    """
    part = partition_factors(session.model, h)
    proj_e, proj_t = _projections(session, m_enroll, m_test)
    u = part.untied_cols
    return np.concatenate(((proj_e + proj_t)[part.tied_cols], proj_e[u], proj_t[u]))


def q_term(session: ScoringSession, speaker_tied: bool, h, m_enroll, m_test) -> float:
    """One hypothesis' contribution 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log prior.

    ``h`` is the condition-tie vector; inputs must be centered. Returns
    -inf when the hypothesis prior is zero. The value is bitwise the term
    that ``llr`` sums for the same projections.
    """
    i = session.factorizations[HypothesisVector(speaker_tied, tuple(h))]
    proj_e, proj_t = _projections(session, m_enroll, m_test)
    return float(_q_block(session, proj_e[None, :], proj_t[None, :]).reshape(-1)[i])


def posterior_moments(
    session: ScoringSession, speaker_tied: bool, h, m_enroll, m_test
) -> PosteriorMoments:
    """Posterior mean Sigma*Phi and covariance Sigma of the trial latents.

    Inputs must be centered. A diagnostic path: it rebuilds and factorizes
    this hypothesis' full posterior precision on every call.
    """
    hv = HypothesisVector(speaker_tied, tuple(h))
    part = partition_factors(session.model, hv)
    phi = compute_phi(session, hv, m_enroll, m_test)
    n = phi.size
    if n == 0:
        return PosteriorMoments(z_hat=np.zeros(0), sigma=np.zeros((0, 0)))
    k = build_k_sum(_gram(stack_w(session.model), session.dw), part)
    factor = sla.cho_factor(k, lower=True)
    sigma = sla.cho_solve(factor, np.eye(n))
    sigma = 0.5 * (sigma + sigma.T)
    return PosteriorMoments(z_hat=sla.cho_solve(factor, phi), sigma=sigma)


def _q_block(session: ScoringSession, proj_e, proj_t) -> np.ndarray:
    """Every hypothesis' Q for the trials whose projections are the rows
    of proj_e / proj_t, shape (n, 2, 2^N): [trial, branch, hypothesis].

    Every trial gets its own two matrix-vector products, written into
    rows allocated up front, and every reduction runs along a contiguous
    axis whose length does not depend on the block. So a trial's Q has
    the same bits in a block of any size. Overflow shows up as inf or
    NaN without a warning.
    """
    n, r_z = proj_e.shape
    n_hyp = session.log_prior.size
    ws = np.empty((n, session.w_sum.shape[0]))
    wd = np.empty((n, session.w_diff.shape[0]))
    with np.errstate(all="ignore"):
        s = proj_e + proj_t
        delta = proj_e - proj_t
        for i in range(n):
            np.dot(session.w_sum, s[i], out=ws[i])
            np.dot(session.w_diff, delta[i], out=wd[i])
        np.multiply(ws, ws, out=ws)
        np.multiply(wd, wd, out=wd)
        quad = ws.reshape(n, n_hyp, r_z).sum(axis=2)
        quad += np.add.reduceat(wd, session.diff_starts, axis=1)
        q = session.half_log_det_sigma + session.log_prior + 0.5 * quad
    return q.reshape(n, 2, n_hyp // 2)


def _score_block(session: ScoringSession, proj_e, proj_t) -> np.ndarray:
    """LLRs of a block of trials: each branch's log-sum-exp over ``_q_block``.

    exp and log see whole contiguous arrays, so a score has the same bits
    in a block of any size. Overflow shows up as NaN, which the callers
    turn into NonFinite.

    Raises AllHypothesesExcluded when a whole branch has prior zero.
    """
    top_prior = session.log_prior.reshape(2, -1).max(axis=1).tolist()
    if -math.inf in top_prior:
        name = ("same-speaker", "different-speaker")[top_prior.index(-math.inf)]
        raise AllHypothesesExcluded(f"every hypothesis in the {name} branch has prior 0")
    q = _q_block(session, proj_e, proj_t)
    with np.errstate(all="ignore"):
        top = q.max(axis=2)
        lse = top + np.log(np.exp(q - top[..., None]).sum(axis=2))
        return lse[:, 0] - lse[:, 1]


def _project_raw(session: ScoringSession, m, what: str = "input vector") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (session.model.d,):
        raise DimensionMismatch(
            f"{what} has shape {m.shape}, expected a vector of length {session.model.d}"
        )
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{what} contains non-finite values")
    return session.project(m - session.model.mu)


def llr(session: ScoringSession, m_enroll, m_test) -> float:
    """Log-likelihood ratio for one trial; inputs are raw (uncentered).

    Raises:
      AllHypothesesExcluded: one branch has zero total prior.
      DimensionMismatch: an input is not a vector of length d.
      NonFinite: an input holds a NaN or an infinity, or the score is NaN
        because the trial's whitened projections overflowed.
    """
    proj_e = _project_raw(session, m_enroll)
    proj_t = _project_raw(session, m_test)
    score = float(_score_block(session, proj_e[None, :], proj_t[None, :])[0])
    if math.isnan(score):
        raise NonFinite("the score is NaN: the trial's whitened projections overflowed")
    return score


def score_trials(session: ScoringSession, enroll, test, trials) -> np.ndarray:
    """Score a list of (enroll_id, test_id) pairs against embedding tables.

    Projections are computed once per referenced id; the per-hypothesis
    whitening matrices come from the session, so no Cholesky runs here.
    Trials are scored in blocks whose whitened rows take at most
    ``BLOCK_BYTES``. The output order matches the input order, and every
    score is bitwise equal to ``llr`` on the pair.

    Args:
      enroll / test: mappings from id to raw embedding vector.
      trials: sequence of (enroll_id, test_id) pairs.

    Raises:
      UnknownId: a trial references an id absent from its table.
      DimensionMismatch: a referenced embedding is not a vector of
        length d; the message names the id.
      NonFinite: a referenced embedding holds a NaN or an infinity, or a
        trial's score is NaN (overflow); the message names the ids.
      AllHypothesesExcluded: one branch has zero total prior.
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
    if not trials:
        return out
    row_bytes = 8 * (session.w_sum.shape[0] + session.w_diff.shape[0])
    block = max(1, BLOCK_BYTES // row_bytes)
    for a in range(0, len(trials), block):
        chunk = trials[a : a + block]
        block_e = np.array([proj_e[e] for e, _ in chunk])
        block_t = np.array([proj_t[t] for _, t in chunk])
        out[a : a + len(chunk)] = _score_block(session, block_e, block_t)
    nan = np.flatnonzero(np.isnan(out))
    if nan.size:
        eid, tid = trials[nan[0]]
        raise NonFinite(
            f"the score of trial ({eid!r}, {tid!r}) is NaN: its whitened projections overflowed"
        )
    return out
