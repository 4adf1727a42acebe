"""Closed-form trial scoring with marginalization over tie hypotheses.

For a single-enrollment, single-test trial the log-likelihood ratio is

    LLR = logsumexp_h Q(same-speaker, h) - logsumexp_h Q(diff-speaker, h)

where h runs over all condition-tie combinations and

    Q = 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log prior(h).

Sigma is the posterior covariance of the stacked trial latents
[Z_shared; Z_enroll; Z_test] and Phi its information vector; the test
suite's ``reference`` module builds both in this unrotated form. A
hypothesis enters only through its untied columns U of
W = [V | U_1 | ... | U_N] (``untied_columns``). Rotating the untied
latents to their half sum and half difference splits the posterior
precision into two blocks, both read out of one Gram matrix
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
vectorized over a block of trials. ``llr`` and ``q_term`` take raw
vectors, check them like ``score_trials`` does, and apply the same
block function to one trial, so their Q terms are bitwise those of
``score_trials``.
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
    PriorConfig,
    enumerate_condition_hypotheses,
    hypothesis_log_prior,
    untied_columns,
)
from .model import ModelParams, stack_w

__all__ = ["ScoringSession", "precompute_session", "q_term", "llr", "score_trials"]

# Largest whitening matrices a session may hold: 24 * 2^N * R_z^2 bytes.
MAX_WHITENING_BYTES = 1 << 30

# Bound on the whitened rows of one block of trials in ``score_trials``.
# 256 KiB blocks score as fast as 1 MiB blocks at N = 2 and 4 (d = 200)
# without raising the peak memory of a scoring run.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class ScoringSession:
    """Immutable bundle of a model plus all 2^(N+1) hypothesis factorizations.

    Build once with :func:`precompute_session`, then score any number of
    trials; all members are read-only. ``factorizations`` maps each
    ``HypothesisVector`` to its position i: same-speaker branch first,
    each branch in ``enumerate_condition_hypotheses`` order. Indexed by
    i are ``half_log_det_sigma`` (0.5 log|Sigma|), ``log_prior`` (-inf
    allowed; the session's only copy of the priors), L1^-1 in rows
    i*R_z to (i+1)*R_z of ``w_sum``, and L2^-1, placed in the untied
    columns, in max(n_d, 1) rows of ``w_diff`` from ``diff_starts[i]``.
    A hypothesis with n_d = 0 gets one zero row, since
    ``np.add.reduceat`` sums no empty segment.
    """

    model: ModelParams
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
      SessionTooLarge: the whitening matrices, 24 * 2^N * R_z^2 bytes,
        would exceed ``MAX_WHITENING_BYTES``; checked before anything is
        allocated or factorized.
      FactorizationFailed: some posterior precision was not numerically
        SPD (overflowing or otherwise broken model parameters).
    """
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
    gram = w.T @ dw
    gram2 = gram + gram.T

    cond_hyps = enumerate_condition_hypotheses(n_cond)
    hyps = [HypothesisVector(spk, c) for spk in (True, False) for c in cond_hyps]
    untied = [untied_columns(model, h) for h in hyps]
    diff_rows = [max(u.size, 1) for u in untied]
    diff_starts = np.cumsum([0] + diff_rows[:-1])
    w_sum = np.empty((len(hyps) * r_z, r_z))
    w_diff = np.zeros((sum(diff_rows), r_z))
    half_log_det_sigma = np.empty(len(hyps))
    for i, (h, u) in enumerate(zip(hyps, untied)):
        k1 = gram2.copy()
        k1[np.diag_indices(r_z)] += 1.0
        k1[u, u] += 1.0
        k2 = gram2[np.ix_(u, u)]
        k2[np.diag_indices(u.size)] += 2.0
        l1, l2 = _cholesky_lower((k1, k2), h)
        w_sum[i * r_z : (i + 1) * r_z] = _lower_inverse(l1)
        w_diff[diff_starts[i] : diff_starts[i] + u.size, u] = _lower_inverse(l2)
        log_diag = np.sum(np.log(np.diag(l1))) + np.sum(np.log(np.diag(l2)))
        half_log_det_sigma[i] = u.size * math.log(2.0) - float(log_diag)
    log_prior = np.array([hypothesis_log_prior(h, priors) for h in hyps])
    for a in (half_log_det_sigma, log_prior, w_sum, w_diff, diff_starts):
        a.setflags(write=False)
    return ScoringSession(
        model=model,
        factorizations=MappingProxyType({h: i for i, h in enumerate(hyps)}),
        half_log_det_sigma=half_log_det_sigma,
        log_prior=log_prior,
        dw=dw,
        w_sum=w_sum,
        w_diff=w_diff,
        diff_starts=diff_starts,
    )


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


def _project_raw(session: ScoringSession, m, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (session.model.d,):
        raise DimensionMismatch(
            f"{what} has shape {m.shape}, expected a vector of length {session.model.d}"
        )
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{what} contains non-finite values")
    return session.project(m - session.model.mu)


def _one_trial(session: ScoringSession, m_enroll, m_test) -> tuple:
    """Projections of one raw trial, each as a block of one row."""
    return (
        _project_raw(session, m_enroll, "enroll vector")[None, :],
        _project_raw(session, m_test, "test vector")[None, :],
    )


def llr(session: ScoringSession, m_enroll, m_test) -> float:
    """Log-likelihood ratio for one trial; inputs are raw (uncentered).

    Raises:
      AllHypothesesExcluded: one branch has zero total prior.
      DimensionMismatch: an input is not a vector of length d; the
        message names the enroll or the test vector.
      NonFinite: an input holds a NaN or an infinity, or the score is NaN
        because the trial's whitened projections overflowed.
    """
    score = float(_score_block(session, *_one_trial(session, m_enroll, m_test))[0])
    if math.isnan(score):
        raise NonFinite("the score is NaN: the trial's whitened projections overflowed")
    return score


def q_term(session: ScoringSession, speaker_tied: bool, h, m_enroll, m_test) -> float:
    """One hypothesis' term 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log prior.

    ``h`` is the condition-tie vector; inputs are raw (uncentered), as
    for ``llr``, and are checked the same way. Returns -inf when the
    hypothesis prior is zero. The value is bitwise the term that ``llr``
    sums for the same inputs.

    Raises:
      DimensionMismatch: ``h`` does not have one entry per condition;
        otherwise as ``llr`` for its inputs.
      NonFinite: as ``llr`` for its inputs, or the term is NaN or +inf
        because the trial's whitened projections overflowed.
    """
    hv = HypothesisVector(speaker_tied, tuple(h))
    if len(hv.condition_tied) != session.model.n_conditions:
        raise DimensionMismatch(
            f"tie vector has length {len(hv.condition_tied)}, "
            f"the model has {session.model.n_conditions} conditions"
        )
    i = session.factorizations[hv]
    q = float(_q_block(session, *_one_trial(session, m_enroll, m_test)).reshape(-1)[i])
    if math.isnan(q) or q == math.inf:
        raise NonFinite(f"the term of {hv} is {q}: the trial's whitened projections overflowed")
    return q


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
