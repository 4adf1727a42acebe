"""Reference implementations that the fast scoring path is checked against.

The tests, ``jplda check`` and the benchmark's score checker call them;
``jplda score`` does not. Everything here evaluates densities directly on
covariance matrices of the observed vectors, with full normalization
constants and no use of the production precision-domain shortcuts. It is
deliberately O(d^3) per hypothesis per trial: a slow, independent path to
the same numbers, which shares ``model``'s input checks but no scoring math.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, OrphanLatent
from .hypothesis import HypothesisVector, PriorConfig, enumerate_condition_hypotheses, hypothesis_log_prior
from .model import ModelParams, _check_priors, _check_ties, _checked_vector, stack_w

__all__ = [
    "LabeledLatents",
    "marginal_cov",
    "gaussian_llr_oracle",
    "joint_prior_logpdf",
    "per_sample_prior_logpdf",
    "data_loglik",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class LabeledLatents:
    """A draw of all latent variables plus their sample assignments.

    Attributes:
      y: speaker latents, shape (S, R_y).
      x: per condition j an array of shape (C_j, R_xj).
      speaker_idx: speaker label of each sample, shape (I,).
      cond_idx: condition labels, shape (N, I); row j holds the labels
        for condition j.
    """

    y: np.ndarray
    x: tuple
    speaker_idx: np.ndarray
    cond_idx: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        x = tuple(np.asarray(xj, dtype=np.float64) for xj in self.x)
        if y.ndim != 2 or any(xj.ndim != 2 for xj in x):
            raise ValueError("latent arrays must be 2-dimensional (one row per latent)")
        spk = np.asarray(self.speaker_idx, dtype=np.int64)
        cond = np.asarray(self.cond_idx, dtype=np.int64)
        if cond.size == 0:
            cond = cond.reshape(len(x), spk.shape[0])
        if spk.ndim != 1:
            raise ValueError("speaker_idx must be 1-dimensional")
        if cond.shape != (len(x), spk.shape[0]):
            raise ValueError(
                f"cond_idx must have shape (N={len(x)}, I={spk.shape[0]}), got {cond.shape}"
            )
        if spk.size and (spk.min() < 0 or spk.max() >= y.shape[0]):
            raise ValueError("speaker_idx references a nonexistent speaker latent")
        for j, xj in enumerate(x):
            labels = cond[j]
            if labels.size and (labels.min() < 0 or labels.max() >= xj.shape[0]):
                raise ValueError(f"cond_idx[{j}] references a nonexistent condition latent")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "speaker_idx", spk)
        object.__setattr__(self, "cond_idx", cond)

    @property
    def n_samples(self) -> int:
        return self.speaker_idx.shape[0]

    def stacked_latents(self) -> np.ndarray:
        """One row per sample: its speaker latent followed by its condition latents."""
        parts = [self.y[self.speaker_idx]]
        for j, xj in enumerate(self.x):
            parts.append(xj[self.cond_idx[j]])
        return np.concatenate(parts, axis=1)


def _logpdf_zero_mean(x: np.ndarray, cov: np.ndarray) -> float:
    """log N(x; 0, cov) by direct Cholesky of the covariance."""
    n = x.shape[0]
    if n == 0:
        return 0.0
    chol = np.linalg.cholesky(cov)
    u = np.linalg.solve(chol, x)
    return -0.5 * n * _LOG_2PI - float(np.sum(np.log(np.diag(chol)))) - 0.5 * float(u @ u)


def _cov_terms(model: ModelParams) -> tuple:
    """The covariance pieces that no hypothesis changes: the total
    covariance V V^T + D^-1 + sum_j U_j U_j^T, added in that order, V V^T
    and each U_j U_j^T. D^-1 is ``inv(D)``, symmetrized."""
    noise_cov = np.linalg.inv(model.D)
    noise_cov = 0.5 * (noise_cov + noise_cov.T)
    vv = model.V @ model.V.T
    uu = [u @ u.T for u in model.U]
    total = vv + noise_cov
    for term in uu:
        total = total + term
    return total, vv, uu


def _pair_cov(terms: tuple, h: HypothesisVector) -> np.ndarray:
    """``marginal_cov`` from the model's ``_cov_terms``."""
    total, vv, uu = terms
    shared = np.zeros_like(total)
    for term, tied in zip((vv, *uu), (h.speaker_tied, *h.condition_tied)):
        if tied:
            shared = shared + term
    return np.block([[total, shared], [shared, total]])


def marginal_cov(model: ModelParams, h: HypothesisVector) -> np.ndarray:
    """Covariance of the stacked centered pair [mE; mT] under hypothesis h.

    Both diagonal blocks are the total covariance
    V V^T + sum_j U_j U_j^T + D^-1; the off-diagonal block is the sum of
    the outer products of the factors that h ties across the two sides.
    D^-1 is ``inv(D)``, symmetrized; for a diagonal D that is exactly
    diag(1 / diag D).

    Raises:
      DimensionMismatch: h does not hold one flag per condition.
    """
    _check_ties(model, h)
    return _pair_cov(_cov_terms(model), h)


def gaussian_llr_oracle(model: ModelParams, priors: PriorConfig, m_enroll, m_test) -> float:
    """Trial LLR from the explicit 2d-dimensional Gaussian marginals.

    Same contract as ``scoring.llr`` (raw inputs, mean subtracted here),
    evaluated the slow way: one full-covariance log-density per
    hypothesis, then a log-sum-exp per speaker branch. The covariance
    pieces that no hypothesis changes are built once per call. A valid
    ``PriorConfig`` gives every branch a hypothesis of nonzero prior.

    Raises:
      DimensionMismatch: the priors do not cover the model's conditions, or
        an input is not a vector of length d, named enroll or test vector.
      NonFinite: an input holds a NaN or an infinity, or the pair's
        log-density overflowed.
    """
    _check_priors(model, priors)
    pair = np.concatenate([_checked_vector(model, m, f"{side} vector") - model.mu
                           for side, m in (("enroll", m_enroll), ("test", m_test))])

    def branch(speaker_tied: bool) -> float:
        terms = []
        for cond in enumerate_condition_hypotheses(model.n_conditions):
            h = HypothesisVector(speaker_tied, cond)
            log_prior = hypothesis_log_prior(h, priors)
            if log_prior == -math.inf:
                continue
            log_pdf = _logpdf_zero_mean(pair, _pair_cov(cov, h))
            if not math.isfinite(log_pdf):
                raise NonFinite(f"the pair's log-density under {h} overflowed")
            terms.append(log_pdf + log_prior)
        m = max(terms)
        return m + math.log(sum(math.exp(t - m) for t in terms))

    with np.errstate(all="ignore"):  # an overflow raises NonFinite instead
        cov = _cov_terms(model)
        return branch(True) - branch(False)


def joint_prior_logpdf(latents: LabeledLatents) -> float:
    """Exact log density of all latents: standard normal per latent vector."""
    quad = float(np.sum(latents.y**2)) + sum(float(np.sum(xj**2)) for xj in latents.x)
    count = latents.y.size + sum(xj.size for xj in latents.x)
    return -0.5 * quad - 0.5 * count * _LOG_2PI


def per_sample_prior_logpdf(latents: LabeledLatents) -> float:
    """Same prior written as a count-weighted sum over samples.

    Each sample contributes -0.5 z_i^T P_i z_i with
    P_i = diag(I/n_speaker, I/n_cond_1, ..., I/n_cond_N), the counts
    being how many samples share each of its labels. Summing over
    samples reproduces one unit-weight quadratic per latent, so the
    result equals :func:`joint_prior_logpdf` (same constants included).

    Raises:
      OrphanLatent: some latent has no samples, so its weight is undefined.
    """
    spk_counts = np.bincount(latents.speaker_idx, minlength=latents.y.shape[0])
    if np.any(spk_counts == 0):
        raise OrphanLatent("a speaker latent has no samples assigned")
    y_norms = np.sum(latents.y**2, axis=1)
    quad = float(np.sum(y_norms[latents.speaker_idx] / spk_counts[latents.speaker_idx]))
    for j, xj in enumerate(latents.x):
        labels = latents.cond_idx[j]
        counts = np.bincount(labels, minlength=xj.shape[0])
        if np.any(counts == 0):
            raise OrphanLatent(f"a condition-{j + 1} latent has no samples assigned")
        norms = np.sum(xj**2, axis=1)
        quad += float(np.sum(norms[labels] / counts[labels]))
    count = latents.y.size + sum(xj.size for xj in latents.x)
    return -0.5 * quad - 0.5 * count * _LOG_2PI


def data_loglik(samples, latents: LabeledLatents, model: ModelParams) -> float:
    """Sum over samples of log N(m_i; mu + W z_i, D^-1), constants included."""
    m = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if m.shape != (latents.n_samples, model.d):
        raise ValueError(
            f"samples have shape {m.shape}, expected ({latents.n_samples}, {model.d})"
        )
    w = stack_w(model)
    z = latents.stacked_latents()
    if z.shape[1] != w.shape[1]:
        raise ValueError(
            f"latents stack to length {z.shape[1]}, model has R_z = {w.shape[1]}"
        )
    resid = m - model.mu - z @ w.T
    sign, logdet_d = np.linalg.slogdet(model.D) if model.d else (1.0, 0.0)
    quad = float(np.sum((resid @ model.D) * resid))
    n = latents.n_samples
    return -0.5 * quad + 0.5 * n * float(logdet_d) - 0.5 * n * model.d * _LOG_2PI
