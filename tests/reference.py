"""Reference math for the tests: the unrotated posterior of one hypothesis
and an mpmath covariance-domain LLR.

``jplda.scoring`` factorizes rotated blocks K1, K2 of each hypothesis'
posterior precision. The functions here restate the full, unrotated
form, so the tests can check the session against it: the precision K of
the stacked trial latents [Z_shared; Z_enroll; Z_test], its information
vector Phi and the posterior moments. ``mp_llr`` is a slower and more
precise reference for ``llr`` itself.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np
import scipy.linalg as sla

from jplda import HypothesisVector, enumerate_condition_hypotheses, stack_w


def split_columns(model, h):
    """(tied, untied) ascending column indices of W = [V | U_1 | ... | U_N]
    for hypothesis h: V's are untied iff the speaker is, U_j's iff
    condition j is."""
    flags = (h.speaker_tied,) + h.condition_tied
    untied = np.flatnonzero(np.repeat(np.logical_not(flags), (model.r_y,) + model.r_x))
    return np.setdiff1d(np.arange(model.r_z), untied), untied


def build_k_sum(gram, model, h):
    """Posterior precision of [Z_shared; Z_enroll; Z_test] for one hypothesis.

    ``gram`` is W^T D W of the stacked loadings. With A = W_S^T D W_S,
    B = W_S^T D W_D and C = W_D^T D W_D, all sliced out of it by the
    hypothesis' tied (S) and untied (D) columns, the block form is::

        [ 2A + I   B       B     ]
        [ B^T      C + I   0     ]
        [ B^T      0       C + I ]
    """
    tied, untied = split_columns(model, h)
    n_s, n_d = tied.size, untied.size
    cols = np.concatenate((tied, untied, untied))
    k = gram[np.ix_(cols, cols)]
    k[:n_s, :n_s] *= 2.0
    k[n_s : n_s + n_d, n_s + n_d :] = 0.0
    k[n_s + n_d :, n_s : n_s + n_d] = 0.0
    k[np.diag_indices_from(k)] += 1.0
    return k


def compute_phi(session, h, m_enroll, m_test):
    """Information vector [W_S^T D (mE+mT); W_D^T D mE; W_D^T D mT].

    Both inputs must already be centered (mean subtracted).
    """
    tied, untied = split_columns(session.model, h)
    proj_e = session.project(np.asarray(m_enroll, dtype=np.float64))
    proj_t = session.project(np.asarray(m_test, dtype=np.float64))
    return np.concatenate(((proj_e + proj_t)[tied], proj_e[untied], proj_t[untied]))


@dataclass(frozen=True)
class PosteriorMoments:
    """Posterior mean and covariance of the stacked trial latents."""

    z_hat: np.ndarray
    sigma: np.ndarray


def posterior_moments(session, speaker_tied, h, m_enroll, m_test):
    """Posterior mean Sigma*Phi and covariance Sigma = K^-1 of the trial
    latents; inputs must be centered."""
    hv = HypothesisVector(speaker_tied, tuple(h))
    phi = compute_phi(session, hv, m_enroll, m_test)
    n = phi.size
    if n == 0:
        return PosteriorMoments(z_hat=np.zeros(0), sigma=np.zeros((0, 0)))
    gram = stack_w(session.model).T @ session.dw
    k = build_k_sum(0.5 * (gram + gram.T), session.model, hv)
    factor = sla.cho_factor(k, lower=True)
    sigma = sla.cho_solve(factor, np.eye(n))
    sigma = 0.5 * (sigma + sigma.T)
    return PosteriorMoments(z_hat=sla.cho_solve(factor, phi), sigma=sigma)


# mpmath oracle ------------------------------------------------------------


def _mp_outer(b):
    """b b^T of a float64 matrix, exact to the working precision."""
    return mp.matrix([[mp.fsum(mp.mpf(x) * y for x, y in zip(ri, rj)) for rj in b] for ri in b])


def _mp_log_density(cov, x):
    """log N(x; 0, cov) without its 2 pi constant, by Cholesky of cov."""
    chol = mp.cholesky(cov)
    z = []
    for i in range(len(x)):
        z.append((x[i] - mp.fsum(chol[i, k] * z[k] for k in range(i))) / chol[i, i])
    return -mp.fsum(mp.log(chol[i, i]) for i in range(len(x))) - mp.fsum(v * v for v in z) / 2


def mp_llr(model, priors, m_enroll, m_test, dps=50):
    """Trial LLR from the explicit Gaussian marginals of the pair, in mpmath.

    Same contract as ``jplda.llr`` (raw inputs). Every float64 input is
    converted exactly and everything after that runs at ``dps`` decimal
    digits, so the result is the LLR of the given model and vectors to
    far more digits than float64 holds.
    """
    with mp.workdps(dps):
        d = model.d
        outer = [_mp_outer(b) for b in (model.V,) + model.U]
        total = sum(outer, mp.inverse(mp.matrix(model.D.tolist())))
        x = [mp.mpf(v) - mu for m in (m_enroll, m_test) for v, mu in zip(m, model.mu)]

        def branch(speaker_tied):
            p_same = priors.p_same_given_ss if speaker_tied else priors.p_same_given_ds
            terms = []
            for cond in enumerate_condition_hypotheses(model.n_conditions):
                factors = [mp.mpf(p) if t else 1 - mp.mpf(p) for p, t in zip(p_same, cond)]
                if 0 in factors:
                    continue
                tied = (speaker_tied,) + cond
                shared = sum((o for o, t in zip(outer, tied) if t), mp.zeros(d, d))
                cov = mp.zeros(2 * d, 2 * d)
                for i in range(d):
                    for j in range(d):
                        cov[i, j] = cov[i + d, j + d] = total[i, j]
                        cov[i, j + d] = cov[i + d, j] = shared[i, j]
                terms.append(_mp_log_density(cov, x) + mp.fsum(mp.log(f) for f in factors))
            top = max(terms)
            return top + mp.log(mp.fsum(mp.exp(t - top) for t in terms))

        return branch(True) - branch(False)
