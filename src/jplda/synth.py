"""Sampling from the generative model: datasets, trial pairs, benchmarks.

All sampling uses numpy's PCG64 generator seeded explicitly, so every
output is reproducible from (inputs, seed). Draw order is fixed and
documented per function; parallel generation must use distinct seeds
rather than sharing one stream.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch
from .hypothesis import HypothesisVector, PriorConfig, enumerate_condition_hypotheses
from .model import ModelParams

__all__ = [
    "SyntheticDataset",
    "sample_dataset",
    "sample_trial_pair",
    "sample_trial_pairs",
    "make_benchmark",
]


@dataclass(frozen=True)
class SyntheticDataset:
    """Embeddings with their speaker and per-condition labels.

    Attributes:
      embeddings: (I, d) matrix, one row per sample.
      speaker_labels: (I,) integer speaker of each sample.
      condition_labels: (N, I) integer label per condition per sample.
      ids: I unique sample id strings.
      seed: the seed the dataset was generated from.
    """

    embeddings: np.ndarray
    speaker_labels: np.ndarray
    condition_labels: np.ndarray
    ids: tuple
    seed: int


def _noise_factor(model: ModelParams) -> np.ndarray:
    """What ``_noise`` draws with: sqrt(diag D) for a diagonal D, else the
    lower Cholesky factor L of D. Each public function computes it once."""
    if model.diagonal_noise:
        return np.sqrt(np.diag(model.D))
    return sla.cholesky(model.D, lower=True)


def _noise(factor: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of N(0, D^-1) noise, given ``_noise_factor(model)``."""
    e = rng.standard_normal((n, factor.shape[0]))
    if factor.ndim == 1:
        return e / factor
    # eps = L^-T e  gives cov (L L^T)^-1 = D^-1
    return sla.solve_triangular(factor, e.T, lower=True, trans="T").T


def sample_dataset(
    model: ModelParams,
    n_speakers: int,
    condition_cardinalities,
    samples_per_speaker: int,
    assignment: str = "uniform-random",
    seed: int = 0,
) -> SyntheticDataset:
    """Draw a labeled dataset from the generative model.

    Every speaker gets ``samples_per_speaker`` consecutive samples.
    Condition labels are assigned per sample, either uniformly at random
    or round-robin (sample i gets label i mod C_j). Latents are drawn
    once per label, noise once per sample.

    Draw order (one PCG64 stream): condition labels (uniform-random mode
    only), speaker latents, condition latents in condition order, noise.
    """
    cards = [int(c) for c in condition_cardinalities]
    if n_speakers < 1 or samples_per_speaker < 1 or any(c < 1 for c in cards):
        raise ValueError("speaker count, samples per speaker, and cardinalities must be >= 1")
    if len(cards) != model.n_conditions:
        raise DimensionMismatch(
            f"{len(cards)} cardinalities given, model has {model.n_conditions} conditions"
        )
    if assignment not in ("uniform-random", "round-robin"):
        raise ValueError(f"unknown assignment mode {assignment!r}")

    rng = np.random.default_rng(seed)
    n_total = n_speakers * samples_per_speaker
    speaker_labels = np.repeat(np.arange(n_speakers), samples_per_speaker)

    condition_labels = np.zeros((model.n_conditions, n_total), dtype=np.int64)
    for j, c in enumerate(cards):
        if assignment == "uniform-random":
            condition_labels[j] = rng.integers(0, c, size=n_total)
        else:
            condition_labels[j] = np.arange(n_total) % c

    y = rng.standard_normal((n_speakers, model.r_y))
    embeddings = model.mu + y[speaker_labels] @ model.V.T
    for j, (u, c) in enumerate(zip(model.U, cards)):
        x = rng.standard_normal((c, u.shape[1]))
        embeddings += x[condition_labels[j]] @ u.T
    embeddings += _noise(_noise_factor(model), n_total, rng)

    ids = tuple(f"u{i:06d}" for i in range(n_total))
    return SyntheticDataset(
        embeddings=embeddings,
        speaker_labels=speaker_labels,
        condition_labels=condition_labels,
        ids=ids,
        seed=int(seed),
    )


def _pairs_from_rng(
    model: ModelParams,
    noise_factor: np.ndarray,
    h: HypothesisVector,
    n_pairs: int,
    rng: np.random.Generator,
):
    """Batch of trial pairs under one full hypothesis, sharing tied latents.

    Draw order per block (speaker, then conditions): one draw if tied,
    else enrollment side then test side; finally enrollment noise, then
    test noise.
    """
    m_e = np.tile(model.mu, (n_pairs, 1))
    m_t = np.tile(model.mu, (n_pairs, 1))
    flags = (h.speaker_tied,) + h.condition_tied
    blocks = (model.V,) + model.U
    for tied, block in zip(flags, blocks):
        r = block.shape[1]
        if tied:
            z = rng.standard_normal((n_pairs, r))
            z_e = z_t = z
        else:
            z_e = rng.standard_normal((n_pairs, r))
            z_t = rng.standard_normal((n_pairs, r))
        m_e += z_e @ block.T
        m_t += z_t @ block.T
    m_e += _noise(noise_factor, n_pairs, rng)
    m_t += _noise(noise_factor, n_pairs, rng)
    return m_e, m_t


def sample_trial_pairs(model: ModelParams, h: HypothesisVector, n_pairs: int, seed: int = 0):
    """n_pairs independent trials under one hypothesis; returns (ME, MT) matrices."""
    if len(h.condition_tied) != model.n_conditions:
        raise ValueError("hypothesis length does not match the model")
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    return _pairs_from_rng(model, _noise_factor(model), h, n_pairs, np.random.default_rng(seed))


def sample_trial_pair(model: ModelParams, h: HypothesisVector, seed: int = 0):
    """One (enrollment, test) pair under the given full hypothesis."""
    m_e, m_t = sample_trial_pairs(model, h, 1, seed)
    return m_e[0], m_t[0]


def make_benchmark(
    model: ModelParams, priors: PriorConfig, n_target: int, n_nontarget: int, seed: int = 0
):
    """Generate a scored-trial benchmark matched to the model and priors.

    Target trials share the speaker latent and draw their condition ties
    from the same-speaker prior; nontarget trials use independent
    speaker latents and the different-speaker prior. Targets come first
    in the output.

    Returns:
      (embeddings, trials, key): a dict from id to raw embedding, a list
      of (enroll_id, test_id) pairs, and a boolean array marking the
      target trials.
    """
    if priors.n_conditions != model.n_conditions:
        raise DimensionMismatch(
            f"priors cover {priors.n_conditions} conditions, model has {model.n_conditions}"
        )
    if n_target < 0 or n_nontarget < 0:
        raise ValueError("trial counts must be >= 0")

    rng = np.random.default_rng(seed)
    n_cond = model.n_conditions
    n_trials = n_target + n_nontarget
    p_ss = np.asarray(priors.p_same_given_ss)
    p_ds = np.asarray(priors.p_same_given_ds)
    tie_t = rng.random((n_target, n_cond)) < p_ss
    tie_n = rng.random((n_nontarget, n_cond)) < p_ds

    m_e = np.empty((n_trials, model.d))
    m_t = np.empty((n_trials, model.d))
    noise_factor = _noise_factor(model)
    for speaker_tied, ties, offset in ((True, tie_t, 0), (False, tie_n, n_target)):
        for cond in enumerate_condition_hypotheses(n_cond):
            rows = np.nonzero(np.all(ties == np.asarray(cond, dtype=bool), axis=1))[0]
            if rows.size == 0:
                continue
            h = HypothesisVector(speaker_tied, cond)
            m_e[offset + rows], m_t[offset + rows] = _pairs_from_rng(
                model, noise_factor, h, rows.size, rng
            )

    embeddings = {}
    trials = []
    for i in range(n_trials):
        eid, tid = f"e{i:06d}", f"t{i:06d}"
        embeddings[eid] = m_e[i]
        embeddings[tid] = m_t[i]
        trials.append((eid, tid))
    key = np.arange(n_trials) < n_target
    return embeddings, trials, key
