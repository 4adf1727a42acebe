"""Detection metrics and calibration checks over scored trials."""

from dataclasses import dataclass

import numpy as np

from .errors import MissingClass, NonFinite

__all__ = ["ScoredTrials", "eer", "calibration_identity"]


@dataclass(frozen=True)
class ScoredTrials:
    """Scores paired with target (True) / nontarget (False) labels.

    Scores may be +-inf (valid log-likelihood ratios) but never NaN.
    """

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=bool)
        if scores.ndim != 1 or labels.ndim != 1 or scores.shape != labels.shape:
            raise ValueError("scores and labels must be 1-d arrays of equal length")
        if scores.size == 0:
            raise ValueError("no trials")
        if np.any(np.isnan(scores)):
            raise NonFinite("scores contain NaN")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)


def eer(trials: ScoredTrials) -> float:
    """Equal-error rate from a threshold sweep over the observed scores.

    At threshold t a trial is accepted iff its score >= t, so equal
    scores rise and fall together (one threshold per distinct value).
    The sweep runs over all distinct scores plus virtual endpoints; the
    miss and false-alarm rates of the two operating points straddling
    miss == fa are interpolated linearly.

    Raises:
      MissingClass: either class is absent.
    """
    tar = np.sort(trials.scores[trials.labels])
    non = np.sort(trials.scores[~trials.labels])
    if tar.size == 0 or non.size == 0:
        raise MissingClass("EER needs both target and nontarget trials")

    thresholds = np.unique(trials.scores)
    # miss(t) = P(target < t); fa(t) = P(nontarget >= t)
    miss = np.searchsorted(tar, thresholds, side="left") / tar.size
    fa = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    # endpoints: accept everything / reject everything
    miss = np.concatenate(([0.0], miss, [1.0]))
    fa = np.concatenate(([1.0], fa, [0.0]))

    diff = miss - fa  # nondecreasing along the sweep
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0:
        return float(miss[k])
    alpha = -diff[k - 1] / (diff[k] - diff[k - 1])
    return float(miss[k - 1] + alpha * (miss[k] - miss[k - 1]))


def calibration_identity(trials: ScoredTrials) -> float:
    """Mean of exp(score) over the nontarget trials.

    For scores that are true log-likelihood ratios under the generating
    model this converges to 1, which makes it a quick validity check of
    the score semantics.

    Raises:
      MissingClass: no nontarget trials.
    """
    non = trials.scores[~trials.labels]
    if non.size == 0:
        raise MissingClass("calibration identity needs nontarget trials")
    with np.errstate(over="ignore"):
        return float(np.mean(np.exp(non)))
