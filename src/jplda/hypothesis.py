"""Tie hypotheses over the latent variables of a trial.

A verification trial compares an enrollment and a test sample. For the
speaker and for every nuisance condition, the two samples either share
the corresponding latent variable ("same", tied) or carry independent
copies ("different", untied). Scoring marginalizes over all 2^N
combinations of condition hypotheses inside each speaker branch.
"""

import itertools
import math
from dataclasses import dataclass

__all__ = [
    "HypothesisVector",
    "PriorConfig",
    "enumerate_condition_hypotheses",
    "hypothesis_log_prior",
]


@dataclass(frozen=True)
class HypothesisVector:
    """One full tie hypothesis: the speaker flag plus one flag per condition.

    True means tied (same speaker / same condition on both sides).
    """

    speaker_tied: bool
    condition_tied: tuple

    def __post_init__(self):
        object.__setattr__(self, "speaker_tied", bool(self.speaker_tied))
        object.__setattr__(self, "condition_tied", tuple(bool(t) for t in self.condition_tied))


@dataclass(frozen=True)
class PriorConfig:
    """Per-condition probabilities of a tied condition, one pair per condition.

    ``p_same_given_ss[j]`` applies inside the same-speaker branch and
    ``p_same_given_ds[j]`` inside the different-speaker branch; the
    prior of a full condition hypothesis is the product over conditions
    of the chosen probability or its complement.
    """

    p_same_given_ss: tuple
    p_same_given_ds: tuple

    def __post_init__(self):
        ss = tuple(float(p) for p in self.p_same_given_ss)
        ds = tuple(float(p) for p in self.p_same_given_ds)
        if len(ss) != len(ds):
            raise ValueError("p_same_given_ss and p_same_given_ds must have equal length")
        for p in ss + ds:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"prior probability {p} outside [0, 1]")
        object.__setattr__(self, "p_same_given_ss", ss)
        object.__setattr__(self, "p_same_given_ds", ds)

    @property
    def n_conditions(self) -> int:
        return len(self.p_same_given_ss)

    @classmethod
    def uniform(cls, n_conditions: int) -> "PriorConfig":
        """Probability 0.5 for every condition in both speaker branches."""
        return cls((0.5,) * n_conditions, (0.5,) * n_conditions)


def enumerate_condition_hypotheses(n_conditions: int) -> list:
    """All 2^N condition-tie vectors in binary-counting order.

    Condition 1 is the most significant digit and "same" (True) counts
    as 0, so the all-tied vector comes first and the all-untied vector
    last. The order is deterministic and duplicate-free.
    """
    if n_conditions < 0:
        raise ValueError("n_conditions must be >= 0")
    return list(itertools.product((True, False), repeat=n_conditions))


def hypothesis_log_prior(h: HypothesisVector, priors: PriorConfig) -> float:
    """Log prior of the condition part of ``h`` in its speaker branch.

    Returns -inf when any factor is exactly zero.
    """
    if len(h.condition_tied) != priors.n_conditions:
        raise ValueError(
            f"hypothesis has {len(h.condition_tied)} conditions, "
            f"priors have {priors.n_conditions}"
        )
    p_same = priors.p_same_given_ss if h.speaker_tied else priors.p_same_given_ds
    total = 0.0
    for p, tied in zip(p_same, h.condition_tied):
        factor = p if tied else 1.0 - p
        if factor == 0.0:
            return -math.inf
        total += math.log(factor)
    return total
