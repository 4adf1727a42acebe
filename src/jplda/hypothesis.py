"""Tie hypotheses over the latent variables of a trial.

A verification trial compares an enrollment and a test sample. For the
speaker and for every nuisance condition, the two samples either share
the corresponding latent variable ("same", tied) or carry independent
copies ("different", untied). Scoring marginalizes over all 2^N
combinations of condition hypotheses inside each speaker branch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "HypothesisVector",
    "PriorConfig",
    "Partition",
    "enumerate_condition_hypotheses",
    "hypothesis_log_prior",
    "partition_factors",
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
    def uniform(cls, n_conditions: int, p: float = 0.5) -> "PriorConfig":
        """Same probability for every condition in both speaker branches."""
        return cls((p,) * n_conditions, (p,) * n_conditions)


@dataclass(frozen=True)
class Partition:
    """Stacked factor columns split into tied and untied sides for one hypothesis.

    Attributes:
      tied_slots / untied_slots: block names ("speaker", "condition_1",
        ...) in the fixed convention order: speaker first, then
        conditions ascending.
      tied_cols / untied_cols: the corresponding column indices into the
        stacked matrix W = [V | U_1 | ... | U_N]; W[:, tied_cols] is
        W_S and W[:, untied_cols] is W_D.
    """

    tied_slots: tuple
    untied_slots: tuple
    tied_cols: np.ndarray
    untied_cols: np.ndarray

    @property
    def n_s(self) -> int:
        return len(self.tied_cols)

    @property
    def n_d(self) -> int:
        return len(self.untied_cols)


def enumerate_condition_hypotheses(n_conditions: int) -> list:
    """All 2^N condition-tie vectors in binary-counting order.

    Condition 1 is the most significant digit and "same" (True) counts
    as 0, so the all-tied vector comes first and the all-untied vector
    last. The order is deterministic and duplicate-free.
    """
    if n_conditions < 0:
        raise ValueError("n_conditions must be >= 0")
    out = []
    for k in range(2**n_conditions):
        out.append(
            tuple(not (k >> (n_conditions - 1 - j)) & 1 for j in range(n_conditions))
        )
    return out


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


def _block_layout(model: ModelParams) -> list:
    """(name, column slice into stacked W) for the speaker and each condition."""
    layout = [("speaker", slice(0, model.r_y))]
    start = model.r_y
    for j, r in enumerate(model.r_x, start=1):
        layout.append((f"condition_{j}", slice(start, start + r)))
        start += r
    return layout


def partition_factors(model: ModelParams, h: HypothesisVector) -> Partition:
    """Split the columns of V and the U_j into tied (W_S) and untied (W_D) sides.

    V goes to the tied side iff the speaker is tied; U_j iff condition j
    is tied. Within each side the order is speaker first, then
    conditions ascending.
    """
    if len(h.condition_tied) != model.n_conditions:
        raise ValueError(
            f"hypothesis has {len(h.condition_tied)} conditions, "
            f"model has {model.n_conditions}"
        )
    flags = (h.speaker_tied,) + h.condition_tied
    slots = {True: [], False: []}
    cols = {True: [np.zeros(0, dtype=np.int64)], False: [np.zeros(0, dtype=np.int64)]}
    for tied, (name, block) in zip(flags, _block_layout(model)):
        slots[tied].append(name)
        cols[tied].append(np.arange(block.start, block.stop, dtype=np.int64))
    return Partition(
        tied_slots=tuple(slots[True]),
        untied_slots=tuple(slots[False]),
        tied_cols=np.concatenate(cols[True]),
        untied_cols=np.concatenate(cols[False]),
    )
