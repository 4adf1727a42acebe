"""Walk through scoring one verification trial, hypothesis by hypothesis.

Builds a small two-condition model by hand, samples an enrollment/test
pair that truly shares a speaker, and prints every per-hypothesis
contribution next to the final log-likelihood ratio. Ends with the
slow-oracle cross-check.
"""

import numpy as np

from jplda import (
    HypothesisVector,
    ModelParams,
    PriorConfig,
    enumerate_condition_hypotheses,
    llr,
    precompute_session,
    q_term,
    sample_trial_pair,
)
from jplda.oracle import gaussian_llr_oracle

rng = np.random.default_rng(8)

d = 6
model = ModelParams(
    mu=rng.standard_normal(d),
    V=rng.standard_normal((d, 2)),           # speaker subspace
    U=(
        0.9 * rng.standard_normal((d, 1)),   # condition 1: e.g. language
        0.7 * rng.standard_normal((d, 2)),   # condition 2: e.g. microphone
    ),
    D=np.diag(rng.uniform(1.0, 3.0, size=d)),
)

# same speaker more often means same condition; tune per task
priors = PriorConfig(p_same_given_ss=(0.8, 0.7), p_same_given_ds=(0.2, 0.3))
session = precompute_session(model, priors)

print(f"model: d={model.d}, R_y={model.r_y}, conditions={model.r_x}")
print(f"hypotheses per speaker branch: {len(session.factorizations) // 2}")

# ground truth for this demo trial: same speaker, same condition 1,
# different condition 2
truth = HypothesisVector(True, (True, False))
m_enroll, m_test = sample_trial_pair(model, truth, seed=123)

print("\nper-hypothesis terms (same-speaker branch | different-speaker branch):")
for cond in enumerate_condition_hypotheses(model.n_conditions):
    ties = "".join("S" if t else "D" for t in cond)
    q_ss = q_term(session, True, cond, m_enroll, m_test)
    q_ds = q_term(session, False, cond, m_enroll, m_test)
    print(f"  conditions {ties}:  Q_ss = {q_ss:9.3f}   Q_ds = {q_ds:9.3f}")

score = llr(session, m_enroll, m_test)
print(f"\nLLR = {score:.6f}  (positive favors same speaker; truth here is same)")

slow = gaussian_llr_oracle(model, priors, m_enroll, m_test)
print(f"oracle check: {slow:.6f}  |difference| = {abs(score - slow):.2e}")
