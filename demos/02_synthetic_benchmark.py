"""Generate a matched synthetic benchmark and measure EER and calibration.

Part 1 compares the full model against the collapsed baseline that
folds all condition variability into the noise: when condition ties
carry information about speaker sameness, marginalizing over them wins.
Part 2 demonstrates the calibration identity E[exp(LLR)] = 1 over
nontarget trials, on a gentler model where the Monte-Carlo estimate
converges at a reasonable trial count.
"""

import numpy as np

from jplda import (
    ModelParams,
    PriorConfig,
    ScoredTrials,
    calibration_identity,
    collapse_to_plda,
    eer,
    make_benchmark,
    precompute_session,
    score_trials,
)

rng = np.random.default_rng(42)
d = 30

model = ModelParams(
    mu=rng.standard_normal(d),
    V=0.25 * rng.standard_normal((d, 8)),
    U=(rng.standard_normal((d, 4)), rng.standard_normal((d, 4))),
    D=np.diag(rng.uniform(1.0, 3.0, size=d)),
)
priors = PriorConfig((0.8, 0.8), (0.2, 0.2))

print("sampling 5k target + 5k nontarget trials from the model...")
embeddings, trials, key = make_benchmark(model, priors, 5000, 5000, seed=1)

session = precompute_session(model, priors)
scores = score_trials(session, embeddings, embeddings, trials)
full = ScoredTrials(scores, key)

baseline_model = collapse_to_plda(model)
baseline_session = precompute_session(baseline_model, PriorConfig.uniform(0))
baseline_scores = score_trials(baseline_session, embeddings, embeddings, trials)
baseline = ScoredTrials(baseline_scores, key)

print(f"\nEER, full model          : {eer(full) * 100:6.2f} %")
print(f"EER, collapsed baseline  : {eer(baseline) * 100:6.2f} %")

# calibration: exp(LLR) is heavy-tailed when classes separate well, so
# the identity is easiest to see on a weakly separating model
soft = ModelParams(
    mu=rng.standard_normal(4),
    V=0.8 * rng.standard_normal((4, 2)),
    U=(0.8 * rng.standard_normal((4, 2)),),
    D=np.diag(rng.uniform(1.0, 2.0, size=4)),
)
soft_priors = PriorConfig((0.7,), (0.3,))
emb2, trials2, key2 = make_benchmark(soft, soft_priors, 0, 50_000, seed=2)
soft_scores = score_trials(precompute_session(soft, soft_priors), emb2, emb2, trials2)
cal = calibration_identity(ScoredTrials(soft_scores, key2))
print(f"\nmean exp(LLR) over 50k nontargets, matched soft model: {cal:.4f} (expect ~1)")
