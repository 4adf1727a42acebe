import numpy as np
import pytest

from jplda import MissingClass, NonFinite, ScoredTrials, calibration_identity, eer


def sweep_eer_reference(scores, labels):
    """Brute-force threshold enumeration with linear interpolation."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    tar = scores[labels]
    non = scores[~labels]
    points = [(0.0, 1.0)]  # (miss, fa) at threshold -inf
    for t in sorted(set(scores)):
        points.append((np.mean(tar < t), np.mean(non >= t)))
    points.append((1.0, 0.0))
    for (m1, f1), (m2, f2) in zip(points[:-1], points[1:]):
        d1, d2 = m1 - f1, m2 - f2
        if d1 < 0.0 <= d2:
            if d2 == 0.0:
                return m2
            alpha = -d1 / (d2 - d1)
            return m1 + alpha * (m2 - m1)
    raise AssertionError("no crossing found")


def test_scored_trials_reject_nan():
    with pytest.raises(NonFinite):
        eer(ScoredTrials([np.nan, 1.0, 2.0, 0.5], [True, False, True, False]))


def test_scored_trials_accept_infinite_llrs():
    trials = ScoredTrials([np.inf, -np.inf, 1.0, 0.0], [True, False, True, False])
    assert eer(trials) == 0.0


def test_eer_perfect_separation():
    trials = ScoredTrials([1.0, 1.0, -1.0, -1.0], [True, True, False, False])
    assert eer(trials) == 0.0


def test_eer_four_score_example():
    scores = [0.9, 0.4, 0.6, 0.1]
    labels = [True, True, False, False]
    want = sweep_eer_reference(scores, labels)
    assert want == pytest.approx(0.5)  # frozen from the enumeration rule
    assert eer(ScoredTrials(scores, labels)) == pytest.approx(want, abs=1e-12)


def test_eer_matches_reference_on_random_sets():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        labels = np.concatenate([[True, False], rng.integers(0, 2, size=n).astype(bool)])
        scores = np.round(rng.standard_normal(labels.size), 1)  # force ties
        got = eer(ScoredTrials(scores, labels))
        want = sweep_eer_reference(scores, labels)
        assert got == pytest.approx(want, abs=1e-12)


def test_eer_random_labels_near_half():
    rng = np.random.default_rng(11)
    scores = rng.standard_normal(100_000)
    labels = rng.integers(0, 2, size=100_000).astype(bool)
    assert eer(ScoredTrials(scores, labels)) == pytest.approx(0.5, abs=0.01)


def test_eer_invariant_under_increasing_transform():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal(500)
    labels = rng.integers(0, 2, size=500).astype(bool)
    labels[:2] = [True, False]
    base = eer(ScoredTrials(scores, labels))
    assert eer(ScoredTrials(np.exp(scores), labels)) == pytest.approx(base, abs=1e-12)
    assert eer(ScoredTrials(3.0 * scores - 7.0, labels)) == pytest.approx(base, abs=1e-12)


def test_eer_negation_label_swap_symmetry():
    rng = np.random.default_rng(6)
    scores = rng.standard_normal(501)
    labels = rng.integers(0, 2, size=501).astype(bool)
    labels[:2] = [True, False]
    a = eer(ScoredTrials(scores, labels))
    b = eer(ScoredTrials(-scores, ~labels))
    assert a == pytest.approx(b, abs=1e-12)


def test_eer_needs_both_classes():
    with pytest.raises(MissingClass):
        eer(ScoredTrials([1.0, 2.0], [True, True]))


def test_calibration_zero_scores():
    trials = ScoredTrials([0.0, 0.0, 5.0], [False, False, True])
    assert calibration_identity(trials) == 1.0


def test_calibration_minus_inf_scores():
    trials = ScoredTrials([-np.inf, -np.inf], [False, False])
    assert calibration_identity(trials) == 0.0


def test_calibration_needs_nontargets():
    with pytest.raises(MissingClass):
        calibration_identity(ScoredTrials([1.0], [True]))


def test_scored_trials_validation():
    with pytest.raises(ValueError):
        ScoredTrials([], [])
    with pytest.raises(ValueError):
        ScoredTrials([1.0], [True, False])
