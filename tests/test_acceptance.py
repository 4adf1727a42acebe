"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (the verdict lines bypass
capture, so they always appear).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from jplda import (
    ModelParams,
    PriorConfig,
    ScoredTrials,
    calibration_identity,
    collapse_to_plda,
    eer,
    io,
    llr,
    make_benchmark,
    precompute_session,
    score_trials,
)
from jplda.oracle import (
    gaussian_llr_oracle,
    joint_prior_logpdf,
    per_sample_prior_logpdf,
    data_loglik,
)

from conftest import random_model, random_priors
from test_oracle import full_joint_logpdf, random_latents


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    tolerance = 1e-8
    worst = 0.0
    start = time.perf_counter()
    for i in range(1000):
        n = i % 4  # covers every condition count, including the single-condition case
        d = int(rng.integers(1, 9))
        r_y = int(rng.integers(0, 4))
        r_x = tuple(int(r) for r in rng.integers(1, 4, size=n))
        model = random_model(rng, d, r_y, r_x)
        priors = random_priors(rng, n)
        session = precompute_session(model, priors)
        m_e, m_t = rng.standard_normal(d), rng.standard_normal(d)
        got = llr(session, m_e, m_t)
        want = gaussian_llr_oracle(model, priors, m_e, m_t)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= tolerance and elapsed < 60.0
    verdict(
        capsys,
        "1 oracle equivalence",
        ok,
        f"max |llr - oracle| = {worst:.2e} over 1000 configs in {elapsed:.1f}s",
    )


def test_criterion_2_prior_form_identity(capsys):
    rng = np.random.default_rng(512)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(0, 4))
        latents = random_latents(
            rng,
            r_y=int(rng.integers(1, 4)),
            r_x=tuple(int(r) for r in rng.integers(1, 4, size=n)),
            n_speakers=int(rng.integers(1, 6)),
            cards=tuple(int(c) for c in rng.integers(1, 5, size=n)),
            n_samples=int(rng.integers(6, 21)),
        )
        worst = max(worst, abs(joint_prior_logpdf(latents) - per_sample_prior_logpdf(latents)))
    ok = worst <= 1e-10
    verdict(capsys, "2 prior-form identity", ok, f"max deviation = {worst:.2e} over 500 datasets")


def test_criterion_3_joint_decomposition(capsys):
    rng = np.random.default_rng(513)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(0, 3))
        r_x = tuple(int(r) for r in rng.integers(1, 3, size=n))
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)), r_x)
        latents = random_latents(
            rng,
            r_y=model.r_y,
            r_x=r_x,
            n_speakers=int(rng.integers(1, 4)),
            cards=tuple(int(c) for c in rng.integers(1, 4, size=n)),
            n_samples=int(rng.integers(4, 9)),
        )
        samples = rng.standard_normal((latents.n_samples, model.d))
        lhs = data_loglik(samples, latents, model) + joint_prior_logpdf(latents)
        rhs = full_joint_logpdf(samples, latents, model)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-8
    verdict(capsys, "3 joint decomposition", ok, f"max deviation = {worst:.2e} over 50 instances")


def test_criterion_4_symmetries(capsys):
    rng = np.random.default_rng(514)

    worst_swap = 0.0
    for _ in range(50):
        n = int(rng.integers(0, 3))
        model = random_model(rng, int(rng.integers(1, 6)), 2, (1, 2)[:n])
        session = precompute_session(model, random_priors(rng, n))
        m_e, m_t = rng.standard_normal(model.d), rng.standard_normal(model.d)
        worst_swap = max(worst_swap, abs(llr(session, m_e, m_t) - llr(session, m_t, m_e)))

    # uniform prior rescale of both branches must cancel in the ratio
    worst_scale = 0.0
    model = random_model(rng, 4, 2, (1, 2))
    session = precompute_session(model, random_priors(rng, 2))
    shift = math.log(123.0)
    scaled = dataclasses.replace(session, log_prior=session.log_prior + shift)
    for _ in range(20):
        m_e, m_t = rng.standard_normal(4), rng.standard_normal(4)
        worst_scale = max(worst_scale, abs(llr(session, m_e, m_t) - llr(scaled, m_e, m_t)))

    worst_zero_v = 0.0
    null = ModelParams(
        mu=rng.standard_normal(3),
        V=np.zeros((3, 2)),
        U=(rng.standard_normal((3, 2)),),
        D=np.eye(3),
    )
    null_session = precompute_session(null, PriorConfig((0.4,), (0.4,)))
    for _ in range(20):
        worst_zero_v = max(
            worst_zero_v,
            abs(llr(null_session, rng.standard_normal(3), rng.standard_normal(3))),
        )

    ok = worst_swap <= 1e-10 and worst_scale <= 1e-10 and worst_zero_v <= 1e-10
    verdict(
        capsys,
        "4 LLR symmetries",
        ok,
        f"swap = {worst_swap:.2e}, prior scaling = {worst_scale:.2e}, "
        f"zero-V = {worst_zero_v:.2e}",
    )


def calibration_model():
    rng = np.random.default_rng(1234)
    d = 4
    return ModelParams(
        mu=rng.standard_normal(d),
        V=0.8 * rng.standard_normal((d, 2)),
        U=(0.8 * rng.standard_normal((d, 2)),),
        D=np.diag(rng.uniform(1.0, 2.0, size=d)),
    )


def test_criterion_5_calibration_identity(capsys):
    model = calibration_model()
    priors = PriorConfig((0.7,), (0.3,))
    emb, trials, key = make_benchmark(model, priors, n_target=0, n_nontarget=100_000, seed=77)
    session = precompute_session(model, priors)
    scores = score_trials(session, emb, emb, trials)
    cal = calibration_identity(ScoredTrials(scores, key))
    ok = 0.9 <= cal <= 1.1
    verdict(capsys, "5 calibration identity", ok, f"mean exp(LLR) = {cal:.4f} on 100k nontargets")


def discrimination_model():
    rng = np.random.default_rng(321)
    d = 50
    return ModelParams(
        mu=rng.standard_normal(d),
        V=0.15 * rng.standard_normal((d, 10)),
        U=tuple(rng.standard_normal((d, r)) for r in (5, 5)),
        D=np.diag(rng.uniform(1.0, 4.0, size=d)),
    )


def test_criterion_6_discrimination_vs_collapsed_baseline(capsys):
    model = discrimination_model()
    priors = PriorConfig((0.8, 0.8), (0.2, 0.2))
    emb, trials, key = make_benchmark(model, priors, 10_000, 10_000, seed=10)

    full = score_trials(precompute_session(model, priors), emb, emb, trials)
    baseline_model = collapse_to_plda(model)
    baseline = score_trials(
        precompute_session(baseline_model, PriorConfig.uniform(0)), emb, emb, trials
    )
    eer_full = eer(ScoredTrials(full, key))
    eer_base = eer(ScoredTrials(baseline, key))
    ok = eer_full <= eer_base - 0.005
    verdict(
        capsys,
        "6 discrimination sanity",
        ok,
        f"EER full = {eer_full * 100:.2f}%, collapsed baseline = {eer_base * 100:.2f}%",
    )


def test_criterion_7_precompute_and_throughput(capsys, tmp_path, factorizations):
    rng = np.random.default_rng(99)
    d, r_y, r_x = 200, 50, (20, 20)
    model = ModelParams(
        mu=rng.standard_normal(d),
        V=rng.standard_normal((d, r_y)) / np.sqrt(r_y),
        U=tuple(rng.standard_normal((d, r)) / np.sqrt(r) for r in r_x),
        D=np.diag(rng.uniform(0.5, 2.0, size=d)),
    )
    priors = PriorConfig((0.6, 0.7), (0.3, 0.2))

    session = precompute_session(model, priors)
    factorizations_at_precompute = len(factorizations)

    n_emb = 2000
    enroll = {f"e{i}": rng.standard_normal(d) for i in range(n_emb)}
    test = {f"t{i}": rng.standard_normal(d) for i in range(n_emb)}
    trials = [
        (f"e{rng.integers(n_emb)}", f"t{rng.integers(n_emb)}") for _ in range(10_000)
    ]

    start = time.perf_counter()
    forward = score_trials(session, enroll, test, trials)
    elapsed = time.perf_counter() - start
    backward = score_trials(session, enroll, test, trials[::-1])[::-1]

    io.save_scores(tmp_path / "forward.tsv", trials, forward)
    io.save_scores(tmp_path / "backward.tsv", trials, backward)
    identical = (tmp_path / "forward.tsv").read_bytes() == (tmp_path / "backward.tsv").read_bytes()

    ok = (
        factorizations_at_precompute == 8
        and len(factorizations) == 8
        and elapsed < 10.0
        and identical
    )
    verdict(
        capsys,
        "7 precompute contract and throughput",
        ok,
        f"{len(factorizations)} factorizations, 10k trials in {elapsed:.2f}s, "
        f"forward vs reversed order byte-identical: {identical}",
    )


def test_criterion_8_round_trips(capsys, tmp_path):
    rng = np.random.default_rng(515)
    model = random_model(rng, 6, 2, (1, 3))
    io.save_model(model, tmp_path / "m.jplda")
    loaded = io.load_model(tmp_path / "m.jplda")
    model_ok = (
        loaded.mu.tobytes() == model.mu.tobytes()
        and loaded.V.tobytes() == model.V.tobytes()
        and all(a.tobytes() == b.tobytes() for a, b in zip(loaded.U, model.U))
        and loaded.D.tobytes() == model.D.tobytes()
    )

    trials = [(f"e{i}", f"t{i}") for i in range(1000)]
    scores = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, size=1000)
    io.save_scores(tmp_path / "s.tsv", trials, scores)
    back = np.array([s for _, _, s in io.load_scores(tmp_path / "s.tsv")])
    scores_ok = back.tobytes() == scores.tobytes()

    ok = model_ok and scores_ok
    verdict(
        capsys,
        "8 round trips",
        ok,
        f"model bitwise: {model_ok}, 17-digit scores bitwise: {scores_ok}",
    )
