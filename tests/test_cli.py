import numpy as np
import pytest

from jplda import PriorConfig, io, make_benchmark
from jplda.cli import main

from conftest import random_model


@pytest.fixture
def pipeline(rng, tmp_path):
    """Model, priors, and a small labeled benchmark written to disk."""
    model = random_model(rng, 4, 2, (1, 2), diagonal_noise=True)
    priors = PriorConfig((0.8, 0.6), (0.2, 0.4))
    emb, trials, key = make_benchmark(model, priors, n_target=20, n_nontarget=20, seed=4)
    paths = {
        "model": tmp_path / "model.jplda",
        "emb": tmp_path / "emb.tsv",
        "trials": tmp_path / "trials.tsv",
        "key": tmp_path / "key.tsv",
        "priors": tmp_path / "priors.cfg",
        "scores": tmp_path / "scores.tsv",
    }
    io.save_model(model, paths["model"])
    io.save_embeddings(paths["emb"], emb)
    io.save_trials(paths["trials"], trials)
    io.save_trials(paths["key"], trials, labels=key)
    io.save_priors(paths["priors"], priors)
    return paths


def run_score(paths, extra=()):
    return main(
        [
            "score",
            "--model", str(paths["model"]),
            "--enroll", str(paths["emb"]),
            "--test", str(paths["emb"]),
            "--trials", str(paths["trials"]),
            "--priors", str(paths["priors"]),
            "--out", str(paths["scores"]),
            *extra,
        ]
    )


def test_score_then_eval(pipeline, capsys):
    assert run_score(pipeline) == 0
    scores = io.load_scores(pipeline["scores"])
    assert len(scores) == 40
    assert main(["eval", "--scores", str(pipeline["scores"]), "--key", str(pipeline["key"])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("EER ") and "\nCAL " in out


def test_score_empty_trials(pipeline, tmp_path):
    empty = tmp_path / "none.tsv"
    empty.write_text("")
    pipeline = dict(pipeline, trials=empty)
    assert run_score(pipeline) == 0
    assert io.load_scores(pipeline["scores"]) == []


def test_score_unknown_id(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad_trials.tsv"
    bad.write_text("whoami\tt000000\n")
    pipeline = dict(pipeline, trials=bad)
    assert run_score(pipeline) == 1
    assert "whoami" in capsys.readouterr().err


def test_score_trial_order_byte_identical(pipeline, tmp_path):
    assert run_score(pipeline) == 0
    forward = pipeline["scores"].read_bytes().splitlines(keepends=True)
    reversed_trials = tmp_path / "reversed.tsv"
    reversed_trials.write_bytes(
        b"".join(pipeline["trials"].read_bytes().splitlines(keepends=True)[::-1])
    )
    pipeline = dict(pipeline, trials=reversed_trials, scores=tmp_path / "backward.tsv")
    assert run_score(pipeline) == 0
    backward = pipeline["scores"].read_bytes().splitlines(keepends=True)
    assert backward[::-1] == forward


def test_score_parses_a_shared_table_once(pipeline, tmp_path, monkeypatch):
    import jplda.cli as cli

    loaded = []
    real = cli.io.load_embeddings

    def counting(path):
        loaded.append(path)
        return real(path)

    monkeypatch.setattr(cli.io, "load_embeddings", counting)
    assert run_score(pipeline) == 0
    assert len(loaded) == 1

    copy = tmp_path / "copy.tsv"
    copy.write_bytes(pipeline["emb"].read_bytes())
    loaded.clear()
    assert main([
        "score",
        "--model", str(pipeline["model"]),
        "--enroll", str(pipeline["emb"]),
        "--test", str(copy),
        "--trials", str(pipeline["trials"]),
        "--priors", str(pipeline["priors"]),
        "--out", str(pipeline["scores"]),
    ]) == 0
    assert len(loaded) == 2


def test_score_nan_embedding_exits_1(pipeline, tmp_path, capsys):
    emb = io.load_embeddings(pipeline["emb"])
    first = io.load_trials(pipeline["trials"])[0][0]
    emb[first] = np.full_like(emb[first], np.nan)
    io.save_embeddings(tmp_path / "nan.tsv", emb)
    assert run_score(dict(pipeline, emb=tmp_path / "nan.tsv")) == 1
    assert "non-finite" in capsys.readouterr().err


def test_score_exit_2_when_branch_excluded(pipeline, monkeypatch):
    import jplda.cli as cli
    from jplda.errors import AllHypothesesExcluded

    def boom(*args, **kwargs):
        raise AllHypothesesExcluded("branch empty")

    monkeypatch.setattr(cli.scoring, "score_trials", boom)
    assert run_score(pipeline) == 2


def test_synth_deterministic_and_reloadable(pipeline, tmp_path, capsys):
    args = [
        "synth",
        "--model", str(pipeline["model"]),
        "--speakers", "3",
        "--conditions", "2,3",
        "--per-speaker", "2",
        "--seed", "17",
        "--out-prefix", str(tmp_path / "a"),
    ]
    assert main(args) == 0
    capsys.readouterr()
    args[-1] = str(tmp_path / "b")
    assert main(args) == 0
    capsys.readouterr()
    a = (tmp_path / "a.emb.tsv").read_bytes()
    b = (tmp_path / "b.emb.tsv").read_bytes()
    assert a == b
    emb = io.load_embeddings(tmp_path / "a.emb.tsv")
    assert len(emb) == 6
    assert next(iter(emb.values())).shape == (4,)


def test_synth_rejects_zero_speakers(pipeline, tmp_path, capsys):
    code = main(
        [
            "synth",
            "--model", str(pipeline["model"]),
            "--speakers", "0",
            "--conditions", "2,3",
            "--per-speaker", "2",
            "--seed", "1",
            "--out-prefix", str(tmp_path / "z"),
        ]
    )
    assert code == 1
    assert "speaker" in capsys.readouterr().err


def test_eval_perfect_separation(tmp_path, capsys):
    trials = [("e1", "t1"), ("e2", "t2"), ("e3", "t3"), ("e4", "t4")]
    io.save_trials(tmp_path / "key.tsv", trials, labels=[True, True, False, False])
    io.save_scores(tmp_path / "scores.tsv", trials, [4.0, 3.0, -5.0, -6.0])
    assert main(["eval", "--scores", str(tmp_path / "scores.tsv"), "--key", str(tmp_path / "key.tsv")]) == 0
    assert "EER 0.0000" in capsys.readouterr().out


def test_eval_corrupted_scores(pipeline, tmp_path, capsys):
    bad = tmp_path / "corrupt.tsv"
    bad.write_text("e000000\tt000000\tnot_a_number\n")
    assert main(["eval", "--scores", str(bad), "--key", str(pipeline["key"])]) == 1


def test_eval_missing_trial_score(pipeline, tmp_path):
    io.save_scores(tmp_path / "partial.tsv", [("e000000", "t000000")], [1.0])
    assert main(["eval", "--scores", str(tmp_path / "partial.tsv"), "--key", str(pipeline["key"])]) == 1


def test_check_small_model_agrees(pipeline, capsys):
    code = main(
        ["check", "--model", str(pipeline["model"]), "--trials-count", "25", "--seed", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "max_abs_deviation" in out and "OK" in out


def test_usage_error_exits_1(capsys):
    assert main(["score", "--model", "only"]) == 1
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_missing_file_exits_1(tmp_path, capsys):
    assert (
        main(["check", "--model", str(tmp_path / "nope.jplda"), "--trials-count", "2", "--seed", "0"])
        == 1
    )
