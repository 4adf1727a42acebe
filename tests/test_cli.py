import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jplda import PriorConfig, io, make_benchmark, scoring
from jplda.cli import main

from conftest import random_model, random_priors


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


def test_score_loads_no_scipy_linalg(pipeline):
    # numpy alone builds a session, scores, checks D at every d, on both
    # sides of the d = 256 split of the check, and collapses a model:
    # scipy.linalg (about 28 MB of RSS and a second BLAS) loads only for
    # synth's noise draws. numpy.random (with secrets, hashlib and
    # OpenSSL) loads only when something is drawn.
    argv = ["score", "--model", str(pipeline["model"]), "--enroll", str(pipeline["emb"]),
            "--test", str(pipeline["emb"]), "--trials", str(pipeline["trials"]),
            "--priors", str(pipeline["priors"]), "--out", str(pipeline["scores"])]
    script = f"""
import sys
import numpy as np
import jplda
for name in ("scipy.linalg", "numpy.random"):
    assert name not in sys.modules, f"{{name}} after import jplda"
from jplda import cli
assert cli.main({argv!r}) == 0
for name in ("scipy.linalg", "numpy.random"):
    assert name not in sys.modules, f"{{name}} after jplda score"
for d in (257, 512):
    jplda.ModelParams(mu=np.zeros(d), V=np.zeros((d, 1)), U=(), D=np.eye(d))
    assert "scipy.linalg" not in sys.modules, f"the check of a d = {{d}} model"
model = jplda.io.load_model({str(pipeline["model"])!r})
assert jplda.collapse_to_plda(model).n_conditions == 0 < model.n_conditions
assert "scipy.linalg" not in sys.modules, "collapse_to_plda"
jplda.synth.sample_dataset(model, 2, (2, 2), 1, seed=0)
assert "numpy.random" in sys.modules, "synth.sample_dataset"
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(io.load_scores(pipeline["scores"])) == 40


def test_score_then_eval(pipeline, capsys):
    assert run_score(pipeline) == 0
    scores = io.load_scores(pipeline["scores"])
    assert len(scores) == 40
    assert main(["eval", "--scores", str(pipeline["scores"]), "--key", str(pipeline["key"])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("EER ") and "\nCAL " in out


def test_score_priors_for_more_conditions_than_model(pipeline, capsys):
    io.save_priors(pipeline["priors"], PriorConfig((0.8, 0.6, 0.5), (0.2, 0.4, 0.5)))
    assert run_score(pipeline) == 1
    assert "priors cover 3 conditions, model has 2" in capsys.readouterr().err
    assert not pipeline["scores"].exists()


def test_score_empty_trials(pipeline, tmp_path):
    empty = tmp_path / "none.tsv"
    empty.write_text("")
    pipeline = dict(pipeline, trials=empty)
    assert run_score(pipeline) == 0
    assert io.load_scores(pipeline["scores"]) == []


def test_score_to_a_missing_directory_exits_1_and_creates_nothing(pipeline, tmp_path, capsys):
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "missing" / "scores.tsv"
    assert run_score(dict(pipeline, scores=out)) == 1
    assert f"No such file or directory: '{out}'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_score_twice_to_one_out_leaves_one_file(pipeline, tmp_path):
    out = tmp_path / "out" / "scores.tsv"
    out.parent.mkdir()
    assert run_score(dict(pipeline, scores=out)) == 0
    first = out.read_bytes()
    assert run_score(dict(pipeline, scores=out)) == 0
    assert os.listdir(out.parent) == ["scores.tsv"]
    assert out.read_bytes() == first


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

    def counting(path, **kwargs):
        loaded.append(path)
        return real(path, **kwargs)

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


@pytest.mark.filterwarnings("error")
def test_score_overflowing_embedding_exits_1(pipeline, tmp_path, capsys):
    emb = io.load_embeddings(pipeline["emb"])
    eid, tid, _ = io.load_trials(pipeline["trials"])[0]
    emb[eid] = np.full_like(emb[eid], 1e200)
    io.save_embeddings(tmp_path / "huge.tsv", emb)
    assert run_score(dict(pipeline, emb=tmp_path / "huge.tsv")) == 1
    err = capsys.readouterr().err
    assert f"({eid!r}, {tid!r}) is NaN" in err


def test_score_wrong_width_table_names_enroll_id(pipeline, tmp_path, capsys):
    emb = {k: np.append(v, 0.0) for k, v in io.load_embeddings(pipeline["emb"]).items()}
    io.save_embeddings(tmp_path / "wide.tsv", emb)
    eid = io.load_trials(pipeline["trials"])[0][0]
    assert run_score(dict(pipeline, emb=tmp_path / "wide.tsv")) == 1
    assert f"enroll id {eid!r}" in capsys.readouterr().err


def test_score_trial_with_empty_id_exits_1(pipeline, tmp_path, capsys):
    eid = io.load_trials(pipeline["trials"])[0][0]
    (tmp_path / "empty.tsv").write_text(f"{eid}\t\ttarget\n")
    assert run_score(dict(pipeline, trials=tmp_path / "empty.tsv")) == 1
    assert "empty.tsv:1: empty id" in capsys.readouterr().err


# Tiny copies of the benchmark's workload shapes: (d, R_y, R_x, full noise
# precision, separate enroll and test tables).
SHAPES = {
    "file-10k": (16, 4, (2, 2), False, False),
    "matrix-N4": (16, 4, (2, 2, 2, 2), False, True),
    "setup-N6-fullD": (24, 4, (1,) * 6, True, False),
}


@pytest.fixture(params=[None, 0], ids=["rows-kept", "rows-not-kept"])
def shaped(request, rng, tmp_path, monkeypatch):
    """Model, priors, tables and trials of each workload shape, written
    to disk. Tables are parsed in blocks of 3 rows and trials scored one
    per block; under a row cache bound of 0, ids are whitened block by
    block."""
    def make(shape):
        d, r_y, r_x, full_d, separate = SHAPES[shape]
        model = random_model(rng, d, r_y, r_x, diagonal_noise=not full_d)
        priors = random_priors(rng, len(r_x))
        draw = lambda prefix, n: {f"{prefix}{i}": model.mu + 3.0 * rng.standard_normal(d)
                                  for i in range(n)}
        if separate:
            enroll, test = draw("e", 5), draw("t", 5)
            trials = [(e, t) for e in enroll for t in test]
        else:
            enroll = test = draw("x", 11)
            ids = list(enroll)
            trials = [(ids[i], ids[j]) for i, j in rng.integers(len(ids), size=(14, 2)).tolist()]
        paths = {name: tmp_path / f"{shape}.{name}" for name in
                 ("model", "priors", "enroll", "test", "trials", "scores")}
        io.save_model(model, paths["model"])
        io.save_priors(paths["priors"], priors)
        io.save_embeddings(paths["enroll"], enroll)
        if separate:
            io.save_embeddings(paths["test"], test)
        else:
            paths["test"] = paths["enroll"]
        io.save_trials(paths["trials"], trials)
        session = scoring.precompute_session(model, priors)
        return session, enroll, test, trials, paths

    monkeypatch.setattr(io, "_BLOCK_ROWS", 3)
    if request.param is not None:
        monkeypatch.setattr(scoring, "ROW_CACHE_BYTES", request.param)
    monkeypatch.setattr(scoring, "BLOCK_BYTES", 1)  # one trial per block
    return make


def cli_score(paths):
    return main([
        "score",
        "--model", str(paths["model"]),
        "--enroll", str(paths["enroll"]),
        "--test", str(paths["test"]),
        "--trials", str(paths["trials"]),
        "--priors", str(paths["priors"]),
        "--out", str(paths["scores"]),
    ])


def both_paths(session, paths, trials):
    """score_trials on the tables read as raw mappings and as projected
    tables: the scores' bytes, or the error's type and message."""
    out = []
    for into in (lambda: None, lambda: scoring.ProjectedTable(session)):
        enroll = io.load_embeddings(paths["enroll"], into=into())
        test = io.load_embeddings(paths["test"], into=into())
        try:
            out.append(scoring.score_trials(session, enroll, test, trials).tobytes())
        except Exception as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("row_reader", [False, True], ids=["blocks", "row-reader"])
def test_projected_score_writes_the_bytes_of_raw_tables(shaped, shape, row_reader, tmp_path):
    # with row_reader, the enroll table's last value reads as 1_0 does:
    # numpy rejects the last block after the earlier blocks were
    # projected, and only that block goes to the row parser
    session, enroll, test, trials, paths = shaped(shape)
    if row_reader:
        lines = paths["enroll"].read_text().splitlines()
        lines[-1] = re.sub(r"(\d)(\d)$", r"\1_\2", lines[-1])
        paths["enroll"].write_text("\n".join(lines) + "\n")
    assert cli_score(paths) == 0
    raw = tmp_path / "raw.tsv"
    io.save_scores(raw, trials, scoring.score_trials(session, enroll, test, trials))
    assert paths["scores"].read_bytes() == raw.read_bytes()
    raw, projected = both_paths(session, paths, trials)
    assert raw == projected


def first_bad(trials, bad):
    """How errors name the first id in trial order, enroll id first, for
    which ``bad(side, id)`` holds."""
    for e, t in trials:
        for side, name in (("enroll", e), ("test", t)):
            if bad(side, name):
                return f"{side} id {name!r}"


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fault", ["unknown", "wide", "nan", "1e200"])
def test_projected_tables_raise_the_errors_of_raw_tables(shaped, shape, fault, capsys):
    # two faults in different trials and on different sides; the
    # error names the one used first
    session, enroll, test, trials, paths = shaped(shape)
    shared = enroll is test  # then a bad row is bad on both sides
    (_, t_first), (e_later, _) = trials[1], trials[-1]
    if fault == "unknown":
        trials[1], trials[-1] = (trials[1][0], "nobody"), ("ghost", trials[-1][1])
        io.save_trials(paths["trials"], trials)
        what = first_bad(trials, lambda side, name: name in ("nobody", "ghost"))
        expected = f"unknown {what}"
    elif fault == "wide":
        io.save_embeddings(paths["test"], {k: np.append(v, 0.0) for k, v in test.items()})
        trials[-1] = ("ghost", trials[-1][1])
        io.save_trials(paths["trials"], trials)
        what = first_bad(trials, lambda side, name: side == "test" or shared)
        expected = f"{what} has shape"
    else:
        test[t_first] = np.full_like(test[t_first], np.nan if fault == "nan" else 1e200)
        enroll[e_later] = np.full_like(enroll[e_later], test[t_first][0])
        io.save_embeddings(paths["test"], test)
        io.save_embeddings(paths["enroll"], enroll)
        bad = {("test", t_first), ("enroll", e_later)}
        what = first_bad(trials, lambda side, name: (side, name) in bad
                         or shared and name in (t_first, e_later))
        expected = f"{what} contains non-finite values" if fault == "nan" else "is NaN"
    raw, projected = both_paths(session, paths, trials)
    assert raw == projected and isinstance(raw, tuple)
    kind, message = raw
    assert expected in message, message
    assert kind.__name__ == {"unknown": "UnknownId", "wide": "DimensionMismatch"}.get(
        fault, "NonFinite")
    assert cli_score(paths) == 1
    assert capsys.readouterr().err == f"jplda score: {message}\n"


@pytest.mark.parametrize("shape", SHAPES)
def test_projected_table_ignores_a_nan_row_no_trial_uses(shaped, shape):
    session, enroll, test, trials, paths = shaped(shape)
    used = {t for _, t in trials}
    test["unused"] = np.full_like(next(iter(test.values())), np.nan)
    io.save_embeddings(paths["test"], test)
    assert "unused" not in used
    raw, projected = both_paths(session, paths, trials)
    assert isinstance(raw, bytes) and raw == projected
    assert cli_score(paths) == 0


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


CLI_INPUT_ERRORS = {
    "bad-conditions": (
        ["synth", "--model", "{model}", "--speakers", "2", "--conditions", "2,x",
         "--per-speaker", "2", "--seed", "1", "--out-prefix", "{scores}"],
        "jplda synth: bad --conditions value: invalid literal for int() with base 10: 'x'",
    ),
    "unlabeled-key": (
        ["eval", "--scores", "{scores}", "--key", "{trials}"],
        "jplda eval: {trials}: every key row needs a target/nontarget label",
    ),
    "no-trials": (
        ["check", "--model", "{model}", "--trials-count", "0", "--seed", "0"],
        "jplda check: --trials-count must be >= 1",
    ),
}


@pytest.mark.parametrize("case", CLI_INPUT_ERRORS)
def test_input_errors_exit_1_with_their_message(pipeline, capsys, case):
    argv, message = CLI_INPUT_ERRORS[case]
    assert main([arg.format(**pipeline) for arg in argv]) == 1
    assert capsys.readouterr().err == message.format(**pipeline) + "\n"


@pytest.mark.parametrize("r_y, r_x", [(0, ()), (1, ()), (1, (1, 1))],
                         ids=["R_z=0", "R_z=1", "R_z=3"])
def test_score_zero_dimensional_model(rng, tmp_path, r_y, r_x):
    # d = 0: every embedding is an id with no values
    model = random_model(rng, 0, r_y, r_x)
    priors = random_priors(rng, len(r_x))
    table = {name: np.zeros(0) for name in ("a", "b", "c")}
    trials = [("a", "b"), ("c", "a"), ("b", "b")]
    paths = {name: tmp_path / name for name in
             ("model", "priors", "enroll", "test", "trials", "scores")}
    io.save_model(model, paths["model"])
    io.save_priors(paths["priors"], priors)
    io.save_embeddings(paths["enroll"], table)
    io.save_embeddings(paths["test"], table)
    io.save_trials(paths["trials"], trials)
    assert cli_score(paths) == 0
    session = scoring.precompute_session(model, priors)
    io.save_scores(tmp_path / "raw.tsv", trials, scoring.score_trials(session, table, table, trials))
    assert paths["scores"].read_bytes() == (tmp_path / "raw.tsv").read_bytes()


def test_usage_error_exits_1(capsys):
    assert main(["score", "--model", "only"]) == 1
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_missing_file_exits_1(tmp_path, capsys):
    assert (
        main(["check", "--model", str(tmp_path / "nope.jplda"), "--trials-count", "2", "--seed", "0"])
        == 1
    )
