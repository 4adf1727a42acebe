import re

import numpy as np
import pytest

from jplda import (
    BadMagic,
    MalformedFile,
    PriorConfig,
    TruncatedPayload,
    ValidationFailed,
    VersionUnsupported,
)
from jplda import io

from conftest import random_model


def test_model_round_trip_bitwise(rng, tmp_path):
    path = tmp_path / "m.jplda"
    for r_y, r_x in ((2, (1, 3)), (0, (2,)), (3, ())):
        model = random_model(rng, 4, r_y, r_x)
        io.save_model(model, path)
        loaded = io.load_model(path)
        assert loaded.mu.tobytes() == model.mu.tobytes()
        assert loaded.V.tobytes() == model.V.tobytes()
        assert loaded.D.tobytes() == model.D.tobytes()
        assert len(loaded.U) == len(model.U)
        for a, b in zip(loaded.U, model.U):
            assert a.tobytes() == b.tobytes()


def test_model_bad_magic(rng, tmp_path):
    path = tmp_path / "m.jplda"
    io.save_model(random_model(rng, 2, 1, ()), path)
    blob = bytearray(path.read_bytes())
    blob[0:1] = b"X"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        io.load_model(path)


def test_model_unsupported_version(rng, tmp_path):
    path = tmp_path / "m.jplda"
    io.save_model(random_model(rng, 2, 1, ()), path)
    blob = bytearray(path.read_bytes())
    blob[6] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionUnsupported):
        io.load_model(path)


def test_model_truncated_payload(rng, tmp_path):
    path = tmp_path / "m.jplda"
    io.save_model(random_model(rng, 4, 2, (1,)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(TruncatedPayload):
        io.load_model(path)
    path.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(TruncatedPayload):
        io.load_model(path)


def test_model_payload_fails_validation(tmp_path):
    from jplda import ModelParams
    from jplda.io import save_model

    path = tmp_path / "m.jplda"
    good = ModelParams(mu=np.zeros(2), V=np.zeros((2, 1)), U=(), D=np.eye(2))
    save_model(good, path)
    blob = bytearray(path.read_bytes())
    # overwrite the last float of D with a negative diagonal entry
    blob[-8:] = np.float64(-1.0).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValidationFailed):
        io.load_model(path)


def test_embeddings_round_trip(rng, tmp_path):
    path = tmp_path / "emb.tsv"
    table = {f"id{i}": rng.standard_normal(5) for i in range(4)}
    table["tricky"] = np.array([0.1, 1.0 / 3.0, 1e-300, 1e300, -0.0])
    io.save_embeddings(path, table)
    loaded = io.load_embeddings(path)
    assert list(loaded) == list(table)
    for name in table:
        assert loaded[name].tobytes() == np.asarray(table[name]).tobytes()


def test_embeddings_reject_duplicates(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t1.0\na\t2.0\n")
    with pytest.raises(MalformedFile, match="duplicate"):
        io.load_embeddings(path)


def test_embeddings_reject_ragged_rows(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t1.0\t2.0\nb\t1.0\n")
    with pytest.raises(MalformedFile):
        io.load_embeddings(path)


def test_embeddings_reject_bad_float(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\tblue\n")
    with pytest.raises(MalformedFile):
        io.load_embeddings(path)


def test_trials_round_trip(tmp_path):
    path = tmp_path / "trials.tsv"
    trials = [("e1", "t1"), ("e2", "t2")]
    io.save_trials(path, trials)
    assert io.load_trials(path) == [("e1", "t1", None), ("e2", "t2", None)]
    io.save_trials(path, trials, labels=[True, False])
    assert io.load_trials(path) == [("e1", "t1", True), ("e2", "t2", False)]


def test_trials_reject_bad_label(tmp_path):
    path = tmp_path / "trials.tsv"
    path.write_text("e\tt\tmaybe\n")
    with pytest.raises(MalformedFile):
        io.load_trials(path)


def test_priors_round_trip(tmp_path):
    path = tmp_path / "priors.cfg"
    priors = PriorConfig((0.25, 1.0), (0.7, 0.0))
    io.save_priors(path, priors)
    assert io.load_priors(path) == priors


def test_priors_empty_file_is_no_conditions(tmp_path):
    path = tmp_path / "priors.cfg"
    path.write_text("# nothing here\n\n")
    assert io.load_priors(path) == PriorConfig((), ())


def test_priors_reject_gaps_and_ranges(tmp_path):
    path = tmp_path / "priors.cfg"
    path.write_text(
        "condition.2.p_same_given_ss = 0.5\ncondition.2.p_same_given_ds = 0.5\n"
    )
    with pytest.raises(MalformedFile):
        io.load_priors(path)
    path.write_text(
        "condition.1.p_same_given_ss = 1.5\ncondition.1.p_same_given_ds = 0.5\n"
    )
    with pytest.raises(MalformedFile):
        io.load_priors(path)


def test_scores_round_trip_exact(rng, tmp_path):
    path = tmp_path / "scores.tsv"
    trials = [(f"e{i}", f"t{i}") for i in range(64)]
    scores = np.concatenate(
        [rng.standard_normal(60) * 10.0 ** rng.integers(-30, 30, size=60), [0.1, -0.0, 1e308, 5e-324]]
    )
    io.save_scores(path, trials, scores)
    loaded = io.load_scores(path)
    assert [(e, t) for e, t, _ in loaded] == trials
    got = np.array([s for _, _, s in loaded])
    assert got.tobytes() == scores.tobytes()


def test_scores_reject_malformed(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("e\tt\n")
    with pytest.raises(MalformedFile):
        io.load_scores(path)
    path.write_text("e\tt\tabc\n")
    with pytest.raises(MalformedFile):
        io.load_scores(path)


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (io.load_embeddings, "a\t1.0\n\nb\tx\n", "bad float"),
        (io.load_trials, "e\tt\n\ne\n", "expected 2 or 3 tab-separated fields"),
        (io.load_scores, "e\tt\t1.0\n\ne\tt\n", "expected 3 tab-separated fields"),
    ],
    ids=["embeddings", "trials", "scores"],
)
def test_tables_count_blank_lines(tmp_path, loader, text, message):
    path = tmp_path / "table.tsv"
    path.write_text(text)
    with pytest.raises(MalformedFile, match=f"table.tsv:3: {message}"):
        loader(path)


@pytest.mark.parametrize("bad", ["", "x\ty", "x\ny", "x\ry"], ids=["empty", "tab", "lf", "cr"])
@pytest.mark.parametrize(
    "write",
    [
        lambda path, bad: io.save_embeddings(path, {"a": np.zeros(2), bad: np.ones(2)}),
        lambda path, bad: io.save_trials(path, [("a", "b"), ("a", bad)]),
        lambda path, bad: io.save_scores(path, [("a", "b"), (bad, "b")], [0.0, 1.0]),
    ],
    ids=["embeddings", "trials", "scores"],
)
def test_writers_reject_ids_the_loaders_misread(tmp_path, write, bad):
    path = tmp_path / "table.tsv"
    with pytest.raises(MalformedFile, match=re.escape(f"id {bad!r} is empty or holds")):
        write(path, bad)
    assert not path.exists()


def test_dataset_files_reload_consistently(rng, tmp_path):
    from jplda import sample_dataset

    model = random_model(rng, 3, 1, (2,))
    data = sample_dataset(model, 2, (2,), 3, seed=12)
    paths = io.save_dataset(tmp_path / "synth", data)
    emb = io.load_embeddings(paths["embeddings"])
    assert list(emb) == list(data.ids)
    got = np.stack([emb[i] for i in data.ids])
    assert got.tobytes() == data.embeddings.tobytes()
    spk_lines = (tmp_path / "synth.spk.tsv").read_text().strip().split("\n")
    assert len(spk_lines) == 6
    cond_lines = (tmp_path / "synth.cond.tsv").read_text().strip().split("\n")
    assert cond_lines[0].count("\t") == 1
