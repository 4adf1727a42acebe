import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_embeddings_text_matches_per_value_format(rng, tmp_path):
    path = tmp_path / "emb.tsv"
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
    table = {"special": np.array(special), "empty": np.zeros(0)}
    table.update({f"r{i}": rng.standard_normal(7) * 10.0 ** rng.integers(-300, 300, 7)
                  for i in range(20)})
    io.save_embeddings(path, table)
    expected = "".join(
        "\t".join([name] + ["{:.17g}".format(x) for x in np.asarray(vec)]) + "\n"
        for name, vec in table.items()
    )
    assert path.read_text(encoding="utf-8") == expected


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


# block parse against the row reader ---------------------------------------

# values that float() and numpy's parser may read differently, or reject
ODD_VALUES = [
    "1_0", "\uff11", " 1.5", "1.5 ", "1.5\x1c", "\x1f2", "nan", "-nan", "-0", "inf",
    "1e400", "4.9e-324", "1.7976931348623159e308", "", " ", "\x0b", "blue", "0x10",
]
# str.isspace() characters: float() strips all but "\x1c"-"\x1f", numpy all
SPACES = " \x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
# ids may hold characters that str.splitlines, but not a text file, breaks on
ID_CHARS = "ab \x0b\x0c\x1c\x85\u2028"
FLOAT17 = st.floats().map("{:.17g}".format)


@st.composite
def embedding_tables(draw):
    """Table text of 17-digit rows, some with one oddity each: an extra or
    odd value, a trailing tab, a padded value or a blank line after it."""
    width = draw(st.integers(0, 3))
    names = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=3), max_size=10, unique=True))
    if names and draw(st.integers(0, 3)) == 0:
        # an empty or a repeated id
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from([*names, ""])))
    lines = []
    for name in names:
        fields = [name, *draw(st.lists(FLOAT17, min_size=width, max_size=width))]
        oddity = draw(st.integers(0, 9))
        if oddity == 1:
            fields.append(draw(FLOAT17))
        elif oddity == 2 and width:
            fields[draw(st.integers(1, width))] = draw(st.sampled_from(ODD_VALUES))
        elif oddity == 3:
            fields.append("")
        elif oddity == 5 and width:
            pad = draw(st.sampled_from(SPACES))
            fields[-1] = draw(st.sampled_from([pad + fields[-1], fields[-1] + pad]))
        lines.append("\t".join(fields))
        if oddity == 4:
            lines.append("")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(load, path):
    """Ids with each vector's dtype, shape and bytes, or the error's type and text."""
    try:
        table = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [(name, vec.dtype, vec.shape, vec.tobytes()) for name, vec in table.items()]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(embedding_tables(), st.sampled_from([1, 2, 3, io._BLOCK_ROWS]))
def test_block_parse_matches_row_reader(text, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.tsv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        with mock.patch.object(io, "_BLOCK_ROWS", block_rows):
            got = _outcome(io.load_embeddings, path)
        assert got == _outcome(io._embeddings_by_row, path)


def _table_lines(n_rows, width):
    return [f"id{i}\t" + "\t".join([f"{i}.25"] * width) for i in range(n_rows)]


def test_block_parse_covers_several_blocks(rng, tmp_path):
    path = tmp_path / "emb.tsv"
    # every bit pattern: subnormals, infinities, NaNs, 17-digit values
    bits = rng.integers(0, 2**64, size=(2 * io._BLOCK_ROWS + 5, 3), dtype=np.uint64)
    table = {f"id{i}": row for i, row in enumerate(bits.view(np.float64))}
    io.save_embeddings(path, table)
    by_block = io._embeddings_by_block(path)
    assert by_block is not None
    assert _outcome(lambda p: by_block, path) == _outcome(io._embeddings_by_row, path)


def test_block_parse_names_bad_float_after_first_block(tmp_path):
    path = tmp_path / "emb.tsv"
    lines = _table_lines(io._BLOCK_ROWS + 40, 2)
    lines[5] = ""
    lines[io._BLOCK_ROWS + 20] = "x\t1.0\tblue"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFile, match=f"emb.tsv:{io._BLOCK_ROWS + 21}: bad float"):
        io.load_embeddings(path)


def test_block_parse_names_width_change_between_blocks(tmp_path):
    # each block is rectangular on its own, so numpy accepts both
    path = tmp_path / "emb.tsv"
    n = io._BLOCK_ROWS
    lines = _table_lines(n, 2) + [f"late{i}\t1\t2\t3" for i in range(10)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFile, match=f"emb.tsv:{n + 1}: row has 3 values, expected 2"):
        io.load_embeddings(path)


def test_values_only_one_parser_reads(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t1_0\t2\n", encoding="utf-8")
    assert io.load_embeddings(path)["a"].tolist() == [10.0, 2.0]
    path.write_text("a\t1.5\x1c\t2\n", encoding="utf-8")
    with pytest.raises(MalformedFile, match="emb.tsv:1: bad float"):
        io.load_embeddings(path)


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_empty_embedding_table_is_empty_without_warning(tmp_path, text):
    path = tmp_path / "emb.tsv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert io.load_embeddings(path) == {}


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


@pytest.mark.parametrize("line", ["\tt2\n", "e2\t\n", "e2\t\ttarget\n", "\tt2\tnontarget\n"])
def test_trials_reject_empty_id(tmp_path, line):
    path = tmp_path / "trials.tsv"
    path.write_text("e1\tt1\n" + line)
    with pytest.raises(MalformedFile, match=r"trials\.tsv:2: empty id$"):
        io.load_trials(path)


def test_priors_round_trip(tmp_path):
    path = tmp_path / "priors.cfg"
    priors = PriorConfig((0.25, 1.0), (0.7, 0.0))
    io.save_priors(path, priors)
    assert path.read_text(encoding="utf-8") == (
        "condition.1.p_same_given_ss = 0.25\n"
        "condition.1.p_same_given_ds = 0.69999999999999996\n"
        "condition.2.p_same_given_ss = 1\n"
        "condition.2.p_same_given_ds = 0\n"
    )
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


@pytest.mark.parametrize("line", ["\tt2\t2.0\n", "e2\t\t2.0\n"])
def test_scores_reject_empty_id(tmp_path, line):
    path = tmp_path / "scores.tsv"
    path.write_text("e1\tt1\t1.0\n" + line)
    with pytest.raises(MalformedFile, match=r"scores\.tsv:2: empty id$"):
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
