import os
import re
import struct
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jplda import (
    BadMagic,
    MalformedFile,
    ModelParams,
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


def test_model_header_arithmetic_does_not_wrap(tmp_path):
    # d^2 for d = 2^32 - 1 is past the int64 range
    d = 2**32 - 1
    path = tmp_path / "m.jplda"
    path.write_bytes(io.MAGIC + struct.pack("<4I", io.FORMAT_VERSION, d, 0, 0))
    message = f"{path}: payload is 0 bytes, header implies {8 * (d + d * d)}"
    with pytest.raises(TruncatedPayload, match=f"^{re.escape(message)}$"):
        io.load_model(path)


@pytest.mark.parametrize("header", [
    struct.pack("<3I", io.FORMAT_VERSION, 2, 1),
    struct.pack("<5I", io.FORMAT_VERSION, 2, 1, 2, 1),
], ids=["fixed-fields", "condition-ranks"])
def test_model_header_cut_short(tmp_path, header):
    path = tmp_path / "m.jplda"
    path.write_bytes(io.MAGIC + header)
    with pytest.raises(TruncatedPayload, match=f"^{re.escape(str(path))}: header cut short$"):
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


def _by_row(path):
    """The whole-file ``float()`` reference: the row parser over every
    non-blank line, as one block."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [(n, line.rstrip("\n")) for n, line in enumerate(f, start=1)]
    block = [(n, line.partition("\t")) for n, line in lines if line]
    names, values = io._block_by_row(path, block, {}, None)
    return dict(zip(names, values))


class _Blocks(dict):
    """A table for ``load_embeddings(into=...)``: the rows of the blocks
    it was given, which must not exceed ``_BLOCK_ROWS``, and the ids of
    each block in ``blocks``."""

    def __init__(self):
        super().__init__()
        self.blocks = []

    def add(self, names, values):
        assert len(names) == len(values) <= io._BLOCK_ROWS
        self.blocks.append(list(names))
        self.update(zip(names, values))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(embedding_tables(), st.sampled_from([1, 2, 3, io._BLOCK_ROWS]))
def test_block_parse_matches_row_reader(text, block_rows):
    # also when the blocks go to a table given as ``into``
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.tsv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        with mock.patch.object(io, "_BLOCK_ROWS", block_rows):
            got = _outcome(io.load_embeddings, path)
            into = _outcome(lambda p: io.load_embeddings(p, into=_Blocks()), path)
        assert got == into == _outcome(_by_row, path)


def _table_lines(n_rows, width):
    return [f"id{i}\t" + "\t".join([f"{i}.25"] * width) for i in range(n_rows)]


def test_block_parse_covers_several_blocks(rng, tmp_path):
    path = tmp_path / "emb.tsv"
    # every bit pattern: subnormals, infinities, NaNs, 17-digit values
    bits = rng.integers(0, 2**64, size=(2 * io._BLOCK_ROWS + 5, 3), dtype=np.uint64)
    table = {f"id{i}": row for i, row in enumerate(bits.view(np.float64))}
    io.save_embeddings(path, table)
    with mock.patch.object(io, "_block_by_row", wraps=io._block_by_row) as by_row:
        by_block = io.load_embeddings(path)
    assert by_row.call_count == 0
    assert _outcome(lambda p: by_block, path) == _outcome(_by_row, path)


def test_declined_block_alone_goes_to_the_row_parser(tmp_path):
    # numpy declines the last block (1_0): the earlier blocks reach the
    # table once each, nothing is parsed again, and the file is opened once
    path = tmp_path / "emb.tsv"
    n = 2 * io._BLOCK_ROWS + 5
    lines = _table_lines(n, 2)
    lines[-1] = f"id{n - 1}\t1_0\t2"
    path.write_text("\n".join(lines) + "\n")
    table = _Blocks()
    with mock.patch.object(io, "open", wraps=open, create=True) as opened, \
            mock.patch.object(io, "_block_by_row", wraps=io._block_by_row) as by_row:
        assert io.load_embeddings(path, into=table) is table
    assert opened.call_count == 1 and by_row.call_count == 1
    ids = [f"id{i}" for i in range(n)]
    assert table.blocks == [ids[i : i + io._BLOCK_ROWS] for i in range(0, n, io._BLOCK_ROWS)]
    assert table[ids[-1]].tolist() == [10.0, 2.0]


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
    message = ":1: label must be target or nontarget, got 'maybe'"
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path) + message)}$"):
        io.load_trials(path)


@pytest.mark.parametrize("line", ["\tt2\n", "e2\t\n", "e2\t\ttarget\n", "\tt2\tnontarget\n"])
def test_trials_reject_empty_id(tmp_path, line):
    path = tmp_path / "trials.tsv"
    path.write_text("e1\tt1\n" + line)
    with pytest.raises(MalformedFile, match=r"trials\.tsv:2: empty id$"):
        io.load_trials(path)


@pytest.mark.parametrize(
    "loader, text",
    [
        (io.load_trials, "spk-01\tspk-02\nspk-02\tspk-01\nspk-01\tspk-03\n"),
        (io.load_scores, "spk-01\tspk-02\t1\nspk-02\tspk-01\t2\nspk-01\tspk-03\t3\n"),
    ],
    ids=["trials", "scores"],
)
def test_readers_intern_repeated_ids(tmp_path, loader, text):
    # one str object per distinct id, across rows and across columns
    path = tmp_path / "table.tsv"
    path.write_text(text)
    rows = loader(path)
    assert rows[1][1] is rows[0][0] and rows[2][0] is rows[0][0]
    assert rows[1][0] is rows[0][1]


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


@pytest.mark.parametrize("text, message", [
    ("condition.1.p_same_given_ss 0.5\n", ":1: expected 'key = value'"),
    ("prior.1.p_same_given_ss = 0.5\n", ":1: bad key 'prior.1.p_same_given_ss'"),
    ("condition.1.p_same = 0.5\n", ":1: bad key 'condition.1.p_same'"),
    ("condition.one.p_same_given_ss = 0.5\n",
     ":1: invalid literal for int() with base 10: 'one'"),
    ("condition.1.p_same_given_ss = half\n", ":1: could not convert string to float: 'half'"),
    ("condition.1.p_same_given_ss = 0.5\ncondition.1.p_same_given_ss = 0.6\n",
     ":2: duplicate key 'condition.1.p_same_given_ss'"),
    ("condition.0.p_same_given_ss = 0.5\ncondition.0.p_same_given_ds = 0.5\n",
     ": condition numbering must be contiguous from 1"),
], ids=["no-equals", "bad-prefix", "bad-field", "bad-index", "bad-number", "duplicate",
        "numbered-from-0"])
def test_priors_name_the_bad_line(tmp_path, text, message):
    path = tmp_path / "priors.cfg"
    path.write_text(text)
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path) + message)}$"):
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
    message = ":1: expected 3 tab-separated fields"
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path) + message)}$"):
        io.load_scores(path)
    path.write_text("e\tt\tabc\n")
    message = ":1: bad score (could not convert string to float: 'abc')"
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path) + message)}$"):
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


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path: io.save_scores(path, [("a", "b"), ("c", "d")], [1.0]),
         "1 scores for 2 trials"),
        (lambda path: io.save_scores(path, [("a", "b")], np.zeros(2)), "2 scores for 1 trials"),
        (lambda path: io.save_trials(path, [("a", "b"), ("c", "d")], labels=[True]),
         "1 labels for 2 trials"),
        (lambda path: io.save_trials(path, [("a", "b")], labels=[True, False]),
         "2 labels for 1 trials"),
    ],
    ids=["few-scores", "many-scores", "few-labels", "many-labels"],
)
def test_writers_reject_counts_other_than_one_per_trial(tmp_path, write, message):
    # checked before the file is opened: none is made, and one that
    # exists keeps its bytes
    path = tmp_path / "table.tsv"
    with pytest.raises(ValueError, match=f"^{message}$"):
        write(path)
    assert not path.exists()
    path.write_bytes(b"e\tt\t1.0\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        write(path)
    assert path.read_bytes() == b"e\tt\t1.0\n"


@pytest.mark.parametrize(
    "write",
    [
        lambda path: io.save_scores(path, [("a", "b"), ("c", "d")], [1.0, "x"]),
        lambda path: io.save_embeddings(path, {"a": [1.0], "b": ["x"]}),
    ],
    ids=["scores", "embeddings"],
)
def test_failed_write_leaves_the_old_file(tmp_path, write):
    # the second value fails after the first row is written: no file is
    # made, and one that exists keeps its bytes, with no other file left
    path = tmp_path / "table.tsv"
    with pytest.raises(ValueError):
        write(path)
    assert os.listdir(tmp_path) == []
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError):
        write(path)
    assert os.listdir(tmp_path) == ["table.tsv"]
    assert path.read_bytes() == b"old\n"


def test_write_to_a_device_is_in_place():
    io.save_scores(os.devnull, [("a", "b")], [1.0])
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_rewrite_keeps_permission_bits(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_bytes(b"old\n")
    os.chmod(path, 0o640)
    io.save_scores(path, [("a", "b")], [1.0])
    assert path.read_bytes() == b"a\tb\t1\n"
    assert oct(os.stat(path).st_mode & 0o777) == oct(0o640)


def test_rewrite_through_a_symlink_keeps_the_link(tmp_path):
    real, link = tmp_path / "real.tsv", tmp_path / "link.tsv"
    real.write_bytes(b"old\n")
    link.symlink_to(real)
    io.save_scores(link, [("a", "b")], [1.0])
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == b"a\tb\t1\n"
    assert sorted(os.listdir(tmp_path)) == ["link.tsv", "real.tsv"]


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


_GOLDEN_MODEL_BYTES = b"JPLDA\x00" + bytes.fromhex(
    "01000000 02000000 01000000 01000000"  # version, d, R_y, N
    "01000000"  # R_x1
    "000000000000e03f 000000000000f0bf"  # mu
    "000000000000f03f 000000000000d03f"  # V
    "0000000000000000 0000000000000040"  # U_1
    "000000000000f03f 0000000000000000 0000000000000000 0000000000000040"  # D
)


def _golden_dataset():
    from jplda.synth import SyntheticDataset

    return SyntheticDataset(embeddings=np.array([[0.5, -1.0], [2.0, 0.1]]),
                            speaker_labels=np.array([0, 1]),
                            condition_labels=np.array([[1, 0], [2, 3]]), ids=("x", "y"))


# case: (write to path "out", {file name: bytes} of every file written)
GOLDEN_WRITES = {
    "model": (
        lambda path: io.save_model(
            ModelParams(mu=np.array([0.5, -1.0]), V=np.array([[1.0], [0.25]]),
                        U=(np.array([[0.0], [2.0]]),), D=np.diag([1.0, 2.0])), path),
        {"out": _GOLDEN_MODEL_BYTES}),
    "embeddings": (
        lambda path: io.save_embeddings(path, {"a": [0.1, -2.0], "b": np.array([1e-300, 3.0])}),
        {"out": b"a\t0.10000000000000001\t-2\nb\t1e-300\t3\n"}),
    "trials": (
        lambda path: io.save_trials(path, [("a", "b"), ("c", "a")]),
        {"out": b"a\tb\nc\ta\n"}),
    "labeled-trials": (
        lambda path: io.save_trials(path, [("a", "b"), ("c", "a")], labels=[True, False]),
        {"out": b"a\tb\ttarget\nc\ta\tnontarget\n"}),
    "priors": (
        lambda path: io.save_priors(path, PriorConfig((0.8,), (0.25,))),
        {"out": b"condition.1.p_same_given_ss = 0.80000000000000004\n"
                b"condition.1.p_same_given_ds = 0.25\n"}),
    "scores": (
        lambda path: io.save_scores(path, [("a", "b"), ("c", "a")], np.array([1.5, -0.1])),
        {"out": b"a\tb\t1.5\nc\ta\t-0.10000000000000001\n"}),
    "dataset": (
        lambda path: io.save_dataset(path, _golden_dataset()),
        {"out.emb.tsv": b"x\t0.5\t-1\ny\t2\t0.10000000000000001\n",
         "out.spk.tsv": b"x\t0\ny\t1\n",
         "out.cond.tsv": b"x\t1\t2\ny\t0\t3\n"}),
}


@pytest.mark.parametrize("case", GOLDEN_WRITES)
def test_writers_write_their_golden_bytes(tmp_path, case):
    # each writer's text, pinned byte for byte on fixed tiny inputs
    write, expected = GOLDEN_WRITES[case]
    write(str(tmp_path / "out"))
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == expected
