"""On-disk formats: binary model files and tab-separated text tables.

The model file is binary for bit-exact round trips; everything humans
edit (embeddings, trial lists, priors, scores) is plain text with tab
delimiters and "." decimals regardless of locale. An id is any non-empty
string without a tab, LF or CR; the writers reject other ids, and
labels or scores that do not number one per trial, before they open
the file.

Embedding tables are read once, in blocks of rows parsed by numpy's C
reader; a block it might read differently from Python's ``float()``, or
that holds a bad row, goes to a row parser, so values and errors are the
row parser's.
The trial and score readers intern ids per file: every row that names
an id holds the same ``str`` object, so a list that reuses its ids
costs one pointer per repeat.
"""

import itertools
import math
import re
import struct

import numpy as np

from .errors import (
    BadMagic,
    JpldaError,
    MalformedFile,
    TruncatedPayload,
    ValidationFailed,
    VersionUnsupported,
)
from .hypothesis import PriorConfig
from .model import ModelParams

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "save_model",
    "load_model",
    "save_embeddings",
    "load_embeddings",
    "save_trials",
    "load_trials",
    "save_priors",
    "load_priors",
    "save_scores",
    "load_scores",
    "save_dataset",
]

MAGIC = b"JPLDA\x00"
FORMAT_VERSION = 1

# 17 significant digits round-trip any 64-bit float exactly
_FLOAT_FMT = "{:.17g}"
_ID = re.compile(r"[^\t\n\r]+")
# Rows per np.loadtxt call. A block's text is held until it is parsed, so
# the block bounds the parse's extra memory: one call over a whole 20k-row,
# 79 MB table raised the peak RSS of `jplda score` from 114 to 176 MB, and
# 1024-row blocks of 512 values raised it by 1.1 MB, 64-row blocks by 0.3
# MB. Parse time was the same for 32 to 1024 rows.
_BLOCK_ROWS = 64
# Whitespace to numpy's float parser but not to float(): np.loadtxt reads
# "1\x1c" as 1.0, where float() raises.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _f64_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def save_model(model: ModelParams, path) -> None:
    """Write the binary model file; payload floats are bit-exact on reload.

    Layout: magic "JPLDA\\0", then u32 little-endian version, d, R_y, N,
    then the N values R_xj, then row-major little-endian float64 blocks
    mu, V, U_1 ... U_N, D.
    """
    header = MAGIC + struct.pack(
        "<4I", FORMAT_VERSION, model.d, model.r_y, model.n_conditions
    )
    header += struct.pack(f"<{model.n_conditions}I", *model.r_x)
    payload = _f64_bytes(model.mu) + _f64_bytes(model.V)
    for u in model.U:
        payload += _f64_bytes(u)
    payload += _f64_bytes(model.D)
    with open(path, "wb") as f:
        f.write(header + payload)


def load_model(path) -> ModelParams:
    """Read a binary model file written by :func:`save_model`.

    Raises:
      BadMagic / VersionUnsupported / TruncatedPayload: the container is
        not a model file, a future version, or has the wrong length.
      ValidationFailed: the payload parses but is not a valid model.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path}: not a model file (bad magic)")
    off = len(MAGIC)
    if len(blob) < off + 16:
        raise TruncatedPayload(f"{path}: header cut short")
    version, d, r_y, n_cond = struct.unpack_from("<4I", blob, off)
    off += 16
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"{path}: format version {version} not supported")
    if len(blob) < off + 4 * n_cond:
        raise TruncatedPayload(f"{path}: header cut short")
    r_x = struct.unpack_from(f"<{n_cond}I", blob, off)
    off += 4 * n_cond

    shapes = [(d,), (d, r_y), *((d, r) for r in r_x), (d, d)]
    n_floats = sum(math.prod(shape) for shape in shapes)
    if len(blob) != off + 8 * n_floats:
        raise TruncatedPayload(
            f"{path}: payload is {len(blob) - off} bytes, header implies {8 * n_floats}"
        )
    # views into the file's bytes: ModelParams makes the only copy
    arrays = []
    for shape in shapes:
        count = math.prod(shape)
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape))
        off += 8 * count
    mu, v, *u, big_d = arrays
    try:
        return ModelParams(mu=mu, V=v, U=tuple(u), D=big_d)
    except JpldaError as exc:
        raise ValidationFailed(f"{path}: {exc}") from exc


# text tables ------------------------------------------------------------


def _tsv_rows(path):
    """Yield (line number from 1, tab-separated fields) for each non-blank line."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if line:
                yield lineno, line.split("\t")


def _check_ids(path, ids) -> None:
    """Raise MalformedFile naming the first id that the text loaders would misread.

    Each distinct id is checked once, in first-seen order.
    """
    for name in dict.fromkeys(ids):
        if not _ID.fullmatch(str(name)):
            raise MalformedFile(f"{path}: id {name!r} is empty or holds a tab, LF or CR")


def save_embeddings(path, embeddings) -> None:
    """Write id<TAB>float... rows from a mapping of id to vector.

    Each row is one %-format of its values as Python floats, which writes
    the same text as ``_FLOAT_FMT`` per value in half the time.
    """
    _check_ids(path, embeddings)
    with open(path, "w", encoding="utf-8") as f:
        for name, vec in embeddings.items():
            values = np.asarray(vec, dtype=np.float64).tolist()
            row = "\t".join(["%.17g"] * len(values)) % tuple(values)
            f.write(f"{name}\t{row}\n" if row else f"{name}\n")


def load_embeddings(path, into=None):
    """Read an embedding table into an ordered id -> vector mapping, or
    into the table ``into``.

    The file is read once, in blocks of ``_BLOCK_ROWS`` non-blank lines.
    Each block is parsed by ``np.loadtxt`` (``_block_by_numpy``) unless
    numpy might read it differently from Python's ``float()``, or it
    holds an id-only row, an empty or repeated id, or a width unlike the
    earlier blocks'. Only such a block goes to the row parser
    (``_block_by_row``), which raises the line-numbered ``MalformedFile``
    or returns what ``float()`` makes of values numpy rejects (``1_0``,
    non-ASCII digits). So values and errors are the row parser's, as if
    it had read every line, and each vector of the mapping is a row view
    of its block.

    With ``into``, no vector is kept here: each block goes to the table's
    ``add(names, values)`` as soon as it is parsed, ``values`` being a
    (rows, width) float64 matrix that ``add`` may overwrite, and the
    table is returned. ``into`` must support ``in`` for the ids already
    added. A ``scoring.ProjectedTable`` keeps R_z floats per id this way,
    not d.
    """
    table = _Vectors() if into is None else into
    width = None
    with open(path, "r", encoding="utf-8") as f:
        lines = ((n, line.rstrip("\n").partition("\t"))
                 for n, line in enumerate(f, start=1) if line != "\n")
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            names, values = (_block_by_numpy(block, table, width)
                             or _block_by_row(path, block, table, width))
            width = values.shape[1]
            table.add(names, values)
    return dict(table) if into is None else table


class _Vectors(dict):
    """The id -> vector table: each vector is a row view of its block."""

    def add(self, names, values):
        self.update(zip(names, values))


def _block_by_numpy(block, table, width):
    """The ids and values of ``block``, numbered lines split at their
    first tab, as ``np.loadtxt`` reads them, or None where the row parser
    must decide. ``table`` holds the earlier blocks' ids and ``width``
    their row length."""
    names = [name for _, (name, _, _) in block]
    texts = [text for _, (_, _, text) in block]
    # numpy skips an empty line, and warns when a block is all empty
    if not (all(names) and all(texts)) or any(
        c in t for t in texts for c in _NUMPY_ONLY_SPACE
    ):
        return None
    if len(set(names)) < len(names) or any(name in table for name in names):
        return None
    try:
        values = np.loadtxt(
            texts, dtype=np.float64, delimiter="\t", comments=None, quotechar=None, ndmin=2,
        )
    except ValueError:
        return None
    if len(values) != len(texts) or width not in (None, values.shape[1]):
        return None
    return names, values


def _block_by_row(path, block, table, width):
    """The row parser: the ids and values of ``block``, numbered lines
    split at their first tab, by ``float()`` per value, or MalformedFile
    naming the first bad line. ``table`` holds the earlier blocks' ids and
    ``width`` their row length (None before the first block)."""
    rows = {}
    for lineno, (name, tab, text) in block:
        fields = text.split("\t") if tab else []
        if not name:
            raise MalformedFile(f"{path}:{lineno}: empty id")
        if name in rows or name in table:
            raise MalformedFile(f"{path}:{lineno}: duplicate id {name!r}")
        try:
            vec = [float(x) for x in fields]
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: bad float ({exc})") from exc
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise MalformedFile(
                f"{path}:{lineno}: row has {len(vec)} values, expected {width}"
            )
        rows[name] = vec
    return list(rows), np.array(list(rows.values()), dtype=np.float64)


def save_trials(path, trials, labels=None) -> None:
    """Write enroll<TAB>test rows, with one target/nontarget label per trial if given."""
    trials = list(trials)
    if labels is not None and len(labels) != len(trials):
        raise ValueError(f"{len(labels)} labels for {len(trials)} trials")
    _check_ids(path, (i for pair in trials for i in pair))
    with open(path, "w", encoding="utf-8") as f:
        for i, (eid, tid) in enumerate(trials):
            if labels is None:
                f.write(f"{eid}\t{tid}\n")
            else:
                f.write(f"{eid}\t{tid}\t{'target' if labels[i] else 'nontarget'}\n")


def load_trials(path) -> list:
    """Read trial rows as (enroll_id, test_id, label-or-None) tuples.

    The third column, when present, must be "target" or "nontarget" and
    maps to True / False. Neither id may be empty. Ids are interned per
    file: equal ids are one ``str`` object.
    """
    out = []
    ids = {}
    for lineno, fields in _tsv_rows(path):
        if len(fields) not in (2, 3):
            raise MalformedFile(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
        if not (fields[0] and fields[1]):
            raise MalformedFile(f"{path}:{lineno}: empty id")
        label = None
        if len(fields) == 3:
            if fields[2] not in ("target", "nontarget"):
                raise MalformedFile(
                    f"{path}:{lineno}: label must be target or nontarget, got {fields[2]!r}"
                )
            label = fields[2] == "target"
        eid, tid = fields[0], fields[1]
        out.append((ids.setdefault(eid, eid), ids.setdefault(tid, tid), label))
    return out


def save_priors(path, priors: PriorConfig) -> None:
    """Write one "condition.<j>.p_same_given_ss|ds = <p>" line per entry."""
    with open(path, "w", encoding="utf-8") as f:
        for j in range(priors.n_conditions):
            for name in ("p_same_given_ss", "p_same_given_ds"):
                p = getattr(priors, name)[j]
                f.write(f"condition.{j + 1}.{name} = " + _FLOAT_FMT.format(p) + "\n")


def load_priors(path) -> PriorConfig:
    """Parse a priors file; conditions must be numbered 1..N with both lines each.

    Blank lines and lines starting with "#" are ignored.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise MalformedFile(f"{path}:{lineno}: expected 'key = value'")
            parts = key.strip().split(".")
            if len(parts) != 3 or parts[0] != "condition":
                raise MalformedFile(f"{path}:{lineno}: bad key {key.strip()!r}")
            _, idx, field = parts
            if field not in ("p_same_given_ss", "p_same_given_ds"):
                raise MalformedFile(f"{path}:{lineno}: bad key {key.strip()!r}")
            try:
                j = int(idx)
                p = float(raw.strip())
            except ValueError as exc:
                raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
            if not 0.0 <= p <= 1.0:
                raise MalformedFile(f"{path}:{lineno}: probability {p} outside [0, 1]")
            if (j, field) in values:
                raise MalformedFile(f"{path}:{lineno}: duplicate key {key.strip()!r}")
            values[(j, field)] = p

    n = max((j for j, _ in values), default=0)
    ss, ds = [], []
    for j in range(1, n + 1):
        for field, dest in (("p_same_given_ss", ss), ("p_same_given_ds", ds)):
            if (j, field) not in values:
                raise MalformedFile(f"{path}: missing condition.{j}.{field}")
            dest.append(values[(j, field)])
    if len(values) != 2 * n:
        raise MalformedFile(f"{path}: condition numbering must be contiguous from 1")
    return PriorConfig(tuple(ss), tuple(ds))


def save_scores(path, trials, scores) -> None:
    """Write enroll<TAB>test<TAB>score rows, one score per trial; 17 significant digits."""
    trials = list(trials)
    if len(scores) != len(trials):
        raise ValueError(f"{len(scores)} scores for {len(trials)} trials")
    _check_ids(path, (i for pair in trials for i in pair))
    with open(path, "w", encoding="utf-8") as f:
        for (eid, tid), s in zip(trials, scores):
            f.write(f"{eid}\t{tid}\t" + _FLOAT_FMT.format(float(s)) + "\n")


def load_scores(path) -> list:
    """Read score rows as (enroll_id, test_id, score) tuples; neither id
    may be empty. Ids are interned per file: equal ids are one ``str``
    object."""
    out = []
    ids = {}
    for lineno, fields in _tsv_rows(path):
        if len(fields) != 3:
            raise MalformedFile(f"{path}:{lineno}: expected 3 tab-separated fields")
        if not (fields[0] and fields[1]):
            raise MalformedFile(f"{path}:{lineno}: empty id")
        try:
            score = float(fields[2])
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: bad score ({exc})") from exc
        eid, tid = fields[0], fields[1]
        out.append((ids.setdefault(eid, eid), ids.setdefault(tid, tid), score))
    return out


def save_dataset(prefix, dataset) -> dict:
    """Write a ``SyntheticDataset`` as embeddings + speaker + condition tables.

    Returns the written paths keyed by role: "embeddings", "speakers",
    "conditions".
    """
    paths = {
        "embeddings": f"{prefix}.emb.tsv",
        "speakers": f"{prefix}.spk.tsv",
        "conditions": f"{prefix}.cond.tsv",
    }
    save_embeddings(paths["embeddings"], dict(zip(dataset.ids, dataset.embeddings)))
    with open(paths["speakers"], "w", encoding="utf-8") as f:
        for name, spk in zip(dataset.ids, dataset.speaker_labels):
            f.write(f"{name}\t{spk}\n")
    with open(paths["conditions"], "w", encoding="utf-8") as f:
        for i, name in enumerate(dataset.ids):
            labels = "\t".join(str(c) for c in dataset.condition_labels[:, i])
            f.write(f"{name}\t{labels}\n" if labels else f"{name}\n")
    return paths
