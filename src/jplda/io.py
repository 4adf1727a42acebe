"""On-disk formats: binary model files and tab-separated text tables.

The model file is binary for bit-exact round trips; everything humans
edit (embeddings, trial lists, priors, scores) is plain text with tab
delimiters and "." decimals regardless of locale. An id is any non-empty
string without a tab, LF or CR; the writers reject other ids before
they open the file.

Embedding tables are parsed in blocks of rows by numpy's C reader; any
block it might read differently from Python's ``float()`` sends the
whole file to a row reader, so values and errors are the row reader's.
"""

import itertools
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
from .synth import SyntheticDataset

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
    n_floats = sum(int(np.prod(shape)) for shape in shapes)
    if len(blob) != off + 8 * n_floats:
        raise TruncatedPayload(
            f"{path}: payload is {len(blob) - off} bytes, header implies {8 * n_floats}"
        )
    # views into the file's bytes: ModelParams makes the only copy
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
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


def load_embeddings(path) -> dict:
    """Read an embedding table into an ordered id -> vector mapping.

    Values are parsed by ``np.loadtxt`` in blocks of ``_BLOCK_ROWS`` rows,
    and each vector is a row view of its block. The result is bitwise the
    row reader's, and so is every error: when numpy rejects a block, or a
    block holds an id-only row or a value numpy would read but ``float()``
    rejects, or the width changes between blocks, or an id is empty or
    repeated, the file is read again row by row, which raises the
    line-numbered ``MalformedFile`` or returns what ``float()`` makes of
    values numpy rejects (``1_0``, non-ASCII digits).
    """
    out = _embeddings_by_block(path)
    return _embeddings_by_row(path) if out is None else out


def _embeddings_by_block(path):
    """The table parsed by numpy, or None where the row reader must decide."""
    names, blocks = [], []
    with open(path, "r", encoding="utf-8") as f:
        rows = (line.rstrip("\n").partition("\t") for line in f if line != "\n")
        while chunk := list(itertools.islice(rows, _BLOCK_ROWS)):
            texts = [text for _, _, text in chunk]
            # numpy skips an empty line, and warns when a block is all empty
            if not all(texts) or any(c in t for t in texts for c in _NUMPY_ONLY_SPACE):
                return None
            try:
                block = np.loadtxt(
                    texts, dtype=np.float64, delimiter="\t", comments=None,
                    quotechar=None, ndmin=2,
                )
            except ValueError:
                return None
            if len(block) != len(texts) or (blocks and block.shape[1] != blocks[0].shape[1]):
                return None
            names.extend(name for name, _, _ in chunk)
            blocks.append(block)
    out = dict(zip(names, itertools.chain.from_iterable(blocks)))
    if len(out) != len(names) or "" in out:
        return None
    return out


def _embeddings_by_row(path) -> dict:
    """The row reader: float() per value, MalformedFile naming the line."""
    out = {}
    width = None
    for lineno, fields in _tsv_rows(path):
        name = fields[0]
        if not name:
            raise MalformedFile(f"{path}:{lineno}: empty id")
        if name in out:
            raise MalformedFile(f"{path}:{lineno}: duplicate id {name!r}")
        try:
            vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: bad float ({exc})") from exc
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise MalformedFile(
                f"{path}:{lineno}: row has {vec.size} values, expected {width}"
            )
        out[name] = vec
    return out


def save_trials(path, trials, labels=None) -> None:
    """Write enroll<TAB>test rows, with target/nontarget labels if given."""
    trials = list(trials)
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
    maps to True / False. Neither id may be empty.
    """
    out = []
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
        out.append((fields[0], fields[1], label))
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
    """Write enroll<TAB>test<TAB>score rows; 17 significant digits."""
    trials = list(trials)
    _check_ids(path, (i for pair in trials for i in pair))
    with open(path, "w", encoding="utf-8") as f:
        for (eid, tid), s in zip(trials, scores):
            f.write(f"{eid}\t{tid}\t" + _FLOAT_FMT.format(float(s)) + "\n")


def load_scores(path) -> list:
    """Read score rows as (enroll_id, test_id, score) tuples; neither id
    may be empty."""
    out = []
    for lineno, fields in _tsv_rows(path):
        if len(fields) != 3:
            raise MalformedFile(f"{path}:{lineno}: expected 3 tab-separated fields")
        if not (fields[0] and fields[1]):
            raise MalformedFile(f"{path}:{lineno}: empty id")
        try:
            out.append((fields[0], fields[1], float(fields[2])))
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: bad score ({exc})") from exc
    return out


def save_dataset(prefix, dataset: SyntheticDataset) -> dict:
    """Write a synthetic dataset as embeddings + speaker + condition tables.

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
