"""End-to-end pipeline through the on-disk formats and the CLI.

Writes a model file, synthesizes embeddings, builds a trial list with a
key, scores it with `jplda score`, and evaluates with `jplda eval` —
everything in a temporary directory, invoking the CLI as a subprocess
the way a shell pipeline would.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from jplda import ModelParams, PriorConfig, io, make_benchmark

rng = np.random.default_rng(3)
d = 8
model = ModelParams(
    mu=rng.standard_normal(d),
    V=0.6 * rng.standard_normal((d, 3)),
    U=(rng.standard_normal((d, 2)),),
    D=np.diag(rng.uniform(1.0, 2.0, size=d)),
)
priors = PriorConfig((0.75,), (0.25,))


def run(*args):
    cmd = [sys.executable, "-m", "jplda", *args]
    print("$", " ".join(str(a) for a in cmd[2:]))
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.stdout:
        print(result.stdout, end="")
    if result.returncode != 0:
        print(result.stderr, end="")
        raise SystemExit(result.returncode)


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    io.save_model(model, tmp / "model.jplda")
    io.save_priors(tmp / "priors.cfg", priors)

    embeddings, trials, key = make_benchmark(model, priors, 500, 500, seed=11)
    io.save_embeddings(tmp / "embeddings.tsv", embeddings)
    io.save_trials(tmp / "trials.tsv", trials)
    io.save_trials(tmp / "key.tsv", trials, labels=key)
    print(f"wrote model, priors, {len(embeddings)} embeddings, {len(trials)} trials\n")

    run(
        "score",
        "--model", tmp / "model.jplda",
        "--enroll", tmp / "embeddings.tsv",
        "--test", tmp / "embeddings.tsv",
        "--trials", tmp / "trials.tsv",
        "--priors", tmp / "priors.cfg",
        "--out", tmp / "scores.tsv",
    )
    first = (tmp / "scores.tsv").read_text().splitlines()[0]
    print(f"first score row: {first}\n")

    run("eval", "--scores", tmp / "scores.tsv", "--key", tmp / "key.tsv")
    print()

    run("check", "--model", tmp / "model.jplda", "--trials-count", "50", "--seed", "9")

    run(
        "synth",
        "--model", tmp / "model.jplda",
        "--speakers", "5",
        "--conditions", "3",
        "--per-speaker", "4",
        "--seed", "21",
        "--out-prefix", tmp / "corpus",
    )
    table = io.load_embeddings(tmp / "corpus.emb.tsv")
    print(f"\nsynth wrote {len(table)} embeddings of dimension {len(next(iter(table.values())))}")
