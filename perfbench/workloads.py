"""Workload definitions and seeded input generation for the jplda benchmark.

Every input is derived from (workload, seed, size). The model of a
workload is fixed, as a deployed model is: drawn from a PCG64 stream with
MODEL_SEED. The embeddings and trial lists come from ``jplda.synth`` with
``seed`` and are written to disk with ``jplda.io``. A few trials drawn
with CHECK_SEED are appended to every trial list; the oracle scores them
once per checkout (``.perfbench/oracle-cache``), since one oracle call
costs up to 16 s at d=512, and every run checks the program against them.

Run as a script, this module writes one workload's inputs plus a
``manifest.json`` into a directory. ``run.py`` does that in a child
process, so that the peak memory of generation and of the oracle does
not count in the benchmark process's ``peak_rss_mb``::

    python3 perfbench/workloads.py --workload file-10k --seed 1 --out DIR [--tiny]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Generator parameters. "sv" scales the speaker subspace against unit
# condition subspaces and noise variance in [1/3, 2]; it keeps the EER
# well away from 0 and from chance (2-16 % measured).
WORKLOADS = {
    # The user's file pipeline: one 20k-id table passed as both --enroll and
    # --test, 10k trials, every id projected once. Text parsing dominates.
    "file-10k": {
        "kind": "pairs",
        "d": 200, "r_y": 50, "r_x": [20, 20], "full_d": False, "sv": 0.25,
        "p_ss": [0.6, 0.7], "p_ds": [0.3, 0.2],
        "n_target": 5000, "n_nontarget": 5000,
        "oracle_trials": 4,
    },
    # Full 120x120 enroll x test matrix over 60 speakers x 4 samples, 32
    # hypotheses; the per-trial, per-hypothesis loop dominates and every id
    # is reused 120 times.
    "matrix-N4": {
        "kind": "matrix",
        "d": 200, "r_y": 50, "r_x": [10, 10, 10, 10], "full_d": False, "sv": 0.25,
        "p_ss": [0.5] * 4, "p_ds": [0.5] * 4,
        "speakers": 60, "per_speaker": 4, "cardinalities": [2, 2, 2, 2],
        "oracle_trials": 2,
    },
    # 128 factorizations of a d=512 model with full (non-diagonal) noise
    # precision and a short trial list: session set-up dominates.
    "setup-N6-fullD": {
        "kind": "pairs",
        "d": 512, "r_y": 100, "r_x": [10] * 6, "full_d": True, "sv": 0.25,
        "p_ss": [0.5] * 6, "p_ds": [0.5] * 6,
        "n_target": 50, "n_nontarget": 50,
        "oracle_trials": 1,
    },
}

# Tiny sizes for the benchmark's own smoke tests; same shapes of work.
TINY = {
    "file-10k": {"d": 16, "r_y": 4, "r_x": [2, 2], "n_target": 30, "n_nontarget": 30},
    "matrix-N4": {"d": 16, "r_y": 4, "r_x": [2, 2, 2, 2], "speakers": 6},
    "setup-N6-fullD": {"d": 24, "r_y": 4, "r_x": [1] * 6, "n_target": 10, "n_nontarget": 10},
}

# Layer sweep of the traced run: (metric label, d, tiny d) x N, with
# R_y=50, R_x=10 per condition and diagonal D.
SWEEP_D = [("d200", 200, 8), ("d512", 512, 12)]
SWEEP_N = [1, 2, 4]
SWEEP_TRIALS = 100  # target and nontarget each

# Trials of the llr probe cycle over at most this many pairs.
PROBE_PAIRS = 2000

MODEL_SEED = 1803_03684
CHECK_SEED = 7


def spec(workload: str, tiny: bool) -> dict:
    out = dict(WORKLOADS[workload])
    if tiny:
        out.update(TINY[workload])
    return out


def sweep_spec(d: int, n_conditions: int, tiny: bool) -> dict:
    return {
        "d": d, "r_y": 2 if tiny else 50, "r_x": [1 if tiny else 10] * n_conditions,
        "full_d": False, "sv": 0.25,
        "p_ss": [0.5] * n_conditions, "p_ds": [0.5] * n_conditions,
        "n_target": 10 if tiny else SWEEP_TRIALS, "n_nontarget": 10 if tiny else SWEEP_TRIALS,
    }


def params_hash(params: dict, seed) -> str:
    blob = json.dumps({"params": params, "model_seed": MODEL_SEED, "check_seed": CHECK_SEED,
                       "seed": seed}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def make_model(params: dict):
    import numpy as np
    from jplda import ModelParams

    rng = np.random.default_rng(MODEL_SEED)
    d, r_y = params["d"], params["r_y"]
    v = params["sv"] * rng.standard_normal((d, r_y)) / np.sqrt(r_y)
    u = tuple(rng.standard_normal((d, r)) / np.sqrt(r) for r in params["r_x"])
    if params["full_d"]:
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        big_d = a @ a.T + np.eye(d)
    else:
        big_d = np.diag(rng.uniform(0.5, 3.0, size=d))
    return ModelParams(mu=rng.standard_normal(d), V=v, U=u, D=big_d)


def make_priors(params: dict):
    from jplda import PriorConfig

    return PriorConfig(tuple(params["p_ss"]), tuple(params["p_ds"]))


def flops_per_trial(params: dict) -> int:
    """Computed, not measured: one triangular solve plus one dot product
    per hypothesis, of size n_s + 2 n_d, for the per-trial formulation."""
    r_z = params["r_y"] + sum(params["r_x"])
    total = 0
    for speaker_tied in (True, False):
        for mask in range(2 ** len(params["r_x"])):
            n_s = params["r_y"] * speaker_tied + sum(
                r for j, r in enumerate(params["r_x"]) if mask >> j & 1
            )
            n = 2 * r_z - n_s
            total += n * n + 2 * n
    return total


def make_pairs(params: dict, seed: int):
    """(model, priors, embeddings, trials, key) for a "pairs" spec."""
    from jplda import synth

    model = make_model(params)
    priors = make_priors(params)
    emb, trials, key = synth.make_benchmark(
        model, priors, params["n_target"], params["n_nontarget"], seed=seed
    )
    return model, priors, emb, trials, key


def _matrix_inputs(params: dict, seed: int, model):
    """Enroll = first half of each speaker's samples, test = second half."""
    from jplda import synth

    ds = synth.sample_dataset(
        model,
        n_speakers=params["speakers"],
        condition_cardinalities=params["cardinalities"],
        samples_per_speaker=params["per_speaker"],
        seed=seed,
    )
    half = params["per_speaker"] // 2
    side = [i % params["per_speaker"] < half for i in range(len(ds.ids))]
    enroll = {n: v for n, v, s in zip(ds.ids, ds.embeddings, side) if s}
    test = {n: v for n, v, s in zip(ds.ids, ds.embeddings, side) if not s}
    spk = dict(zip(ds.ids, ds.speaker_labels))
    trials = [(e, t) for e in enroll for t in test]
    key = [bool(spk[e] == spk[t]) for e, t in trials]
    return enroll, test, trials, key


def _oracle_refs(model, priors, pairs, params: dict) -> list:
    """Oracle scores of the check pairs, cached per (parameters, oracle source)."""
    from jplda import oracle

    source = Path(oracle.__file__).read_bytes()
    digest = hashlib.sha256(params_hash(params, None).encode() + source).hexdigest()[:24]
    cache = ROOT / ".perfbench" / "oracle-cache" / f"{digest}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    refs = [oracle.gaussian_llr_oracle(model, priors, e, t) for e, t in pairs]
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs))
    tmp.replace(cache)
    return refs


def prepare(workload: str, seed: int, tiny: bool, out: Path) -> dict:
    """Write the workload's files into ``out`` and return the manifest."""
    import numpy as np
    from jplda import io, synth

    params = spec(workload, tiny)
    files = {"model": "model.bin", "priors": "priors.txt", "trials": "trials.tsv",
             "scores": "scores.tsv"}
    if params["kind"] == "pairs":
        model, priors, emb, trials, key = make_pairs(params, seed)
        enroll = test = emb
        files["enroll"] = files["test"] = "emb.tsv"
    else:
        model, priors = make_model(params), make_priors(params)
        enroll, test, trials, key = _matrix_inputs(params, seed, model)
        files["enroll"], files["test"] = "enroll.tsv", "test.tsv"
    key = [bool(k) for k in key]

    n_check = params["oracle_trials"]
    check_emb, check_trials, check_key = synth.make_benchmark(
        model, priors, (n_check + 1) // 2, n_check // 2, seed=CHECK_SEED)
    check_idx = list(range(len(trials), len(trials) + n_check))
    for (e, t), label in zip(check_trials, check_key):
        enroll["check-" + e] = check_emb[e]
        test["check-" + t] = check_emb[t]
        trials.append(("check-" + e, "check-" + t))
        key.append(bool(label))

    io.save_embeddings(out / files["enroll"], enroll)
    if files["test"] != files["enroll"]:
        io.save_embeddings(out / files["test"], test)
    io.save_model(model, out / files["model"])
    io.save_priors(out / files["priors"], priors)
    io.save_trials(out / files["trials"], trials, key)

    # llr probe pairs: the oracle-checked trials first, then the head of the list
    probe = [trials[i] for i in check_idx] + trials[:PROBE_PAIRS]
    np.save(out / "probe_enroll.npy", np.array([enroll[e] for e, _ in probe]))
    np.save(out / "probe_test.npy", np.array([test[t] for _, t in probe]))
    refs = _oracle_refs(model, priors, [(check_emb[e], check_emb[t]) for e, t in check_trials],
                        params)

    manifest = {
        "files": files,
        "params_hash": params_hash(params, seed),
        "hypotheses": 2 ** (model.n_conditions + 1),
        "flops_per_trial": flops_per_trial(params),
        "check_idx": check_idx,
        "oracle": refs,
    }
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    prepare(args.workload, args.seed, args.tiny, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
