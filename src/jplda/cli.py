"""Command-line pipeline: score, synth, eval, check.

Exit codes 0 and 1: 0 on success, 1 on any usage or input problem (the
message goes to stderr).
"""

import argparse
import os
import sys

import numpy as np

from . import io, metrics, oracle, scoring, synth
from .errors import JpldaError
from .hypothesis import HypothesisVector, PriorConfig

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors, where argparse exits 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jplda", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", parents=[], help="score a trial list", add_help=True)
    p.add_argument("--model", required=True)
    p.add_argument("--enroll", required=True, help="enrollment embedding table")
    p.add_argument("--test", required=True, help="test embedding table")
    p.add_argument("--trials", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--out", required=True, help="score file to write")

    p = sub.add_parser("synth", help="sample a labeled dataset from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--conditions", required=True, help="comma-separated label counts, one per condition")
    p.add_argument("--per-speaker", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--assignment", choices=("uniform-random", "round-robin"), default="uniform-random")

    p = sub.add_parser("eval", help="EER and calibration identity for a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True, help="trial list with target/nontarget labels")

    p = sub.add_parser("check", help="compare scoring against the slow oracle")
    p.add_argument("--model", required=True)
    p.add_argument("--trials-count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _cmd_score(args) -> int:
    """Score a trial list. The session is built first, so that each table
    is read once into its projections (``scoring.ProjectedTable``), R_z
    floats per id, block by block as it is parsed: a session error is
    reported before any table error."""
    model = io.load_model(args.model)
    priors = io.load_priors(args.priors)
    session = scoring.precompute_session(model, priors)
    enroll = io.load_embeddings(args.enroll, into=scoring.ProjectedTable(session))
    if os.path.realpath(args.test) == os.path.realpath(args.enroll):
        test = enroll
    else:
        test = io.load_embeddings(args.test, into=scoring.ProjectedTable(session))
    trials = io.load_trials(args.trials)
    for i, (e, t, _) in enumerate(trials):  # in place: one list of trials at a time
        trials[i] = (e, t)
    scores = scoring.score_trials(session, enroll, test, trials)
    io.save_scores(args.out, trials, scores)
    return 0


def _cmd_synth(args) -> int:
    model = io.load_model(args.model)
    try:
        cards = [int(c) for c in args.conditions.split(",")] if args.conditions.strip() else []
    except ValueError as exc:
        raise JpldaError(f"bad --conditions value: {exc}") from exc
    dataset = synth.sample_dataset(
        model,
        n_speakers=args.speakers,
        condition_cardinalities=cards,
        samples_per_speaker=args.per_speaker,
        assignment=args.assignment,
        seed=args.seed,
    )
    paths = io.save_dataset(args.out_prefix, dataset)
    for role in ("embeddings", "speakers", "conditions"):
        print(f"{role}\t{paths[role]}")
    return 0


def _cmd_eval(args) -> int:
    key = io.load_trials(args.key)
    if any(label is None for _, _, label in key):
        raise JpldaError(f"{args.key}: every key row needs a target/nontarget label")
    by_pair = {}
    for eid, tid, s in io.load_scores(args.scores):
        by_pair[(eid, tid)] = s
    scores, labels = [], []
    for eid, tid, label in key:
        if (eid, tid) not in by_pair:
            raise JpldaError(f"no score for trial {eid}\t{tid}")
        scores.append(by_pair[(eid, tid)])
        labels.append(label)
    trials = metrics.ScoredTrials(np.array(scores), np.array(labels))
    print(f"EER {metrics.eer(trials):.4f}")
    print(f"CAL {metrics.calibration_identity(trials):.4f}")
    return 0


def _cmd_check(args) -> int:
    """Random-trial agreement between the fast path and the oracle."""
    model = io.load_model(args.model)
    if args.trials_count < 1:
        raise JpldaError("--trials-count must be >= 1")
    priors = PriorConfig.uniform(model.n_conditions)
    session = scoring.precompute_session(model, priors)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for i in range(args.trials_count):
        h = HypothesisVector(
            bool(rng.integers(2)), tuple(bool(b) for b in rng.integers(2, size=model.n_conditions))
        )
        m_e, m_t = synth.sample_trial_pair(model, h, seed=int(rng.integers(2**63)))
        fast = scoring.llr(session, m_e, m_t)
        slow = oracle.gaussian_llr_oracle(model, priors, m_e, m_t)
        worst = max(worst, abs(fast - slow))
    tolerance = 1e-8
    ok = worst <= tolerance
    print(f"max_abs_deviation {worst:.3e} (tolerance {tolerance:.1e}): {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "score": _cmd_score,
        "synth": _cmd_synth,
        "eval": _cmd_eval,
        "check": _cmd_check,
    }[args.command]
    try:
        return handler(args)
    except (JpldaError, OSError, ValueError) as exc:
        print(f"jplda {args.command}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
