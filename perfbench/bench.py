"""Measurement loops, output checks and metrics of the jplda benchmark.

Imported by ``run.py`` once the workload's inputs exist and the BLAS
thread count is pinned. One process, one caller, closed loop: each call
starts when the previous one has returned.
"""

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from jplda import cli, io, metrics, scoring
from jplda.errors import JpldaError

import tracing
import workloads

# A run stops starting reps this long after it began, so that it exits
# within 180 s even when the program under test has become much slower.
DEADLINE_S = 150.0
MIN_REPS = 3
# p99 is reported only with at least ten calls beyond it.
MIN_PROBE_CALLS = 1000
# |score - oracle| <= budget * max(1, |oracle|)
REL_ERR_BUDGET = 1e-8
# time given to set-up reps and to llr calls after each jplda score
SETUP_SLICE_S = 1.0
PROBE_SLICE_S = 1.0
# per-layer values reported as the lower median, so they stay whole numbers
COUNT_UNITS = ("count", "B", "flop")


class Checker:
    """Checks every output against the trial list and the oracle references.

    A trial fails when its score is missing, out of order, non-finite,
    outside the relative-error budget against the oracle, or not
    bitwise equal to the same trial's score in the first rep. A score
    file with the wrong row count, or a non-zero exit, fails every trial
    of that rep.
    """

    def __init__(self, work: Path, manifest: dict):
        rows = io.load_trials(work / manifest["files"]["trials"])
        self.pairs = [(e, t) for e, t, _ in rows]
        self.key = np.array([label for _, _, label in rows], dtype=bool)
        self.oracle = dict(zip(manifest["check_idx"], manifest["oracle"]))
        self.probe_oracle = dict(enumerate(manifest["oracle"]))
        self.first_scores = None
        self.first_probe = {}
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def _within_budget(score: float, ref: float) -> bool:
        return abs(score - ref) <= REL_ERR_BUDGET * max(1.0, abs(ref))

    def score_file(self, exit_code: int, path: Path) -> None:
        """Check one ``jplda score`` output."""
        n = len(self.pairs)
        self.attempted += n
        try:
            rows = io.load_scores(path) if exit_code == 0 else []
        except (JpldaError, OSError, ValueError):
            rows = []
        if len(rows) != n:
            self.failed += n
            return
        scores = np.array([s for _, _, s in rows])
        ok = np.isfinite(scores)
        ok &= np.array([(e, t) == p for (e, t, _), p in zip(rows, self.pairs)])
        for i, ref in self.oracle.items():
            ok[i] &= self._within_budget(scores[i], ref)
        if self.first_scores is None:
            self.first_scores = scores
        else:
            ok &= scores == self.first_scores
        self.failed += int(n - ok.sum())

    def llr_value(self, pair: int, score: float) -> None:
        ok = math.isfinite(score)
        if pair in self.probe_oracle:
            ok = ok and self._within_budget(score, self.probe_oracle[pair])
        ok = ok and self.first_probe.setdefault(pair, score) == score
        self.attempted += 1
        self.failed += not ok

    def finite(self, scores) -> None:
        self.attempted += len(scores)
        self.failed += int(np.sum(~np.isfinite(scores)))


class Run:
    """One benchmark run of one workload on inputs already written to ``work``."""

    def __init__(self, args, work: Path, started: float):
        self.args = args
        self.work = work
        self.deadline = started + DEADLINE_S
        self.manifest = json.loads((work / "manifest.json").read_text())
        files = {k: str(work / v) for k, v in self.manifest["files"].items()}
        self.files = files
        self.argv = ["score", "--model", files["model"], "--enroll", files["enroll"],
                     "--test", files["test"], "--trials", files["trials"],
                     "--priors", files["priors"], "--out", files["scores"]]
        self.check = Checker(work, self.manifest)
        self.n_trials = len(self.check.pairs)
        self.probe_e = np.load(work / "probe_enroll.npy")
        self.probe_t = np.load(work / "probe_test.npy")
        self.session = None
        self.probe_next = 0

    # loops -------------------------------------------------------------

    def done(self, start: float, rounds: int, budget_s: float, min_rounds: int) -> bool:
        """True when another round would overrun ``budget_s`` (once
        ``min_rounds`` ran) or the deadline."""
        now = time.perf_counter()
        typical = (now - start) / rounds
        if now + typical > self.deadline:
            return True
        return rounds >= min_rounds and now - start + typical > budget_s

    def setup_rep(self) -> float:
        """load_model + load_priors + precompute_session, timed on their own."""
        self.session = None
        gc.collect()
        t0 = time.perf_counter()
        model = io.load_model(self.files["model"])
        priors = io.load_priors(self.files["priors"])
        self.session = scoring.precompute_session(model, priors)
        return time.perf_counter() - t0

    def setup_reps(self, budget_s: float) -> list:
        times = [self.setup_rep()]
        while sum(times) < budget_s and time.perf_counter() < self.deadline:
            times.append(self.setup_rep())
        return times

    def score_rep(self, tracer=None) -> float:
        """One ``jplda score``, from reading the files to writing the scores."""
        # the benchmark's own session must not count in peak_rss_mb
        self.session = None
        Path(self.files["scores"]).unlink(missing_ok=True)
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(self.argv)
        else:
            tracer.begin_rep()
            code = tracer.span("cli.main", cli.main, self.argv)
        wall = time.perf_counter() - t0
        self.check.score_file(code, Path(self.files["scores"]))
        return wall

    def probe(self, budget_s: float, min_calls: int = 0) -> list:
        """Nanoseconds of each sequential ``llr`` call on raw vectors,
        cycling over the probe pairs across calls of this method."""
        lat = []
        start = time.perf_counter()
        while True:
            if len(lat) % 16 == 0:
                now = time.perf_counter()
                if now > self.deadline or (len(lat) >= min_calls and now - start >= budget_s):
                    break
            k = self.probe_next % len(self.probe_e)
            self.probe_next += 1
            t0 = time.perf_counter_ns()
            score = scoring.llr(self.session, self.probe_e[k], self.probe_t[k])
            lat.append(time.perf_counter_ns() - t0)
            self.check.llr_value(k, score)
        return lat

    # the two kinds of run -----------------------------------------------

    def end_to_end(self) -> dict:
        """Rounds of one ``jplda score``, then set-up reps and ``llr``
        calls for a fixed slice each: every metric samples the whole run,
        not one stretch of it, on a machine whose speed switches between
        two levels every few seconds.

        ``setup_s`` is the median over rounds of the mean set-up time in
        the round's slice; single set-ups of a few ms each land on one
        speed level, and their median jumps between the levels."""
        walls, setups, lat = [], [], []
        start = time.perf_counter()
        while True:
            wall = self.score_rep()
            walls.append(wall)
            setups.append(statistics.fmean(self.setup_reps(SETUP_SLICE_S)))
            lat += self.probe(PROBE_SLICE_S)
            if self.done(start, len(walls), self.args.seconds, MIN_REPS):
                break
        lat = np.array(lat)
        wall = statistics.median(walls)
        self.counts = {"score_walls_s": walls, "setup_batches_s": setups,
                       "llr_calls": int(lat.size)}
        return {
            "wall_s": (wall, "s"),
            "trials_per_s": (self.n_trials / wall, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            # Mean, not median, of the calls: the machine switches between
            # two speeds every few seconds, and the median of a two-speed
            # mix jumps between them (IQR 22 % against 8 % for the mean over
            # 25 s windows of llr calls). The call loop is the unit of work,
            # as wall_s is for a file.
            "llr_call_us": (float(np.mean(lat)) / 1e3, "us"),
        }

    def traced(self) -> dict:
        """Alternating untraced and traced ``jplda score`` reps, then a
        traced ``llr`` probe and the layer sweep."""
        tracer = tracing.Tracer()
        untraced, traced, reps = [], [], []
        start = time.perf_counter()
        while True:
            untraced.append(self.score_rep())
            tracing.install(tracer, io, scoring)
            try:
                reps.append(len(tracer.rep_starts))
                traced.append(self.score_rep(tracer))
            finally:
                tracer.unwrap()
            if self.done(start, len(traced), 0.6 * self.args.seconds, 2):
                break
        layers = [self.layer_metrics(tracer, r) for r in reps]
        self.setup_rep()
        tracing.install(tracer, io, scoring)
        try:
            tracer.begin_rep()
            self.probe(0.1 * self.args.seconds, MIN_PROBE_CALLS)
            llr_us = np.array(tracer.durations("scoring.llr")) * 1e6
            sweep = self.sweep(tracer)
        finally:
            tracer.unwrap()
        self.counts = {"untraced_reps": len(untraced), "traced_reps": len(traced)}

        out = {}
        for name, (_, unit) in layers[0].items():
            values = [m[name][0] for m in layers]
            median = statistics.median_low if unit in COUNT_UNITS else statistics.median
            out[name] = (median(values), unit)
        out["scoring.llr_us"] = (float(np.percentile(llr_us, 50)), "us")
        out["scoring.llr_p99_us"] = (float(np.percentile(llr_us, 99)), "us")
        out["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
        out["eer_pct"] = (self.eer_pct(), "%")
        out.update(sweep)
        self.write_trace(tracer, reps, statistics.median(traced))
        return out

    # per-layer metrics -----------------------------------------------------

    def layer_metrics(self, tracer, rep: int) -> dict:
        spans = tracer.summary(rep)
        counts = tracer.counters[rep]

        def total(name):
            return spans.get(name, {}).get("total_s", 0.0)

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        loop_s = _trial_loop_s(spans)
        per_trial_us = loop_s / self.n_trials * 1e6
        flops = self.manifest["flops_per_trial"]
        return {
            "cli.embedding_parses": (calls("io.load_embeddings"), "count"),
            "io.load_embeddings_s": (total("io.load_embeddings"), "s"),
            "io.parse_rows_per_s": (
                rate(counts.get("rows_parsed", 0), total("io.load_embeddings")), "1/s"),
            "io.bytes_read": (counts.get("bytes_read", 0), "B"),
            "io.load_trials_s": (total("io.load_trials"), "s"),
            "io.save_scores_s": (total("io.save_scores"), "s"),
            "io.save_rows_per_s": (
                rate(counts.get("rows_written", 0), total("io.save_scores")), "1/s"),
            "io.load_model_s": (total("io.load_model"), "s"),
            "model.validate_s": (total("model.validate"), "s"),
            "hypothesis.partition_s": (total("hypothesis.partition_factors"), "s"),
            "hypothesis.partitions": (calls("hypothesis.partition_factors"), "count"),
            "scoring.precompute_s": (total("scoring.precompute_session"), "s"),
            "scoring.build_k_s": (total("scoring.build_k_sum"), "s"),
            "scoring.build_k_calls": (calls("scoring.build_k_sum"), "count"),
            "scoring.precompute_self_s": (
                spans.get("scoring.precompute_session", {}).get("self_s", 0.0), "s"),
            "scoring.factorizations": (counts.get("factorizations", 0), "count"),
            "scoring.score_trials_s": (total("scoring.score_trials"), "s"),
            "scoring.project_calls": (calls("scoring.project"), "count"),
            "scoring.project_s": (total("scoring.project"), "s"),
            "scoring.per_trial_us": (per_trial_us, "us"),
            "scoring.per_hypothesis_ns": (
                per_trial_us * 1e3 / self.manifest["hypotheses"], "ns"),
            "scoring.computed_flops_per_trial": (flops, "flop"),
            "scoring.achieved_gflops": (rate(flops * self.n_trials, loop_s) / 1e9, "GFLOP/s"),
        }

    def sweep(self, tracer) -> dict:
        """precompute_s and per_trial_us over d x N; reported, not gated."""
        out = {}
        for label, d_full, d_tiny in workloads.SWEEP_D:
            for n in workloads.SWEEP_N:
                params = workloads.sweep_spec(d_tiny if self.args.tiny else d_full, n,
                                              self.args.tiny)
                model, priors, emb, trials, _ = workloads.make_pairs(params, self.args.seed)
                pre, per_trial = [], []
                for _ in range(3):
                    tracer.begin_rep()
                    session = scoring.precompute_session(model, priors)
                    self.check.finite(scoring.score_trials(session, emb, emb, trials))
                    spans = tracer.summary(len(tracer.rep_starts) - 1)
                    pre.append(spans.get("scoring.precompute_session", {}).get("total_s", 0.0))
                    per_trial.append(_trial_loop_s(spans) / len(trials) * 1e6)
                out[f"sweep.{label}.N{n}.precompute_s"] = (statistics.median(pre), "s")
                out[f"sweep.{label}.N{n}.per_trial_us"] = (statistics.median(per_trial), "us")
        return out

    def eer_pct(self) -> float:
        scores = self.check.first_scores
        if scores is None or not np.all(np.isfinite(scores)):
            return 0.0
        return 100.0 * metrics.eer(metrics.ScoredTrials(scores, self.check.key))

    def write_trace(self, tracer, reps, wall: float) -> None:
        """Spans of the whole traced run plus each layer's share of ``wall``."""
        selfs = {}
        for r in reps:
            for name, entry in tracer.summary(r).items():
                selfs.setdefault(name, []).append(entry["self_s"])
        shares = {name: statistics.median(v) / wall for name, v in selfs.items()}
        path = (self.work.parent / "traces"
                / f"{self.args.workload}-seed{self.args.seed}{'-tiny' if self.args.tiny else ''}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"self_share_of_wall": shares, **tracer.dump()}))
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
        print("self-time share of wall: " + ", ".join(f"{n} {v:.1%}" for n, v in top),
              file=sys.stderr)
        if tracer.absent:
            print("absent (not traced): " + ", ".join(tracer.absent), file=sys.stderr)


def _trial_loop_s(spans: dict) -> float:
    """Time in score_trials outside the projections: the per-trial loop."""
    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    return total("scoring.score_trials") - total("scoring.project")


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def run(args, work: Path, blas_threads: int, started: float):
    """Measure one workload; returns (facts, result) as JSON-ready dicts."""
    bench = Run(args, work, started)
    values = bench.traced() if args.trace else bench.end_to_end()
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "params_hash": bench.manifest["params_hash"],
        "trials": bench.n_trials,
        **bench.counts,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "src_lines": _src_lines(workloads.ROOT),
        "rel_err_budget": REL_ERR_BUDGET,
    }
    result = {
        "correct": bench.check.failed == 0,
        "attempted": bench.check.attempted,
        "failed": bench.check.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    return facts, result
