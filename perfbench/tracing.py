"""In-memory span recorder that wraps module attributes of ``jplda``.

``cli.main`` and ``score_trials`` look their callees up as module
attributes at call time (``io.load_embeddings``, ``scoring.build_k_sum``
...), so replacing those attributes with timing wrappers records one
span per call without touching the program. A wrapped name that no
longer exists is recorded as absent instead of failing, because later
versions of the program may delete it.
"""

import os
import time

_MISSING = object()


class Tracer:
    """Spans are (name, start_ns, end_ns, parent index or -1)."""

    def __init__(self):
        self.spans = []
        self.counters = []  # one dict per rep
        self.rep_starts = []
        self.absent = []
        self._stack = []
        self._patched = []

    # recording ---------------------------------------------------------

    def begin_rep(self) -> None:
        self.rep_starts.append(len(self.spans))
        self.counters.append({})

    def count(self, name: str, amount) -> None:
        c = self.counters[-1]
        c[name] = c.get(name, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, time.perf_counter_ns(), parent)
            self._stack.pop()

    # wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, on_call=None) -> None:
        """Replace ``module.attr`` by a spanned wrapper until :meth:`unwrap`.

        ``on_call(args, result)`` may return {counter: amount} to add.
        """
        original = getattr(module, attr, _MISSING)
        if original is _MISSING:
            if f"{module.__name__}.{attr}" not in self.absent:
                self.absent.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if on_call is not None:
                for counter, amount in on_call(args, result).items():
                    self.count(counter, amount)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # summaries ---------------------------------------------------------

    def rep_spans(self, rep: int) -> list:
        end = self.rep_starts[rep + 1] if rep + 1 < len(self.rep_starts) else len(self.spans)
        return self.spans[self.rep_starts[rep] : end]

    def summary(self, rep: int) -> dict:
        """Per span name: calls, total seconds and self seconds in one rep.

        Self time is a span's duration minus the part of it that its
        child spans cover.
        """
        offset = self.rep_starts[rep]
        spans = self.rep_spans(rep)
        children = {}
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= offset:
                children.setdefault(parent - offset, []).append(i)
        out = {}
        for i, (name, start, end, _) in enumerate(spans):
            covered, reach = 0, start
            for c in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
                c_start, c_end = max(spans[c][1], reach), spans[c][2]
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - covered) / 1e9
        return out

    def durations(self, name: str) -> list:
        return [(e - s) / 1e9 for n, s, e, _ in self.spans if n == name]

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "absent": self.absent,
            "names": names,
            "rep_starts": self.rep_starts,
            "counters": self.counters,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }


def _path_bytes(args) -> dict:
    return {"bytes_read": os.path.getsize(args[0])}


def install(tracer: Tracer, io, scoring) -> None:
    """Wrap the layer entry points that ``jplda score`` and ``llr`` reach."""
    tracer.wrap(io, "load_model", "io.load_model", lambda a, r: _path_bytes(a))
    tracer.wrap(io, "load_priors", "io.load_priors", lambda a, r: _path_bytes(a))
    tracer.wrap(
        io, "load_embeddings", "io.load_embeddings",
        lambda a, r: {**_path_bytes(a), "rows_parsed": len(r)},
    )
    tracer.wrap(io, "load_trials", "io.load_trials", lambda a, r: _path_bytes(a))
    tracer.wrap(io, "save_scores", "io.save_scores", lambda a, r: {"rows_written": len(a[2])})
    tracer.wrap(io, "validate", "model.validate")
    tracer.wrap(scoring, "validate", "model.validate")
    tracer.wrap(
        scoring, "precompute_session", "scoring.precompute_session",
        lambda a, r: {"factorizations": len(getattr(r, "factorizations", ()))},
    )
    tracer.wrap(scoring, "partition_factors", "hypothesis.partition_factors")
    tracer.wrap(scoring, "build_k_sum", "scoring.build_k_sum")
    tracer.wrap(scoring, "score_trials", "scoring.score_trials")
    tracer.wrap(scoring, "_project_raw", "scoring.project")
    tracer.wrap(scoring, "llr", "scoring.llr")
