"""Outside-in tracing for the benchmark.

Spans are recorded only from the benchmark's files: ``traced`` replaces
public rdsvar functions under the names their callers look them up by
(``rdsvar.experiment.simulate_rds``, ``rdsvar.bootstrap.generator``, the
package attributes the benchmark itself calls, ...) with wrappers that
time each call, and restores the originals on exit. The wrappers never
touch arguments or results, so a traced run draws the same numbers as an
untraced one.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span tree plus named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._replications_left = 0  # simulate_rds calls still owed to replications

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def totals(self) -> Counter:
        """Inclusive seconds per span name."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_seconds(self, name: str) -> float:
        """Time inside spans called ``name`` that none of their direct children cover."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in own)
        return sum(own.values()) - covered


def _wrappers(tracer: Tracer) -> dict:
    """{(module, attribute): factory that wraps the original function}."""
    import rdsvar
    import rdsvar.bootstrap
    import rdsvar.experiment

    def timed(name, count=None):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = tracer.call(name, fn, *args, **kwargs)
                if count is not None:
                    count(out)
                return out

            return wrapper

        return wrap

    def calls(name):
        def count(out):
            tracer.counts[name] += 1

        return count

    def outcomes(out):
        tracer.counts["exact.outcomes"] += len(out.outcomes)

    def run_full(fn):
        @functools.wraps(fn)
        def wrapper(cfg, *args, **kwargs):
            tracer._replications_left = cfg.n_replications
            return tracer.call("experiment.run_full", fn, cfg, *args, **kwargs)

        return wrapper

    def simulate(fn):
        # workers=1: run_full simulates its R replications first, then the
        # width reference
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._replications_left > 0:
                tracer._replications_left -= 1
                name = "simulate.replication"
            else:
                name = "simulate.width_ref"
            forest = tracer.call(name, fn, *args, **kwargs)
            tracer.counts["simulate.calls"] += 1
            tracer.counts["simulate.entries"] += forest.n
            tracer.counts["simulate.truncated"] += forest.n_truncated
            return forest

        return wrapper

    def bootstrap_distributions(fn):
        @functools.wraps(fn)
        def wrapper(forest, cfg, *args, **kwargs):
            tracer.counts["bootstrap.replicates"] += cfg.n_replicates
            return tracer.call(f"bootstrap.{cfg.method}", fn, forest, cfg, *args, **kwargs)

        return wrapper

    def mc_moments(fn):
        @functools.wraps(fn)
        def wrapper(forest, z, method, estimator, B, *args, **kwargs):
            tracer.counts["bootstrap.mc.replicates"] += B
            return tracer.call(f"bootstrap.mc.{method}", fn, forest, z, method, estimator, B, *args, **kwargs)

        return wrapper

    generator = timed("rng.generator", calls("rng.generator.calls"))
    ex = rdsvar.experiment
    return {
        (rdsvar, "make_study_population"): timed("synth.make_study_population"),
        (rdsvar, "load_edge_list"): timed("graph.load_edge_list"),
        (rdsvar, "largest_connected_component"): timed("graph.largest_connected_component"),
        (rdsvar, "load_attributes"): timed("graph.load_attributes"),
        (rdsvar, "read_forest_csv"): timed("simulate.read_forest_csv"),
        (rdsvar, "run_full"): run_full,
        (ex, "simulate_rds"): simulate,
        (ex, "vh_estimate"): timed("estimators.vh_estimate", calls("estimators.vh_estimate.calls")),
        (ex, "bootstrap_distributions"): bootstrap_distributions,
        (ex, "percentile_ci"): timed("bootstrap.percentile_ci"),
        (ex, "bootstrap_variance"): timed("bootstrap.bootstrap_variance"),
        (ex, "generator"): generator,
        (rdsvar.bootstrap, "generator"): generator,
        (rdsvar, "generator"): generator,
        (rdsvar, "enumerate_neighbourhood"): timed("exact.enumerate_neighbourhood", outcomes),
        (rdsvar, "enumerate_tree"): timed("exact.enumerate_tree", outcomes),
        (rdsvar, "mc_bootstrap_moments"): mc_moments,
    }


@contextmanager
def traced(tracer: Tracer):
    """Route the traced rdsvar entry points through ``tracer`` for the block.

    A name a module no longer has is left alone, so a refactored module
    reads 0 on the layers it stopped looking up instead of failing the run.
    """
    saved = {}
    try:
        for (module, attr), wrap in _wrappers(tracer).items():
            if hasattr(module, attr):
                saved[module, attr] = getattr(module, attr)
                setattr(module, attr, wrap(saved[module, attr]))
        yield tracer
    finally:
        for (module, attr), original in saved.items():
            setattr(module, attr, original)
