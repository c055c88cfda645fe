"""Outside-in span recorder for the expander_cutoff package, and the
per-layer metrics computed from its spans.

`install` wraps the public functions of each layer module from outside the
package.  Every wrapper records one span (name, parent, start, end) plus the
counters it can read from the call's arguments and return value.  Modules
that import a function by name (`from .expanders import make_expander`)
hold their own reference to it, so each wrapped function is replaced under
every name that refers to it in every loaded package module.  Methods are
replaced on their class.  `make_expander` keeps its `lru_cache`: the
wrapper calls the cached function, and a call that returns an object seen
before is counted as a cache hit.

Nothing here imports numpy; the package is imported by `install`.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

# (name, unit, better) for every per-layer metric, in report order.
METRICS = [
    ("cli.import_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.write_mb", "MB", "lower"),
    ("cli.read_s", "s", "lower"),
    ("expanders.make_expander_s", "s", "lower"),
    ("expanders.pairing_self_s", "s", "lower"),
    ("expanders.eigensolve_s", "s", "lower"),
    ("expanders.eigensolve_calls", "count", "lower"),
    ("expanders.eigensolve_n", "count", "lower"),
    ("expanders.attempts", "count", "lower"),
    ("expanders.accept_ratio", "ratio", "higher"),
    ("construction.build_s", "s", "lower"),
    ("construction.build_self_s", "s", "lower"),
    ("graphs.finish_s", "s", "lower"),
    ("graphs.finish_edges", "count", "lower"),
    ("graphs.checks_s", "s", "lower"),
    ("graphs.is_bipartite_s", "s", "lower"),
    ("graphs.bfs_calls", "count", "lower"),
    ("graphs.to_text_s", "s", "lower"),
    ("graphs.to_text_mb", "MB", "lower"),
    ("graphs.from_text_s", "s", "lower"),
    ("graphs.from_text_mb", "MB", "lower"),
    ("mixing.steps", "count", "lower"),
    ("mixing.step_s", "s", "lower"),
    ("mixing.step_us.p50", "us", "lower"),
    ("mixing.step_us.p99", "us", "lower"),
    ("mixing.step_bytes_computed", "B", "lower"),
    ("mixing.step_gbps_computed", "GB/s", "higher"),
    ("mixing.tv_calls", "count", "lower"),
    ("mixing.tv_s", "s", "lower"),
    ("mixing.profile_s", "s", "lower"),
    ("mixing.profile_self_s", "s", "lower"),
    ("mixing.renormalizations", "count", "lower"),
    ("montecarlo.graph_sampler_s", "s", "lower"),
    ("montecarlo.graph_sampler_steps", "count", "lower"),
    ("montecarlo.graph_sampler_steps_per_s", "1/s", "higher"),
    ("montecarlo.chain_build_s", "s", "lower"),
    ("montecarlo.chain_sampler_s", "s", "lower"),
    ("montecarlo.chain_sampler_steps", "count", "lower"),
    ("montecarlo.chain_sampler_steps_per_s", "1/s", "higher"),
    ("montecarlo.chain_solve_s", "s", "lower"),
    ("montecarlo.bimodality_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


class Recorder:
    """Spans kept in memory as [name, parent index, start, end, counters].

    One stack of open spans: every wrapped function is called from the main
    thread (the graph sampler's worker threads call only unwrapped code)."""

    def __init__(self):
        self.spans = []
        self.missing = []   # hooks whose target the package no longer has
        self._open = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def dump(self, path, **extra):
        Path(path).write_text(json.dumps(
            {"spans": self.spans, "missing": self.missing, **extra}))


def _step_bytes(args, result):
    # bytes one CSR matvec touches: data, indices, indptr, input and output
    a = args[0].adjacency_csr()
    return (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
            + 2 * 8 * a.shape[0])


def _expander_count(seen):
    def count(args, result):
        hit = id(result) in seen
        seen.add(id(result))
        return {"hit": hit, "attempts": result.attempts}
    return count


def _file_bytes(args, result):
    return Path(args[0]).stat().st_size


def install(rec: Recorder) -> None:
    """Wrap the layer functions of the loaded expander_cutoff package."""
    from expander_cutoff import (cli, construction, expanders, graphs,
                                 mixing, montecarlo)

    package = [m for k, m in sys.modules.items()
               if m is not None and k.split(".")[0] == "expander_cutoff"]

    def function(module, attr, name, count=None):
        original = getattr(module, attr, None)
        if original is None:
            rec.missing.append(f"{module.__name__}.{attr}")
            return
        traced = rec.wrap(name, original, count)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def method(cls, attr, name, count=None):
        original = getattr(cls, attr, None)
        if original is None:
            rec.missing.append(f"{cls.__qualname__}.{attr}")
            return
        setattr(cls, attr, rec.wrap(name, original, count))

    function(cli, "write_artifact", "cli.write", _file_bytes)
    function(cli, "write_json", "cli.write")
    function(cli, "read_artifact", "cli.read_artifact")
    function(expanders, "make_expander", "expanders.make_expander",
             _expander_count(set()))
    function(expanders, "adjacency_extremes", "expanders.adjacency_extremes",
             lambda a, r: a[0].vertex_count)
    function(construction, "build", "construction.build")
    method(graphs.GraphBuilder, "finish", "graphs.finish",
           lambda a, r: r.edge_count)
    function(graphs, "assert_regular", "graphs.assert_regular")
    function(graphs, "is_connected", "graphs.is_connected")
    function(graphs, "is_bipartite", "graphs.is_bipartite")
    function(graphs, "bfs_distances", "graphs.bfs_distances")
    function(graphs, "to_text", "graphs.to_text", lambda a, r: len(r))
    function(graphs, "from_text", "graphs.from_text", lambda a, r: len(a[0]))
    function(mixing, "step", "mixing.step", _step_bytes)
    function(mixing, "tv_to_uniform", "mixing.tv_to_uniform")
    function(mixing, "tv_profile_until", "mixing.profile",
             lambda a, r: r.renormalizations)
    function(montecarlo, "sample_hitting_times", "montecarlo.graph_sampler",
             lambda a, r: int(r.samples.sum()))
    function(montecarlo, "descent_chain", "montecarlo.descent_chain")
    function(montecarlo, "bimodality_check", "montecarlo.bimodality_check")
    method(montecarlo.DescentChain, "sample", "montecarlo.chain_sample",
           lambda a, r: int(r.sum()))
    method(montecarlo.DescentChain, "exact_mean", "montecarlo.chain_solve")
    method(montecarlo.DescentChain, "survival", "montecarlo.chain_solve")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of every process of one traced study


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    i = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[i]


def layer_metrics(processes, traced_s, untraced_s):
    """processes: the dumps of `Recorder` (one per CLI process), each with
    `spans` and `import_s`; traced_s and untraced_s are the study wall
    times with and without tracing."""
    total = {}
    calls = {}
    counters = {}
    self_s = {}
    step_us = []

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for proc in processes:
        spans = proc["spans"]
        child_s = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, parent, start, end, count) in enumerate(spans):
            dur = end - start
            add(self_s, name, dur - child_s[i])
            # a span inside one of the same name is already in its total
            if parent < 0 or spans[parent][0] != name:
                add(total, name, dur)
                add(calls, name, 1)
            if name == "mixing.step":
                step_us.append(dur * 1e6)
            if count is None:
                continue
            if name == "expanders.make_expander":
                if not count["hit"]:
                    add(counters, "expanders.attempts", count["attempts"])
                    add(counters, "expanders.certified", 1)
            else:
                add(counters, name, count)
        add(total, "cli.import", proc["import_s"])

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return counters.get(name, 0)

    def rate(num, den):
        return num / den if den else 0.0

    step_us.sort()
    out = {
        "cli.import_s": t("cli.import"),
        "cli.write_s": t("cli.write"),
        "cli.write_mb": c("cli.write") / 1e6,
        "cli.read_s": t("cli.read_artifact"),
        "expanders.make_expander_s": t("expanders.make_expander"),
        "expanders.pairing_self_s": self_s.get("expanders.make_expander", 0.0),
        "expanders.eigensolve_s": t("expanders.adjacency_extremes"),
        "expanders.eigensolve_calls": calls.get("expanders.adjacency_extremes", 0),
        "expanders.eigensolve_n": c("expanders.adjacency_extremes"),
        "expanders.attempts": c("expanders.attempts"),
        "expanders.accept_ratio": rate(c("expanders.certified"),
                                       c("expanders.attempts")),
        "construction.build_s": t("construction.build"),
        "construction.build_self_s": self_s.get("construction.build", 0.0),
        "graphs.finish_s": t("graphs.finish"),
        "graphs.finish_edges": c("graphs.finish"),
        "graphs.checks_s": (t("graphs.assert_regular") + t("graphs.is_connected")
                            + t("graphs.is_bipartite")),
        "graphs.is_bipartite_s": t("graphs.is_bipartite"),
        "graphs.bfs_calls": calls.get("graphs.bfs_distances", 0),
        "graphs.to_text_s": t("graphs.to_text"),
        "graphs.to_text_mb": c("graphs.to_text") / 1e6,
        "graphs.from_text_s": t("graphs.from_text"),
        "graphs.from_text_mb": c("graphs.from_text") / 1e6,
        "mixing.steps": len(step_us),
        "mixing.step_s": t("mixing.step"),
        "mixing.step_us.p50": _percentile(step_us, 0.50),
        "mixing.step_us.p99": _percentile(step_us, 0.99),
        "mixing.step_bytes_computed": c("mixing.step"),
        "mixing.step_gbps_computed": rate(c("mixing.step"),
                                          t("mixing.step")) / 1e9,
        "mixing.tv_calls": calls.get("mixing.tv_to_uniform", 0),
        "mixing.tv_s": t("mixing.tv_to_uniform"),
        "mixing.profile_s": t("mixing.profile"),
        "mixing.profile_self_s": self_s.get("mixing.profile", 0.0),
        "mixing.renormalizations": c("mixing.profile"),
        "montecarlo.graph_sampler_s": t("montecarlo.graph_sampler"),
        "montecarlo.graph_sampler_steps": c("montecarlo.graph_sampler"),
        "montecarlo.graph_sampler_steps_per_s": rate(
            c("montecarlo.graph_sampler"), t("montecarlo.graph_sampler")),
        "montecarlo.chain_build_s": t("montecarlo.descent_chain"),
        "montecarlo.chain_sampler_s": t("montecarlo.chain_sample"),
        "montecarlo.chain_sampler_steps": c("montecarlo.chain_sample"),
        "montecarlo.chain_sampler_steps_per_s": rate(
            c("montecarlo.chain_sample"), t("montecarlo.chain_sample")),
        "montecarlo.chain_solve_s": t("montecarlo.chain_solve"),
        "montecarlo.bimodality_s": t("montecarlo.bimodality_check"),
        "trace.overhead_frac": rate(traced_s - untraced_s, untraced_s),
    }
    return {name: out[name] for name, _, _ in METRICS}
