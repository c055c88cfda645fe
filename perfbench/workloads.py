"""The benchmark's workloads: the CLI commands of each study, their set-up,
and the checks on every artifact they write.

Deterministic outputs are checked exactly against references recorded at
the commit that defined the benchmark.  Monte Carlo outputs are checked
statistically (mean within K_SIGMA standard errors of an exact mean), so a
change that re-streams samples still passes while a wrong law fails.
Artifacts are read here with the package's header rule (leading `#` lines)
rather than through the package, so the checks do not trust the code they
check.  See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

K_SIGMA = 5.0
DEFAULT_INPUT_SEED = 1

# cutoff-report --variant cubic --L 3 --hmin 3 --hmax 5 --stride 1:
# h -> (n, tmix(1/4), tmix(3/4), rounded cutoff ratio), per input seed
CUTOFF_REF = {
    1: {3: (11942, 256, 84, 3.048), 4: (81254, 421, 168, 2.506),
        5: (588518, 592, 273, 2.168)},
    2: {3: (11942, 256, 84, 3.048), 4: (81254, 421, 168, 2.506),
        5: (588518, 592, 273, 2.168)},
}
# cubic h=4 L=3 build: (vertices, edges)
BUILD_REF = (81254, 121881)
# profile --stride 1 on that build: start -> (tmix(1/4), tmix(3/4))
PROFILE_REF = {
    1: {0: (421, 168), 2: (418, 165), 54: (309, 90), 594: (7189, 39),
        18804: (7298, 39)},
    2: {0: (421, 168), 2: (418, 165), 54: (309, 89), 594: (7189, 39),
        18804: (7298, 40)},
}
# exact mean hitting time of the leaf level from vertex 0 on that build
# (sparse solve of (I - Q) h = 1 over the non-leaf vertices)
GRAPH_MEAN_REF = {1: 416.6828613281203, 2: 416.6828613281197}
# DescentChain.exact_mean() for five_regular h=16 L=4
CHAIN_MEAN_REF = 1822.2777777762506
GRAPH_SAMPLES = 10000
CHAIN_SAMPLES = 20000


def body(path: Path) -> str:
    """Artifact text without its `#` provenance header."""
    lines = path.read_text().splitlines(keepends=True)
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        i += 1
    return "".join(lines[i:])


def without_timestamp(path: Path) -> str:
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.startswith("# generated:"))


def _json(path: Path):
    return json.loads(body(path))


@dataclass
class Command:
    """One CLI process.  `argv` are the CLI arguments; `out` is the
    directory (relative to the study directory) holding everything the
    command writes; `check(out_dir)` returns the failed checks."""
    argv: list
    out: str
    check: Callable


@dataclass
class Workload:
    name: str
    setup: Callable    # Inputs -> [Command]
    study: Callable    # Inputs, set-up directory (relative) -> [Command]


@dataclass
class Inputs:
    seed: int          # Monte Carlo seed
    input_seed: int    # expander seed of every build


def _cli(*args) -> list:
    return [str(a) for a in args]


def _expect(failures, name, ok):
    if not ok:
        failures.append(name)


# ---------------------------------------------------------------------------
# checks


def check_census(out: Path):
    f = []
    census = _json(out / "census.json")
    _expect(f, "census vertices", census["vertices"] == BUILD_REF[0])
    _expect(f, "census edges", census["edges"] == BUILD_REF[1])
    _expect(f, "census degree", census["degree_min"] == census["degree_max"] == 3)
    head = body(out / "graph.ev").split("\n", 1)[0].split()
    _expect(f, "graph.ev header",
            head[:3] == ["ev", str(BUILD_REF[0]), str(BUILD_REF[1])])
    return f


def _check_summary(f, tag, s, t25, t75):
    """One MixingSummary dict at stride 1: brackets are (t - 1, t)."""
    _expect(f, f"{tag} tmix", s["tmix"] == {"0.25": t25, "0.75": t75})
    _expect(f, f"{tag} brackets", s["brackets"] == {
        "0.25": [t25 - 1, t25], "0.75": [t75 - 1, t75]})
    _expect(f, f"{tag} cutoff_ratio", s["cutoff_ratio"] == t25 / t75)
    _expect(f, f"{tag} window", s["window_estimate"] == t25 - t75)


def check_cutoff(input_seed):
    ref = CUTOFF_REF[input_seed]

    def check(out: Path):
        f = []
        rows = _json(out / "cutoff_vs_h.json")["rows"]
        csv = body(out / "cutoff_vs_h.csv").splitlines()[1:]
        _expect(f, "cutoff rows", [r["h"] for r in rows] == sorted(ref)
                and len(csv) == len(rows))
        for r, line in zip(rows, csv):
            n, t25, t75, ratio = ref[r["h"]]
            tag = f"h={r['h']}"
            _expect(f, f"{tag} n", r["n"] == n)
            _check_summary(f, tag, r, t25, t75)
            _expect(f, f"{tag} ratio {ratio}", round(r["cutoff_ratio"], 3) == ratio)
            _expect(f, f"{tag} csv row", line.split(",")[:4] == [
                str(r["h"]), str(n), str(t25), str(t75)])
        return f
    return check


def check_profile(input_seed):
    ref = PROFILE_REF[input_seed]

    def check(out: Path):
        f = []
        summary = _json(out / "profile_summary.json")
        starts = summary["starts"]
        _expect(f, "profile starts", [s["start"] for s in starts] == sorted(ref))
        for s in starts:
            t25, t75 = ref[s["start"]]
            _check_summary(f, f"start {s['start']}", s, t25, t75)
            rows = body(out / f"profile_start{s['start']}.csv").split()[1:]
            times = [int(r.split(",")[0]) for r in rows]
            _expect(f, f"start {s['start']} csv",
                    times == list(range(len(times)))
                    and float(rows[-1].split(",")[1]) < 0.25 * 0.98
                    and len(times) > t25)
        worst = max(starts, key=lambda s: s["tmix"]["0.25"])
        _expect(f, "worst start", summary["worst_start"] == worst)
        return f
    return check


def check_hitting(exact_mean, count):
    def check(out: Path):
        f = []
        h = _json(out / "hitting.json")
        stderr = h["stddev"] / math.sqrt(h["count"])
        _expect(f, "sample count", h["count"] == count)
        _expect(f, f"mean within {K_SIGMA} stderr of {exact_mean:.3f}",
                abs(h["mean"] - exact_mean) <= K_SIGMA * stderr)
        q = [h["quantiles"][k] for k in ("0.05", "0.25", "0.5", "0.75", "0.95")]
        _expect(f, "quantiles ordered", q == sorted(q) and q[0] >= 1)
        _expect(f, "bimodality present", "bimodality" in h
                and abs(sum(h["bimodality"]["cluster_weights"]) - 1) < 1e-9)
        return f
    return check


# ---------------------------------------------------------------------------
# workloads


def _build_h4(inputs):
    return Command(_cli("build", "--variant", "cubic", "--h", 4, "--L", 3,
                        "--seed", inputs.input_seed, "--out", "build"),
                   "build", check_census)


def _cutoff_study(inputs, setup_dir):
    return [Command(_cli("cutoff-report", "--variant", "cubic", "--L", 3,
                         "--hmin", 3, "--hmax", 5, "--seed", inputs.input_seed,
                         "--stride", 1, "--out", "report"),
                    "report", check_cutoff(inputs.input_seed))]


def _build_profile_study(inputs, setup_dir):
    return [_build_h4(inputs),
            Command(_cli("profile", "--graph", "build/graph.ev",
                         "--stride", 1, "--out", "profile"),
                    "profile", check_profile(inputs.input_seed))]


def _hitting_study(inputs, setup_dir):
    return _hitting_commands(inputs, setup_dir / "build" / "graph.ev")


def _walks_study(inputs, setup_dir):
    return (_build_profile_study(inputs, setup_dir)
            + _hitting_commands(inputs, Path("build", "graph.ev")))


def _hitting_commands(inputs, graph):
    return [Command(_cli("hitting", "--graph", graph, "--start", 0,
                         "--samples", GRAPH_SAMPLES, "--seed", inputs.seed,
                         "--out", "graph"),
                    "graph", check_hitting(GRAPH_MEAN_REF[inputs.input_seed],
                                           GRAPH_SAMPLES)),
            Command(_cli("hitting", "--chain", "--variant", "five_regular",
                         "--h", 16, "--L", 4, "--samples", CHAIN_SAMPLES,
                         "--seed", inputs.seed, "--out", "chain"),
                    "chain", check_hitting(CHAIN_MEAN_REF, CHAIN_SAMPLES))]


# BENCHMARK.json lists cutoff-cubic and walks.  walks is build-profile's
# study followed by hitting's commands on the graph it just built: one
# study that covers every layer cutoff-cubic does not, so that two
# workloads, with the reference passes that scale their times, fit the time
# a benchmark round may take.  build-profile and hitting stay runnable on
# their own to isolate a claim.
WORKLOADS = {
    w.name: w for w in [
        Workload("cutoff-cubic", lambda inputs: [], _cutoff_study),
        Workload("build-profile", lambda inputs: [], _build_profile_study),
        Workload("hitting", lambda inputs: [_build_h4(inputs)], _hitting_study),
        Workload("walks", lambda inputs: [], _walks_study),
    ]
}
