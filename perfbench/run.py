"""Benchmark of the expander_cutoff CLI: cold-process studies, checked
outputs, and an outside-in layer trace.

    python3 perfbench/run.py --workload cutoff-cubic --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  Each study is the workload's sequence of cold
`python -m expander_cutoff ...` processes, timed from spawn until the
process is reaped with its artifacts written.  With `--trace 0` the run
repeats the study (at least once) while another one is expected to end
within `--seconds`, times a fixed reference program (reference.py) before
and after each study, and reports the end-to-end metrics as medians of
times scaled to the reference speed, so that the host's drift cancels.
With `--trace 1` it runs one untraced study, then replays the same argv in
traced cold processes (trace_child.py) and reports the per-layer metrics,
unscaled.

`--seed` is the Monte Carlo seed of the sampling commands.  `--input-seed`
is the expander seed of every build; it stays fixed under `--seed` because
the certification cost of a build depends strongly on the graph drawn
(NOTES.md).  Human-readable lines come first; the last line of standard
output is the JSON result.  A full record, machine included, is written to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import machine
from workloads import (DEFAULT_INPUT_SEED, PROFILE_REF, WORKLOADS, Command,
                       Inputs, without_timestamp)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

SETUP_REPEATS = 5
# a pass of reference.py on the machine in NOTES.md: scaled times read close
# to measured seconds there
REF_S = 4.0
PROC_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0
PROBE = ["-c", "import expander_cutoff.cli as c; print(c.__file__)"]
END_TO_END = [("study_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("cpu_s", "s")]


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv, cwd: Path, log: Path) -> Proc:
    """Run one child to completion; its own rusage comes from wait4, so
    peak RSS and CPU are this child's alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        t0 = perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                             stderr=subprocess.STDOUT)
        timer = threading.Timer(PROC_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if p.returncode is None:
                p.kill()
                p.wait()
        wall = perf_counter() - t0
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0)


def _source_fingerprint() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


class Digests:
    """Digests of each command's artifacts (timestamp line removed), kept
    across runs for one source tree: every later run of the same argv must
    write the same bytes."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def same_as_before(self, key: str, out: Path) -> bool:
        got = {str(f.relative_to(out)):
               hashlib.sha256(without_timestamp(f).encode()).hexdigest()
               for f in sorted(out.rglob("*")) if f.is_file()}
        if key in self.known:
            return self.known[key] == got
        self.known[key] = got
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1))
        tmp.replace(self.path)
        return True


class Harness:
    """Runs command lists in fresh directories, checks what they write and
    counts operations and failures."""

    def __init__(self, work: Path, digests: Digests):
        self.work = work
        self.digests = digests
        self.attempted = 0
        self.failures = []

    def _record(self, label, fails):
        self.attempted += 1
        if fails:
            self.failures.append({"command": label, "failed": fails})

    def probe(self, d: Path) -> Proc:
        """Cold interpreter start importing the CLI: primes the page and
        bytecode caches and proves the package comes from this checkout."""
        log = d / "probe.log"
        proc = spawn([sys.executable, *PROBE], d, log)
        lines = log.read_text().splitlines()
        ok = (proc.rc == 0 and lines and
              Path(lines[-1]).resolve().parent == SRC / "expander_cutoff")
        self._record("import probe", [] if ok else ["package imports from src/"])
        return proc

    def commands(self, cmds, d: Path, traced=False):
        procs = []
        for i, cmd in enumerate(cmds):
            (d / cmd.out).mkdir(parents=True, exist_ok=True)
            if traced:
                argv = [sys.executable, str(TRACE_CHILD),
                        str(d / f"spans{i}.json"), *cmd.argv]
            else:
                argv = [sys.executable, "-m", "expander_cutoff", *cmd.argv]
            proc = spawn(argv, d, d / f"cmd{i}.log")
            procs.append(proc)
            self._record(" ".join(cmd.argv), self._check(cmd, proc, d))
        return procs

    def _check(self, cmd: Command, proc: Proc, d: Path):
        if proc.rc != 0:
            return [f"exit code {proc.rc}"]
        try:
            fails = cmd.check(d / cmd.out)
        except Exception as exc:  # malformed output is a failed check
            return [f"unreadable output: {exc!r}"]
        if not self.digests.same_as_before(" ".join(cmd.argv), d / cmd.out):
            fails.append("artifacts differ from an earlier run (timestamp aside)")
        return fails

    def reference(self) -> float:
        """Seconds of one pass of reference.py, timed inside its process."""
        log = self.work / "reference.log"
        proc = spawn([sys.executable, str(REFERENCE)], self.work, log)
        if proc.rc != 0:
            raise RuntimeError(f"reference.py exited {proc.rc}: "
                               + log.read_text()[-2000:])
        return float(log.read_text().split()[-1])

    def setup(self, workload, inputs, repeats):
        """Per-repeat set-up seconds; studies use the files of setup0."""
        times = []
        for r in range(repeats):
            d = self.work / f"setup{r}"
            d.mkdir(parents=True)
            procs = [self.probe(d)]
            procs += self.commands(workload.setup(inputs), d)
            times.append(sum(p.wall_s for p in procs))
        return times

    def study(self, workload, inputs, name, traced=False):
        d = self.work / name
        d.mkdir(parents=True)
        return self.commands(workload.study(inputs, Path("..", "setup0")), d,
                             traced)


def _summed(procs):
    return (sum(p.wall_s for p in procs), sum(p.cpu_s for p in procs),
            max(p.rss_mb for p in procs))


def end_to_end(h: Harness, workload, inputs, seconds, t_start):
    """Set-up, then studies with a pass of reference.py before the first
    and after each one.  Times are scaled to the reference speed: a
    study's wall and CPU time by REF_S over the mean of the passes either
    side of it, set-up's wall time by REF_S over the first pass."""
    setup_walls = h.setup(workload, inputs, SETUP_REPEATS)
    refs = [h.reference()]
    studies = []
    t_studies = perf_counter()
    while True:
        studies.append(_summed(h.study(workload, inputs,
                                       f"study{len(studies)}")))
        refs.append(h.reference())
        # start another study only if it and its reference, as long as the
        # medians so far, end within --seconds and the budget of a run
        next_s = (statistics.median(s[0] for s in studies)
                  + statistics.median(refs))
        if (perf_counter() - t_studies + next_s > seconds or
                perf_counter() - t_start + next_s > RUN_BUDGET_S):
            break
    scale = [2 * REF_S / (a + b) for a, b in zip(refs, refs[1:])]
    walls, cpus, rsss = zip(*studies)
    samples = {
        "study_s": [w * k for w, k in zip(walls, scale)],
        "setup_s": [t * REF_S / refs[0] for t in setup_walls],
        "peak_rss_mb": list(rsss),
        "cpu_s": [c * k for c, k in zip(cpus, scale)],
        "study_wall_s": list(walls), "setup_wall_s": setup_walls,
        "study_cpu_s": list(cpus), "reference_s": refs,
    }
    metrics = {k: statistics.median(samples[k]) for k, _ in END_TO_END}
    return metrics, samples, dict(END_TO_END)


def traced(h: Harness, workload, inputs):
    h.setup(workload, inputs, 1)
    untraced_s = _summed(h.study(workload, inputs, "untraced"))[0]
    traced_s = _summed(h.study(workload, inputs, "traced", traced=True))[0]
    dumps = [json.loads(f.read_text())
             for f in sorted((h.work / "traced").glob("spans*.json"))]
    metrics = layers.layer_metrics(dumps, traced_s, untraced_s)
    missing = sorted({m for dump in dumps for m in dump["missing"]})
    if missing:
        print("hooks without a target (their metrics read 0): "
              + ", ".join(missing))
    samples = {"untraced_study_s": [untraced_s], "traced_study_s": [traced_s]}
    return metrics, samples, layers.UNITS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7,
                    help="Monte Carlo seed of the sampling commands")
    ap.add_argument("--input-seed", type=int, default=DEFAULT_INPUT_SEED,
                    choices=sorted(PROFILE_REF),
                    help="expander seed of the builds; references are "
                         "recorded for these")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="time spent repeating the study, at least once "
                         "(--trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "expander_cutoff" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2

    t_start = perf_counter()
    seed = args.seed
    workload = WORKLOADS[args.workload]
    inputs = Inputs(seed=seed, input_seed=args.input_seed)
    work = STATE / "work" / f"{args.workload}-{seed}-{args.trace}-{os.getpid()}"
    h = Harness(work, Digests(STATE / "digests" /
                              f"{_source_fingerprint()}.json"))
    if args.trace:
        metrics, samples, units = traced(h, workload, inputs)
    else:
        metrics, samples, units = end_to_end(h, workload, inputs,
                                             args.seconds, t_start)
    failed = len(h.failures)
    record = {
        "workload": args.workload, "seed": seed,
        "input_seed": args.input_seed, "trace": args.trace,
        "machine": machine.record(ROOT), "samples": samples,
        "metrics": metrics, "attempted": h.attempted, "failed": failed,
        "failures": h.failures, "elapsed_s": perf_counter() - t_start,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if failed == 0:
        shutil.rmtree(work)

    print(f"workload {args.workload}  seed {seed}  input seed "
          f"{args.input_seed}  trace {args.trace}")
    print("machine " + json.dumps(record["machine"]))
    for name, value in metrics.items():
        n = f"n={len(samples[name])}" if name in samples else ""
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} {n}")
    if "reference_s" in samples:
        print("  unscaled medians: " + "  ".join(
            f"{k} {statistics.median(samples[k]):.6g}" for k in
            ("study_wall_s", "setup_wall_s", "study_cpu_s", "reference_s")))
    print(f"checks: {h.attempted} commands, {failed} failed")
    for f in h.failures:
        print(f"  FAILED {f['command']}: {'; '.join(f['failed'])}")
    if failed:
        print(f"  logs kept in {work}")
    print(json.dumps({
        "correct": failed == 0, "attempted": h.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
