"""Run the benchmark over workloads and seeds and print one table per
workload: every metric by name and unit, its median and quartiles over the
runs, the quartile spread as a share of the median, the samples behind
each run's value, and the output-check result.

    python3 perfbench/report.py                       # cutoff-cubic, walks; seed 7
    python3 perfbench/report.py --seeds 1-10          # ten runs each, spreads
    python3 perfbench/report.py --workloads hitting --trace 1

Run from the root of a source checkout.  Spreads use
`statistics.quantiles(values, n=4)`; where BENCHMARK.json is present its
bounds are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _bounds():
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.exists():
        return {}
    return {m["name"]: m["bound"]
            for m in json.loads(manifest.read_text())["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=400)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="cutoff-cubic,walks",
                    help="comma-separated; build-profile and hitting are "
                         "walks' two halves")
    ap.add_argument("--seeds", default="7", help="e.g. 1-10 or 3,5")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = _bounds()
    worst = 0.0
    for workload in args.workloads.split(","):
        values, units, samples = {}, {}, {}
        attempted = failed = 0
        for seed in _seeds(args.seeds):
            result, record = run_once(workload, seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
                samples.setdefault(name, []).append(
                    len(record["samples"].get(name, [None])))
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds or not args.trace), flush=True)
        print(f"\n{workload}: {len(values.get(next(iter(values)), []))} runs, "
              f"{attempted} commands, {failed} failed")
        print(f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}  samples/run")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:40s} {units[name]:6s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {bound if bound else '':>6}  "
                  f"{','.join(map(str, samples[name]))}")
        print()
    if bounds and not args.trace:
        print(f"largest spread as a share of its bound (setup_s aside): "
              f"{worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
