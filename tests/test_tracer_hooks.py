"""The benchmark's tooling against the package: the tracer
(perfbench/layers.py) still finds every layer it hooks, and the CLI still
parses every command of every workload (perfbench/workloads.py) and keeps
the flags of every command.  A change that deletes or renames a traced
function or a flag shows up here, not as a silently empty metric or a
failed benchmark run."""

import argparse
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import expander_cutoff
from expander_cutoff.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

# install monkeypatches the package, so it runs in a fresh process; the
# chain commands walk a RootChain through the traced mixing.step, whose
# byte count reads the chain's adjacency_csr()
_INSTALL_SCRIPT = """
import json, sys
import layers
from expander_cutoff import cli
rec = layers.Recorder()
layers.install(rec)
out = sys.argv[1]
for argv in (["build", "--h", "1", "--L", "2"],
             ["cutoff-report", "--variant", "cubic", "--L", "3",
              "--hmin", "2", "--hmax", "2"],
             ["hitting", "--chain", "--variant", "five_regular", "--h", "2",
              "--L", "2", "--samples", "100"]):
    assert cli.main(argv + ["--seed", "1", "--out", out + "/" + argv[0]]) == 0
print(json.dumps({"missing": rec.missing,
                  "spans": sorted({s[0] for s in rec.spans})}))
"""


def test_tracer_finds_every_hooked_layer(tmp_path):
    src = str(Path(expander_cutoff.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _INSTALL_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["missing"] == []
    # a build passes through the layers the build metrics read, and the
    # chain commands through the walk and chain layers; build writes
    # graph.ev from graphs.text_blocks, so graphs.to_text (still hooked, as
    # "missing" shows) is not among a build's spans
    assert {"cli.write", "construction.build", "expanders.make_expander",
            "graphs.finish", "graphs.is_bipartite",
            "mixing.step", "montecarlo.chain_sample",
            "montecarlo.chain_solve"} <= set(report["spans"])


# the file's globals; it imports only the standard library
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))


@pytest.mark.parametrize("name", sorted(WORKLOADS["WORKLOADS"]))
def test_every_workload_command_parses(name):
    workload = WORKLOADS["WORKLOADS"][name]
    inputs = WORKLOADS["Inputs"](seed=1, input_seed=1)
    commands = (workload.setup(inputs)
                + workload.study(inputs, Path("setup")))
    assert commands
    for command in commands:
        # argparse exits 2 on a flag or choice the command does not take
        args = build_parser().parse_args(command.argv)
        assert args.command == command.argv[0]


# every flag of every command, help included; the benchmark's commands use
# only some of them, so a flag dropped or added elsewhere shows up here
_COMMON_OPTIONS = ["--config", "--help", "--out", "--seed", "-h"]
_OPTIONS = {
    "build": ["--L", "--Lprime", "--h", "--m", "--min-gap", "--variant"],
    "spectral": ["--cheeger-exact", "--dirichlet", "--graph"],
    "profile": ["--eps", "--graph", "--laziness", "--starts", "--stride",
                "--tmax"],
    "hitting": ["--L", "--Lprime", "--chain", "--graph", "--h", "--raw",
                "--samples", "--start", "--variant"],
    "cutoff-report": ["--L", "--eps", "--hmax", "--hmin", "--laziness",
                      "--stride", "--tmax", "--variant"],
    "cylinder-sweep": ["--Ls", "--laziness", "--m", "--stride", "--tmax"],
    "nocutoff-demo": ["--L", "--Lprime", "--eps", "--h", "--laziness",
                      "--min-gap", "--samples", "--stride", "--tmax"],
}


def test_every_command_keeps_its_option_strings():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(_OPTIONS)
    for name, parser in commands.choices.items():
        options = sorted(s for a in parser._actions for s in a.option_strings)
        assert options == sorted(_OPTIONS[name] + _COMMON_OPTIONS), name
