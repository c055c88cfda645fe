"""The benchmark tracer (perfbench/layers.py) still finds every layer it
hooks: a change that deletes or renames a traced function shows up here,
not as a silently empty metric."""

import json
import os
import subprocess
import sys
from pathlib import Path

import expander_cutoff

ROOT = Path(__file__).resolve().parents[1]

# install monkeypatches the package, so it runs in a fresh process
_INSTALL_SCRIPT = """
import json, sys
import layers
from expander_cutoff import cli
rec = layers.Recorder()
layers.install(rec)
assert cli.main(["build", "--h", "1", "--L", "2", "--seed", "1",
                 "--out", sys.argv[1]]) == 0
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
    # a build passes through the layers the build metrics read
    assert {"cli.write", "construction.build", "expanders.make_expander",
            "graphs.finish", "graphs.to_text",
            "graphs.is_bipartite"} <= set(report["spans"])
