"""Traced replay of one CLI command in a cold process.

    python3 perfbench/trace_child.py SPANS_JSON ARGV...

Times the cold `import expander_cutoff.cli`, wraps the layer functions
(see layers.py), runs `cli.main(ARGV)` and writes the spans to SPANS_JSON.
The exit code is the command's.
"""

import sys
from time import perf_counter

import layers


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    from expander_cutoff import cli
    import_s = perf_counter() - t0
    rec = layers.Recorder()
    layers.install(rec)
    rc = rec.wrap("cli.main", cli.main)(argv)
    rec.dump(spans_path, import_s=import_s, rc=rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
