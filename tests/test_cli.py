import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expander_cutoff
from expander_cutoff import cli, construction, mixing, montecarlo
from expander_cutoff.cli import (_apply_config, build_parser, main,
                                 read_artifact, read_json)
from expander_cutoff.construction import ConstructionParams
from expander_cutoff.expanders import ExpanderSpec, make_expander
from expander_cutoff.graphs import to_text
from expander_cutoff.mixing import cutoff_report, default_starts
from expander_cutoff.montecarlo import chain_start, descent_chain


def run(*argv):
    return main(list(argv))


def test_build_and_census(tmp_path):
    out = tmp_path / "run"
    rc = run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
             "--seed", "1", "--out", str(out))
    assert rc == 0
    census = read_json(out / "census.json")
    assert census["levels"]["2"] == 20
    assert census["levels"]["3"] == 80
    assert census["levels"]["5"] == 1280
    assert census["degree_min"] == census["degree_max"] == 5
    assert (out / "graph.ev").exists()


def test_build_requires_seed(tmp_path):
    rc = run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
             "--out", str(tmp_path))
    assert rc == 2


def test_profile_missing_graph(tmp_path):
    rc = run("profile", "--graph", str(tmp_path / "nope.ev"),
             "--out", str(tmp_path))
    assert rc == 2


def test_profile_and_spectral(tmp_path):
    out = tmp_path / "run"
    run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
        "--seed", "1", "--out", str(out))
    rc = run("profile", "--graph", str(out / "graph.ev"), "--starts", "0",
             "--tmax", "400", "--stride", "1", "--out", str(out))
    assert rc == 0
    body = read_artifact(out / "profile_start0.csv")
    assert body.splitlines()[0] == "t,tv"
    summary = read_json(out / "profile_summary.json")
    assert summary["worst_start"]["start"] == 0
    rc = run("spectral", "--graph", str(out / "graph.ev"), "--out", str(out))
    assert rc == 0
    rep = read_json(out / "spectral.json")
    assert 0.0 < rep["gap"] < 1.0


def test_start_outside_graph_exits_1(tmp_path):
    out = tmp_path / "run"
    run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
        "--seed", "1", "--out", str(out))
    graph = str(out / "graph.ev")
    for start in ("999999", "-1"):
        assert run("profile", "--graph", graph, "--starts", start,
                   "--out", str(out)) == 1
        assert run("hitting", "--graph", graph, "--start", start,
                   "--samples", "10", "--seed", "1", "--out", str(out)) == 1


def test_truncated_graph_exits_1(tmp_path):
    out = tmp_path / "run"
    run("build", "--variant", "cubic", "--h", "2", "--L", "2",
        "--seed", "3", "--out", str(out))
    lines = (out / "graph.ev").read_text().splitlines(keepends=True)
    for keep in (len(lines) // 2, len(lines) - 1):
        bad = tmp_path / f"cut{keep}.ev"
        bad.write_text("".join(lines[:keep]))
        assert run("profile", "--graph", str(bad), "--out", str(out)) == 1
    mangled = tmp_path / "mangled.ev"
    mangled.write_text("".join(lines[:5] + ["1 x\n"] + lines[6:]))
    assert run("spectral", "--graph", str(mangled), "--out", str(out)) == 1


@pytest.mark.parametrize("text, message", [
    ("ev 0 0 0 0 c\nlevels\n", "no nontrivial eigenvalue on 0 vertices"),
    ("ev 1 0 0 0 c\nlevels\n0 0 Leaf\n",
     "no nontrivial eigenvalue on 1 vertices")],
    ids=["0-vertices", "1-vertex"])
def test_spectral_on_fewer_than_two_vertices_exits_1(tmp_path, capsys, text,
                                                     message):
    graph = tmp_path / "tiny.ev"
    graph.write_text(text)
    assert run("spectral", "--graph", str(graph), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "spectral.json").exists()


@pytest.mark.parametrize("argv", [
    ("--variant", "five_regular", "--h", "4", "--L", "2"),
    ("--variant", "no_cutoff", "--h", "4", "--L", "2", "--Lprime", "4")],
    ids=["five_regular", "no_cutoff"])
def test_oversized_tree_build_is_refused_before_any_pairing(
        tmp_path, capsys, monkeypatch, argv):
    """five_regular h=4 L=2 has 2,245,700,130 arcs, more than int32 CSR
    index arrays hold; no_cutoff has at least as many."""
    def no_pairing(spec):
        raise AssertionError("an expander was drawn for a refused build")

    monkeypatch.setattr(construction, "make_expander", no_pairing)
    out = tmp_path / "run"
    assert run("build", *argv, "--seed", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {argv[1]} h=4 L=2 needs at least 2245700130 arcs, past "
        f"int32 CSR indices\n")
    assert not out.exists()


@pytest.mark.parametrize("edge_line", ["1 0", "2 2", "0 3"])
def test_bad_edge_line_exits_1(tmp_path, capsys, edge_line):
    bad = tmp_path / "bad.ev"
    bad.write_text(f"ev 3 2 0 0 custom\n0 1\n{edge_line}\nlevels\n"
                   + "".join(f"{v} 0 TreeNode\n" for v in range(3)))
    assert run("profile", "--graph", str(bad), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_repeated_level_line_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ev"
    bad.write_text("ev 3 2 0 0 c\n0 1\n1 2\nlevels\n"
                   "0 5 Leaf\n0 5 Leaf\n2 5 Leaf\n")
    assert run("profile", "--graph", str(bad), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: line 6: expected vertex 1")


@pytest.mark.parametrize("text", [
    # two tree nodes, no leaf at all
    "ev 2 1 0 0 c\n0 1\nlevels\n0 0 TreeNode\n1 0 TreeNode\n",
    # the only leaf sits in the other component
    "ev 4 2 0 0 c\n0 1\n2 3\nlevels\n"
    "0 0 TreeNode\n1 0 TreeNode\n2 0 TreeNode\n3 1 Leaf\n",
    # the start is isolated
    "ev 2 0 0 0 c\nlevels\n0 0 TreeNode\n1 1 Leaf\n",
], ids=["no_leaf", "leaf_elsewhere", "isolated_start"])
def test_hitting_without_reachable_leaf_exits_1(tmp_path, capsys, text):
    graph = tmp_path / "noleaf.ev"
    graph.write_text(text)
    assert run("hitting", "--graph", str(graph), "--start", "0",
               "--samples", "10", "--seed", "1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "error: no leaf vertex is reachable from start 0\n")


_ISOLATED = ("ev 3 1 1 1 custom\n0 1\nlevels\n"
             + "".join(f"{v} 0 TreeNode\n" for v in range(3)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, starts, message", [
    ("ev 0 0 1 1 custom\nlevels\n", (),
     "graph has no vertices: no start to walk from"),
    (_ISOLATED, (), "vertex 2 has degree 0: the walk is undefined there"),
    (_ISOLATED, ("--starts", "0"),
     "vertex 2 has degree 0: the walk is undefined there"),
], ids=["empty", "isolated_vertex", "isolated_vertex_start_0"])
def test_profile_refuses_a_graph_it_cannot_walk(tmp_path, capsys, text,
                                                starts, message):
    """An empty graph is refused before a start is chosen, and a vertex of
    degree 0 before the first step divides by its degree: exit 1 with
    the reason, no traceback, no warning and no artifact."""
    graph = tmp_path / "bad.ev"
    graph.write_text(text)
    out = tmp_path / "run"
    assert run("profile", "--graph", str(graph), *starts, "--tmax", "50",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_hitting_chain_mode(tmp_path):
    out = tmp_path / "hit"
    rc = run("hitting", "--chain", "--variant", "five_regular", "--h", "4",
             "--L", "2", "--samples", "2000", "--seed", "5",
             "--out", str(out))
    assert rc == 0
    body = read_json(out / "hitting.json")
    assert abs(body["mean"] - 100.0) / 100.0 < 0.15
    assert body["predicted"] == pytest.approx(100.0)


def test_hitting_chain_mode_cubic(tmp_path):
    out = tmp_path / "hit"
    assert run("hitting", "--chain", "--variant", "cubic", "--h", "3",
               "--L", "3", "--seed", "5", "--out", str(out)) == 0
    body = read_json(out / "hitting.json")
    exact = descent_chain(
        ConstructionParams(h=3, L=3, variant="cubic")).exact_mean()
    stderr = body["stddev"] / body["count"] ** 0.5
    assert abs(body["mean"] - exact) < 5 * stderr


@pytest.mark.parametrize("start", [0, 6])
def test_hitting_chain_reports_exact_mean(tmp_path, start):
    out = tmp_path / "hit"
    assert run("hitting", "--chain", "--variant", "five_regular", "--h", "3",
               "--L", "2", "--start", str(start), "--samples", "4000",
               "--seed", "5", "--out", str(out)) == 0
    body = read_json(out / "hitting.json")
    chain = descent_chain(ConstructionParams(h=3, L=2))
    assert body["exact_mean"] == chain.exact_mean(chain_start(chain, start))
    assert body["stderr"] == body["stddev"] / math.sqrt(body["count"])
    assert abs(body["mean"] - body["exact_mean"]) < 4 * body["stderr"]


def test_hitting_chain_on_no_cutoff_writes_chain_mean(tmp_path):
    """no_cutoff's class chain is not exact, so its mean is chain_mean."""
    out = tmp_path / "hit"
    assert run("hitting", "--chain", "--variant", "no_cutoff", "--h", "2",
               "--L", "2", "--Lprime", "4", "--samples", "1000",
               "--seed", "5", "--out", str(out)) == 0
    body = read_json(out / "hitting.json")
    assert "exact_mean" not in body
    chain = descent_chain(ConstructionParams(h=2, L=2, L_prime=4,
                                             variant="no_cutoff"))
    assert body["chain_mean"] == chain.exact_mean(chain_start(chain, 0))
    assert body["chain_mean"] == pytest.approx(67.0663, abs=1e-4)


def test_hitting_graph_mode(tmp_path):
    out = tmp_path / "hit2"
    run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
        "--seed", "1", "--out", str(out))
    graph = out / "graph.ev"
    rc = run("hitting", "--graph", str(graph), "--start", "0",
             "--samples", "300", "--seed", "5", "--raw", "--out", str(out))
    assert rc == 0
    raw = read_artifact(out / "hitting_samples.txt").split()
    assert len(raw) == 300
    assert "exact_mean" not in read_json(out / "hitting.json")
    # the header names what was read, and no chain parameter
    header = (out / "hitting.json").read_text().splitlines()[2]
    assert header == (f"# command: hitting graph={graph} samples=300 seed=5 "
                      "start=0")


@pytest.mark.parametrize("flag, value", [
    ("--chain", None), ("--variant", "cubic"), ("--h", "9"), ("--L", "7"),
    ("--Lprime", "0"),
])
def test_hitting_refuses_graph_with_chain_flags(tmp_path, capsys, flag,
                                                value):
    # refused before the file is read
    out = tmp_path / "run"
    argv = ("hitting", "--graph", str(tmp_path / "g.ev"), "--samples", "10",
            "--seed", "1", "--out", str(out))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}={value or 1}\n")
    for given in ((flag,) if value is None else (flag, value),
                  ("--config", str(cfg))):
        assert run(*argv, *given) == 2
        assert capsys.readouterr().err == \
            f"error: --graph cannot be combined with {flag}\n"
    assert not out.exists()


def test_determinism_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run("build", "--variant", "cubic", "--h", "2", "--L", "2",
            "--seed", "3", "--out", str(out))
        run("hitting", "--chain", "--variant", "five_regular", "--h", "2",
            "--L", "2", "--samples", "500", "--seed", "9", "--out", str(out))
    for name in ("graph.ev", "census.json", "hitting.json"):
        a = (out1 / name).read_text().splitlines()
        b = (out2 / name).read_text().splitlines()
        diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert all(a[i].startswith("# generated:") for i in diff), name
        assert len(a) == len(b)


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant=cubic\nh=2\nL=2\nseed=4\n")
    out = tmp_path / "cfg_out"
    rc = run("build", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    census = read_json(out / "census.json")
    assert census["levels"]["2"] == 6


def test_config_eps_is_a_checked_list(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    argv = ("cutoff-report", "--variant", "cubic", "--L", "3", "--hmin", "2",
            "--hmax", "2", "--seed", "1", "--config", str(cfg))
    cfg.write_text("eps=0.5,0.1\n")
    assert run(*argv, "--out", str(tmp_path / "ok")) == 0
    tmix = read_json(tmp_path / "ok" / "cutoff_vs_h.json")["rows"][0]["tmix"]
    assert sorted(tmix) == ["0.1", "0.25", "0.5", "0.75"]
    capsys.readouterr()
    for text, err in (("eps=0.5,2\n", "--eps must lie in (0, 1), got 2.0"),
                      ("eps=0.x\n", "bad value for config key eps: '0.x'"),
                      ("tmax=two\n", "bad value for config key tmax: 'two'")):
        cfg.write_text(text)
        assert run(*argv, "--out", str(tmp_path / "bad")) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("argv, value", [
    (("hitting", "--chain", "--h", "2", "--L", "2"), "cylinder"),
    (("build", "--h", "1", "--L", "2"), "bogus"),
], ids=["hitting-cylinder", "build-bogus"])
def test_config_values_take_the_flags_choices(tmp_path, capsys, argv, value):
    # the flag form is refused by argparse; the config form used to reach
    # the build and exit 1 there
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--variant", value, "--seed", "1", "--out", str(out))
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"variant={value}\n")
    assert run(*argv, "--config", str(cfg), "--seed", "1",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid choice for config key variant: "
                          f"'{value}'")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("build", "--h", "0", "--L", "2"), "h must be >= 1"),
    (("build", "--variant", "no_cutoff", "--h", "2", "--L", "2", "--Lprime",
      "2"), "no_cutoff requires L_prime > L"),
    (("hitting", "--chain", "--variant", "no_cutoff", "--h", "3", "--L", "2",
      "--Lprime", "4", "--samples", "10"), "no_cutoff requires even h"),
    (("nocutoff-demo", "--h", "3", "--L", "2", "--Lprime", "4"),
     "no_cutoff requires even h"),
    (("cylinder-sweep", "--m", "3", "--Ls", "5,9"),
     "cylinder host size m must be >= 4"),
    # L=5 is valid: nothing is built before L=7 is refused
    (("cylinder-sweep", "--m", "4", "--Ls", "5,7"),
     "cylinder length must satisfy L = 1 (mod 4)"),
    (("cutoff-report", "--variant", "cubic", "--L", "3", "--hmin", "0",
      "--hmax", "2"), "h must be >= 1"),
    # the rules of the expanders a build requests (ExpanderSpec.validate)
    (("build", "--variant", "cubic", "--h", "2", "--L", "3", "--min-gap",
      "1.5"), "min_gap must lie in (0, 1), got 1.5"),
    (("build", "--variant", "cylinder", "--m", "5", "--L", "5"),
     "degree * size must be even, got 3 * 5"),
    (("cylinder-sweep", "--m", "5"), "degree * size must be even, got 3 * 5"),
    (("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4", "--min-gap",
      "1.5"), "min_gap must lie in (0, 1), got 1.5"),
    (("nocutoff-demo", "--h", "4", "--L", "2", "--Lprime", "4", "--min-gap",
      "0"), "min_gap must lie in (0, 1), got 0.0"),
    (("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4", "--samples",
      "999"), "--samples must be >= 1000 for the bimodality check, got 999"),
    (("cylinder-sweep", "--m", "4", "--Ls", "5,5,9"),
     "--Ls must be distinct, got 5,5,9"),
], ids=["build-h0", "build-lprime", "hitting-odd-h", "nocutoff-odd-h",
        "sweep-m3", "sweep-L7", "report-h0", "build-min-gap", "build-odd-m",
        "sweep-odd-m", "nocutoff-min-gap-h2", "nocutoff-min-gap-h4",
        "nocutoff-samples", "sweep-repeated-L"])
def test_parameter_errors_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                 argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the parameters were checked")

    for module, name in ((construction, "build"), (construction, "root_chain"),
                         (montecarlo, "descent_chain")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "run"
    assert run(*argv, "--seed", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_SEED_CASES = {
    # a build keys its two expanders with seed and seed + 1
    "build": (("build", "--variant", "cubic", "--h", "2", "--L", "3"),
              2**64 - 2),
    "nocutoff-demo": (("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime",
                       "4", "--samples", "1000"), 2**64 - 2),
    "hitting-chain": (("hitting", "--chain", "--variant", "five_regular",
                       "--h", "4", "--L", "2", "--samples", "100"), 2**64 - 1),
    "hitting-graph": (("hitting", "--graph", "graph.ev", "--samples", "100"),
                      2**64 - 1),
    "cylinder-sweep": (("cylinder-sweep", "--Ls", "5,9"), 2**64 - 1),
}


@pytest.mark.parametrize("case", sorted(_SEED_CASES))
@pytest.mark.parametrize("past", [-1, 1])
def test_seed_outside_philox_keys_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, case, past):
    """A seed below 0, or one whose highest Philox key (seed + 1 for a
    build) leaves uint64, is refused before anything is read or built,
    where numpy raised OverflowError mid-command."""
    argv, top = _SEED_CASES[case]
    seed = -1 if past < 0 else top + 1

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    for module, name in ((construction, "build"), (montecarlo, "descent_chain"),
                         (cli, "_load_graph")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "run"
    assert run(*argv, "--seed", str(seed), "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: --seed must lie in "
                                       f"[0, {top}], got {seed}\n")
    assert not out.exists()


def test_highest_seed_a_command_takes_runs(tmp_path):
    """The largest seed each sampler takes runs to the end."""
    for case in ("hitting-chain", "nocutoff-demo"):
        argv, top = _SEED_CASES[case]
        assert run(*argv, "--seed", str(top), "--out",
                   str(tmp_path / case)) == 0
    argv, top = _SEED_CASES["build"]
    assert run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
               "--seed", str(top), "--out", str(tmp_path / "build")) == 0
    assert read_json(tmp_path / "build" / "census.json")["meta"]["seeds"] == [
        top, top + 1]


@pytest.mark.parametrize("case", ["graph_dir", "graph_bytes", "config_bytes",
                                  "out_file", "out_below_file"])
def test_bad_paths_exit_2(tmp_path, capsys, case):
    blob = tmp_path / "blob"
    blob.write_bytes(b"\xff\xfe not utf-8\n")
    out = str(tmp_path / "out")
    build = ("build", "--variant", "cubic", "--h", "2", "--L", "2",
             "--seed", "1", "--out")
    argv = {
        "graph_dir": ("profile", "--graph", str(tmp_path), "--out", out),
        "graph_bytes": ("profile", "--graph", str(blob), "--out", out),
        "config_bytes": ("build", "--config", str(blob), "--out", out),
        "out_file": build + (str(blob),),
        "out_below_file": build + (str(blob / "run"),),
    }[case]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant=five_regular\nh=2\nL=2\nseed=4\n")
    out = tmp_path / "ovr"
    rc = run("build", "--config", str(cfg), "--h", "1", "--out", str(out))
    assert rc == 0
    census = read_json(out / "census.json")
    assert census["levels"]["3"] == 80  # h = 1 from the flag


def test_config_sets_flags_that_have_defaults(tmp_path, capsys):
    # these keys used to be dropped because their flags were not None
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "cfg_out"
    cfg.write_text(f"samples=100\nraw=1\nstart=1\nout={out}\n")
    argv = ("hitting", "--chain", "--h", "2", "--L", "2", "--seed", "1",
            "--config", str(cfg))
    assert run(*argv) == 0
    assert read_json(out / "hitting.json")["count"] == 100
    assert len(read_artifact(out / "hitting_samples.txt").split()) == 100
    header = (out / "hitting.json").read_text().splitlines()[2]
    assert {"samples=100", "start=1"} <= set(header.split())
    # an explicit flag still wins over the file
    flag_out = tmp_path / "flag_out"
    assert run(*argv, "--samples", "30", "--out", str(flag_out)) == 0
    assert read_json(flag_out / "hitting.json")["count"] == 30
    cfg.write_text("raw=maybe\n")
    assert run(*argv, "--out", str(tmp_path / "bad")) == 2
    assert capsys.readouterr().err.endswith(
        "error: bad value for config key raw: 'maybe'\n")


@pytest.mark.parametrize("argv, text, expected", [
    (("spectral", "--graph", "g.ev"), "",
     {"cheeger_exact": False, "dirichlet": False, "out": "out"}),
    (("spectral", "--graph", "g.ev"), "cheeger-exact=1\ndirichlet=true\n",
     {"cheeger_exact": True, "dirichlet": True}),
    (("spectral", "--graph", "g.ev", "--dirichlet"), "dirichlet=0\n",
     {"dirichlet": True}),
    (("hitting",), "",
     {"chain": False, "raw": False, "start": "0", "samples": 10000}),
    (("hitting",), "chain=True\nraw=false\n", {"chain": True, "raw": False}),
    (("cylinder-sweep",), "", {"m": 4, "Ls": "5,9,13"}),
    (("cylinder-sweep",), "m=6\nLs=5,7\n", {"m": 6, "Ls": "5,7"}),
    (("cylinder-sweep", "--m", "8"), "m=6\n", {"m": 8}),
    (("nocutoff-demo",), "", {"samples": 5000}),
    (("build",), "", {"m": 0, "variant": "five_regular"}),
])
def test_config_resolution(tmp_path, argv, text, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    args = build_parser().parse_args([*argv, "--config", str(cfg)])
    _apply_config(args)
    assert {k: getattr(args, k) for k in expected} == expected


def test_nocutoff_demo(tmp_path):
    out = tmp_path / "nc"
    rc = run("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4",
             "--seed", "2", "--samples", "2000", "--stride", "1",
             "--out", str(out))
    assert rc == 0
    body = read_json(out / "nocutoff.json")
    assert body["exact_cutoff"]["cutoff_ratio"] >= 1.1
    assert "bimodality" in body
    hitting = body["hitting"]
    assert hitting["stderr"] == hitting["stddev"] / math.sqrt(hitting["count"])


def test_nocutoff_demo_reports_every_eps(tmp_path):
    out = tmp_path / "nc"
    rc = run("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4",
             "--eps", "0.1", "--seed", "2", "--samples", "1000",
             "--out", str(out))
    assert rc == 0
    exact = read_json(out / "nocutoff.json")["exact_cutoff"]
    assert sorted(exact["tmix"]) == sorted(exact["brackets"]) == [
        "0.1", "0.25", "0.75"]
    assert exact["tmix"]["0.1"] > exact["tmix"]["0.25"]


@pytest.mark.parametrize("flags, named", [
    (("--min-gap", "0.5"), "--min-gap"),
    (("--laziness", "0.3", "--stride", "7", "--tmax", "3", "--eps", "0.1"),
     "--eps, --tmax, --stride, --laziness"),
], ids=["min-gap", "walk"])
def test_nocutoff_demo_refuses_flags_it_does_not_read(tmp_path, capsys,
                                                      monkeypatch, flags,
                                                      named):
    """Above h=2 nocutoff-demo builds and walks nothing, so a flag that
    only the build or the walk reads exits 2 before any work, set on the
    command line or in the config."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(montecarlo, "descent_chain", no_work)
    argv = ("nocutoff-demo", "--h", "4", "--L", "2", "--Lprime", "4",
            "--seed", "1", "--out", str(tmp_path / "run"))
    message = (f"error: nocutoff-demo builds and walks only at h <= 2, so "
               f"at h=4 it reads no {named}\n")
    assert run(*argv, *flags) == 2
    assert capsys.readouterr().err == message
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flags[i][2:]}={flags[i + 1]}\n"
                           for i in range(0, len(flags), 2)))
    assert run(*argv, "--config", str(cfg)) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "run").exists()


def test_threaded_profile_writes_the_same_bodies_twice(tmp_path,
                                                       monkeypatch):
    # at least two workers, so the starts run on threads on any host
    cpus = max(2, mixing._usable_cpus())
    monkeypatch.setattr(mixing, "_usable_cpus", lambda: cpus)
    build = tmp_path / "build"
    assert run("build", "--variant", "cubic", "--h", "3", "--L", "3",
               "--seed", "1", "--out", str(build)) == 0
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run("profile", "--graph", str(build / "graph.ev"),
                   "--out", str(out)) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert len(names) == 6   # the summary and five default starts
    for name in names:
        assert read_artifact(outs[0] / name) == read_artifact(outs[1] / name)


def test_cylinder_sweep(tmp_path):
    out = tmp_path / "cyl"
    rc = run("cylinder-sweep", "--m", "4", "--Ls", "5,9", "--seed", "1",
             "--stride", "1", "--out", str(out))
    assert rc == 0
    body = read_json(out / "cylinder_sweep.json")
    assert len(body["points"]) == 2
    assert body["loglog_slope"] > 1.0


def test_cylinder_sweep_host_is_the_build_host(tmp_path):
    # at m=14 seed=4 a host certified at min_gap 0.01 is another pairing
    # (attempt 2) than the one build certifies at 0.05 (attempt 7)
    out = tmp_path / "cyl"
    assert run("cylinder-sweep", "--m", "14", "--Ls", "5,9", "--seed", "4",
               "--out", str(out)) == 0
    g = construction.build(ConstructionParams(h=0, L=5, variant="cylinder",
                                              m=14, seed=4))
    _, worst = cutoff_report(g, default_starts(g))
    assert read_artifact(out / "cylinder_sweep.csv").splitlines()[1] == \
        f"5,{g.vertex_count},{worst.tmix[0.25]},{worst.tmix[0.75]}"


def test_cylinder_profile_takes_the_sweeps_step_cap(tmp_path):
    # both walk a cylinder for up to 400 n steps: 100 (bit length of n)^2
    # = 12,100 steps stops this one short of its mixing time
    build_out, sweep_out = tmp_path / "build", tmp_path / "sweep"
    assert run("build", "--variant", "cylinder", "--m", "14", "--L", "61",
               "--seed", "1", "--out", str(build_out)) == 0
    assert run("profile", "--graph", str(build_out / "graph.ev"),
               "--out", str(build_out)) == 0
    assert run("cylinder-sweep", "--m", "14", "--Ls", "5,61", "--seed", "1",
               "--out", str(sweep_out)) == 0
    worst = read_json(build_out / "profile_summary.json")["worst_start"]
    assert worst["tmix"]["0.25"] == 17336
    assert read_json(sweep_out / "cylinder_sweep.json")["points"][1] == {
        "L": 61, "tmix": 17336}


def test_cylinder_sweep_tmax_zero_is_a_cap(tmp_path, capsys):
    # --tmax 0 caps the walk at 0 steps, as in profile, and is not read as
    # "no cap given"
    out = tmp_path / "cyl"
    assert run("cylinder-sweep", "--Ls", "5,9", "--seed", "1", "--tmax", "0",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == \
        "error: not mixed below 0.245 by t_max=0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("build", "--variant", "five_regular", "--h", "1", "--L", "2"),
    ("build", "--variant", "cylinder", "--m", "8", "--L", "5"),
    ("hitting", "--chain", "--variant", "cubic", "--h", "2", "--L", "2"),
], ids=["build-five_regular", "build-cylinder", "hitting-cubic"])
def test_lprime_is_refused_by_even_stretch_variants(tmp_path, capsys, argv):
    # only an uneven-stretch variant reads L_prime; an even one used to
    # record Lprime=7 in its header and L_prime 0 in its census
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Lprime=7\n")
    variant = argv[argv.index("--variant") + 1]
    for given in (("--Lprime", "7"), ("--config", str(cfg))):
        assert run(*argv, *given, "--seed", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            f"error: variant {variant} takes no --Lprime\n"
    assert not out.exists()


@pytest.mark.parametrize("fixture", ["five_reg_h1", "cubic_h2", "no_cutoff_h2",
                                     "cylinder"])
def test_profile_of_graph_file_equals_library_report(request, tmp_path,
                                                     fixture):
    # graph.ev keeps only h, L and variant of a build's meta, so nothing a
    # profile reports may depend on the rest
    if fixture == "cylinder":
        g = construction.build(ConstructionParams(h=0, L=5, variant="cylinder",
                                                  m=8))
    else:
        g = request.getfixturevalue(fixture)
    (tmp_path / "graph.ev").write_text(to_text(g))
    assert run("profile", "--graph", str(tmp_path / "graph.ev"),
               "--out", str(tmp_path)) == 0
    summaries, worst = cutoff_report(g, default_starts(g))
    assert read_json(tmp_path / "profile_summary.json") == {
        "starts": [s.as_dict() for s in summaries],
        "worst_start": worst.as_dict()}


def test_non_integer_values_exit_2(tmp_path, capsys):
    out = tmp_path / "run"
    run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
        "--seed", "1", "--out", str(out))
    graph = str(out / "graph.ev")
    assert run("profile", "--graph", graph, "--starts", "a",
               "--out", str(out)) == 2
    assert "--starts must be an integer, got 'a'" in capsys.readouterr().err
    assert run("hitting", "--graph", graph, "--start", "x", "--samples", "10",
               "--seed", "1", "--out", str(out)) == 2
    assert "--start must be an integer" in capsys.readouterr().err
    assert run("hitting", "--chain", "--h", "2", "--L", "2", "--start", "x",
               "--seed", "1", "--out", str(out)) == 2
    assert "--start must be an integer" in capsys.readouterr().err
    assert run("cylinder-sweep", "--Ls", "5,x", "--seed", "1",
               "--out", str(out)) == 2
    assert "--Ls must be an integer, got 'x'" in capsys.readouterr().err


def test_samples_below_one_exit_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    for argv in (("hitting", "--chain", "--h", "2", "--L", "2"),
                 ("hitting", "--graph", str(tmp_path / "graph.ev")),
                 ("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4")):
        assert run(*argv, "--samples", "-1", "--seed", "1", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: --samples must be >= 1, got -1\n"


_WALKS = (("profile", "--graph", "graph.ev"),
          ("cutoff-report", "--variant", "cubic", "--L", "3", "--hmin", "2",
           "--hmax", "2"),
          ("cylinder-sweep",),
          ("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4"))


@pytest.mark.parametrize("key, value, message", [
    ("laziness", "0.7", "--laziness must lie in [0, 1/2], got 0.7"),
    ("laziness", "-0.1", "--laziness must lie in [0, 1/2], got -0.1"),
    ("tmax", "-1", "--tmax must be >= 0, got -1"),
], ids=["laziness-above", "laziness-below", "tmax-negative"])
def test_walk_flags_out_of_range_exit_2(tmp_path, capsys, key, value,
                                        message):
    # refused before any chain, build or certification
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    for argv in _WALKS:
        for given in ((f"--{key}", value), ("--config", str(cfg))):
            assert run(*argv, *given, "--seed", "1", "--out", str(out)) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_stride_below_one_exits_2(tmp_path, capsys):
    out = tmp_path / "cr"
    assert run("cutoff-report", "--variant", "cubic", "--L", "3",
               "--hmin", "2", "--hmax", "2", "--stride", "0", "--seed", "1",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: --stride must be >= 1, got 0\n"
    assert not out.exists()


def _assert_cutoff_report_refuses(tmp_path, capsys, variant):
    # only the exact root chains: a cylinder has no height, and no_cutoff's
    # exact ratio is nocutoff-demo's exact_cutoff
    out = tmp_path / "cr"
    argv = ("cutoff-report", "--L", "5", "--hmin", "1", "--hmax", "3",
            "--seed", "1", "--out", str(out))
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--variant", variant)
    assert exc.value.code == 2
    assert f"invalid choice: '{variant}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"variant={variant}\n")
    assert run(*argv, "--config", str(cfg)) == 2
    assert capsys.readouterr().err == (
        f"error: invalid choice for config key variant: '{variant}' "
        "(choose from cubic, five_regular)\n")
    assert not out.exists()


def test_cutoff_report_refuses_cylinder(tmp_path, capsys):
    _assert_cutoff_report_refuses(tmp_path, capsys, "cylinder")


def test_cutoff_report_refuses_no_cutoff(tmp_path, capsys):
    _assert_cutoff_report_refuses(tmp_path, capsys, "no_cutoff")


_CUTOFF = ("cutoff-report", "--variant", "cubic", "--L", "3", "--hmin", "2",
           "--hmax", "2")
_CHAIN = ("hitting", "--chain", "--h", "2", "--L", "2")
_DEMO = ("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4")


@pytest.mark.parametrize("argv, flag, value", [
    (_CUTOFF, "--m", "8"), (_CUTOFF, "--h", "2"), (_CUTOFF, "--Lprime", "4"),
    (_CUTOFF, "--min-gap", "0.1"), (_CHAIN, "--m", "8"),
    (_CHAIN, "--min-gap", "0.1"), (_DEMO, "--m", "8"),
    (_DEMO, "--variant", "cubic"),
], ids=["cutoff-report--m", "cutoff-report--h", "cutoff-report--Lprime",
        "cutoff-report--min-gap", "hitting--m", "hitting--min-gap",
        "nocutoff-demo--m", "nocutoff-demo--variant"])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv, flag,
                                               value):
    out = tmp_path / "run"
    # refused, not taken as a prefix of a flag the command has
    # (--m of --min-gap, --h of --hmin)
    with pytest.raises(SystemExit) as exc:
        run(*argv, flag, value, "--seed", "1", "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert run(*argv, "--config", str(cfg), "--seed", "1",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: unknown config key: {key}\n"
    assert not out.exists()


def test_hitting_refuses_cylinder(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*_CHAIN, "--variant", "cylinder", "--seed", "1",
            "--out", str(tmp_path / "run"))
    assert exc.value.code == 2
    assert "invalid choice: 'cylinder'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cutoff_report_past_the_float_range(tmp_path):
    # n > 2^1024: the per-vertex form raised OverflowError converting a
    # class size to float
    out = tmp_path / "cr"
    assert run("cutoff-report", "--variant", "five_regular", "--L", "2",
               "--hmin", "170", "--hmax", "170", "--seed", "1",
               "--out", str(out)) == 0
    (row,) = read_json(out / "cutoff_vs_h.json")["rows"]
    assert row["n"] == construction.family_vertex_count("five_regular", 170, 2)
    assert row["n"].bit_length() > 1024
    assert row["tmix"]["0.25"] > row["tmix"]["0.75"] > 0


def test_empty_height_range_exits_2(tmp_path):
    out = tmp_path / "cr"
    assert run("cutoff-report", "--variant", "cubic", "--L", "3",
               "--hmin", "3", "--hmax", "2", "--seed", "1",
               "--out", str(out)) == 2
    assert not (out / "cutoff_vs_h.csv").exists()


CUTOFF_FILES = ("cutoff_vs_h.csv", "cutoff_vs_h.json")


def test_cutoff_report_bodies_do_not_depend_on_seed(tmp_path):
    """--seed is optional, changes no body, and is in the header only when
    it is given."""
    bodies, commands = [], []
    for seed in (("--seed", "1"), ("--seed", "2"), ()):
        out = tmp_path / (seed[1] if seed else "none")
        assert run("cutoff-report", "--variant", "cubic", "--L", "3",
                   "--hmin", "2", "--hmax", "4", *seed,
                   "--out", str(out)) == 0
        bodies.append([read_artifact(out / f) for f in CUTOFF_FILES])
        commands.append((out / CUTOFF_FILES[1]).read_text().splitlines()[2])
    assert bodies[0] == bodies[1] == bodies[2]
    assert commands == [f"# command: cutoff-report L=3 hmax=4 hmin=2 {seed}"
                        f"variant=cubic" for seed in ("seed=1 ", "seed=2 ", "")]


def _written(out):
    """{file name: (its # command: line, its body)} for every file of out."""
    return {p.name: (p.read_text().splitlines()[2], read_artifact(p))
            for p in out.iterdir()}


_TINY_BUILD = ("build", "--variant", "five_regular", "--h", "1", "--L", "2",
               "--seed", "1")
_CUTOFF_REPORT = ("cutoff-report", "--variant", "cubic", "--L", "3",
                  "--hmin", "2", "--hmax", "4")


@pytest.mark.parametrize("argv, flag, token", [
    (_CUTOFF_REPORT, ("--laziness", "0.5"), "laziness=0.5"),
    (_CUTOFF_REPORT, ("--stride", "7"), "stride=7"),
    (_CUTOFF_REPORT, ("--eps", "0.1"), "eps=0.1"),
    (_CUTOFF_REPORT, ("--tmax", "5000"), "tmax=5000"),
    (("build", "--variant", "cubic", "--h", "2", "--L", "2", "--seed", "1"),
     ("--min-gap", "0.06"), "min_gap=0.06"),
    (("spectral",), ("--dirichlet",), "dirichlet=True"),
    (("profile", "--starts", "0", "--tmax", "400"), ("--eps", "0.1", "--eps",
                                                      "0.2"), "eps=0.1,0.2"),
    (("cylinder-sweep", "--m", "4", "--Ls", "5,9", "--seed", "1"),
     ("--laziness", "0.3"), "laziness=0.3"),
    (("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4", "--seed", "1",
      "--samples", "1000"), ("--laziness", "0.3"), "laziness=0.3"),
], ids=["cutoff-report-laziness", "cutoff-report-stride", "cutoff-report-eps",
        "cutoff-report-tmax", "build-min-gap", "spectral-dirichlet",
        "profile-eps", "cylinder-sweep-laziness", "nocutoff-demo-laziness"])
def test_header_names_every_flag_the_run_was_given(tmp_path, argv, flag,
                                                   token):
    """Two runs that differ in one flag write files whose # command: lines
    differ wherever their bodies do: each header lists the flag."""
    if argv[0] in ("spectral", "profile"):
        assert run(*_TINY_BUILD, "--out", str(tmp_path / "build")) == 0
        argv = (argv[0], "--graph", str(tmp_path / "build" / "graph.ev"),
                *argv[1:])
    assert run(*argv, "--out", str(tmp_path / "default")) == 0
    assert run(*argv, *flag, "--out", str(tmp_path / "flag")) == 0
    default, given = _written(tmp_path / "default"), _written(tmp_path / "flag")
    assert sorted(given) == sorted(default)
    for name, (command, body) in given.items():
        assert token in command.split()[3:], name
        if body != default[name][1]:
            assert command != default[name][0], name


@pytest.mark.parametrize("variant, h, Lprime", [
    ("five_regular", 1, 0), ("cubic", 2, 0), ("no_cutoff", 2, 4)])
def test_tree_family_census_keeps_its_meta(tmp_path, variant, h, Lprime):
    # a tree family's build meta holds no key a census omitted before it
    # took the whole meta, so its census.json body is unchanged
    kept = {"variant", "h", "L", "L_prime", "degree", "seeds", "gap1", "gap2",
            "L_floor", "meets_L_floor", "bipartite"}
    assert run("build", "--variant", variant, "--h", str(h), "--L", "2",
               *(("--Lprime", str(Lprime)) if Lprime else ()), "--seed", "1",
               "--out", str(tmp_path)) == 0
    meta = read_json(tmp_path / "census.json")["meta"]
    g = construction.build(ConstructionParams(h=h, L=2, variant=variant,
                                              L_prime=Lprime, seed=1))
    assert set(meta) <= kept
    assert meta == {k: list(v) if isinstance(v, tuple) else v
                    for k, v in g.meta.items()}


@pytest.mark.parametrize("L", [1, 5])
def test_cylinder_census_records_its_host_gap(tmp_path, L):
    # at L=1 the cylinder is its host, and its meta is still a cylinder's
    assert run("build", "--variant", "cylinder", "--m", "8", "--L", str(L),
               "--seed", "1", "--out", str(tmp_path)) == 0
    meta = read_json(tmp_path / "census.json")["meta"]
    host = make_expander(ExpanderSpec(3, 8, 0.05, 1))
    assert meta["host_gap"] == host.gap == pytest.approx(0.254644, abs=1e-6)
    assert set(meta) == {"variant", "h", "L", "m", "degree", "host_gap",
                         "bipartite"}


def test_exactly_the_commands_that_draw_need_a_seed(tmp_path, capsys):
    assert run(*_TINY_BUILD, "--out", str(tmp_path / "build")) == 0
    graph = str(tmp_path / "build" / "graph.ev")
    seeded = [("build", "--variant", "five_regular", "--h", "1", "--L", "2"),
              ("hitting", "--chain", "--h", "2", "--L", "2"),
              ("cylinder-sweep", "--m", "4", "--Ls", "5,9"),
              ("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4")]
    unseeded = [("spectral", "--graph", graph),
                ("profile", "--graph", graph, "--starts", "0",
                 "--tmax", "400"),
                ("cutoff-report", "--variant", "cubic", "--L", "3",
                 "--hmin", "2", "--hmax", "2")]
    for argv in seeded:
        out = tmp_path / f"run-{argv[0]}"
        assert run(*argv, "--out", str(out)) == 2, argv[0]
        assert capsys.readouterr().err == \
            "error: this command needs an explicit --seed\n"
        assert not out.exists()
    for argv in unseeded:
        assert run(*argv, "--out", str(tmp_path / argv[0])) == 0, argv[0]
    assert {a[0] for a in seeded} | {a[0] for a in unseeded} == \
        set(cli._COMMANDS)


def test_cutoff_report_rows_equal_materialized(tmp_path, monkeypatch):
    csv, rows = ["h,n,tmix_quarter,tmix_threequarter,cutoff_ratio,window"], []
    for h in (2, 3):
        g = construction.build(ConstructionParams(h=h, L=3, variant="cubic"))
        (s,), _ = cutoff_report(g, [0], stride=1)
        csv.append(f"{h},{g.vertex_count},{s.tmix[0.25]},{s.tmix[0.75]},"
                   f"{s.cutoff_ratio:.6f},{s.window_estimate}")
        rows.append({"h": h, "n": g.vertex_count, **s.as_dict()})

    def no_build(params):
        raise AssertionError("cutoff-report built a cubic graph")

    monkeypatch.setattr(construction, "build", no_build)
    out = tmp_path / "cr"
    assert run("cutoff-report", "--variant", "cubic", "--L", "3",
               "--hmin", "2", "--hmax", "3", "--seed", "1",
               "--out", str(out)) == 0
    assert read_artifact(out / "cutoff_vs_h.csv") == "\n".join(csv) + "\n"
    assert read_json(out / "cutoff_vs_h.json") == {"rows": rows}


def test_cylinder_sweep_needs_two_lengths(tmp_path):
    out = tmp_path / "cyl"
    for lengths in ("5", "5,5"):
        assert run("cylinder-sweep", "--Ls", lengths, "--seed", "1",
                   "--out", str(out)) == 2
    assert not out.exists()


K3_TEXT = ("ev 3 3 0 0 custom\n0 1\n0 2\n1 2\nlevels\n"
           "0 -1 TreeNode\n1 -1 TreeNode\n2 -1 TreeNode\n")


def _strict_json(path):
    """The artifact's JSON body, read by a parser that refuses NaN and
    Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(read_artifact(path), parse_constant=refuse)


def test_repeated_start_exits_2(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "k3.ev"
    graph.write_text(K3_TEXT)

    def no_read(path):
        raise AssertionError("the graph was read before --starts was checked")

    monkeypatch.setattr(cli, "_load_graph", no_read)
    out = tmp_path / "run"
    assert run("profile", "--graph", str(graph), "--starts", "0,0",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == \
        "error: --starts must be distinct, got 0,0\n"
    assert not out.exists()


def test_profile_writes_an_undefined_ratio_as_null(tmp_path):
    # on K3 the walk starts within 3/4 of uniform: tmix(3/4) = 0
    graph = tmp_path / "k3.ev"
    graph.write_text(K3_TEXT)
    out = tmp_path / "run"
    assert run("profile", "--graph", str(graph), "--out", str(out)) == 0
    body = _strict_json(out / "profile_summary.json")
    assert body["worst_start"]["tmix"] == {"0.25": 2, "0.75": 0}
    assert body["worst_start"]["cutoff_ratio"] is None


@pytest.mark.filterwarnings("error")
def test_hitting_from_a_leaf_writes_undefined_values_as_null(tmp_path):
    # every sample is 0: one cluster is empty and Q25 is 0
    graph = tmp_path / "leaf.ev"
    graph.write_text("ev 2 1 0 0 c\n0 1\nlevels\n0 0 TreeNode\n1 1 Leaf\n")
    out = tmp_path / "run"
    assert run("hitting", "--graph", str(graph), "--start", "1",
               "--samples", "1000", "--seed", "1", "--out", str(out)) == 0
    body = _strict_json(out / "hitting.json")
    assert body["mean"] == 0.0
    assert body["bimodality"]["cluster_means"] == [0.0, None]
    assert body["bimodality"]["separation"] is None
    assert body["quantile_ratio"] is None


def test_eps_outside_unit_interval_exits_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    for argv in (("profile", "--graph", str(tmp_path / "graph.ev")),
                 ("cutoff-report", "--variant", "cubic", "--L", "3",
                  "--hmin", "2", "--hmax", "2"),
                 ("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4")):
        for eps in ("0", "1", "2", "-0.5", "nan"):
            assert run(*argv, "--eps", "0.5", "--eps", eps, "--seed", "1",
                       "--out", out) == 2
            err = capsys.readouterr().err
            assert err == f"error: --eps must lie in (0, 1), got {float(eps)}\n"
    # cylinder-sweep reports only the 1/4 and 3/4 times and takes no --eps
    with pytest.raises(SystemExit) as exc:
        run("cylinder-sweep", "--Ls", "5,9", "--eps", "0.5", "--seed", "1",
            "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps 0.5" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _fresh_python(script, *args, **env):
    """Last stdout line of script run in a new interpreter on this
    checkout's package; an env value of None removes the variable."""
    src = str(Path(expander_cutoff.__file__).resolve().parents[1])
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, full.get("PYTHONPATH")) if p)
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    done = subprocess.run([sys.executable, "-c", script, *args], env=full,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


_NO_SCIPY_SCRIPT = """
import json, sys
import expander_cutoff
from expander_cutoff import cli

out = sys.argv[1]
assert cli.main(["cutoff-report", "--variant", "cubic", "--L", "3",
                 "--hmin", "2", "--hmax", "3", "--seed", "1",
                 "--out", out + "/cr"]) == 0
report_random = "numpy.random" in sys.modules
assert cli.main(["hitting", "--chain", "--h", "2", "--L", "2",
                 "--samples", "200", "--seed", "1", "--out", out + "/hc"]) == 0
chain_scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
# cubic h=3 certifies a 32- and a 2048-vertex expander, both by Lanczos
assert cli.main(["build", "--variant", "cubic", "--h", "3", "--L", "1",
                 "--seed", "1", "--out", out + "/b"]) == 0
print(json.dumps({"chain_scipy": chain_scipy, "report_random": report_random,
                  "build_linalg": "scipy.sparse.linalg" in sys.modules}))
"""


def test_chain_commands_start_without_scipy(tmp_path):
    """cutoff-report on a chain variant and hitting --chain import no scipy
    in a fresh process, and the report, which samples nothing, no
    numpy.random; build then certifies its 32- and 2048-vertex expanders
    by Lanczos on the graph's own kernel, with scipy.sparse.linalg never
    loaded."""
    report = json.loads(_fresh_python(_NO_SCIPY_SCRIPT, str(tmp_path)))
    assert report == {"chain_scipy": [], "report_random": False,
                      "build_linalg": False}
    census = read_json(tmp_path / "b" / "census.json")
    assert census["vertices"] > 2048 and census["meta"]["gap2"] > 0


_LOADED_SCRIPT = """
import json, sys
import expander_cutoff
from expander_cutoff import cli

out = sys.argv[1]
graph = out + "/build/graph.ev"
watched = ("expander_cutoff.montecarlo", "expander_cutoff.spectral",
           "concurrent.futures")
loaded = {}
# in this order, so each command adds to what the ones before it loaded
for argv in (["cutoff-report", "--variant", "cubic", "--L", "3",
              "--hmin", "2", "--hmax", "3"],
             ["build", "--variant", "cubic", "--h", "2", "--L", "1",
              "--seed", "1"],
             ["profile", "--graph", graph],
             ["hitting", "--graph", graph, "--samples", "200", "--seed", "1"]):
    assert cli.main(argv + ["--out", out + "/" + argv[0]]) == 0
    loaded[argv[0]] = [m for m in watched if m in sys.modules]
names = sorted(expander_cutoff._LAZY)
listed = set(dir(expander_cutoff))
print(json.dumps({"loaded": loaded, "unlisted": sorted(set(names) - listed),
                  "unresolved": [n for n in names if getattr(
                      expander_cutoff, n) is not getattr(sys.modules[
                          "expander_cutoff." + expander_cutoff._LAZY[n]], n)]}))
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    """In a fresh process: cutoff-report, build and profile load neither
    the sampling nor the spectral module, hitting no spectral module, and
    cutoff-report and build (one start, no thread pool) no
    concurrent.futures.  Every name of the package's lazy export table
    resolves to its module's object and is listed by dir()."""
    report = json.loads(_fresh_python(_LOADED_SCRIPT, str(tmp_path)))
    loaded = report["loaded"]
    assert loaded["cutoff-report"] == loaded["build"] == []
    assert not {"expander_cutoff.montecarlo",
                "expander_cutoff.spectral"} & set(loaded["profile"])
    assert "expander_cutoff.spectral" not in loaded["hitting"]
    assert "expander_cutoff.montecarlo" in loaded["hitting"]
    assert report["unlisted"] == report["unresolved"] == []
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        expander_cutoff.no_such_name


_NO_SPARSE_SCRIPT = """
import json, sys
from expander_cutoff import cli

out = sys.argv[1]
graph = out + "/build/graph.ev"
# cubic h=3 certifies its 2048-vertex expander by Lanczos on the kernel
codes = [cli.main(argv + ["--out", out + "/" + argv[0]]) for argv in (
    ["build", "--variant", "cubic", "--h", "3", "--L", "1", "--seed", "1"],
    ["profile", "--graph", graph],
    ["spectral", "--graph", graph],
    ["hitting", "--graph", graph, "--samples", "200", "--seed", "1"],
    ["cylinder-sweep", "--Ls", "5,9", "--seed", "1"])]
print(json.dumps({"codes": codes, "sparse": sorted(
    m for m in sys.modules if m.startswith("scipy.sparse"))}))
"""


def test_graph_commands_start_without_scipy_sparse(tmp_path):
    """build, the graph walks and cylinder-sweep run scipy's compiled
    csr_matvec in a fresh process without loading scipy.sparse or leaving
    any of its modules in sys.modules."""
    report = json.loads(_fresh_python(_NO_SPARSE_SCRIPT, str(tmp_path)))
    assert report == {"codes": [0] * 5, "sparse": []}
    for name in ("profile/profile_summary.json", "spectral/spectral.json",
                 "hitting/hitting.json", "cylinder-sweep/cylinder_sweep.json"):
        assert read_json(tmp_path / name)


_NO_OPENSSL_SCRIPT = """
import contextlib, io, json, os, sys
from expander_cutoff import cli

def libcrypto():
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps") as f:
        return "libcrypto" in f.read()

out = sys.argv[1]
# numpy.random, which build and both samplers load, imports hashlib
codes = [cli.main(argv) for argv in (
    ["build", "--variant", "cubic", "--h", "3", "--L", "1", "--seed", "1",
     "--out", out + "/build"],
    ["hitting", "--graph", out + "/build/graph.ev", "--samples", "200",
     "--seed", "1", "--out", out + "/graph"],
    ["hitting", "--chain", "--h", "2", "--L", "2", "--samples", "200",
     "--seed", "1", "--out", out + "/chain"])]
after = {"codes": codes, "hashlib": "hashlib" in sys.modules,
         "_hashlib": "_hashlib" in sys.modules, "libcrypto": libcrypto()}
err = io.StringIO()
with contextlib.redirect_stderr(err):
    import hashlib
    digest = hashlib.sha256(b"abc").hexdigest()[:8]
after.update(sha256=digest, stderr=err.getvalue())
print(json.dumps(after))
"""

_IMPORT_KEEPS_OPENSSL_SCRIPT = """
import json, sys
import expander_cutoff
absent = "_hashlib" not in sys.modules
import hashlib
# a _hashlib loaded before a command is left as it is
from expander_cutoff import cli
assert cli.main(["hitting", "--chain", "--h", "2", "--L", "2", "--samples",
                 "200", "--seed", "1", "--out", sys.argv[1]]) == 0
print(json.dumps([absent, hashlib.sha256.__module__,
                  type(sys.modules["_hashlib"]).__name__]))
"""

_NO_BUILTIN_HASH_SCRIPT = """
import contextlib, io, json, sys
from expander_cutoff import cli

# an interpreter built without one of hashlib's builtin hashes
cli._BUILTIN_HASHES += ("_no_such_hash",)
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(["hitting", "--chain", "--h", "2", "--L", "2", "--samples",
                     "200", "--seed", "1", "--out", sys.argv[1]])
print(json.dumps([code, type(sys.modules["_hashlib"]).__name__,
                  err.getvalue()]))
"""


def test_commands_run_without_openssl(tmp_path):
    """build, hitting --graph and hitting --chain import numpy.random, and
    with it hashlib and hmac, in one fresh process without loading
    _hashlib or mapping libcrypto; afterwards hashlib works on CPython's
    builtin hashes, quietly.  Importing the package changes nothing: a
    later hashlib gets OpenSSL's hashes, and a command leaves a _hashlib
    loaded before it as it was.  An interpreter without every builtin
    hash keeps OpenSSL, so that hashlib's import logs nothing."""
    report = json.loads(_fresh_python(_NO_OPENSSL_SCRIPT, str(tmp_path)))
    assert report["libcrypto"] in (False, None)
    report.pop("libcrypto")
    assert report == {"codes": [0, 0, 0], "hashlib": True, "_hashlib": False,
                      "sha256": "ba7816bf", "stderr": ""}
    assert read_json(tmp_path / "graph" / "hitting.json")["mean"] > 0
    line = _fresh_python(_IMPORT_KEEPS_OPENSSL_SCRIPT, str(tmp_path / "c"))
    assert json.loads(line) == [True, "_hashlib", "module"]
    line = _fresh_python(_NO_BUILTIN_HASH_SCRIPT, str(tmp_path / "d"))
    assert json.loads(line) == [0, "module", ""]


_KERNEL_SCRIPT = """
import json, sys
import numpy as np
from expander_cutoff import construction, graphs
from expander_cutoff.construction import ConstructionParams

cubic = construction.build(ConstructionParams(
    h=3, L=3, variant="cubic", seed=1))
irregular = graphs.stretch_edges(cubic, cubic.edge_array()[::5], 2)
rng = np.random.default_rng(3)
xs = [rng.standard_normal(g.vertex_count) * 10.0 ** rng.integers(
    -300, 300, g.vertex_count) for g in (cubic, irregular)]

def products(gs):
    outs = []
    for g, x in zip(gs, xs):
        out = np.full(g.vertex_count, np.nan)
        g.matvec_kernel()(x, out)
        outs.append(out.view(np.int64))
    return outs

first = products((cubic, irregular))
sparse_first = "scipy.sparse" in sys.modules
# scipy.sparse now loads the extension a second time, and a fresh kernel
# loader a third, with scipy.sparse's module entered in sys.modules
import scipy.sparse
graphs._csr_matvec.cache_clear()
again = products([g.with_meta() for g in (cubic, irregular)])
# the transition product: weight 1/deg(u) on each arc into u
refs = [scipy.sparse.csr_matrix(
            (1.0 / g.degrees()[g.indices], g.indices, g.indptr),
            shape=(g.vertex_count,) * 2).dot(x).view(np.int64)
        for g, x in zip((cubic, irregular), xs)]
print(json.dumps({
    "sparse_first": sparse_first,
    "regular": [len(np.unique(g.degrees())) for g in (cubic, irregular)],
    "first": [bool(np.array_equal(a, r)) for a, r in zip(first, refs)],
    "again": [bool(np.array_equal(a, r)) for a, r in zip(again, refs)],
    "entered": sys.modules["scipy.sparse._sparsetools"]
               is scipy.sparse._sparsetools}))
"""


def test_graph_kernel_is_bit_identical_to_scipy_sparse():
    """matvec_kernel() gives scipy.sparse's product of x with A D^-1 (the
    CSR arrays with weight 1/deg(u) on each arc into u) bit for bit on
    signed vectors spanning the float range, for a cubic build and an
    irregular stretch of it, both before scipy.sparse is imported and
    after, when the extension has been loaded again; the later load
    leaves scipy.sparse's own module in sys.modules."""
    report = json.loads(_fresh_python(_KERNEL_SCRIPT))
    assert report == {"sparse_first": False, "regular": [1, 2],
                      "first": [True, True], "again": [True, True],
                      "entered": True}


_THREADS_SCRIPT = """
import json, os
import expander_cutoff
print(json.dumps([len(os.listdir("/proc/self/task")),
                  "OPENBLAS_NUM_THREADS" in os.environ]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("blas_threads, expected", [
    (None, [1, False]),   # the package pins numpy's BLAS, then unsets it
    ("2", [2, True]),     # the caller's setting is kept
])
def test_numpy_blas_threads_after_import(blas_threads, expected):
    if blas_threads and len(os.sched_getaffinity(0)) < int(blas_threads):
        pytest.skip("OpenBLAS starts no more threads than usable CPUs")
    line = _fresh_python(_THREADS_SCRIPT, OPENBLAS_NUM_THREADS=blas_threads,
                         OMP_NUM_THREADS=None)
    assert json.loads(line) == expected
