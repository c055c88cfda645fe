import pytest

from expander_cutoff.cli import main, read_artifact, read_json


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


@pytest.mark.parametrize("edge_line", ["1 0", "2 2", "0 3"])
def test_bad_edge_line_exits_1(tmp_path, capsys, edge_line):
    bad = tmp_path / "bad.ev"
    bad.write_text(f"ev 3 2 0 0 custom\n0 1\n{edge_line}\nlevels\n"
                   + "".join(f"{v} 0 TreeNode\n" for v in range(3)))
    assert run("profile", "--graph", str(bad), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_hitting_chain_mode(tmp_path):
    out = tmp_path / "hit"
    rc = run("hitting", "--chain", "--variant", "five_regular", "--h", "4",
             "--L", "2", "--samples", "2000", "--seed", "5",
             "--out", str(out))
    assert rc == 0
    body = read_json(out / "hitting.json")
    assert abs(body["mean"] - 100.0) / 100.0 < 0.15
    assert body["predicted"] == pytest.approx(100.0)


def test_hitting_graph_mode(tmp_path):
    out = tmp_path / "hit2"
    run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
        "--seed", "1", "--out", str(out))
    rc = run("hitting", "--graph", str(out / "graph.ev"), "--start", "0",
             "--samples", "300", "--seed", "5", "--raw", "--out", str(out))
    assert rc == 0
    raw = read_artifact(out / "hitting_samples.txt").split()
    assert len(raw) == 300


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


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant=five_regular\nh=2\nL=2\nseed=4\n")
    out = tmp_path / "ovr"
    rc = run("build", "--config", str(cfg), "--h", "1", "--out", str(out))
    assert rc == 0
    census = read_json(out / "census.json")
    assert census["levels"]["3"] == 80  # h = 1 from the flag


def test_nocutoff_demo(tmp_path):
    out = tmp_path / "nc"
    rc = run("nocutoff-demo", "--h", "2", "--L", "2", "--Lprime", "4",
             "--seed", "2", "--samples", "2000", "--stride", "1",
             "--out", str(out))
    assert rc == 0
    body = read_json(out / "nocutoff.json")
    assert body["exact_cutoff"]["cutoff_ratio"] >= 1.1
    assert "bimodality" in body


def test_cylinder_sweep(tmp_path):
    out = tmp_path / "cyl"
    rc = run("cylinder-sweep", "--m", "4", "--Ls", "5,9", "--seed", "1",
             "--stride", "1", "--out", str(out))
    assert rc == 0
    body = read_json(out / "cylinder_sweep.json")
    assert len(body["points"]) == 2
    assert body["loglog_slope"] > 1.0


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


def test_empty_height_range_exits_2(tmp_path):
    out = tmp_path / "cr"
    assert run("cutoff-report", "--variant", "cubic", "--L", "3",
               "--hmin", "3", "--hmax", "2", "--seed", "1",
               "--out", str(out)) == 2
    assert not (out / "cutoff_vs_h.csv").exists()


def test_cylinder_sweep_needs_two_lengths(tmp_path):
    out = tmp_path / "cyl"
    for lengths in ("5", "5,5"):
        assert run("cylinder-sweep", "--Ls", lengths, "--seed", "1",
                   "--out", str(out)) == 2
    assert not out.exists()


def test_repeated_start_exits_1(tmp_path):
    out = tmp_path / "run"
    run("build", "--variant", "five_regular", "--h", "1", "--L", "2",
        "--seed", "1", "--out", str(out))
    assert run("profile", "--graph", str(out / "graph.ev"), "--starts", "0,0",
               "--out", str(out)) == 1
    assert not (out / "profile_summary.json").exists()
