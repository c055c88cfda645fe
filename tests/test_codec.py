"""The `.ev` codec on random graphs: round trips, the whitespace and
line-ending grammar, single-field mutations that must fail as GraphError,
and the codec's memory as a multiple of the text it writes or reads.
Graph texts are read through both entry points: from_text on the whole
text, and the CLI's graph file reader, which parses blocks of whole lines
as it reads them (here a few characters per read)."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expander_cutoff import cli
from expander_cutoff.cli import read_artifact, write_artifact
from expander_cutoff.graphs import (
    GraphBuilder,
    GraphError,
    from_text,
    text_blocks,
    to_text,
)

LEVELS = st.one_of(st.integers(-1, 40),
                   st.integers(-(10 ** 18 - 1), 10 ** 18 - 1))
# nonempty, no whitespace at either end and no line break: the rest of the
# header line, read back unchanged
VARIANTS = st.one_of(
    st.sampled_from(["custom", "cubic", "no_cutoff"]),
    st.text(min_size=1).filter(
        lambda v: v == v.strip() and not {"\r", "\n"} & set(v)))


@st.composite
def small_graphs(draw, min_vertices=0):
    """Up to 12 vertices with any levels (-1 included) and roles, and any
    edge set, zero edges and isolated vertices included."""
    n = draw(st.integers(min_vertices, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    b = GraphBuilder(meta={"h": draw(st.integers(0, 99)),
                           "L": draw(st.integers(0, 99)),
                           "variant": draw(VARIANTS)})
    b.add_vertex_array(draw(st.lists(LEVELS, min_size=n, max_size=n)),
                       draw(st.lists(st.integers(0, 3), min_size=n,
                                     max_size=n)))
    if edges:
        us, vs = zip(*edges)
        b.add_edge_array(us, vs)
    return b.finish()


def _graph(edges, levels, roles):
    b = GraphBuilder(meta={"h": 1, "L": 2, "variant": "custom"})
    b.add_vertex_array(levels, roles)
    b.add_edge_array([u for u, _ in edges], [v for _, v in edges])
    return b.finish()


def via_file(text, block=5):
    """The graph of `text` read back by the CLI's graph file reader with
    `block` characters per read; a GraphError carries from_text's message
    for the same text."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "graph.ev"
        write_artifact(path, "build", {"h": 3}, text)
        with mock.patch.object(cli, "_READ_BLOCK", block):
            try:
                return cli._load_graph(path)
            except GraphError as exc:
                with pytest.raises(GraphError) as whole:
                    from_text(text)
                assert str(exc) == str(whole.value)
                raise


# both entry points: the whole text, and the file read a few characters
# at a time
PARSERS = (from_text, via_file)


# every role, level -1 and an isolated vertex (4); no edge; no vertex
@example(_graph([(0, 1), (1, 3)], [0, -1, 7, -1, 2], [0, 1, 2, 3, 3]))
@example(_graph([], [-1, -1, 0], [3, 2, 1]))
@example(_graph([], [], []))
@settings(max_examples=200, deadline=None, database=None)
@given(small_graphs())
def test_round_trip(g):
    text = to_text(g)
    for parse in PARSERS:
        back = parse(text)
        assert back.same_structure(g)
        assert back.meta == {k: g.meta[k] for k in ("h", "L", "variant")}
        assert to_text(back) == text
        # the same graph under the grammar's other spellings
        for variant in (text.replace("\n", "\r\n"),
                        text.replace(" ", " \t  "),
                        text[:-1]):
            assert parse(variant).same_structure(g)


NON_INTEGERS = ["x", "1.5", "1e3", "0x1", "--1", "1-", "+-1", "١"]
UNKNOWN_ROLES = ["Root", "leaf", "Leafy", "TreeNodes", "0"]
MUTATIONS = ["non_integer", "extra_field", "missing_field", "unknown_role",
             "long_value", "repeat_level_line", "drop_level_line"]


def mutate(text, m, n, mutation, draw):
    """text with one mutation at a line chosen by draw(strategy)."""
    lines = text.split("\n")
    vertex_lines = list(range(2 + m, 2 + m + n))
    data_lines = list(range(1, 1 + m)) + vertex_lines
    if mutation in ("repeat_level_line", "drop_level_line"):
        i = draw(st.sampled_from(vertex_lines))
        lines[i:i + 1] = [lines[i]] * (2 if mutation == "repeat_level_line"
                                       else 0)
        return "\n".join(lines)
    i = draw(st.sampled_from(vertex_lines if mutation == "unknown_role"
                             else data_lines))
    fields = lines[i].split(" ")
    integer_field = st.integers(0, 1)  # in an edge or a vertex line
    if mutation == "non_integer":
        fields[draw(integer_field)] = draw(st.sampled_from(NON_INTEGERS))
    elif mutation == "long_value":
        digits = draw(st.integers(19, 25))
        fields[draw(integer_field)] = draw(st.sampled_from(
            ["1" + "0" * (digits - 1), "0" * (digits - 1) + "1",
             "-" + "9" * digits]))
    elif mutation == "extra_field":
        fields.insert(draw(st.integers(0, len(fields))), "7")
    elif mutation == "missing_field":
        del fields[draw(st.integers(0, len(fields) - 1))]
    else:
        fields[2] = draw(st.sampled_from(UNKNOWN_ROLES))
    lines[i] = " ".join(fields)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, database=None)
@given(small_graphs(min_vertices=1), st.sampled_from(MUTATIONS), st.data())
def test_one_mutated_field_is_a_graph_error(g, mutation, data):
    bad = mutate(to_text(g), g.edge_count, g.vertex_count, mutation, data.draw)
    for parse in PARSERS:
        with pytest.raises(GraphError):
            parse(bad)


def _traced_peak(f):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_codec_memory_is_a_small_multiple_of_the_text(cubic_h3, tmp_path,
                                                      monkeypatch):
    """tracemalloc peaks on the cubic h=3 build (10,066 vertices, a
    308,462-character text), measured with numpy 2.4.6: to_text 3.9x the
    text and from_text(read_artifact(...)) 4.3x (3.6x before the parser
    gave the builder int32 endpoints, which copies them once when the text
    is one block), against 10.2x and 17.6x when both made one Python
    string per line and int per field, and 4.8x and 7.8x when finish()
    concatenated the edge chunks and the edge sections were matched in one
    regular-expression run.  The CLI's graph file reader, parsing 4,096
    characters per read, peaks at 2.2x.  finish() on the same edges peaks at
    1.8x the bytes of the graph it returns, as when it sorted an array of
    both arcs of each edge, and on the cubic h=4 build (81,254 vertices)
    at 1.4x against 1.7x: its per-block temporaries weigh more in a small
    graph."""
    text = to_text(cubic_h3)
    path = tmp_path / "graph.ev"
    write_artifact(path, "build", {"h": 3}, text)
    assert _traced_peak(lambda: to_text(cubic_h3)) < 7 * len(text)
    assert _traced_peak(lambda: from_text(read_artifact(path))) < 5 * len(text)
    monkeypatch.setattr(cli, "_READ_BLOCK", 4096)
    assert _traced_peak(lambda: cli._load_graph(path)) < 3 * len(text)
    b = GraphBuilder()
    b.add_vertex_array(cubic_h3.level, cubic_h3.role)
    edges = cubic_h3.edge_array()
    b.add_edge_array(edges[:, 0], edges[:, 1])
    graph_bytes = sum(a.nbytes for a in (cubic_h3.indptr, cubic_h3.indices,
                                         cubic_h3.level, cubic_h3.role))
    assert _traced_peak(b.finish) < 2 * graph_bytes


def test_write_artifact_holds_no_extra_copy_of_the_body(tmp_path):
    """The header and the body go through one handle: the peak stays near
    one encoded copy of the body, where header + body held two."""
    body = "0 1\n" * 250_000
    path = tmp_path / "graph.ev"
    assert _traced_peak(
        lambda: write_artifact(path, "build", {"h": 3}, body)) < 1.5 * len(body)
    assert read_artifact(path) == body
    assert path.read_text().startswith("# expander-cutoff ")


def test_build_streams_the_text_without_joining_it(tmp_path):
    """write_artifact takes text_blocks' iterator as it takes to_text's
    string and writes the same bytes.  Its peak is one block's formatting,
    about 1 MB whatever the graph, where to_text's is twice the text: on a
    100,000-cycle (a 2,966,705-character text) tracemalloc peaks at 0.36x
    the text against 2.0x."""
    n = 100_000
    b = GraphBuilder()
    b.add_vertices(n)
    b.add_edge_array(np.arange(n), (np.arange(n) + 1) % n)
    g = b.finish()
    text = to_text(g)
    path = tmp_path / "graph.ev"
    assert _traced_peak(lambda: write_artifact(
        path, "build", {"h": 3}, text_blocks(g))) < 0.5 * len(text)
    assert read_artifact(path) == text
    b = GraphBuilder(meta={"variant": " custom"})
    b.add_vertices(2)
    # fields are checked before the first block, not mid-write
    with pytest.raises(GraphError, match="does not fit the header line"):
        text_blocks(b.finish())


@pytest.mark.parametrize("field, value", [
    ("level", 10 ** 18), ("level", -10 ** 18), ("level", -2 ** 63),
    ("level", 2 ** 63 - 1), ("h", 10 ** 18), ("L", -10 ** 19)])
def test_to_text_refuses_a_field_from_text_cannot_read(field, value):
    meta = {"h": 1, "L": 2, "variant": "custom"}
    levels = [0, value] if field == "level" else [0, 0]
    if field != "level":
        meta[field] = value
    b = GraphBuilder(meta=meta)
    b.add_vertex_array(levels, [0, 3])
    with pytest.raises(GraphError, match="does not fit an 18-digit field"):
        to_text(b.finish())


@pytest.mark.parametrize("variant", [
    "", " custom", "custom ", "\tcustom", "cus\rtom", "custom\n", "cus\ntom"])
def test_to_text_refuses_a_variant_from_text_cannot_read(variant):
    b = GraphBuilder(meta={"h": 1, "L": 2, "variant": variant})
    b.add_vertices(2)
    with pytest.raises(GraphError, match="does not fit the header line"):
        to_text(b.finish())


def test_widest_fields_round_trip():
    widest = 10 ** 18 - 1
    b = GraphBuilder(meta={"h": widest, "L": -widest, "variant": "custom"})
    b.add_vertex_array([widest, -widest], [0, 3])
    b.add_edge_array([0], [1])
    g = b.finish()
    back = from_text(to_text(g))
    assert back.same_structure(g)
    assert (back.meta["h"], back.meta["L"]) == (widest, -widest)


@pytest.mark.parametrize("header", [
    "ev +1 0 0 0 c", "ev 1 +0 0 0 c", "ev 1 0 +0 0 c", "ev 1 0 0 +0 c",
    "ev 1 0 1_0 0 c", "ev 1_0 0 0 0 c", "ev 1 0 0 1_0 c",
    "ev ١ 0 0 0 c", "ev 1 0 ٣ 0 c", "ev 1 0 0 ３ c",
    "ev 1 0 0 " + "1" * 19 + " c", "ev 1 0 0 0", "ev 1 0 0 c d"])
def test_header_counts_follow_the_data_grammar(header):
    text = header + "\nlevels\n0 0 Leaf\n"
    for parse in PARSERS:
        with pytest.raises(GraphError, match="line 1: expected 'ev n m h L"):
            parse(text)
        assert parse("ev 1 0 0 0 c\nlevels\n0 0 Leaf\n").vertex_count == 1


def _small_cubic():
    b = GraphBuilder(meta={"h": 1, "L": 2, "variant": "custom"})
    b.add_vertex_array(np.arange(8) % 3 - 1, np.arange(8) % 4)
    b.add_edge_array([0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6],
                     [1, 2, 3, 4, 5, 4, 6, 5, 7, 7, 6, 7])
    return b.finish()


def test_blocks_may_split_the_text_anywhere():
    """A read may end anywhere: inside a CRLF, at the edge of the levels
    line, in a final line without its newline or among trailing blank
    lines; the graph is the same whatever the block size."""
    g = _small_cubic()
    text = to_text(g)
    levels = text.index("levels")
    for variant in (text, text.replace("\n", "\r\n"), text[:-1],
                    text + "\n \t\n\r\n\n"):
        for block in [*range(1, 24), levels, levels + 6, levels + 7]:
            assert via_file(variant, block).same_structure(g)


@pytest.mark.parametrize("tail", ["\n\nx\n", "\n \n7 0 Leaf\n", "levels\n"])
@pytest.mark.parametrize("block", [1, 3, 8])
def test_text_after_blank_lines_is_refused_by_both_readers(tail, block):
    text = to_text(_small_cubic())
    with pytest.raises(GraphError, match="expected the end of the text"):
        via_file(text + tail, block)


def test_undecodable_byte_mid_file_exits_2(tmp_path, capsys, monkeypatch):
    """A byte that does not decode, found after the first blocks were
    parsed, is a usage error with a message, not a traceback."""
    g = _small_cubic()
    path = tmp_path / "graph.ev"
    write_artifact(path, "build", {"h": 1}, to_text(g))
    data = path.read_bytes()
    mid = data.index(b"levels")
    path.write_bytes(data[:mid] + b"\xff" + data[mid:])
    monkeypatch.setattr(cli, "_READ_BLOCK", 8)
    assert cli.main(["spectral", "--graph", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read graph file {path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
