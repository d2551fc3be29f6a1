from __future__ import annotations

import json
import os
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _util import random_graph
from cliquelab.formats import (
    atomic_write_text,
    dump_dsn,
    dump_family,
    dump_graph,
    dump_hypergraph,
    dump_steiner,
    format_weight,
    load_dsn,
    load_family,
    load_graph,
    load_hypergraph,
    load_steiner,
    parse_meta,
    parse_weight,
)
from cliquelab.caps import budget
from cliquelab.ensembles import sample_er, sample_planted
from cliquelab.errors import BudgetExceeded, InfeasibleError
from cliquelab.graph import Graph, Hypergraph, WeightedDigraph
from cliquelab.oracles import DsnInstance, SteinerForestInstance, steiner_k_forest
from cliquelab.rgp import SubsetFamily, rgp


def test_graph_round_trip(c5):
    assert load_graph(dump_graph(c5)) == c5


def test_graph_meta_survives(c5):
    text = dump_graph(c5, meta={"clique": "0 1 2", "note": "x"})
    assert parse_meta(text) == {"clique": "0 1 2", "note": "x"}
    assert load_graph(text) == c5


def test_graph_text_shape(triangle):
    lines = dump_graph(triangle).splitlines()
    assert lines[0] == "g 3 3"
    assert lines[1:] == ["0 1", "0 2", "1 2"]


def _dump_graph_reference(g: Graph, meta: dict[str, str] | None = None) -> str:
    """The former dump_graph: one f-string per edge of Graph.edges()."""
    lines = [f"g {g.n} {g.m}"]
    lines.extend(f"# {key}: {value}" for key, value in (meta or {}).items())
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _graphs_at(n: int) -> list[Graph]:
    """Empty, complete (up to n = 1000) and sparse graphs that reach vertex n - 1."""
    rng = random.Random(n)
    star = [(u, n - 1) for u in range(n - 1)]
    sparse = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)} if n > 1 else set()
    graphs = [Graph.empty(n), Graph(n, star), Graph(n, sparse)]
    if n <= 1000:
        graphs.append(Graph.complete(n))
    return graphs


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 4096])
def test_dump_graph_matches_the_per_edge_writer_where_digit_widths_change(n):
    for g in _graphs_at(n):
        for meta in (None, {"clique": "0 1 2", "seed": "7"}):
            assert dump_graph(g, meta) == _dump_graph_reference(g, meta)


def test_dump_graph_matches_the_per_edge_writer_on_products():
    sources = {
        "null": sample_er(60, Fraction(1, 2), 1111, index=3),
        "planted": sample_planted(60, Fraction(1, 2), 20, 1111, index=3).graph,
    }
    for arm, source in sources.items():
        product, _ = rgp(source, 2000, 2, 1111, index=3)
        meta = {"arm": arm}
        text = dump_graph(product, meta)
        assert text == _dump_graph_reference(product, meta)
        assert load_graph(text) == product


def test_load_graph_rejections():
    cases = {
        "g 3 1\n0 1 2\n": "malformed edge line '0 1 2'",
        "g 3 1\n1\n": "malformed edge line '1'",
        "g 3 1\n1 0\n": "edge lines must satisfy u < v, got '1 0'",
        "g 3 1\n1 1\n": "edge lines must satisfy u < v, got '1 1'",
        "g 3 1\n0 3\n": r"edge \(0, 3\) out of range for n=3",
        "g 3 1\n-1 2\n": r"edge \(-1, 2\) out of range for n=3",
        "g 3 2\n0 1\n0 1\n": "duplicate edge lines",
        "g 3 2\n0 1\n": "header promises 2 edges, found 1 lines",
        "g 3 1\n0 1\n1 2\n": "header promises 1 edges, found 2 lines",
        "g 3 1\n99999999999999999999 1\n": "out of range for n=3",
        "g 3 1\n1 99999999999999999999\n": "out of range for n=3",
        "g 3 1\nx 1\n": "invalid literal",
        "g 11 1\n0 1_0\n": "invalid literal '1_0'",
        "g 3 1\n0 \u0661\n": "invalid literal '\u0661'",
        "g 3 1\n0 1 # x\n": "malformed edge line '0 1 # x'",
        "g 3 1\n0 1.5\n": "invalid literal '1.5'",
        "g 3 1\n0 1e0\n": "invalid literal '1e0'",
        "d 3 0\n": "expected header tag 'g'",
        "": "empty input",
    }
    for text, message in cases.items():
        with pytest.raises(ValueError, match=message):
            load_graph(text)


@pytest.mark.parametrize("token", ["1.5", "2e0", "inf", "1_0", "\u0661", "0x1"])
def test_load_graph_keeps_tokens_outside_the_grammar_from_numpy(monkeypatch, token):
    # numpy releases that read "1.5" as an int64 through a float must not see it
    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called on a token outside the grammar")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    with pytest.raises(ValueError, match="invalid literal"):
        load_graph(f"g 3 2\n0 1\n0 {token}\n")


def test_load_graph_skips_comments_and_blanks_and_reads_tabs():
    text = "g 4 3\n# a: b\n0 1\n\n  # note\n1\t2\n\n 2 \t 3 \n"
    assert load_graph(text) == Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert load_graph("g 0 0\n") == Graph.empty(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a block with no edge lines is not handed to numpy
        assert load_graph("g 2 0\n# nothing\n") == Graph.empty(2)


def _edges_70000() -> Graph:
    return Graph(400, [(u, v) for u in range(400) for v in range(u + 1, 400)][:70000])


def test_load_graph_polls_the_budget_every_65536_lines(monkeypatch):
    import cliquelab.formats as formats

    polls = []
    monkeypatch.setattr(formats, "check_budget", lambda steps=1: polls.append(steps))
    g = _edges_70000()
    assert formats.load_graph(dump_graph(g)) == g
    assert polls == [0, 0]


def test_load_graph_reads_crlf_line_endings(c5):
    text = dump_graph(c5, meta={"note": "x"}).replace("\n", "\r\n")
    assert load_graph(text) == c5


def test_load_graph_reads_blanks_comments_and_tabs_across_blocks():
    g = _edges_70000()
    header, *body = dump_graph(g).splitlines()
    body[65530:65530] = ["", "# between blocks", "  \t", "\t# indented"] * 3
    body[65600] = body[65600].replace(" ", "\t")
    assert load_graph("\n".join([header, *body]) + "\n") == g


def test_load_graph_names_a_malformed_line_in_a_later_block():
    header, *body = dump_graph(_edges_70000()).splitlines()
    body[69000] = "5 6 7"
    with pytest.raises(ValueError, match="malformed edge line '5 6 7'"):
        load_graph("\n".join([header, *body]))
    body[69000] = "5 6 # seven"
    with pytest.raises(ValueError, match="malformed edge line '5 6 # seven'"):
        load_graph("\n".join([header, *body]))


def test_load_graph_polls_the_budget(triangle):
    text = dump_graph(triangle)
    with budget(0, "load"):
        time.sleep(0.01)
        with pytest.raises(BudgetExceeded):
            load_graph(text)
    assert load_graph(text) == triangle  # outside a scope the poll does nothing


@settings(deadline=None)
@given(st.integers(0, 200), st.floats(0, 1), st.integers(min_value=0, max_value=10**6))
def test_graph_round_trip_random(n, p, seed):
    g = random_graph(n, p, random.Random(seed))
    assert load_graph(dump_graph(g)) == g


def test_weight_formatting_exact():
    assert format_weight(Fraction(3)) == "3"
    assert format_weight(Fraction(1, 2)) == "0.5"
    assert format_weight(Fraction(7, 40)) == "0.175"
    assert format_weight(Fraction(1, 3)) == "1/3"
    for s in ("3", "0.5", "0.175", "1/3"):
        assert format_weight(parse_weight(s)) == s


@given(st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**4)))
def test_weight_round_trip(w):
    assert parse_weight(format_weight(w)) == w


def test_hypergraph_round_trip():
    h = Hypergraph(6, [(0, 1, 2), (3, 5), (2, 4)])
    assert load_hypergraph(dump_hypergraph(h)) == h


def test_load_hypergraph_rejects_duplicate_lines():
    # both lines name the hyperedge {0, 1}: the header's count of 2 is a lie
    with pytest.raises(ValueError, match="duplicate hyperedge lines"):
        load_hypergraph("h 4 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="duplicate hyperedge lines"):
        load_hypergraph("h 4 2\n0 1 2\n2 1 0 0\n")
    assert load_hypergraph("h 4 2\n1 0\n2 3\n") == Hypergraph(4, [(0, 1), (2, 3)])


def test_family_round_trip_and_source_n():
    fam = SubsetFamily(source_n=9, ell=3, sets=((0, 2, 5), (1,), (4, 8)))
    text = dump_family(fam)
    assert "# source-n: 9" in text
    assert load_family(text) == fam
    # explicit override wins over the embedded meta
    assert load_family(text, source_n=12).source_n == 12


def test_family_infers_source_n_without_meta():
    text = "f 2 2\n0 3\n1 2\n"
    assert load_family(text).source_n == 4


@pytest.mark.parametrize(
    "load, text, token",
    [
        (load_family, "f 1 2\n0 1_0\n", "1_0"),
        (load_family, "f 1 2\n0 \u0661\n", "\u0661"),
        (load_family, "f 1_0 1\n" + "0\n" * 10, "1_0"),
        (load_family, "f 1 1\n# source-n: 1_0\n0\n", "1_0"),
        (load_hypergraph, "h 11 1\n0 1_0\n", "1_0"),
        (load_hypergraph, "h 1_1 1\n0 1\n", "1_1"),
    ],
    ids=["family-item", "family-item-arabic-indic", "family-header", "family-source-n",
         "hypergraph-item", "hypergraph-header"],
)
def test_family_and_hypergraph_refuse_non_decimal_tokens(load, text, token):
    # int() reads "1_0" as 10 and "\u0661" (ARABIC-INDIC DIGIT ONE) as 1
    with pytest.raises(ValueError, match=f"invalid literal '{token}'"):
        load(text)


def test_steiner_round_trip():
    inst = SteinerForestInstance(
        graph=Graph(4, [(0, 1), (1, 2), (2, 3)]),
        weights=(Fraction(1), Fraction(1, 3), Fraction(2)),
        demands=((0, 2), (1, 3)),
        k=1,
    )
    assert load_steiner(dump_steiner(inst)) == inst
    with pytest.raises(ValueError):
        load_dsn(dump_steiner(inst))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_steiner_load_canonicalizes_edge_order(data):
    n = data.draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=7, unique=True))
    weight = {e: Fraction(data.draw(st.integers(0, 9))) for e in edges}
    demands = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    k = data.draw(st.integers(1, len(demands)))
    shuffled = data.draw(st.permutations(edges))
    flipped = [e[::-1] if data.draw(st.booleans()) else e for e in shuffled]
    text = json.dumps({
        "type": "steiner-k-forest",
        "n": n,
        "edges": [list(e) for e in flipped],
        "weights": [format_weight(weight[tuple(sorted(e))]) for e in flipped],
        "demands": [list(d) for d in demands],
        "k": k,
    })
    canonical = SteinerForestInstance(
        graph=Graph(n, edges),
        weights=tuple(weight[e] for e in sorted(edges)),
        demands=tuple(demands),
        k=k,
    )
    loaded = load_steiner(text)
    assert loaded == canonical
    try:
        forest, cost = steiner_k_forest(loaded)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            steiner_k_forest(canonical)
        return
    assert cost == sum((weight[e] for e in forest), Fraction(0))
    assert cost == steiner_k_forest(canonical)[1]


def test_dsn_round_trip():
    inst = DsnInstance(
        digraph=WeightedDigraph(3, [(0, 1, Fraction(0)), (1, 2, Fraction(5, 2))]),
        demands=((0, 2),),
    )
    assert load_dsn(dump_dsn(inst)) == inst
    with pytest.raises(ValueError):
        load_steiner(dump_dsn(inst))


def test_load_dsn_rejects_duplicate_arcs():
    text = '{"type": "dsn", "n": 2, "arcs": [[0, 1, "1"], [0, 1, "1"]], "demands": [[0, 1]]}'
    with pytest.raises(ValueError, match="duplicate arc"):
        load_dsn(text)


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    # no stray temp files left behind
    assert os.listdir(tmp_path) == ["out.txt"]
