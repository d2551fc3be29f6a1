from __future__ import annotations

import json
import os
import random
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _util import BAD_INSTANCES, DSN, STEINER, random_graph
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
from cliquelab.caps import VERTEX_CAP, budget, check_vertices
from cliquelab.ensembles import sample_er, sample_planted
from cliquelab.errors import BudgetExceeded, CapExceeded, InfeasibleError
from cliquelab.graph import Graph, Hypergraph, WeightedDigraph
from cliquelab.oracles import DsnInstance, SteinerForestInstance, steiner_k_forest
from cliquelab.rgp import SubsetFamily, rgp, sample_family


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


# -- the former line-by-line loader, the reference for load_graph's byte pass --


def _former_data_lines(text: str, expected_tag: str) -> tuple[list[str], list[str]]:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise ValueError("empty input")
    header = lines[0].split()
    if not header or header[0] != expected_tag:
        raise ValueError(f"expected header tag {expected_tag!r}, got {lines[0]!r}")
    return header, lines[1:]


def _former_decimal(token: str) -> int:
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(f"invalid literal {token!r}: not an ASCII decimal integer")
    return int(token)


def _former_parse_edge_block(block: list[str], n: int) -> np.ndarray:
    if not " ".join(block).encode().translate(None, b"0123456789+- \t"):
        try:
            pairs = np.loadtxt(block, dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if pairs.shape[1] == 2:
                return pairs
    for line in block:
        tokens = re.split(r"[ \t]+", line)
        if len(tokens) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        for token in tokens:
            if not -(2**63) <= _former_decimal(token) < 2**63:
                raise ValueError(f"edge endpoint {token} beyond int64, out of range for n={n}")
    raise ValueError("unparsable edge lines")


def _former_load_graph(text: str) -> Graph:
    header, body = _former_data_lines(text, "g")
    if len(header) != 3:
        raise ValueError(f"graph header must be 'g <n> <m>', got {header}")
    n, m = _former_decimal(header[1]), _former_decimal(header[2])
    check_vertices(n)
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, found {len(body)} lines")
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    for lo in range(0, m, 65536):
        blocks.append(_former_parse_edge_block(body[lo : lo + 65536], n))
    u, v = np.concatenate(blocks).T
    bad = np.flatnonzero(u >= v)
    if bad.size:
        raise ValueError(f"edge lines must satisfy u < v, got {body[bad[0]]!r}")
    bad = np.flatnonzero((u < 0) | (v >= n))
    if bad.size:
        i = bad[0]
        raise ValueError(f"edge ({u[i]}, {v[i]}) out of range for n={n}")
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = adj[v, u] = True
    if np.count_nonzero(adj) != 2 * m:
        raise ValueError("duplicate edge lines")
    return Graph.from_bool_matrix(adj)


def _outcome(load, text: str):
    """The graph a loader returns, or the type and message of its refusal."""
    try:
        return load(text)
    except (ValueError, CapExceeded) as exc:
        return type(exc).__name__, str(exc)


_FILLER_LINES = (
    "", "  ", "\t", " \t ", "#", "# note", "  # indented", "\t#tab", "# a: b",
    "# \xe9t\xe9 \u2211 \u65e5\u672c", "#\xa0no-break space", "# \U0001f600",
)


def _blanks(rng: random.Random, least: int) -> str:
    return "".join(rng.choice(" \t") for _ in range(rng.choice((least, least, least + 1, 3))))


def _spell(token: str, rng: random.Random) -> str:
    """token with, at times, a '+' sign and leading zeros."""
    sign = rng.choice(("", "", "", "+"))
    return sign + "0" * rng.choice((0, 0, 0, 1, 2, 12)) + token


def _decorate(text: str, rng: random.Random) -> str:
    """text with filler lines, extra blanks, CRLF ends, signs and leading zeros."""
    out = []
    for line in text.splitlines():
        out.extend(rng.choice(_FILLER_LINES) for _ in range(rng.choice((0, 0, 0, 1, 2))))
        if not line.startswith("#"):
            tag, *tokens = line.split(" ")
            if tag not in ("g", "h", "f"):
                tag = _spell(tag, rng)
            tokens = [_spell(token, rng) for token in tokens]
            line = _blanks(rng, 0) + _blanks(rng, 1).join([tag, *tokens]) + _blanks(rng, 0)
        out.append(line)
    out = [line + rng.choice(("\n", "\r\n")) for line in out]
    if rng.random() < 0.3:
        out[-1] = out[-1].rstrip("\r\n")
    return "".join(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 200), st.floats(0, 1), st.integers(0, 10**6), st.booleans())
def test_load_graph_reads_decorated_text_as_the_former_loader(n, p, seed, meta):
    g = random_graph(n, p, random.Random(seed))
    text = _decorate(dump_graph(g, {"note": "x"} if meta else None), random.Random(seed))
    assert load_graph(text) == _former_load_graph(text) == g


# replacements that add no line break and no whitespace but spaces and tabs
_CORRUPT_CHARS = "0123456789+-gx#. \t\n_e\x00\xe9\u0661"


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 40), st.floats(0, 1), st.integers(0, 10**6), st.integers(0, 10**6),
    st.sampled_from(("replace", "insert", "delete")), st.sampled_from(_CORRUPT_CHARS),
)
def test_load_graph_refuses_a_corrupt_line_as_the_former_loader(n, p, seed, where, how, char):
    lines = dump_graph(random_graph(n, p, random.Random(seed)), {"note": "x"}).split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    i = data[where % len(data)]
    at = where // len(data) % (len(lines[i]) + (how == "insert"))
    tail = lines[i][at + (how != "insert") :]
    lines[i] = lines[i][:at] + ("" if how == "delete" else char) + tail
    text = "\n".join(lines)
    new, former = _outcome(load_graph, text), _outcome(_former_load_graph, text)
    assert new == former


def test_load_graph_refuses_the_former_loader_on_a_later_block():
    header, *body = dump_graph(_edges_70000()).splitlines()
    for line, message in (("3 2", "u < v, got '3 2'"), ("5 +999", r"edge \(5, 999\) out")):
        lines = body.copy()
        lines[69000] = line
        text = "\n".join([header, *lines])
        with pytest.raises(ValueError, match=message):
            load_graph(text)
        assert _outcome(load_graph, text) == _outcome(_former_load_graph, text)


def test_load_graph_names_the_fault_the_former_loader_named_first():
    # tokens before u < v before range before duplicates, each over all lines
    cases = {
        "g 3 2\n0 5\n2 1\n": "edge lines must satisfy u < v, got '2 1'",
        "g 3 2\n2 1\n0 x\n": "invalid literal 'x'",
        "g 3 2\n0 5\n1 2 3\n": "malformed edge line '1 2 3'",
        "g 3 3\n0 1\n0 1\n0 5\n": r"edge \(0, 5\) out of range for n=3",
    }
    for text, message in cases.items():
        with pytest.raises(ValueError, match=message):
            load_graph(text)
        assert _outcome(load_graph, text) == _outcome(_former_load_graph, text)


@pytest.mark.parametrize(
    "char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"],
    ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS", "lone-CR"],
)
def test_load_graph_refuses_a_line_break_str_splitlines_took(char):
    # the former loader read "0 1<char>1 2" as two edge lines
    text = f"g 3 2\n0 1{char}1 2\n"
    assert _former_load_graph(text) == Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=re.escape(f"line 2 holds {char!r}")):
        load_graph(text)


@pytest.mark.parametrize(
    "text, char, line",
    [
        ("g 3 1\n0 1\xa0\n", "\xa0", 2),
        ("g 3 1\n0 1\u3000\n", "\u3000", 2),
        ("g 3 1\n0 1\x1f\n", "\x1f", 2),
        ("g 3 1\n0 1\v\n", "\v", 2),
        ("g 3 1\n\u2003 0 1\n", "\u2003", 2),
        ("g 3 1\n\xa0\n0 1\n", "\xa0", 2),
        ("g 3 1\xa0\n0 1\n", "\xa0", 1),
        ("g\xa03 1\n0 1\n", "\xa0", 1),
        ("# c\n\xa0# c\ng 3 1\n0 1\n", "\xa0", 2),
    ],
    ids=["NBSP-end", "ideographic-end", "US-end", "VT-end", "em-space-start", "NBSP-line",
         "header-end", "header-inside", "before-a-comment"],
)
def test_load_graph_refuses_whitespace_str_strip_took(text, char, line):
    # the former loader stripped it, or split the header at it
    assert _former_load_graph(text) == Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match=re.escape(f"line {line} holds {char!r}")):
        load_graph(text)


def test_load_graph_reads_any_utf8_in_a_comment():
    text = "# \xe9\u2028\v\r x\ng 3 1\n  # \x85 \udcff\n0 1\n"
    assert load_graph(text) == Graph(3, [(0, 1)])


def test_load_graph_reads_the_products_it_dumps():
    for planted in (False, True):
        source = (
            sample_planted(60, Fraction(1, 2), 20, 7, index=1).graph
            if planted
            else sample_er(60, Fraction(1, 2), 7, index=1)
        )
        product, _ = rgp(source, 2000, 2, 7, index=1)
        text = dump_graph(product, {"arm": str(planted)})
        assert load_graph(text) == product
        crlf = _decorate(text, random.Random(1))
        assert load_graph(crlf) == product


# -- the former loaders of families and hypergraphs, which split lines with
# str.splitlines and str.strip --


def _former_parse_meta(text: str) -> dict[str, str]:
    meta: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("#"):
            continue
        body = line[1:].strip()
        key, sep, value = body.partition(":")
        if sep and key.strip() and key.strip() not in meta:
            meta[key.strip()] = value.strip()
    return meta


def _former_load_hypergraph(text: str) -> Hypergraph:
    header, body = _former_data_lines(text, "h")
    if len(header) != 3:
        raise ValueError(f"hypergraph header must be 'h <n> <m>', got {header}")
    n, m = _former_decimal(header[1]), _former_decimal(header[2])
    if len(body) != m:
        raise ValueError(f"header promises {m} hyperedges, found {len(body)} lines")
    h = Hypergraph(n, (tuple(map(_former_decimal, ln.split())) for ln in body))
    if h.m != m:
        raise ValueError("duplicate hyperedge lines")
    return h


def _former_load_family(text: str, source_n: int | None = None) -> SubsetFamily:
    header, body = _former_data_lines(text, "f")
    if len(header) != 3:
        raise ValueError(f"family header must be 'f <N> <ell>', got {header}")
    N, ell = _former_decimal(header[1]), _former_decimal(header[2])
    if len(body) != N:
        raise ValueError(f"header promises {N} sets, found {len(body)} lines")
    sets = tuple(tuple(map(_former_decimal, ln.split())) for ln in body)
    if source_n is None:
        meta = _former_parse_meta(text)
        if "source-n" in meta:
            source_n = _former_decimal(meta["source-n"])
        else:
            source_n = max((s[-1] for s in sets if s), default=0) + 1
    return SubsetFamily(source_n=source_n, ell=ell, sets=sets)


# kind: (dump, load, the former load)
_TEXT_FORMATS = {
    "family": (dump_family, load_family, _former_load_family),
    "hypergraph": (dump_hypergraph, load_hypergraph, _former_load_hypergraph),
}


def _random_instance(kind: str, n: int, seed: int) -> SubsetFamily | Hypergraph:
    """A family of up to 40 sets on n + 1 source vertices, or a hypergraph of up
    to 3n hyperedges of 1 to 4 vertices on n vertices."""
    rng = random.Random(seed)
    if kind == "family":
        return sample_family(n + 1, rng.randint(1, 40), rng.randint(1, 4), seed)
    sizes = [rng.randint(1, min(n, 4)) for _ in range(rng.randint(0, 3 * n))]
    return Hypergraph(n, [rng.sample(range(n), size) for size in sizes])


@pytest.mark.parametrize("kind", _TEXT_FORMATS)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 10**6), st.booleans())
def test_load_reads_decorated_text_as_the_former_loader(kind, n, seed, meta):
    dump, load, former = _TEXT_FORMATS[kind]
    item = _random_instance(kind, n, seed)
    text = _decorate(dump(item, {"note": "x"} if meta else None), random.Random(seed))
    assert load(text) == former(text) == item


@pytest.mark.parametrize("kind", _TEXT_FORMATS)
@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 40), st.integers(0, 10**6), st.integers(0, 10**6),
    st.sampled_from(("replace", "insert", "delete")), st.sampled_from(_CORRUPT_CHARS),
)
def test_load_refuses_a_corrupt_line_as_the_former_loader(kind, n, seed, where, how, char):
    dump, load, former = _TEXT_FORMATS[kind]
    lines = dump(_random_instance(kind, n, seed), {"note": "x"}).split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    i = data[where % len(data)]
    at = where // len(data) % (len(lines[i]) + (how == "insert"))
    tail = lines[i][at + (how != "insert") :]
    lines[i] = lines[i][:at] + ("" if how == "delete" else char) + tail
    text = "\n".join(lines)
    assert _outcome(load, text) == _outcome(former, text)


@pytest.mark.parametrize(
    "load, former, text, read, message",
    [
        (load_family, _former_load_family, "f 2 1\n0\x0b1\n",
         SubsetFamily(2, 1, [(0,), (1,)]), "line 2 holds '\\x0b'"),
        (load_hypergraph, _former_load_hypergraph, "h 3 1\r0 1\n",
         Hypergraph(3, [(0, 1)]), "line 1 holds '\\r'"),
    ],
    ids=["family-VT", "hypergraph-lone-CR-header"],
)
def test_family_and_hypergraph_refuse_a_line_break_str_splitlines_took(
    load, former, text, read, message
):
    assert former(text) == read
    with pytest.raises(ValueError, match=re.escape(message)):
        load(text)


def test_parse_meta_reads_a_comment_to_its_lf():
    text = "g 3 0\n# note\x85# clique: 0 1 2\n"
    assert _former_parse_meta(text) == {"clique": "0 1 2"}
    assert parse_meta(text) == {"note\x85# clique": "0 1 2"}


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


def _dump_family_reference(fam: SubsetFamily, meta: dict[str, str] | None = None) -> str:
    """The former dump_family: one join per set of fam.sets."""
    merged = {"source-n": str(fam.source_n)}
    merged.update((key, value) for key, value in (meta or {}).items() if key != "source-n")
    lines = [f"f {fam.N} {fam.ell}"]
    lines.extend(f"# {key}: {value}" for key, value in merged.items())
    lines.extend(" ".join(map(str, s)) for s in fam.sets)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source_n", [1, 10, 11, 100, 101])
def test_dump_family_matches_the_per_set_writer_where_digit_widths_change(source_n):
    metas = (None, {"run": "{}", "source-n": "999", "version": "0.1.0"})
    families = [
        sample_family(source_n, 300, ell, 5, index=source_n) for ell in (1, 2, 3)
    ]
    top = source_n - 1
    sets = [(top,), tuple(sorted({0, top})), (0,), tuple(range(min(3, source_n)))]
    families.append(SubsetFamily(source_n, 3, sets))
    families.append(SubsetFamily(source_n, 3, []))
    assert any(len(s) < 3 for s in families[2].sets)  # repeated draws at ell = 3
    for fam in families:
        for meta in metas:
            text = dump_family(fam, meta)
            assert text == _dump_family_reference(fam, meta)
            assert load_family(text) == fam


def test_family_without_a_source_n_line_is_refused():
    # the sets alone do not fix the source size: 4 here, or any larger n
    for text in ("f 2 2\n0 3\n1 2\n", "f 0 1\n", "f 1 1\n# source_n: 4\n0\n"):
        with pytest.raises(ValueError, match="no '# source-n: <n>' line"):
            load_family(text)


@pytest.mark.parametrize(
    "text",
    [
        "f 1 1\n# source-n: 100000000\n0\n",
        "f 1 1\n# source-n: 99999999999999999999\n0\n",
    ],
    ids=["meta", "meta-beyond-int64"],
)
def test_load_family_refuses_a_source_beyond_the_vertex_cap(text):
    with pytest.raises(CapExceeded, match=f"exceeds the vertex cap {VERTEX_CAP}"):
        load_family(text)


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


def test_the_json_refusal_cases_start_from_sound_instances():
    assert load_steiner(json.dumps(STEINER)).weights == (1, 2)
    assert load_dsn(json.dumps(DSN)).digraph.arc_count == 2


@pytest.mark.parametrize("problem, text, message", BAD_INSTANCES.values(), ids=BAD_INSTANCES)
def test_json_loaders_refuse_a_bad_field_by_name(problem, text, message):
    load = load_steiner if problem == "steiner-k-forest" else load_dsn
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        load(text)


@pytest.mark.parametrize(
    "text", ["1_0", "\u0661", " 1/2 ", "1e3", "1/0", "-1/00", "1.", ".5", "0x1"]
)
def test_parse_weight_reads_only_what_format_weight_writes(text):
    with pytest.raises(ValueError, match=re.escape(f"invalid weight {text!r}")):
        parse_weight(text)


def test_parse_weight_reads_signs_and_leading_zeros():
    for w in (Fraction(-1, 2), Fraction(-7, 3), Fraction(5), Fraction(-40)):
        assert parse_weight(format_weight(w)) == w
    assert parse_weight("+0.50") == parse_weight("02/4") == Fraction(1, 2)


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    # no stray temp files left behind
    assert os.listdir(tmp_path) == ["out.txt"]
