"""Serialization: plain text for graphs and families, JSON for instances.

Text formats use one header line carrying a type tag and counts, then one
line per item.  Full-line `#` comments are allowed anywhere after the header
and are ignored on load, except that `# key: value` lines are surfaced
through parse_meta (used for planted-clique sidecars and family source
sizes).  Steiner-forest and reachability instances travel as JSON.

Every integer a text format holds (header counts, items, the `source-n`
meta value) is ASCII decimal: an optional sign, then the digits 0-9.

A graph is `g <n> <m>` followed by m edge lines.  An edge line holds two
integers u < v separated by spaces or tabs; `#` may only start a full line,
so `0 1 # x` is refused.  Blank lines are skipped.  dump_graph writes the
edges in sorted order, one `u v` line each, after the header and any
`# key: value` lines.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from .caps import check_budget, check_vertices
from .graph import Graph, Hypergraph, WeightedDigraph, bit_rows
from .oracles import DsnInstance, SteinerForestInstance
from .rgp import SubsetFamily


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torso."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def parse_meta(text: str) -> dict[str, str]:
    """Collect `# key: value` comment lines, first occurrence wins."""
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


def _meta_lines(meta: Mapping[str, str] | None) -> list[str]:
    if not meta:
        return []
    for key in meta:
        if ":" in key or "\n" in key or "\n" in meta[key]:
            raise ValueError(f"meta key/value may not contain ':' or newlines: {key!r}")
    return [f"# {key}: {value}" for key, value in meta.items()]


def _data_lines(text: str, expected_tag: str) -> tuple[list[str], list[str]]:
    """Split into (header fields, item lines), dropping comments and blanks."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise ValueError("empty input")
    header = lines[0].split()
    if not header or header[0] != expected_tag:
        raise ValueError(f"expected header tag {expected_tag!r}, got {lines[0]!r}")
    return header, lines[1:]


# -- graphs --------------------------------------------------------------------


def dump_graph(g: Graph, meta: Mapping[str, str] | None = None) -> str:
    head = "\n".join([f"g {g.n} {g.m}", *_meta_lines(meta)]) + "\n"
    u, v = np.divmod(np.flatnonzero(g.to_bool_matrix()), g.n)
    keep = u < v
    u, v = u[keep], v[keep]
    # Vertex names as NUL-padded ASCII: each line is "u v\n" with the NULs dropped.
    width = len(str(g.n - 1))
    digits = np.arange(g.n).astype(f"S{width}").view(np.uint8).reshape(g.n, width)
    lines = np.empty((u.size, 2 * width + 2), dtype=np.uint8)
    lines[:, :width] = digits[u]
    lines[:, width] = ord(" ")
    lines[:, width + 1 : -1] = digits[v]
    lines[:, -1] = ord("\n")
    return head + lines[lines != 0].tobytes().decode("ascii")


# Edge lines parsed between two polls of the budget's deadline.
_POLL_LINES = 65536
_DECIMAL = re.compile(r"[+-]?[0-9]+")
_BLANKS = re.compile(r"[ \t]+")
# Some numpy releases parse "1.5" or "2e0" as an int64 through a float, so
# a block reaches np.loadtxt only if it holds nothing but these bytes.
_GRAMMAR = b"0123456789+- \t"


def _decimal(token: str) -> int:
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"invalid literal {token!r}: not an ASCII decimal integer")
    return int(token)


def _parse_edge_block(block: list[str], n: int) -> np.ndarray:
    """Parse stripped edge lines into a (len(block), 2) int64 array."""
    if not " ".join(block).encode().translate(None, _GRAMMAR):
        try:
            pairs = np.loadtxt(block, dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            pass  # a line with another column count, or a token beyond int64
        else:
            if pairs.shape[1] == 2:
                return pairs
    for line in block:
        tokens = _BLANKS.split(line)
        if len(tokens) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        for token in tokens:
            if not -(2**63) <= _decimal(token) < 2**63:
                raise ValueError(f"edge endpoint {token} beyond int64, out of range for n={n}")
    raise ValueError("unparsable edge lines")


def load_graph(text: str) -> Graph:
    header, body = _data_lines(text, "g")
    if len(header) != 3:
        raise ValueError(f"graph header must be 'g <n> <m>', got {header}")
    n, m = _decimal(header[1]), _decimal(header[2])
    check_vertices(n)  # before the n x n matrix below is allocated
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, found {len(body)} lines")
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    for lo in range(0, m, _POLL_LINES):
        check_budget(0)  # the deadline only: parsing expands no search node
        blocks.append(_parse_edge_block(body[lo : lo + _POLL_LINES], n))
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
    # symmetric with a zero diagonal by construction: from_bool_matrix's checks cannot fail
    return Graph._from_rows(n, tuple(bit_rows(adj)))


# -- exact weights --------------------------------------------------------------


def format_weight(w: Fraction) -> str:
    """Integer as-is, terminating decimals exactly, otherwise `p/q`."""
    w = Fraction(w)
    if w.denominator == 1:
        return str(w.numerator)
    den = w.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = w.numerator * 10**digits // w.denominator
        sign = "-" if scaled < 0 else ""
        scaled = abs(scaled)
        whole, frac = divmod(scaled, 10**digits)
        return f"{sign}{whole}.{frac:0{digits}d}"
    return f"{w.numerator}/{w.denominator}"


def parse_weight(s: str) -> Fraction:
    return Fraction(s)


# -- hypergraphs ----------------------------------------------------------------


def dump_hypergraph(h: Hypergraph, meta: Mapping[str, str] | None = None) -> str:
    lines = [f"h {h.n} {h.m}"]
    lines.extend(_meta_lines(meta))
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def load_hypergraph(text: str) -> Hypergraph:
    header, body = _data_lines(text, "h")
    if len(header) != 3:
        raise ValueError(f"hypergraph header must be 'h <n> <m>', got {header}")
    n, m = _decimal(header[1]), _decimal(header[2])
    if len(body) != m:
        raise ValueError(f"header promises {m} hyperedges, found {len(body)} lines")
    h = Hypergraph(n, (tuple(map(_decimal, ln.split())) for ln in body))
    if h.m != m:
        raise ValueError("duplicate hyperedge lines")
    return h


# -- subset families -------------------------------------------------------------


def dump_family(fam: SubsetFamily, meta: Mapping[str, str] | None = None) -> str:
    merged = {"source-n": str(fam.source_n)}
    if meta:
        for key, value in meta.items():
            if key != "source-n":
                merged[key] = value
    lines = [f"f {fam.N} {fam.ell}"]
    lines.extend(_meta_lines(merged))
    lines.extend(" ".join(map(str, s)) for s in fam.sets)
    return "\n".join(lines) + "\n"


def load_family(text: str, source_n: int | None = None) -> SubsetFamily:
    header, body = _data_lines(text, "f")
    if len(header) != 3:
        raise ValueError(f"family header must be 'f <N> <ell>', got {header}")
    N, ell = _decimal(header[1]), _decimal(header[2])
    if len(body) != N:
        raise ValueError(f"header promises {N} sets, found {len(body)} lines")
    sets = tuple(tuple(map(_decimal, ln.split())) for ln in body)
    if source_n is None:
        meta = parse_meta(text)
        if "source-n" in meta:
            source_n = _decimal(meta["source-n"])
        else:
            source_n = max((s[-1] for s in sets if s), default=0) + 1
    return SubsetFamily(source_n=source_n, ell=ell, sets=sets)


# -- JSON instance formats --------------------------------------------------------


def dump_steiner(inst: SteinerForestInstance, meta: Mapping[str, Any] | None = None) -> str:
    payload: dict[str, Any] = {
        "type": "steiner-k-forest",
        "n": inst.graph.n,
        "edges": [list(e) for e in inst.graph.edges()],
        "weights": [format_weight(w) for w in inst.weights],
        "demands": [list(d) for d in inst.demands],
        "k": inst.k,
    }
    if meta:
        payload["meta"] = dict(meta)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_steiner(text: str) -> SteinerForestInstance:
    d = json.loads(text)
    if d.get("type") != "steiner-k-forest":
        raise ValueError(f"expected type steiner-k-forest, got {d.get('type')!r}")
    # weights align with the graph's sorted edges: orient u < v, sort, keep pairs
    pairs = sorted(
        ((min(u, v), max(u, v)), parse_weight(w))
        for (u, v), w in zip(d["edges"], d["weights"], strict=True)
    )
    g = Graph(d["n"], [e for e, _ in pairs])
    weights = tuple(w for _, w in pairs)
    demands = tuple(tuple(p) for p in d["demands"])
    return SteinerForestInstance(graph=g, weights=weights, demands=demands, k=d["k"])


def dump_dsn(inst: DsnInstance, meta: Mapping[str, Any] | None = None) -> str:
    payload: dict[str, Any] = {
        "type": "dsn",
        "n": inst.digraph.n,
        "arcs": [[u, v, format_weight(w)] for u, v, w in inst.digraph.arcs()],
        "demands": [list(d) for d in inst.demands],
    }
    if meta:
        payload["meta"] = dict(meta)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_dsn(text: str) -> DsnInstance:
    d = json.loads(text)
    if d.get("type") != "dsn":
        raise ValueError(f"expected type dsn, got {d.get('type')!r}")
    arcs = [(a[0], a[1], parse_weight(a[2])) for a in d["arcs"]]
    if len({(u, v) for u, v, _ in arcs}) != len(arcs):
        raise ValueError("duplicate arc entries")
    dg = WeightedDigraph(d["n"], arcs)
    demands = tuple(tuple(p) for p in d["demands"])
    return DsnInstance(digraph=dg, demands=demands)
