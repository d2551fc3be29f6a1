"""Serialization: plain text for graphs, hypergraphs and families, JSON for
instances.

The three text formats share one line grammar.  A line ends in LF or CRLF,
and the last line may lack its end; a blank is a space or a tab.  A line of
blanks is skipped, and so is a comment line, one whose first non-blank
character is `#`, whatever it holds up to its LF; parse_meta surfaces its
`# key: value` comment lines (planted-clique sidecars, a family's source
size).  Every other line is a data line of tokens between blanks, so
`0 1 # x` is refused.  A data line may hold no other whitespace: a vertical
tab, a form feed, bytes 0x1C-0x1F, NEL, U+2028, U+2029, a CR that does not
end the line and non-ASCII whitespace are refused by a message that names
the line by its number.

The first data line is the header, a tag and two counts: `g <n> <m>` for a
graph, `h <n> <m>` for a hypergraph, `f <N> <ell>` for a family.  The item
lines follow, as many as the header promises: m edges `u v` with u < v, m
hyperedges of one or more vertices, or N sets of at most ell source
vertices.  Every integer (counts, items, the `source-n` meta value) is ASCII
decimal: an optional sign, then the digits 0-9.  load_graph reads a graph's
UTF-8 bytes in one numpy pass by this grammar, and reads the text line by
line only to name what it refuses.  dump_graph writes the edges in sorted
order, one `u v` line each, after the header and any `# key: value` lines.

Steiner k-forest and DSN instances are JSON objects.  `type` is the string
"steiner-k-forest" or "dsn"; `n` and `k` are integers; `edges` and
`demands` are lists of [u, v] integer pairs; `weights` is a list of weight
strings, one per edge; `arcs` is a list of [u, v, weight] arrays.  A JSON
true, false or number with a fraction or exponent is not an integer.  A
weight is the string format_weight writes: ASCII `[+-]D`, `[+-]D.D` or
`[+-]D/D`, where D is one or more digits 0-9 and the denominator is not 0.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from typing import Any, Mapping, NoReturn

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


_DECIMAL = re.compile(r"[+-]?[0-9]+")
_BLANKS = re.compile(r"[ \t]+")
# tag: (the format, its header, its items, which count is the number of item lines)
_TABLES = {
    "g": ("graph", "g <n> <m>", "edges", 1),
    "h": ("hypergraph", "h <n> <m>", "hyperedges", 1),
    "f": ("family", "f <N> <ell>", "sets", 0),
}


def _decimal(token: str) -> int:
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"invalid literal {token!r}: not an ASCII decimal integer")
    return int(token)


def _lines(text: str) -> tuple[list[str], list[str]]:
    """The data lines and the comment lines of a text, each without the
    blanks at its ends, by the grammar of this module's docstring."""
    data, comments = [], []
    for number, line in enumerate(text.split("\n"), 1):
        item = line.removesuffix("\r").strip(" \t")
        if item[:1] == "#":
            comments.append(item)
        elif item:
            odd = [c for c in item if c.isspace() and c not in " \t"]
            if odd:
                raise ValueError(
                    f"line {number} holds {odd[0]!r}, neither a blank (space or tab) "
                    f"nor a line end (LF or CRLF): {line!r}"
                )
            data.append(item)
    return data, comments


def _table(text: str, tag: str) -> tuple[int, int, list[str]]:
    """The two counts of a text format's header, and its item lines."""
    name, form, items, which = _TABLES[tag]
    lines = _lines(text)[0]
    if not lines:
        raise ValueError("empty input")
    header = _BLANKS.split(lines[0])
    if header[0] != tag:
        raise ValueError(f"expected header tag {tag!r}, got {lines[0]!r}")
    if len(header) != 3:
        raise ValueError(f"{name} header must be {form!r}, got {header}")
    counts, body = (_decimal(header[1]), _decimal(header[2])), lines[1:]
    if len(body) != counts[which]:
        raise ValueError(f"header promises {counts[which]} {items}, found {len(body)} lines")
    return *counts, body


def parse_meta(text: str) -> dict[str, str]:
    """Collect `# key: value` comment lines, first occurrence wins."""
    meta: dict[str, str] = {}
    for line in _lines(text)[1]:
        key, sep, value = line[1:].partition(":")
        key = key.strip(" \t")
        if sep and key and key not in meta:
            meta[key] = value.strip(" \t")
    return meta


def _meta_lines(meta: Mapping[str, str] | None) -> list[str]:
    if not meta:
        return []
    for key in meta:
        if ":" in key or "\n" in key or "\n" in meta[key]:
            raise ValueError(f"meta key/value may not contain ':' or newlines: {key!r}")
    return [f"# {key}: {value}" for key, value in meta.items()]


def _digit_table(n: int) -> np.ndarray:
    """Row v is vertex v's decimal name in ASCII, NUL-padded to the width of n - 1."""
    width = len(str(n - 1))
    return np.arange(n).astype(f"S{width}").view(np.uint8).reshape(n, width)


# -- graphs --------------------------------------------------------------------


def dump_graph(g: Graph, meta: Mapping[str, str] | None = None) -> str:
    """The graph's text: the header, the meta lines, then one `u v` line per
    edge with u < v, in sorted order.  The edge lines are one array of
    records, two vertex-name cells NUL-padded to a fixed width, a space and
    an LF, filled by 1-D gathers of the names; the NULs are then dropped."""
    head = "\n".join([f"g {g.n} {g.m}", *_meta_lines(meta)]) + "\n"
    u, v = np.divmod(np.flatnonzero(g.to_bool_matrix()), g.n)
    keep = u < v
    u, v = u[keep], v[keep]
    digits = _digit_table(g.n)
    cell = f"V{digits.shape[1]}"
    names = digits.view(cell).ravel()
    lines = np.empty(u.size, dtype=[("u", cell), ("sp", "u1"), ("v", cell), ("lf", "u1")])
    lines["u"] = names[u]
    lines["sp"] = ord(" ")
    lines["v"] = names[v]
    lines["lf"] = ord("\n")
    raw = lines.view(np.uint8)
    return head + raw[raw != 0].tobytes().decode("ascii")


# Edge lines parsed between two polls of the budget's deadline.
_POLL_LINES = 65536
# The low nibbles of the last c bytes of a little-endian word, for c = 0..8: an
# edge token is read as the 8 bytes that end it, and its c digits are the last c.
_DIGIT_NIBBLES = np.array(
    [0x0F0F0F0F0F0F0F0F & ~((1 << 8 * (8 - c)) - 1) for c in range(9)], dtype=np.uint64
)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The values of little-endian words of 8 digits 0-9, one per byte, the
    most significant in the lowest byte: pairs, then quads, then all 8."""
    words = words * np.uint64(10 << 8 | 1) >> np.uint64(8)
    words &= np.uint64(0x00FF00FF00FF00FF)
    words *= np.uint64(100 << 16 | 1)
    words >>= np.uint64(16)
    words &= np.uint64(0x0000FFFF0000FFFF)
    words *= np.uint64(10000 << 32 | 1)
    words >>= np.uint64(32)
    return words.view(np.int64)


def _blank_comments(buf: bytearray, b: np.ndarray) -> bool:
    """Overwrite each comment line, from its '#' on, with spaces; False if a
    '#' is not the first non-blank byte of its line."""
    hashes = np.flatnonzero(b == ord("#"))
    i = 0
    while i < hashes.size:
        at = int(hashes[i])
        if buf[buf.rfind(b"\n", 0, at) + 1 : at].strip(b" \t"):
            return False
        end = buf.find(b"\n", at)
        b[at:end] = ord(" ")
        i = int(np.searchsorted(hashes, end))
    return True


def _refuse_graph(text: str) -> NoReturn:
    """Raise the ValueError that names what load_graph's byte pass refused.

    Reads the text by _lines and _table, then checks the vertex cap, the
    tokens, u < v and the range, each over all lines, in this order.
    """
    n, _, body = _table(text, "g")
    check_vertices(n)
    pairs = []
    for line in body:
        tokens = _BLANKS.split(line)
        if len(tokens) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        for token in tokens:
            if not -(2**63) <= _decimal(token) < 2**63:
                raise ValueError(f"edge endpoint {token} beyond int64, out of range for n={n}")
        pairs.append((int(tokens[0]), int(tokens[1])))
    for (u, v), line in zip(pairs, body):
        if u >= v:
            raise ValueError(f"edge lines must satisfy u < v, got {line!r}")
    for u, v in pairs:
        if u < 0 or v >= n:
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    raise AssertionError("load_graph's byte pass refused a text its line pass accepts")


def load_graph(text: str) -> Graph:
    """Read a graph text by the grammar of this module's docstring; a
    ValueError names what it refuses, by line where it can."""
    # Eight LFs before the text, so that the 8-byte word ending at any token
    # lies in the buffer, and one after it, so that its last line needs none.
    buf = bytearray(f"\n\n\n\n\n\n\n\n{text}\n".encode("utf-8", "surrogatepass"))
    b = np.frombuffer(buf, dtype=np.uint8)
    if not _blank_comments(buf, b):
        _refuse_graph(text)
    lf = b == ord("\n")
    blank = lf | (b == ord(" ")) | (b == ord("\t"))
    if b"\r" in buf:
        blank[:-1] |= lf[1:] & (b[:-1] == ord("\r"))  # the CR of a CRLF
    bounds = np.flatnonzero(blank[:-1] != blank[1:]) + 1
    starts, ends = bounds[0::2], bounds[1::2]  # token i is b[starts[i]:ends[i]]
    if starts.size < 3 or buf[starts[0] : ends[0]] != b"g":
        _refuse_graph(text)
    # Token i opens a line iff an LF lies between it and token i - 1: look at
    # the byte before it, or at the whole gap if that is a longer run of blanks.
    head = b[starts - 1] == ord("\n")
    wide = np.flatnonzero(~head[1:] & (starts[1:] - ends[:-1] > 1)) + 1
    if wide.size:
        gaps = np.stack((ends[wide - 1], starts[wide]), axis=1).ravel()
        head[wide] = np.logical_or.reduceat(lf, gaps)[0::2]
    n, m = (buf[starts[i] : ends[i]].decode("latin-1") for i in (1, 2))
    if head[1:3].any() or not head[3:4].all():
        _refuse_graph(text)  # the header line holds other than three tokens
    if not (_DECIMAL.fullmatch(n) and _DECIMAL.fullmatch(m)):
        _refuse_graph(text)
    n, m = int(n), int(m)
    check_vertices(n)  # before the n x n matrix below is allocated
    if starts.size != 3 + 2 * m or not head[3::2].all() or head[4::2].any():
        _refuse_graph(text)  # the header is not followed by m lines of two tokens
    # Past the header, a byte that is neither blank nor a digit must be a sign
    # that opens a token and precedes a digit.
    digit = b - np.uint8(ord("0")) < 10
    signs = np.flatnonzero(~(digit | blank))
    signs = signs[signs >= ends[2]]
    if signs.size and not (
        np.isin(b[signs], (ord("+"), ord("-"))).all()
        and blank[signs - 1].all()
        and digit[signs + 1].all()
    ):
        _refuse_graph(text)
    starts, ends = starts[3:], ends[3:]
    count = ends - starts  # the digits of each edge token
    signed = np.searchsorted(starts, signs)
    count[signed] -= 1
    for i in np.flatnonzero(count > 8):  # digits beyond the last 8 must be leading zeros
        if buf[ends[i] - count[i] : ends[i] - 8].strip(b"0"):
            _refuse_graph(text)  # out of range: n <= VERTEX_CAP < 10**8
        count[i] = 8
    words = np.ndarray((b.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    values = np.empty(2 * m, dtype=np.int64)
    for lo in range(0, 2 * m, 2 * _POLL_LINES):
        check_budget(0)  # the deadline only: parsing expands no search node
        hi = lo + 2 * _POLL_LINES
        block = words[ends[lo:hi] - 8]
        block &= _DIGIT_NIBBLES[count[lo:hi]]
        values[lo:hi] = _eight_digits(block)
    values[signed[b[signs] == ord("-")]] *= -1
    u, v = values[0::2], values[1::2]
    if not ((u < v).all() and (u >= 0).all() and (v < n).all()):
        _refuse_graph(text)
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


_WEIGHT = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+|/[0-9]*[1-9][0-9]*)?")


def parse_weight(s: str) -> Fraction:
    """The exact value of a weight as format_weight writes it; a ValueError
    refuses any other string."""
    if not _WEIGHT.fullmatch(s):
        raise ValueError(
            f"invalid weight {s!r}: not [+-]D, [+-]D.D or [+-]D/D of ASCII digits D "
            "with a non-zero denominator"
        )
    return Fraction(s)


# -- hypergraphs ----------------------------------------------------------------


def dump_hypergraph(h: Hypergraph, meta: Mapping[str, str] | None = None) -> str:
    lines = [f"h {h.n} {h.m}"]
    lines.extend(_meta_lines(meta))
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def load_hypergraph(text: str) -> Hypergraph:
    n, m, body = _table(text, "h")
    h = Hypergraph(n, (tuple(map(_decimal, _BLANKS.split(line))) for line in body))
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
    head = "\n".join([f"f {fam.N} {fam.ell}", *_meta_lines(merged)]) + "\n"
    # Each draw's padded name and a space, the last draw of a row with an LF
    # instead; a draw equal to the next one (rows are sorted) is all NULs.
    digits = _digit_table(fam.source_n)
    width = digits.shape[1]
    cells = np.empty((fam.N, fam.ell, width + 1), dtype=np.uint8)
    cells[:, :, :width] = digits[fam.draws]
    cells[:, :, width] = ord(" ")
    cells[:, -1, width] = ord("\n")
    cells[:, :-1][fam.draws[:, :-1] == fam.draws[:, 1:]] = 0
    return head + cells[cells != 0].tobytes().decode("ascii")


def load_family(text: str) -> SubsetFamily:
    """Read dump_family's text.  The sets alone do not fix the source size,
    so a text without a `# source-n` line is refused, not guessed at."""
    N, ell, body = _table(text, "f")
    sets = tuple(tuple(map(_decimal, _BLANKS.split(line))) for line in body)
    meta = parse_meta(text)
    if "source-n" not in meta:
        raise ValueError("family text has no '# source-n: <n>' line")
    source_n = _decimal(meta["source-n"])
    check_vertices(source_n)  # before the family's arrays are built
    return SubsetFamily(source_n=source_n, ell=ell, sets=sets)


# -- JSON instance formats --------------------------------------------------------


# JSON field: (its shape, the shape in words).  A shape is int or str, [shape]
# for a list of shapes, or a tuple of shapes for an array of that length.
_FIELDS = {
    "n": (int, "an integer"),
    "k": (int, "an integer"),
    "edges": ([(int, int)], "a list of [u, v] integer pairs"),
    "weights": ([str], "a list of weight strings"),
    "demands": ([(int, int)], "a list of [s, t] integer pairs"),
    "arcs": ([(int, int, str)], "a list of [u, v, weight] arrays, weight a string"),
}


def _fits(value: Any, shape: Any) -> bool:
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(x, shape[0]) for x in value)
    if isinstance(shape, tuple):
        return (
            isinstance(value, list)
            and len(value) == len(shape)
            and all(map(_fits, value, shape))
        )
    return type(value) is shape  # so that neither a bool nor a float is an int


def _fields(text: str, kind: str, *names: str) -> list[Any]:
    """The named fields of a JSON instance of type `kind`; a ValueError names
    a missing or mistyped field."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    if d.get("type") != kind:
        raise ValueError(f"expected type {kind}, got {d.get('type')!r}")
    for name in names:
        shape, what = _FIELDS[name]
        if name not in d:
            raise ValueError(f"missing field {name!r}")
        if not _fits(d[name], shape):
            raise ValueError(f"field {name!r} must be {what}")
    return [d[name] for name in names]


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
    n, edges, weights, demands, k = _fields(
        text, "steiner-k-forest", "n", "edges", "weights", "demands", "k"
    )
    if len(weights) != len(edges):
        raise ValueError("field 'weights' must hold one weight per edge")
    # weights align with the graph's sorted edges: orient u < v, sort, keep pairs
    pairs = sorted(((min(e), max(e)), parse_weight(w)) for e, w in zip(edges, weights))
    for (e, _), (f, _) in zip(pairs, pairs[1:]):
        if e == f:
            raise ValueError(f"edge {e} listed twice")
    g = Graph(n, [e for e, _ in pairs])
    weights = tuple(w for _, w in pairs)
    return SteinerForestInstance(graph=g, weights=weights, demands=tuple(demands), k=k)


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
    n, arcs, demands = _fields(text, "dsn", "n", "arcs", "demands")
    arcs = [(u, v, parse_weight(w)) for u, v, w in arcs]
    if len({(u, v) for u, v, _ in arcs}) != len(arcs):
        raise ValueError("duplicate arc entries")
    return DsnInstance(digraph=WeightedDigraph(n, arcs), demands=tuple(demands))
