"""Graph file ingestion: edge list, DIMACS, and Matrix Market readers.

All readers drop self-loops and duplicate edges, so the returned graph is
simple. Vertex indexing is deterministic: first appearance for edge lists,
1..n declaration order for the indexed formats, whose every number must be
an ASCII integer (``[+-]?[0-9]+``).

Edge-list text without a ``#`` whose every line holds zero or two tokens
is read with one ``str.split`` of the whole text: every line boundary is
whitespace to ``str.split``, so the tokens are those of the lines. Any
other text is read line by line, which names the line of an error.
"""

from __future__ import annotations

import re
from typing import IO, Iterable

from .errors import GraphError, ParseError
from .graphs import Graph

FORMATS = ("edgelist", "dimacs", "matrixmarket")
# the only numbers read from outside text (these readers, the model readers and
# the command line): int() and float() alone would also read "1_0" and non-ASCII digits
_INTEGER = r"[+-]?[0-9]+"
_DECIMAL = r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"


def load_graph(source: str | IO[str], fmt: str = "edgelist") -> Graph:
    """Parse ``source`` (text content or a text stream) as ``fmt``."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "dimacs":
        return _parse_dimacs(text.splitlines())
    if fmt == "matrixmarket":
        return _parse_matrixmarket(text.splitlines())
    raise ParseError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")


def _parse_edgelist(text: str) -> Graph:
    labels = _edgelist_labels(text)
    if not labels:
        raise ParseError("empty graph: no edges found")
    ends = iter(labels)
    return Graph.from_labeled_edges(zip(ends, ends))


def _edgelist_labels(text: str) -> list[str]:
    """Both labels of every edge line in order, comments and blank lines
    skipped; a line with another number of tokens is refused by number."""
    lines = text.splitlines()
    if "#" not in text and {0, 2}.issuperset(map(len, map(str.split, lines))):
        return text.split()
    labels: list[str] = []
    for no, raw in enumerate(lines, start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if len(tokens) != 2:
            if not tokens:
                continue
            raise ParseError(f"expected two labels, got {len(tokens)} tokens", line=no)
        labels += tokens
    return labels


def _integers(tokens: list[str], problem: str, no: int) -> list[int]:
    """``tokens`` read as ASCII integers; any other token raises
    :class:`ParseError` ``problem`` naming line ``no``."""
    for token in tokens:
        if re.fullmatch(_INTEGER, token) is None:
            raise ParseError(problem, line=no)
    return list(map(int, tokens))


def _parse_dimacs(lines: Iterable[str]) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=no)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("expected 'p edge <n> <m>'", line=no)
            n, _ = _integers(tokens[2:], "non-integer size in problem line", no)
            if n < 1:
                raise ParseError("empty graph: vertex count must be positive", line=no)
        elif tokens[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line=no)
            if len(tokens) != 3:
                raise ParseError("expected 'e <u> <v>'", line=no)
            u, v = _integers(tokens[1:], "non-integer endpoint", no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", line=no)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {tokens[0]!r}", line=no)
    if n is None:
        raise ParseError("missing problem line")
    return Graph([str(i) for i in range(1, n + 1)], edges)


def _parse_matrixmarket(lines: Iterable[str]) -> Graph:
    it = iter(enumerate(lines, start=1))
    try:
        no, header = next(it)
    except StopIteration:
        raise ParseError("empty file") from None
    tokens = header.strip().split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
        raise ParseError("expected '%%MatrixMarket matrix coordinate pattern symmetric'", line=no)
    if [t.lower() for t in tokens[1:]] != ["matrix", "coordinate", "pattern", "symmetric"]:
        raise ParseError("only 'matrix coordinate pattern symmetric' is supported", line=no)
    size = None
    edges: list[tuple[int, int]] = []
    expected = 0
    for no, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        tokens = line.split()
        if size is None:
            if len(tokens) != 3:
                raise ParseError("expected '<rows> <cols> <entries>'", line=no)
            rows, cols, expected = _integers(tokens, "non-integer size line", no)
            if rows != cols:
                raise ParseError("adjacency matrix must be square", line=no)
            if rows < 1:
                raise ParseError("empty graph: matrix has no rows", line=no)
            size = rows
        else:
            if len(tokens) != 2:
                raise ParseError("expected '<row> <col>'", line=no)
            i, j = _integers(tokens, "non-integer entry", no)
            if not (1 <= i <= size and 1 <= j <= size):
                raise ParseError(f"entry out of range 1..{size}", line=no)
            edges.append((i - 1, j - 1))
    if size is None:
        raise ParseError("missing size line")
    if len(edges) != expected:
        raise ParseError(f"declared {expected} entries but found {len(edges)}")
    return Graph([str(i) for i in range(1, size + 1)], edges)


def dump_edgelist(g: Graph) -> str:
    """Serialize ``g`` as edge list text: one 'u v' line per edge, and a
    loop line 'v v', which the reader takes as a bare vertex, for each
    vertex without an edge, in the order of the vertices."""
    for lab in g.labels:
        # the reader takes a whole whitespace-free token and cuts comments at any '#'
        if lab.split() != [lab] or "#" in lab:
            raise GraphError(f"label {lab!r} cannot be written as edge list")
    labels = g.labels
    lines = [f"{labels[u]} {labels[v]}" for u, row in enumerate(g.adj)
             for v in (row or (u,)) if u <= v]
    return "\n".join(lines) + "\n"
