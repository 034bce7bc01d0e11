"""Immutable simple undirected graphs over dense integer vertex ids.

Vertices are indexed 0..n-1 and carry an external string label. Each
vertex keeps one sorted neighbor row: O(n + m) memory, and every reader
here runs in O(n + m). Subset searches build their own neighbor bitmasks.

Outside input (string labels and an edge list) is validated once, by
``Graph.__init__``. Every vertex id handed in later (a set to check, a
vertex to delete, an edge to look up) goes through one validator,
``Graph._vertex_ids``, which takes only an ``int`` in 0..n-1. Derived
graphs (subgraphs, edge surgery, attached leaves) and
``from_labeled_edges``, which refuses a label that is not a ``str``,
build their sorted rows directly and hand them to the trusting
``Graph._from_rows``. Rows built from an edge list are
per-vertex neighbor lists, sorted; a row is rebuilt through a set only
when it holds a repeated edge or a loop.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Container, Iterable, Iterator, Sequence

from .errors import GraphError

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_of(flags: bytes | bytearray) -> int:
    """Bitmask with bit v set iff ``flags[v]`` is 1, built in linear time."""
    return int(flags[::-1].translate(_TO_DIGITS) or b"0", 2)


def _flags_of(mask: int, n: int = 0) -> bytearray:
    """Inverse of :func:`_mask_of` for a non-negative mask, in linear time:
    byte v is 1 iff bit v is set, zero-padded to at least ``n`` bytes."""
    return bytearray(bin(mask)[:1:-1].encode().translate(_TO_FLAGS).ljust(n, b"\x00"))


def bits_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def fresh_label(taken: Container[str], stem: str) -> str:
    """Return ``stem``, suffixed with underscores until it is not in ``taken``
    (a set or dict, which a caller adding many labels keeps and extends)."""
    label = stem
    while label in taken:
        label += "_"
    return label


def _count(name: str, value: object) -> int:
    """``value``, refused by ``name`` unless exactly an ``int`` (a bool is not one)."""
    if type(value) is not int:
        raise GraphError(f"{name} must be an int, not {value!r}")
    return value


def _sorted_rows(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor rows of in-range edges; loops and repeats dropped."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    for row in rows:
        row.sort()
    # a loop puts its vertex twice into its own row, so both show as a repeat
    if sum(map(len, map(set, rows))) < sum(map(len, rows)):
        rows = [sorted(set(row) - {u}) if len(set(row)) < len(row) else row
                for u, row in enumerate(rows)]
    return tuple(map(tuple, rows))


class Graph:
    """Simple undirected graph. Instances are never mutated after __init__."""

    # _profile memoizes decomposition.profile; safe because nothing mutates a Graph
    __slots__ = ("n", "m", "labels", "adj", "_index", "_profile")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        n = len(labels)
        if n == 0:
            raise GraphError("graph must have at least one vertex")
        index: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if type(lab) is not str:
                raise GraphError(f"vertex label {lab!r} is not a string")
            if lab in index:
                raise GraphError(f"duplicate vertex label {lab!r}")
            index[lab] = i
        edges = list(edges)
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphError(f"edge {edge!r} is not a pair of vertex ids") from None
            if not (type(u) is int and type(v) is int):
                raise GraphError(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        self._fill(labels, _sorted_rows(n, edges), index)

    def _fill(self, labels: tuple[str, ...], adj: tuple, index: dict[str, int]) -> None:
        self.n = len(labels)
        self.labels = labels
        self.adj = adj
        self.m = sum(map(len, adj)) // 2
        self._index = index
        self._profile = None

    @classmethod
    def _from_rows(cls, labels: Sequence[str], rows: Iterable[tuple[int, ...]],
                   index: dict[str, int] | None = None) -> "Graph":
        """Trusting constructor: the rows are sorted, duplicate-free and symmetric,
        the labels unique, and ``index`` (if given) maps each label to its id."""
        g = cls.__new__(cls)
        labels = tuple(labels)
        g._fill(labels, tuple(rows), index or dict(zip(labels, range(len(labels)))))
        return g

    @classmethod
    def from_labeled_edges(cls, pairs: Iterable[tuple[str, str]]) -> "Graph":
        """Build a graph from label pairs; indices follow first appearance."""
        tokens = list(chain.from_iterable(pairs))
        try:
            labels = tuple(dict.fromkeys(tokens))  # first appearance, left end first
        except TypeError:  # an unhashable token, which no str is
            for label in tokens:
                try:
                    hash(label)
                except TypeError:
                    raise GraphError(f"vertex label {label!r} is not a string") from None
            raise
        if not labels:
            raise GraphError("graph must have at least one vertex")
        if set(map(type, labels)) != {str}:  # one pass in C over the distinct labels
            label = next(lab for lab in labels if type(lab) is not str)
            raise GraphError(f"vertex label {label!r} is not a string")
        index = dict(zip(labels, range(len(labels))))
        ends = map(index.__getitem__, tokens)
        return cls._from_rows(labels, _sorted_rows(len(labels), zip(ends, ends)), index)

    # -- basic accessors ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        self._vertex_ids((v,))
        return len(self.adj[v])

    def _vertex_ids(self, vertices: Iterable[int]) -> list[int]:
        """The distinct ids of ``vertices``, ascending; refuses any value that
        is not exactly an ``int`` in 0..n-1 (so no bool, float or string)."""
        ids = list(vertices)
        for v in ids:
            if type(v) is not int or not 0 <= v < self.n:
                raise GraphError(f"vertex {v!r} not in graph")
        return sorted(set(ids))

    def has_edge(self, u: int, v: int) -> bool:
        self._vertex_ids((u, v))
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def labels_of(self, vertices: Iterable[int]) -> tuple[str, ...]:
        """The labels of ``vertices``, in their order and with their repeats."""
        ids = list(vertices)
        self._vertex_ids(ids)
        return tuple([self.labels[v] for v in ids])

    def indices_of(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.index(lab) for lab in labels)

    # -- connectivity ----------------------------------------------------

    def _search(self, start: int, left: bytearray) -> list[int]:
        """Vertices reached from ``start`` by a breadth-first search through
        those flagged in ``left``, each flag cleared; O(n + m) per ``left``."""
        left[start] = 0
        queue = [start]
        for v in queue:
            for w in self.adj[v]:
                if left[w]:
                    left[w] = 0
                    queue.append(w)
        return queue

    def reach_mask(self, start: int, within: int | None = None) -> int:
        """Bitmask of vertices reachable from ``start`` inside ``within``
        (0 when ``start`` is not in it)."""
        self._vertex_ids((start,))
        allowed = self.full_mask if within is None else within & self.full_mask
        left = _flags_of(allowed, self.n)
        if not left[start]:
            return 0
        self._search(start, left)
        return allowed ^ _mask_of(left)

    def is_connected(self) -> bool:
        return len(self._search(0, bytearray(b"\x01") * self.n)) == self.n

    def is_connected_mask(self, mask: int) -> bool:
        """True iff ``mask`` is nonempty and induces a connected subgraph."""
        if mask == 0:
            return False
        start = (mask & -mask).bit_length() - 1
        return self.reach_mask(start, within=mask) == mask

    def component_masks(self, within: int | None = None) -> list[int]:
        """Connected components of the subgraph induced by ``within``."""
        allowed = self.full_mask if within is None else within & self.full_mask
        left = _flags_of(allowed, self.n)
        return [bits_of(self._search(v, left)) for v in range(self.n) if left[v]]

    def components(self) -> list[list[int]]:
        """Connected components as ascending id lists, by least member."""
        left = bytearray(b"\x01") * self.n
        return [sorted(self._search(v, left)) for v in range(self.n) if left[v]]

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old-index -> new-index map."""
        keep = self._vertex_ids(vertices)
        if not keep:
            raise GraphError("an induced subgraph needs one or more vertices of the graph")
        remap = dict(zip(keep, range(len(keep))))
        adj = self.adj
        rows = [tuple([remap[w] for w in adj[u] if w in remap]) for u in keep]
        return Graph._from_rows([self.labels[v] for v in keep], rows), remap

    def delete_vertex(self, v: int) -> "Graph":
        self._vertex_ids((v,))
        if self.n == 1:
            raise GraphError("cannot delete the only vertex")
        return self.induced_subgraph(u for u in range(self.n) if u != v)[0]

    def _require_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"no edge {self.labels[u]},{self.labels[v]}")

    def delete_edge(self, u: int, v: int) -> "Graph":
        self._require_edge(u, v)
        rows = list(self.adj)
        rows[u] = tuple(w for w in rows[u] if w != v)
        rows[v] = tuple(w for w in rows[v] if w != u)
        return Graph._from_rows(self.labels, rows, self._index)

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Merge the endpoints of an edge; the smaller index keeps its label.

        Parallel edges created by the merge collapse and the loop is dropped,
        so the result is again simple.
        """
        self._require_edge(u, v)
        keep, drop = min(u, v), max(u, v)
        touched = set(self.adj[drop])
        rows = []
        for w, row in enumerate(self.adj):
            if w == keep:
                row = sorted(set(row).union(self.adj[drop]) - {keep, drop})
            elif w in touched:
                row = sorted({keep if x == drop else x for x in row})
            if w != drop:
                rows.append(tuple([x - (x > drop) for x in row]))
        return Graph._from_rows(self.labels[:drop] + self.labels[drop + 1:], rows)

    def subdivide_edge(self, u: int, v: int) -> "Graph":
        """Replace edge uv by a path u-w-v through a new vertex w."""
        self._require_edge(u, v)
        w = self.n
        rows = list(self.adj)
        rows[u] = tuple(x for x in rows[u] if x != v) + (w,)
        rows[v] = tuple(x for x in rows[v] if x != u) + (w,)
        rows.append((min(u, v), max(u, v)))
        label = fresh_label(self._index, f"sub_{self.labels[u]}_{self.labels[v]}")
        return Graph._from_rows(self.labels + (label,), rows)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.labels, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def attach_leaves(g: Graph, x: Iterable[int], r: int) -> Graph:
    """Attach ``r`` new degree-1 vertices to every vertex in ``x``.

    Leaf labels are generated deterministically from the host label.
    """
    if _count("r", r) < 1:
        raise GraphError("r must be at least 1")
    targets = g._vertex_ids(x)
    labels = list(g.labels)
    taken = set(labels)
    rows = list(g.adj)
    for v in targets:
        first = len(labels)
        for j in range(1, r + 1):
            lab = fresh_label(taken, f"{g.labels[v]}_leaf{j}")
            taken.add(lab)
            labels.append(lab)
        rows[v] += tuple(range(first, first + r))  # new ids exceed every old one
        rows += [(v,)] * r
    return Graph._from_rows(labels, rows)


def path_graph(n: int) -> Graph:
    if _count("n", n) < 1:
        raise GraphError("path needs at least one vertex")
    return Graph([f"v{i + 1}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if _count("n", n) < 3:
        raise GraphError("cycle needs at least three vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph([f"v{i + 1}" for i in range(n)], edges)


def complete_graph(n: int) -> Graph:
    if _count("n", n) < 1:
        raise GraphError("complete graph needs at least one vertex")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph([f"v{i + 1}" for i in range(n)], edges)
