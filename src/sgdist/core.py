"""Signed graph representation, edge-list I/O, switching and structural predicates.

A signed graph is a simple undirected graph whose edges carry a sign in
{+1, -1}.  Vertices are dense 0-based integers.  Signs are plain Python
ints; every boundary that accepts a sign validates it.

Signed distances and compatibility come from the all-sources pass of
`distance`.  The package's other breadth-first searches are the two here:
`_bfs_dist`, the unsigned hop distances from one source (connectivity,
geodeticity and the odd/even walks of `products`), and `_potential`, the
+1/-1 vertex labelling that exists iff the graph is balanced (or, with
every edge read as negative, bipartite).
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import Iterable, Sequence

__all__ = [
    "SignedGraph",
    "EdgeListError",
    "parse_edge_list",
    "serialize_edge_list",
    "switch",
    "balance_potential",
    "is_balanced",
    "cycle_sign",
    "StructuralSummary",
    "structural_predicates",
    "is_connected",
    "is_two_connected",
    "is_geodetic",
    "has_odd_cycle",
    "net_degree",
    "net_degrees",
    "is_net_regular",
]


def _check_sign(s: int) -> int:
    if s != 1 and s != -1:
        raise ValueError(f"sign must be +1 or -1, got {s!r}")
    return int(s)


def _vertex_count(n: int) -> int:
    """The vertex count n as a plain int; ValueError unless it is an integer
    (Python or numpy)."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"vertex count must be an integer, got {n!r}") from None


def _check_order(n: int) -> int:
    """The vertex count n as a plain int; ValueError unless it is an integer >= 1."""
    n = _vertex_count(n)
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return n


def _check_ends(u, v) -> tuple[int, int]:
    """The ends of edge (u, v) as ints; ValueError naming the edge unless both
    are integers (Python or numpy)."""
    try:
        return operator.index(u), operator.index(v)
    except TypeError:
        raise ValueError(f"edge ({u},{v}) has a non-integer vertex") from None


@dataclass(frozen=True)
class SignedGraph:
    """Immutable simple undirected graph with +1/-1 edge signs.

    `edges` takes (u, v, sign) triples with u < v in any order; the
    constructor sorts them, so `edges` is a sorted tuple and two values
    compare and hash equal exactly when they hold the same graph.  Use
    :meth:`from_edges` to build one from triples whose ends may be swapped.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _check_order(self.n))
        # Checked before sorting: sorting a malformed triple raises TypeError.
        # The checks' plain ints are stored, so floats, bools and numpy
        # scalars never reach `n` or `edges`, and the tuples hash by value.
        checked = []
        for u, v, s in self.edges:
            u, v = _check_ends(u, v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            checked.append((u, v, _check_sign(s)))
        edges = tuple(sorted(checked))
        for (u, v, _), (x, y, _) in pairwise(edges):
            if u == x and v == y:
                raise ValueError(f"duplicate edge ({u},{v})")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int, int], ...]) -> "SignedGraph":
        """A graph from edges already valid and sorted, built without the checks.

        For generators whose edges hold the invariants of `__post_init__` by
        construction: n >= 1, int triples u < v < n with sign +1 or -1,
        sorted and without duplicates.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "SignedGraph":
        """Build a graph, orienting each (u, v, s) so that u < v."""
        oriented = []
        for u, v, s in edges:
            u, v = _check_ends(u, v)
            oriented.append((min(u, v), max(u, v), s))
        return cls(n, tuple(oriented))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, sign) pairs, sorted by neighbor."""
        # Ascending without a sort: the edges are sorted with u < v, so w's
        # neighbours u < w arrive first, in order of u, from edges (u, w, s),
        # and then its neighbours v > w, in order of v, from edges (w, v, s).
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, s in self.edges:
            adj[u].append((v, s))
            adj[v].append((u, s))
        return tuple(map(tuple, adj))

    @cached_property
    def _sign_lookup(self) -> dict[tuple[int, int], int]:
        d = {}
        for u, v, s in self.edges:
            d[(u, v)] = s
            d[(v, u)] = s
        return d

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._sign_lookup

    def sign(self, u: int, v: int) -> int:
        """Sign of the edge uv; raises if uv is not an edge."""
        try:
            return self._sign_lookup[(u, v)]
        except KeyError:
            raise ValueError(f"({u},{v}) is not an edge") from None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def with_signs(self, signs: Sequence[int]) -> "SignedGraph":
        """Same underlying graph with a new sign per edge, in `self.edges` order."""
        if len(signs) != self.m:
            raise ValueError(f"expected {self.m} signs, got {len(signs)}")
        return SignedGraph._trusted(
            self.n,
            tuple((u, v, _check_sign(s)) for (u, v, _), s in zip(self.edges, signs)),
        )


class EdgeListError(ValueError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_SIGN_TOKENS = {"+": 1, "-": -1, "+1": 1, "-1": -1}


def parse_edge_list(text: str) -> SignedGraph:
    """Parse the edge-list format into a SignedGraph.

    Format: first significant line is "n m"; then m lines "u v s" with
    0 <= u, v < n and s in {+, -, +1, -1}.  Lines starting with "#" and
    blank lines are ignored.  Errors report the 1-based line number.
    """
    n = m = None
    edges: list[tuple[int, int, int]] = []
    seen_pairs: set[int] = set()
    # Each line is split once; its stripped text is only built for a message.
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if n is None:
            if len(parts) != 2:
                raise EdgeListError(line_no, f"expected header 'n m', got {raw.strip()!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListError(line_no, f"non-integer header {raw.strip()!r}") from None
            if n < 1:
                raise EdgeListError(line_no, f"vertex count must be >= 1, got {n}")
            if m < 0:
                raise EdgeListError(line_no, f"edge count must be >= 0, got {m}")
            continue
        if len(parts) != 3:
            raise EdgeListError(line_no, f"expected 'u v s', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(line_no, f"non-integer vertex in {raw.strip()!r}") from None
        s = _SIGN_TOKENS.get(parts[2])
        if s is None:
            raise EdgeListError(line_no, f"bad sign {parts[2]!r} (use +, -, +1 or -1)")
        if u == v:
            raise EdgeListError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(line_no, f"vertex index out of range in {raw.strip()!r} (n={n})")
        if u > v:
            u, v = v, u
        key = u * n + v
        if key in seen_pairs:
            raise EdgeListError(line_no, f"duplicate edge ({u},{v})")
        seen_pairs.add(key)
        if len(edges) == m:
            raise EdgeListError(line_no, f"more than the declared {m} edges")
        edges.append((u, v, s))
    if n is None:
        raise EdgeListError(1, "empty input, expected header 'n m'")
    if len(edges) != m:
        raise EdgeListError(1, f"header declares {m} edges, found {len(edges)}")
    # Every edge was checked above as it was read: int ends u < v < n, a
    # valid sign, no duplicate.  Sorting is all the constructor would add.
    return SignedGraph._trusted(n, tuple(sorted(edges)))


def serialize_edge_list(g: SignedGraph) -> str:
    """Canonical edge-list text: sorted edges, '+'/'-' signs, trailing newline."""
    lines = [f"{g.n} {g.m}"]
    for u, v, s in g.edges:
        lines.append(f"{u} {v} {'+' if s > 0 else '-'}")
    return "\n".join(lines) + "\n"


def switch(g: SignedGraph, zeta: Sequence[int]) -> SignedGraph:
    """Switch g by the vertex signing zeta: edge uv gets sign zeta[u]*s*zeta[v].

    Switching preserves the underlying graph and every cycle sign; applying
    the same zeta twice is the identity.
    """
    if len(zeta) != g.n:
        raise ValueError(f"switching function has length {len(zeta)}, graph order {g.n}")
    z = [_check_sign(s) for s in zeta]
    return g.with_signs([z[u] * s * z[v] for u, v, s in g.edges])


def _check_vertex(g: SignedGraph, v: int) -> None:
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")


def _potential(g: SignedGraph, signed: bool) -> list[int] | None:
    """Vertex labelling zeta with zeta[u]*s*zeta[v] = +1 on every edge uv,
    where s is the edge sign if `signed` and -1 otherwise.

    Assigned by BFS per component; returns None on the first edge that
    contradicts the assignment.
    """
    zeta = [0] * g.n
    for root in range(g.n):
        if zeta[root]:
            continue
        zeta[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in g.adjacency[u]:
                if not signed:
                    s = -1
                if zeta[v] == 0:
                    zeta[v] = zeta[u] * s
                    queue.append(v)
                elif zeta[u] * s * zeta[v] != 1:
                    return None
    return zeta


def balance_potential(g: SignedGraph) -> list[int] | None:
    """Vertex signing zeta with zeta[u]*sign(uv)*zeta[v] = +1 on every edge.

    Exists iff g is balanced (every cycle positive); None otherwise.
    """
    return _potential(g, signed=True)


def is_balanced(g: SignedGraph) -> bool:
    """True iff every cycle of g has positive sign."""
    return balance_potential(g) is not None


def cycle_sign(g: SignedGraph, cycle: Sequence[int]) -> int:
    """Product of edge signs along a cycle given as a distinct-vertex sequence.

    Consecutive vertices, and the last-to-first pair, must be edges of g.
    """
    k = len(cycle)
    if k < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {k}")
    if len(set(cycle)) != k:
        raise ValueError("repeated vertex in cycle")
    sign = 1
    for i in range(k):
        sign *= g.sign(cycle[i], cycle[(i + 1) % k])
    return sign


def _bfs_dist(g: SignedGraph, s: int) -> list[int]:
    """Hop distances from s; -1 marks vertices s cannot reach."""
    dist = [-1] * g.n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v, _ in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_connected(g: SignedGraph) -> bool:
    return all(d >= 0 for d in _bfs_dist(g, 0))


def is_two_connected(g: SignedGraph) -> bool:
    """Connected, at least 3 vertices, and no cut vertex.

    One iterative depth-first search from vertex 0 computes Tarjan's
    low-links: a non-root vertex p is a cut vertex iff some DFS child c
    has low[c] >= disc[p], and the root is one iff it has two DFS children.
    """
    n = g.n
    if n < 3:
        return False
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    disc[0] = 0
    found = 1
    root_children = 0
    stack = [(0, iter(adj[0]))]
    while stack:
        u, nbrs = stack[-1]
        for w, _ in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = found
                found += 1
                parent[w] = u
                stack.append((w, iter(adj[w])))
                break
            if w != parent[u] and disc[w] < low[u]:
                low[u] = disc[w]
        else:
            stack.pop()
            p = parent[u]
            if p == 0:
                root_children += 1
            elif p > 0:
                if low[u] >= disc[p]:
                    return False
                if low[u] < low[p]:
                    low[p] = low[u]
    return found == n and root_children == 1


def is_geodetic(g: SignedGraph) -> bool:
    """True iff every connected vertex pair has exactly one shortest path.

    By induction on the distance from s, every vertex reachable from s has
    a unique shortest path from s exactly when none has two neighbours one
    hop closer to s.
    """
    for s in range(g.n):
        dist = _bfs_dist(g, s)
        for v, d in enumerate(dist):
            if d > 0 and [dist[u] for u, _ in g.adjacency[v]].count(d - 1) > 1:
                return False
    return True


def has_odd_cycle(g: SignedGraph) -> bool:
    """True iff the underlying graph is non-bipartite, i.e. its all-negative
    signing is unbalanced."""
    return _potential(g, signed=False) is None


@dataclass(frozen=True)
class StructuralSummary:
    is_connected: bool
    is_two_connected: bool
    is_geodetic: bool
    has_odd_cycle: bool


def structural_predicates(g: SignedGraph) -> StructuralSummary:
    """Connectivity, 2-connectivity, geodeticity and odd-cycle presence."""
    return StructuralSummary(
        is_connected=is_connected(g),
        is_two_connected=is_two_connected(g),
        is_geodetic=is_geodetic(g),
        has_odd_cycle=has_odd_cycle(g),
    )


def net_degree(g: SignedGraph, v: int) -> int:
    """Positive-incident-edge count minus negative-incident-edge count."""
    _check_vertex(g, v)
    return sum(s for _, s in g.adjacency[v])


def net_degrees(g: SignedGraph) -> list[int]:
    return [net_degree(g, v) for v in range(g.n)]


def is_net_regular(g: SignedGraph) -> bool:
    """True iff every vertex has the same net-degree."""
    degs = net_degrees(g)
    return all(d == degs[0] for d in degs)
