"""Signed shortest-path distances, distance matrices, compatibility and witnesses.

Between two vertices u, v at hop distance d there may be several shortest
paths, each with a sign (product of its edge signs).  The two signed
distances are d_max = sigma_max * d and d_min = sigma_min * d where
sigma_max / sigma_min are the largest / smallest achievable shortest-path
signs.  A graph is (distance-)compatible when sigma_max = sigma_min for
every pair, i.e. the two distance matrices coincide.

All-pairs results come from one BFS run from every source at once over
bitsets of sources (`_signed_bitsets`), packed into uint64 words, where each
level is one numpy gather and reduction over all edges.  The run takes a
batch of graphs as one disjoint union, so the conjecture search decides a
whole round of small graphs in one run, and a single graph is a batch of
one.

Compatibility is decided on those bitsets alone (`_incompatible_flags`);
`signed_distances` unpacks them into numpy arrays only for callers that read
matrices or pairs (both matrices, the incompatible pairs, the associated
complete graph, witnesses).
Witness paths and conjecture certificates are walked back through one row
of those arrays and checked against an unsigned BFS.
`signed_bfs` and `brute_force_summary` remain as reference routes for
tests and demos; both take their hop distances from `core._bfs_dist`, so
this module runs no BFS loop of its own besides the all-sources pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .core import SignedGraph, _bfs_dist, _check_vertex

__all__ = [
    "PairDistanceSummary",
    "SignedDistances",
    "signed_distances",
    "IncompatibilityWitness",
    "signed_bfs",
    "distance_matrix",
    "is_compatible",
    "incompatible_pairs",
    "least_incompatible_witness",
    "associated_complete",
    "brute_force_summary",
]


@dataclass(frozen=True)
class PairDistanceSummary:
    """Hop distance plus the maximum and minimum shortest-path signs."""

    d: int
    sigma_max: int
    sigma_min: int

    @property
    def d_max(self) -> int:
        return self.sigma_max * self.d

    @property
    def d_min(self) -> int:
        return self.sigma_min * self.d

    @property
    def compatible(self) -> bool:
        return self.sigma_max == self.sigma_min


def signed_bfs(g: SignedGraph, s: int) -> list[PairDistanceSummary | None]:
    """Exact distance and achievable shortest-path signs from s to every vertex.

    Hop distances come from one unsigned BFS; then, in order of distance,
    each vertex unions the signs obtained by extending the (already final)
    sign sets of its neighbours one hop closer to s.  Entries for vertices
    unreachable from s are None.
    """
    _check_vertex(g, s)
    dist = _bfs_dist(g, s)
    pos = [False] * g.n  # a positive shortest path from s exists
    neg = [False] * g.n  # a negative shortest path from s exists
    pos[s] = True
    for v in sorted((v for v in range(g.n) if dist[v] > 0), key=dist.__getitem__):
        for u, sgn in g.adjacency[v]:
            if dist[u] == dist[v] - 1:
                if sgn > 0:
                    pos[v] = pos[v] or pos[u]
                    neg[v] = neg[v] or neg[u]
                else:
                    pos[v] = pos[v] or neg[u]
                    neg[v] = neg[v] or pos[u]
    out: list[PairDistanceSummary | None] = []
    for v in range(g.n):
        if dist[v] < 0:
            out.append(None)
        else:
            out.append(
                PairDistanceSummary(
                    d=dist[v],
                    sigma_max=1 if pos[v] else -1,
                    sigma_min=-1 if neg[v] else 1,
                )
            )
    return out


_DISCONNECTED = "graph is disconnected; signed distances are undefined"


@dataclass(frozen=True, eq=False)
class SignedDistances:
    """All-pairs hop distances and achievable shortest-path signs.

    `dist[u, v]` is the hop distance (int32); `pos[u, v]` / `neg[u, v]`
    say whether a positive / negative shortest u-v path exists.  The
    diagonal has distance 0 and only the (empty, positive) path.  All
    three arrays are symmetric and read-only.
    """

    dist: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    @property
    def d_max(self) -> np.ndarray:
        """D^max as int64: sigma_max * d, with sigma_max = +1 iff pos."""
        d = self.dist.astype(np.int64)
        return np.where(self.pos, d, -d)

    @property
    def d_min(self) -> np.ndarray:
        """D^min as int64: sigma_min * d, with sigma_min = -1 iff neg."""
        d = self.dist.astype(np.int64)
        return np.where(self.neg, -d, d)

    @property
    def incompatible(self) -> np.ndarray:
        """Boolean matrix of pairs with shortest paths of both signs."""
        return self.pos & self.neg


# Bits in one uint64 word of the packed bitsets.
_WORD = 64
# Bound on the words one level gathers (8 MiB): a dense graph's half-edges
# times its source words would otherwise dwarf the result.
_GATHER_WORDS = 1 << 20
# One packed word: little-endian, so its bytes unpack in source order.
_U64 = np.dtype("<u8")


def _signed_bitsets(graphs: Sequence[SignedGraph]) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The all-sources level loop over a batch of graphs, as bitsets of sources.

    Each vertex v carries bitsets over sources: bit s of `unseen[v]` is set
    while v is still unreached from s, and bit s of the frontier sets
    `fpos[v]` / `fneg[v]` is set when v was reached from s at the current
    level by a positive / negative shortest path.  One level ORs, for every
    vertex, its neighbours' frontier bits, swapping the two signs across
    negative edges; the bits not seen before form the vertex's next
    frontier.  Returns `(pos, neg, planes)`: bit s of `pos[v]` / `neg[v]`
    says a positive / negative shortest s-v path exists, and distances are
    bit-sliced, bit s of `planes[k][v]` being bit k of d(s, v).  Distances
    are symmetric, so the bitset of v read as a row is row v of each matrix.

    The batch is one disjoint union: vertex v of a graph is column
    `offset + v`, after the columns of the graphs before it.  Each graph
    numbers its own sources from bit 0, so the arrays are `(W, N)` uint64,
    N the sum of the orders and W the words of the largest; bits past a
    graph's order stay 0.  Components never exchange bits, so every graph
    gets the bitsets it would get alone.

    The frontier is one `(W, 2N + 1)` array: positive columns, negative
    columns and a column that stays 0.  A level is one gather of it along a
    half-edge index grouped by vertex (a negative edge reads the opposite
    half) and one `bitwise_or.reduceat` over each vertex's run.  `reduceat`
    does not reduce an empty run to 0, so a vertex of degree 0 reads the
    zero column.  Sources never mix, so the words run in blocks that keep
    the gathered `(words, 4m)` array within `_GATHER_WORDS`; only a graph
    over the bound on its own needs more than one (see `_batches`).

    Raises ValueError when a graph of the batch is disconnected.
    """
    orders = [g.n for g in graphs]
    total = sum(orders)
    w = -(-max(orders) // _WORD)
    sizes = [g.m for g in graphs]
    edges = np.fromiter(
        chain.from_iterable(chain.from_iterable(g.edges for g in graphs)), dtype=np.intp, count=3 * sum(sizes)
    ).reshape(-1, 3)
    offsets = np.cumsum([0] + orders[:-1])
    # Row 0 holds the edges' u ends and row 1 their v ends, as batch columns:
    # each end has a half-edge, which reads the other end of its edge.
    ends = (edges[:, :2] + np.repeat(offsets, sizes)[:, None]).T
    flip = (edges[:, 2] < 0) * total
    runs = np.bincount(ends.ravel(), minlength=total)
    lone = np.flatnonzero(runs == 0)
    zero = np.full(len(lone), 2 * total)
    # Columns of the stacked frontier OR-ed into the positive, then the
    # negative, result column of each vertex.
    order = np.argsort(np.concatenate((ends.ravel(), lone)), kind="stable")
    src_pos = np.concatenate(((ends[::-1] + flip).ravel(), zero))[order]
    src_neg = np.concatenate(((ends[::-1] + total - flip).ravel(), zero))[order]
    src = np.concatenate((src_pos, src_neg))
    runs[lone] = 1
    starts = np.cumsum(runs) - runs
    starts = np.concatenate((starts, starts + len(src_pos)))

    cols = np.arange(total)
    v = cols - np.repeat(offsets, orders)
    pos = np.zeros((w, total), dtype=_U64)
    pos[v // _WORD, cols] = np.uint64(1) << (v % _WORD).astype(_U64)
    neg = np.zeros((w, total), dtype=_U64)
    # The low `fill` bits of word j of a column: its graph's sources there.
    fill = np.minimum(np.maximum(np.repeat(orders, orders) - _WORD * np.arange(w)[:, None], 0), _WORD).astype(_U64)
    unseen = np.where(fill == _WORD, ~np.uint64(0), (np.uint64(1) << fill % np.uint64(_WORD)) - np.uint64(1))
    unseen ^= pos
    planes: list[np.ndarray] = []
    step = max(1, _GATHER_WORDS // len(src))
    for j in range(0, w, step):
        # Views of this block's words, updated in place.
        bpos, bneg, bunseen = pos[j : j + step], neg[j : j + step], unseen[j : j + step]
        front = np.zeros((len(bpos), 2 * total + 1), dtype=_U64)
        fpos, fneg = front[:, :total], front[:, total:-1]
        fpos[:] = bpos
        level = 0
        while bunseen.any():
            level += 1
            if level == 1 << len(planes):
                planes.append(np.zeros((w, total), dtype=_U64))
            np.bitwise_or.reduceat(front.take(src, axis=1), starts, axis=1, out=front[:, :-1])
            new = (fpos | fneg) & bunseen
            if not new.any():
                raise ValueError(_DISCONNECTED)
            bunseen ^= new
            fpos &= new
            fneg &= new
            bpos |= fpos
            bneg |= fneg
            for k, plane in enumerate(planes):
                if level >> k & 1:
                    plane[j : j + step] |= new
    return pos, neg, planes


def _batches(graphs: Sequence[SignedGraph]) -> Iterator[list[SignedGraph]]:
    """Consecutive runs of graphs whose level gathers `_GATHER_WORDS` at most.

    A level gathers the batch's words times its half-edge reads, 4m per
    graph, counted as 4m + 2 to cover the two reads of a K1's zero column.
    """
    batch: list[SignedGraph] = []
    words = reads = 0
    for g in graphs:
        g_words, g_reads = -(-g.n // _WORD), 4 * g.m + 2
        if batch and max(words, g_words) * (reads + g_reads) > _GATHER_WORDS:
            yield batch
            batch, words, reads = [], 0, 0
        batch.append(g)
        words, reads = max(words, g_words), reads + g_reads
    if batch:
        yield batch


def _incompatible_flags(graphs: Sequence[SignedGraph]) -> list[bool]:
    """Per graph, whether some pair has shortest paths of both signs.

    Decided per batch of `_batches`, from its run of `_signed_bitsets`: a
    graph is incompatible iff `pos & neg` is non-zero on one of its columns.
    Raises ValueError when a graph is disconnected.
    """
    flags: list[bool] = []
    for batch in _batches(graphs):
        pos, neg, _ = _signed_bitsets(batch)
        offsets = np.cumsum([0] + [g.n for g in batch[:-1]])
        flags += np.logical_or.reduceat((pos & neg).any(axis=0), offsets).tolist()
    return flags


def _any_incompatible(pos: np.ndarray, neg: np.ndarray) -> bool:
    """True iff some bit is set in both `pos` and `neg` from `_signed_bitsets`."""
    return bool((pos & neg).any())


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """`(n, n)` uint8 0/1 array whose row v holds bits 0..n-1 of column v of `(W, n)` words."""
    return np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8), axis=1, count=n, bitorder="little")


def _assemble(n: int, pos: np.ndarray, neg: np.ndarray, planes: list[np.ndarray]) -> SignedDistances:
    """The read-only `SignedDistances` arrays of one graph's bitsets from `_signed_bitsets`.

    One `np.unpackbits` per array, and one shift-OR per distance plane into
    `dist`.
    """
    dist = np.zeros((n, n), dtype=np.int32)
    for k, plane in enumerate(planes):
        dist |= np.left_shift(_unpack(plane, n), k, dtype=np.int32)
    out = SignedDistances(dist=dist, pos=_unpack(pos, n).view(bool), neg=_unpack(neg, n).view(bool))
    for a in (out.dist, out.pos, out.neg):
        a.flags.writeable = False
    return out


def signed_distances(g: SignedGraph) -> SignedDistances:
    """Signed all-pairs distances from one BFS run from every source at once.

    The level loop is `_signed_bitsets`; its bitsets are unpacked into the
    `dist`, `pos` and `neg` arrays.  Raises ValueError on a disconnected graph.
    """
    return _assemble(g.n, *_signed_bitsets([g]))


def _check_which(which: str) -> str:
    w = which.lower()
    if w not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    return w


def distance_matrix(g: SignedGraph, which: str = "max") -> np.ndarray:
    """The signed distance matrix D^max or D^min as an int64 array.

    Entry (u, v) is sigma_max(u,v)*d(u,v) or sigma_min(u,v)*d(u,v); the
    diagonal is zero.  Requires a connected graph.
    """
    w = _check_which(which)
    sd = signed_distances(g)
    return sd.d_max if w == "max" else sd.d_min


def _sorted_pairs(sd: SignedDistances) -> list[tuple[int, int]]:
    # `nonzero` lists the pairs in (u, v) order, which a stable sort keeps
    # among pairs at one distance.
    u, v = np.nonzero(np.triu(sd.incompatible, k=1))
    order = np.argsort(sd.dist[u, v], kind="stable")
    return list(zip(u[order].tolist(), v[order].tolist()))


def incompatible_pairs(g: SignedGraph) -> list[tuple[int, int]]:
    """Vertex pairs with shortest paths of both signs, sorted by (distance, u, v)."""
    return _sorted_pairs(signed_distances(g))


def is_compatible(g: SignedGraph) -> bool:
    """True iff every vertex pair has all its shortest paths of one sign.

    Decided on the bitsets of the all-sources pass, with no distance array
    built: a pair is incompatible iff its bit is set in both `pos` and `neg`.
    Raises ValueError on a disconnected graph.
    """
    return not _incompatible_flags([g])[0]


@dataclass(frozen=True)
class IncompatibilityWitness:
    """Two internally disjoint opposite-sign shortest paths and their cycle.

    `pair` is an incompatible pair at the minimum incompatible distance k;
    `path_pos` / `path_neg` are shortest paths between them of sign +1 / -1
    sharing only their endpoints, and `cycle` is their union: a negative
    even cycle of length 2k with the pair diametrically opposite.
    """

    pair: tuple[int, int]
    path_pos: tuple[int, ...]
    path_neg: tuple[int, ...]
    cycle: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.path_pos) - 1


def _opposite_paths(
    g: SignedGraph, sd: SignedDistances, u: int, targets: list[int]
) -> list[tuple[list[int], list[int]]]:
    """A positive and a negative shortest u-v path for each v in targets.

    Each path is walked back from v through row u of `sd`, at every step
    taking the first neighbour one hop closer to u through which the
    remaining sign is achievable, so every step is an edge.  Both paths are
    then certified against an independent unsigned BFS from u: the edge
    signs multiply to the path's sign and the length equals the BFS hop count.
    Raises RuntimeError naming the pair when `sd` does not support a path
    or a path fails its certificate; no uncertified path is returned.
    """
    dist, pos, neg = (a[u].tolist() for a in (sd.dist, sd.pos, sd.neg))
    hops = _bfs_dist(g, u)
    out = []
    for v in targets:
        paths = []
        for target in (1, -1):
            path, need, cur = [v], target, v
            while cur != u:
                for w, sgn in g.adjacency[cur]:
                    rem = need * sgn
                    if dist[w] == dist[cur] - 1 and (pos[w] if rem > 0 else neg[w]):
                        path.append(w)
                        cur, need = w, rem
                        break
                else:
                    raise RuntimeError(f"pair ({u},{v}): no shortest path of sign {target:+d} in the distances")
            path.reverse()
            sign = math.prod(g.sign(a, b) for a, b in zip(path, path[1:]))
            if sign != target or len(path) - 1 != hops[v]:
                raise RuntimeError(
                    f"pair ({u},{v}): path {path} of sign {target:+d} fails its certificate "
                    f"against BFS distance {hops[v]}"
                )
            paths.append(path)
        out.append(tuple(paths))
    return out


def _certified_incompatible_pairs(g: SignedGraph) -> list[tuple[int, int]]:
    """`incompatible_pairs` of g, each certified by `_opposite_paths`.

    A compatible g is answered from the bitsets alone, with no distance
    array built.  Raises RuntimeError naming a pair that fails its
    certificate.
    """
    pos, neg, planes = _signed_bitsets([g])
    if not _any_incompatible(pos, neg):
        return []
    sd = _assemble(g.n, pos, neg, planes)
    bad = _sorted_pairs(sd)
    targets: dict[int, list[int]] = {}
    for u, v in bad:
        targets.setdefault(u, []).append(v)
    # Called for the certificate alone: it raises on a pair it cannot certify.
    for u, vs in targets.items():
        _opposite_paths(g, sd, u, vs)
    return bad


def least_incompatible_witness(g: SignedGraph) -> IncompatibilityWitness | None:
    """Witness for the incompatible pair at least distance, or None if compatible.

    The union of the two returned paths is an even negative cycle of length
    2k whose diametrically opposite vertices are the returned pair, and no
    incompatible pair exists at distance below k.  The paths are internally
    disjoint: a shared internal vertex w would split them into two segment
    pairs of equal lengths, u-w and w-v, and since the whole paths differ in
    sign one segment pair differs in sign too, an incompatible pair closer
    than k.  The pair comes first in (distance, u, v) order, so none is:
    among the incompatible pairs u < v at the least distance, the first in
    row-major order.
    """
    sd = signed_distances(g)
    bad = np.triu(sd.incompatible, k=1)
    if not bad.any():
        return None
    least = bad & (sd.dist == sd.dist[bad].min())
    u, v = divmod(int(np.argmax(least)), g.n)
    [(p_pos, p_neg)] = _opposite_paths(g, sd, u, [v])
    if set(p_pos[1:-1]) & set(p_neg[1:-1]):
        raise AssertionError(f"opposite-sign shortest paths of least incompatible pair ({u},{v}) intersect")
    return IncompatibilityWitness(
        pair=(u, v),
        path_pos=tuple(p_pos),
        path_neg=tuple(p_neg),
        cycle=tuple(p_pos + p_neg[-2:0:-1]),
    )


def associated_complete(g: SignedGraph, which: str = "max") -> SignedGraph:
    """Complete signed graph: existing edges keep their sign, the rest get
    the shortest-path sign (sigma_max or sigma_min).

    When g is compatible the two variants agree and the result is the
    associated signed complete graph of g.
    """
    w = _check_which(which)
    if g.n < 2:
        raise ValueError("associated complete graph needs at least 2 vertices")
    sd = signed_distances(g)
    # sigma_max is +1 iff a positive shortest path exists; sigma_min is -1
    # iff a negative one does.  An edge is the only shortest path between
    # its ends, so the pass already holds its sign.
    signs = np.where(sd.pos, 1, -1) if w == "max" else np.where(sd.neg, -1, 1)
    iu, iv = np.triu_indices(g.n, k=1)
    return SignedGraph(g.n, tuple(zip(iu.tolist(), iv.tolist(), signs[iu, iv].tolist())))


def brute_force_summary(g: SignedGraph, u: int, v: int, max_n: int = 12) -> PairDistanceSummary:
    """Test oracle: enumerate every shortest u-v path and summarize its signs.

    Takes hop distances from the unsigned BFS `core._bfs_dist` and walks
    back from v by depth-first search along distance-decreasing edges,
    multiplying signs path by path; no sign set is merged, so it stays
    independent of signed_bfs.  Bounded to small graphs because enumeration
    is exhaustive.  Raises ValueError when the BFS from u leaves a vertex
    unreached.
    """
    if g.n > max_n:
        raise ValueError(f"oracle bound exceeded: n={g.n} > {max_n}")
    _check_vertex(g, u)
    _check_vertex(g, v)
    dist = _bfs_dist(g, u)
    if -1 in dist:
        raise ValueError(_DISCONNECTED)
    signs: set[int] = set()

    def walk_back(x: int, acc: int) -> None:
        if x == u:
            signs.add(acc)
            return
        for y, sgn in g.adjacency[x]:
            if dist[y] == dist[x] - 1:
                walk_back(y, acc * sgn)

    walk_back(v, 1)
    return PairDistanceSummary(
        d=dist[v],
        sigma_max=max(signs),
        sigma_min=min(signs),
    )
