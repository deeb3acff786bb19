"""Signed shortest-path distances, distance matrices, compatibility and witnesses.

Between two vertices u, v at hop distance d there may be several shortest
paths, each with a sign (product of its edge signs).  The two signed
distances are d_max = sigma_max * d and d_min = sigma_min * d where
sigma_max / sigma_min are the largest / smallest achievable shortest-path
signs.  A graph is (distance-)compatible when sigma_max = sigma_min for
every pair, i.e. the two distance matrices coincide.

All-pairs results come from one BFS run from every source at once over
bitsets of sources (`_signed_bitsets`), stored at one of two widths: a
Python int per set while a set fits in one 64-bit machine word (n <= 64),
and packed uint64 words beyond that, where each level is one numpy gather
and reduction instead of a Python loop over every edge.  Within one
word numpy's fixed cost per call outweighs the work, so small graphs keep
the Python-int loop, and each width returns its own bitsets.

Compatibility is decided on those bitsets alone, at either width;
`signed_distances` unpacks them into numpy arrays only for callers that read
matrices or pairs (both matrices, the incompatible pairs, the associated
complete graph, witnesses), packing the Python ints into one word row first.
Witness paths and conjecture certificates are walked back through one row
of those arrays and checked against an unsigned BFS.
`signed_bfs` and `brute_force_summary` remain as reference routes for
tests and demos; both take their hop distances from `core._bfs_dist`, so
this module runs no BFS loop of its own besides the all-sources pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# Bits in one machine word, and so in one uint64 word of the packed route.
_WORD = 64
# Bound on the words the packed route gathers per level (8 MiB): a dense
# graph's half-edges times its source words would otherwise dwarf the result.
_GATHER_WORDS = 1 << 20
# One packed word: little-endian, so its bytes unpack in source order.
_U64 = np.dtype("<u8")

# The bitsets of `_signed_bitsets`: Python ints up to one word, else `(W, n)` words.
_Bitsets = tuple[list[int], list[int], list[list[int]]] | tuple[np.ndarray, np.ndarray, list[np.ndarray]]


def _signed_bitsets(g: SignedGraph) -> _Bitsets:
    """The all-sources level loop behind `signed_distances`, as bitsets of sources.

    Each vertex v carries bitsets over sources: bit s of `unseen[v]` is set
    while v is still unreached from s, and bit s of the frontier sets
    `fpos[v]` / `fneg[v]` is set when v was reached from s at the current
    level by a positive / negative shortest path.  One level ORs, for every
    vertex not yet reached from all sources, its neighbours' frontier bits,
    swapping the two signs across negative edges; the bits not seen before
    form the vertex's next frontier.  Returns `(pos, neg, planes)`: bit s of
    `pos[v]` / `neg[v]` says a positive / negative shortest s-v path exists,
    and distances are bit-sliced, bit s of `planes[k][v]` being bit k of
    d(s, v).  Distances are symmetric, so the bitset of v read as a row is
    row v of each matrix.

    The loop runs at one of two storage widths, chosen by whether a source
    set fits in one machine word (`g.n <= _WORD`):
    - up to one word, `_int_bitsets` keeps each set as a Python int and
      loops per vertex and neighbour; every OR is then one word wide, and
      numpy's fixed cost per call would outweigh it on the small graphs
      the conjecture search checks by the thousand;
    - beyond one word, `_word_bitsets` keeps the sets as columns of
      `(ceil(n / 64), n)` uint64 arrays and runs each level as one numpy
      gather and reduction over all edges.
    Each returns its own storage: Python ints from the first, and the
    `(W, n)` arrays from the second, where word j of column v holds bits
    64j..64j+63 of the int the first would return for v.  `_any_incompatible`
    and `_assemble` read either.  The boundary is a property of the word
    size, not a tuning knob, so it is a constant and not an option.

    Raises ValueError on a disconnected graph.
    """
    return _int_bitsets(g) if g.n <= _WORD else _word_bitsets(g)


def _int_bitsets(g: SignedGraph) -> tuple[list[int], list[int], list[list[int]]]:
    """`_signed_bitsets` over one Python int per source set, at any order."""
    n = g.n
    adj = g.adjacency
    full = (1 << n) - 1
    unseen = [full ^ (1 << v) for v in range(n)]
    fpos = [1 << v for v in range(n)]
    fneg = [0] * n
    pos = fpos[:]
    neg = [0] * n
    planes: list[list[int]] = []
    active = [v for v in range(n) if unseen[v]]
    level = 0
    while active:
        level += 1
        if level == 1 << len(planes):
            planes.append([0] * n)
        level_planes = [p for k, p in enumerate(planes) if level >> k & 1]
        npos = [0] * n
        nneg = [0] * n
        reached = False
        for v in active:
            ap = an = 0
            for u, sgn in adj[v]:
                if sgn > 0:
                    ap |= fpos[u]
                    an |= fneg[u]
                else:
                    ap |= fneg[u]
                    an |= fpos[u]
            new = (ap | an) & unseen[v]
            if new:
                reached = True
                unseen[v] ^= new
                npos[v] = p = ap & new
                nneg[v] = q = an & new
                pos[v] |= p
                neg[v] |= q
                for plane in level_planes:
                    plane[v] |= new
        if not reached:
            raise ValueError(_DISCONNECTED)
        fpos, fneg = npos, nneg
        active = [v for v in active if unseen[v]]
    return pos, neg, planes


def _word_bitsets(g: SignedGraph) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """`_signed_bitsets` over packed uint64 words, at any order.

    Arrays are `(W, n)`: word j of column v holds sources 64j..64j+63 of
    vertex v.  The frontier is one stacked `(W, 2n)` array, the positive
    columns then the negative ones, so a level is one gather of it along a
    half-edge index in vertex order (a negative edge reads the opposite
    half) and one `bitwise_or.reduceat` over each vertex's run of
    half-edges, contiguous in memory.  The result is masked by `unseen`
    exactly as in `_int_bitsets`, and the arrays are returned as they are;
    bits past source n - 1 in the last word stay 0.  Sources never mix, so
    the loop runs on blocks of words, each sized to keep the gathered
    `(words, 4m)` array within `_GATHER_WORDS`; a sparse graph of a few
    hundred vertices is one block.
    A vertex of degree 0 would be an empty run, which `reduceat` does not
    reduce to 0, so it is refused as disconnected before the loop.
    """
    n = g.n
    adj = g.adjacency
    if n > 1 and not all(adj):
        raise ValueError(_DISCONNECTED)
    w = -(-n // _WORD)
    # Columns of the stacked frontier OR-ed into the positive, then the
    # negative, result column of each vertex.
    src = np.array([u if sgn > 0 else u + n for nbrs in adj for u, sgn in nbrs], dtype=np.intp)
    src = np.concatenate((src, (src + n) % (2 * n)))
    starts = np.cumsum([0] + [len(nbrs) for nbrs in adj[:-1]])
    starts = np.concatenate((starts, starts + len(src) // 2))
    v = np.arange(n)
    pos = np.zeros((w, n), dtype=_U64)
    pos[v // _WORD, v] = np.uint64(1) << (v % _WORD).astype(_U64)
    neg = np.zeros((w, n), dtype=_U64)
    unseen = np.full((w, n), ~np.uint64(0), dtype=_U64)
    unseen[-1] >>= np.uint64(w * _WORD - n)
    unseen ^= pos
    planes: list[np.ndarray] = []
    step = max(1, _GATHER_WORDS // max(len(src), 1))
    for j in range(0, w, step):
        # Views of this block's words, updated in place.
        bpos, bneg, bunseen = pos[j : j + step], neg[j : j + step], unseen[j : j + step]
        front = np.concatenate((bpos, bneg), axis=1)
        level = 0
        while bunseen.any():
            level += 1
            if level == 1 << len(planes):
                planes.append(np.zeros((w, n), dtype=_U64))
            front = np.bitwise_or.reduceat(front.take(src, axis=1), starts, axis=1)
            new = (front[:, :n] | front[:, n:]) & bunseen
            if not new.any():
                raise ValueError(_DISCONNECTED)
            bunseen ^= new
            front[:, :n] &= new
            front[:, n:] &= new
            bpos |= front[:, :n]
            bneg |= front[:, n:]
            for k, plane in enumerate(planes):
                if level >> k & 1:
                    plane[j : j + step] |= new
    return pos, neg, planes


def _any_incompatible(pos: list[int] | np.ndarray, neg: list[int] | np.ndarray) -> bool:
    """True iff some bit is set in both `pos` and `neg` from `_signed_bitsets`.

    The Python ints of small graphs are tested with no numpy call: the
    conjecture search asks this of thousands of small products.
    """
    if isinstance(pos, np.ndarray):
        return bool((pos & neg).any())
    return any(p & q for p, q in zip(pos, neg))


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """`(n, n)` uint8 0/1 array whose row v holds bits 0..n-1 of column v of `(W, n)` words."""
    return np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8), axis=1, count=n, bitorder="little")


def _assemble(
    n: int, pos: list[int] | np.ndarray, neg: list[int] | np.ndarray, planes: list
) -> SignedDistances:
    """The read-only `SignedDistances` arrays of the bitsets from `_signed_bitsets`.

    Python ints are first packed into one word row, so both widths unpack
    the same way: one `np.unpackbits` per array, and one shift-OR per
    distance plane into `dist`.
    """
    if not isinstance(pos, np.ndarray):
        pos, neg, *planes = (np.array([x], dtype=_U64) for x in (pos, neg, *planes))
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
    return _assemble(g.n, *_signed_bitsets(g))


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
    pos, neg, _ = _signed_bitsets(g)
    return not _any_incompatible(pos, neg)


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
