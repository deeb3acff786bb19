"""Signed shortest-path distances, distance matrices, compatibility and witnesses.

Between two vertices u, v at hop distance d there may be several shortest
paths, each with a sign (product of its edge signs).  The two signed
distances are d_max = sigma_max * d and d_min = sigma_min * d where
sigma_max / sigma_min are the largest / smallest achievable shortest-path
signs.  A graph is (distance-)compatible when sigma_max = sigma_min for
every pair, i.e. the two distance matrices coincide.

All-pairs results come from one BFS run from every source at once over
bitsets of sources (`_edge_bitsets`), packed into uint64 words and kept
vertex-major, one `(N, W)` row of W words per vertex, where each level is
one numpy gather over all half-edges and one OR per vertex, in one of two
forms chosen by `_pads` from the batch's degrees.
When they are low and even (largest degree at most 8, and padding to it
adds at most half the reads), as on cycles, paths and cubic graphs, a
padded neighbour table is gathered and reduced along its rows, so a long
diameter pays no per-vertex loop per level; otherwise one
`bitwise_or.reduceat` ORs each vertex's run of reads.  The run takes a
batch of graphs as one disjoint union, given as orders, edge counts and
one `(u, v, sign)` edge array, so the conjecture search decides a whole
round of small graphs, or a window's tensor products built as arrays, in
one run; a single graph is a batch of one.  `_batches` cuts graph lists
and array products alike by the same bound on the gathered words.

`_Run` holds one run, built from that array or from a list of graphs, and
is the only reader of its words, so no other module knows where a graph's
columns start.  Per graph it reads connectivity (`reached`), compatibility
(`flags`) and odd cycles (`odd_cycles`) off the bitsets alone.  Two
readers unpack its words, through one helper (`_unpack`), only for callers
that read matrices or pairs:
- `tables` unpacks the graphs asked for into whole `SignedDistances`, for
  the callers that hold a matrix (`signed_distances`, `distance_matrix`,
  the associated complete graph, the product formulas, the Petersen census
  and the conjecture search's certified products and factors);
- `blocks` yields one graph's matrices 64 rows at a time, the rows of one
  source word, so that nothing of size n^2 is held but the bitsets (n^2/8
  bytes per array).  The CLI's `dist` encodes and writes each block as it
  comes (`_distance_blocks`), and the incompatible pairs and the witness
  read their pairs block by block (`_block_pairs`).
The pass does not raise on a disconnected graph; `_connected_run` does, for
the callers that need a connected one.

The table certificate (`_table_faults`) checks distance and sign tables
against a graph's `(u, v, sign)` edge rows by local rules, vectorised over
the half-edges: each source's distances form a shortest-path potential and
its signs follow the signed BFS recurrence, which proves the incompatible
pairs sound and complete.  `_certify` drives it over `(vertex, source)`
tables: every source of a batch, when `_Run.tables` is given edge rows to
check against (the conjecture search's products and factors), or the one
source u of a witness.

A witness takes one pair, the first incompatible pair in (distance, u, v)
order, found block by block; a compatible graph, which `flags` tells, reads
no block.  `_opposite_paths` walks its positive and its negative shortest
path back through row u, kept from the pair's block, and `_certify_path`
checks each path against the graph's edge rows: its steps are edges, its
sign is the one walked for and its length is row u's distance.  Row u
itself passes `_certify` against the same edges, so that distance is the
hop distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import SignedGraph

__all__ = [
    "SignedDistances",
    "signed_distances",
    "IncompatibilityWitness",
    "distance_matrix",
    "is_compatible",
    "incompatible_pairs",
    "least_incompatible_witness",
    "associated_complete",
]


_DISCONNECTED = "graph is disconnected; signed distances are undefined"


@dataclass(frozen=True, eq=False)
class SignedDistances:
    """All-pairs hop distances and achievable shortest-path signs.

    `dist[u, v]` is the hop distance (int32); `pos[u, v]` / `neg[u, v]`
    say whether a positive / negative shortest u-v path exists.  The
    diagonal has distance 0 and only the (empty, positive) path.  All
    three arrays are read-only, and symmetric except in a block of rows
    from `_Run.blocks`, whose row k is row start + k of each matrix.
    """

    dist: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    @property
    def d_max(self) -> np.ndarray:
        """D^max as int64: sigma_max * d, with sigma_max = +1 iff pos."""
        # sigma as int8 arithmetic on the bool bytes: no `where` over int64.
        return (self.dist * (2 * self.pos.view(np.int8) - 1)).astype(np.int64)

    @property
    def d_min(self) -> np.ndarray:
        """D^min as int64: sigma_min * d, with sigma_min = -1 iff neg."""
        return (self.dist * (1 - 2 * self.neg.view(np.int8))).astype(np.int64)

    @property
    def incompatible(self) -> np.ndarray:
        """Boolean matrix of pairs with shortest paths of both signs."""
        return self.pos & self.neg


# Bits in one uint64 word of the packed bitsets.
_WORD = 64
# Bound on the words one level gathers (8 MiB): a dense graph's half-edges
# times its source words would otherwise dwarf the result.
_GATHER_WORDS = 1 << 20
# The rule of `_pads`: the largest degree the padded neighbour table takes,
# and the bound on its cells as a multiple of the run index's reads.
_PAD_DEGREE = 8
_PAD_READS = 1.5
# One packed word: little-endian, so its bytes unpack in source order.
_U64 = np.dtype("<u8")


def _edge_rows(graphs: Sequence[SignedGraph]) -> np.ndarray:
    """The `(u, v, sign)` rows of the graphs' edges, graph after graph, as one intp array."""
    count = 3 * sum(g.m for g in graphs)
    return np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)), np.intp, count).reshape(-1, 3)


def _pads(degree: int, columns: int, reads: int) -> bool:
    """Whether a level of `_edge_bitsets` gathers through the padded
    neighbour table, for a batch of `columns` vertices whose largest degree
    is `degree`, where the flat index of one sign reads `reads` frontier
    rows: sum(max(deg(v), 1)) over the vertices, as a vertex of degree 0
    reads the zero row.

    The table has `degree` rows of 2 * `columns` cells.  It is taken when
    `degree` is at most `_PAD_DEGREE` and the table is at most `_PAD_READS`
    times the flat index: when the degrees are low and even, as on a cycle,
    a path or a cubic graph.
    """
    return degree <= _PAD_DEGREE and degree * columns <= _PAD_READS * reads


def _edge_bitsets(
    orders: Sequence[int], edges: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The all-sources level loop over a batch of graphs, as bitsets of sources.

    Graph i of the batch has `orders[i]` vertices and the next `sizes[i]`
    rows of `edges`, each a `(u, v, sign)` row with u, v its own vertex
    numbers; the rows of a graph may come in any order.

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
    numbers its own sources from bit 0, so the returned arrays are `(W, N)`
    uint64, N the sum of the orders and W the words of the largest; bits
    past a graph's order stay 0.  Components never exchange bits, so every
    graph gets the bitsets it would get alone.  The pass keeps its words
    vertex-major, as `(N, W)` arrays whose row v holds column v's W words,
    and returns their transposed views.

    A run stops at the first level that reaches nothing new, so it also
    ends on a disconnected graph: there a vertex unreached from a source
    has neither of its sign bits, which `_Run.reached` reads per graph.

    The frontier is one `(2N + 1, W)` array: the positive rows, the
    negative rows and a row that stays 0.  A level is one gather of it along
    an index of half-edges (a negative edge reads the opposite half) and one
    OR over each result row's reads, in one of two forms chosen by `_pads`
    from the batch's degrees:
    - a padded neighbour table, `(D, 2N)` for the largest degree D, whose
      row k holds each result row's k-th read and pads with the zero row;
      the level gathers whole frontier rows with `take(axis=0)` and reduces
      along axis 0, D - 1 ORs of whole `(2N, W)` slabs.  It serves low,
      even degrees, where padding adds few reads and a long diameter runs
      many levels.
    - otherwise the reads of every result row in one flat run, OR-ed by
      one `bitwise_or.reduceat`, which costs a loop per run but reads no
      padding on skewed degrees.  `reduceat` does not reduce an empty run
      to 0, so a vertex of degree 0 reads the zero row.  This form gathers
      through the word-major view, `front.T.take(index, axis=1)`, and
      writes through `front[:-1].T`: a level gathered and reduced along the
      rows instead took 0.90, 1.02, 2.73 and 2.03 times as long on
      G(n, 6/n) for n = 300, 1000, 2000 and 4000 (W = 5, 16, 32 and 63).
    Every other step of a level (the new bits, `unseen`, the frontier masks,
    `pos`, `neg` and the planes) runs on whole contiguous rows, and a long
    diameter pays those steps at every level.  On C_300's 300 x 5 words a
    binary step took about 0.7 us on contiguous rows against 2 us on the
    strided columns of a word-major `(W, 2N + 1)` frontier (2-CPU Xeon VM),
    and the pass took 0.69 of its word-major time on C_300 (150 levels) and
    0.70 on C_1000 (500 levels).
    No gather buffer is kept across levels: `take(out=)` into one copies
    internally in mode "raise", and a G(600, 0.3) level through a kept
    buffer took 1.9 ms against 0.9 ms without one.
    Sources never mix, so the words run in blocks that keep the gathered
    cells, words times the index's size, within `_GATHER_WORDS`; only a
    graph over the bound on its own needs more than one (see `_batches`),
    and its blocks are column slices of the rows.
    """
    total = sum(orders)
    w = -(-max(orders) // _WORD)
    offsets = np.cumsum(orders) - orders
    # Row 0 holds the edges' u ends and row 1 their v ends, as batch columns:
    # each end has a half-edge, which reads the other end of its edge.
    ends = (edges[:, :2] + np.repeat(offsets, sizes)[:, None]).T
    flip = (edges[:, 2] < 0) * total
    runs = np.bincount(ends.ravel(), minlength=total)
    lone = np.flatnonzero(runs == 0)
    degree = int(runs.max())
    # Rows of the stacked frontier OR-ed into the positive, then the
    # negative, result row of each vertex.
    if _pads(degree, total, ends.size + len(lone)):
        # Row k of the table holds each result row's k-th read, by the
        # half-edge's rank in its vertex's run; the rest read the zero row.
        half = ends.ravel()
        order = np.argsort(half, kind="stable")
        into = half[order]
        slot = (np.arange(len(into)) - (np.cumsum(runs) - runs)[into]) * (2 * total) + into
        index = np.full((max(1, degree), 2 * total), 2 * total)
        cells = index.reshape(-1)
        cells[slot] = (ends[::-1] + flip).ravel()[order]
        cells[slot + total] = (ends[::-1] + total - flip).ravel()[order]
        starts = None
    else:
        zero = np.full(len(lone), 2 * total)
        order = np.argsort(np.concatenate((ends.ravel(), lone)), kind="stable")
        src_pos = np.concatenate(((ends[::-1] + flip).ravel(), zero))[order]
        src_neg = np.concatenate(((ends[::-1] + total - flip).ravel(), zero))[order]
        index = np.concatenate((src_pos, src_neg))
        runs[lone] = 1
        starts = np.cumsum(runs) - runs
        starts = np.concatenate((starts, starts + len(src_pos)))
    cols = np.arange(total)
    v = cols - np.repeat(offsets, orders)
    pos = np.zeros((total, w), dtype=_U64)
    pos[cols, v // _WORD] = np.uint64(1) << (v % _WORD).astype(_U64)
    neg = np.zeros((total, w), dtype=_U64)
    # The low `fill` bits of word j of a row: its graph's sources there.
    fill = np.minimum(np.maximum(np.repeat(orders, orders)[:, None] - _WORD * np.arange(w), 0), _WORD).astype(_U64)
    unseen = np.where(fill == _WORD, ~np.uint64(0), (np.uint64(1) << fill % np.uint64(_WORD)) - np.uint64(1))
    unseen ^= pos
    planes: list[np.ndarray] = []
    step = max(1, _GATHER_WORDS // index.size)
    for j in range(0, w, step):
        # Views of this block's words, updated in place: the whole arrays
        # when the block holds every word.
        bpos, bneg, bunseen = pos[:, j : j + step], neg[:, j : j + step], unseen[:, j : j + step]
        front = np.zeros((2 * total + 1, bpos.shape[1]), dtype=_U64)
        fpos, fneg = front[:total], front[total:-1]
        # The `reduceat` form gathers and writes through word-major views:
        # along the vertex-major rows it is up to 2.7 times slower.
        wfront, wout = front.T, front[:-1].T
        fpos[:] = bpos
        # The block's view of each plane, OR-ed in place: slicing a plane
        # at every level cost more than the OR on small graphs.
        bplanes = [plane[:, j : j + step] for plane in planes]
        level = 0
        while bunseen.any():
            # The gathered reads stay a temporary of one statement: held
            # across the level, they made the allocator map fresh pages for
            # them at every level (about 2500 page faults per pass on a
            # G(600, 0.3)).
            if starts is None:
                np.bitwise_or.reduce(front.take(index, axis=0), axis=0, out=front[:-1])
            else:
                np.bitwise_or.reduceat(wfront.take(index, axis=1), starts, axis=1, out=wout)
            new = fpos | fneg
            new &= bunseen
            if not new.any():
                break
            level += 1
            if level == 1 << len(planes):
                planes.append(np.zeros((total, w), dtype=_U64))
                bplanes.append(planes[-1][:, j : j + step])
            bunseen ^= new
            fpos &= new
            fneg &= new
            bpos |= fpos
            bneg |= fneg
            for k, plane in enumerate(bplanes):
                if level >> k & 1:
                    plane |= new
    return pos.T, neg.T, [plane.T for plane in planes]


def _batches(orders: Sequence[int], sizes: Sequence[int]) -> Iterator[slice]:
    """Consecutive runs of graphs whose level gathers `_GATHER_WORDS` at most.

    Graph i has `orders[i]` vertices and `sizes[i]` edges; each run is
    yielded as the slice of its graphs.  A level gathers the batch's words
    times its half-edge reads, 4m per graph, counted as 4m + 2 to cover the
    two reads of a K1's zero row.  When `_pads` takes the padded table,
    a level reads at most `_PAD_READS` times as many.
    """
    start = words = reads = 0
    for i, (n, m) in enumerate(zip(orders, sizes)):
        g_words, g_reads = -(-n // _WORD), 4 * m + 2
        if i > start and max(words, g_words) * (reads + g_reads) > _GATHER_WORDS:
            yield slice(start, i)
            start, words, reads = i, 0, 0
        words, reads = max(words, g_words), reads + g_reads
    if start < len(orders):
        yield slice(start, len(orders))


class _Run:
    """One run of `_edge_bitsets` over a batch of graphs, and every reading of it.

    Built as `_Run(orders, edges, sizes)`, with the batch laid out as
    `_edge_bitsets` takes it, or as `_Run.of(graphs)`.  `pos`, `neg` and
    `planes` are the run's `(W, N)` words, views of its vertex-major rows,
    and `starts` the column of each graph's vertex 0; the readings below are
    the only code that slices them.
    """

    def __init__(self, orders: Sequence[int], edges: np.ndarray, sizes: Sequence[int]):
        self.orders, self.edges, self.sizes = list(orders), edges, list(sizes)
        self.starts = np.cumsum(self.orders) - self.orders
        self.pos, self.neg, self.planes = _edge_bitsets(self.orders, edges, self.sizes)

    @classmethod
    def of(cls, graphs: Sequence[SignedGraph]) -> _Run:
        """The run over a batch of graphs, their edges read into one array."""
        return cls([g.n for g in graphs], _edge_rows(graphs), [g.m for g in graphs])

    def reached(self) -> list[bool]:
        """Per graph, whether its source 0 reached every vertex: whether it is connected."""
        return np.logical_and.reduceat((self.pos[0] | self.neg[0]) & np.uint64(1) != 0, self.starts).tolist()

    def flags(self) -> list[bool]:
        """Per graph, whether `pos & neg` is non-zero on one of its columns:
        whether some pair has shortest paths of both signs."""
        return np.logical_or.reduceat((self.pos & self.neg).any(axis=0), self.starts).tolist()

    def odd_cycles(self) -> list[bool]:
        """Per connected graph, whether it has an odd cycle.

        A connected graph has one iff some edge joins two vertices at the same
        distance parity from vertex 0: bit 0 (source 0) of the distance plane 0.
        """
        parity = self.planes[0][0] & np.uint64(1) if self.planes else np.zeros(len(self.pos[0]), dtype=_U64)
        ends = self.edges[:, :2] + np.repeat(self.starts, self.sizes)[:, None]
        same = parity[ends[:, 0]] == parity[ends[:, 1]]
        count = len(self.orders)
        return (np.bincount(np.repeat(np.arange(count), self.sizes), weights=same, minlength=count) > 0).tolist()

    def _unpack(self, words: slice, cols, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The `(V, count)` distance (int32), positive and negative (0/1
        uint8) tables of the columns `cols` from the sources of `words`:
        cell (v, k) reads bit k of column v's words `words`, so it holds the
        readings from source k of those words to v.
        """

        def unpack(a: np.ndarray) -> np.ndarray:
            # Row v holds column v's words, contiguous in the run's rows;
            # they are little-endian, so its bytes unpack in source order.
            rows = np.ascontiguousarray(a[words].T[cols])
            return np.unpackbits(rows.view(np.uint8), axis=1, count=count, bitorder="little")

        pos, neg = unpack(self.pos), unpack(self.neg)
        dist = np.zeros(pos.shape, dtype=np.int32)
        for k, plane in enumerate(self.planes):
            dist |= np.left_shift(unpack(plane), k, dtype=np.int32)
        return dist, pos, neg

    def tables(
        self, keep: Sequence[int] | None = None, check: Sequence[np.ndarray] | None = None
    ) -> list[SignedDistances]:
        """The read-only `SignedDistances` of the graphs `keep` (all by
        default), in that order.

        The kept graphs' columns and their sources' words are unpacked once
        into `(V, w)` tables, w the largest kept order: cell (v, k) is bit k
        of column v, the tables from source k of v's graph.  Each graph's
        arrays are its rows of those tables, so row v holds the tables from
        every source to v; distances and signs are symmetric, so that is
        also row v of each matrix.  `check`, when given, holds one
        `(u, v, sign)` edge array per kept graph, built apart from the run:
        the tables must first pass `_certify` against those edges, which
        raises RuntimeError naming the pair of the first faulty cell, in the
        numbers of its graph.  A certified cell holds the true distance and
        signs, so certified tables are symmetric.
        """
        # All graphs kept: a slice, which spares a single graph's words one
        # gathered copy.
        if keep is None:
            orders, starts, cols = self.orders, self.starts, np.s_[:]
        else:
            orders = [self.orders[i] for i in keep]
            starts = np.cumsum(orders) - orders
            cols = np.arange(sum(orders)) + np.repeat(self.starts[keep] - starts, orders)
        width = max(orders)
        dist, pos, neg = self._unpack(np.s_[: -(-width // _WORD)], cols, width)
        if check is not None:
            _certify(np.concatenate(check), [len(e) for e in check], orders, np.arange(width), dist, pos, neg)
        for a in (dist, pos, neg):
            a.flags.writeable = False
        out = []
        for start, n in zip(starts.tolist(), orders):
            rows = np.s_[start : start + n, :n]
            out.append(SignedDistances(dist=dist[rows], pos=pos[rows].view(bool), neg=neg[rows].view(bool)))
        return out

    def blocks(self, i: int = 0) -> Iterator[tuple[int, SignedDistances]]:
        """Graph i's matrices 64 rows at a time, top to bottom: `(start,
        rows)` pairs, `rows` the read-only `SignedDistances` of rows
        start..start+63 (fewer in the last block) and every column.

        Word j of each array holds sources 64j..64j+63, and distances and
        signs are symmetric, so the block from row 64j is word j's
        `(vertex, source)` tables, unpacked by `_unpack` as `tables` unpacks
        every word, and read through their transposed views.  Each block is
        unpacked only when it is drawn, so a caller that reads one block at
        a time holds no table of size n^2.
        """
        n, col = self.orders[i], int(self.starts[i])
        for start in range(0, n, _WORD):
            j = start // _WORD
            dist, pos, neg = self._unpack(np.s_[j : j + 1], np.s_[col : col + n], min(_WORD, n - start))
            for a in (dist, pos, neg):
                a.flags.writeable = False
            yield start, SignedDistances(dist=dist.T, pos=pos.T.view(bool), neg=neg.T.view(bool))


def _connected_run(graphs: Sequence[SignedGraph]) -> _Run:
    """`_Run.of(graphs)`; ValueError when a graph of the batch is disconnected."""
    run = _Run.of(graphs)
    if not all(run.reached()):
        raise ValueError(_DISCONNECTED)
    return run


def signed_distances(g: SignedGraph) -> SignedDistances:
    """Signed all-pairs distances from one BFS run from every source at once.

    The run's bitsets are unpacked into the `dist`, `pos` and `neg` arrays
    (`_Run.tables`).  Raises ValueError on a disconnected graph.
    """
    return _connected_run([g]).tables()[0]


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


def _distance_blocks(g: SignedGraph, which: str = "max") -> Iterator[np.ndarray]:
    """D^max or D^min of g as int64 blocks of 64 rows, top to bottom.

    The pass runs, and refuses a disconnected graph, in this call; each
    block is unpacked from its words (`_Run.blocks`) only when drawn.
    """
    w = _check_which(which)
    run = _connected_run([g])
    return (rows.d_max if w == "max" else rows.d_min for _, rows in run.blocks())


def _block_pairs(start: int, rows: SignedDistances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int32 u, v and distance arrays of the incompatible pairs u < v in
    a block of rows from row `start`, in (u, v) order."""
    # Cell (k, c) of the block's columns from `start` on is pair
    # (start + k, start + c), past the diagonal when c > k; the columns
    # before `start` are below it in every row of the block.
    k, c = np.nonzero(np.triu(rows.pos[:, start:] & rows.neg[:, start:], k=1))
    k, c = k.astype(np.int32), c.astype(np.int32)
    v = c + start
    return k + start, v, rows.dist[k, v]


def _sorted_pair_arrays(blocks: Iterable[tuple[int, SignedDistances]]) -> tuple[np.ndarray, np.ndarray]:
    """The u and the v array of the incompatible pairs u < v, sorted by
    (distance, u, v), from one graph's `(start, rows)` blocks in row order,
    as `_Run.blocks` yields them; `[(0, sd)]` passes whole tables."""
    us, vs, ds = zip(*(_block_pairs(start, rows) for start, rows in blocks))
    # Each block lists its pairs in (u, v) order and the blocks come in row
    # order, which a stable sort keeps among pairs at one distance.
    order = np.argsort(np.concatenate(ds), kind="stable")
    return np.concatenate(us)[order], np.concatenate(vs)[order]


def _sorted_pairs(blocks: Iterable[tuple[int, SignedDistances]]) -> list[tuple[int, int]]:
    u, v = _sorted_pair_arrays(blocks)
    return list(zip(u.tolist(), v.tolist()))


def incompatible_pairs(g: SignedGraph) -> list[tuple[int, int]]:
    """Vertex pairs with shortest paths of both signs, sorted by (distance, u, v)."""
    return _sorted_pairs(_connected_run([g]).blocks())


def is_compatible(g: SignedGraph) -> bool:
    """True iff every vertex pair has all its shortest paths of one sign.

    Decided on the bitsets of the all-sources pass, with no distance array
    built: a pair is incompatible iff its bit is set in both `pos` and `neg`.
    Raises ValueError on a disconnected graph.
    """
    return not _connected_run([g]).flags()[0]


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
    g: SignedGraph, row: tuple[np.ndarray, np.ndarray, np.ndarray], u: int, v: int, edges: np.ndarray
) -> tuple[list[int], list[int]]:
    """A positive and a negative shortest u-v path of g, each walked back
    from v through `row`, row u's `(dist, pos, neg)` arrays, at every step
    taking the first neighbour one hop closer to u through which the
    remaining sign is achievable.

    Both paths must pass `_certify_path` against g's `(u, v, sign)` rows
    `edges`, `_edge_rows([g])`, and row u must pass `_certify` against
    them, so no uncertified path is returned.  RuntimeError names the pair
    when a certificate fails or the row supports no path of a sign.
    """
    dist, pos, neg = (a.tolist() for a in row)
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
        paths.append(path)
    for path, target in zip(paths, (1, -1)):
        _certify_path(g, row[0], u, v, path, target, edges)
    # Row u, read as the tables from source u: the row the walks read.
    _certify(edges, [g.m], [g.n], [u], *(a[:, None] for a in row))
    return paths[0], paths[1]


def _certify_path(
    g: SignedGraph, dist: np.ndarray, u: int, v: int, path: list[int], target: int, edges: np.ndarray
) -> None:
    """Raise RuntimeError naming the pair (u, v) unless `path` has its steps
    among the edges of g, sign `target` and length `dist[v]`, `dist` being
    row u of the distances.

    Each step is searched for among the edge keys u*n + v of `edges`, the
    rows of the sorted `g.edges`, and the path's sign is the product of its
    steps' signs.
    """
    verts = np.array(path, dtype=np.intp)
    a, b = verts[:-1], verts[1:]
    keys = np.minimum(a, b) * g.n + np.maximum(a, b)
    edge_keys = edges[:, 0] * g.n + edges[:, 1]
    at = np.minimum(np.searchsorted(edge_keys, keys), g.m - 1)
    if not (np.array_equal(edge_keys[at], keys) and np.prod(edges[at, 2]) == target and len(keys) == dist[v]):
        raise RuntimeError(
            f"pair ({u},{v}): path {path} of sign {target:+d} fails its certificate "
            f"against distance {dist[v]}"
        )


def _signed_adjacency(g: SignedGraph) -> np.ndarray:
    """The `(n, n)` int8 matrix of g: the sign of edge uv at (u, v) and (v, u), 0 off the edges."""
    e = _edge_rows([g])
    adj = np.zeros((g.n, g.n), dtype=np.int8)
    adj[e[:, 0], e[:, 1]] = adj[e[:, 1], e[:, 0]] = e[:, 2]
    return adj


def _matrix_edges(adj: np.ndarray) -> np.ndarray:
    """The `(u, v, sign)` rows, u < v, of the graph of signed adjacency matrix `adj`."""
    u, v = np.nonzero(np.triu(adj))
    return np.column_stack((u, v, adj[u, v]))


def _half_edges(
    edges: np.ndarray, orders: Sequence[int], sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`(x, y, negative)`: both half-edges x -> y of every `(u, v, sign)` row
    of a batch laid out as for `_edge_bitsets`, numbered as columns of the
    batch and in runs by x, and whether the edge is negative."""
    ends = edges[:, :2] + np.repeat(np.cumsum(orders) - orders, sizes)[:, None]
    order = np.argsort(ends.T.ravel(), kind="stable")
    return ends.T.ravel()[order], ends[:, ::-1].T.ravel()[order], np.tile(edges[:, 2] < 0, 2)[order]


# Bound on the cells, half-edges times sources, one block of the table
# certificate gathers.
_CERT_CELLS = 1 << 18
# The sign code of a shortest path, bit 0 for positive and bit 1 for
# negative, after one more edge of negative sign.
_SWAP = np.array([0, 2, 1, 3], dtype=np.uint8)


def _table_faults(
    half: tuple[np.ndarray, np.ndarray, np.ndarray], dist: np.ndarray, code: np.ndarray, source: np.ndarray
) -> np.ndarray:
    """The cells of distance tables that break the certificate's local rules.

    Cell (v, k) of the `(V, K)` arrays claims, for source k of v's graph,
    the hop distance `dist` to v and the sign `code` of the shortest paths
    (bit 0 positive, bit 1 negative).  `half` holds the half-edges as
    `_half_edges` gives them, and `source` marks the cells whose vertex is
    their source.  The rules, per column:
    - `dist` is 0 at the source, and every other vertex is one hop beyond
      its nearest neighbours.  Walking down to a nearest neighbour ends only
      at the source, so `dist` bounds the hop distance from above; it rises
      by at most one along each edge, so it bounds it from below too.
    - `code` is the empty path's at the source, positive and not negative;
      elsewhere it is the OR of the nearest neighbours' codes carried over
      one edge, swapped across a negative one.  Once `dist` is right, that is the signed BFS
      recurrence, so by induction on the distance `code` holds the signs
      of the shortest paths.
    So a column without a fault proves every pair it reports with both
    signs, and that no other pair has both.
    """
    x, y, negative = half
    deg = np.bincount(x, minlength=len(dist))
    has = deg > 0
    starts = (np.cumsum(deg) - deg)[has]
    near = dist[y]
    least = np.zeros_like(dist)
    least[has] = np.minimum.reduceat(near, starts)
    via = np.concatenate((code, _SWAP[code]))[y + len(dist) * negative]
    via *= near == np.repeat(least[has], deg[has], axis=0)
    signs = np.zeros_like(code)
    signs[has] = np.bitwise_or.reduceat(via, starts)
    least += 1
    least[source] = 0
    signs[source] = 1
    return (dist != least) | (code != signs)


def _certify(
    edges: np.ndarray,
    sizes: Sequence[int],
    orders: Sequence[int],
    sources: Sequence[int],
    dist: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
) -> None:
    """Raise RuntimeError naming the pair (source, vertex) of the first cell,
    in vertex order, of `(vertex, source)` tables that breaks the rules of
    `_table_faults`.

    The `(V, K)` tables cover a batch of graphs laid out as for
    `_edge_bitsets`: graph i has `orders[i]` vertices and the next `sizes[i]`
    rows of `edges`.  Cell (v, k) holds the distance and the 0/1 positive and
    negative bits from source `sources[k]` of v's graph to v; cells whose
    source is past their graph's order are ignored.  The half-edges are
    built from the edge rows by `_half_edges`, and the sources run in
    blocks of at most `_CERT_CELLS` gathered cells.

    `_Run.tables` runs it over every source of a batch; a witness runs it
    over the one source u of its pair, row u read as the tables from u, to
    hold its two paths to the hop distance.
    """
    half = _half_edges(edges, orders, sizes)
    # Per vertex, as a column: its order and its number in its graph.
    order = np.repeat(orders, orders)[:, None]
    local = (np.arange(len(dist)) - np.repeat(np.cumsum(orders) - orders, orders))[:, None]
    step = max(1, _CERT_CELLS // max(1, len(half[0])))
    for j in range(0, len(sources), step):
        block = np.asarray(sources[j : j + step])
        cols = np.s_[:, j : j + step]
        code = pos[cols].view(np.uint8) | neg[cols].view(np.uint8) << 1
        bad = _table_faults(half, dist[cols], code, local == block) & (block < order)
        if bad.any():
            c, k = divmod(int(np.argmax(bad)), bad.shape[1])
            raise RuntimeError(
                f"pair ({block[k]},{local[c, 0]}): distance {dist[c, j + k]}, positive {bool(pos[c, j + k])} "
                f"and negative {bool(neg[c, j + k])} fail the table certificate"
            )


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
    # The run's edge rows also serve the path certificate, which builds its
    # own half-edges from them.
    run = _connected_run([g])
    if not run.flags()[0]:
        return None
    # The least distance and first pair of the blocks read so far, and the
    # pair's row; a later block replaces them only at a smaller distance.
    least = None
    for start, rows in run.blocks():
        u, v, d = _block_pairs(start, rows)
        if len(d):
            i = int(np.argmin(d))
            if least is None or d[i] < least[0]:
                k = u[i] - start
                least = d[i], int(u[i]), int(v[i]), (rows.dist[k], rows.pos[k], rows.neg[k])
            # No pair is incompatible at distance 1, where an edge is the
            # only shortest path: no later block can come closer.
            if d[i] == 2:
                break
    _, u, v, row = least
    p_pos, p_neg = _opposite_paths(g, row, u, v, run.edges)
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
    # triu_indices runs row by row, so the pairs come sorted with u < v.
    return SignedGraph._trusted(g.n, tuple(zip(iu.tolist(), iv.tolist(), signs[iu, iv].tolist())))

