"""Reference routes for signed distances, independent of the all-sources pass.

The library answers every distance question with one run of
`sgdist.distance._edge_bitsets`; the tests check it against these two
slower routes.  `signed_bfs` merges sign sets one source at a time, and
`brute_force_summary` enumerates every shortest path of one pair.  Both
take their hop distances from the unsigned BFS `core._bfs_dist`.
"""

from __future__ import annotations

from dataclasses import dataclass

from sgdist.core import SignedGraph, _bfs_dist, _check_vertex
from sgdist.distance import _DISCONNECTED


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
