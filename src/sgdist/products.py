"""Cartesian, lexicographic and tensor products of signed graphs.

Product vertices (i, k) are flattened row-major to i*n2 + k so that the
Kronecker-block distance formulas line up with the vertex order.  Also
here: odd/even walk distances, the tensor distance formula, executable
checks of the product compatibility theorems, and a randomized search for
tensor-product counterexamples.

Odd/even walk distances are hop distances in the bipartite double cover
g x K2: there (x, p) sits at 2x + p and every step flips the parity p, so
one unsigned BFS from (u, 0) gives the shortest even walk to v at (v, 0)
and the shortest odd walk at (v, 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import SignedGraph, _bfs_dist, _check_vertex, has_odd_cycle, is_connected
from .distance import _certified_incompatible_pairs, is_compatible

__all__ = [
    "pair_index",
    "index_pair",
    "cartesian",
    "lexicographic",
    "tensor",
    "tensor_is_connected",
    "OddEvenDistance",
    "odd_even_distance",
    "tensor_distance",
    "uniform_sign",
    "check_product_compatibility_theorems",
    "random_signed_gnp",
    "ConjectureCandidate",
    "conjecture_search",
]


def pair_index(i: int, k: int, n2: int) -> int:
    """Flat index of product vertex (i, k), row-major."""
    return i * n2 + k


def index_pair(idx: int, n2: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    return divmod(idx, n2)


# The three products index (i, j) as i*n2 + j inline and emit every edge
# (i,j) ~ (k,l) with its ends already in order: either the first
# coordinate moves along a factor edge i < k, or it is fixed and the second
# moves along j < l.  So every edge meets the constructor's u < v as built.


def cartesian(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) iff one coordinate is fixed and the other moves along an
    edge; the product edge copies that edge's sign."""
    n2 = g2.n
    edges = []
    for i, k, s in g1.edges:
        a, b = i * n2, k * n2
        for j in range(n2):
            edges.append((a + j, b + j, s))
    for j, l, s in g2.edges:
        for a in range(0, g1.n * n2, n2):
            edges.append((a + j, a + l, s))
    return SignedGraph(g1.n * n2, tuple(edges))


def lexicographic(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) iff i ~ k, or i = k and j ~ l; the sign comes from the
    first coordinate when it moves, from the second otherwise."""
    n2 = g2.n
    edges = []
    for i, k, s in g1.edges:
        a, b = i * n2, k * n2
        for x in range(a, a + n2):
            for y in range(b, b + n2):
                edges.append((x, y, s))
    for a in range(0, g1.n * n2, n2):
        for j, l, s in g2.edges:
            edges.append((a + j, a + l, s))
    return SignedGraph(g1.n * n2, tuple(edges))


def tensor(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) iff both coordinates move along edges; the sign is the
    product of the two factor edge signs.  May be disconnected."""
    n2 = g2.n
    edges = []
    for i, k, s1 in g1.edges:
        a, b = i * n2, k * n2
        for j, l, s2 in g2.edges:
            s = s1 * s2
            edges.append((a + j, b + l, s))
            edges.append((a + l, b + j, s))
    return SignedGraph(g1.n * n2, tuple(edges))


def tensor_is_connected(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Connectivity criterion for tensor products of connected factors.

    A factor without edges (K1) leaves the product edgeless, so it is
    connected only when it is the single vertex K1 x K1.  Otherwise the
    product is connected iff at least one factor has an odd cycle
    (Weichsel 1962)."""
    if not is_connected(g1) or not is_connected(g2):
        raise ValueError("tensor connectivity criterion needs connected factors")
    if not g1.m or not g2.m:
        return g1.n * g2.n == 1
    return has_odd_cycle(g1) or has_odd_cycle(g2)


def _check_tensor_connected(g1: SignedGraph, g2: SignedGraph) -> None:
    """Raise ValueError naming the cause when g1 x g2 is disconnected."""
    if tensor_is_connected(g1, g2):
        return
    for name, g in (("first", g1), ("second", g2)):
        if not g.m:
            raise ValueError(f"tensor product disconnected: the {name} factor has no edges")
    raise ValueError("tensor product disconnected: neither factor has an odd cycle")


@dataclass(frozen=True)
class OddEvenDistance:
    """Lengths of the shortest odd and even walks between a vertex pair.

    math.inf marks that no walk of that parity exists (bipartite
    obstructions); od is odd and ed even whenever finite.
    """

    od: int | float
    ed: int | float


def odd_even_distance(g: SignedGraph, u: int, v: int) -> OddEvenDistance:
    """Shortest odd/even walk lengths: one BFS on the double cover g x K2."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    if not is_connected(g):
        raise ValueError("odd/even distances need a connected graph")
    dist = _bfs_dist(tensor(g, SignedGraph(2, ((0, 1, 1),))), 2 * u)
    ed, od = dist[2 * v], dist[2 * v + 1]
    return OddEvenDistance(od=od if od >= 0 else math.inf, ed=ed if ed >= 0 else math.inf)


def tensor_distance(
    g1: SignedGraph,
    g2: SignedGraph,
    uv1: tuple[int, int],
    uv2: tuple[int, int],
) -> int:
    """Distance in the tensor product from coordinate odd/even distances:
    min of max(od1, od2) and max(ed1, ed2)."""
    _check_tensor_connected(g1, g2)
    u1, u2 = uv1
    v1, v2 = uv2
    a = odd_even_distance(g1, u1, v1)
    b = odd_even_distance(g2, u2, v2)
    d = min(max(a.od, b.od), max(a.ed, b.ed))
    assert d != math.inf
    return int(d)


def uniform_sign(g: SignedGraph) -> bool:
    """True iff all edges share one sign (vacuously true without edges)."""
    return len({s for _, _, s in g.edges}) <= 1


def check_product_compatibility_theorems(g1: SignedGraph, g2: SignedGraph) -> dict:
    """Evaluate the product compatibility laws by direct computation.

    Cartesian: product compatible iff both factors are (an equivalence;
    `agrees=False` indicates an implementation bug).  Lexicographic: a
    compatible g1 with uniformly signed g2 forces a compatible product
    (`sufficiency_holds=False` indicates a bug); the converse is NOT a law,
    complete products such as K2[K3] are compatible for any signs, so
    `iff_agrees` is informational only.  Tensor (when the product is
    connected): a compatible product forces compatible factors
    (`only_if_holds=False` indicates a bug); the converse fails in general,
    see conjecture_search.
    """
    if not is_connected(g1) or not is_connected(g2):
        raise ValueError("theorem checks need connected factors")
    c1 = is_compatible(g1)
    c2 = is_compatible(g2)
    report: dict = {"factor_compatible": (c1, c2)}

    cart = is_compatible(cartesian(g1, g2))
    report["cartesian"] = {
        "product_compatible": cart,
        "expected": c1 and c2,
        "agrees": cart == (c1 and c2),
    }

    lex = is_compatible(lexicographic(g1, g2))
    hypothesis = c1 and uniform_sign(g2)
    report["lexicographic"] = {
        "product_compatible": lex,
        "sufficient_hypothesis": hypothesis,
        "sufficiency_holds": (not hypothesis) or lex,
        "iff_agrees": lex == hypothesis,
    }

    if tensor_is_connected(g1, g2):
        tens = is_compatible(tensor(g1, g2))
        report["tensor"] = {
            "product_compatible": tens,
            "only_if_holds": (not tens) or (c1 and c2),
        }
    else:
        report["tensor"] = {"skipped": "product disconnected"}
    return report


def random_signed_gnp(n: int, p: float, rng: random.Random) -> SignedGraph:
    """Erdos-Renyi underlying graph with independent uniform edge signs."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.choice((1, -1))))
    return SignedGraph(n, tuple(edges))


# Draws per factor before a conjecture-search trial is skipped.
_ATTEMPTS = 300


def _random_connected_compatible(rng: random.Random, max_n: int) -> SignedGraph | None:
    """Rejection-sample a connected compatible signed graph of order 2..max_n.

    Half the draws reuse a balanced signing (vertex potential), which is
    always compatible, so the accepted pool is not dominated by tiny or
    nearly all-positive graphs.
    """
    for _ in range(_ATTEMPTS):
        n = rng.randint(2, max_n)
        p = rng.uniform(0.35, 0.9)
        g = random_signed_gnp(n, p, rng)
        if not is_connected(g):
            continue
        if rng.random() < 0.5:
            zeta = [rng.choice((1, -1)) for _ in range(n)]
            g = g.with_signs([zeta[u] * zeta[v] for u, v, _ in g.edges])
        if is_compatible(g):
            return g
    return None


@dataclass(frozen=True)
class ConjectureCandidate:
    """A compatible factor pair whose connected tensor product came out
    incompatible, with every offending pair certified by a positive and a
    negative shortest path checked against an unsigned BFS."""

    trial: int
    g1: SignedGraph
    g2: SignedGraph
    product_pairs: tuple[tuple[int, int], ...]


def conjecture_search(
    trials: int,
    max_n: int = 7,
    seed: int = 0,
) -> list[ConjectureCandidate]:
    """Randomized search for compatible factor pairs with an incompatible
    connected tensor product.

    Samples pairs of connected compatible signed graphs with at least one
    non-bipartite factor and returns every pair whose tensor product is
    incompatible.  Such pairs exist: compatibility is NOT preserved by the
    tensor product (smallest example: all-positive K2 with K4 carrying one
    negative edge, where same-fiber product paths ride length-2 walks of
    the second factor that its compatibility does not constrain).  Each
    reported pair is certified by two opposite-sign shortest paths checked
    against an unsigned BFS; a failed certificate raises RuntimeError
    naming the pair.  Each product is decided on the bitsets of the
    all-sources pass; distance arrays, sorted pairs and certificates are
    built only for a product that has an incompatible pair.  Deterministic
    for a fixed seed: trial t uses its own RNG stream seeded by (seed, t),
    so results do not depend on scheduling.  Raises ValueError when trials
    is negative or max_n is below 2, the smallest factor order.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    out = []
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        g1 = _random_connected_compatible(rng, max_n)
        g2 = _random_connected_compatible(rng, max_n)
        if g1 is None or g2 is None:
            continue
        if not (has_odd_cycle(g1) or has_odd_cycle(g2)):
            continue
        bad = _certified_incompatible_pairs(tensor(g1, g2))
        if bad:
            out.append(ConjectureCandidate(trial=t, g1=g1, g2=g2, product_pairs=tuple(bad)))
    return out
