"""Cartesian, lexicographic and tensor products of signed graphs.

Product vertices (i, k) are flattened row-major to i*n2 + k so that the
Kronecker-block distance formulas line up with the vertex order.  The
products' signed adjacency matrices have Kronecker forms in the factors'
A1, A2, identities I and all-ones J: A1 kron I + I kron A2 (cartesian),
A1 kron J + I kron A2 (lexicographic) and A1 kron A2 (tensor), and each
product is built as that expansion of edge rows (`_kron`).  Also here:
odd/even walk distances, the tensor distance formula, executable checks of
the product compatibility theorems, and a randomized search for
tensor-product counterexamples.

The conjecture search runs no Python BFS or path walk per graph.  Each
sampler round's draws are judged by one all-sources pass, a `distance._Run`
(connected, compatible, odd cycle).  A window's products are built as edge
arrays by index arithmetic (`_tensor_edges`), never as graphs, and decided
in one run; an incompatible product's tables from that run are certified
against np.kron(S1, S2) of its factors' signed adjacency matrices, and the
reported factors are certified in one more run.  The runs slice their own
words: this module reads only per-graph verdicts and tables from them.

Odd/even walk distances are hop distances in the bipartite double cover
g x K2: there (x, p) sits at 2x + p and every step flips the parity p, so
one unsigned BFS from (u, 0) gives the shortest even walk to v at (v, 0)
and the shortest odd walk at (v, 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import SignedGraph, _bfs_dist, _check_order, _check_vertex, has_odd_cycle, is_connected
from .distance import _Run, _batches, _edge_rows, _matrix_edges, _signed_adjacency, _sorted_pairs

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


def _kron(a, b, n2: int) -> list[tuple[int, int, int]]:
    """The rows (i*n2 + j, k*n2 + l, s*t) of every row (i, k, s) of `a` with
    every row (j, l, t) of `b`: the Kronecker product of two signed
    relations, on the row-major product vertices.

    In the products below every row has u < v: either `a` holds factor
    edges, so i < k, or it is the identity (i = k) and `b` holds factor
    edges, so j < l.  No row repeats: (i, k, j, l) -> (u, v) is one-to-one
    as j, l < n2, no operand repeats a row, and the two terms of a sum
    differ in whether i = k.
    """
    return [(i * n2 + j, k * n2 + l, s * t) for i, k, s in a for j, l, t in b]


def _identity(n: int) -> list[tuple[int, int, int]]:
    return [(j, j, 1) for j in range(n)]


def cartesian(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) iff one coordinate is fixed and the other moves along an
    edge; the product edge copies that edge's sign: A1 kron I + I kron A2."""
    edges = _kron(g1.edges, _identity(g2.n), g2.n) + _kron(_identity(g1.n), g2.edges, g2.n)
    return SignedGraph._trusted(g1.n * g2.n, tuple(sorted(edges)))


def lexicographic(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) iff i ~ k, or i = k and j ~ l; the sign comes from the
    first coordinate when it moves, from the second otherwise:
    A1 kron J + I kron A2."""
    ones = [(j, l, 1) for j in range(g2.n) for l in range(g2.n)]
    edges = _kron(g1.edges, ones, g2.n) + _kron(_identity(g1.n), g2.edges, g2.n)
    return SignedGraph._trusted(g1.n * g2.n, tuple(sorted(edges)))


def tensor(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """(i,j) ~ (k,l) iff both coordinates move along edges; the sign is the
    product of the two factor edge signs: A1 kron A2.  May be disconnected."""
    both_ways = g2.edges + tuple((l, j, t) for j, l, t in g2.edges)
    return SignedGraph._trusted(g1.n * g2.n, tuple(sorted(_kron(g1.edges, both_ways, g2.n))))


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
    """Evaluate the product compatibility laws by direct computation, every
    verdict read from one `_verdicts` batch of the factors and products.

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
    verdicts = _verdicts([g1, g2, cartesian(g1, g2), lexicographic(g1, g2), tensor(g1, g2)])
    if not (verdicts[0][0] and verdicts[1][0]):
        raise ValueError("theorem checks need connected factors")
    c1, c2, cart, lex, tens = (not bad for _, bad, _ in verdicts)
    report: dict = {"factor_compatible": (c1, c2)}

    report["cartesian"] = {
        "product_compatible": cart,
        "expected": c1 and c2,
        "agrees": cart == (c1 and c2),
    }

    hypothesis = c1 and uniform_sign(g2)
    report["lexicographic"] = {
        "product_compatible": lex,
        "sufficient_hypothesis": hypothesis,
        "sufficiency_holds": (not hypothesis) or lex,
        "iff_agrees": lex == hypothesis,
    }

    if verdicts[4][0]:
        report["tensor"] = {
            "product_compatible": tens,
            "only_if_holds": (not tens) or (c1 and c2),
        }
    else:
        report["tensor"] = {"skipped": "product disconnected"}
    return report


def random_signed_gnp(n: int, p: float, rng: random.Random) -> SignedGraph:
    """Erdos-Renyi underlying graph with independent uniform edge signs."""
    n = _check_order(n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.choice((1, -1))))
    # Valid and sorted as drawn: u < v < n, in increasing (u, v).
    return SignedGraph._trusted(n, tuple(edges))


# Draws per factor before a conjecture-search trial is skipped.
_ATTEMPTS = 300
# Trials the conjecture search samples and checks together: a batch of the
# all-sources pass holds at most this many graphs, and memory is bounded by
# the window, not by the number of trials.
_WINDOW = 64


def _verdicts(graphs: list[SignedGraph]) -> list[tuple[bool, bool, bool]]:
    """Per graph: whether it is connected, whether it has a pair with
    shortest paths of both signs, and whether it has an odd cycle.

    Read off one `_Run` per cut of `_batches`; the last two are only
    meaningful for a connected graph.
    """
    out: list[tuple[bool, bool, bool]] = []
    for cut in _batches([g.n for g in graphs], [g.m for g in graphs]):
        run = _Run.of(graphs[cut])
        out += zip(run.reached(), run.flags(), run.odd_cycles())
    return out


def _sample_factor_pairs(rngs: list[random.Random], max_n: int) -> list[list[tuple[SignedGraph, bool] | None]]:
    """Rejection-sample two connected compatible signed graphs from each
    stream, the first factor, then the second, each with whether it has an
    odd cycle.

    A draw is a signed G(n, p), n in 2..max_n; a disconnected one is
    refused.  Half the connected draws are switched to a balanced signing
    (vertex potential), which is always compatible, so the accepted pool is
    not dominated by tiny or nearly all-positive graphs; the others are
    accepted when compatible.

    The streams draw in lockstep rounds: in each round every stream still
    short of its two factors draws one G(n, p), one `_verdicts` pass over
    the round's draws decides which are connected, compatible and
    non-bipartite, and only the connected ones go on to draw their
    switching coin and potential.  A stream moves on to its second factor
    in the round after its first is accepted or its `_ATTEMPTS` draws run
    out, so it is consumed exactly as if it drew alone.  A factor with no
    accepted draw in `_ATTEMPTS` is None.
    """
    factors: list[list[tuple[SignedGraph, bool] | None]] = [[] for _ in rngs]
    tries = [0] * len(rngs)
    pending = range(len(rngs))
    while pending:
        drawn = [random_signed_gnp(rngs[i].randint(2, max_n), rngs[i].uniform(0.35, 0.9), rngs[i]) for i in pending]
        for i, g, (connected, bad, odd) in zip(pending, drawn, _verdicts(drawn)):
            tries[i] += 1
            accepted = None
            if connected:
                rng = rngs[i]
                if rng.random() < 0.5:
                    zeta = [rng.choice((1, -1)) for _ in range(g.n)]
                    accepted = (g.with_signs([zeta[u] * zeta[v] for u, v, _ in g.edges]), odd)
                elif not bad:
                    accepted = (g, odd)
            if accepted or tries[i] == _ATTEMPTS:
                factors[i].append(accepted)
                tries[i] = 0
        pending = [i for i in pending if len(factors[i]) < 2]
    return factors


def _tensor_edges(firsts: list[SignedGraph], seconds: list[SignedGraph]) -> np.ndarray:
    """The `(u, v, sign)` rows of each tensor product `tensor(g1, g2)` of the
    pairs, product after product, with `tensor`'s vertex numbers.

    A product has 2 * m1 * m2 rows, in an order of its own: the factor edge
    pair (i, k, s1), (j, l, s2) gives the rows (i*n2 + j, k*n2 + l) and
    (i*n2 + l, k*n2 + j), both of sign s1*s2 and both with u < v as i < k.
    Built by index arithmetic over the concatenated factor edges: each
    first-factor edge runs over its pair's second-factor edges.
    """
    m1 = np.array([g.m for g in firsts])
    m2 = np.array([g.m for g in seconds])
    e1, e2 = _edge_rows(firsts), _edge_rows(seconds)
    # The first factor's ends scaled to i*n2 and k*n2.
    e1[:, :2] *= np.repeat([g.n for g in seconds], m1)[:, None]
    run = np.repeat(m2, m1)
    a = np.repeat(np.arange(len(e1)), run)
    # Within the run of a first-factor edge, b counts up from its pair's
    # first second-factor edge.
    b = np.arange(len(a)) + np.repeat(np.repeat(np.cumsum(m2) - m2, m1) - (np.cumsum(run) - run), run)
    x, y = e1[a], e2[b]
    rows = np.empty((len(a), 2, 3), dtype=np.intp)
    rows[:, 0, :2] = x[:, :2] + y[:, :2]
    rows[:, 1, :2] = x[:, :2] + y[:, 1::-1]
    rows[:, :, 2] = (x[:, 2] * y[:, 2])[:, None]
    return rows.reshape(-1, 3)


@dataclass(frozen=True)
class ConjectureCandidate:
    """A compatible factor pair whose connected tensor product came out
    incompatible, with every offending pair of the product.

    The pairs are read from distance tables that passed the table
    certificate against the Kronecker form np.kron(S1, S2) of the factors'
    signed adjacency matrices, which proves the list both sound and
    complete; the factors' own tables passed it too, with no pair of both
    signs."""

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
    reported product and both its factors are certified by the table
    certificate of `distance._Run.tables`; a failed certificate raises
    RuntimeError naming a pair.  Trials run in windows of `_WINDOW`: both
    factors of the window's trials are drawn in one lockstep of rounds
    (`_sample_factor_pairs`), each round's draws judged by one all-sources
    pass, and its products are built as edge arrays and decided on the
    bitsets of one run (`_incompatible_products`); a product
    gets distance tables, sorted pairs and a certificate only when it has
    an incompatible pair, and the window's candidates get their factors
    certified in one more pass (`_certify_factors`).  Deterministic for a
    fixed seed: trial t uses its own RNG stream seeded by (seed, t),
    consumed as if the trial ran alone, so results do not depend on the
    windows.  Raises ValueError when trials is negative or max_n is below
    2, the smallest factor order.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    out = []
    for start in range(0, trials, _WINDOW):
        window = range(start, min(start + _WINDOW, trials))
        rngs = [random.Random(f"{seed}:{t}") for t in window]
        pairs = [
            (t, f1[0], f2[0])
            for t, (f1, f2) in zip(window, _sample_factor_pairs(rngs, max_n))
            if f1 and f2 and (f1[1] or f2[1])
        ]
        found = _incompatible_products(pairs)
        _certify_factors(found)
        out += found
    return out


def _incompatible_products(pairs: list[tuple[int, SignedGraph, SignedGraph]]) -> list[ConjectureCandidate]:
    """The candidates among (trial, g1, g2) whose tensor product is incompatible.

    The products are cut by `_batches` from their orders n1*n2 and sizes
    2*m1*m2 before any is built; each cut is built by `_tensor_edges` and
    decided by one `_Run`.  The products that run flags, or leaves
    unreached, get their tables from it, certified together against the
    edge rows of np.kron(S1, S2) of each, built from the factors alone; the
    pairs are read from the certified tables.
    """
    orders = [g1.n * g2.n for _, g1, g2 in pairs]
    sizes = [2 * g1.m * g2.m for _, g1, g2 in pairs]
    out = []
    for cut in _batches(orders, sizes):
        part = pairs[cut]
        run = _Run(orders[cut], _tensor_edges([g1 for _, g1, _ in part], [g2 for _, _, g2 in part]), sizes[cut])
        keep = [i for i, (bad, whole) in enumerate(zip(run.flags(), run.reached())) if bad or not whole]
        if not keep:
            continue
        kron = [_matrix_edges(np.kron(_signed_adjacency(part[i][1]), _signed_adjacency(part[i][2]))) for i in keep]
        for i, sd in zip(keep, run.tables(keep, check=kron)):
            t, g1, g2 = part[i]
            out.append(ConjectureCandidate(trial=t, g1=g1, g2=g2, product_pairs=tuple(_sorted_pairs(sd))))
    return out


def _certify_factors(candidates: list[ConjectureCandidate]) -> None:
    """Raise RuntimeError naming a pair unless both factors of every
    candidate are connected and compatible.

    The factors run through one `_Run` per cut of `_batches`; their tables
    must pass the table certificate against their edge rows and hold no
    pair with shortest paths of both signs.
    """
    graphs = [g for c in candidates for g in (c.g1, c.g2)]
    for cut in _batches([g.n for g in graphs], [g.m for g in graphs]):
        tables = _Run.of(graphs[cut]).tables(check=[_edge_rows([g]) for g in graphs[cut]])
        for i, sd in zip(range(cut.start, cut.stop), tables):
            if sd.incompatible.any():
                (u, v), c = _sorted_pairs(sd)[0], candidates[i // 2]
                raise RuntimeError(f"pair ({u},{v}): factor g{i % 2 + 1} of trial {c.trial} has shortest paths of both signs")
