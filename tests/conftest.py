"""Shared fixtures, independent oracles and random-instance samplers.

The oracles here deliberately avoid the library's own algorithms: unsigned
distances and shortest-path enumeration come from networkx, characteristic
polynomials from a naive cofactor expansion over coefficient lists or from
Faddeev-LeVerrier over Python ints (the library works modulo primes), and
witness validation re-derives every claimed property from scratch.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

import networkx as nx
import pytest

from sgdist import SignedGraph, cycle_graph, enumerate_petersen_signings, random_signed_gnp

# --------------------------------------------------------------------------
# independent oracles


def to_networkx(g: SignedGraph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    for u, v, s in g.edges:
        gx.add_edge(u, v, sign=s)
    return gx


def nx_distance(g: SignedGraph, u: int, v: int) -> int:
    return nx.shortest_path_length(to_networkx(g), u, v)


def nx_path_signs(g: SignedGraph, u: int, v: int) -> set[int]:
    """Signs of all shortest u-v paths, enumerated by networkx."""
    gx = to_networkx(g)
    signs = set()
    for path in nx.all_shortest_paths(gx, u, v):
        s = 1
        for a, b in zip(path, path[1:]):
            s *= gx.edges[a, b]["sign"]
        signs.add(s)
    return signs


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_add(p: list[int], q: list[int]) -> list[int]:
    n = max(len(p), len(q))
    p = p + [0] * (n - len(p))
    q = q + [0] * (n - len(q))
    return [a + b for a, b in zip(p, q)]


def naive_charpoly(matrix) -> list[int]:
    """det(lambda*I - M) by cofactor expansion over ascending coefficient
    lists; exponential, for small test matrices only.  Returns descending
    coefficients to match IntPolynomial."""
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    entries = [
        [[-m[i][j], 1] if i == j else [-m[i][j]] for j in range(n)]
        for i in range(n)
    ]

    def det(rows: list[list[list[int]]]) -> list[int]:
        k = len(rows)
        if k == 1:
            return rows[0][0]
        acc = [0]
        for j in range(k):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = poly_mul(rows[0][j], det(minor))
            if j % 2:
                term = [-c for c in term]
            acc = poly_add(acc, term)
        return acc

    coeffs = det(entries)
    coeffs = coeffs + [0] * (n + 1 - len(coeffs))
    return list(reversed(coeffs))


def bigint_charpoly(matrix) -> tuple[int, ...]:
    """det(lambda*I - M) by the Faddeev-LeVerrier recurrence over Python
    ints, descending coefficients.  O(n^4); every division by k is exact."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    coeffs = [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        b = [row[:] for row in mk]
        for i in range(n):
            b[i][i] += coeffs[-1]
        bt = list(zip(*b))
        mk = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
        q, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert r == 0, "inexact trace division in Faddeev-LeVerrier"
        coeffs.append(q)
    return tuple(coeffs)


def check_witness(g: SignedGraph, w) -> None:
    """Re-derive every invariant a least-distance witness must satisfy."""
    gx = to_networkx(g)
    u, v = w.pair
    k = nx.shortest_path_length(gx, u, v)
    assert w.k == k
    for path, want in ((w.path_pos, 1), (w.path_neg, -1)):
        assert path[0] == u and path[-1] == v
        assert len(path) == k + 1
        assert len(set(path)) == len(path)
        s = 1
        for a, b in zip(path, path[1:]):
            assert gx.has_edge(a, b)
            s *= gx.edges[a, b]["sign"]
        assert s == want
    assert not (set(w.path_pos[1:-1]) & set(w.path_neg[1:-1])), "paths share internal vertices"
    # The union is an even negative cycle with the pair diametrically opposite.
    assert len(w.cycle) == 2 * k
    assert len(set(w.cycle)) == 2 * k
    cyc_sign = 1
    for i in range(len(w.cycle)):
        a, b = w.cycle[i], w.cycle[(i + 1) % len(w.cycle)]
        assert gx.has_edge(a, b)
        cyc_sign *= gx.edges[a, b]["sign"]
    assert cyc_sign == -1
    assert set(w.cycle) == set(w.path_pos) | set(w.path_neg)
    # Minimality: every pair at smaller distance has single-signed shortest paths.
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if nx.shortest_path_length(gx, x, y) < k:
                assert len(nx_path_signs(g, x, y)) == 1, f"closer incompatible pair ({x},{y})"


# --------------------------------------------------------------------------
# samplers

def random_connected_signed(rng: random.Random, n_lo: int = 2, n_hi: int = 8,
                            p_lo: float = 0.3, p_hi: float = 0.9) -> SignedGraph:
    while True:
        n = rng.randint(n_lo, n_hi)
        g = random_signed_gnp(n, rng.uniform(p_lo, p_hi), rng)
        if nx.is_connected(to_networkx(g)):
            return g


def random_balanced_connected(rng: random.Random, n_lo: int = 2, n_hi: int = 8) -> SignedGraph:
    g = random_connected_signed(rng, n_lo, n_hi)
    zeta = [rng.choice((1, -1)) for _ in range(g.n)]
    return g.with_signs([zeta[u] * zeta[v] for u, v, _ in g.edges])


def all_cycle_signings(n: int):
    for signs in iproduct((1, -1), repeat=n):
        yield cycle_graph(n, signs)


# --------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="session")
def petersen_table():
    return enumerate_petersen_signings()
