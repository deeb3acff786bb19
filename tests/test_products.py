import copy
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sgdist as sg
from sgdist import distance, products
from sgdist.distance import _edge_rows, _opposite_paths
from conftest import nx_path_signs, random_balanced_connected, random_connected_signed, to_networkx
from oracles import brute_force_summary

import networkx as nx

K2P = sg.complete_graph(2, 1)
K2N = sg.complete_graph(2, -1)
C3P = sg.cycle_graph(3, [1, 1, 1])
K1 = sg.SignedGraph(1, ())


def bfs_product_distance(g: sg.SignedGraph, u: int, v: int) -> int:
    return nx.shortest_path_length(to_networkx(g), u, v)


# -- cartesian ----------------------------------------------------------------

def test_cartesian_q2():
    prod = sg.cartesian(K2P, K2P)
    assert prod.edges == ((0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1))


def test_cartesian_signs_follow_moving_coordinate():
    prod = sg.cartesian(K2N, K2P)
    # Copies of the K2- edge are negative, copies of the K2+ edge positive.
    assert prod.sign(0, 2) == -1 and prod.sign(1, 3) == -1
    assert prod.sign(0, 1) == 1 and prod.sign(2, 3) == 1
    assert sg.is_balanced(prod) and sg.is_compatible(prod)


def test_cartesian_counts():
    rng = random.Random(3)
    for _ in range(20):
        g1 = random_connected_signed(rng, 2, 5)
        g2 = random_connected_signed(rng, 2, 5)
        prod = sg.cartesian(g1, g2)
        assert prod.n == g1.n * g2.n
        assert prod.m == g1.n * g2.m + g2.n * g1.m


def test_cartesian_distance_additivity():
    rng = random.Random(5)
    for _ in range(10):
        g1 = random_connected_signed(rng, 2, 5)
        g2 = random_connected_signed(rng, 2, 5)
        prod = sg.cartesian(g1, g2)
        gx1, gx2 = to_networkx(g1), to_networkx(g2)
        gxp = to_networkx(prod)
        for i in range(g1.n):
            for k in range(g2.n):
                for j in range(g1.n):
                    for l in range(g2.n):
                        d = nx.shortest_path_length(gxp, sg.pair_index(i, k, g2.n), sg.pair_index(j, l, g2.n))
                        assert d == nx.shortest_path_length(gx1, i, j) + nx.shortest_path_length(gx2, k, l)


# -- lexicographic ------------------------------------------------------------

def test_lexicographic_k4():
    assert sg.lexicographic(K2P, K2P) == sg.complete_graph(4, 1)


def test_lexicographic_incompatible_mixed_second_factor():
    # Two shortest paths of opposite signs between (u1,v1) and (u1,v3).
    p3 = sg.path_graph(3, [1, -1])
    prod = sg.lexicographic(K2P, p3)
    assert (0, 2) in sg.incompatible_pairs(prod)
    summ = brute_force_summary(prod, 0, 2)
    assert summ.d == 2 and summ.sigma_max == 1 and summ.sigma_min == -1


def test_lexicographic_degrees():
    rng = random.Random(7)
    for _ in range(15):
        g1 = random_connected_signed(rng, 2, 5)
        g2 = random_connected_signed(rng, 2, 5)
        prod = sg.lexicographic(g1, g2)
        for i in range(g1.n):
            for j in range(g2.n):
                assert prod.degree(sg.pair_index(i, j, g2.n)) == g2.n * g1.degree(i) + g2.degree(j)


# -- tensor -------------------------------------------------------------------

def test_tensor_k2_k2_disconnected():
    prod = sg.tensor(K2P, K2P)
    assert prod.m == 2
    assert not nx.is_connected(to_networkx(prod))


def test_tensor_k2_c3_is_positive_c6():
    prod = sg.tensor(K2P, C3P)
    assert prod.n == 6 and prod.m == 6
    assert all(s == 1 for *_, s in prod.edges)
    assert all(prod.degree(v) == 2 for v in range(6))
    assert nx.is_connected(to_networkx(prod))


def test_tensor_k2neg_k3_is_all_negative_c6():
    prod = sg.tensor(K2N, sg.complete_graph(3, 1))
    assert prod.n == 6 and prod.m == 6
    assert all(s == -1 for *_, s in prod.edges)
    assert all(prod.degree(v) == 2 for v in range(6))
    assert nx.is_connected(to_networkx(prod))


def test_tensor_sign_rule():
    rng = random.Random(11)
    for _ in range(15):
        g1 = random_connected_signed(rng, 2, 5)
        g2 = random_connected_signed(rng, 2, 5)
        prod = sg.tensor(g1, g2)
        n2 = g2.n
        for a, b, s in prod.edges:
            i, j = sg.index_pair(a, n2)
            k, l = sg.index_pair(b, n2)
            assert s == g1.sign(i, k) * g2.sign(j, l)


def test_cartesian_and_lex_sign_rules():
    rng = random.Random(13)
    for _ in range(15):
        g1 = random_connected_signed(rng, 2, 5)
        g2 = random_connected_signed(rng, 2, 5)
        n2 = g2.n
        for a, b, s in sg.cartesian(g1, g2).edges:
            i, j = sg.index_pair(a, n2)
            k, l = sg.index_pair(b, n2)
            assert s == (g1.sign(i, k) if j == l else g2.sign(j, l))
        for a, b, s in sg.lexicographic(g1, g2).edges:
            i, j = sg.index_pair(a, n2)
            k, l = sg.index_pair(b, n2)
            assert s == (g1.sign(i, k) if i != k else g2.sign(j, l))


def test_cartesian_tensor_commutative_up_to_swap():
    rng = random.Random(17)
    for _ in range(10):
        g1 = random_connected_signed(rng, 2, 5)
        g2 = random_connected_signed(rng, 2, 5)
        for op in (sg.cartesian, sg.tensor):
            ab = op(g1, g2)
            ba = op(g2, g1)
            relabel = [0] * ab.n
            for i in range(g1.n):
                for j in range(g2.n):
                    relabel[sg.pair_index(i, j, g2.n)] = sg.pair_index(j, i, g1.n)
            swapped = sg.SignedGraph.from_edges(
                ab.n, [(relabel[u], relabel[v], s) for u, v, s in ab.edges]
            )
            assert swapped == ba


def _reference_product_edges(kind, g1, g2):
    """Product edge lists straight from the definitions, each end indexed
    through pair_index and left unordered for from_edges to normalise."""
    n2 = g2.n
    edges = []
    if kind == "tensor":
        for i, k, s1 in g1.edges:
            for j, l, s2 in g2.edges:
                edges.append((sg.pair_index(i, j, n2), sg.pair_index(k, l, n2), s1 * s2))
                edges.append((sg.pair_index(i, l, n2), sg.pair_index(k, j, n2), s1 * s2))
        return edges
    for i, k, s in g1.edges:
        for j in range(n2):
            for l in range(n2) if kind == "lexicographic" else (j,):
                edges.append((sg.pair_index(i, j, n2), sg.pair_index(k, l, n2), s))
    for j, l, s in g2.edges:
        for i in range(g1.n):
            edges.append((sg.pair_index(i, j, n2), sg.pair_index(i, l, n2), s))
    return edges


def test_products_equal_normalised_reference_edge_lists():
    rng = random.Random(29)
    # An edgeless factor and two K2 of opposite sign leave the identity and
    # all-ones rows of the Kronecker forms to carry the product.
    edgeless, two_k2 = sg.SignedGraph(3, ()), sg.SignedGraph(4, ((0, 1, 1), (2, 3, -1)))
    factors = [K1, K2P, K2N, C3P, edgeless, two_k2] + [random_connected_signed(rng, 2, 6) for _ in range(6)]
    for g1 in factors:
        for g2 in factors:
            for kind, build in (("cartesian", sg.cartesian), ("lexicographic", sg.lexicographic), ("tensor", sg.tensor)):
                want = sg.SignedGraph.from_edges(g1.n * g2.n, _reference_product_edges(kind, g1, g2))
                assert build(g1, g2) == want, (kind, g1, g2)


# -- connectivity criterion and odd/even distances -----------------------------

def test_tensor_is_connected_criterion():
    assert not sg.tensor_is_connected(K2P, K2P)
    assert sg.tensor_is_connected(K2P, C3P)
    assert sg.tensor_is_connected(sg.cycle_graph(5, [1] * 5), sg.cycle_graph(4, [1] * 4))
    # An edgeless factor leaves the product edgeless: connected only as K1 x K1.
    assert not sg.tensor_is_connected(K1, C3P)
    assert not sg.tensor_is_connected(C3P, K1)
    assert sg.tensor_is_connected(K1, K1)


def test_tensor_is_connected_matches_reality():
    rng = random.Random(19)
    orders = set()
    for _ in range(40):
        g1 = random_connected_signed(rng, 1, 5)
        g2 = random_connected_signed(rng, 1, 5)
        orders.add(min(g1.n, g2.n))
        assert sg.tensor_is_connected(g1, g2) == nx.is_connected(to_networkx(sg.tensor(g1, g2)))
    assert 1 in orders


def test_tensor_is_connected_rejects_disconnected_factor():
    with pytest.raises(ValueError, match="connected factors"):
        sg.tensor_is_connected(sg.SignedGraph(3, ((0, 1, 1),)), K2P)


def test_odd_even_distance_examples():
    assert sg.odd_even_distance(K2P, 0, 1) == sg.OddEvenDistance(od=1, ed=math.inf)
    assert sg.odd_even_distance(C3P, 0, 0) == sg.OddEvenDistance(od=3, ed=0)
    c5 = sg.cycle_graph(5, [1] * 5)
    assert sg.odd_even_distance(c5, 0, 2) == sg.OddEvenDistance(od=3, ed=2)


def test_odd_even_distance_runs_one_bfs(monkeypatch):
    # The cover's one BFS gives both the walk lengths and the connectivity
    # verdict, on a graph that is refused as on one that is not.
    calls = []
    real = products._bfs
    monkeypatch.setattr(products, "_bfs", lambda g, roots: calls.append(g.n) or real(g, roots))
    assert sg.odd_even_distance(sg.cycle_graph(5, [1] * 5), 0, 2) == sg.OddEvenDistance(od=3, ed=2)
    assert calls == [10]
    with pytest.raises(ValueError, match="^odd/even distances need a connected graph$"):
        sg.odd_even_distance(sg.SignedGraph(4, ((0, 1, 1), (2, 3, -1))), 0, 1)
    assert calls == [10, 8]


def _walk_parity_distances(g: sg.SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Smallest odd / even l <= 2n with (A^l)[u, v] nonzero, from boolean
    matrix powers; inf where there is none."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v, _ in g.edges:
        a[u, v] = a[v, u] = 1
    best = np.full((2, g.n, g.n), math.inf)
    reach = np.eye(g.n, dtype=np.int64)
    for length in range(2 * g.n + 1):
        side = best[length % 2]
        side[(reach > 0) & (side == math.inf)] = length
        reach = np.minimum(reach @ a, 1)
    return best[1], best[0]


def test_odd_even_distance_matches_boolean_matrix_powers():
    rng = random.Random(31)
    graphs = [K1, K2P, K2N, C3P, sg.path_graph(4, [1, -1, 1]), sg.petersen_graph()]
    graphs += [sg.cycle_graph(k, [1] * k) for k in (4, 5, 6, 7)]
    graphs += [random_balanced_connected(rng, 2, 7) for _ in range(10)]
    for _ in range(10):
        # Bipartite by index parity: a spanning tree and random extra edges,
        # each joining an even and an odd vertex.
        n = rng.randint(2, 8)
        edges = {(rng.choice(range(1 - v % 2, v, 2)), v) for v in range(1, n)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if (v - u) % 2 and rng.random() < 0.4}
        graphs.append(sg.SignedGraph.from_edges(n, [(u, v, rng.choice((1, -1))) for u, v in edges]))
    graphs += [random_connected_signed(rng, 2, 8) for _ in range(20)]
    assert any(not sg.has_odd_cycle(g) for g in graphs) and any(sg.has_odd_cycle(g) for g in graphs)
    for g in graphs:
        od, ed = _walk_parity_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert sg.odd_even_distance(g, u, v) == sg.OddEvenDistance(od=od[u, v], ed=ed[u, v]), (g, u, v)


def test_odd_even_distance_parity_and_bound():
    rng = random.Random(23)
    for _ in range(20):
        g = random_connected_signed(rng, 2, 7)
        gx = to_networkx(g)
        for u in range(g.n):
            for v in range(g.n):
                oed = sg.odd_even_distance(g, u, v)
                if oed.od != math.inf:
                    assert oed.od % 2 == 1
                if oed.ed != math.inf:
                    assert oed.ed % 2 == 0
                assert min(oed.od, oed.ed) >= nx.shortest_path_length(gx, u, v)


def test_tensor_distance_examples():
    c5 = sg.cycle_graph(5, [1] * 5)
    assert sg.tensor_distance(c5, K2P, (0, 0), (0, 0)) == 0
    # C5 x K2 is a 10-cycle; (u,a) to (u,b) is the antipodal hop count 5.
    assert sg.tensor_distance(c5, K2P, (0, 0), (0, 1)) == 5
    prod = sg.tensor(c5, K2P)
    assert bfs_product_distance(prod, sg.pair_index(0, 0, 2), sg.pair_index(0, 1, 2)) == 5
    assert sg.tensor_distance(C3P, C3P, (0, 0), (1, 1)) == 1


def test_tensor_distance_matches_bfs():
    rng = random.Random(29)
    done = 0
    while done < 12:
        g1 = random_connected_signed(rng, 2, 5)
        g2 = random_connected_signed(rng, 2, 5)
        if not sg.tensor_is_connected(g1, g2):
            continue
        prod = sg.tensor(g1, g2)
        gxp = to_networkx(prod)
        for a in range(prod.n):
            i, j = sg.index_pair(a, g2.n)
            for b in range(prod.n):
                k, l = sg.index_pair(b, g2.n)
                assert sg.tensor_distance(g1, g2, (i, j), (k, l)) == nx.shortest_path_length(gxp, a, b)
        done += 1


def test_tensor_distance_rejects_disconnected_product():
    with pytest.raises(ValueError, match="^tensor product disconnected: neither factor has an odd cycle$"):
        sg.tensor_distance(K2P, K2P, (0, 0), (1, 1))
    # K3 has an odd cycle; the edgeless factor is the cause.
    with pytest.raises(ValueError, match="^tensor product disconnected: the first factor has no edges$"):
        sg.tensor_distance(K1, C3P, (0, 0), (0, 1))
    with pytest.raises(ValueError, match="^tensor product disconnected: the second factor has no edges$"):
        sg.tensor_distance(C3P, K1, (0, 0), (1, 0))
    assert sg.tensor_distance(K1, K1, (0, 0), (0, 0)) == 0


# -- theorem checks -----------------------------------------------------------

def test_theorem_report_compatible_pair():
    rep = sg.check_product_compatibility_theorems(C3P, sg.path_graph(3, [1, 1]))
    assert rep["cartesian"] == {"product_compatible": True, "expected": True, "agrees": True}
    assert rep["lexicographic"]["sufficiency_holds"] and rep["lexicographic"]["iff_agrees"]
    assert rep["tensor"]["only_if_holds"]


def test_theorem_report_skips_edgeless_tensor():
    rep = sg.check_product_compatibility_theorems(K1, C3P)
    assert rep["tensor"] == {"skipped": "product disconnected"}
    assert rep["cartesian"]["agrees"] and rep["lexicographic"]["sufficiency_holds"]


def test_theorem_report_mixed_second_factor():
    rep = sg.check_product_compatibility_theorems(K2P, sg.path_graph(3, [1, -1]))
    assert rep["lexicographic"]["product_compatible"] is False
    assert rep["lexicographic"]["sufficiency_holds"]
    assert rep["lexicographic"]["iff_agrees"]


def test_theorem_report_incompatible_first_factor():
    c4 = sg.cycle_graph(4, [-1, 1, 1, 1])
    rep = sg.check_product_compatibility_theorems(c4, K2P)
    assert rep["cartesian"]["product_compatible"] is False
    assert rep["cartesian"]["agrees"]


def test_lexicographic_uniformity_not_necessary():
    # Complete products are compatible no matter the signs: K2[K3] = K6.
    k3_mixed = sg.cycle_graph(3, [1, 1, -1])
    rep = sg.check_product_compatibility_theorems(K2P, k3_mixed)
    assert rep["lexicographic"]["product_compatible"] is True
    assert rep["lexicographic"]["sufficient_hypothesis"] is False
    assert rep["lexicographic"]["sufficiency_holds"] is True
    assert rep["lexicographic"]["iff_agrees"] is False
    prod = sg.lexicographic(K2P, k3_mixed)
    assert prod.m == prod.n * (prod.n - 1) // 2  # complete


# -- conjecture search ----------------------------------------------------------

def test_conjecture_zero_trials():
    assert sg.conjecture_search(0) == []


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        ({"trials": -3}, "trials must be >= 0, got -3"),
        ({"trials": 5, "max_n": 1}, "max_n must be >= 2, got 1"),
        ({"trials": 0, "max_n": -4}, "max_n must be >= 2, got -4"),
    ],
)
def test_conjecture_search_rejects_bad_arguments(kwargs, msg):
    with pytest.raises(ValueError, match=f"^{msg}$"):
        sg.conjecture_search(**kwargs)


def test_conjecture_search_deterministic():
    a = sg.conjecture_search(40, max_n=6, seed=123)
    b = sg.conjecture_search(40, max_n=6, seed=123)
    assert a == b


def test_conjecture_candidates_are_genuine():
    # Every reported candidate must have compatible factors, a connected
    # product, and oracle-confirmed incompatible product pairs.
    found = sg.conjecture_search(40, max_n=6, seed=123)
    for cand in found:
        assert sg.is_compatible(cand.g1) and sg.is_compatible(cand.g2)
        assert sg.tensor_is_connected(cand.g1, cand.g2)
        prod = sg.tensor(cand.g1, cand.g2)
        for u, v in cand.product_pairs:
            assert not brute_force_summary(prod, u, v, max_n=prod.n).compatible


def test_conjecture_pairs_in_large_products_are_incompatible():
    # Products of 72 and 81 vertices are certified like small ones; check
    # the first and last reported pair of each against networkx enumeration.
    found = sg.conjecture_search(300, max_n=9, seed=1)
    large = [c for c in found if c.g1.n * c.g2.n in (72, 81)]
    assert {c.g1.n * c.g2.n for c in large} == {72, 81}
    for cand in large:
        prod = sg.tensor(cand.g1, cand.g2)
        for u, v in (cand.product_pairs[0], cand.product_pairs[-1]):
            assert nx_path_signs(prod, u, v) == {1, -1}


def row(sd, u):
    """Row u of the tables, as `_opposite_paths` reads it."""
    return sd.dist[u], sd.pos[u], sd.neg[u]


def test_opposite_paths_certify_every_reported_pair():
    prod = sg.tensor(K2P, sg.complete_graph(4, 1).with_signs([1, 1, 1, 1, -1, 1]))
    sd = sg.signed_distances(prod)
    for u in range(prod.n):
        vs = [v for v in range(prod.n) if sd.incompatible[u, v]]
        for v in vs:
            for path, sign in zip(_opposite_paths(prod, row(sd, u), u, v, _edge_rows([prod])), (1, -1)):
                assert (path[0], path[-1], len(path) - 1) == (u, v, sd.dist[u, v])
                assert math.prod(prod.sign(a, b) for a, b in zip(path, path[1:])) == sign


def _corrupted(sd, **entries):
    arrays = {"dist": sd.dist.copy(), "pos": sd.pos.copy(), "neg": sd.neg.copy()}
    for name, cells in entries.items():
        for (u, v), value in cells.items():
            arrays[name][u, v] = arrays[name][v, u] = value
    return sg.SignedDistances(**arrays)


def test_opposite_paths_reject_corrupted_distances():
    # Every shortest path of the all-positive C4 is positive.
    c4 = sg.cycle_graph(4, [1] * 4)
    sd4 = sg.signed_distances(c4)
    # 0-1-2 and 0-3-2 have opposite signs, as do the detours 0-5-4-2 and 0-7-6-2.
    detours = sg.SignedGraph.from_edges(8, [
        (0, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1),
        (2, 4, 1), (4, 5, 1), (0, 5, 1), (2, 6, 1), (6, 7, 1), (0, 7, -1),
    ])
    cases = [
        # a negative bit with no negative predecessor: the walk stalls
        (c4, _corrupted(sd4, neg={(0, 2): True})),
        # negative bits all the way down: the walked path has the wrong sign
        (c4, _corrupted(sd4, neg={(0, 2): True, (0, 1): True, (0, 0): True})),
        # d(0,2) = 3: both signs are walked along the detours, longer than BFS
        (detours, _corrupted(sg.signed_distances(detours), dist={(0, 2): 3})),
    ]
    for g, sd in cases:
        with pytest.raises(RuntimeError, match=r"pair \(0,2\)"):
            _opposite_paths(g, row(sd, 0), 0, 2, _edge_rows([g]))


def test_witness_certifies_row_u_of_its_tables():
    # C4 with one negative edge and a pendant 4 on vertex 1: the witness of
    # (0, 2) walks row 0 through 1 and 3 only.  One entry of row 0 at the
    # pendant is changed, its column 0 entry left as it was: only a
    # certificate of row u, the row the walk read, sees it.
    g = sg.SignedGraph.from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1), (1, 4, -1)])
    sd = sg.signed_distances(g)
    assert _opposite_paths(g, row(sd, 0), 0, 2, _edge_rows([g])) == ([0, 1, 2], [0, 3, 2])
    for name, value in (("dist", 1), ("dist", 3), ("pos", True), ("neg", False)):
        arrays = {"dist": sd.dist.copy(), "pos": sd.pos.copy(), "neg": sd.neg.copy()}
        arrays[name][0, 4] = value
        bad = sg.SignedDistances(**arrays)
        assert not np.array_equal(getattr(bad, name), getattr(bad, name).T)
        with pytest.raises(RuntimeError, match=r"^pair \(0,4\): distance \d+, positive \w+ and negative \w+ fail"):
            _opposite_paths(g, row(bad, 0), 0, 2, _edge_rows([g]))


def test_certificate_refuses_a_step_off_the_graph():
    # d(0, 2) = 2 through 0-1-2, which is positive; 0-3-4-2 is negative.
    g = sg.SignedGraph(5, ((0, 1, 1), (0, 3, -1), (1, 2, 1), (2, 4, 1), (3, 4, 1)))
    sd, edges = sg.signed_distances(g), _edge_rows([g])
    distance._certify_path(g, sd.dist[0], 0, 2, [0, 1, 2], 1, edges)
    cases = [
        # the BFS length and, through its one real edge, the negative sign;
        # its step 3-2 is not an edge of g
        ([0, 3, 2], -1),
        # a negative path of real edges, one step too long
        ([0, 3, 4, 2], -1),
        # a shortest path of real edges, of the other sign
        ([0, 1, 2], -1),
    ]
    for path, target in cases:
        with pytest.raises(RuntimeError, match=rf"^pair \(0,2\): path {re.escape(str(path))} of sign {target:+d} fails"):
            distance._certify_path(g, sd.dist[0], 0, 2, path, target, edges)


def test_conjecture_search_raises_on_failed_certificate(monkeypatch):
    # A negative bit on a pair whose shortest paths are all positive flags
    # the product as incompatible in the all-sources pass, but the pair
    # cannot be certified.  Only the pass over the products' edge arrays is
    # corrupted: the factors still pass an honest check.  A product has at
    # most 36 vertices, so its sources fit in word 0.
    max_n = 6
    product_rows = []

    def tensor_edges(firsts, seconds):
        product_rows.append(real_tensor_edges(firsts, seconds))
        return product_rows[-1]

    def corrupt(orders, edges, sizes):
        pos, neg, planes = real_edge_bitsets(orders, edges, sizes)
        if not any(edges is rows for rows in product_rows):
            return pos, neg, planes
        for n, offset in zip(orders, np.cumsum(orders) - orders):
            u, v = next(
                (u, v) for u in range(n) for v in range(n)
                if u != v and pos[0, offset + u] >> v & 1 and not neg[0, offset + u] >> v & 1
            )
            neg[0, offset + u] |= np.uint64(1 << v)
            neg[0, offset + v] |= np.uint64(1 << u)
        return pos, neg, planes

    real_tensor_edges, real_edge_bitsets = products._tensor_edges, distance._edge_bitsets
    monkeypatch.setattr(products, "_tensor_edges", tensor_edges)
    monkeypatch.setattr(distance, "_edge_bitsets", corrupt)
    with pytest.raises(RuntimeError, match=r"^pair \(\d+,\d+\)"):
        sg.conjecture_search(40, max_n=max_n, seed=123)


def replay_factor(rng, max_n):
    """One factor of a conjecture-search stream, drawn alone and one draw at
    a time, through the public graph routes: a signed G(n, p), refused when
    disconnected; then, on a coin, the signs zeta(u)zeta(v) of a random
    vertex signing; accepted when `is_compatible`, after at most
    `_ATTEMPTS` draws."""
    for _ in range(products._ATTEMPTS):
        n = rng.randint(2, max_n)
        p = rng.uniform(0.35, 0.9)
        g = sg.random_signed_gnp(n, p, rng)
        if not sg.is_connected(g):
            continue
        if rng.random() < 0.5:
            zeta = [rng.choice((1, -1)) for _ in range(n)]
            g = sg.SignedGraph(n, tuple((u, v, zeta[u] * zeta[v]) for u, v, _ in g.edges))
        if sg.is_compatible(g):
            return g
    return None


def replay_trial(t, max_n, seed):
    """Trial t of `conjecture_search` alone: its factors, and its product
    when the trial builds one."""
    rng = random.Random(f"{seed}:{t}")
    g1 = replay_factor(rng, max_n)
    g2 = replay_factor(rng, max_n)
    if g1 is None or g2 is None or not (sg.has_odd_cycle(g1) or sg.has_odd_cycle(g2)):
        return g1, g2, None
    return g1, g2, sg.tensor(g1, g2)


def test_conjecture_search_misses_no_candidate():
    # Certificates reject false positives; this replays every trial's RNG
    # stream alone and checks that the lockstep windows draw the same
    # factors and that the window's pass drops no incompatible product.
    # 300 trials span several windows.
    trials, max_n, seed = 300, 7, 1
    assert trials > 3 * products._WINDOW
    found = {c.trial: c for c in sg.conjecture_search(trials, max_n=max_n, seed=seed)}
    products_built = 0
    for t in range(trials):
        g1, g2, prod = replay_trial(t, max_n, seed)
        if prod is None:
            assert t not in found
            continue
        products_built += 1
        want = tuple(sg.incompatible_pairs(prod))
        if t in found:
            assert (found[t].g1, found[t].g2) == (g1, g2)
        assert (found[t].product_pairs if t in found else ()) == want, t
    assert products_built > 200 and 0 < len(found) < products_built


@pytest.mark.parametrize("attempts", [1, 2])
def test_lockstep_search_equals_sequential_replay(monkeypatch, attempts):
    # Few attempts make streams give up on a factor, often on the first while
    # the second is still drawn; the lockstep rounds must consume every
    # stream as a sequential replay does.
    monkeypatch.setattr(products, "_ATTEMPTS", attempts)
    trials, max_n, seed = 150, 7, 5
    want = []
    for t in range(trials):
        g1, g2, prod = replay_trial(t, max_n, seed)
        if prod is not None and not sg.is_compatible(prod):
            want.append(products.ConjectureCandidate(t, g1, g2, tuple(sg.incompatible_pairs(prod))))
    assert want
    assert sg.conjecture_search(trials, max_n=max_n, seed=seed) == want


@st.composite
def connected_factors(draw, min_n=2, max_n=7):
    """A random spanning tree plus random extra edges, all randomly signed."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    sign = st.sampled_from((1, -1))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v): draw(sign) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and draw(st.booleans()):
                edges[(u, v)] = draw(sign)
    return sg.SignedGraph.from_edges(n, [(u, v, s) for (u, v), s in edges.items()])


C4_MIXED = sg.cycle_graph(4, [1, -1, 1, 1])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(connected_factors(), connected_factors()), min_size=1, max_size=4))
@example([(K2P, C3P)])
@example([(K2N, K2P), (C4_MIXED, sg.complete_graph(5, -1)), (C3P, C4_MIXED)])
def test_tensor_edges_match_tensor(pairs):
    # Each product's run of rows holds the edges of `tensor`, in any order.
    rows = products._tensor_edges([g1 for g1, _ in pairs], [g2 for _, g2 in pairs])
    start = 0
    for g1, g2 in pairs:
        prod = sg.tensor(g1, g2)
        run = rows[start : start + prod.m]
        assert sorted(map(tuple, run.tolist())) == list(prod.edges)
        start += prod.m
    assert start == len(rows)


@pytest.mark.parametrize("bound", [1, 64, 300])
def test_window_flags_in_cut_batches(monkeypatch, bound):
    # Small products batch together under the bound, large ones stand alone,
    # and a product over 64 vertices spans two source words; every product
    # must be flagged exactly when it is incompatible.
    rng = random.Random(bound)
    factors = [(K2P, C3P), (K2N, sg.cycle_graph(23, [1] * 22 + [-1])), (C3P, sg.cycle_graph(25, [1] * 25))]
    factors += [(random_connected_signed(rng, 2, 6), random_balanced_connected(rng, 3, 7)) for _ in range(20)]
    pairs = [(t, g1, g2) for t, (g1, g2) in enumerate(factors) if sg.has_odd_cycle(g1) or sg.has_odd_cycle(g2)]
    monkeypatch.setattr(distance, "_GATHER_WORDS", bound)
    orders = [g1.n * g2.n for _, g1, g2 in pairs]
    assert len(list(distance._batches(orders, [2 * g1.m * g2.m for _, g1, g2 in pairs]))) > 1
    want = []
    for t, g1, g2 in pairs:
        prod = sg.tensor(g1, g2)
        if not sg.is_compatible(prod):
            want.append(products.ConjectureCandidate(t, g1, g2, tuple(sg.incompatible_pairs(prod))))
    assert want and len(want) < len(pairs)
    assert products._incompatible_products(pairs) == want


def test_tensor_does_not_preserve_compatibility():
    # Compatible factors with an incompatible connected tensor product: the
    # same-fiber pair ((0,0),(0,1)) reaches both signs through the two
    # common neighbors of 0 and 1 in the second factor.
    k4_one_neg = sg.complete_graph(4, 1).with_signs(
        [-1 if (u, v) == (1, 3) else 1 for u, v, _ in sg.complete_graph(4, 1).edges]
    )
    assert sg.is_compatible(K2P) and sg.is_compatible(k4_one_neg)
    assert sg.tensor_is_connected(K2P, k4_one_neg)
    prod = sg.tensor(K2P, k4_one_neg)
    a, b = sg.pair_index(0, 0, 4), sg.pair_index(0, 1, 4)
    summ = brute_force_summary(prod, a, b)
    assert summ.d == 2 and summ.sigma_max == 1 and summ.sigma_min == -1
    assert not sg.is_compatible(prod)


def test_all_negative_triangles_tensor_compatible():
    c3n = sg.complete_graph(3, -1)
    assert sg.is_compatible(c3n)
    assert sg.tensor_is_connected(c3n, c3n)
    assert sg.is_compatible(sg.tensor(c3n, c3n))


# -- the table certificate ----------------------------------------------------

def signed_matrix(g):
    """The signed adjacency matrix of g, entry by entry from its edges."""
    a = np.zeros((g.n, g.n), dtype=int)
    for u, v, s in g.edges:
        a[u, v] = a[v, u] = s
    return a


def product_run(pairs):
    """One `_Run` over the `_tensor_edges` rows of the products of the factor
    pairs, as the search runs it."""
    orders = [g1.n * g2.n for g1, g2 in pairs]
    rows = products._tensor_edges([g1 for g1, _ in pairs], [g2 for _, g2 in pairs])
    return distance._Run(orders, rows, [2 * g1.m * g2.m for g1, g2 in pairs])


def matrix_rows(adjs):
    """The `(u, v, sign)` edge rows of each graph given by a signed adjacency matrix."""
    return [distance._matrix_edges(a) for a in adjs]


def kron_rows(pairs):
    return matrix_rows([np.kron(signed_matrix(g1), signed_matrix(g2)) for g1, g2 in pairs])


def certify_rows(adj, sd, rows):
    """The table certificate, as the witness runs it, of rows of sd, each
    read as the tables from its source, against the graph of adj."""
    rows = list(rows)
    [edges] = matrix_rows([adj])
    distance._certify(edges, [len(edges)], [len(adj)], rows, sd.dist.T[:, rows], sd.pos.T[:, rows], sd.neg.T[:, rows])


def corrupted_copies(sd, rng, count):
    """`count` copies of sd, each with one entry of one table changed: a
    distance by +1 or -1, or a positive or negative bit flipped."""
    n = len(sd.dist)
    for _ in range(count):
        arrays = {"dist": sd.dist.copy(), "pos": sd.pos.copy(), "neg": sd.neg.copy()}
        u, v = rng.randrange(n), rng.randrange(n)
        kind = rng.choice(("dist+", "dist-", "pos", "neg"))
        if kind.startswith("dist"):
            arrays["dist"][u, v] += 1 if kind == "dist+" else -1
        else:
            arrays[kind][u, v] ^= True
        yield sg.SignedDistances(**arrays)


def changed_cell(bits, col, source, kind):
    """A copy of a pass's bitsets with cell (column, source) changed: its
    distance by +1 or -1 through the planes, or its positive or negative
    bit flipped."""
    pos, neg, planes = bits[0].copy(), bits[1].copy(), [p.copy() for p in bits[2]]
    w, bit = divmod(source, 64)
    if kind in ("pos", "neg"):
        a = pos if kind == "pos" else neg
        a[w, col] ^= np.uint64(1 << bit)
        return pos, neg, planes
    d = sum((int(p[w, col]) >> bit & 1) << k for k, p in enumerate(planes)) + (1 if kind == "dist+1" else -1)
    while d >> len(planes):
        planes.append(np.zeros_like(pos))
    for k, p in enumerate(planes):
        p[w, col] = p[w, col] & ~np.uint64(1 << bit) | np.uint64((d >> k & 1) << bit)
    return pos, neg, planes


def changed_run(run, col, source, kind):
    """A copy of a `_Run` with cell (column, source) changed as by `changed_cell`."""
    out = copy.copy(run)
    out.pos, out.neg, out.planes = changed_cell((run.pos, run.neg, run.planes), col, source, kind)
    return out


def dropped_edges(adj):
    """Copies of adj, each without one of its edges."""
    for u, v in zip(*np.nonzero(np.triu(adj))):
        a = adj.copy()
        a[u, v] = a[v, u] = 0
        yield a


NON_BIPARTITE_PAIRS = st.tuples(connected_factors(), connected_factors()).filter(
    lambda p: sg.has_odd_cycle(p[0]) or sg.has_odd_cycle(p[1])
)
K4_ONE_NEG = sg.complete_graph(4, 1).with_signs([1, 1, 1, 1, -1, 1])
CELL_CHANGES = ("dist+1", "dist-1", "pos", "neg")


@settings(max_examples=60, deadline=None)
@given(connected_factors(min_n=1, max_n=12))
@example(K1)
def test_row_certificate_accepts_the_pass_on_connected_graphs(g):
    sd = sg.signed_distances(g)
    adj = signed_matrix(g)
    certify_rows(adj, sd, range(g.n))
    certify_rows(adj, sd, list(dict.fromkeys([g.n - 1, 0])))


@settings(max_examples=60, deadline=None)
@given(st.lists(NON_BIPARTITE_PAIRS, min_size=1, max_size=4))
@example([(K2P, K4_ONE_NEG)])
@example([(K2N, C3P), (C3P, C4_MIXED), (K2P, K4_ONE_NEG)])
def test_batch_certificate_accepts_the_pass_on_tensor_products(pairs):
    # Every product of the batch passes against np.kron(S1, S2), and its
    # certified tables are those of the product built as a graph.
    tables = product_run(pairs).tables(check=kron_rows(pairs))
    assert len(tables) == len(pairs)
    for (g1, g2), sd in zip(pairs, tables):
        want = sg.signed_distances(sg.tensor(g1, g2))
        for a, b in zip((sd.dist, sd.pos, sd.neg), (want.dist, want.pos, want.neg)):
            assert np.array_equal(a, b) and not a.flags.writeable


@settings(max_examples=30, deadline=None)
@given(st.one_of(connected_factors(min_n=2, max_n=9), NON_BIPARTITE_PAIRS), st.randoms(use_true_random=False))
@example((K2P, K4_ONE_NEG), random.Random(0))
def test_row_certificate_refuses_each_single_corruption(graphs, rng):
    # One changed entry of one table, or one edge missing from the matrix.
    if isinstance(graphs, tuple):
        adj, sd = np.kron(signed_matrix(graphs[0]), signed_matrix(graphs[1])), sg.signed_distances(sg.tensor(*graphs))
    else:
        adj, sd = signed_matrix(graphs), sg.signed_distances(graphs)
    rows = range(len(adj))
    for bad in corrupted_copies(sd, rng, 8):
        with pytest.raises(RuntimeError, match=r"^pair \(\d+,\d+\): "):
            certify_rows(adj, bad, rows)
    for bad in dropped_edges(adj):
        with pytest.raises(RuntimeError, match=r"^pair \(\d+,\d+\): "):
            certify_rows(bad, sd, rows)


def test_row_certificate_checks_only_the_rows_asked_for():
    sd = sg.signed_distances(C4_MIXED)
    neg = sd.neg.copy()
    neg[2, 0] ^= True
    bad = sg.SignedDistances(dist=sd.dist, pos=sd.pos, neg=neg)
    adj = signed_matrix(C4_MIXED)
    certify_rows(adj, bad, [0, 1, 3])
    with pytest.raises(RuntimeError, match=r"^pair \(2,0\): "):
        certify_rows(adj, bad, [2])


@pytest.mark.parametrize("kind", CELL_CHANGES)
def test_batch_certificate_refuses_each_changed_cell(kind):
    # Every cell of every product in a batch, one at a time; a product of
    # 72 vertices puts sources in a second word.
    pairs = [(K2P, K4_ONE_NEG), (K2N, C3P), (sg.cycle_graph(8, [1] * 7 + [-1]), sg.complete_graph(9, -1))]
    run = product_run(pairs)
    rows = kron_rows(pairs)
    run.tables(check=rows)
    offset = 0
    rng = random.Random(kind)
    for n in run.orders:
        cells = [(v, u) for v in range(n) for u in range(n)]
        for v, u in cells if n < 20 else rng.sample(cells, 40):
            if kind == "dist-1" and u == v:
                continue
            with pytest.raises(RuntimeError, match=rf"^pair \(\d+,\d+\): "):
                changed_run(run, offset + v, u, kind).tables(check=rows)
        offset += n


def test_batch_certificate_refuses_each_dropped_edge():
    pairs = [(K2N, C3P), (K2P, K4_ONE_NEG)]
    run = product_run(pairs)
    for i, (g1, g2) in enumerate(pairs):
        for bad in dropped_edges(np.kron(signed_matrix(g1), signed_matrix(g2))):
            adjs = [np.kron(signed_matrix(a), signed_matrix(b)) for a, b in pairs]
            adjs[i] = bad
            with pytest.raises(RuntimeError, match=r"^pair \(\d+,\d+\): "):
                run.tables(check=matrix_rows(adjs))


def drop_first_tensor_row(real):
    """`_tensor_edges` with the first row of every product overwritten by its
    second, so the product loses one edge and keeps its row count."""
    def tensor_edges(firsts, seconds):
        rows = real(firsts, seconds)
        starts = np.cumsum([2 * g1.m * g2.m for g1, g2 in zip(firsts, seconds)])[:-1].tolist()
        for i in [0] + starts:
            rows[i] = rows[i + 1]
        return rows
    return tensor_edges


def drop_first_edge(real):
    """`_signed_adjacency` without the first edge of every graph."""
    def signed_adjacency(g):
        adj = real(g)
        u, v, _ = g.edges[0]
        adj[u, v] = adj[v, u] = 0
        return adj
    return signed_adjacency


@pytest.mark.parametrize("name, patch", [("_tensor_edges", drop_first_tensor_row), ("_signed_adjacency", drop_first_edge)])
def test_conjecture_search_refuses_a_dropped_edge(monkeypatch, name, patch):
    # A product built without one of its edges, or a matrix S without one.
    assert sg.conjecture_search(40, max_n=6, seed=123)
    monkeypatch.setattr(products, name, patch(getattr(products, name)))
    with pytest.raises(RuntimeError, match=r"^pair \(\d+,\d+\): "):
        sg.conjecture_search(40, max_n=6, seed=123)


@pytest.mark.parametrize("kind", CELL_CHANGES)
def test_conjecture_search_refuses_a_changed_cell(monkeypatch, kind):
    # One cell changed in every product of each products' pass, at vertex 1
    # from source 1, so the distance is 0 there and the sign positive.
    product_rows = []
    real_tensor_edges, real_edge_bitsets = products._tensor_edges, distance._edge_bitsets

    def tensor_edges(firsts, seconds):
        product_rows.append(real_tensor_edges(firsts, seconds))
        return product_rows[-1]

    def change(orders, edges, sizes):
        bits = real_edge_bitsets(orders, edges, sizes)
        if any(edges is rows for rows in product_rows):
            for offset in (np.cumsum(orders) - orders).tolist():
                bits = changed_cell(bits, offset + 1, 1 if kind != "dist-1" else 0, kind)
        return bits

    monkeypatch.setattr(products, "_tensor_edges", tensor_edges)
    monkeypatch.setattr(distance, "_edge_bitsets", change)
    with pytest.raises(RuntimeError, match=r"^pair \(\d+,\d+\): "):
        sg.conjecture_search(40, max_n=6, seed=123)


def test_conjecture_search_certifies_the_factors(monkeypatch):
    # A sampler that takes every connected draw for compatible lets
    # incompatible factors through; their products are genuinely
    # incompatible and pass, so only the factors' certificate refuses them.
    real = products._verdicts
    monkeypatch.setattr(products, "_verdicts", lambda graphs: [(c, False, o) for c, _, o in real(graphs)])
    with pytest.raises(
        RuntimeError, match=r"^pair \(\d+,\d+\): factor g[12] of trial \d+ has shortest paths of both signs$"
    ):
        sg.conjecture_search(40, max_n=7, seed=123)


def test_search_and_witness_run_no_python_bfs(monkeypatch):
    from sgdist import core

    want = sg.conjecture_search(300, max_n=7, seed=1)
    prod = sg.tensor(K2P, K4_ONE_NEG)
    witness = sg.least_incompatible_witness(prod)

    def refuse(*args):
        raise AssertionError("a Python BFS was called")

    for module in (core, distance, products):
        for name in ("_bfs", "_bfs_dist", "is_connected", "has_odd_cycle"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert sg.conjecture_search(300, max_n=7, seed=1) == want
    assert sg.least_incompatible_witness(prod) == witness


# -- the law check against the per-graph route ----------------------------------

def per_graph_report(g1, g2):
    """The law check's report built from `is_compatible` on each factor and
    each product, with the tensor product's connectivity from
    `tensor_is_connected`."""
    c1, c2 = sg.is_compatible(g1), sg.is_compatible(g2)
    cart = sg.is_compatible(sg.cartesian(g1, g2))
    lex = sg.is_compatible(sg.lexicographic(g1, g2))
    hypothesis = c1 and sg.uniform_sign(g2)
    report = {
        "factor_compatible": (c1, c2),
        "cartesian": {"product_compatible": cart, "expected": c1 and c2, "agrees": cart == (c1 and c2)},
        "lexicographic": {
            "product_compatible": lex,
            "sufficient_hypothesis": hypothesis,
            "sufficiency_holds": (not hypothesis) or lex,
            "iff_agrees": lex == hypothesis,
        },
        "tensor": {"skipped": "product disconnected"},
    }
    if sg.tensor_is_connected(g1, g2):
        tens = sg.is_compatible(sg.tensor(g1, g2))
        report["tensor"] = {"product_compatible": tens, "only_if_holds": (not tens) or (c1 and c2)}
    return report


@settings(max_examples=80, deadline=None)
@given(connected_factors(min_n=1, max_n=6), connected_factors(min_n=1, max_n=6))
@example(K1, K1)
@example(K1, C3P)
@example(K2P, K2N)
@example(C4_MIXED, K2P)
@example(sg.cycle_graph(6, [1, -1, 1, 1, 1, 1]), sg.path_graph(3, [1, -1]))
@example(K2P, K4_ONE_NEG)
def test_law_check_matches_the_per_graph_route(g1, g2):
    # K1, K2 and bipartite pairs have a disconnected tensor product.
    assert sg.check_product_compatibility_theorems(g1, g2) == per_graph_report(g1, g2)


@pytest.mark.parametrize("g1, g2", [(sg.SignedGraph(2, ()), K2P), (C3P, sg.SignedGraph(3, ((0, 1, -1),)))])
def test_law_check_refuses_disconnected_factors(g1, g2):
    with pytest.raises(ValueError, match="^theorem checks need connected factors$"):
        sg.check_product_compatibility_theorems(g1, g2)


def test_law_check_runs_one_pass(monkeypatch):
    # Factors of order at most 7 and their three products fit one run.
    real, calls = distance._edge_bitsets, []
    monkeypatch.setattr(distance, "_edge_bitsets", lambda *args: calls.append(1) or real(*args))
    rng = random.Random(27)
    pairs = [(random_connected_signed(rng, 1, 7), random_connected_signed(rng, 1, 7)) for _ in range(20)]
    for g1, g2 in pairs + [(sg.complete_graph(7, -1), sg.complete_graph(7, 1))]:
        calls.clear()
        sg.check_product_compatibility_theorems(g1, g2)
        assert len(calls) == 1
