import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sgdist as sg
from conftest import (
    check_witness,
    nx_path_signs,
    random_balanced_connected,
    random_connected_signed,
    to_networkx,
)

import networkx as nx

C4_ONE_NEG = sg.cycle_graph(4, [-1, 1, 1, 1])


# -- signed BFS ---------------------------------------------------------------

def test_signed_bfs_c4_one_negative():
    out = sg.signed_bfs(C4_ONE_NEG, 0)
    assert out[2] == sg.PairDistanceSummary(d=2, sigma_max=1, sigma_min=-1)


def test_signed_bfs_unique_path():
    g = sg.path_graph(3, [1, -1])
    out = sg.signed_bfs(g, 0)
    assert out[2] == sg.PairDistanceSummary(d=2, sigma_max=-1, sigma_min=-1)


def test_signed_bfs_petersen_nonadjacent():
    g = sg.petersen_graph()
    out = sg.signed_bfs(g, 0)
    for v in range(1, 10):
        if not g.has_edge(0, v):
            assert out[v] == sg.PairDistanceSummary(d=2, sigma_max=1, sigma_min=1)


def test_signed_bfs_unreachable_is_none():
    g = sg.SignedGraph(3, ((0, 1, 1),))
    out = sg.signed_bfs(g, 0)
    assert out[2] is None


def test_signed_bfs_bad_source():
    with pytest.raises(ValueError, match="out of range"):
        sg.signed_bfs(C4_ONE_NEG, 9)


def test_signed_bfs_matches_networkx_path_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_signed(rng, 2, 8)
        for u in range(g.n):
            out = sg.signed_bfs(g, u)
            for v in range(g.n):
                if u == v:
                    continue
                signs = nx_path_signs(g, u, v)
                assert out[v].d == nx.shortest_path_length(to_networkx(g), u, v)
                assert out[v].sigma_max == max(signs)
                assert out[v].sigma_min == min(signs)


# -- brute-force oracle -------------------------------------------------------

def test_oracle_c4():
    assert sg.brute_force_summary(C4_ONE_NEG, 0, 2) == sg.PairDistanceSummary(2, 1, -1)


def test_oracle_tree_unique_sign():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 10)
        edges = [(rng.randint(0, v - 1), v, rng.choice((1, -1))) for v in range(1, n)]
        g = sg.SignedGraph.from_edges(n, edges)
        for u in range(n):
            for v in range(u + 1, n):
                summ = sg.brute_force_summary(g, u, v)
                assert summ.sigma_max == summ.sigma_min


def test_oracle_petersen_distance_two():
    g = sg.petersen_graph()
    assert sg.brute_force_summary(g, 0, 2) == sg.PairDistanceSummary(2, 1, 1)


def test_oracle_size_bound():
    big = sg.path_graph(13, [1] * 12)
    with pytest.raises(ValueError, match="oracle bound"):
        sg.brute_force_summary(big, 0, 1)


def test_oracle_rejects_disconnected():
    # Path 0-1-2 plus the edge 3-4: u, v in one component, then in two.
    g = sg.SignedGraph.from_edges(5, [(0, 1, 1), (1, 2, -1), (3, 4, 1)])
    msg = re.escape("graph is disconnected; signed distances are undefined")
    with pytest.raises(ValueError, match=msg):
        sg.brute_force_summary(g, 0, 2)
    with pytest.raises(ValueError, match=msg):
        sg.brute_force_summary(g, 0, 4)


def test_signed_bfs_agrees_with_oracle_on_random_graphs():
    rng = random.Random(31)
    for _ in range(60):
        g = random_connected_signed(rng, 2, 8)
        for u in range(g.n):
            out = sg.signed_bfs(g, u)
            for v in range(g.n):
                if v != u:
                    assert out[v] == sg.brute_force_summary(g, u, v)


# -- all-sources signed distances -------------------------------------------

def bfs_rows(g):
    """(dist, pos, neg) arrays assembled from one signed_bfs per source."""
    dist = np.zeros((g.n, g.n), dtype=np.int64)
    pos = np.zeros((g.n, g.n), dtype=bool)
    neg = np.zeros((g.n, g.n), dtype=bool)
    for s in range(g.n):
        for v, summ in enumerate(sg.signed_bfs(g, s)):
            dist[s, v] = summ.d
            pos[s, v] = summ.sigma_max == 1
            neg[s, v] = summ.sigma_min == -1
    return dist, pos, neg


def assert_matches_bfs_rows(g):
    sd = sg.signed_distances(g)
    dist, pos, neg = bfs_rows(g)
    assert sd.dist.dtype == np.int32 and sd.pos.dtype == bool and sd.neg.dtype == bool
    assert np.array_equal(sd.dist, dist)
    assert np.array_equal(sd.pos, pos)
    assert np.array_equal(sd.neg, neg)
    return sd


@st.composite
def connected_signed_graphs(draw, max_n: int = 10):
    """A random spanning tree plus random extra edges, all randomly signed."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    sign = st.sampled_from((1, -1))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(min_value=0, max_value=v - 1)), v)] = draw(sign)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and draw(st.booleans()):
                edges[(u, v)] = draw(sign)
    return sg.SignedGraph.from_edges(n, [(u, v, s) for (u, v), s in edges.items()])


@settings(max_examples=60, deadline=None)
@given(connected_signed_graphs())
def test_signed_distances_match_bfs_rows_and_oracle(g):
    sd = assert_matches_bfs_rows(g)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                summ = sg.brute_force_summary(g, u, v)
                assert (sd.dist[u, v], sd.pos[u, v], sd.neg[u, v]) == (
                    summ.d,
                    summ.sigma_max == 1,
                    summ.sigma_min == -1,
                )
                assert (sd.d_max[u, v], sd.d_min[u, v]) == (summ.d_max, summ.d_min)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
def test_signed_distances_orders_around_byte_and_word_edges(n):
    rng = random.Random(n)
    edges = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
    for _ in range(n if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        if all((a, b) != (u, v) for a, b, _ in edges):
            edges.append((u, v, rng.choice((1, -1))))
    assert_matches_bfs_rows(sg.SignedGraph.from_edges(n, edges))


def test_signed_distances_long_cycle():
    rng = random.Random(257)
    g = sg.cycle_graph(257, [rng.choice((1, -1)) for _ in range(257)])
    sd = assert_matches_bfs_rows(g)
    assert sd.dist.max() == 128
    assert sd.d_max.dtype == np.int64 and sd.d_min.dtype == np.int64
    assert not (sd.dist.flags.writeable or sd.pos.flags.writeable or sd.neg.flags.writeable)


@pytest.mark.parametrize(
    "g",
    [sg.SignedGraph(3, ((0, 1, 1),)), sg.SignedGraph(2, ()), sg.SignedGraph(4, ((0, 1, -1), (2, 3, 1)))],
)
def test_signed_distances_rejects_disconnected(g):
    msg = re.escape("graph is disconnected; signed distances are undefined")
    with pytest.raises(ValueError, match=msg):
        sg.signed_distances(g)
    with pytest.raises(ValueError, match=msg):
        sg.incompatible_pairs(g)


def test_matrices_and_pairs_match_bfs_reference_on_gnp60():
    rng = random.Random(60)
    g = sg.random_signed_gnp(60, 0.1, rng)
    while not sg.is_connected(g):
        g = sg.random_signed_gnp(60, 0.1, rng)
    dist, pos, neg = bfs_rows(g)
    assert np.array_equal(sg.distance_matrix(g, "max"), np.where(pos, dist, -dist))
    assert np.array_equal(sg.distance_matrix(g, "min"), np.where(neg, -dist, dist))
    want = sorted((dist[u, v], u, v) for u in range(g.n) for v in range(u + 1, g.n) if pos[u, v] and neg[u, v])
    got = sg.incompatible_pairs(g)
    assert want and got == [(u, v) for _, u, v in want]
    assert all(type(x) is int for p in got for x in p)


# -- distance matrices --------------------------------------------------------

def test_distance_matrix_k2_negative():
    k2n = sg.complete_graph(2, -1)
    expected = np.array([[0, -1], [-1, 0]])
    assert np.array_equal(sg.distance_matrix(k2n, "max"), expected)
    assert np.array_equal(sg.distance_matrix(k2n, "min"), expected)


def test_distance_matrix_petersen_closed_form():
    g = sg.petersen_graph()
    expected = 2 * np.ones((10, 10), dtype=np.int64) - 2 * np.eye(10, dtype=np.int64) - sg.adjacency_matrix(g)
    assert np.array_equal(sg.distance_matrix(g, "max"), expected)
    assert np.array_equal(sg.distance_matrix(g, "min"), expected)


def test_distance_matrix_c4_one_negative():
    dmax = sg.distance_matrix(C4_ONE_NEG, "max")
    dmin = sg.distance_matrix(C4_ONE_NEG, "min")
    assert dmax[0, 2] == 2 and dmax[1, 3] == 2
    assert dmin[0, 2] == -2 and dmin[1, 3] == -2
    mask = np.ones((4, 4), bool)
    mask[0, 2] = mask[2, 0] = mask[1, 3] = mask[3, 1] = False
    assert np.array_equal(dmax[mask], dmin[mask])


def test_distance_matrix_rejects_disconnected():
    g = sg.SignedGraph(3, ((0, 1, 1),))
    with pytest.raises(ValueError, match="disconnected"):
        sg.distance_matrix(g)


def test_distance_matrix_invariants_random():
    rng = random.Random(41)
    for _ in range(40):
        g = random_connected_signed(rng, 2, 9)
        dmax = sg.distance_matrix(g, "max")
        dmin = sg.distance_matrix(g, "min")
        assert np.array_equal(dmax, dmax.T) and np.array_equal(dmin, dmin.T)
        assert not dmax.diagonal().any() and not dmin.diagonal().any()
        assert (dmax >= dmin).all()
        assert np.array_equal(np.abs(dmax), np.abs(dmin))
        gx = to_networkx(g)
        for u in range(g.n):
            lengths = nx.shortest_path_length(gx, u)
            for v in range(g.n):
                assert abs(dmax[u, v]) == lengths[v]
        for u, v, s in g.edges:
            assert dmax[u, v] == s and dmin[u, v] == s


def test_bad_which_rejected():
    with pytest.raises(ValueError, match="which"):
        sg.distance_matrix(C4_ONE_NEG, "median")


# -- compatibility ------------------------------------------------------------

def test_random_petersen_signings_compatible():
    rng = random.Random(3)
    for _ in range(15):
        g = sg.petersen_signing([rng.choice((1, -1)) for _ in range(15)])
        assert sg.is_compatible(g)


@st.composite
def signed_graphs(draw, max_n: int = 10):
    """Random signed graphs, connected or not."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [
        (u, v, draw(st.sampled_from((1, -1))))
        for u in range(n) for v in range(u + 1, n) if draw(st.booleans())
    ]
    return sg.SignedGraph(n, tuple(edges))


@settings(max_examples=80, deadline=None)
@given(st.one_of(connected_signed_graphs(), signed_graphs()))
@example(sg.SignedGraph(1, ()))
@example(sg.SignedGraph(3, ((0, 1, -1),)))
@example(C4_ONE_NEG)
def test_is_compatible_agrees_with_arrays_and_oracle(g):
    if not sg.is_connected(g):
        msg = re.escape("graph is disconnected; signed distances are undefined")
        with pytest.raises(ValueError, match=msg):
            sg.is_compatible(g)
        with pytest.raises(ValueError, match=msg):
            sg.signed_distances(g)
        return
    compatible = sg.is_compatible(g)
    assert compatible == (not sg.signed_distances(g).incompatible.any())
    oracle = all(sg.brute_force_summary(g, u, v).compatible for u in range(g.n) for v in range(u + 1, g.n))
    assert compatible == oracle
    if g.n == 1:
        assert compatible


def test_c4_incompatible_pairs():
    assert not sg.is_compatible(C4_ONE_NEG)
    assert sg.incompatible_pairs(C4_ONE_NEG) == [(0, 2), (1, 3)]


def test_balanced_graphs_compatible():
    rng = random.Random(17)
    for _ in range(40):
        g = random_balanced_connected(rng, 2, 9)
        assert sg.is_compatible(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert len(nx_path_signs(g, u, v)) == 1


def test_compatibility_switching_invariant():
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_signed(rng, 2, 8)
        zeta = [rng.choice((1, -1)) for _ in range(g.n)]
        assert sg.is_compatible(g) == sg.is_compatible(sg.switch(g, zeta))


def test_compatible_distance_switching_covariance():
    rng = random.Random(29)
    seen = 0
    while seen < 25:
        g = random_balanced_connected(rng, 2, 9)
        zeta = [rng.choice((1, -1)) for _ in range(g.n)]
        d = sg.distance_matrix(g, "max")
        ds = sg.distance_matrix(sg.switch(g, zeta), "max")
        s = np.diag(zeta)
        assert np.array_equal(ds, s @ d @ s)
        assert sg.char_poly(ds).coeffs == sg.char_poly(d).coeffs
        seen += 1


def test_geodetic_implies_compatible():
    rng = random.Random(37)
    seen = 0
    for _ in range(400):
        g = random_connected_signed(rng, 2, 8)
        if sg.is_geodetic(g):
            assert sg.is_compatible(g)
            seen += 1
    assert seen > 10


# -- witnesses ----------------------------------------------------------------

def test_witness_absent_for_compatible():
    assert sg.least_incompatible_witness(sg.petersen_graph()) is None


def test_witness_c4():
    w = sg.least_incompatible_witness(C4_ONE_NEG)
    assert w.pair == (0, 2)
    assert w.path_neg == (0, 1, 2)
    assert w.path_pos == (0, 3, 2)
    assert len(w.cycle) == 4
    assert sg.cycle_sign(C4_ONE_NEG, w.cycle) == -1
    check_witness(C4_ONE_NEG, w)


def test_witness_c6_one_negative():
    g = sg.cycle_graph(6, [-1, 1, 1, 1, 1, 1])
    w = sg.least_incompatible_witness(g)
    assert w.k == 3
    assert len(w.cycle) == 6
    check_witness(g, w)


def test_witness_sound_on_random_incompatible_graphs():
    rng = random.Random(43)
    found = 0
    while found < 40:
        g = random_connected_signed(rng, 4, 9)
        if sg.is_compatible(g):
            continue
        w = sg.least_incompatible_witness(g)
        check_witness(g, w)
        found += 1


# -- associated complete graph ------------------------------------------------

def test_associated_complete_k2():
    k2n = sg.complete_graph(2, -1)
    assert sg.associated_complete(k2n, "max") == k2n
    assert sg.associated_complete(k2n, "min") == k2n


def test_associated_complete_path():
    p3 = sg.path_graph(3, [1, 1])
    assert sg.associated_complete(p3, "max") == sg.complete_graph(3, 1)


def test_associated_complete_c4():
    gmax = sg.associated_complete(C4_ONE_NEG, "max")
    gmin = sg.associated_complete(C4_ONE_NEG, "min")
    assert gmax.sign(0, 2) == 1 and gmax.sign(1, 3) == 1
    assert gmin.sign(0, 2) == -1 and gmin.sign(1, 3) == -1
    for u, v, s in C4_ONE_NEG.edges:
        assert gmax.sign(u, v) == s and gmin.sign(u, v) == s


def test_associated_complete_needs_two_vertices():
    with pytest.raises(ValueError, match="at least 2"):
        sg.associated_complete(sg.SignedGraph(1, ()))
