import contextlib
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sgdist as sg
from sgdist import distance
from conftest import (
    check_witness,
    nx_path_signs,
    random_balanced_connected,
    random_connected_signed,
    to_networkx,
)
from oracles import PairDistanceSummary, brute_force_summary, signed_bfs

import networkx as nx

C4_ONE_NEG = sg.cycle_graph(4, [-1, 1, 1, 1])


# -- signed BFS ---------------------------------------------------------------

def test_signed_bfs_c4_one_negative():
    out = signed_bfs(C4_ONE_NEG, 0)
    assert out[2] == PairDistanceSummary(d=2, sigma_max=1, sigma_min=-1)


def test_signed_bfs_unique_path():
    g = sg.path_graph(3, [1, -1])
    out = signed_bfs(g, 0)
    assert out[2] == PairDistanceSummary(d=2, sigma_max=-1, sigma_min=-1)


def test_signed_bfs_petersen_nonadjacent():
    g = sg.petersen_graph()
    out = signed_bfs(g, 0)
    for v in range(1, 10):
        if not g.has_edge(0, v):
            assert out[v] == PairDistanceSummary(d=2, sigma_max=1, sigma_min=1)


def test_signed_bfs_unreachable_is_none():
    g = sg.SignedGraph(3, ((0, 1, 1),))
    out = signed_bfs(g, 0)
    assert out[2] is None


def test_signed_bfs_bad_source():
    with pytest.raises(ValueError, match="out of range"):
        signed_bfs(C4_ONE_NEG, 9)


def test_signed_bfs_matches_networkx_path_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_signed(rng, 2, 8)
        for u in range(g.n):
            out = signed_bfs(g, u)
            for v in range(g.n):
                if u == v:
                    continue
                signs = nx_path_signs(g, u, v)
                assert out[v].d == nx.shortest_path_length(to_networkx(g), u, v)
                assert out[v].sigma_max == max(signs)
                assert out[v].sigma_min == min(signs)


# -- brute-force oracle -------------------------------------------------------

def test_oracle_c4():
    assert brute_force_summary(C4_ONE_NEG, 0, 2) == PairDistanceSummary(2, 1, -1)


def test_oracle_tree_unique_sign():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 10)
        edges = [(rng.randint(0, v - 1), v, rng.choice((1, -1))) for v in range(1, n)]
        g = sg.SignedGraph.from_edges(n, edges)
        for u in range(n):
            for v in range(u + 1, n):
                summ = brute_force_summary(g, u, v)
                assert summ.sigma_max == summ.sigma_min


def test_oracle_petersen_distance_two():
    g = sg.petersen_graph()
    assert brute_force_summary(g, 0, 2) == PairDistanceSummary(2, 1, 1)


def test_oracle_size_bound():
    big = sg.path_graph(13, [1] * 12)
    with pytest.raises(ValueError, match="oracle bound"):
        brute_force_summary(big, 0, 1)


def test_oracle_rejects_disconnected():
    # Path 0-1-2 plus the edge 3-4: u, v in one component, then in two.
    g = sg.SignedGraph.from_edges(5, [(0, 1, 1), (1, 2, -1), (3, 4, 1)])
    msg = re.escape("graph is disconnected; signed distances are undefined")
    with pytest.raises(ValueError, match=msg):
        brute_force_summary(g, 0, 2)
    with pytest.raises(ValueError, match=msg):
        brute_force_summary(g, 0, 4)


def test_signed_bfs_agrees_with_oracle_on_random_graphs():
    rng = random.Random(31)
    for _ in range(60):
        g = random_connected_signed(rng, 2, 8)
        for u in range(g.n):
            out = signed_bfs(g, u)
            for v in range(g.n):
                if v != u:
                    assert out[v] == brute_force_summary(g, u, v)


# -- all-sources signed distances -------------------------------------------

def bfs_rows(g):
    """(dist, pos, neg) arrays assembled from one signed_bfs per source."""
    dist = np.zeros((g.n, g.n), dtype=np.int64)
    pos = np.zeros((g.n, g.n), dtype=bool)
    neg = np.zeros((g.n, g.n), dtype=bool)
    for s in range(g.n):
        for v, summ in enumerate(signed_bfs(g, s)):
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


@st.composite
def signed_graphs(draw, max_n: int = 10):
    """Random signed graphs, connected or not."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [
        (u, v, draw(st.sampled_from((1, -1))))
        for u in range(n) for v in range(u + 1, n) if draw(st.booleans())
    ]
    return sg.SignedGraph(n, tuple(edges))


@settings(max_examples=60, deadline=None)
@given(connected_signed_graphs())
def test_signed_distances_match_bfs_rows_and_oracle(g):
    sd = assert_matches_bfs_rows(g)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                summ = brute_force_summary(g, u, v)
                assert (sd.dist[u, v], sd.pos[u, v], sd.neg[u, v]) == (
                    summ.d,
                    summ.sigma_max == 1,
                    summ.sigma_min == -1,
                )
                assert (sd.d_max[u, v], sd.d_min[u, v]) == (summ.d_max, summ.d_min)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129])
def test_signed_distances_orders_around_byte_and_word_edges(n):
    rng = random.Random(n)
    edges = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
    for _ in range(n if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        if all((a, b) != (u, v) for a, b, _ in edges):
            edges.append((u, v, rng.choice((1, -1))))
    g = sg.SignedGraph.from_edges(n, edges)
    assert_matches_bfs_rows(g)
    graphs = [g] + ([sg.cycle_graph(n, [rng.choice((1, -1)) for _ in range(n)])] if n > 2 else [])
    for h in graphs:
        pos, neg, _ = assert_routes_agree(h)
        # Row n - 1 reads every source, the last word's top bit included.
        assert pos[n - 1] | neg[n - 1] == (1 << n) - 1


def test_signed_distances_long_path_past_one_byte_of_planes():
    # P_300 has diameter 299: nine distance planes, one more than a byte holds.
    g = sg.path_graph(300, [(-1) ** (i // 3) for i in range(299)])
    assert len(distance._connected_run([g]).planes) == 9
    sd = assert_matches_bfs_rows(g)
    assert sd.dist.max() == 299


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


# -- the packed all-sources pass against the reference routes ---------------

DISCONNECTED = re.escape("graph is disconnected; signed distances are undefined")


def signed_bits(graphs):
    """The `(pos, neg, planes)` words of `_connected_run` over a batch of graphs."""
    run = distance._connected_run(graphs)
    return run.pos, run.neg, run.planes


def incompatible_flags(graphs):
    """`flags` of one `_connected_run` per cut of `_batches`; a disconnected
    graph is refused."""
    cuts = distance._batches([g.n for g in graphs], [g.m for g in graphs])
    return [bad for cut in cuts for bad in distance._connected_run(graphs[cut]).flags()]


def word_ints(bits):
    """`signed_bits` arrays of one graph as Python ints: every word column
    read back as one int, after checking the arrays' dtype and shape."""
    pos, neg, planes = bits
    assert all(a.dtype == np.dtype("<u8") and a.shape == pos.shape for a in (pos, neg, *planes))

    def columns(a):
        return [int.from_bytes(col.tobytes(), "little") for col in a.T]

    return columns(pos), columns(neg), [columns(p) for p in planes]


def row_ints(rows):
    """Each row of a 0/1 matrix as the int whose bit s is entry s."""
    return [sum(1 << s for s in np.flatnonzero(row).tolist()) for row in rows]


def assert_routes_agree(g):
    """The packed pass of g alone against the reference routes: its bitsets
    are the `signed_bfs` rows bit for bit, and for n <= 12 each pair matches
    `brute_force_summary`; a graph the references find disconnected is
    refused with the exact message.  Returns the bitsets as Python ints."""
    if None in signed_bfs(g, 0):
        with pytest.raises(ValueError, match=f"^{DISCONNECTED}$"):
            signed_bits([g])
        return None
    bits = signed_bits([g])
    assert bits[0].shape == (-(-g.n // 64), g.n)
    got = word_ints(bits)
    dist, pos, neg = bfs_rows(g)
    planes = [row_ints(dist >> k & 1) for k in range(int(dist.max()).bit_length())]
    assert got == (row_ints(pos), row_ints(neg), planes)
    if g.n <= 12:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                summ = brute_force_summary(g, u, v)
                bit = (got[0][u] >> v & 1, got[1][u] >> v & 1)
                assert bit == (summ.sigma_max == 1, summ.sigma_min == -1)
                assert sum((p[u] >> v & 1) << k for k, p in enumerate(got[2])) == summ.d
    return got


@st.composite
def wide_connected_signed_graphs(draw, min_n: int = 65, max_n: int = 160):
    """Connected signed graphs, by default above one word: a random spanning
    tree whose parents lie within `span` of each vertex (span 1 is a path, so
    the diameter ranges up to n - 1), plus a few random extra edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    span = draw(st.sampled_from((1, 2, 4, n)))
    sign = st.sampled_from((1, -1))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(min_value=max(0, v - span), max_value=v - 1)), v)] = draw(sign)
    vertex = st.integers(min_value=0, max_value=n - 1)
    for u, v, s in draw(st.lists(st.tuples(vertex, vertex, sign), max_size=n)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), s)
    return sg.SignedGraph.from_edges(n, [(u, v, s) for (u, v), s in edges.items()])


@settings(max_examples=60, deadline=None)
@given(wide_connected_signed_graphs())
def test_routes_agree_on_wide_connected_graphs(g):
    assert assert_routes_agree(g) is not None


@settings(max_examples=40, deadline=None)
@given(st.one_of(connected_signed_graphs(), signed_graphs()))
@example(sg.SignedGraph(1, ()))
@example(sg.SignedGraph(2, ()))
def test_routes_agree_on_small_graphs(g):
    assert (assert_routes_agree(g) is not None) == sg.is_connected(g)


@pytest.mark.parametrize(
    "g, n_planes",
    [
        (sg.cycle_graph(150, [-1 if i % 3 == 0 else 1 for i in range(150)]), 7),
        (sg.path_graph(130, [(-1) ** i for i in range(129)]), 8),
    ],
)
def test_routes_agree_on_long_cycles_and_paths(g, n_planes):
    _, _, planes = assert_routes_agree(g)
    assert len(planes) == n_planes


def test_routes_agree_on_petersen_times_c7():
    rng = random.Random(7)
    for _ in range(5):
        pet = sg.petersen_signing([rng.choice((1, -1)) for _ in range(15)])
        prod = sg.cartesian(pet, sg.cycle_graph(7, [rng.choice((1, -1)) for _ in range(7)]))
        assert prod.n == 70
        assert_routes_agree(prod)


def test_routes_agree_when_the_words_run_in_blocks(monkeypatch):
    # A gather bound of one word runs every source word as its own block, as
    # a dense graph does; the result and the disconnected error must not change.
    rng = random.Random(11)
    pet = sg.petersen_signing([rng.choice((1, -1)) for _ in range(15)])
    connected = [
        sg.cycle_graph(150, [rng.choice((1, -1)) for _ in range(150)]),
        sg.cartesian(pet, sg.cycle_graph(7, [rng.choice((1, -1)) for _ in range(7)])),
        sg.random_signed_gnp(200, 0.5, rng),
    ]
    disconnected = sg.SignedGraph.from_edges(150, [(v, v + 1, 1) for v in range(149) if v != 127])
    want = [word_ints(signed_bits([g])) for g in connected]
    monkeypatch.setattr(distance, "_GATHER_WORDS", 1)
    assert [word_ints(signed_bits([g])) for g in connected] == want
    with pytest.raises(ValueError, match=f"^{DISCONNECTED}$"):
        signed_bits([disconnected])


# -- the two level gathers ----------------------------------------------------

# Values of the rule constants of `distance._pads` that force each gather.
GATHERS = {"padded": (1 << 30, float("inf")), "reduceat": (-1, 0.0)}


@contextlib.contextmanager
def forced_gather(gather):
    """The pass with every level gathered in one form, whatever the degrees."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "_PAD_DEGREE", GATHERS[gather][0])
        mp.setattr(distance, "_PAD_READS", GATHERS[gather][1])
        yield


def gathers_used(graphs):
    """The gathers, "padded" or "reduceat", that the levels of one run over
    the batch used, seen through the `bitwise_or` reduction each calls."""
    used = set()

    def spy(name, method):
        def call(*args, **kwargs):
            used.add(name)
            return method(*args, **kwargs)
        return call

    class BitwiseOr:
        # Calls and every other attribute go to the real ufunc; only its two
        # reductions are recorded.
        reduce = staticmethod(spy("padded", np.bitwise_or.reduce))
        reduceat = staticmethod(spy("reduceat", np.bitwise_or.reduceat))

        def __call__(self, *args, **kwargs):
            return np.bitwise_or(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(np.bitwise_or, name)

    class Numpy:
        bitwise_or = BitwiseOr()

        def __getattr__(self, name):
            return getattr(np, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "np", Numpy())
        distance._Run.of(graphs)
    return used


def star(leaves):
    return sg.SignedGraph.from_edges(leaves + 1, [(0, v, (-1) ** v) for v in range(1, leaves + 1)])


def pads(degrees):
    """`distance._pads` on a batch with these vertex degrees."""
    return distance._pads(max(degrees), len(degrees), sum(max(d, 1) for d in degrees))


def test_pads_rule_chooses_by_degrees():
    rng = random.Random(19)
    cubic = [sg.petersen_signing([rng.choice((1, -1)) for _ in range(15)]) for _ in range(20)]
    cubic.append(sg.cartesian(sg.complete_graph(2, -1), sg.cycle_graph(40, [1] * 39 + [-1])))
    chosen = {
        "padded": [[sg.cycle_graph(300, [rng.choice((1, -1)) for _ in range(300)])], cubic],
        "reduceat": [[star(20)], [sg.random_signed_gnp(200, 0.5, rng)]],
    }
    for gather, batches in chosen.items():
        for graphs in batches:
            assert pads([len(g.adjacency[v]) for g in graphs for v in range(g.n)]) == (gather == "padded")
            assert gathers_used(graphs) == {gather}
    # Under the rule a K1 reads one padded zero row, and a star with its
    # leaves' single reads padded out to its degree does not fit.
    assert pads([0]) and not pads([4, 1, 1, 1, 1])


@pytest.mark.parametrize("gather", GATHERS)
@settings(max_examples=30, deadline=None)
@given(g=wide_connected_signed_graphs())
def test_routes_agree_with_each_gather_on_wide_graphs(gather, g):
    with forced_gather(gather):
        assert assert_routes_agree(g) is not None


@pytest.mark.parametrize("bound", [1, 1 << 20])
@pytest.mark.parametrize("gather", GATHERS)
def test_routes_agree_with_each_gather(monkeypatch, gather, bound):
    # Long cycles and paths, Petersen x C7 and small graphs, connected or
    # not, with every source word in a block of its own under a bound of 1.
    rng = random.Random(bound)
    graphs = [
        sg.cycle_graph(150, [-1 if i % 3 == 0 else 1 for i in range(150)]),
        sg.path_graph(130, [(-1) ** i for i in range(129)]),
        sg.cartesian(
            sg.petersen_signing([rng.choice((1, -1)) for _ in range(15)]),
            sg.cycle_graph(7, [rng.choice((1, -1)) for _ in range(7)]),
        ),
        star(20),
        K1,
        sg.SignedGraph(2, ()),
        sg.SignedGraph.from_edges(150, [(v, v + 1, 1) for v in range(149) if v != 127]),
    ]
    monkeypatch.setattr(distance, "_GATHER_WORDS", bound)
    with forced_gather(gather):
        assert gathers_used([graphs[0]]) == {gather}
        for g in graphs:
            assert (assert_routes_agree(g) is not None) == sg.is_connected(g)


def test_flags_read_every_word(monkeypatch):
    # Source 129 sits in the third word; one shared bit there decides, for
    # the graph that owns column 7.
    pos = np.zeros((3, 130), dtype="<u8")
    neg = pos.copy()
    pos[2, 7] = neg[2, 7] = 1 << 1

    def flags(bits, orders):
        monkeypatch.setattr(distance, "_edge_bitsets", lambda *args: bits)
        return distance._Run(orders, np.zeros((0, 3), dtype=np.intp), [0] * len(orders)).flags()

    assert flags((pos, neg, []), [130]) == [True]
    assert flags((pos, neg, []), [7, 123]) == [False, True]
    assert flags((pos, neg ^ pos, []), [130]) == [False]


# The routes that run the all-sources pass, each of which must refuse a
# disconnected graph.
PASS_ROUTES = (
    lambda g: signed_bits([g]),
    lambda g: incompatible_flags([g]),
    sg.signed_distances,
    sg.is_compatible,
)


@pytest.mark.parametrize("n", [65, 128, 129])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_isolated_vertex_is_disconnected_on_both_routes(n, where):
    lone = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    rest = [v for v in range(n) if v != lone]
    g = sg.SignedGraph.from_edges(n, [(a, b, (-1) ** a) for a, b in zip(rest, rest[1:])])
    for route in PASS_ROUTES:
        with pytest.raises(ValueError, match=f"^{DISCONNECTED}$"):
            route(g)


@pytest.mark.parametrize("n, cut", [(70, 64), (130, 64), (150, 128), (131, 128)])
def test_routes_agree_on_a_component_in_a_later_word(n, cut):
    # A path on 0..cut-1 and a cycle on cut..n-1: no vertex is isolated, so
    # the loop itself must find the graph disconnected.
    edges = [(v, v + 1, -1) for v in range(cut - 1)]
    edges += [(v, v + 1, 1) for v in range(cut, n - 1)] + [(cut, n - 1, -1)]
    g = sg.SignedGraph.from_edges(n, edges)
    for route in PASS_ROUTES:
        with pytest.raises(ValueError, match=f"^{DISCONNECTED}$"):
            route(g)


# -- batches of graphs in one pass ------------------------------------------

K1 = sg.SignedGraph(1, ())
C70 = sg.cycle_graph(70, [-1 if v % 9 == 0 else 1 for v in range(70)])


@pytest.mark.parametrize(
    "batch",
    [list(p) for p in itertools.permutations([K1, sg.complete_graph(2, -1), C4_ONE_NEG, C70])]
    + [[K1], [K1, K1], [K1, C70, K1], [C70, K1, K1, C4_ONE_NEG, K1]],
)
def test_batch_with_k1_anywhere_matches_each_graph_alone(batch):
    # K1's vertex has no half-edges: it must read nothing, wherever it sits.
    assert incompatible_flags(batch) == [not sg.is_compatible(g) for g in batch]
    pos, neg, planes = signed_bits(batch)
    offset = 0
    for g in batch:
        alone = signed_bits([g])
        for a, b in zip((pos, neg, *planes), (*alone[:2], *alone[2])):
            assert np.array_equal(a[: b.shape[0], offset : offset + g.n], b)
            assert not a[b.shape[0] :, offset : offset + g.n].any()
        offset += g.n


@pytest.mark.parametrize(
    "batch",
    [
        [K1, star(20), C70, K1],
        [sg.SignedGraph(3, ((0, 1, -1),)), C4_ONE_NEG, sg.path_graph(500, [(-1) ** (v // 7) for v in range(499)])],
        [sg.petersen_signing([(-1) ** (i // 2) for i in range(15)])] * 5 + [K1],
    ],
    ids=["k1-star-cycle", "disconnected-path500", "petersen-k1"],
)
def test_gathers_give_the_same_words_on_a_batch(batch):
    # The batches hold K1s and disconnected graphs: both gathers must read
    # the zero row for a vertex of degree 0.
    words = {}
    for gather in GATHERS:
        with forced_gather(gather):
            run = distance._Run.of(batch)
        words[gather] = word_ints((run.pos, run.neg, run.planes)), run.reached()
    assert words["padded"] == words["reduceat"]
    assert words["padded"][1] == [sg.is_connected(g) for g in batch]


@settings(max_examples=40, deadline=None)
@given(st.lists(wide_connected_signed_graphs(2, 70), min_size=1, max_size=8))
def test_incompatible_flags_match_each_graph_alone(graphs):
    assert incompatible_flags(graphs) == [not sg.is_compatible(g) for g in graphs]


@pytest.mark.parametrize("bound", [1, 64, 300])
def test_incompatible_flags_in_cut_batches(monkeypatch, bound):
    # A small gather bound cuts the batch into several, down to one graph
    # per batch in several word blocks; the flags must not change.
    rng = random.Random(bound)
    graphs = [C70, K1, C4_ONE_NEG, sg.cycle_graph(130, [1] * 129 + [-1])]
    graphs += [sg.tensor(random_connected_signed(rng, 2, 6), sg.complete_graph(3, -1)) for _ in range(12)]
    want = incompatible_flags(graphs)
    assert any(want) and not all(want)
    monkeypatch.setattr(distance, "_GATHER_WORDS", bound)
    assert list(distance._batches([g.n for g in graphs], [g.m for g in graphs])) != [slice(0, len(graphs))]
    assert incompatible_flags(graphs) == want


def test_batch_with_a_disconnected_graph_is_refused():
    split = sg.SignedGraph.from_edges(6, [(0, 1, 1), (1, 2, -1), (3, 4, 1), (4, 5, 1)])
    for batch in ([split], [C4_ONE_NEG, split, K1], [K1, C70, split]):
        with pytest.raises(ValueError, match=f"^{DISCONNECTED}$"):
            incompatible_flags(batch)


# Every public route to the all-sources pass, each of which must refuse a
# disconnected graph with the one message.
PUBLIC_PASS_ROUTES = (
    sg.signed_distances,
    lambda g: sg.distance_matrix(g, "max"),
    lambda g: sg.distance_matrix(g, "min"),
    sg.incompatible_pairs,
    sg.is_compatible,
    sg.least_incompatible_witness,
    sg.associated_complete,
    sg.compatible_distance_matrix,
)

SPLIT = sg.SignedGraph.from_edges(6, [(0, 1, 1), (1, 2, -1), (3, 4, 1), (4, 5, 1)])
# Connected and disconnected graphs side by side: vertices of degree 0 at
# either end, an edgeless pair, K1, and components in a later source word.
MIXED_BATCH = [
    C4_ONE_NEG,
    sg.SignedGraph(3, ((1, 2, -1),)),
    K1,
    sg.SignedGraph(2, ()),
    C70,
    SPLIT,
    sg.SignedGraph.from_edges(66, [(v, v + 1, (-1) ** v) for v in range(64)]),
    sg.complete_graph(5, -1),
    sg.SignedGraph.from_edges(130, [(v, v + 1, 1) for v in range(129) if v != 100]),
    sg.petersen_signing([(-1) ** (i // 2) for i in range(15)]),
]


def assert_batch_matches_each_graph_alone(batch):
    """One pass over the batch: its reach per graph is `is_connected`, its
    odd-cycle flag on a connected graph is `has_odd_cycle`, and a connected
    graph's bitsets equal those of its run alone, with any further distance
    planes empty on its columns."""
    run = distance._Run.of(batch)
    connected = [sg.is_connected(g) for g in batch]
    assert run.reached() == connected
    odd = run.odd_cycles()
    pos, neg, planes = run.pos, run.neg, run.planes
    offset = 0
    for g, whole, odd_g in zip(batch, connected, odd):
        cols = np.s_[offset : offset + g.n]
        offset += g.n
        if not whole:
            continue
        assert odd_g == sg.has_odd_cycle(g)
        alone = signed_bits([g])
        for a, b in zip((pos, neg, *planes), (*alone[:2], *alone[2])):
            assert np.array_equal(a[: b.shape[0], cols], b)
            assert not a[b.shape[0] :, cols].any()
        assert len(planes) >= len(alone[2])
        assert not any(a[:, cols].any() for a in planes[len(alone[2]) :])


def test_pass_reports_reach_on_a_mixed_batch():
    assert_batch_matches_each_graph_alone(MIXED_BATCH)
    assert_batch_matches_each_graph_alone(MIXED_BATCH[::-1])
    for g in MIXED_BATCH:
        if not sg.is_connected(g):
            for route in PUBLIC_PASS_ROUTES + PASS_ROUTES:
                with pytest.raises(ValueError, match=f"^{DISCONNECTED}$"):
                    route(g)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(connected_signed_graphs(), signed_graphs()), min_size=1, max_size=8))
def test_pass_reports_reach_on_random_batches(batch):
    assert_batch_matches_each_graph_alone(batch)


@pytest.mark.parametrize("bound", [1, 64])
def test_pass_reports_reach_when_the_words_run_in_blocks(monkeypatch, bound):
    monkeypatch.setattr(distance, "_GATHER_WORDS", bound)
    assert_batch_matches_each_graph_alone(MIXED_BATCH)


@st.composite
def batches_and_subsets(draw):
    """A batch of connected and disconnected graphs and K1, and a subset of
    its indices in any order."""
    batch = draw(st.lists(st.one_of(connected_signed_graphs(), signed_graphs(), st.just(K1)), min_size=1, max_size=8))
    keep = draw(st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=len(batch), unique=True))
    return batch, keep


def assert_tables_match_each_graph_alone(batch, keep):
    """`tables(keep)` of one run over the batch equal each graph's solo
    tables (`signed_distances` when connected); with `check`, the connected
    graphs pass against their edge rows and each disconnected one fails."""
    run = distance._Run.of(batch)
    kept = [batch[i] for i in keep]
    connected = [i for i in keep if sg.is_connected(batch[i])]
    routes = [run.tables(keep)]
    if connected:
        routes.append(run.tables(connected, check=[distance._edge_rows([batch[i]]) for i in connected]))
    for route, graphs in zip(routes, (kept, [batch[i] for i in connected])):
        assert len(route) == len(graphs)
        for g, sd in zip(graphs, route):
            alone = sg.signed_distances(g) if sg.is_connected(g) else distance._Run.of([g]).tables()[0]
            for a, b in zip((sd.dist, sd.pos, sd.neg), (alone.dist, alone.pos, alone.neg)):
                assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
    for i in keep:
        if i not in connected:
            with pytest.raises(RuntimeError, match=r"^pair \("):
                run.tables([i], check=[distance._edge_rows([batch[i]])])


@settings(max_examples=60, deadline=None)
@given(batches_and_subsets())
@example(([K1, SPLIT, K1, C4_ONE_NEG], [3, 1, 0]))
def test_run_tables_of_any_subset_match_each_graph_alone(case):
    assert_tables_match_each_graph_alone(*case)


@pytest.mark.parametrize("cells", [1, 1 << 18])
def test_run_tables_of_a_mixed_batch(monkeypatch, cells):
    # A bound of one cell certifies one source per block.
    monkeypatch.setattr(distance, "_CERT_CELLS", cells)
    keep = list(range(len(MIXED_BATCH)))
    assert_tables_match_each_graph_alone(MIXED_BATCH, keep)
    assert_tables_match_each_graph_alone(MIXED_BATCH, keep[::-1])


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
    oracle = all(brute_force_summary(g, u, v).compatible for u in range(g.n) for v in range(u + 1, g.n))
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


@settings(max_examples=60, deadline=None)
@given(st.one_of(connected_signed_graphs(), wide_connected_signed_graphs()))
@example(sg.cycle_graph(4, [1, 1, 1, 1]))
@example(C4_ONE_NEG)
def test_witness_pair_is_the_first_sorted_pair(g):
    # The witness takes its pair without sorting; it must be the first of the
    # pairs sorted by (distance, u, v), and those must be sorted.
    sd = sg.signed_distances(g)
    pairs = distance._sorted_pairs([(0, sd)])
    dist = sd.dist.tolist()
    assert pairs == sorted(pairs, key=lambda p: (dist[p[0]][p[1]], p))
    w = sg.least_incompatible_witness(g)
    assert (w and w.pair) == (pairs[0] if pairs else None)


# -- row blocks --------------------------------------------------------------

def block_graphs(max_n: int = 200):
    """Connected graphs of order 1 to `max_n`: random ones, and ones on
    either side of a multiple of 64, whose span-1 trees are paths (at order
    129 or more, eight distance planes or more)."""
    edges = st.sampled_from([1, 63, 64, 65, 127, 128, 129, 191, 192, 193]).flatmap(
        lambda n: wide_connected_signed_graphs(n, n)
    )
    return st.one_of(wide_connected_signed_graphs(1, max_n), edges)


def path_with_cycles():
    """C8 with one negative edge on vertices 0-7, a path 7-66 and C4 with
    one negative edge on 66-69: incompatible pairs at distance 4 in the
    first block of rows and at distance 2 only in the second."""
    edges = [(i, i + 1, 1) for i in range(7)] + [(0, 7, -1)]
    edges += [(i, i + 1, 1) for i in range(7, 66)]
    edges += [(66, 67, 1), (67, 68, 1), (68, 69, 1), (66, 69, -1)]
    return sg.SignedGraph.from_edges(70, edges)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(block_graphs(), signed_graphs()), min_size=1, max_size=3))
@example([sg.path_graph(129, [(-1) ** (i // 5) for i in range(128)])])
@example([sg.SignedGraph(1, ()), sg.path_graph(200, [1] * 199), sg.SignedGraph(2, ())])
def test_blocks_stack_to_the_tables(graphs):
    # Each graph's blocks, stacked in order, are its tables, planes past
    # one byte included; a disconnected graph of the batch reads alike.
    run = distance._Run.of(graphs)
    for i, (g, sd) in enumerate(zip(graphs, run.tables())):
        blocks = list(run.blocks(i))
        assert [start for start, _ in blocks] == list(range(0, g.n, 64))
        for name in ("dist", "pos", "neg"):
            parts = [getattr(rows, name) for _, rows in blocks]
            assert not any(a.flags.writeable for a in parts)
            stacked = np.concatenate(parts)
            assert stacked.dtype == getattr(sd, name).dtype
            assert np.array_equal(stacked, getattr(sd, name))


def oracle_pairs(g):
    """(distance, u, v) of the incompatible pairs u < v, sorted, from one
    `signed_bfs` per source."""
    return sorted(
        (summ.d, u, v) for u in range(g.n) for v, summ in enumerate(signed_bfs(g, u)) if v > u and not summ.compatible
    )


@settings(max_examples=30, deadline=None)
@given(block_graphs())
@example(C4_ONE_NEG)
@example(sg.cycle_graph(150, [-1] + [1] * 149))
@example(sg.cycle_graph(130, [-1] * 130))
@example(path_with_cycles())
def test_pairs_and_witness_match_the_oracle(g):
    # The block routes against `signed_bfs`: every pair in (distance, u, v)
    # order, and the witness of the first, whose paths are shortest, of
    # their signs and internally disjoint.
    want = oracle_pairs(g)
    assert sg.incompatible_pairs(g) == [(u, v) for _, u, v in want]
    w = sg.least_incompatible_witness(g)
    if not want:
        assert w is None
        return
    d, u, v = want[0]
    assert (w.pair, w.k) == ((u, v), d)
    for path, sign in ((w.path_pos, 1), (w.path_neg, -1)):
        assert (path[0], path[-1], len(path)) == (u, v, d + 1)
        assert np.prod([g.sign(a, b) for a, b in zip(path, path[1:])]) == sign
    assert not set(w.path_pos[1:-1]) & set(w.path_neg[1:-1])


def test_witness_of_a_compatible_graph_reads_no_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was read")

    monkeypatch.setattr(distance._Run, "blocks", refuse)
    monkeypatch.setattr(distance._Run, "tables", refuse)
    assert sg.least_incompatible_witness(sg.cycle_graph(200, [1] * 200)) is None


def test_witness_takes_the_least_pair_from_a_later_block():
    g = path_with_cycles()
    assert sg.incompatible_pairs(g)[:2] == [(66, 68), (67, 69)]
    assert sg.least_incompatible_witness(g).pair == (66, 68)


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


def test_associated_complete_matches_path_signs():
    # Edges keep their sign; every other pair gets sigma_max (a positive
    # shortest path exists) or sigma_min (a negative one does), in
    # row-major pair order.
    rng = random.Random(47)
    for _ in range(60):
        g = random_connected_signed(rng, 2, 9, 0.2, 0.7)
        for which in ("max", "min"):
            expected = []
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    signs = nx_path_signs(g, u, v)
                    if g.has_edge(u, v):
                        assert signs == {g.sign(u, v)}
                    s = max(signs) if which == "max" else min(signs)
                    expected.append((u, v, s))
            assert sg.associated_complete(g, which).edges == tuple(expected)


def test_associated_complete_needs_two_vertices():
    with pytest.raises(ValueError, match="at least 2"):
        sg.associated_complete(sg.SignedGraph(1, ()))
