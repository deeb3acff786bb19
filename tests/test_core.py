import json
import random
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sgdist as sg
from sgdist.core import _bfs_dist
from conftest import random_balanced_connected, random_connected_signed, to_networkx
from oracles import brute_force_summary, signed_bfs

import networkx as nx


@st.composite
def signed_graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    for u, v in pairs:
        if draw(st.booleans()):
            edges.append((u, v, draw(st.sampled_from((1, -1)))))
    return sg.SignedGraph(n, tuple(edges))


# -- parsing and serialization ------------------------------------------------

def test_parse_k2_negative():
    g = sg.parse_edge_list("2 1\n0 1 -")
    assert g.n == 2
    assert g.edges == ((0, 1, -1),)


def test_parse_c4_one_negative():
    g = sg.parse_edge_list("4 4\n0 1 -\n1 2 +\n2 3 +\n0 3 +")
    assert g == sg.cycle_graph(4, [-1, 1, 1, 1])


def test_parse_duplicate_edge_reports_line():
    with pytest.raises(sg.EdgeListError, match="line 5.*duplicate"):
        sg.parse_edge_list("3 3\n0 1 +\n1 2 +\n0 2 +\n0 2 +")


def test_parse_accepts_comments_blank_lines_and_numeric_signs():
    text = "# header\n\n3 2\n0 1 +1\n# middle\n1 2 -1\n"
    g = sg.parse_edge_list(text)
    assert g.edges == ((0, 1, 1), (1, 2, -1))


@pytest.mark.parametrize(
    "text,needle",
    [
        ("2 1\n0 0 +", "self-loop"),
        ("2 1\n0 2 +", "out of range"),
        ("2 1\n0 1 ?", "bad sign"),
        ("2 1\nnope", "expected 'u v s'"),
        ("2 2\n0 1 +", "declares 2 edges"),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(sg.EdgeListError, match=needle):
        sg.parse_edge_list(text)


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("", 1, "empty input, expected header 'n m'"),
        ("# only a comment\n\n  \t\n", 1, "empty input, expected header 'n m'"),
        ("# c\n3\n", 2, "expected header 'n m', got '3'"),
        ("  3 2 1 \t\n", 1, "expected header 'n m', got '3 2 1'"),
        ("3 2 # c\n", 1, "expected header 'n m', got '3 2 # c'"),
        ("a 2\n", 1, "non-integer header 'a 2'"),
        ("0 0\n", 1, "vertex count must be >= 1, got 0"),
        ("2 -1\n", 1, "edge count must be >= 0, got -1"),
        ("0 -1\n", 1, "vertex count must be >= 1, got 0"),
        ("2 1\n 0 1 \n", 2, "expected 'u v s', got '0 1'"),
        ("2 1\n0 1 + +\n", 2, "expected 'u v s', got '0 1 + +'"),
        ("2 1\n0 x +\n", 2, "non-integer vertex in '0 x +'"),
        ("2 1\n0 # +\n", 2, "non-integer vertex in '0 # +'"),
        ("2 1\n0 1 *\n", 2, "bad sign '*' (use +, -, +1 or -1)"),
        ("2 1\n1 1 +\n", 2, "self-loop at vertex 1"),
        ("2 1\n0 2 +\n", 2, "vertex index out of range in '0 2 +' (n=2)"),
        ("2 1\n-1 0 +\n", 2, "vertex index out of range in '-1 0 +' (n=2)"),
        ("3 3\n\n1 0 +\n# c\n0 1 -\n", 5, "duplicate edge (0,1)"),
        ("3 1\n0 1 +\n1 2 +\n", 3, "more than the declared 1 edges"),
        ("3 2\n0 1 +\n", 1, "header declares 2 edges, found 1"),
        ("2 1\n#0 1 +\n", 1, "header declares 1 edges, found 0"),
        # Two failing checks on one line: the first in the order above wins.
        ("2 1\nx 1 ?\n", 2, "non-integer vertex in 'x 1 ?'"),
        ("2 1\n0 0 ?\n", 2, "bad sign '?' (use +, -, +1 or -1)"),
        ("2 1\n5 5 +\n", 2, "self-loop at vertex 5"),
        ("2 1\n1 9 x\n", 2, "bad sign 'x' (use +, -, +1 or -1)"),
        # A duplicate beyond the declared count is reported as a duplicate.
        ("3 1\n0 2 +\n2 0 +\n", 3, "duplicate edge (0,2)"),
    ],
)
def test_parse_error_messages(text, line_no, message):
    # Each malformed input's full message and line number.
    with pytest.raises(sg.EdgeListError, match=f"^{re.escape(f'line {line_no}: {message}')}$") as info:
        sg.parse_edge_list(text)
    assert info.value.line_no == line_no


@given(signed_graphs())
def test_parse_serialize_roundtrip(g):
    assert sg.parse_edge_list(sg.serialize_edge_list(g)) == g


# -- construction -------------------------------------------------------------

@given(signed_graphs(), st.data())
def test_graph_value_does_not_depend_on_edge_order(g, data):
    shuffled = data.draw(st.permutations(g.edges))
    flipped = [(v, u, s) for u, v, s in data.draw(st.permutations(g.edges))]
    for h in (
        sg.SignedGraph(g.n, tuple(shuffled)),
        sg.SignedGraph(g.n, list(shuffled)),
        sg.SignedGraph.from_edges(g.n, flipped),
    ):
        assert h == g and hash(h) == hash(g)
        assert sg.serialize_edge_list(h) == sg.serialize_edge_list(g)
        assert sg.parse_edge_list(sg.serialize_edge_list(h)) == h


def test_adjacency_ascending_from_shuffled_edges():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_signed(rng, 2, 12)
        edges = list(g.edges)
        rng.shuffle(edges)
        h = sg.SignedGraph(g.n, tuple(edges))
        assert h.edges == g.edges
        for w, nbrs in enumerate(h.adjacency):
            assert list(nbrs) == sorted((v if u == w else u, s) for u, v, s in edges if w in (u, v))


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(lambda: sg.SignedGraph(0, ()), "vertex count must be >= 1, got 0", id="no-vertices"),
        pytest.param(lambda: sg.SignedGraph(3, ((0, 1, 1), (1, 1, 1))), "self-loop at vertex 1", id="self-loop"),
        pytest.param(lambda: sg.SignedGraph(3, ((2, 1, 1),)), "edge (2,1) out of range for n=3", id="reversed"),
        pytest.param(lambda: sg.SignedGraph(3, ((0, 3, 1),)), "edge (0,3) out of range for n=3", id="past-n"),
        pytest.param(lambda: sg.SignedGraph(3, ((0, 1, 0),)), "sign must be +1 or -1, got 0", id="sign-0"),
        pytest.param(lambda: sg.SignedGraph(3, ((0, 1, 2),)), "sign must be +1 or -1, got 2", id="sign-2"),
        pytest.param(
            lambda: sg.SignedGraph(3, ((1, 2, 1), (0, 1, 1), (1, 2, -1))), "duplicate edge (1,2)", id="duplicate"
        ),
        pytest.param(
            lambda: sg.SignedGraph.from_edges(3, [(0, 1, 1), (1, 0, -1)]), "duplicate edge (0,1)", id="dup-flipped"
        ),
        pytest.param(
            lambda: sg.SignedGraph.from_edges(3, [(2, 1, 1), (1, 2, 1)]), "duplicate edge (1,2)", id="dup-flipped-first"
        ),
        pytest.param(
            lambda: sg.SignedGraph.from_edges(3, [(0, 1.7, 1), (1, 2, 1)]),
            "edge (0,1.7) has a non-integer vertex",
            id="float-from-edges",
        ),
        pytest.param(
            lambda: sg.SignedGraph(3, ((0, 1.0, 1), (1.0, 2, -1))),
            "edge (0,1.0) has a non-integer vertex",
            id="integral-float",
        ),
        pytest.param(lambda: sg.random_signed_gnp(0, 0.5, random.Random(1)), "vertex count must be >= 1, got 0", id="gnp-0"),
        pytest.param(
            lambda: sg.random_signed_gnp(-2, 0.5, random.Random(1)), "vertex count must be >= 1, got -2", id="gnp-negative"
        ),
    ],
)
def test_constructor_rejections(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_vertices_accepted():
    want = sg.SignedGraph(3, ((0, 1, 1), (1, 2, -1)))
    ends = np.array([[1, 0], [1, 2]], dtype=np.int32)
    assert sg.SignedGraph.from_edges(3, [(u, v, s) for (u, v), s in zip(ends, (1, -1))]) == want
    assert sg.SignedGraph(3, tuple((np.int64(u), np.int64(v), s) for u, v, s in want.edges)) == want


@pytest.mark.parametrize(
    "u, v, s",
    [
        (0, 1, 1.0),
        (0, 1, -1.0),
        (0, 1, True),
        (np.int64(0), np.int32(1), np.int8(-1)),
        (np.uint8(0), np.int64(1), np.float64(1.0)),
        (False, True, np.bool_(True)),
    ],
)
def test_edges_are_stored_as_plain_ints(u, v, s):
    # Validated values are stored as the checks return them: plain ints, so
    # the edges print, hash and serialize as the +1/-1 graph they stand for.
    # complete_graph skips the constructor, so it must store its sign so too.
    for g in (sg.SignedGraph(2, ((u, v, s),)), sg.SignedGraph.from_edges(2, [(v, u, s)]), sg.complete_graph(2, s)):
        assert all(type(x) is int for x in g.edges[0])
        assert g.edges == ((0, 1, int(s)),) and g == sg.SignedGraph(2, ((0, 1, int(s)),))
        assert json.dumps(g.edges) == f"[[0, 1, {int(s)}]]"


@pytest.mark.parametrize("s", [1.5, -0.5, "1", None])
def test_non_sign_values_are_refused_on_both_constructors(s):
    # The generators' sign patterns are outside input as well.
    for build in (
        lambda: sg.SignedGraph(2, ((0, 1, s),)),
        lambda: sg.SignedGraph.from_edges(2, [(1, 0, s)]),
        lambda: sg.path_graph(3, [s, -1]),
        lambda: sg.cycle_graph(3, [s, 1, -1]),
        lambda: sg.petersen_signing([s] + [1] * 14),
    ):
        with pytest.raises(ValueError, match=f"^sign must be \\+1 or -1, got {re.escape(repr(s))}$"):
            build()


@pytest.mark.parametrize(
    "n, want", [(True, 1), (np.int64(3), 3), (np.uint8(2), 2), (2.5, None), (3.0, None), ("3", None), (None, None)]
)
def test_vertex_count_is_stored_as_a_plain_int(n, want):
    # The order is outside input too: an integer, bools and numpy scalars
    # included, is stored as a plain int; anything else is refused.
    for build in (lambda: sg.SignedGraph(n, ()), lambda: sg.random_signed_gnp(n, 0.5, random.Random(1))):
        if want is None:
            with pytest.raises(ValueError, match=f"^vertex count must be an integer, got {re.escape(repr(n))}$"):
                build()
        else:
            g = build()
            assert type(g.n) is int and g.n == want
            assert isinstance(sg.is_connected(g), bool)
    if want is not None:
        assert repr(sg.SignedGraph(n, ())) == f"SignedGraph(n={want}, edges=())"


def test_generated_graphs_equal_checked_ones():
    # Graphs derived from valid ones skip the constructor's checks; each
    # must equal the same edges passed through them.
    rng = random.Random(4)
    graphs = [sg.random_signed_gnp(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng) for _ in range(40)]
    for g, g2 in zip(graphs, graphs[1:] + graphs[:1]):
        derived = [
            g,
            g.with_signs([rng.choice((1, -1)) for _ in g.edges]),
            sg.switch(g, [rng.choice((1, -1)) for _ in range(g.n)]),
            sg.cartesian(g, g2),
            sg.lexicographic(g, g2),
            sg.tensor(g, g2),
            sg.complete_graph(g.n, rng.choice((1, -1))),
        ]
        if g.n > 1 and sg.is_connected(g):
            derived += [sg.associated_complete(g, "max"), sg.associated_complete(g, "min")]
        for x in derived:
            y = sg.SignedGraph(x.n, x.edges)
            assert x == y and hash(x) == hash(y) and x.adjacency == y.adjacency
    with pytest.raises(ValueError, match="^sign must be \\+1 or -1, got 0$"):
        sg.complete_graph(3).with_signs([1, 0, 1])
    with pytest.raises(ValueError, match="^sign must be \\+1 or -1, got 0$"):
        sg.switch(sg.complete_graph(3), [1, 0, 1])


# -- switching ----------------------------------------------------------------

def test_switch_k2():
    k2n = sg.complete_graph(2, -1)
    assert sg.switch(k2n, [1, -1]) == sg.complete_graph(2, 1)


def test_switch_identity():
    g = sg.cycle_graph(5, [1, -1, 1, 1, -1])
    assert sg.switch(g, [1] * 5) == g


def test_switch_c4_moves_negative_edge():
    # Applying the rule edge by edge: 01 flips to +, 03 flips to -, rest fixed.
    g = sg.cycle_graph(4, [-1, 1, 1, 1])
    out = sg.switch(g, [-1, 1, 1, 1])
    assert out.edges == ((0, 1, 1), (0, 3, -1), (1, 2, 1), (2, 3, 1))


def test_switch_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        sg.switch(sg.complete_graph(3), [1, 1])


@given(signed_graphs(), st.data())
def test_switch_is_involution(g, data):
    zeta = data.draw(st.lists(st.sampled_from((1, -1)), min_size=g.n, max_size=g.n))
    assert sg.switch(sg.switch(g, zeta), zeta) == g


@given(signed_graphs(), st.data())
def test_switch_preserves_balance(g, data):
    zeta = data.draw(st.lists(st.sampled_from((1, -1)), min_size=g.n, max_size=g.n))
    assert sg.is_balanced(g) == sg.is_balanced(sg.switch(g, zeta))


# -- balance ------------------------------------------------------------------

def test_all_negative_triangle_unbalanced():
    assert not sg.is_balanced(sg.complete_graph(3, -1))


def test_c4_two_negatives_balanced():
    assert sg.is_balanced(sg.cycle_graph(4, [-1, 1, -1, 1]))


def test_trees_always_balanced():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 10)
        edges = [(rng.randint(0, v - 1), v, rng.choice((1, -1))) for v in range(1, n)]
        g = sg.SignedGraph.from_edges(n, edges)
        assert sg.is_balanced(g)
        pot = sg.balance_potential(g)
        assert all(pot[u] * s * pot[v] == 1 for u, v, s in g.edges)


# -- cycle signs --------------------------------------------------------------

def test_cycle_sign_examples():
    assert sg.cycle_sign(sg.cycle_graph(4, [-1, 1, 1, 1]), [0, 1, 2, 3]) == -1
    assert sg.cycle_sign(sg.cycle_graph(4, [-1, 1, -1, 1]), [0, 1, 2, 3]) == 1
    assert sg.cycle_sign(sg.cycle_graph(5, [1] * 5), [0, 1, 2, 3, 4]) == 1


def test_cycle_sign_rejects_bad_sequences():
    g = sg.cycle_graph(4, [1, 1, 1, 1])
    with pytest.raises(ValueError, match="not an edge"):
        sg.cycle_sign(g, [0, 1, 3])
    with pytest.raises(ValueError, match="repeated"):
        sg.cycle_sign(g, [0, 1, 2, 1])


@given(st.integers(min_value=3, max_value=8), st.data())
def test_cycle_sign_rotation_reversal_invariant(n, data):
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    g = sg.cycle_graph(n, signs)
    base = sg.cycle_sign(g, list(range(n)))
    rot = data.draw(st.integers(min_value=0, max_value=n - 1))
    seq = [(i + rot) % n for i in range(n)]
    assert sg.cycle_sign(g, seq) == base
    assert sg.cycle_sign(g, list(reversed(seq))) == base


# -- structural predicates ----------------------------------------------------

def test_predicates_petersen():
    p = sg.structural_predicates(sg.petersen_graph())
    assert (p.is_connected, p.is_two_connected, p.is_geodetic, p.has_odd_cycle) == (
        True,
        True,
        True,
        True,
    )


def test_predicates_k2():
    p = sg.structural_predicates(sg.complete_graph(2))
    assert (p.is_connected, p.is_two_connected, p.is_geodetic, p.has_odd_cycle) == (
        True,
        False,
        True,
        False,
    )


def test_predicates_c4():
    p = sg.structural_predicates(sg.cycle_graph(4, [1] * 4))
    assert (p.is_connected, p.is_two_connected, p.is_geodetic, p.has_odd_cycle) == (
        True,
        True,
        False,
        False,
    )


def _nx_geodetic(g: sg.SignedGraph) -> bool:
    """No connected pair has a second shortest path, counted by networkx."""
    gx = to_networkx(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if nx.has_path(gx, u, v) and len(list(islice(nx.all_shortest_paths(gx, u, v), 2))) > 1:
                return False
    return True


def _disjoint_union(g: sg.SignedGraph, h: sg.SignedGraph) -> sg.SignedGraph:
    return sg.SignedGraph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n, s) for u, v, s in h.edges))


def test_is_geodetic_matches_networkx_path_counts():
    rng = random.Random(41)
    c4, c5 = sg.cycle_graph(4, [1] * 4), sg.cycle_graph(5, [-1] * 5)
    graphs = [
        sg.SignedGraph(1, ()),
        sg.SignedGraph(3, ()),
        sg.petersen_graph(),
        _disjoint_union(c5, sg.SignedGraph(1, ())),
        _disjoint_union(c5, c4),
        _disjoint_union(sg.petersen_graph(-1), sg.path_graph(3, [1, -1])),
    ]
    graphs += [sg.cycle_graph(n, [1] * n) for n in range(3, 11)]
    for _ in range(20):
        n = rng.randint(2, 12)
        graphs.append(sg.SignedGraph(n, tuple((rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n))))
    for _ in range(120):
        graphs.append(sg.random_signed_gnp(rng.randint(1, 10), rng.uniform(0.1, 0.7), rng))
    verdicts = set()
    for g in graphs:
        expected = _nx_geodetic(g)
        assert sg.is_geodetic(g) == expected, g
        verdicts.add((expected, sg.is_connected(g)))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_odd_cycle_matches_bipartiteness_oracle():
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected_signed(rng, 2, 9)
        assert sg.has_odd_cycle(g) == (not nx.is_bipartite(to_networkx(g)))


def test_bfs_dist_matches_networkx_from_every_source():
    rng = random.Random(43)
    graphs = [sg.SignedGraph(1, ())]
    for _ in range(40):
        g = sg.random_signed_gnp(rng.randint(1, 12), rng.uniform(0.05, 0.7), rng)
        graphs.append(g)
        graphs.append(_disjoint_union(g, random_connected_signed(rng, 1, 6)))
    assert any(not sg.is_connected(g) for g in graphs)
    for g in graphs:
        gx = to_networkx(g)
        for s in range(g.n):
            hops = nx.single_source_shortest_path_length(gx, s)
            assert _bfs_dist(g, s) == [hops.get(v, -1) for v in range(g.n)]


def _union_cases(rng: random.Random, late: sg.SignedGraph) -> list[sg.SignedGraph]:
    """Disjoint unions of K1 and two random positive trees, with `late` last."""
    out = []
    for _ in range(5):
        g = sg.SignedGraph(1, ())
        for _ in range(2):
            n = rng.randint(1, 5)
            tree = [(rng.randint(0, v - 1), v, 1) for v in range(1, n)]
            g = _disjoint_union(g, sg.SignedGraph.from_edges(n, tree))
        out.append(_disjoint_union(g, late))
    return out


def test_odd_cycle_in_a_later_component():
    rng = random.Random(47)
    odd = [sg.cycle_graph(k, [1] * k) for k in (3, 5, 7)] + [sg.petersen_graph()]
    even = [sg.cycle_graph(k, [-1] * k) for k in (4, 6)] + [sg.complete_graph(2)]
    for late in odd + even:
        for g in _union_cases(rng, late):
            assert not sg.is_connected(g)
            assert sg.has_odd_cycle(g) == (late in odd) == (not nx.is_bipartite(to_networkx(g)))
    for _ in range(40):
        g = _disjoint_union(random_connected_signed(rng, 1, 6), random_connected_signed(rng, 1, 6))
        assert sg.has_odd_cycle(g) == (not nx.is_bipartite(to_networkx(g)))


def _check_potential_against_cycle_basis(g: sg.SignedGraph) -> bool:
    """balance_potential is None iff a basis cycle is negative; else it switches
    every edge positive.  Returns whether g is balanced."""
    signs = [sg.cycle_sign(g, c) for c in nx.cycle_basis(to_networkx(g))]
    zeta = sg.balance_potential(g)
    assert (zeta is None) == (-1 in signs)
    if zeta is not None:
        assert all(zeta[u] * s * zeta[v] == 1 for u, v, s in g.edges)
    return zeta is not None


def test_negative_cycle_in_a_later_component():
    rng = random.Random(53)
    negative = [sg.cycle_graph(3, [-1, 1, 1]), sg.cycle_graph(4, [1, 1, 1, -1]), sg.complete_graph(4, -1)]
    balanced = [sg.cycle_graph(4, [-1, 1, -1, 1]), sg.cycle_graph(3, [-1, -1, 1]), sg.complete_graph(3, 1)]
    for late in negative + balanced:
        for g in _union_cases(rng, late):
            assert _check_potential_against_cycle_basis(g) == (late in balanced)
    for _ in range(40):
        parts = [random_balanced_connected(rng, 1, 5) for _ in range(3)]
        if rng.random() < 0.5:
            parts[-1] = random_connected_signed(rng, 3, 6)
        g = _disjoint_union(_disjoint_union(parts[0], parts[1]), parts[2])
        assert _check_potential_against_cycle_basis(g) == sg.is_balanced(parts[-1])


def test_two_connected_matches_articulation_oracle():
    rng = random.Random(13)
    for _ in range(60):
        g = random_connected_signed(rng, 3, 9)
        gx = to_networkx(g)
        expected = not list(nx.articulation_points(gx)) and g.n >= 3
        assert sg.is_two_connected(g) == expected


@pytest.mark.parametrize(
    "g, expected",
    [
        (sg.cycle_graph(1000, [1] * 1000), True),
        (sg.path_graph(1000, [1] * 999), False),
        (sg.complete_graph(2), False),
        (sg.SignedGraph(3, ((0, 1, 1), (1, 2, -1))), False),
        (sg.SignedGraph(4, ((0, 1, 1), (1, 2, 1), (0, 2, 1))), False),
    ],
    ids=["C1000", "P1000", "K2", "P3", "K3+isolated"],
)
def test_two_connected_large_and_edge_cases(g, expected):
    assert sg.is_two_connected(g) is expected


# -- net degree ---------------------------------------------------------------

def test_net_degree_petersen():
    g = sg.petersen_graph()
    assert sg.net_degrees(g) == [3] * 10
    assert sg.is_net_regular(g)


def test_net_degree_all_negative_k3():
    assert sg.net_degree(sg.complete_graph(3, -1), 0) == -2


def test_net_degree_c4_one_negative():
    g = sg.cycle_graph(4, [-1, 1, 1, 1])
    assert sg.net_degree(g, 0) == 0
    assert not sg.is_net_regular(g)


def test_net_degree_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        sg.net_degree(sg.complete_graph(2), 5)


C5 = sg.cycle_graph(5, [1, -1, 1, 1, 1])


@pytest.mark.parametrize("bad", [-1, -5, 5, 9])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: sg.net_degree(C5, x),
        lambda x: signed_bfs(C5, x),
        lambda x: sg.odd_even_distance(C5, x, 0),
        lambda x: sg.odd_even_distance(C5, 0, x),
        lambda x: brute_force_summary(C5, x, 0),
        lambda x: brute_force_summary(C5, 0, x),
        lambda x: sg.tensor_distance(C5, sg.complete_graph(2), (0, 0), (x, x)),
        lambda x: sg.tensor_distance(C5, sg.complete_graph(2), (x, 0), (0, 1)),
    ],
    ids=["net_degree", "signed_bfs", "oed_u", "oed_v", "oracle_u", "oracle_v", "tensor_to", "tensor_from"],
)
def test_vertex_out_of_range_rejected(call, bad):
    with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=5"):
        call(bad)


def test_list_edges_build_the_same_graph_as_tuples():
    listed = sg.SignedGraph(3, [[1, 2, 1], [0, 1, -1]])
    tupled = sg.SignedGraph(3, ((0, 1, -1), (1, 2, 1)))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.edges == ((0, 1, -1), (1, 2, 1))
    assert sg.serialize_edge_list(listed) == sg.serialize_edge_list(tupled)
