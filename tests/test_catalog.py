import random

import numpy as np
import pytest

import sgdist as sg
from sgdist import catalog, distance
from sgdist.cli import run
from conftest import to_networkx

import networkx as nx


# -- generators -----------------------------------------------------------------

def test_petersen_structure():
    g = sg.petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    gx = to_networkx(g)
    assert nx.girth(gx) == 5
    assert nx.diameter(gx) == 2
    # canonical numbering: outer cycle, inner pentagram, spokes
    assert g.has_edge(0, 1) and g.has_edge(0, 4)
    assert g.has_edge(5, 7) and g.has_edge(5, 8)
    assert all(g.has_edge(i, i + 5) for i in range(5))


def test_petersen_is_geodetic_and_compatible():
    g = sg.petersen_graph()
    assert sg.is_geodetic(g)
    assert sg.is_compatible(g)


def test_cycle_fixture():
    g = sg.cycle_graph(4, [-1, 1, 1, 1])
    assert g.edges == ((0, 1, -1), (0, 3, 1), (1, 2, 1), (2, 3, 1))


def test_complete_all_negative_unbalanced():
    g = sg.complete_graph(3, -1)
    assert not sg.is_balanced(g)


def test_complete_graph_stores_a_numpy_order_as_int():
    g = sg.complete_graph(np.int64(3))
    assert type(g.n) is int and g == sg.complete_graph(3)


def test_complete_graph_refuses_a_non_integer_order():
    with pytest.raises(ValueError, match=r"^vertex count must be an integer, got 3\.0$"):
        sg.complete_graph(3.0)


def test_gen_complete_zero_keeps_its_message(capsys):
    assert run(["gen", "complete", "0", "+"]) == 1
    assert capsys.readouterr() == ("", "error: complete graph needs n >= 1, got 0\n")


def test_path_generator():
    g = sg.path_graph(4, [1, -1, 1])
    assert g.edges == ((0, 1, 1), (1, 2, -1), (2, 3, 1))


def test_pattern_length_validation():
    with pytest.raises(ValueError, match="needs 4 signs"):
        sg.cycle_graph(4, [1, 1])
    with pytest.raises(ValueError, match="needs 2 signs"):
        sg.path_graph(3, [1, 1, 1])
    with pytest.raises(ValueError, match="needs 15 signs"):
        sg.petersen_signing([1])


def test_generate_dispatcher():
    assert sg.generate("cycle", ["4", "-+++"]) == sg.cycle_graph(4, [-1, 1, 1, 1])
    assert sg.generate("petersen", ["+"]) == sg.petersen_graph(1)
    assert sg.generate("complete", ["3", "-"]) == sg.complete_graph(3, -1)
    assert sg.generate("path", ["3", "+-"]) == sg.path_graph(3, [1, -1])
    with pytest.raises(ValueError, match="unknown kind"):
        sg.generate("wheel", ["5"])


# -- census ----------------------------------------------------------------------

def test_census_class_sizes_and_labels(petersen_table):
    table = petersen_table
    assert table.total == 32768
    assert [c.label for c in table.classes] == ["+P", "P1", "P2,2", "P2,3", "P3,2", "P3,3"]
    assert [c.size for c in table.classes] == [512, 7680, 15360, 7680, 1024, 512]


def test_representative_keys_match_the_bit_matrix_form():
    # The keys on all 2^15 codes against popcount and bit reversal computed
    # from the (codes, 15) bit matrix.
    codes = np.arange(1 << 15, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(15)) & 1
    reversed_code = bits @ (1 << np.arange(14, -1, -1))
    want = (bits.sum(axis=1) << 15) | ((1 << 15) - 1 - reversed_code)
    assert np.array_equal(catalog._representative_keys(codes), want)


def test_census_representatives_minimal(petersen_table):
    # Labels P_{a,b} have minimal representations with a negative edges.
    neg_counts = [sum(1 for *_, s in c.representative.edges if s < 0) for c in petersen_table.classes]
    assert neg_counts == [0, 1, 2, 2, 3, 3]
    assert petersen_table.by_label("+P").representative == sg.petersen_graph(1)


def test_census_representative_polys_match(petersen_table):
    for c in petersen_table.classes:
        d = sg.distance_matrix(c.representative, "max")
        assert np.array_equal(d, sg.distance_matrix(c.representative, "min"))
        assert sg.char_poly(d).coeffs == c.char_poly.coeffs
        assert c.char_poly.coeffs == sg.PETERSEN_CLASS_POLYNOMIALS[c.label]


def test_census_classes_closed_under_switching(petersen_table):
    rng = random.Random(31)
    for c in petersen_table.classes:
        for _ in range(5):
            zeta = [rng.choice((1, -1)) for _ in range(10)]
            switched = sg.switch(c.representative, zeta)
            assert sg.char_poly(sg.distance_matrix(switched)).coeffs == c.char_poly.coeffs


@pytest.mark.parametrize("victim", [0, 40, 66])
def test_census_refuses_an_incompatible_signing(monkeypatch, petersen_table, victim):
    # The census reads all its matrices from one pass over 67 signings; a
    # false negative bit on the edge 0-1 of one of them must still be caught.
    real = distance._edge_bitsets

    def corrupt(orders, edges, sizes):
        pos, neg, planes = real(orders, edges, sizes)
        assert len(orders) == 67
        for v, bit in ((0, 1), (1, 0)):
            pos[0, 10 * victim + v] |= np.uint64(1 << bit)
            neg[0, 10 * victim + v] |= np.uint64(1 << bit)
        return pos, neg, planes

    monkeypatch.setattr(distance, "_edge_bitsets", corrupt)
    with pytest.raises(ValueError, match="^graph is incompatible: max and min distance matrices differ$"):
        sg.enumerate_petersen_signings()
    monkeypatch.undo()
    assert sg.enumerate_petersen_signings() == petersen_table


def test_census_quotient_matches_exhaustive_polynomials(petersen_table):
    # Every one of the 2^15 signings through the public distance route and
    # char_poly_batch, grouped by polynomial, must give the quotient
    # census's sizes and representatives.
    all_signs = [tuple(1 - 2 * ((code >> b) & 1) for b in range(15)) for code in range(1 << 15)]
    polys = sg.char_poly_batch(
        [sg.compatible_distance_matrix(sg.petersen_signing(signs)) for signs in all_signs]
    )
    groups = {}
    for signs, poly in zip(all_signs, polys):
        key = (signs.count(-1), signs)
        size, best = groups.get(poly.coeffs, (0, key))
        groups[poly.coeffs] = (size + 1, min(best, key))
    assert len(groups) == 6
    for c in petersen_table.classes:
        size, (_, signs) = groups[c.char_poly.coeffs]
        assert c.size == size
        assert c.representative == sg.petersen_signing(signs)


def test_only_two_classes_have_integral_spectra(petersen_table):
    integral_labels = []
    for c in petersen_table.classes:
        spec = sg.eig_symmetric(sg.distance_matrix(c.representative))
        if all(abs(v - round(v)) <= 1e-6 for v, _ in spec.entries):
            integral_labels.append(c.label)
    assert integral_labels == ["+P", "P3,3"]


def test_all_negative_signing_lands_in_p33(petersen_table):
    d = sg.distance_matrix(sg.petersen_graph(-1))
    assert sg.char_poly(d).coeffs == petersen_table.by_label("P3,3").char_poly.coeffs


def test_random_signings_compatible_and_classified(petersen_table):
    known = {c.char_poly.coeffs for c in petersen_table.classes}
    rng = random.Random(41)
    for _ in range(30):
        g = sg.petersen_signing([rng.choice((1, -1)) for _ in range(15)])
        assert sg.is_geodetic(g) and sg.is_compatible(g)
        assert sg.char_poly(sg.distance_matrix(g)).coeffs in known
