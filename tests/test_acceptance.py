"""Acceptance suite: the ten shipping criteria, one test each (criterion 10
splits its harness-behavior clauses from its zero-counterexample clause).

Each test prints one `criterion N: PASS/FAIL` line (visible with `pytest -s`).
Expected values below were produced by the independent oracles in this file
and in conftest.py, never by the code paths they check.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import sgdist as sg
from conftest import (
    all_cycle_signings,
    check_witness,
    random_balanced_connected,
    random_connected_signed,
    to_networkx,
)
from oracles import brute_force_summary, signed_bfs

import networkx as nx

# The six distance characteristic polynomials of the signed Petersen classes
# (descending coefficients).  Each is re-derived below by an independent
# determinant-interpolation oracle before anything else trusts it.
SIX_POLYNOMIALS = {
    "+P": (1, 0, -135, -1080, -3645, -5832, -3645, 0, 0, 0, 0),
    "P1": (1, 0, -135, -504, 2851, 15688, -5229, -122256, -157680, 0, 0),
    "P2,2": (1, 0, -135, -216, 5587, 13648, -77957, -220888, 243912, 645984, -308880),
    "P2,3": (1, 0, -135, -184, 6211, 13720, -111981, -295840, 690800, 1968000, 0),
    "P3,2": (1, 0, -135, 40, 6675, -4848, -140725, 195240, 986040, -2613600, 1724976),
    "P3,3": (1, 0, -135, -120, 6435, 6696, -145725, -126000, 1620000, 800000, -7200000),
}


def report(n, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- independent exact char-poly oracle: Bareiss determinants + interpolation --

def bareiss_det(matrix: list[list[int]]) -> int:
    a = [row[:] for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def charpoly_by_interpolation(m: np.ndarray) -> tuple[int, ...]:
    """det(xI - M) sampled at n+1 integers and Lagrange-interpolated."""
    n = m.shape[0]
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[x * (1 if i == j else 0) - int(m[i][j]) for j in range(n)] for i in range(n)]
        ys.append(bareiss_det(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
        scale = Fraction(ys[i]) / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    out = []
    for c in reversed(coeffs):
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


@pytest.fixture(scope="module")
def census():
    return sg.enumerate_petersen_signings()


def test_criterion_1_petersen_polynomials(census):
    start = time.time()
    computed = {c.label: sg.char_poly(sg.distance_matrix(c.representative)).coeffs
                for c in census.classes}
    elapsed = time.time() - start
    for label, poly in computed.items():
        assert poly == SIX_POLYNOMIALS[label], f"class {label} polynomial mismatch"
        oracle = charpoly_by_interpolation(sg.distance_matrix(census.by_label(label).representative))
        assert poly == oracle, f"class {label} disagrees with determinant-interpolation oracle"
    assert set(computed.values()) == set(SIX_POLYNOMIALS.values())
    assert elapsed < 1.0
    report(1, True, f"six exact polynomials, determinant-oracle confirmed, {elapsed:.2f}s")


def test_criterion_2_exhaustive_enumeration():
    start = time.time()
    table = sg.enumerate_petersen_signings()
    elapsed = time.time() - start
    polys = {c.char_poly.coeffs for c in table.classes}
    assert len(polys) == 6
    assert polys == set(SIX_POLYNOMIALS.values())
    assert table.total == 32768
    assert elapsed < 60.0
    report(2, True, f"2^15 signings, six classes, sizes sum 32768, {elapsed:.1f}s")


def test_criterion_3_integral_spectra():
    pplus = sg.petersen_graph(1)
    pminus = sg.petersen_graph(-1)
    j = np.ones((10, 10), dtype=np.int64)
    i = np.eye(10, dtype=np.int64)
    assert np.array_equal(sg.distance_matrix(pplus), 2 * j - 2 * i - sg.adjacency_matrix(pplus))
    assert np.array_equal(sg.distance_matrix(pminus), 2 * j - 2 * i + 3 * sg.adjacency_matrix(pminus))
    spec_plus = sg.eig_symmetric(sg.distance_matrix(pplus))
    spec_minus = sg.eig_symmetric(sg.distance_matrix(pminus))
    for spec, expected in (
        (spec_plus, [(15, 1), (0, 4), (-3, 5)]),
        (spec_minus, [(9, 1), (4, 4), (-5, 5)]),
    ):
        assert [(round(v), m) for v, m in spec.entries] == expected
        for v, _ in spec.entries:
            assert abs(v - round(v)) <= 1e-8
    report(3, True, "both closed forms entrywise exact, spectra integral within 1e-8")


def _random_compatible(rng, n_lo, n_hi):
    while True:
        if rng.random() < 0.5:
            g = random_balanced_connected(rng, n_lo, n_hi)
            return g
        g = random_connected_signed(rng, n_lo, n_hi)
        if sg.is_compatible(g):
            return g


def test_criterion_4_cartesian_formula_vs_direct():
    rng = random.Random(2024_04)
    start = time.time()
    done = 0
    while done < 200:
        g1 = _random_compatible(rng, 2, 6)
        g2 = _random_compatible(rng, 2, 6)
        if g1.n * g2.n > 36:
            continue
        formula = sg.cartesian_distance_formula(g1, g2)
        prod = sg.cartesian(g1, g2)
        assert np.array_equal(formula, sg.distance_matrix(prod, "max"))
        assert np.array_equal(formula, sg.distance_matrix(prod, "min"))
        done += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(4, True, f"200 cartesian products, exact equality, {elapsed:.1f}s")


def test_criterion_5_lexicographic_formula_vs_direct():
    rng = random.Random(2024_05)
    start = time.time()
    done = 0
    while done < 200:
        g1 = _random_compatible(rng, 2, 6)
        g2 = random_connected_signed(rng, 1, 6)
        g2 = g2.with_signs([rng.choice((1, -1))] * g2.m)
        if g1.n * g2.n > 36:
            continue
        formula = sg.lexicographic_distance_formula(g1, g2)
        prod = sg.lexicographic(g1, g2)
        assert np.array_equal(formula, sg.distance_matrix(prod, "max"))
        assert np.array_equal(formula, sg.distance_matrix(prod, "min"))
        done += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, True, f"200 lexicographic products, exact equality, {elapsed:.1f}s")


def test_criterion_6_lex_k2_spectrum_theorem():
    rng = random.Random(2024_06)
    done = 0
    while done < 50:
        g1 = _random_compatible(rng, 2, 12)
        for k2sign in (1, -1):
            analytic = sg.lex_k2_spectrum(g1, k2sign)
            k2 = sg.complete_graph(2, k2sign)
            direct = sg.eig_symmetric(sg.compatible_distance_matrix(sg.lexicographic(g1, k2)))
            a = np.array(analytic.expand())
            b = np.array(direct.expand())
            assert a.shape == b.shape == (2 * g1.n,)
            assert np.abs(a - b).max() <= 1e-6
        done += 1
    report(6, True, "50 graphs x both K2 signs, analytic = direct within 1e-6")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(2024_07)
    mismatches = 0
    checked_graphs = 0

    def check(g):
        # The per-source BFS, the path enumeration and the library's
        # all-sources pass must agree on every ordered pair.
        nonlocal mismatches
        sd = sg.signed_distances(g)
        d_max, d_min = sd.d_max, sd.d_min
        for u in range(g.n):
            out = signed_bfs(g, u)
            for v in range(g.n):
                if v == u:
                    continue
                if out[v] != brute_force_summary(g, u, v):
                    mismatches += 1
                if (sd.dist[u, v], d_max[u, v], d_min[u, v]) != (out[v].d, out[v].d_max, out[v].d_min):
                    mismatches += 1

    for _ in range(500):
        check(random_connected_signed(rng, 2, 8))
        checked_graphs += 1
    for n in (3, 4, 5, 6):
        for g in all_cycle_signings(n):
            check(g)
            checked_graphs += 1
    assert mismatches == 0
    report(7, True, f"{checked_graphs} graphs (500 random + all C3..C6 signings), zero mismatches")


def test_criterion_8_witness_soundness():
    rng = random.Random(2024_08)
    found = 0
    theorem_cases = 0
    while found < 200:
        g = random_connected_signed(rng, 4, 10)
        if sg.is_compatible(g):
            continue
        w = sg.least_incompatible_witness(g)
        check_witness(g, w)
        if sg.is_two_connected(g) and not sg.is_geodetic(g):
            # Incompatibility comes with a negative even cycle whose
            # diametrically opposite pair has no closer shortest paths.
            assert len(w.cycle) == 2 * w.k
            assert sg.cycle_sign(g, w.cycle) == -1
            theorem_cases += 1
        found += 1
    assert theorem_cases > 50
    report(8, True, f"200 witnesses validated, {theorem_cases} under the 2-connected non-geodetic hypothesis")


def test_criterion_9_cartesian_iff():
    rng = random.Random(2024_09)
    cart_true = cart_false = 0
    for _ in range(200):
        g1 = random_connected_signed(rng, 2, 5)
        g2 = random_connected_signed(rng, 2, 5)
        expected = sg.is_compatible(g1) and sg.is_compatible(g2)
        assert sg.is_compatible(sg.cartesian(g1, g2)) == expected
        cart_true += expected
        cart_false += not expected
    assert cart_true and cart_false
    report(9, True, f"cartesian iff, 200 instances ({cart_true} compatible / {cart_false} not), zero violations")


def _lex_instance(rng):
    g1 = random_connected_signed(rng, 2, 5)
    g2 = random_connected_signed(rng, 1, 5)
    if rng.random() < 0.5:
        g2 = g2.with_signs([rng.choice((1, -1))] * g2.m)
    return g1, g2


def test_criterion_9_lexicographic_sufficiency():
    rng = random.Random(2024_091)
    covered = 0
    for _ in range(200):
        g1, g2 = _lex_instance(rng)
        if sg.is_compatible(g1) and sg.uniform_sign(g2):
            assert sg.is_compatible(sg.lexicographic(g1, g2))
            covered += 1
    assert covered > 40
    report(9, True, f"lexicographic sufficiency on {covered} hypothesis instances, zero violations")


def test_criterion_9_lexicographic_necessity_as_stated():
    # Stated expectation: compatible product forces a uniformly signed second
    # factor (with a compatible first factor).  That direction is false as a
    # matter of mathematics: K2[K3] is complete for any signs, and complete
    # signed graphs are compatible, so a mixed-sign K3 slips through.  The
    # violating instances below are genuine, so this clause fails honestly.
    rng = random.Random(2024_092)
    violations = []
    for _ in range(200):
        g1, g2 = _lex_instance(rng)
        expected = sg.is_compatible(g1) and sg.uniform_sign(g2)
        if sg.is_compatible(sg.lexicographic(g1, g2)) != expected:
            violations.append((g1, g2))
    report(9, not violations, f"lexicographic necessity clause: {len(violations)} violations in 200 instances")
    assert not violations, (
        f"{len(violations)} randomized instances have a compatible lexicographic "
        "product with a non-uniform second factor (e.g. any complete product such "
        "as K2[K3-mixed] = K6); uniformity is sufficient but not necessary"
    )


def test_criterion_9_tensor_only_if():
    rng = random.Random(2024_093)
    tensor_compatible_products = 0
    done = 0
    while done < 200:
        if rng.random() < 0.4:
            g1 = random_balanced_connected(rng, 2, 5)
            g2 = random_balanced_connected(rng, 2, 5)
        else:
            g1 = random_connected_signed(rng, 2, 5)
            g2 = random_connected_signed(rng, 2, 5)
        if not sg.tensor_is_connected(g1, g2):
            continue
        prod = sg.tensor(g1, g2)
        if sg.is_compatible(prod):
            assert sg.is_compatible(g1) and sg.is_compatible(g2)
            tensor_compatible_products += 1
        done += 1
    assert tensor_compatible_products > 20
    report(9, True, f"tensor only-if, 200 connected products ({tensor_compatible_products} compatible), zero violations")


def test_criterion_9_tensor_distance_formula():
    rng = random.Random(2024_094)
    distance_pairs = 0
    done = 0
    while done < 100:
        g1 = random_connected_signed(rng, 2, 8)
        g2 = random_connected_signed(rng, 2, 8)
        if g1.n * g2.n > 60 or not sg.tensor_is_connected(g1, g2):
            continue
        prod = sg.tensor(g1, g2)
        lengths = dict(nx.all_pairs_shortest_path_length(to_networkx(prod)))
        for a in range(prod.n):
            i, j = sg.index_pair(a, g2.n)
            for b in range(a, prod.n):
                k, l = sg.index_pair(b, g2.n)
                assert sg.tensor_distance(g1, g2, (i, j), (k, l)) == lengths[a][b]
                distance_pairs += 1
        done += 1
    report(9, True, f"100 tensor products, {distance_pairs} distances equal BFS")


def test_criterion_10_conjecture_harness_behavior():
    start = time.time()
    found = sg.conjecture_search(1000, max_n=7, seed=2024_10)
    elapsed = time.time() - start
    again = sg.conjecture_search(1000, max_n=7, seed=2024_10)
    assert found == again, "seeded run must be deterministic"
    for cand in found:
        assert sg.is_compatible(cand.g1) and sg.is_compatible(cand.g2)
        assert sg.tensor_is_connected(cand.g1, cand.g2)
        prod = sg.tensor(cand.g1, cand.g2)
        for u, v in cand.product_pairs:
            assert not brute_force_summary(prod, u, v, max_n=prod.n).compatible
    report(
        10,
        True,
        f"1000-trial run completed in {elapsed:.1f}s, deterministic, "
        f"{len(found)} candidates all oracle-confirmed",
    )


def test_criterion_10_zero_counterexamples_as_stated():
    # Stated expectation: the 1000-trial run reports zero counterexamples.
    # That expectation is false as a matter of mathematics: compatibility is
    # not preserved by connected tensor products.  Smallest counterexample,
    # verifiable by hand: all-positive K2 with K4 carrying one negative edge
    # (say 1-3).  Both factors are compatible (K4 is complete, so every pair
    # is adjacent), the product is connected (K4 has triangles), yet the
    # product pair ((0,0),(0,1)) has shortest paths (0,0)-(1,2)-(0,1) of
    # sign +1 and (0,0)-(1,3)-(0,1) of sign -1.  Same-fiber product paths
    # ride length-2 walks of the second factor, which its compatibility (a
    # shortest-path property) does not constrain.  The search is therefore
    # correct to report candidates, and this clause fails honestly.
    found = sg.conjecture_search(1000, max_n=7, seed=2024_10)
    report(10, len(found) == 0, f"zero-counterexample clause: search reported {len(found)} verified candidates")
    assert len(found) == 0, (
        f"the seeded search found {len(found)} verified counterexamples to the "
        "conjectured tensor-product compatibility closure; the smallest known "
        "counterexample is all-positive K2 tensor (K4 with one negative edge), "
        "whose same-fiber pair reaches both signs at distance 2"
    )
