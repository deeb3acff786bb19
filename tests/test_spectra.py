import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sgdist as sg
from sgdist import spectra
from conftest import bigint_charpoly, naive_charpoly, random_balanced_connected, random_connected_signed

C4_ONE_NEG = sg.cycle_graph(4, [-1, 1, 1, 1])
K2P = sg.complete_graph(2, 1)
K2N = sg.complete_graph(2, -1)


def rand_int_matrix(rng, n, lo=-4, hi=4):
    return np.array([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)], dtype=np.int64)


# -- kron ----------------------------------------------------------------------

def test_kron_identity_blocks():
    b = np.array([[1, 2], [3, 4]])
    out = sg.kron(np.eye(2, dtype=int), b)
    assert np.array_equal(out[:2, :2], b)
    assert np.array_equal(out[2:, 2:], b)
    assert not out[:2, 2:].any() and not out[2:, :2].any()


def test_kron_small():
    assert np.array_equal(
        sg.kron(np.array([[0, 1], [1, 0]]), np.array([[2]])),
        np.array([[0, 2], [2, 0]]),
    )


def test_kron_mixed_product_property():
    rng = random.Random(2)
    for _ in range(20):
        a = rand_int_matrix(rng, 2)
        b = rand_int_matrix(rng, 3)
        c = rand_int_matrix(rng, 2)
        d = rand_int_matrix(rng, 3)
        assert np.array_equal(sg.kron(a, b) @ sg.kron(c, d), sg.kron(a @ c, b @ d))


# -- exact characteristic polynomials -------------------------------------------

def test_char_poly_zero_matrix():
    assert sg.char_poly(np.zeros((2, 2), dtype=int)).coeffs == (1, 0, 0)


def test_char_poly_petersen():
    poly = sg.char_poly(sg.distance_matrix(sg.petersen_graph()))
    assert poly.coeffs == (1, 0, -135, -1080, -3645, -5832, -3645, 0, 0, 0, 0)


def test_char_poly_matches_cofactor_oracle_c4():
    d = sg.distance_matrix(C4_ONE_NEG, "max")
    assert list(sg.char_poly(d).coeffs) == naive_charpoly(d)


def test_char_poly_matches_cofactor_oracle_random():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            m = rand_int_matrix(rng, n)
            assert list(sg.char_poly(m).coeffs) == naive_charpoly(m)


def test_char_poly_rejects_non_square_and_non_integer():
    with pytest.raises(ValueError, match="square"):
        sg.char_poly(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="not an integer"):
        sg.char_poly(np.array([[0.5, 0], [0, 0]]))


def test_char_poly_newton_identities():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_signed(rng, 2, 8)
        d = sg.distance_matrix(g, "max")
        coeffs = sg.char_poly(d).coeffs
        tr = int(np.trace(d))
        tr2 = int(np.trace(d @ d))
        assert coeffs[1] == -tr == 0
        assert coeffs[2] == (tr * tr - tr2) // 2


def test_char_poly_permutation_and_switching_invariance():
    rng = random.Random(7)
    for _ in range(15):
        g = random_connected_signed(rng, 2, 8)
        d = sg.distance_matrix(g, "max")
        base = sg.char_poly(d).coeffs
        perm = list(range(g.n))
        rng.shuffle(perm)
        p = np.zeros((g.n, g.n), dtype=np.int64)
        for i, j in enumerate(perm):
            p[i, j] = 1
        assert sg.char_poly(p @ d @ p.T).coeffs == base
        s = np.diag([rng.choice((1, -1)) for _ in range(g.n)])
        assert sg.char_poly(s @ d @ s).coeffs == base


def test_char_poly_big_integers_stay_exact():
    # Entries large enough that naive int64 accumulation would overflow.
    m = np.diag([10**7] * 6)
    poly = sg.char_poly(m)
    assert poly.coeffs[-1] == (-(10**7)) ** 6
    assert poly(10**7) == 0


def test_char_poly_batch_matches_scalar_route():
    rng = random.Random(11)
    mats = np.stack([rand_int_matrix(rng, 6) for _ in range(40)])
    batch = sg.char_poly_batch(mats)
    for m, poly in zip(mats, batch):
        assert poly.coeffs == sg.char_poly(m).coeffs == bigint_charpoly(m)


def test_char_poly_batch_overflow_falls_back():
    # Products of these entries overflow int64; the modular route needs no fallback.
    m = np.diag([2**31] * 4).astype(np.int64)
    batch = sg.char_poly_batch(m[None, :, :])
    assert batch[0].coeffs == bigint_charpoly(m)
    assert batch[0].coeffs[-1] == 2**124


def test_char_poly_batch_trace_overflow_regression():
    # Every entry of a @ b fits in int64 here but their 2-term trace wraps.
    m = np.array([[-1719420889, -1788038681], [1766298163, -1771283206]], dtype=np.int64)
    batch = sg.char_poly_batch(m[None, :, :])
    assert batch[0].coeffs == bigint_charpoly(m)
    assert batch[0].coeffs[-1] == 6203790782354533137


def test_char_poly_batch_int64_min_entries():
    lo = np.iinfo(np.int64).min
    stack = np.array([[[lo, 0], [0, 0]], [[0, 1], [lo, 0]], [[lo, 1], [1, 1]]], dtype=np.int64)
    want = [bigint_charpoly(m) for m in stack]
    assert [p.coeffs for p in sg.char_poly_batch(stack)] == want
    assert [sg.char_poly_batch(m[None, :, :])[0].coeffs for m in stack] == want
    assert [sg.char_poly(m).coeffs for m in stack] == want
    assert want[0] == (1, 2**63, 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=12, max_value=34), st.data())
def test_char_poly_batch_exact_near_int64_guard(n, bits, data):
    # Entry sizes from 2^12 to 2^34 put int64 products on both sides of overflow.
    entry = st.integers(min_value=-(2**bits), max_value=2**bits)
    mats = np.array(
        data.draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n), min_size=1, max_size=3)),
        dtype=np.int64,
    )
    assert [p.coeffs for p in sg.char_poly_batch(mats)] == [bigint_charpoly(m) for m in mats]


def square_stacks(n, entry):
    return st.lists(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_char_poly_exact_with_huge_entries(n, data):
    # Nested lists of Python ints past int64, and int64 stacks up to its limits.
    big = data.draw(square_stacks(n, st.integers(min_value=-(2**70), max_value=2**70)))
    want = [bigint_charpoly(m) for m in big]
    assert [p.coeffs for p in sg.char_poly_batch(big)] == want
    assert [sg.char_poly(m).coeffs for m in big] == want
    i64 = np.iinfo(np.int64)
    stack = np.array(data.draw(square_stacks(n, st.integers(min_value=i64.min, max_value=i64.max))), dtype=np.int64)
    want = [bigint_charpoly(m) for m in stack]
    assert [p.coeffs for p in sg.char_poly_batch(stack)] == want
    assert [sg.char_poly(m).coeffs for m in stack] == want


def test_char_poly_orders_zero_and_one():
    assert sg.char_poly(np.zeros((0, 0), dtype=np.int64)).coeffs == (1,)
    assert [p.coeffs for p in sg.char_poly_batch(np.zeros((2, 0, 0), dtype=np.int64))] == [(1,), (1,)]
    assert sg.char_poly([[5]]).coeffs == (1, -5)
    assert sg.char_poly([[-(2**70)]]).coeffs == (1, 2**70)
    assert [p.coeffs for p in sg.char_poly_batch(np.array([[[3]], [[-4]]]))] == [(1, -3), (1, 4)]


def test_char_poly_batch_empty_stack():
    assert sg.char_poly_batch(np.zeros((0, 3, 3), dtype=np.int64)) == []


def test_char_poly_c39_matches_oracle():
    d = sg.distance_matrix(sg.cycle_graph(39, [1] * 38 + [-1]))
    want = bigint_charpoly(d)
    assert sg.char_poly(d).coeffs == want
    assert sg.char_poly_batch(d[None])[0].coeffs == want


def test_char_poly_batch_splits_under_small_budget(monkeypatch):
    # A budget of three 6x6 float64 working sets forces both the stack and
    # the prime set to be split.
    rng = random.Random(43)
    mats = np.stack([rand_int_matrix(rng, 6, -(2**40), 2**40) for _ in range(7)])
    want = [bigint_charpoly(m) for m in mats]
    calls = []
    inner = spectra._char_poly_residues

    def spy(a, primes):
        calls.append((len(a), len(primes)))
        return inner(a, primes)

    monkeypatch.setattr(spectra, "_char_poly_residues", spy)
    monkeypatch.setattr(spectra, "_WORK_BYTES", 3 * spectra._LIVE_ARRAYS * 8 * 36)
    assert [p.coeffs for p in sg.char_poly_batch(mats)] == want
    assert len(calls) > 1 and all(count * primes <= 3 for count, primes in calls)
    assert max(count for count, _ in calls) == 3
    calls.clear()
    assert sg.char_poly(mats[0]).coeffs == want[0]
    assert len(calls) > 1 and max(primes for _, primes in calls) == 3


def test_polynomial_rendering():
    poly = sg.char_poly(sg.distance_matrix(sg.petersen_graph()))
    assert str(poly) == "λ^10 - 135λ^8 - 1080λ^7 - 3645λ^6 - 5832λ^5 - 3645λ^4"
    assert str(sg.IntPolynomial((1, 0, -1))) == "λ^2 - 1"
    assert str(sg.IntPolynomial((1, 1))) == "λ + 1"


# -- formulas -------------------------------------------------------------------

def test_cartesian_formula_k2_pair():
    f = sg.cartesian_distance_formula(K2N, K2P)
    assert f[0, 3] == -2
    prod = sg.cartesian(K2N, K2P)
    assert np.array_equal(f, sg.distance_matrix(prod, "max"))
    assert np.array_equal(f, sg.distance_matrix(prod, "min"))


def test_cartesian_formula_all_positive_c4():
    f = sg.cartesian_distance_formula(K2P, K2P)
    expected = np.array([[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]])
    assert np.array_equal(f, expected)


def test_cartesian_formula_random_cross_check():
    rng = random.Random(13)
    done = 0
    while done < 25:
        g1 = random_balanced_connected(rng, 2, 6)
        g2 = random_connected_signed(rng, 2, 6)
        if g1.n * g2.n > 36 or not sg.is_compatible(g2):
            continue
        f = sg.cartesian_distance_formula(g1, g2)
        prod = sg.cartesian(g1, g2)
        assert np.array_equal(f, sg.distance_matrix(prod, "max"))
        assert np.array_equal(f, sg.distance_matrix(prod, "min"))
        done += 1


def test_cartesian_formula_rejects_incompatible():
    with pytest.raises(ValueError, match="incompatible"):
        sg.cartesian_distance_formula(C4_ONE_NEG, K2P)


def test_lexicographic_formula_k4():
    f = sg.lexicographic_distance_formula(K2P, K2P)
    assert np.array_equal(f, np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))


def test_lexicographic_formula_negative_second_factor():
    f = sg.lexicographic_distance_formula(K2P, K2N)
    block = np.array([[0, -1], [-1, 0]])
    assert np.array_equal(f[:2, :2], block) and np.array_equal(f[2:, 2:], block)
    assert np.array_equal(f[:2, 2:], np.ones((2, 2), dtype=int))
    prod = sg.lexicographic(K2P, K2N)
    assert np.array_equal(f, sg.distance_matrix(prod, "max"))


def test_lexicographic_formula_long_negative_second_factor():
    # Second factor all-negative with odd distances >= 3: the within-copy
    # block must still use the +2 distance-2 entries of the product.
    p4n = sg.path_graph(4, [-1, -1, -1])
    f = sg.lexicographic_distance_formula(K2P, p4n)
    prod = sg.lexicographic(K2P, p4n)
    assert np.array_equal(f, sg.distance_matrix(prod, "max"))
    assert np.array_equal(f, sg.distance_matrix(prod, "min"))
    assert f[0, 3] == 2


def test_lexicographic_formula_random_cross_check():
    rng = random.Random(17)
    done = 0
    while done < 25:
        g1 = random_connected_signed(rng, 2, 6)
        if not sg.is_compatible(g1):
            continue
        g2 = random_connected_signed(rng, 1, 6)
        g2 = g2.with_signs([rng.choice((1, -1))] * g2.m)
        if g1.n * g2.n > 36:
            continue
        f = sg.lexicographic_distance_formula(g1, g2)
        prod = sg.lexicographic(g1, g2)
        assert np.array_equal(f, sg.distance_matrix(prod, "max"))
        assert np.array_equal(f, sg.distance_matrix(prod, "min"))
        done += 1


def test_lexicographic_formula_hypothesis_violations():
    with pytest.raises(ValueError, match="all-positive or all-negative"):
        sg.lexicographic_distance_formula(K2P, sg.path_graph(3, [1, -1]))
    with pytest.raises(ValueError, match=">= 2 vertices"):
        sg.lexicographic_distance_formula(sg.SignedGraph(1, ()), K2P)


# -- numeric spectra -------------------------------------------------------------

def test_eig_petersen_both_signs():
    plus = sg.eig_symmetric(sg.distance_matrix(sg.petersen_graph(1)))
    assert [(round(v), m) for v, m in plus.entries] == [(15, 1), (0, 4), (-3, 5)]
    for v, _ in plus.entries:
        assert abs(v - round(v)) < 1e-8
    minus = sg.eig_symmetric(sg.distance_matrix(sg.petersen_graph(-1)))
    assert [(round(v), m) for v, m in minus.entries] == [(9, 1), (4, 4), (-5, 5)]
    for v, _ in minus.entries:
        assert abs(v - round(v)) < 1e-8


def test_petersen_closed_forms():
    pplus = sg.petersen_graph(1)
    pminus = sg.petersen_graph(-1)
    j = np.ones((10, 10), dtype=np.int64)
    i = np.eye(10, dtype=np.int64)
    assert np.array_equal(sg.distance_matrix(pplus), 2 * j - 2 * i - sg.adjacency_matrix(pplus))
    assert np.array_equal(sg.distance_matrix(pminus), 2 * j - 2 * i + 3 * sg.adjacency_matrix(pminus))


def test_eig_zero_matrix():
    spec = sg.eig_symmetric(np.zeros((5, 5), dtype=int))
    assert spec.entries == ((0.0, 5),)


def test_eig_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sg.eig_symmetric(np.array([[0, 1], [2, 0]]))


def test_eig_matches_numpy_oracle():
    # Independent route: the general (non-symmetric) LAPACK eigensolver,
    # plus the trace and the Frobenius norm as exact integer moments.
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(2, 12)
        m = rand_int_matrix(rng, n)
        m = m + m.T
        spec = sg.eig_symmetric(m)
        atol = 1e-9 * max(1.0, np.linalg.norm(m))
        ref = np.linalg.eigvals(m.astype(float))
        assert np.allclose(ref.imag, 0, atol=atol)
        assert np.allclose(spec.expand(), np.sort(ref.real)[::-1], atol=atol)
        assert abs(sum(v * k for v, k in spec.entries) - np.trace(m)) <= n * atol
        assert abs(sum(v * v * k for v, k in spec.entries) - (m * m).sum()) <= n * atol * max(1.0, np.linalg.norm(m))


def test_eig_residuals_and_trace():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_signed(rng, 3, 9)
        d = sg.distance_matrix(g, "max")
        spec = sg.eig_symmetric(d)
        assert spec.order == g.n
        norm = np.linalg.norm(d)
        poly = sg.char_poly(d)
        for v, m in spec.entries:
            assert abs(poly(v)) <= 1e-6 * (1 + norm) ** g.n
        assert abs(sum(v * m for v, m in spec.entries)) <= 1e-8 * max(1.0, norm)


def test_cluster_eigenvalues():
    spec = sg.cluster_eigenvalues([1.0, 1.0 + 1e-9, -2.0], tol=1e-6)
    assert [(round(v), m) for v, m in spec.entries] == [(1, 2), (-2, 1)]
    assert spec.order == 3


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_bad_tolerance_rejected(tol):
    msg = r"tol must be a finite number >= 0, got "
    with pytest.raises(ValueError, match=msg):
        sg.cluster_eigenvalues([1.0, 1.0, -2.0], tol=tol)
    with pytest.raises(ValueError, match=msg):
        sg.eig_symmetric(sg.distance_matrix(sg.cycle_graph(3, [1, 1, -1])), tol=tol)
    with pytest.raises(ValueError, match=msg):
        sg.lex_k2_spectrum(K2P, 1, tol=tol)


def test_zero_tolerance_accepted():
    spec = sg.cluster_eigenvalues([1.0, 1.0, -2.0], tol=0.0)
    assert spec.entries == ((1.0, 2), (-2.0, 1))


def test_spectrum_rendering():
    spec = sg.eig_symmetric(sg.distance_matrix(sg.petersen_graph()))
    assert str(spec) == "(15 x1) (0 x4) (-3 x5)"


# -- lexicographic K2 spectrum ----------------------------------------------------

def expand_sorted(spec):
    return np.array(spec.expand())


def test_lex_k2_spectrum_positive():
    analytic = sg.lex_k2_spectrum(K2P, 1)
    assert [(round(v), m) for v, m in analytic.entries] == [(3, 1), (-1, 3)]
    direct = sg.eig_symmetric(sg.compatible_distance_matrix(sg.lexicographic(K2P, K2P)))
    assert np.allclose(expand_sorted(analytic), expand_sorted(direct), atol=1e-6)


def test_lex_k2_spectrum_negative():
    analytic = sg.lex_k2_spectrum(K2P, -1)
    assert [(round(v), m) for v, m in analytic.entries] == [(1, 3), (-3, 1)]
    direct = sg.eig_symmetric(sg.compatible_distance_matrix(sg.lexicographic(K2P, K2N)))
    assert np.allclose(expand_sorted(analytic), expand_sorted(direct), atol=1e-6)


def test_lex_k2_spectrum_petersen():
    analytic = sg.lex_k2_spectrum(sg.petersen_graph(), 1)
    assert [(round(v), m) for v, m in analytic.entries] == [(31, 1), (1, 4), (-1, 10), (-5, 5)]
    direct = sg.eig_symmetric(
        sg.compatible_distance_matrix(sg.lexicographic(sg.petersen_graph(), K2P))
    )
    assert np.allclose(expand_sorted(analytic), expand_sorted(direct), atol=1e-6)


def test_lex_k2_spectrum_random_cross_check():
    rng = random.Random(29)
    done = 0
    while done < 10:
        g1 = random_connected_signed(rng, 2, 7)
        if not sg.is_compatible(g1):
            continue
        for k2sign, k2 in ((1, K2P), (-1, K2N)):
            analytic = sg.lex_k2_spectrum(g1, k2sign)
            direct = sg.eig_symmetric(sg.compatible_distance_matrix(sg.lexicographic(g1, k2)))
            assert np.allclose(expand_sorted(analytic), expand_sorted(direct), atol=1e-6)
        done += 1


def test_lex_k2_spectrum_bad_sign():
    with pytest.raises(ValueError, match="sign"):
        sg.lex_k2_spectrum(K2P, 0)
