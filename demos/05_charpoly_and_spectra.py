# Exact characteristic polynomials, numeric spectra, and the
# analytic spectrum of lexicographic products with a signed K2.

import numpy as np

import sgdist as sg

# char_poly works in exact integer arithmetic, so coefficients never round:
# a diagonal of 10^7 entries yields 10^42 in the constant term.
m = np.diag([10**7] * 6)
poly = sg.char_poly(m)
print("constant term:", poly.coeffs[-1])
assert poly.coeffs[-1] == (-(10**7)) ** 6 and poly(10**7) == 0

# Distance characteristic polynomial of a compatible signed graph, with its
# human-readable rendering.
d = sg.compatible_distance_matrix(sg.petersen_graph())
print("f(D(+P)) =", sg.char_poly(d))

# Numeric spectra come from LAPACK (numpy eigvalsh), clustered into
# (eigenvalue, multiplicity) pairs.
spec = sg.eig_symmetric(d)
print("spectrum:", spec)
assert str(spec) == "(15 x1) (0 x4) (-3 x5)"

# Substituting the numeric eigenvalues back into the exact polynomial gives
# residuals at roundoff scale.
f = sg.char_poly(d)
for v, _ in spec.entries:
    assert abs(f(v)) < 1e-6 * (1 + np.linalg.norm(d)) ** 10

# Composing a compatible graph with a signed K2 shifts its distance
# spectrum analytically: 2*lam + 1 plus -1 repeated (positive K2), or
# 2*lam - 1 plus +1 repeated (negative K2).
g1 = sg.path_graph(3, [1, -1])
for sign in (1, -1):
    analytic = sg.lex_k2_spectrum(g1, sign)
    product = sg.lexicographic(g1, sg.complete_graph(2, sign))
    direct = sg.eig_symmetric(sg.compatible_distance_matrix(product))
    print(f"K2 sign {sign:+d}: analytic {analytic} | direct {direct}")
    assert np.allclose(analytic.expand(), direct.expand(), atol=1e-6)

# The batched characteristic polynomial path (used by the Petersen census)
# agrees with the scalar exact route.
mats = np.stack([sg.distance_matrix(sg.cycle_graph(5, [s, 1, 1, 1, 1])) for s in (1, -1)])
for mat, batch_poly in zip(mats, sg.char_poly_batch(mats)):
    assert batch_poly.coeffs == sg.char_poly(mat).coeffs
print("batched and scalar characteristic polynomials agree")
