# The three signed graph products and how compatibility behaves under them,
# including two counterexamples the randomized harness surfaced.

import sgdist as sg

k2 = sg.complete_graph(2, 1)
c3 = sg.cycle_graph(3, [1, 1, 1])

# Cartesian product: one coordinate moves per step and donates its sign.
q2 = sg.cartesian(k2, k2)
print("K2 x K2 =", q2.edges)  # the 4-cycle

# Lexicographic product: first coordinate dominates.
k4 = sg.lexicographic(k2, k2)
print("K2[K2]  =", k4.edges)  # the complete graph K4

# Tensor product: both coordinates move; signs multiply.  K2 (x) C3 is the
# bipartite double cover of the triangle, a 6-cycle.
c6 = sg.tensor(k2, c3)
print("K2 (x) C3 =", c6.edges)
assert c6.n == 6 and c6.m == 6 and all(c6.degree(v) == 2 for v in range(6))

# Tensor products of connected factors stay connected exactly when one
# factor has an odd cycle; two bipartite factors fall apart.
assert not sg.tensor_is_connected(k2, k2)
assert sg.tensor_is_connected(k2, c3)

# Distances in tensor products come from shortest odd/even walks in the
# factors: d = min(max(od1, od2), max(ed1, ed2)).
c5 = sg.cycle_graph(5, [1] * 5)
print("odd/even distance in C5 at hop 2:", sg.odd_even_distance(c5, 0, 2))
print("distance in C5 (x) K2 between fiber mates:", sg.tensor_distance(c5, k2, (0, 0), (0, 1)))

# Compatibility laws, evaluated by direct computation:
#  - cartesian products are compatible exactly when both factors are;
#  - a compatible first factor with a uniformly signed second factor makes
#    the lexicographic product compatible;
#  - a compatible connected tensor product forces compatible factors.
report = sg.check_product_compatibility_theorems(c3, sg.path_graph(3, [1, 1]))
print("laws on (C3, P3):", report)
assert report["cartesian"]["agrees"]
assert report["lexicographic"]["sufficiency_holds"]
assert report["tensor"]["only_if_holds"]

# Counterexample 1: uniformity of the second factor is NOT necessary.
# K2[K3] is complete for any signs, and complete signed graphs are
# compatible, so a mixed-sign K3 slips through.
k3_mixed = sg.cycle_graph(3, [1, 1, -1])
rep = sg.check_product_compatibility_theorems(k2, k3_mixed)
assert rep["lexicographic"]["product_compatible"] and not rep["lexicographic"]["iff_agrees"]
print("K2[K3 mixed] is compatible although the second factor is not uniform")

# Counterexample 2: compatibility is NOT preserved by tensor products.
# Take K4 with one negative edge (complete, hence compatible): the product
# pair ((0,0),(0,1)) reaches both signs through the two common neighbors.
k4_one_neg = sg.complete_graph(4, 1).with_signs(
    [-1 if (u, v) == (1, 3) else 1 for u, v, _ in sg.complete_graph(4, 1).edges]
)
assert sg.is_compatible(k2) and sg.is_compatible(k4_one_neg)
prod = sg.tensor(k2, k4_one_neg)
pair = (sg.pair_index(0, 0, 4), sg.pair_index(0, 1, 4))
sd = sg.signed_distances(prod)
print(f"K2 (x) K4(one neg) at {pair}: dist={sd.dist[pair]} pos={sd.pos[pair]} neg={sd.neg[pair]}")
assert sd.pos[pair] and sd.neg[pair]
assert not sg.is_compatible(prod)

# The randomized search finds such pairs on its own; every reported product's
# distance tables are certified against the Kronecker form of its factors'
# signed adjacency matrices, which proves its pair list sound and complete.
found = sg.conjecture_search(trials=60, max_n=6, seed=7)
print(f"search: {len(found)} verified counterexample pairs in 60 trials")
