# Signed shortest-path distances, the two distance matrices, and
# distance compatibility.

import numpy as np

import sgdist as sg

# A 4-cycle with exactly one negative edge is the smallest interesting
# example: the two antipodal pairs each have one positive and one negative
# shortest path.
g = sg.cycle_graph(4, [-1, 1, 1, 1])
print("edges:", g.edges)

# One pass from every source reports, per pair, the hop distance and
# whether a positive / a negative shortest path exists.
sd = sg.signed_distances(g)
for v in range(g.n):
    print(f"  0 -> {v}: dist={sd.dist[0, v]} pos={sd.pos[0, v]} neg={sd.neg[0, v]}")

# The two distance matrices weight each distance by the max / min sign.
dmax = sg.distance_matrix(g, "max")
dmin = sg.distance_matrix(g, "min")
print("D_max:\n", dmax)
print("D_min:\n", dmin)
assert dmax[0, 2] == 2 and dmin[0, 2] == -2

# The matrices differ exactly at the incompatible pairs.
print("incompatible pairs:", sg.incompatible_pairs(g))
assert not sg.is_compatible(g)

# Every incompatible graph contains a canonical certificate: two
# internally disjoint opposite-sign shortest paths between a closest
# incompatible pair, closing into a negative even cycle.
w = sg.least_incompatible_witness(g)
print("witness:", w)
assert sg.cycle_sign(g, w.cycle) == -1

# Balanced graphs (all cycles positive) are always compatible: switching
# the all-positive 5-cycle by any vertex signing keeps it balanced.
c5 = sg.cycle_graph(5, [1] * 5)
switched = sg.switch(c5, [1, -1, 1, -1, -1])
assert sg.is_balanced(switched) and sg.is_compatible(switched)
print("switched C5 edges:", switched.edges)

# For a compatible graph both matrices coincide; joining non-adjacent
# pairs with their shortest-path sign gives the associated complete graph.
p3 = sg.path_graph(3, [1, -1])
assert sg.is_compatible(p3)
print("associated complete graph of P3(+,-):", sg.associated_complete(p3).edges)
print("D(P3):\n", sg.compatible_distance_matrix(p3))
assert np.array_equal(sg.compatible_distance_matrix(p3), sg.distance_matrix(p3, "min"))
