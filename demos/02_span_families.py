"""
Families of atom spans and their intersections
==============================================

Counting subsets overcounts geometry: different atom subsets can span
the same subspace.  The family enumerator keeps one representative per
distinct span, remembers which subset produced it, and the pair
enumerator groups distinct same-size spans by the dimension in which
they meet.
"""

import math

import numpy as np

from l0geom import Dictionary, enumerate_pairs, enumerate_spans, intersection_dim

# Five atoms in R^3, arranged so that redundancy actually happens: atom 3
# is a multiple of atom 0, and atom 4 lies in the plane of atoms 0 and 1.
dictionary = Dictionary.from_vectors(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-2.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
    ]
)
m = dictionary.n_atoms

for K in range(4):
    family = enumerate_spans(dictionary, K)
    print(f"K = {K}: {len(family.members)} spans from {math.comb(m, K)} subsets")
    for member in family.members:
        print(f"    atoms {member.provenance}")
print()

# K = 1 shows the first collapse: atoms 0 and 3 are the same line, so
# five atoms give only four lines.  K = 3 always collapses to the single
# full space for a spanning dictionary.

# Distinct spans of equal size meet in a lower-dimensional subspace.  For
# planes in R^3 the only possibility is a line; the pair listing is a
# (P, 2) array of ordered pairs, so each unordered pair appears twice.
family2 = enumerate_spans(dictionary, 2)
pairs = enumerate_pairs(family2, 1)
print(f"plane pairs meeting in a line: {len(pairs)} ordered pairs")
a, b = pairs[0].tolist()
meet = intersection_dim(family2.members[a], family2.members[b])
print(f"example: spans {family2.members[a].provenance} and "
      f"{family2.members[b].provenance} meet in dimension {meet}")
print()

# A generic (random) dictionary has no collapses below the top level:
# every size-K subset with K < 3 spans its own subspace, so the family
# sizes hit the binomial ceiling.  At K = 3 all subsets span R^3 itself,
# and the family is the single full space.
rng = np.random.default_rng(5)
generic = Dictionary.from_vectors(rng.standard_normal((5, 3)))
for K in range(3):
    family = enumerate_spans(generic, K)
    print(f"generic K = {K}: {len(family.members)} == C(5,{K}) = {math.comb(5, K)}")
print(f"generic K = 3: {len(enumerate_spans(generic, 3).members)} (always one)")
