"""
Norm balls, shadows, and slices
===============================

The bound constants are products of two volumes attached to a subspace:
the shadow of the residual-norm ball on the subspace's orthogonal
complement, and the slice of the data-norm ball through the subspace.
Every unit ball has a closed-form volume, and so do the Euclidean
shadows and slices.  Shadows and slices of the l1, linf and weighted-l1
balls are polytopes with exact volumes; only weighted lp balls with
p > 1 fall back to hit-or-miss sampling over a certified bounding box.
"""

import math

from l0geom import (
    NormSpec,
    ball_volume,
    compute_equiv_constants,
    euclid_ball_volume,
    orthonormal_basis,
    projected_ball_volume,
    slice_volume,
)

l1, l2, linf = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()

# Unit-ball volumes are closed form for every norm, weighted-p included:
# (2 Gamma(1 + 1/p))^n / (Gamma(1 + n/p) prod w), with zero standard error.
print("unit ball volumes in R^3")
for name, spec in (("l1", l1), ("l2", l2), ("linf", linf)):
    print(f"  {name:<4} {ball_volume(spec, 3).value:.6f}")
wlp = NormSpec.weighted_lp(3.0, [1.0, 1.0, 0.5])
print(f"  wlp  {ball_volume(wlp, 3).value:.6f}  (p=3, weights 1,1,0.5)")
print()

# Shadows: project the linf ball (a square) onto the direction orthogonal
# to the diagonal.  The shadow of a cube is a zonotope, whose volume is a
# sum of determinants, so it comes back exact with zero error.
diag = orthonormal_basis([[1.0, 1.0]])
shadow = projected_ball_volume(linf, diag)
print(f"square shadow across the diagonal: {shadow.value:.6f} "
      f"(exact 2 sqrt 2 = {2 * math.sqrt(2):.6f}, std err {shadow.std_err})")

# Slices: the diagonal chord of the l1 ball (a rotated square) has length
# sqrt 2, priced exactly as a polytope volume.  The l3 ball has no exact
# slice volume in general, so its slice by the plane {x2 = x3} in R^3 is a
# genuine Monte Carlo estimate; that plane happens to slice it into an l3
# disk stretched by 2^(1/6), which checks the estimate.
chord = slice_volume(l1, diag)
print(f"l1-ball slice along the diagonal:  {chord.value:.6f} "
      f"(exact sqrt 2 = {math.sqrt(2):.6f}, std err {chord.std_err})")
l3 = NormSpec.weighted_lp(3.0, [1.0, 1.0, 1.0])
plane = orthonormal_basis([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
disk = slice_volume(l3, plane, n_samples=200_000)
stretched = ball_volume(NormSpec.weighted_lp(3.0, [1.0, 1.0]), 2).value * 2 ** (1 / 6)
print(f"l3-ball slice by x2 = x3:          {disk.value:.6f} "
      f"(exact {stretched:.6f}, std err {disk.std_err:.6f})")
print()

# Euclidean closed forms: shadow and slice of the l2 ball are lower
# dimensional l2 balls, no sampling involved.
line3 = orthonormal_basis([[1.0, 2.0, 2.0]])
print(f"l2 shadow across a line in R^3: {projected_ball_volume(l2, line3).value:.6f} "
      f"(alpha(2) = {euclid_ball_volume(2):.6f})")
print(f"l2 slice along that line:       {slice_volume(l2, line3).value:.6f} "
      f"(alpha(1) = {euclid_ball_volume(1):.6f})")
print()

# The box half-widths behind the sampling come from norm comparison
# constants: data <= delta1 l2 <= delta1 delta2 fidelity, and so on.
equiv = compute_equiv_constants(linf, l1, 3)
print("comparison constants for linf residual / l1 data in R^3:")
print(f"  delta1 = {equiv.delta1}  delta2 = {equiv.delta2}  "
      f"delta3 = {equiv.delta3}  product bound = {equiv.delta_bar}")
