"""
Norm balls, shadows, and slices
===============================

The bound constants are products of two volumes attached to a subspace:
the shadow of the residual-norm ball on the subspace's orthogonal
complement, and the slice of the data-norm ball through the subspace.
Every unit ball has a closed-form volume, and so do the Euclidean
shadows and slices; the others fall back to hit-or-miss sampling over a
certified bounding box.
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
# to the diagonal.  The sampling box happens to equal the shadow exactly,
# so the estimate comes back with zero error.
diag = orthonormal_basis([[1.0, 1.0]])
shadow = projected_ball_volume(linf, diag, n_samples=50_000)
print(f"square shadow across the diagonal: {shadow.value:.6f} "
      f"(exact 2 sqrt 2 = {2 * math.sqrt(2):.6f}, std err {shadow.std_err})")

# Slices: the diagonal chord of the l1 ball (a rotated square) has length
# sqrt 2; this one is a genuine Monte Carlo estimate.
chord = slice_volume(l1, diag, n_samples=200_000)
print(f"l1-ball slice along the diagonal:  {chord.value:.6f} "
      f"(exact sqrt 2 = {math.sqrt(2):.6f}, std err {chord.std_err:.6f})")
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
