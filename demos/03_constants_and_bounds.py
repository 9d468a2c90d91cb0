"""
Volume constants and two-sided measure bounds
=============================================

How much of a ball of data is solvable with K atoms at tolerance tau?
For the two-axis dictionary in the plane the answer is exact geometry: a
union of two perpendicular strips inside a disk.  That makes it a good
place to watch the analytic sandwich at work, because every bound can be
compared with the true area.
"""

import math

from l0geom import (
    Dictionary,
    NormSpec,
    Quantity,
    VolumeEstimate,
    assemble_constants,
    bound_report,
    constants_to_csv,
)

dictionary = Dictionary.from_vectors([[1.0, 0.0], [0.0, 1.0]])
l2 = NormSpec.l2()

# One constant set per sparsity level, in a tuple from level 0; a bound
# at level K reads the levels bounds.report_levels names.  With Euclidean
# norms everything here is closed form: no sampling, no uncertainty.
constants = tuple(assemble_constants(dictionary, l2, l2, K) for K in range(3))
print(constants_to_csv(constants))

# C_1 = 8 is two lines times (shadow length 2) x (slice length 2); the
# overlap column Q_0 = 8 pi accounts for the two tubes crossing near the
# origin, and Delta_K is the validity gate: bounds hold for theta at
# least Delta_K times tau.

theta = 1.0
disk = VolumeEstimate(math.pi)


def exact_measure(tau):
    # Two chord strips of half-width tau, minus their shared square.
    return 4.0 * (tau * math.sqrt(1.0 - tau * tau) + math.asin(tau)) - 4.0 * tau * tau


print("measure of the one-atom-solvable set, bounds vs exact area")
print("tau      lower      exact      upper")
for tau in (0.01, 0.02, 0.05, 0.1):
    report = bound_report(Quantity.MEASURE_LEQ, 1, tau, theta, constants)
    print(f"{tau:<8} {report.lower:<10.6f} {exact_measure(tau):<10.6f} {report.upper:.6f}")
print()

# The same machinery bounds probabilities (divide by the disk area) and
# the expected number of atoms needed.  Shrinking tau tightens both ends
# onto the leading term C_1 tau / pi.
print("expected atoms needed, bounds vs exact value")
print("tau      lower      exact      upper")
for tau in (0.01, 0.02, 0.05):
    report = bound_report(Quantity.EXPECT, None, tau, theta, constants, disk)
    exact = 2.0 - tau * tau - exact_measure(tau) / math.pi
    print(f"{tau:<8} {report.lower:<10.6f} {exact:<10.6f} {report.upper:.6f}")
print()

# Outside the validity region the report refuses to guess.
report = bound_report(Quantity.MEASURE_LEQ, 1, 0.6, theta, constants)
print(f"tau = 0.6 at theta = 1: valid = {report.valid}, bounds = "
      f"({report.lower}, {report.upper})")
