"""Hitting probabilities and return probabilities for a few walks.

hit_before(a, k, b) is the chance of reaching level a before level b when
starting from k.  For the driftless walk this is the classic ruin line
(b - k)/(b - a); drift bends the line into a curve.  return_prob brackets
the probability of ever revisiting the origin; it is exactly 1 for
recurrent walks and strictly below 1 for transient ones.
"""

from lmax import (
    ConstantWalk,
    HittingQuery,
    PerturbedWalk,
    build,
    hit_before,
    return_prob,
)

A, B = 0, 20

print(f"P(hit {A} before {B}) as the start point k moves:\n")
print(f"  {'k':>3}  {'p=0.5':>9}  {'p=0.55':>9}  {'plus K=1 B=2':>13}")
walks = [ConstantWalk(0.5), ConstantWalk(0.55), PerturbedWalk(1, 2.0, "plus")]
tables = [build(spec, B - 1) for spec in walks]
for k in range(A, B + 1, 2):
    row = [hit_before(s, HittingQuery(A, k, B)) for s in tables]
    print(f"  {k:>3}  {row[0]:>9.5f}  {row[1]:>9.5f}  {row[2]:>13.5f}")

print("\nreturn probability (bracketed by truncation + tail estimate):")
returners = [
    ("driftless p = 1/2", ConstantWalk(0.5)),
    ("up-biased p = 2/3", ConstantWalk(2 / 3)),
    ("up-perturbed K=1 B=2", PerturbedWalk(1, 2.0, "plus")),
]
for label, spec in returners:
    rp = return_prob(build(spec, 100_000), tolerance=1e-5)
    print(
        f"  {label:<22} {rp.value:.8f}"
        f"  [{rp.lower:.8f}, {rp.upper:.8f}]  via {rp.method}"
    )
