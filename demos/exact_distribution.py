"""Tabulate the exact law of the excursion maximum for three walks.

The driftless walk has pmf 1/(n(n+1)) in closed form, the biased walk a
geometric law with a mass deficit (the walk may never come back), and the
down-perturbed walk a polynomial tail.  All three drop out of the same
product-series table.
"""

from lmax import ConstantWalk, PerturbedWalk, build, max_pmf_table, tail_mass

# The rows printed reach n = 10,000.  tail_mass takes the return
# probability from the same table; for these three walks it is exact at
# any depth (a constant walk's is (1 - p)/p, a recurrent walk's 1).
N_MAX = 100_000

WALKS = [
    ("driftless p = 1/2", ConstantWalk(0.5)),
    ("up-biased p = 2/3", ConstantWalk(2 / 3)),
    ("down-perturbed K=1 B=1", PerturbedWalk(1, 1.0, "minus")),
]

for label, spec in WALKS:
    table = max_pmf_table(build(spec, N_MAX), N_MAX)
    print(f"\n{label}")
    print(f"  {'n':>6}  {'P(M = n)':>12}  {'P(M <= n)':>12}")
    for n in (1, 2, 3, 10, 100, 10_000):
        print(f"  {n:>6}  {table.pmf[n]:>12.6g}  {table.cumulative[n]:>12.6g}")
    tm = tail_mass(table, 10)
    kind = "exact" if tm.exact else f"bracketed in [{tm.lower:.6g}, {tm.upper:.6g}]"
    print(f"  P(M >= 10) = {tm.value:.6g} ({kind})")
    print(f"  total tabulated mass: {table.cumulative[-1]:.9f}")
