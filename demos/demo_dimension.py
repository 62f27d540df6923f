"""Dimension diagnostics: pointwise ratios, pressure roots, length decay.

The log-mass / log-length ratio along typical paths climbs toward 1, the
finite-state pressure root s*(K) climbs toward 1 as the cutoff grows, and
the total length of the construction tree decays to 0.  Together these are
the numerical shadow of full Hausdorff dimension with zero Lebesgue
measure.  Run as: python3 demos/demo_dimension.py
"""
from fractions import Fraction

import numpy as np

from cantorwalk.dimension import (
    dim_series, lebesgue_mass_decay, pressure_dimension)
from cantorwalk.walks import WalkParams, simulate_path

SEED = 515

print("pointwise ratio log mu / log length along simulated paths")
print("(alpha = 9/10, 50 paths, depth 20000):")
finals = []
for i in range(50):
    path = simulate_path(WalkParams(kind="dissipative", steps=20000,
                                    seed=SEED, alpha=Fraction(9, 10)),
                         path_id=i)
    finals.append(dim_series(path, Fraction(9, 10)).ratio[-1])
print(f"  median final ratio: {np.median(finals):.4f}")
print(f"  5th percentile:     {np.quantile(finals, 0.05):.4f}")
print("  (the ratio tends to 1 as alpha -> 1 and depth -> infinity)")
print()

print("progress of one path's ratio with depth:")
path = simulate_path(WalkParams(kind="dissipative", steps=20000, seed=SEED,
                                alpha=Fraction(9, 10)))
series = dim_series(path, Fraction(9, 10))
for n in (10, 100, 1000, 10000, 20000):
    print(f"  depth {n:6d}: ratio = {series.ratio[n - 1]:.4f}")
print()

print("pressure root s*(K) of the truncated transfer operator,")
print("with its certified bracket [lo, hi] and the gap K * (1 - s*):")
for cutoff in (1, 5, 20, 100, 500, 1000, 2000, 4000, 8000):
    est = pressure_dimension(cutoff)
    lo, hi = est.s_bracket
    print(f"  K = {cutoff:4d}: s* = {est.s_star:.6f}"
          f"   [{lo:.7f}, {hi:.7f}]   K(1 - s*) = "
          f"{cutoff * (1 - est.s_star):.4f}")
print("  (monotone in K, approaching dimension 1 from below; each lo is a")
print("  rigorous lower bound, and K(1 - s*) levels off near 0.95, so the")
print("  gap closes like c/K)")
print()

print("total length of the level-n truncated tree (cutoff 500):")
decay = lebesgue_mass_decay(30, 500)
for n in (1, 5, 10, 20, 30):
    print(f"  level {n:2d}: {decay.level_mass[n - 1]:.6f}"
          f"   (overcount bound {decay.overcount_bound[n - 1]:.4f})")
print("  (strictly decreasing: the limit set is Lebesgue-null)")
