"""Dimension diagnostics: pointwise ratios, pressure roots, length decay.

The log-mass / log-length ratio along typical paths climbs toward 1, the
finite-state pressure root s*(K) climbs toward 1 as the cutoff grows, and
the total length of the construction tree decays to 0.  Together these are
the numerical shadow of full Hausdorff dimension with zero Lebesgue
measure.  Run as: python3 demos/demo_dimension.py
"""
import math
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
    finals.append(dim_series(path.states[1:], Fraction(9, 10)).ratio[-1])
print(f"  median final ratio: {np.median(finals):.4f}")
print(f"  5th percentile:     {np.quantile(finals, 0.05):.4f}")
print("  (the ratio tends to 1 as alpha -> 1 and depth -> infinity)")
print()

print("progress of one path's ratio with depth:")
path = simulate_path(WalkParams(kind="dissipative", steps=20000, seed=SEED,
                                alpha=Fraction(9, 10)))
series = dim_series(path.states[1:], Fraction(9, 10))
for n in (10, 100, 1000, 10000, 20000):
    print(f"  depth {n:6d}: ratio = {series.ratio[n - 1]:.4f}")
print()


def outward(lo, hi, digits):
    """[lo, hi] widened to the given number of decimals."""
    scale = 10 ** digits
    return (f"[{math.floor(lo * scale) / scale:.{digits}f}, "
            f"{math.ceil(hi * scale) / scale:.{digits}f}]")


print("pressure root s*(K) of the truncated transfer operator: its certified")
print("bracket [lo, hi] and the bracket [K(1 - hi), K(1 - lo)] of the gap")
print("K(1 - s*), both rounded outward:")
gaps = {}
for cutoff in (1, 5, 20, 100, 500, 1000, 2000, 4000, 8000):
    lo, hi = pressure_dimension(cutoff).s_bracket
    gaps[cutoff] = (cutoff * (1 - hi), cutoff * (1 - lo))
    print(f"  K = {cutoff:4d}: s* in {outward(lo, hi, 7)}"
          f"   K(1 - s*) in {outward(*gaps[cutoff], 4)}")
far = [g for k, g in gaps.items() if k >= 500]
print("  (monotone in K, approaching dimension 1 from below; each lo is a")
print("  rigorous lower bound.  From K = 500 on, every bracket of K(1 - s*)")
print(f"  lies in {outward(min(g[0] for g in far), max(g[1] for g in far), 4)},"
      " which is consistent with a gap that")
print("  closes like c/K)")
print()

print("total length of the level-n truncated tree (cutoff 500):")
decay = lebesgue_mass_decay(30, 500)
for n in (1, 5, 10, 20, 30):
    print(f"  level {n:2d}: {decay.level_mass[n - 1]:.6f}"
          f"   (overcount bound {decay.overcount_bound[n - 1]:.4f})")
print("  (strictly decreasing: the limit set is Lebesgue-null)")
