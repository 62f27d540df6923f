"""Walk through the exact interval construction by hand.

Prints the first few fundamental intervals, checks the half-filling
identity numerically, and shows a hole shrinking relative to its interval.
Run as: python3 demos/demo_construction.py
"""
from cantorwalk import AdmissibleWord, children
from cantorwalk.geometry import (
    cylinder_interval, hole, left_block_partition_bracket, q_value)

q = float(q_value(64))
print(f"construction constant q = 3/pi^2 = {q:.15f}")
print()

print("level-1 intervals (the left block of the root):")
for k in range(1, 6):
    g = cylinder_interval(AdmissibleWord((k,)))
    left = float(g.left.evaluate(64))
    length = float(g.length_poly.evaluate(64))
    print(f"  I_{k}: left = {left:.10f}  length = q/{k * k} = {length:.10f}")
print("  ... accumulating at q * zeta(2) = 1/2, the root midpoint")
print()

print("children of I_1 (note the flush-right block and the hole):")
for c in children(AdmissibleWord((1,)), 3):
    g = cylinder_interval(c)
    left = float(g.left.evaluate(64))
    right = left + float(g.length_poly.evaluate(64))
    print(f"  I_{{{c}}}: [{left:.10f}, {right:.10f})")
h = hole(AdmissibleWord((1,)))
hl = float(h.left.evaluate(64))
hlen = float(h.length.evaluate(64))
print(f"  hole:  [{hl:.10f}, {hl + hlen:.10f})  length {hlen:.10f}")
print()

print("half-filling check: left-block children of a word fill its left half")
for text in ("", "1", "2,5"):
    w = AdmissibleWord.parse(text) if text else AdmissibleWord()
    lo, hi, half = left_block_partition_bracket(w, 100, 64)
    print(f"  word ({text or 'root'}): bracket [{float(lo):.12f},"
          f" {float(hi):.12f}] vs half = {float(half):.12f}")
print()

print("relative hole size of I_k decays like q/k:")
for k in (1, 10, 100, 1000):
    g = cylinder_interval(AdmissibleWord((k,)))
    rel = float(hole(AdmissibleWord((k,))).length.evaluate(64)
                / g.length_poly.evaluate(64))
    print(f"  k = {k:5d}: |hole| / |I_k| = {rel:.6f}   (q/k = {q / k:.6f})")
