#!/usr/bin/env python3
"""The triangle sextic, end to end.

The form with roots 1+19i, 2+19i, 19+i is the triangle whose center of mass
and hyperbolic centroid are farthest apart in the r2=20 database.  Its two
centers round to very different shifts, which makes it the cleanest example
of hyperbolic reduction beating the center-of-mass (Julia-proxy) reduction.
"""

from formred import (UhpPoint, from_upper_roots, height, hyperbolic_centroid,
                     center_of_mass, minimize, minimize_theta0, reduce_com,
                     reduce_hyperbolic, shift, shift_descent)

roots = [UhpPoint(1, 19), UhpPoint(2, 19), UhpPoint(19, 1)]
f = from_upper_roots(roots)
print("triangle sextic:", f)
print("height:", height(f))

com = center_of_mass(roots)
cent = hyperbolic_centroid(roots)
print(f"\ncenter of mass     ({float(com.t):.6f}, {float(com.u):.6f})")
print(f"hyperbolic centroid ({float(cent.t):.6f}, {cent.u:.6f})")

print("\nshifting by the rounded center real parts:")
for m in (7, 17):
    print(f"  f(x + {m}y, y) has height {height(shift(f, m)):>12,}")

r_com = reduce_com(f)
r_hyp = reduce_hyperbolic(f)
print(f"\nreduce_com:        shift {r_com.matrix.b}, height {r_com.output_height:,}")
print(f"reduce_hyperbolic: shift {r_hyp.matrix.b}, height {r_hyp.output_height:,}")

print("\nneither center finds the shift minimum; descent walks there:")
walk = shift_descent(r_hyp.output)
print(f"  extra shift {walk.matrix.b:+d} -> height {walk.output_height:,}")

full = minimize(f)
print(f"\nfull pipeline: height {full.input_height:,} -> {full.output_height:,}")

jz = minimize_theta0(f).zero
print(f"\ntrue Julia zero (theta_0 minimizer): ({float(jz.t):.4f}, {float(jz.u):.4f})")
print("its shift would be 11 -- between the proxy (7) and the centroid (17)")
