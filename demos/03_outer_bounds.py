"""Outer bounds read off the domain boundary.

Wherever the outward normal is orthogonal to the local slip direction,
every attainable boundary strain must already lie in that grain's
relaxed set.  Three geometries show the range of outcomes: full
rigidity, a two-set intersection, and no constraint at all.
"""

import math

from polyslip import (Mat2, analyze_boundary, equal_perp_full,
                      halfdisk_bicrystal, is_SO2, outer_bound_full_member,
                      outer_bound_perp, psi, quadrant_disk, rotation,
                      sheared_square_polycrystal)


def describe(name, pc):
    an = analyze_boundary(pc)
    bound = outer_bound_perp(pc)
    print(f"{name}:")
    print(f"  boundary grains: {list(an.boundary_grains)}, "
          f"dual points: {len(an.dual_points)}")
    print(f"  J = {sorted(an.J)}, J' = {sorted(an.J_prime)}, "
          f"perp bound trivial: {bound.trivial_flag}")
    print(f"  perp bound == full bound guaranteed: {equal_perp_full(pc)}")
    return bound


disk = quadrant_disk()
bound = describe("quadrant disk (textures 0, 90, 0, 90 deg)", disk)
for F, label in ((rotation(0.8), "a rotation"),
                 (psi(0.9, 0.0), "a mild stretch"),
                 (Mat2(1.0, 0.4, 0.0, 1.0), "a simple shear")):
    print(f"  {label}: perp-bound member = {bound.member(F)}, "
          f"rotation = {is_SO2(F)}")

print()
bi = halfdisk_bicrystal(theta_top=math.pi / 2, theta_bottom=math.pi / 6)
bound = describe("half-disk bicrystal (slips at 90 and 30 deg)", bi)
F = psi(0.9, 0.0)
print(f"  mild stretch: full-bound member = "
      f"{outer_bound_full_member(F, bi)}, "
      f"perp-bound member = {bound.member(F)}")

print()
square = sheared_square_polycrystal()
describe("tilted square (slips e1/e2, no axis-aligned normals)", square)
print("  every volume-preserving strain passes the perp bound here;")
print("  the two-slip construction exploits exactly this freedom.")
