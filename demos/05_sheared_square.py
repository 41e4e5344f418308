"""The tilted-square construction: beating the constant-strain bound.

The textures here are e1 and e2, which pins the constant-strain bound to
pure rotations.  Yet a nine-piece affine map with unit-determinant cell
gradients realizes the non-rotation boundary strain F_gamma.  Everything
is rational for rational gamma, so the verification below is exact.
"""

import json
from fractions import Fraction

from polyslip import average_gradient, build, conclusion, verify
from polyslip.shear_square import mesh_dict, render_svg

gamma = Fraction(1, 2)
b = build(gamma)
print(f"gamma = {gamma}, boundary strain F =")
for row in b.F_gamma.to_rows():
    print(f"   {row}")

report = verify(b)  # tol = 0: every check is an identity between ints over one denominator
print("\nexact checks:")
for name, ok in report.as_dict().items():
    print(f"  {name:15s} {ok}")

print(f"\narea-weighted mean of cell gradients == F?  {average_gradient(b) == b.F_gamma}")

flags = conclusion(gamma)
print(f"constant-strain bound trivial: {flags['taylor_trivial']}")
print(f"F is a rotation:               {flags['F_in_SO2']}")
print(f"=> strict separation:          {flags['separates']}")

with open("sheared_square.svg", "w", encoding="utf-8") as fh:
    fh.write(render_svg(b))
with open("sheared_square_mesh.json", "w", encoding="utf-8") as fh:
    json.dump(mesh_dict(b), fh, indent=2, sort_keys=True)
print("\nwrote sheared_square.svg and sheared_square_mesh.json")
