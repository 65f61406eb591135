# The shear y d/dx on the Taylor resolution of <x^2, x*y, y^2>: ranks
# 3, 3, 1, one more than the minimal resolution in each of the top two
# depths.  The derivation preserves the ideal (x^2 -> 2*x*y, x*y -> y^2,
# y^2 -> 0), and it is the one bundled spec with a nonzero tree table:
# level 0 on V(e1,e2) is xi*e123.

[ring]
vars = x, y

[ideal]
gens = x^2, x*y, y^2

[resolution]
generators -1 = e1, e2, e3
generators -2 = e12, e13, e23
generators -3 = e123
d e12 = x*e2 - y*e1
d e13 = x^2*e3 - y^2*e1
d e23 = x*e3 - y*e2
d e123 = x*e23 - e13 + y*e12
augment e1 = x^2
augment e2 = x*y
augment e3 = y^2

[positive]
generators 1 = xi
Q x = y*xi

[options]
mode = explicit
neg_degree_max = 6
poly_cap = 6
