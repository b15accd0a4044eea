"""Vaught transforms, global and local, and the laws connecting them.

Over a finite discrete group the delta transform is "some translate lands
in A" and the star transform is "all translates land in A"; the local
versions stage those quantifiers along reach sets inside a window U.
Run: python3 demos/02_vaught_transforms.py
"""

from orbitpieces.bits import to_list
from orbitpieces.gspace import named_instance
from orbitpieces.saturation import saturate
from orbitpieces.transforms import (
    delta,
    local_delta,
    local_delta_n,
    local_delta_stages,
    local_star,
    star,
)


def show(label, mask):
    print(f"{label:34s} {{{','.join(map(str, to_list(mask)))}}}")


inst = named_instance("z4self")
full_g = inst.basisV.members[-1]
a = 0b0010  # the set {1}

show("A", a)
show("delta(A, {+1})", delta(inst, a, 0b0010))
show("star(A u {2}, {+1})", star(inst, 0b0110, 0b0010))
show("delta(A, G)  (orbit of A)", delta(inst, a, full_g))
show("star(A, G)   (core of A)", star(inst, a, full_g))
print()

# Duality: the star is the complement of the delta of the complement.
x_full = inst.basisU.members[-1]
h = 0b0011
lhs = star(inst, a, h)
rhs = x_full & ~delta(inst, x_full & ~a, h)
print("star = ~delta(~A):", to_list(lhs) == to_list(rhs))

# The local transforms refine stage by stage: delta stages grow, star stages
# shrink, and both stop moving once the reach sets saturate.  One loop lists
# the delta stages up to the first one that adds nothing; every later stage
# equals the last entry, and the star stages are U minus the delta stages of
# U minus the set.
u = x_full  # the window U = X, along V = {0, +1, -1}
v = inst.basisV[0]
a0 = 0b0001  # the set {0}
for n, stage in enumerate(local_delta_stages(inst, a0, u, v), 1):
    show(f"local delta stage {n} of {{0}}", stage)
show("local delta stage 10**9 of {0}", local_delta_n(inst, a0, u, v, 10**9))
show("local delta limit of {0}", local_delta(inst, a0, u, v))
b = 0b0111  # the set {0,1,2}
for n, stage in enumerate(local_delta_stages(inst, u & ~b, u, v), 1):
    show(f"local star stage {n} of {{0,1,2}}", u & ~stage)
show("local star limit of {0,1,2}", local_star(inst, b, u, v))
print()

# In the finite setting the saturation and the limit delta transform agree.
print(
    "saturate == local delta limit:",
    saturate(inst, a0, u, v) == local_delta(inst, a0, u, v),
)
