#!/usr/bin/env python3
"""Permutation groups from the ground up.

Builds the degree-14 control group used by the largest bundled fixture and
walks through orders, orbits with witness words, a point stabilizer and a
centralizer.
"""

from symgen.perm import PermGroup, parse_cycles, cycles_str

aa = parse_cycles("(1,2,3,4,5,6,7)(14,13,12,11,10,9,8)", 14)
bb = parse_cycles("(2,6)(4,5)(14,10)(13,12)", 14)
cc = parse_cycles("(7,14)(1,8)(2,9)(3,10)(4,11)(5,12)(6,13)", 14)

print("generators:")
for g in (aa, bb, cc):
    print("   ", cycles_str(g), "order", g.order())

N = PermGroup(14, (aa, bb, cc))
print("group order:", N.order())

orbit, witness = N.orbit(1)
print("orbit of 1:", orbit)
print("witness word reaching 14:", witness[14], "(generator indices)")

stab = N.point_stabilizer(7)
print("point stabilizer of 7 has order", stab.order(),
      "and orbits", stab.orbits())

c = N.centralizer(cc)
print("centralizer of the pairing involution has order", c.order())
