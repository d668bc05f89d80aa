#!/usr/bin/env python3
"""Finitely presented groups and coset enumeration.

Parses a few presentations, enumerates cosets of chosen subgroups and turns
a closed table into a permutation action.
"""

from symgen.fpgroup import Presentation, coset_action, parse_word, todd_coxeter
from symgen.perm import word_perm

print("cyclic group of order 3:")
table = todd_coxeter(Presentation.parse(["a"], "a^3"))
print("   index over the trivial subgroup:", table.index)
print("   action of a:", coset_action(table)[0])

print("\n(2,3,5) triangle presentation:")
pres = Presentation.parse(["x", "y"], "x^5, y^2, (x*y)^3")
print("   order:", todd_coxeter(pres).index)
print("   cosets of <x>:", todd_coxeter(pres, [(1,)]).index)

print("\ndegree-14 control group from its presentation:")
pres = Presentation.parse(
    ["x", "y", "t"],
    "x^7, y^2, t^2, (x^-1*t)^2, (y*x)^3, t*x^-1*y*x*t*y, "
    "x^2*y*x^3*y*x^-4*y*x^-4*y*x")
table = todd_coxeter(pres)
print("   order:", table.index)

print("\nword syntax supports powers, conjugation and commutators:")
names = ["x", "y", "t", "s"]
for text in ("s^2", "(s^(x^3),y)", "t*x^-1*y*x*t*y"):
    print(f"   {text:18s} -> letters {parse_word(text, names)}")

images = coset_action(table)
relator = parse_word("(y*x)^3", ["x", "y", "t"])
print("\nrelators map to the identity in the coset action:",
      word_perm(images, relator).is_identity())
