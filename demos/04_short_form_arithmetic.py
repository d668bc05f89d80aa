#!/usr/bin/env python3
"""Arithmetic on symmetrically represented elements.

Elements of the order-12096 image are handled as a degree-14 control
permutation plus a word of at most two generator letters.  The pure
rewrite engine and the coset-permutation engine compute the same products.
"""

import random

from symgen import symrep as sr
from symgen.groupfile import load_bundled
from symgen.perm import Perm

ctx = load_bundled("u3_3").build_context(with_rules=True)
img = ctx.image
print("image degree:", img.index, "| group order:", img.full_group.order())

e = sr.parse_element(ctx, "(id | b0.0.b0)")
canonical = sr.canonical_form(e)
print("\nthe word b0.0.b0 names a control element:")
print("   raw:      ", sr.format_element(e))
print("   canonical:", sr.format_element(canonical))

rng = random.Random(0)
a = sr.per2sym(ctx, img.full_group.random_element(rng))
b = sr.per2sym(ctx, img.full_group.random_element(rng))
print("\ntwo random elements in short form:")
print("   a =", sr.format_element(a))
print("   b =", sr.format_element(b))

prod_pure = sr.mult(a, b, mode="pure")
prod_image = sr.mult(a, b, mode="image")
print("   a*b (rewrite engine):", sr.format_element(prod_pure))
print("   a*b (image engine):  ", sr.format_element(prod_image))
print("   engines agree:", prod_pure.control == prod_image.control
      and prod_pure.word == prod_image.word)

inv = sr.invert_sym(a)
print("\n   a^-1 =", sr.format_element(inv))
print("   a * a^-1 is the identity:",
      sr.mult(a, inv).control.is_identity() and sr.mult(a, inv).word == ())

order, gens = sr.cenelt(ctx, ctx.element(Perm.identity(14), (1,)))
print("\ncentralizer of (id | b0): order", order)
for g in gens:
    print("   generator:", sr.format_element(g))

# the conversion pair is a bijection
p = sr.sym2per(ctx, a)
print("\nround trip through the 36-point permutation:",
      sr.per2sym(ctx, p).word == a.word)
