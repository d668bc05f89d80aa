#!/usr/bin/env python3
"""Double coset enumeration over the control group.

Builds each bundled fixture's finite image, decomposes it into double
cosets and prints the collapsed Cayley graph, whose node labels count the
single cosets inside each double coset.
"""

from collections import Counter

from symgen.dcenum import double_cosets, emit_graph, word_label
from symgen.groupfile import bundled_fixture_names, load_bundled
from symgen.perm import word_perm
from symgen.symrep import sym2per

for name in bundled_fixture_names():
    gf = load_bundled(name)
    ctx = gf.build_context(with_rules=False)
    img = ctx.image
    order = img.index * gf.spec.control_group.order()
    print(f"== {name}: index {img.index}, group order {order}")
    profile = Counter(len(w) for w in img.cst)
    print("   coset representative lengths:", dict(sorted(profile.items())))
    graph = double_cosets(img)
    for node in graph.nodes:
        print(f"   [{word_label(gf.spec, node.rep)}]  single cosets "
              f"{node.size}  stabilizer order {node.stabilizer.order()}")
    # each factoring relator pi * t_tail realizes as the identity
    for control_word, tail in gf.spec.relators:
        pi = word_perm(gf.spec.control_gens, control_word, gf.spec.n)
        if not sym2per(ctx, ctx.element(pi, tail)).is_identity():
            raise SystemExit(f"{name}: a factoring relator fails in the image")
    print("   factoring relators verified in the image")
    print()

print("collapsed Cayley graph of the smallest fixture, DOT format:")
print(emit_graph(double_cosets(load_bundled("l2_19").build_context(
    with_rules=False).image), "dot"))
