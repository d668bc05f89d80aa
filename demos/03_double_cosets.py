#!/usr/bin/env python3
"""Double coset enumeration over the control group.

Builds each bundled fixture's finite image, decomposes it into double
cosets and prints the collapsed Cayley graph, whose node labels count the
single cosets inside each double coset.
"""

from collections import Counter

from symgen.dcenum import (double_cosets, emit_graph, verify_relators_in_image,
                           word_label)
from symgen.groupfile import bundled_fixture_names, load_bundled

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
    verify_relators_in_image(gf.spec, img)
    print("   factoring relators verified in the image")
    print()

print("collapsed Cayley graph of the smallest fixture, DOT format:")
print(emit_graph(double_cosets(load_bundled("l2_19").build_context(
    with_rules=False).image), "dot"))
