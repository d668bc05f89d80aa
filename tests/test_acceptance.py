"""Acceptance suite: one test per numbered criterion, each printing a
pass line with the measured values.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from collections import Counter


from symgen.dcenum import double_cosets
from symgen.groupfile import load_bundled
from symgen.perm import Perm
from symgen import symrep as sr
from symgen.symrep import parse_label_cycles
from oracles import (control_action_by_perms, elements_by_chain, follow_word,
                     node_points)


def report(k, detail):
    print(f"criterion {k}: PASS - {detail}")


def ix_map(ctx):
    return {label: i + 1 for i, label in enumerate(ctx.spec.labels)}


def test_criterion_1_l2_19_enumeration():
    t0 = time.perf_counter()
    ctx = load_bundled("l2_19").build_context(with_rules=False)
    graph = double_cosets(ctx.image)
    elapsed = time.perf_counter() - t0
    assert ctx.image.index == 57
    assert ctx.image.index * ctx.spec.control_group.order() == 3420
    assert [n.size for n in graph.nodes] == [1, 6, 30, 20]
    assert [n.stabilizer.order() for n in graph.nodes] == [60, 10, 2, 3]
    loops = [size for _, size, target in graph.nodes[2].edges if target == 2]
    assert sum(loops) == 3 and sorted(loops) == [1, 2]
    assert elapsed < 1.0
    report(1, f"index 57, order 3420, nodes 1/6/30/20, stabilizers 60/10/2/3, "
              f"loop 1+2 ({elapsed:.2f}s)")


def test_criterion_2_u3_3_enumeration():
    t0 = time.perf_counter()
    ctx = load_bundled("u3_3").build_context(with_rules=False)
    img = ctx.image
    graph = double_cosets(img)
    order = img.full_group.order()
    elapsed = time.perf_counter() - t0
    assert img.index == 36
    assert order == 12096 == 36 * 336
    assert [n.size for n in graph.nodes] == [1, 14, 21]
    assert graph.nodes[2].stabilizer.order() == 16
    assert dict(Counter(len(w) for w in img.cst)) == {0: 1, 1: 14, 2: 21}
    assert elapsed < 5.0
    report(2, f"index 36, order 12096, nodes 1/14/21, two-letter coset "
              f"stabilizer 16, representative profile 1/14/21 ({elapsed:.2f}s)")


def test_criterion_3_5sq_d6_enumeration():
    t0 = time.perf_counter()
    ctx = load_bundled("5sq_d6").build_context(with_rules=False)
    img = ctx.image
    graph = double_cosets(img)
    elapsed = time.perf_counter() - t0
    assert img.index == 50
    assert img.full_group.order() == 300
    assert len(graph.nodes) == 14
    ix = ix_map(ctx)

    def node_size_of(word_labels):
        point = follow_word(img, tuple(ix[l] for l in word_labels))
        return next(n.size for n in graph.nodes
                    if point in node_points(img, n))

    narrative = {"": 1, "0": 3, "01": 6, "010": 3, "0102": 3, "01202": 6,
                 "012": 6, "0120": 6, "0121": 3, "01210": 3, "01201": 3,
                 "012010": 3, "012021": 3, "0120210": 1}
    for word, size in narrative.items():
        assert node_size_of(word) == size, word
    # erratum guard: [0] holds exactly the three cosets named by the three
    # generators, never six
    assert node_size_of("0") == 3 != 6
    assert elapsed < 1.0
    report(3, f"index 50, order 300, 14 double cosets matching the narrative "
              f"counts, table erratum rejected ({elapsed:.2f}s)")


def test_criterion_4_relator_witness(l2_19):
    img = l2_19.image
    ix = ix_map(l2_19)
    g = Perm.identity(img.index)
    for label in ("4", "2", "3", "4", "2"):
        g = g * img.ts[ix[label] - 1]
    action = img.read_pair(g.images)[0]
    expected = parse_label_cycles("(∞,0,1)(2,4,3)", l2_19.spec.labels)
    assert action == expected
    report(4, "t4.t2.t3.t4.t2 acts on the six generators as (∞,0,1)(2,4,3)")


def test_criterion_5_relation_suite(u3_3):
    ctx = u3_3
    img = ctx.image
    ix = ix_map(ctx)

    def tword(*labels):
        p = Perm.identity(img.index)
        for l in labels:
            p = p * img.ts[ix[l] - 1]
        return p

    def realize(cycles):
        return control_action_by_perms(img)[
            parse_label_cycles(cycles, ctx.spec.labels)]

    assert tword("b1", "0", "b1", "0") == realize("(b3,b0)(b5,b6)(2,6)(4,5)")
    assert tword("b0", "b1", "b0", "b1") == realize("(b2,b5)(b4,b6)(0,3)(2,4)")
    assert tword("b0", "b3") == \
        realize("(b2,b6)(b4,b5)(0,3)(5,6)") * tword("b1", "1")
    # commutation shapes: b0.0 ~ b0 via the pairing element, b0.1 ~ 1.b0 via y
    assert tword("b0", "0") == \
        realize("(b0,0)(b1,1)(b2,2)(b3,3)(b4,4)(b5,5)(b6,6)") * tword("b0")
    assert tword("b0", "1") == \
        realize("(b2,b6)(b4,b5)(0,3)(5,6)") * tword("1", "b0")
    report(5, "pair-square, bold-square, cross-pair and both commutation "
              "relations hold under the coset realization")


def test_criterion_6_representation_completeness(u3_3, l2_19):
    t0 = time.perf_counter()
    lengths_u3 = Counter()
    for p in elements_by_chain(u3_3.image.full_group):
        lengths_u3[len(sr.per2sym(u3_3, p).word)] += 1
    assert sum(lengths_u3.values()) == 12096
    assert max(lengths_u3) == 2
    lengths_l2 = Counter()
    for p in elements_by_chain(l2_19.image.full_group):
        lengths_l2[len(sr.per2sym(l2_19, p).word)] += 1
    assert sum(lengths_l2.values()) == 3420
    assert max(lengths_l2) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"all 12096 elements have words of length <= 2 "
              f"(profile {dict(sorted(lengths_u3.items()))}), all 3420 have "
              f"length <= 3 (profile {dict(sorted(lengths_l2.items()))}) "
              f"({elapsed:.1f}s)")


def test_criterion_7_oracle_equivalence(all_contexts):
    for name, ctx in all_contexts.items():
        rng = random.Random(1234)
        full = ctx.image.full_group
        for _ in range(10 ** 4):
            p, q = full.random_element(rng), full.random_element(rng)
            a, b = sr.per2sym(ctx, p), sr.per2sym(ctx, q)
            mp = sr.mult(a, b, mode="pure")
            mi = sr.mult(a, b, mode="image")
            assert mp.control == mi.control and mp.word == mi.word, name
            assert sr.equal_sym(a, b, mode="pure") == \
                sr.equal_sym(a, b, mode="image") == (p == q), name
        for _ in range(10 ** 3):
            p = full.random_element(rng)
            assert sr.sym2per(ctx, sr.per2sym(ctx, p)) == p, name
    report(7, "pure rewrite and image engines agree on 10^4 products and "
              "10^3 roundtrips per fixture")


def test_criterion_8_worked_multiplication(u3_3):
    ctx = u3_3
    img = ctx.image
    ix = ix_map(ctx)
    t = ctx.spec.control_gens[2]
    a = ctx.element(t, (ix["b1"], ix["b2"]))
    pair_swap = sr.per2sym(
        ctx, img.ts[ix["b2"] - 1] * img.ts[ix["3"] - 1] * img.ts[ix["b2"] - 1])
    assert pair_swap.word == ()
    b = ctx.element(pair_swap.control, (ix["b5"], ix["6"]))

    prod = sr.mult(a, b, mode="pure")
    composed = sr.sym2per(ctx, a) * sr.sym2per(ctx, b)
    assert sr.sym2per(ctx, prod) == composed
    # canonically shortest: a two-letter word on the letters b2 and b1;
    # the displayed form (control' | b2.b1) is the same element
    assert len(prod.word) == 2
    assert sorted(prod.word) == sorted((ix["b2"], ix["b1"]))
    displayed_word = (ix["b2"], ix["b1"])
    residue = composed
    for letter in reversed(displayed_word):
        residue = residue * img.ts[letter - 1]
    displayed = ctx.element(img.read_pair(residue.images)[0], displayed_word)
    assert sr.equal_sym(displayed, prod, mode="image")
    assert sr.equal_sym(displayed, prod, mode="pure")
    report(8, "worked product is canonically shortest on the letters "
              "{b2, b1} and matches the composed images exactly")


def test_criterion_9_property_suites(all_contexts):
    cases = 0
    for name, ctx in all_contexts.items():
        rng = random.Random(99)
        N = ctx.spec.control_group
        # orbit-stabilizer identity on the control group
        for _ in range(400):
            k = rng.randrange(1, ctx.n + 1)
            orbit, _ = N.orbit(k)
            assert len(orbit) * N.point_stabilizer(k).order() == N.order()
            cases += 1
        # double coset counting identities
        graph = double_cosets(ctx.image)
        assert sum(n.size for n in graph.nodes) == ctx.image.index
        for node in graph.nodes:
            assert node.size * node.stabilizer.order() == N.order()
            cases += 1
        # canon termination measure strictly decreases
        full = ctx.image.full_group
        for _ in range(400):
            a = sr.per2sym(ctx, full.random_element(rng))
            b = sr.per2sym(ctx, full.random_element(rng))
            trace = []
            sr.canon(sr.unify(a, b), ctx.rules, trace=trace)
            for before, after in zip(trace, trace[1:]):
                assert after < before
            cases += 1
        # inversion is an involution
        for _ in range(400):
            a = sr.per2sym(ctx, full.random_element(rng))
            double = sr.invert_sym(sr.invert_sym(a))
            assert double.control == a.control and double.word == a.word
            cases += 1
    assert cases >= 3 * 10 ** 3
    report(9, f"{cases} randomized property checks passed (orbit-stabilizer, "
              "coset counting, canon measure, inversion involution)")
