import random

import pytest

from symgen.groupfile import bundled_fixture_names, load_bundled
from symgen import perm as perm_module
from symgen.perm import (GroupTooLarge, IdentificationError, Perm, PermGroup,
                         cycles_str, label_cycles_str, parse_cycles,
                         parse_label_cycles, word_perm)

from symgen.dcenum import build_image

from oracles import (centralizer_by_enumeration, chain_by_perms, closure_order,
                     elements_by_chain, inverse_by_loop, product_by_generator,
                     random_element_by_perms)
from test_progenitor import power_relator_spec

# the 14-point control group used by the largest fixture; handy here because
# its subgroup structure is known exactly
AA = "(1,2,3,4,5,6,7)(14,13,12,11,10,9,8)"
BB = "(2,6)(4,5)(14,10)(13,12)"
CC = "(7,14)(1,8)(2,9)(3,10)(4,11)(5,12)(6,13)"


def pgl_2_7():
    return PermGroup(14, tuple(parse_cycles(s, 14) for s in (AA, BB, CC)))


def random_perm(rng, degree):
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Perm(images)


def test_identity_basics():
    e = Perm.identity(3)
    assert e.images == (1, 2, 3)
    assert e.is_identity() and e.order() == 1
    assert Perm.identity(1).images == (1,)
    with pytest.raises(ValueError):
        Perm.identity(0)


def test_not_a_permutation_rejected():
    for images in ((1, 1, 3), (0, 1, 2), (2, 3)):
        with pytest.raises(ValueError):
            Perm(images)


def _checked_tuple(p):
    """p's images as a tuple that the checking constructor accepts."""
    assert type(p.images) is tuple
    return Perm(p.images).images


@pytest.mark.parametrize("degree", [1, 2, 14, 57])
def test_unchecked_arithmetic_matches_checked_formulas(degree):
    rng = random.Random(degree)
    e = Perm.identity(degree)
    assert _checked_tuple(e) == tuple(range(1, degree + 1)) and e.is_identity()
    for _ in range(30):
        p, q = random_perm(rng, degree), random_perm(rng, degree)
        pq = product_by_generator(p, q)
        assert _checked_tuple(p * q) == pq.images
        assert _checked_tuple(~p) == inverse_by_loop(p).images
        conj = product_by_generator(product_by_generator(inverse_by_loop(q), p), q)
        assert _checked_tuple(~q * p * q) == conj.images
        assert (p * q).is_identity() == (pq.images == e.images)
    with pytest.raises(ValueError, match="degree mismatch"):
        Perm.identity(degree) * Perm.identity(degree + 1)


def test_composition_convention_right_action():
    # p acts first: k^(p*q) == (k^p)^q
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(1,3)", 3)
    assert p * q == parse_cycles("(1,2,3)", 3)
    for k in (1, 2, 3):
        assert (p * q).apply(k) == q.apply(p.apply(k))


def test_compose_identity_and_inverse():
    rng = random.Random(1)
    for _ in range(20):
        p = random_perm(rng, 6)
        assert p * Perm.identity(6) == p
        assert Perm.identity(6) * p == p
        assert p * ~p == Perm.identity(6)
        assert ~~p == p


def test_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1,2)", 3) * parse_cycles("(1,2)", 4)


def test_xy_order_in_six_point_control_action():
    # x ~ (0,1,2,3,4), y ~ (0,inf)(1,4) on points (inf,0,1,2,3,4) -> 1..6.
    # With x of order 5, y of order 2 and xy of order 3 these generate the
    # order-60 group the small fixture uses as its control group.
    x = parse_cycles("(2,3,4,5,6)", 6)
    y = parse_cycles("(1,2)(3,6)", 6)
    assert x.order() == 5 and y.order() == 2
    assert (x * y).order() == 3
    assert PermGroup(6, (x, y)).order() == 60


def test_order_of_product_of_three_cycles():
    pi = parse_cycles("(1,2,3)(4,6,5)", 6)
    assert pi.order() == 3
    assert (pi * pi * pi).is_identity()


def test_apply_range_checked():
    p = Perm.identity(4)
    with pytest.raises(ValueError):
        p.apply(5)
    with pytest.raises(ValueError):
        p.apply(0)


def test_power_and_conj():
    # under the right action, p conjugated by q is ~q * p * q, which
    # relabels each point k of p's cycles as q(k)
    p = parse_cycles("(1,2,3,4,5)", 5)
    q = parse_cycles("(1,2)", 5)
    assert ~q * p * q == parse_cycles("(2,1,3,4,5)", 5)


def test_cycle_parse_print_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        p = random_perm(rng, 9)
        assert parse_cycles(cycles_str(p), 9) == p
    assert cycles_str(Perm.identity(5)) == "()"
    assert parse_cycles("()", 5) == Perm.identity(5)
    assert parse_cycles("", 5) == Perm.identity(5)
    assert parse_cycles(" ( 1 , 2 ) ( 3 , 4 ) ", 5) == parse_cycles("(1,2)(3,4)", 5)
    # the same notation over each fixture's labels ("∞", "b0".."b6", ...)
    for name in bundled_fixture_names():
        spec = load_bundled(name).spec
        for _ in range(20):
            p = spec.control_group.random_element(rng)
            text = label_cycles_str(p, spec.labels)
            assert parse_label_cycles(text, spec.labels) == p


def test_cycle_parse_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1,2", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,x)", 4)
    # whitespace is stripped around labels but joins none: "1 2" is no
    # label of 1..12, where it was read as 12
    for text in ("(1 2)", "(1 2,3)"):
        with pytest.raises(ValueError) as exc:
            parse_cycles(text, 12)
        assert str(exc.value) == f"unknown label '1 2' in {text!r}"
    assert parse_cycles(" ( 1 , 2 ) ( 3 , 4 ) ", 4) == parse_cycles(
        "(1,2)(3,4)", 4)


def test_word_perm_signed_letters():
    x = parse_cycles("(1,2,3)", 3)
    assert word_perm([x], (1, -1)) == Perm.identity(3)
    assert word_perm([x], (-1,)) == ~x
    with pytest.raises(ValueError):
        word_perm([x], (2,))


def test_word_perm_inverts_each_generator_once(monkeypatch):
    # repeated negative letters read one inverse per generator, and the
    # product equals the Perm product along the word
    gens = pgl_2_7().gens
    word = (-1, 2, -1, -3, -1, 3, -3, -2, -1, -2)
    expected = Perm.identity(14)
    for letter in word:
        g = gens[abs(letter) - 1]
        expected = expected * (g if letter > 0 else ~g)
    inverted = []
    inverse = perm_module._inverse
    monkeypatch.setattr(perm_module, "_inverse",
                        lambda p: inverted.append(p) or inverse(p))
    assert word_perm(gens, word, 14) == expected
    assert sorted(inverted) == sorted(g.images for g in gens)
    with pytest.raises(ValueError, match="^letter -4 out of range for 3 "
                                         "generators$"):
        word_perm(gens, (-1, -4), 14)
    with pytest.raises(ValueError, match="^degree mismatch: 3 != 14$"):
        word_perm(gens, (-1,), 3)


def test_group_order_small_groups():
    s3 = PermGroup(3, (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)))
    assert s3.order() == 6
    trivial = PermGroup(5)
    assert trivial.order() == 1
    assert Perm.identity(5) in trivial


def test_group_order_pgl27_matches_brute_force():
    g = pgl_2_7()
    gens = g.gens
    assert closure_order(gens) == 336
    assert g.order() == 336


def test_chain_order_matches_closure_on_corpus():
    corpus = [
        [("(1,2,3)", 3)],
        [("(1,2,3)", 3), ("(1,2)", 3)],
        [("(1,2,3,4)", 4), ("(1,2)", 4)],
        [("(1,2,3,4,5)", 5), ("(3,4,5)", 5)],
        [("(2,3,4,5,6)", 6), ("(1,2)(3,6)", 6)],
        [("(1,2,3,4,5,6,7)", 7), ("(2,3)(4,7)", 7)],
        [(AA, 14), (BB, 14), (CC, 14)],
    ]
    for gens_spec in corpus:
        gens = tuple(parse_cycles(s, d) for s, d in gens_spec)
        g = PermGroup(gens[0].degree, gens)
        assert g.order() == closure_order(gens)
        assert g.order() <= 2000 or g.order() == 336
        for gen in gens:
            assert gen in g


def test_membership_negative():
    a5 = PermGroup(5, (parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(3,4,5)", 5)))
    assert a5.order() == 60
    assert parse_cycles("(1,2)", 5) not in a5


def test_orbit_of_trivial_group():
    g = PermGroup(5)
    orbit, words = g.orbit(3)
    assert orbit == [3]
    assert words == {3: ()}


def test_orbit_witness_words():
    g = pgl_2_7()
    orbit, words = g.orbit(1)
    assert sorted(orbit) == list(range(1, 15))
    for point, word in words.items():
        assert word_perm(g.gens, word, 14).apply(1) == point


def test_point_stabilizer_dihedral_in_six_point_group():
    # stabilizer of the first point in the order-60 control group is D10
    x = parse_cycles("(2,3,4,5,6)", 6)
    y = parse_cycles("(1,2)(3,6)", 6)
    g = PermGroup(6, (x, y))
    stab = g.point_stabilizer(1)
    assert stab.order() == 10
    orbits = stab.orbits()
    assert orbits[0] == [1]
    assert sorted(orbits[1]) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("name", ["5sq_d6", "l2_19", "u3_3"])
def test_orbits_match_the_witness_orbits_on_node_stabilizers(all_contexts,
                                                             name):
    # orbits walks breadth-first from each least point unseen, generators in
    # order, so it lists the orbits, and each orbit's points, as orbit(k)
    from symgen.dcenum import double_cosets
    for node in double_cosets(all_contexts[name].image).nodes:
        group, expected, seen = node.stabilizer, [], set()
        for k in range(1, group.degree + 1):
            if k not in seen:
                orbit, _ = group.orbit(k)
                seen.update(orbit)
                expected.append(orbit)
        assert group.orbits() == expected, node.rep


def test_point_stabilizer_pgl27():
    g = pgl_2_7()
    stab = g.point_stabilizer(7)
    assert stab.order() == 24
    assert all(h.apply(7) == 7 for h in stab.gens)


def test_point_stabilizer_trivial_group():
    g = PermGroup(4)
    assert g.point_stabilizer(2) is g
    assert g.point_stabilizer(2).order() == 1


def fixture_groups(all_contexts):
    for name, ctx in all_contexts.items():
        yield f"{name} N", ctx.spec.control_group
        yield f"{name} full", ctx.image.full_group


def test_point_stabilizer_returns_a_built_span(all_contexts):
    # the span that the Schreier generators' filter built comes back with
    # its chain, so its order costs no second Schreier-Sims run
    for name, g in fixture_groups(all_contexts):
        for k in range(1, g.degree + 1):
            stab = g.point_stabilizer(k)
            assert "chain" in vars(stab), (name, k)
            assert all(h.images[k - 1] == k for h in stab.gens), (name, k)
            assert stab.order() * len(g.orbit(k)[0]) == g.order(), (name, k)


def test_point_stabilizer_of_a_fixed_point_is_the_group(all_contexts):
    # the stabilizer's generators all fix k, so it is its own stabilizer
    for name, g in fixture_groups(all_contexts):
        for k in range(1, g.degree + 1):
            stab = g.point_stabilizer(k)
            assert stab.point_stabilizer(k) is stab, (name, k)


def test_orbit_stabilizer_identity_randomized():
    rng = random.Random(3)
    groups = [
        PermGroup(6, (parse_cycles("(2,3,4,5,6)", 6), parse_cycles("(1,2)(3,6)", 6))),
        PermGroup(7, (parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(2,3)(4,7)", 7))),
        pgl_2_7(),
    ]
    for g in groups:
        for _ in range(10):
            k = rng.randrange(1, g.degree + 1)
            orbit, _ = g.orbit(k)
            assert len(orbit) * g.point_stabilizer(k).order() == g.order()


def test_centralizer_identity_is_whole_group():
    g = PermGroup(4, (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)))
    assert g.centralizer(Perm.identity(4)).order() == g.order()


def test_centralizer_transposition_in_s3():
    g = PermGroup(3, (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)))
    c = g.centralizer(parse_cycles("(1,2)", 3))
    assert c.order() == 2


def test_centralizer_requires_membership():
    g = PermGroup(5, (parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(3,4,5)", 5)))
    with pytest.raises(IdentificationError):
        g.centralizer(parse_cycles("(1,2)", 5))


def test_centralizer_counting_identity():
    # |class(p)| * |C(p)| == |G|, with the class found by brute force, and
    # the centralizer order matching a direct commuting-element recount
    g = PermGroup(6, (parse_cycles("(2,3,4,5,6)", 6), parse_cycles("(1,2)(3,6)", 6)))
    elems = elements_by_chain(g)
    rng = random.Random(5)
    for _ in range(8):
        p = g.random_element(rng)
        cls = {(~e * p * e).images for e in elems}
        cent = g.centralizer(p)
        assert len(cls) * cent.order() == g.order()
        assert cent.order() == sum(1 for e in elems if e * p == p * e)
        assert all(h * p == p * h for h in cent.gens)


def assert_centralizer_matches_oracle(g, p):
    got, ref = g.centralizer(p), centralizer_by_enumeration(g, p)
    assert got.gens == ref.gens
    assert got.order() == ref.order()


@pytest.mark.parametrize("name", ["5sq_d6", "l2_19", "u3_3"])
@pytest.mark.parametrize("which", ["full", "control"])
def test_centralizer_generators_match_enumeration(all_contexts, name, which):
    # the split over the chain's top level keeps exactly the generators
    # that filtering every element keeps, at the identity and at random elements
    ctx = all_contexts[name]
    g = ctx.image.full_group if which == "full" else ctx.spec.control_group
    rng = random.Random(9)
    for p in [Perm.identity(g.degree)] + [g.random_element(rng) for _ in range(6)]:
        assert_centralizer_matches_oracle(g, p)


@pytest.mark.parametrize("g", [
    PermGroup(3),
    # intransitive: the first base point's orbit is {1,2,3}
    PermGroup(7, (parse_cycles("(1,2,3)(4,5)", 7), parse_cycles("(1,2)(6,7)", 7))),
    # cyclic: a chain of one level
    PermGroup(5, (parse_cycles("(1,2,3,4,5)", 5),)),
], ids=["trivial", "intransitive", "cyclic"])
def test_centralizer_edge_groups_match_enumeration(g):
    for p in elements_by_chain(g):
        assert_centralizer_matches_oracle(g, p)


def test_membership_matches_the_element_oracle(all_contexts):
    # the sift of ~p from the left agrees with the list of the group's
    # elements, on members and on random permutations of the same degree
    groups = list(fixture_groups(all_contexts)) + [
        ("trivial", PermGroup(3)),
        ("intransitive", PermGroup(7, (parse_cycles("(1,2,3)(4,5)", 7),
                                       parse_cycles("(1,2)(6,7)", 7)))),
        ("cyclic", PermGroup(5, (parse_cycles("(1,2,3,4,5)", 5),))),
    ]
    for name, g in groups:
        elements = {e.images for e in elements_by_chain(g)}
        rng = random.Random(25)
        members = [g.random_element(rng) for _ in range(200)]
        for p in members + [random_perm(rng, g.degree) for _ in range(200)]:
            assert (p in g) == (p.images in elements), (name, cycles_str(p))


def test_centralizer_bound(monkeypatch):
    g = pgl_2_7()
    monkeypatch.setattr(perm_module, "MAX_ELEMENTS", 100)

    def refuse(self, levels):
        raise AssertionError("multiplied out past the bound")

    # the bound fires before the top split is multiplied out
    with monkeypatch.context() as patch:
        patch.setattr(PermGroup, "_multiply_out", refuse)
        with pytest.raises(GroupTooLarge, match="^group order 336 exceeds bound 100$"):
            g.centralizer(Perm.identity(14))
    with pytest.raises(GroupTooLarge, match="^group order 336 exceeds bound 100$"):
        g.centralizer(Perm.identity(14))
    # and nothing is kept: under the default bound the instance answers
    # as the oracle does
    monkeypatch.undo()
    assert_centralizer_matches_oracle(g, parse_cycles(AA, 14))


@pytest.mark.parametrize("name", ["5sq_d6", "l2_19", "u3_3"])
def test_centralizer_keeps_its_top_split(monkeypatch, all_contexts, name):
    # one instance multiplies out its top split on the first call only,
    # and every later call, a repeated p too, answers as a fresh instance
    # and as the oracle do
    full = all_contexts[name].image.full_group
    g, reference = (PermGroup(full.degree, full.gens) for _ in range(2))
    rng = random.Random(10)
    ps = [Perm.identity(g.degree)] + [g.random_element(rng) for _ in range(4)]
    multiplied = []
    original = PermGroup._multiply_out

    def counting(self, levels):
        multiplied.append(self)
        return original(self, levels)

    monkeypatch.setattr(PermGroup, "_multiply_out", counting)
    for p in ps + ps[::-1]:
        got = g.centralizer(p)
        fresh = PermGroup(g.degree, g.gens).centralizer(p)
        ref = centralizer_by_enumeration(reference, p)
        assert got.gens == fresh.gens == ref.gens
        assert got.order() == fresh.order() == ref.order()
    assert sum(m is g for m in multiplied) == 1


def test_associativity_randomized():
    rng = random.Random(7)
    for _ in range(200):
        p, q, r = (random_perm(rng, 8) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_order_divides_cyclic_group_order():
    rng = random.Random(8)
    for _ in range(50):
        p = random_perm(rng, 7)
        assert closure_order((p,)) == p.order()


@pytest.mark.parametrize("name", ["5sq_d6", "l2_19", "u3_3", "power"])
def test_chain_and_random_elements_match_perm_products(all_contexts, name):
    # the chain on image tuples has the base points, orbits and transversal
    # images of the chain built from Perm products, and so draws the same
    # seeded random elements, from which the benchmark's inputs come
    if name == "power":
        spec = power_relator_spec(4, "x", 6)  # index 84, order 2016
        groups = (spec.control_group, build_image(spec).full_group)
    else:
        ctx = all_contexts[name]
        groups = (ctx.spec.control_group, ctx.image.full_group)
    for seed, group in enumerate(groups):
        levels = chain_by_perms(group)
        assert [(level.point, level.orbit, level.transversal)
                for level in group.chain] == [
            (point, orbit, {b: u.images for b, u in trans.items()})
            for point, orbit, trans in levels]
        got, ref = random.Random(seed), random.Random(seed)
        assert ([group.random_element(got) for _ in range(50)]
                == [random_element_by_perms(levels, group.degree, ref)
                    for _ in range(50)])
