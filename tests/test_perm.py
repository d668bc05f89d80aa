import random

import pytest

from symgen.perm import (GroupTooLarge, IdentificationError, Perm, PermGroup,
                         cycles_str, parse_cycles, word_perm)

from oracles import (centralizer_by_enumeration, closure_order,
                     inverse_by_loop, product_by_generator)

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


def _power_by_products(p, k):
    base = p if k >= 0 else inverse_by_loop(p)
    result = Perm(range(1, p.degree + 1))
    for _ in range(abs(k)):
        result = product_by_generator(result, base)
    return result


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
        assert _checked_tuple(p.conj(q)) == conj.images
        for k in range(-3, 4):
            assert _checked_tuple(p ** k) == _power_by_products(p, k).images
        assert (p * q).is_identity() == (pq.images == e.images)
    with pytest.raises(ValueError, match="degree mismatch"):
        Perm.identity(degree) * Perm.identity(degree + 1)


def test_images_of_moves_words_like_apply():
    rng = random.Random(3)
    p = random_perm(rng, 14)
    for length in (0, 1, 2, 7):
        word = tuple(rng.randint(1, 14) for _ in range(length))
        assert p.images_of(word) == tuple(p.apply(i) for i in word)
        assert p.images_of(list(word)) == p.images_of(word)


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
    p = parse_cycles("(1,2,3,4,5)", 5)
    assert p ** 5 == Perm.identity(5)
    assert p ** -1 == ~p
    assert p ** 0 == Perm.identity(5)
    q = parse_cycles("(1,2)", 5)
    assert p.conj(q) == ~q * p * q


def test_cycle_parse_print_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        p = random_perm(rng, 9)
        assert parse_cycles(cycles_str(p), 9) == p
    assert cycles_str(Perm.identity(5)) == "()"
    assert parse_cycles("()", 5) == Perm.identity(5)
    assert parse_cycles("", 5) == Perm.identity(5)
    assert parse_cycles(" ( 1 , 2 ) ( 3 , 4 ) ", 5) == parse_cycles("(1,2)(3,4)", 5)


def test_cycle_parse_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1,2", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,x)", 4)


def test_word_perm_signed_letters():
    x = parse_cycles("(1,2,3)", 3)
    assert word_perm([x], (1, -1)) == Perm.identity(3)
    assert word_perm([x], (-1,)) == ~x
    with pytest.raises(ValueError):
        word_perm([x], (2,))


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


def test_elements_deterministic_and_complete():
    g = PermGroup(4, (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)))
    elems = g.elements()
    assert len(elems) == 24
    assert elems[0].is_identity()
    assert len({e.images for e in elems}) == 24
    rebuilt = PermGroup(4, g.gens)
    assert rebuilt.elements() == elems


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


def test_point_stabilizer_pgl27():
    g = pgl_2_7()
    stab = g.point_stabilizer(7)
    assert stab.order() == 24
    assert all(h.apply(7) == 7 for h in stab.gens)


def test_point_stabilizer_trivial_group():
    g = PermGroup(4)
    assert g.point_stabilizer(2).order() == 1


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


def test_setwise_stabilizer_of_paired_points():
    g = pgl_2_7()
    s = g.setwise_stabilizer({7, 14})
    # brute-force oracle over all 336 elements
    count = sum(1 for e in g.elements()
                if {e.apply(7), e.apply(14)} == {7, 14})
    assert s.order() == count == 12
    assert g.order() // s.order() == 28


def test_setwise_stabilizer_trivia():
    g = PermGroup(4, (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)))
    assert g.setwise_stabilizer(range(1, 5)).order() == g.order()
    k = 3
    assert g.setwise_stabilizer({k}).order() == g.point_stabilizer(k).order()
    with pytest.raises(ValueError):
        g.setwise_stabilizer(())


def test_setwise_stabilizer_bound():
    g = pgl_2_7()
    with pytest.raises(GroupTooLarge):
        g.setwise_stabilizer({1, 2}, max_elements=100)


def test_right_transversal_basics():
    g = PermGroup(4, (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)))
    tr = g.right_transversal(g)
    assert len(tr) == 1 and tr[0].is_identity()
    trivial = PermGroup(4)
    tr = g.right_transversal(trivial)
    assert len(tr) == g.order()


def test_right_transversal_cosets_distinct_and_cover():
    g = pgl_2_7()
    h = g.setwise_stabilizer({7, 14})
    tr = g.right_transversal(h)
    assert len(tr) == 28
    assert tr[0].is_identity()
    # pairwise distinct cosets: x*y^-1 must avoid h for x != y
    for i, x in enumerate(tr):
        for y in tr[i + 1:]:
            assert x * ~y not in h
    # cover: every element lies in h * t for some rep
    rng = random.Random(4)
    for _ in range(30):
        e = g.random_element(rng)
        assert sum(1 for t in tr if e * ~t in h) == 1


def test_right_transversal_requires_subgroup():
    g = PermGroup(4, (parse_cycles("(1,2,3,4)", 4),))
    not_sub = PermGroup(4, (parse_cycles("(1,2)", 4),))
    with pytest.raises(ValueError):
        g.right_transversal(not_sub)


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
    elems = g.elements()
    rng = random.Random(5)
    for _ in range(8):
        p = g.random_element(rng)
        cls = {p.conj(e).images for e in elems}
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
    # that filtering elements() keeps, at the identity and at random elements
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
    for p in g.elements():
        assert_centralizer_matches_oracle(g, p)


def test_centralizer_bound():
    g = pgl_2_7()
    with pytest.raises(GroupTooLarge):
        g.centralizer(Perm.identity(14), max_elements=100)


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
