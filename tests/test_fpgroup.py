import random

import pytest

from symgen.fpgroup import (CosetLimitExceeded, Presentation, _check_closed,
                            coset_action, commutator, concat, invert_word,
                            parse_word, reduce_word, todd_coxeter, word_image,
                            word_str)
from symgen.groupfile import bundled_fixture_names, load_bundled
from symgen.perm import parse_cycles
from symgen.progenitor import build_presentation

from oracles import closure_order, todd_coxeter_reference

PGL27 = Presentation.parse(
    ["x", "y", "t"],
    "x^7, y^2, t^2, (x^-1*t)^2, (y*x)^3, t*x^-1*y*x*t*y, "
    "x^2*y*x^3*y*x^-4*y*x^-4*y*x")
A5 = Presentation.parse(["x", "y"], "x^5, y^2, (x*y)^3")
Q8 = Presentation.parse(["a", "b"], "a^4, a^2*b^-2, b^-1*a*b*a")


def fixture_over_control_group(name):
    """A fixture's built presentation and the generators of N in it."""
    spec = load_bundled(name).spec
    return (build_presentation(spec),
            [(i,) for i in range(1, len(spec.control_gens) + 1)])


def test_reduce_word():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1)) == ()
    assert reduce_word((1, 2, -2, 3)) == (1, 3)
    assert reduce_word(()) == ()
    with pytest.raises(ValueError):
        reduce_word((0,))


def test_word_helpers():
    assert invert_word((1, 2, -3)) == (3, -2, -1)
    assert concat((1, 2), (-2, 3)) == (1, 3)
    assert commutator((1,), (2,)) == (-1, -2, 1, 2)


@pytest.mark.parametrize("text,expected", [
    ("x", (1,)),
    ("x^3", (1, 1, 1)),
    ("x^-2", (-1, -1)),
    ("x*y", (1, 2)),
    ("(x*y)^2", (1, 2, 1, 2)),
    ("x^y", (-2, 1, 2)),
    ("(x,y)", (-1, -2, 1, 2)),
    ("x ^ ( y ^ 2 )", (-2, -2, 1, 2, 2)),
])
def test_parse_word(text, expected):
    assert parse_word(text, ("x", "y")) == expected


def test_parse_word_conjugation_and_commutator_nesting():
    names = ("x", "y", "t", "s")
    w = parse_word("(s^(x^3),y)", names)
    # commutator of s^(x^3) with y, freely reduced
    a = parse_word("s^(x^3)", names)
    assert w == concat(invert_word(a), (-2,), a, (2,))


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("z", ("x", "y"))
    with pytest.raises(ValueError):
        parse_word("x^", ("x", "y"))
    with pytest.raises(ValueError):
        parse_word("x*(y", ("x", "y"))
    with pytest.raises(ValueError):
        parse_word("x y", ("x", "y"))


def test_word_str_roundtrip():
    names = ("x", "y")
    for text in ("x*y^-1*x", "x", "y^-1"):
        w = parse_word(text, names)
        assert parse_word(word_str(w, names), names) == w
    assert word_str((), names) == "1"


def test_presentation_parse_and_validation():
    p = Presentation.parse(["a"], "a^3")
    assert p.relators == ((1, 1, 1),)
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError):
        Presentation(("a",), ((2,),))


def test_cyclic_group_of_order_three():
    t = todd_coxeter(Presentation.parse(["a"], "a^3"))
    assert t.index == 3
    action = coset_action(t)
    assert action[0].order() == 3


def test_trivial_subgroup_examples():
    assert todd_coxeter(Presentation.parse(["x", "y"], "x^3, y^2, (x*y)^2")).index == 6
    assert todd_coxeter(A5).index == 60
    # quaternion group of order 8
    assert todd_coxeter(Q8).index == 8


def test_pgl27_presentation_has_order_336():
    pres = PGL27
    t = todd_coxeter(pres)
    assert t.index == 336
    # independent cross-check through the known degree-14 realization
    gens = tuple(parse_cycles(s, 14) for s in (
        "(1,2,3,4,5,6,7)(14,13,12,11,10,9,8)",
        "(2,6)(4,5)(14,10)(13,12)",
        "(7,14)(1,8)(2,9)(3,10)(4,11)(5,12)(6,13)"))
    for rel in pres.relators:
        assert word_image(gens, rel).is_identity()
    assert closure_order(gens) == 336


def test_subgroup_enumeration():
    pres = A5
    t = todd_coxeter(pres, [(1,)])
    assert t.index == 12  # cosets of <x> in the order-60 group


def test_closed_table_check_names_what_fails():
    pres = A5
    t = todd_coxeter(pres, [(1,)])
    _check_closed(t, pres.relators, [(1,)])
    # x^3 is not a relator of A5, and y does not lie in <x>
    with pytest.raises(RuntimeError, match=r"relator \(1, 1, 1\) does not close at coset \d+$"):
        _check_closed(t, pres.relators + ((1, 1, 1),), [(1,)])
    with pytest.raises(RuntimeError, match=r"subgroup generator \(2,\) does not fix coset 0$"):
        _check_closed(t, pres.relators, [(1,), (2,)])


def test_check_names_the_least_failing_coset_first():
    # (1,) is listed first but first fails at coset 1; (2,) fails at coset 0
    t = todd_coxeter(A5, [(1,)])
    assert t.trace(0, (1,)) == 0 and t.trace(1, (1,)) != 1
    with pytest.raises(RuntimeError) as exc:
        _check_closed(t, A5.relators + ((1,), (2,)), [(1,)])
    assert str(exc.value) == (
        "coset table check failed: relator (2,) does not close at coset 0")


def small_subgroups(pres):
    """The subgroups generated by the first generator, by the second, and
    the trivial subgroup, each with a label."""
    a, b = pres.names[:2]
    return ((f"<{a}>", [(1,)]), (f"<{b}>", [(2,)]), ("1", []))


def reference_cases():
    """(id, presentation, subgroup generators) on which the enumerator must
    define the same cosets in the same order as the reference."""
    for name in bundled_fixture_names():
        yield (f"{name} over N",) + fixture_over_control_group(name)
    yield "5sq_d6 over 1", fixture_over_control_group("5sq_d6")[0], []
    rng = random.Random(5)
    for k in range(5):
        rels = list(PGL27.relators)
        rng.shuffle(rels)
        shuffled = Presentation(PGL27.names, tuple(rels))
        for label, subgens in small_subgroups(shuffled):
            yield f"PGL(2,7) shuffle {k} over {label}", shuffled, subgens
    for group, pres in (("A5", A5), ("Q8", Q8)):
        for label, subgens in small_subgroups(pres):
            yield f"{group} over {label}", pres, subgens


@pytest.mark.parametrize("case", list(reference_cases()), ids=lambda case: case[0])
def test_definition_order_matches_reference(case):
    _, pres, subgens = case
    assert (todd_coxeter(pres, subgens).rows
            == todd_coxeter_reference(pres, subgens).rows)


@pytest.mark.parametrize("case", ["u3_3 over N", "PGL(2,7) over 1"])
def test_coset_limit_trips_at_reference_count(case):
    pres, subgens = (fixture_over_control_group("u3_3") if case == "u3_3 over N"
                     else (PGL27, []))

    def reference_closes(limit):
        try:
            todd_coxeter_reference(pres, subgens, limit)
        except CosetLimitExceeded:
            return False
        return True

    lo, hi = 1, 10 ** 6  # the least closing limit is in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reference_closes(mid) else (mid, hi)
    assert (todd_coxeter(pres, subgens, hi).rows
            == todd_coxeter_reference(pres, subgens).rows)
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(pres, subgens, hi - 1)


def test_max_cosets_limit():
    free = Presentation(("a", "b"), ())
    with pytest.raises(CosetLimitExceeded) as exc:
        todd_coxeter(free, max_cosets=50)
    assert exc.value.limit == 50
    assert "50" in str(exc.value)


def test_index_invariant_under_relator_order():
    rng = random.Random(11)
    pres = PGL27
    base = todd_coxeter(pres, [(1,), (2,)]).index
    for _ in range(5):
        rels = list(pres.relators)
        rng.shuffle(rels)
        shuffled = Presentation(pres.names, tuple(rels))
        assert todd_coxeter(shuffled, [(1,), (2,)]).index == base


def test_coset_action_is_homomorphism():
    pres = A5
    t = todd_coxeter(pres, [(1,)])
    images = coset_action(t)
    for rel in pres.relators:
        assert word_image(images, rel).is_identity()
    # subgroup generators fix coset 1
    assert images[0].apply(1) == 1


def test_relator_closure_at_every_coset():
    pres = Presentation.parse(["x", "y"], "x^4, y^2, (x*y)^2")
    t = todd_coxeter(pres)
    for c in range(t.index):
        for rel in pres.relators:
            assert t.trace(c, rel) == c


def test_word_image_empty_and_cancelling():
    pres = Presentation.parse(["a"], "a^5")
    images = coset_action(todd_coxeter(pres))
    assert word_image(images, ()).is_identity()
    assert word_image(images, (1, -1)).is_identity()
    with pytest.raises(ValueError):
        word_image(images, (2,))


def test_index_equals_order_for_small_corpus():
    # trivial-subgroup enumeration vs closure order of a faithful image
    cases = [
        ("x^3, y^2, (x*y)^2", ("(1,2,3)", "(1,2)"), 3),
        ("x^4, y^2, (x*y)^2", ("(1,2,3,4)", "(1,3)"), 4),
        ("x^5, y^2, (x*y)^3", ("(2,3,4,5,6)", "(1,2)(3,6)"), 6),
    ]
    for rel_text, cycle_strs, degree in cases:
        pres = Presentation.parse(["x", "y"], rel_text)
        gens = tuple(parse_cycles(s, degree) for s in cycle_strs)
        assert todd_coxeter(pres).index == closure_order(gens)


def test_enumeration_deterministic():
    pres = A5
    t1 = todd_coxeter(pres, [(2,)])
    t2 = todd_coxeter(pres, [(2,)])
    assert t1.rows == t2.rows
