import random

import pytest

from symgen import fpgroup
from symgen.fpgroup import (CosetLimitExceeded, Presentation, _check_closed,
                            coset_action, commutator, concat, invert_word,
                            parse_word, reduce_word, todd_coxeter, word_str)
from symgen.groupfile import bundled_fixture_names, load_bundled
from symgen.perm import parse_cycles, word_perm
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
    ("", ()),
    (" ", ()),
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


@pytest.mark.parametrize("text,expected", [
    # a comma inside parentheses belongs to the commutator
    ("(x, y)^2, x^3",
     (commutator((1,), (2,)) * 2, (1, 1, 1))),
    # empty items are skipped, and so is an empty text
    ("x^2, , y,", ((1, 1), (2,))),
    (" , ", ()),
    ("", ()),
])
def test_presentation_parse_relator_list(text, expected):
    assert Presentation.parse(["x", "y"], text).relators == expected


@pytest.mark.parametrize("text", ["(x, y", "x), y", "(x*y))^2, x", "x y"])
def test_presentation_parse_relator_list_errors(text):
    with pytest.raises(ValueError):
        Presentation.parse(["x", "y"], text)


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
        assert word_perm(gens, rel).is_identity()
    assert closure_order(gens) == 336


def test_subgroup_enumeration():
    pres = A5
    t = todd_coxeter(pres, [(1,)])
    assert t.index == 12  # cosets of <x> in the order-60 group


def test_closed_table_check_names_what_fails():
    pres = A5
    t = todd_coxeter(pres, [(1,)])
    # an empty relator closes everywhere, a one-letter relator is its column
    _check_closed(t, pres.relators + ((),), [(1,)])
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
    """(id, presentation, subgroup generators, index) on which the
    enumerator must define the same cosets in the same order as the
    reference; the indices are pinned apart from both enumerators."""
    for name, index in (("5sq_d6", 50), ("l2_19", 57), ("u3_3", 36)):
        yield (f"{name} over N",) + fixture_over_control_group(name) + (index,)
    yield "5sq_d6 over 1", fixture_over_control_group("5sq_d6")[0], [], 300
    rng = random.Random(5)
    for k in range(5):
        rels = list(PGL27.relators)
        rng.shuffle(rels)
        shuffled = Presentation(PGL27.names, tuple(rels))
        for (label, subgens), index in zip(small_subgroups(shuffled),
                                           (48, 168, 336)):
            yield f"PGL(2,7) shuffle {k} over {label}", shuffled, subgens, index
    for group, pres, indices in (("A5", A5, (12, 30, 60)), ("Q8", Q8, (2, 2, 8))):
        for (label, subgens), index in zip(small_subgroups(pres), indices):
            yield f"{group} over {label}", pres, subgens, index


@pytest.mark.parametrize("case", list(reference_cases()), ids=lambda case: case[0])
def test_definition_order_matches_reference(case):
    _, pres, subgens, index = case
    table = todd_coxeter(pres, subgens)
    assert table.index == index
    assert table.columns == todd_coxeter_reference(pres, subgens).columns


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
    assert (todd_coxeter(pres, subgens, hi).columns
            == todd_coxeter_reference(pres, subgens).columns)
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(pres, subgens, hi - 1)


def least_closing_limit(pres, subgens, limit):
    """Assert that limit is the least max_cosets at which the enumeration
    closes, that is, the number of cosets it defines."""
    todd_coxeter(pres, subgens, limit)
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(pres, subgens, limit - 1)


def working_columns(monkeypatch, pres, subgens=()):
    """The inverse table of the working columns that the enumeration of
    pres hands _hlt."""
    seen = []

    def spy(inv, *args):
        seen.append(list(inv))
        return hlt(inv, *args)

    hlt = fpgroup._hlt
    monkeypatch.setattr(fpgroup, "_hlt", spy)
    todd_coxeter(pres, subgens)
    monkeypatch.undo()
    return seen[0]


def test_an_inverse_square_makes_an_involution(monkeypatch):
    # y^-2 gives y one column, as y^2 does, and neither square is scanned
    squared = Presentation.parse(["x", "y"], "x^3, y^2, (x*y)^2")
    inverse_squared = Presentation.parse(["x", "y"], "x^3, y^-2, (x*y)^2")
    assert working_columns(monkeypatch, squared) == [1, 0, 2]
    assert working_columns(monkeypatch, inverse_squared) == [1, 0, 2]
    table = todd_coxeter(inverse_squared)
    assert table.index == 6
    assert (table.columns == todd_coxeter(squared).columns
            == todd_coxeter_reference(inverse_squared).columns)


@pytest.mark.parametrize("texts", [
    ["y^-1"],
    ["y^-1*x*y"],
    ["x*y^-1*x^-1*y"],
    ["y^-1", "x*y^-1*x^-1"],
    ["y^-1*x^2*y^-1*x^-2"],
])
def test_subgroup_words_with_an_inverse_involution(texts):
    # y is an involution of A5, so y^-1 reads y's one column; the index is
    # checked against the subgroup's order in A5 on five points
    gens = (parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)(3,4)", 5))
    assert all(word_perm(gens, rel).is_identity() for rel in A5.relators)
    words = [parse_word(text, A5.names) for text in texts]
    table = todd_coxeter(A5, words)
    assert table.index * closure_order(
        tuple(word_perm(gens, w) for w in words)) == 60
    assert all(table.trace(0, w) == 0 for w in words)
    assert table.columns == todd_coxeter_reference(A5, words).columns


def test_a_square_inside_a_conjugate_keeps_two_columns(monkeypatch):
    # x*y*y*x^-1 says y^2 = 1 but is no square after free reduction
    pres = Presentation.parse(["x", "y"], "x^3, x*y*y*x^-1, (x*y)^2")
    assert working_columns(monkeypatch, pres) == [1, 0, 3, 2]
    table = todd_coxeter(pres)
    assert table.index == 6
    assert table.columns == todd_coxeter_reference(pres).columns
    for c in range(table.index):
        assert table.trace(c, (2, 2)) == c


@pytest.mark.parametrize("subgens,rows,defined", [
    ([(1,)], ((0, 0, 1, 1), (1, 1, 0, 0)), 2),
    ([(2,)], ((1, 1, 0, 0), (0, 0, 1, 1)), 4),
    ([], ((1, 3, 4, 5), (2, 0, 6, 7), (3, 1, 5, 4), (0, 2, 7, 6),
          (7, 6, 2, 0), (6, 7, 0, 2), (4, 5, 3, 1), (5, 4, 1, 3)), 8),
])
def test_q8_without_involutions_enumerates_as_before(monkeypatch, subgens,
                                                     rows, defined):
    # no relator of Q8 is a square, so every generator keeps two columns
    # and the tables and coset counts are those of two columns throughout
    assert working_columns(monkeypatch, Q8, subgens) == [1, 0, 3, 2]
    assert todd_coxeter(Q8, subgens).columns == tuple(zip(*rows))
    least_closing_limit(Q8, subgens, defined)


@pytest.mark.parametrize("name,defined", [
    ("5sq_d6", 693), ("l2_19", 19607), ("u3_3", 40304),
])
def test_fixture_cosets_defined_over_1(name, defined):
    # two columns per generator defined 1,305, 71,711 and 70,230 cosets,
    # and the factoring relators as written, with one column per
    # involution, 889, 43,700 and 40,304
    least_closing_limit(fixture_over_control_group(name)[0], [], defined)


@pytest.mark.parametrize("name,defined", [
    ("5sq_d6", 131), ("l2_19", 317), ("u3_3", 134),
])
def test_fixture_cosets_defined_over_n(name, defined):
    # the factoring relators as written defined 145, 902 and 134 cosets
    least_closing_limit(*fixture_over_control_group(name), defined)


def closed_table_cases():
    """(id, presentation, subgroup generators) whose closed columns are
    checked: the fixtures over N and over 1, and small subgroups of A5,
    which has an involution, and Q8, which has none."""
    for name in ("5sq_d6", "l2_19", "u3_3"):
        pres, subgens = fixture_over_control_group(name)
        yield f"{name} over N", pres, subgens
        yield f"{name} over 1", pres, []
    for group, pres in (("A5", A5), ("Q8", Q8)):
        for label, subgens in small_subgroups(pres):
            yield f"{group} over {label}", pres, subgens


@pytest.mark.parametrize("case", list(closed_table_cases()),
                         ids=lambda case: case[0])
def test_closed_columns_are_inverse_permutations(case):
    # the closed table keeps the working columns: each letter k and -k has
    # a column, every column serves some letter, k's and -k's columns are
    # inverse permutations of the cosets, and two letters share a column
    # exactly when they are an involution and its inverse
    _, pres, subgens = case
    table = todd_coxeter(pres, subgens)
    cosets = list(range(table.index))
    m = len(pres.names)
    assert sorted(table.column) == [*range(-m, 0), *range(1, m + 1)]
    letters = {}
    for letter in sorted(table.column):
        letters.setdefault(table.column[letter], []).append(letter)
    assert sorted(letters) == list(range(len(table.columns)))
    involutions = [k for k in range(1, m + 1)
                   if (k, k) in pres.relators or (-k, -k) in pres.relators]
    assert [letters[c] for c in sorted(letters)
            if len(letters[c]) > 1] == [[-k, k] for k in involutions]
    for k in range(1, m + 1):
        forward = table.columns[table.column[k]]
        backward = table.columns[table.column[-k]]
        assert sorted(forward) == sorted(backward) == cosets
        assert [forward[c] for c in backward] == cosets


def test_a_presentation_without_generators_has_one_coset():
    # the one coset has no column to be counted in, so the index is kept
    table = todd_coxeter(Presentation((), ()))
    assert table.index == 1
    assert table.columns == ()
    assert coset_action(table) == []


def test_max_cosets_limit():
    free = Presentation(("a", "b"), ())
    with pytest.raises(CosetLimitExceeded) as exc:
        todd_coxeter(free, max_cosets=50)
    assert str(exc.value) == "coset enumeration exceeded the limit of 50 cosets"


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
        assert word_perm(images, rel).is_identity()
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
    assert word_perm(images, ()).is_identity()
    assert word_perm(images, (1, -1)).is_identity()
    with pytest.raises(ValueError):
        word_perm(images, (2,))


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
    assert t1.columns == t2.columns


def test_parse_word_refuses_deep_nesting():
    # 100 nested parentheses parse; more raise ValueError, not
    # RecursionError, at the parenthesis that goes too deep
    assert parse_word("(" * 100 + "x" + ")" * 100, ("x", "y")) == (1,)
    assert parse_word("(x*" * 100 + "y" + ")" * 100, ("x", "y")) == (1,) * 100 + (2,)
    for depth in (101, 3000):
        text = "(" * depth + "x" + ")" * depth + ", y^2"
        with pytest.raises(ValueError,
                           match="^parentheses nested deeper than 100 at position 100 in"):
            Presentation.parse(("x", "y"), text)


def test_parse_error_quotes_an_excerpt_of_long_text():
    # text of up to 60 characters is quoted whole; longer text by the 60
    # characters around the position, marked "..." where it is cut
    with pytest.raises(ValueError, match=r"^expected a generator name at "
                                         r"position 2 in 'x\^'$"):
        parse_word("x^", ("x", "y"))
    text = "x*" * 50 + "q" + "*y" * 50
    with pytest.raises(ValueError) as exc:
        parse_word(text, ("x", "y"))
    assert str(exc.value) == ("expected a generator name at position 100 in "
                              f"...{text[70:130]!r}...")
    with pytest.raises(ValueError) as exc:
        parse_word(text[:-1], ("x", "y"))
    assert str(exc.value) == ("expected a generator name at position 100 in "
                              f"...{text[70:130]!r}...")
    text = "x*" * 35 + "x^"
    with pytest.raises(ValueError) as exc:
        parse_word(text, ("x", "y"))
    assert str(exc.value) == ("expected a generator name at position 72 in "
                              f"...{text[12:]!r}")
