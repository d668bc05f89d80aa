import math
import random
import re

import pytest

from symgen import perm, symrep
from symgen.dcenum import build_image
from symgen.groupfile import load_bundled
from symgen.perm import IdentificationError, Perm
from symgen.symrep import (SymContext, SymElement, canon, canonical_form,
                           cenelt, equal_sym, format_element, invert_sym,
                           mult, parse_element, per2sym, sym2per)
from symgen.progenitor import normalize_tail
from oracles import (RefusingImage, centralizer_by_enumeration,
                     chain_by_perms, control_action_by_perms,
                     elements_by_chain, elements_by_perms, follow_word,
                     image_inverse_by_perms, image_product_by_perms, images_of,
                     per2sym_by_perms, sym2per_by_perms)
from test_progenitor import POWER_CASES, _case_spec, power_relator_spec


def ix_map(ctx):
    return {label: i + 1 for i, label in enumerate(ctx.spec.labels)}


def raw_pair(e):
    """The raw pair of an element, as mult hands it to canon."""
    return e.control.images, e.word


def rand_elements(ctx, count, seed=0):
    rng = random.Random(seed)
    full = ctx.image.full_group
    return [per2sym(ctx, full.random_element(rng)) for _ in range(count)]


def test_element_validation(l2_19):
    ctx = l2_19
    with pytest.raises(ValueError):
        ctx.element(Perm.identity(5), ())          # wrong degree
    with pytest.raises(ValueError):
        ctx.element(Perm((2, 1, 3, 4, 5, 6)), ())  # not in the control group
    with pytest.raises(ValueError):
        ctx.element(Perm.identity(6), (7,))        # letter out of range
    # letters that are no int: a float, even a whole one, and a bool
    for letter in (2.5, 2.0, True):
        with pytest.raises(ValueError,
                           match=re.escape(f"word letter {letter!r} is not "
                                           "an integer")):
            ctx.element(Perm.identity(6), (letter,))


def test_unify_identity_cases(l2_19):
    # the product form with an identity factor on the left is the right
    # factor, and a one-letter word moved by sigma is sigma's image of it
    ctx = l2_19
    e = ctx.element(Perm.identity(ctx.n), ())
    b = rand_elements(ctx, 1, seed=1)[0]
    assert canon(raw_pair(e), ctx.rules, raw_pair(b)) == (b.control, b.word)
    a = ctx.element(Perm.identity(6), (3,))
    sigma = b.control
    assert (canon(raw_pair(a), ctx.rules, (sigma.images, ()))
            == canon((sigma.images, (sigma.apply(3),)), ctx.rules))


def test_unify_flatten_length(u3_3):
    # a traced product builds u^sigma v, starts its trace from that word
    # without its squares, and reduces it as a lone pair
    ctx = u3_3
    a, b = rand_elements(ctx, 2, seed=2)
    moved = images_of(b.control, a.word) + b.word
    trace = []
    result = canon(raw_pair(a), ctx.rules, raw_pair(b), trace=trace)
    word = normalize_tail(moved, ctx.n)
    assert trace[0] == (len(word), word)
    assert result == canon(((a.control * b.control).images, moved), ctx.rules)


def test_canon_deletes_squares(l2_19):
    ctx = l2_19
    perm, word = canon((Perm.identity(6).images, (3, 3)), ctx.rules)
    assert perm.is_identity() and word == ()


BAD_WORDS = {
    "zero": ((0,), "tail letter 0 out of range 1..6"),
    "zero_inside": ((2, 0, 3), "tail letter 0 out of range 1..6"),
    "n_plus_one": ((7,), "tail letter 7 out of range 1..6"),
    "n_plus_one_after_square": ((3, 3, 7), "tail letter 7 out of range 1..6"),
    "negative": ((-1,), "tail letter -1 out of range 1..6"),
    "negative_after_letter": ((2, -6), "tail letter -6 out of range 1..6"),
}
# a product's right control sigma = (1,2,3,4,5,6): its images padded
# behind a 0 would read a negative letter of the left word as a real one
SIGMA = (2, 3, 4, 5, 6, 1)
IDENTITY = (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("left,right,message", [
    ((IDENTITY, word), None, message)
    for word, message in BAD_WORDS.values()] + [
    ((IDENTITY[:5], (2, 3)), None, "degree mismatch: 5 != 6")] + [
    ((IDENTITY, (1,) + word), (SIGMA, (4,)), message)
    for word, message in BAD_WORDS.values()] + [
    ((IDENTITY, (1,)), (SIGMA, word + (4,)), message)
    for word, message in BAD_WORDS.values()] + [
    ((IDENTITY, (1,)), ((2, 3, 4, 5, 1), (4,)), "degree mismatch: 5 != 6")],
    ids=list(BAD_WORDS) + ["degree_five"]
    + [f"{key}_in_left_factor" for key in BAD_WORDS]
    + [f"{key}_in_right_factor" for key in BAD_WORDS]
    + ["degree_five_right_factor"])
def test_canon_rejects_raw_input(l2_19, left, right, message, traced):
    # raw pairs come from outside SymContext.element too: canon names the
    # bad letter or degree of a lone pair or of either factor of a product
    # whether or not it traces, before any trace entry
    trace = [] if traced else None
    with pytest.raises(ValueError, match=re.escape(message)):
        canon(left, l2_19.rules, right, trace=trace)
    assert trace == ([] if traced else None)


@pytest.mark.parametrize("left,right,traced", [
    (left, right, traced)
    for left, right in (((IDENTITY, (2.5,)), None),
                        ((IDENTITY, (1, 2.5)), (SIGMA, (4,))),
                        ((IDENTITY, (1,)), (SIGMA, (2.5, 4))))
    for traced in (False, True)],
    ids=["untraced", "traced", "left_factor_untraced", "left_factor_traced",
         "right_factor_untraced", "right_factor_traced"])
def test_canon_reraises_a_table_miss_in_range(l2_19, left, right, traced):
    # 2.5 passes the range check but is no letter of the table, and no
    # point at which sigma's images can be read: a lone pair and either
    # factor of a product raise KeyError, whether or not canon traces
    with pytest.raises(KeyError):
        canon(left, l2_19.rules, right, trace=[] if traced else None)


def test_canon_empties_first_relator_word(u3_3):
    # the word b0.0.b0 names a control element: the canonical form has an
    # empty word and the control part acts like the paired swap
    ctx = u3_3
    ix = ix_map(ctx)
    perm, word = canon((Perm.identity(14).images,
                        (ix["b0"], ix["0"], ix["b0"])), ctx.rules)
    assert word == ()
    assert perm == ctx.spec.control_gens[2]


def test_canon_measure_strictly_decreases(all_contexts):
    for ctx in all_contexts.values():
        rng = random.Random(4)
        for _ in range(60):
            a, b = rand_elements(ctx, 2, seed=rng.randrange(10 ** 9))
            trace = []
            canon(raw_pair(a), ctx.rules, raw_pair(b), trace=trace)
            for before, after in zip(trace, trace[1:]):
                assert after < before
            assert len(trace) <= 2 * (len(a.word) + len(b.word)) + 2


def test_canon_idempotent(all_contexts):
    for ctx in all_contexts.values():
        for e in rand_elements(ctx, 30, seed=5):
            c1 = canon((e.control.images, e.word), ctx.rules)
            assert canon((c1[0].images, c1[1]), ctx.rules) == c1


def test_per2sym_trivial_cases(all_contexts):
    for ctx in all_contexts.values():
        img = ctx.image
        e = per2sym(ctx, Perm.identity(img.index))
        assert e.control.is_identity() and e.word == ()
        for i in (1, ctx.n):
            e = per2sym(ctx, img.ts[i - 1])
            assert e.control.is_identity() and e.word == (i,)


def test_sym2per_trivial_cases(all_contexts):
    for ctx in all_contexts.values():
        img = ctx.image
        one = ctx.element(Perm.identity(ctx.n), ())
        assert sym2per(ctx, one) == Perm.identity(img.index)
        e = ctx.element(Perm.identity(ctx.n), (2,))
        assert sym2per(ctx, e) == img.ts[1]


def test_roundtrip_is_identity(all_contexts):
    for ctx in all_contexts.values():
        rng = random.Random(6)
        full = ctx.image.full_group
        for _ in range(250):
            p = full.random_element(rng)
            assert sym2per(ctx, per2sym(ctx, p)) == p


def test_sym2per_per2sym_canonicalizes(all_contexts):
    for ctx in all_contexts.values():
        rng = random.Random(7)
        full = ctx.image.full_group
        for _ in range(100):
            e = per2sym(ctx, full.random_element(rng))
            raw = ctx.element(e.control, e.word)
            assert per2sym(ctx, sym2per(ctx, raw)).word == mult(
                raw, ctx.element(Perm.identity(ctx.n), ()), mode="pure").word


def test_word_length_bounds_sampled(all_contexts):
    bounds = {"l2_19": 3, "u3_3": 2, "5sq_d6": 7}
    for name, ctx in all_contexts.items():
        for e in rand_elements(ctx, 200, seed=8):
            assert len(e.word) <= bounds[name]


def test_mult_engines_agree(all_contexts):
    for ctx in all_contexts.values():
        rng = random.Random(9)
        full = ctx.image.full_group
        for _ in range(150):
            a = per2sym(ctx, full.random_element(rng))
            b = per2sym(ctx, full.random_element(rng))
            mp = mult(a, b, mode="pure")
            mi = mult(a, b, mode="image")
            assert mp.control == mi.control and mp.word == mi.word


def test_mult_is_homomorphic(all_contexts):
    for ctx in all_contexts.values():
        rng = random.Random(10)
        full = ctx.image.full_group
        for _ in range(150):
            p, q = full.random_element(rng), full.random_element(rng)
            prod = mult(per2sym(ctx, p), per2sym(ctx, q))
            assert sym2per(ctx, prod) == p * q


def test_mult_associative_via_image(all_contexts):
    for ctx in all_contexts.values():
        for _ in range(34):
            a, b, c = rand_elements(ctx, 3, seed=11 + _)
            left = mult(mult(a, b), c)
            right = mult(a, mult(b, c))
            assert left.control == right.control and left.word == right.word


def test_mult_inverse_gives_identity(all_contexts):
    for ctx in all_contexts.values():
        for e in rand_elements(ctx, 40, seed=12):
            prod = mult(e, invert_sym(e))
            assert prod.control.is_identity() and prod.word == ()


def test_invert_sym_cases(all_contexts):
    for ctx in all_contexts.values():
        e = ctx.element(Perm.identity(ctx.n), (1,))
        inv = invert_sym(e)
        assert inv.control.is_identity() and inv.word == (1,)
        rng = random.Random(13)
        full = ctx.image.full_group
        for _ in range(150):
            a = per2sym(ctx, full.random_element(rng))
            double = invert_sym(invert_sym(a))
            assert double.control == a.control and double.word == a.word
            assert sym2per(ctx, invert_sym(a)) == ~sym2per(ctx, a)


def test_pure_products_and_inversions_call_canon_once(monkeypatch,
                                                     all_contexts):
    # the benchmark's tracer wraps symrep.canon and counts its steps, so a
    # pure product or inversion must reach canon through that global
    calls = []
    original = symrep.canon

    def counting_canon(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(symrep, "canon", counting_canon)
    for ctx in all_contexts.values():
        a, b = rand_elements(ctx, 2, seed=17)
        for call in (lambda: mult(a, b, mode="pure"),
                     lambda: invert_sym(a, mode="pure")):
            calls.clear()
            call()
            assert len(calls) == 1


def test_pure_products_and_inversions_build_one_perm(monkeypatch,
                                                    all_contexts):
    # a raw pair carries its control as images, so the one Perm a pure
    # product or inversion builds is canon's result; every Perm, checked
    # or not, sets its images through perm._set_images
    built = []
    original = perm._set_images

    def counting_set_images(p, images):
        built.append(images)
        original(p, images)

    monkeypatch.setattr(perm, "_set_images", counting_set_images)
    for ctx in all_contexts.values():
        ctx.rules.table  # built on first use, before the count starts
        for seed in range(5):
            a, b = rand_elements(ctx, 2, seed=30 + seed)
            for call in (lambda: mult(a, b, mode="pure"),
                         lambda: invert_sym(a, mode="pure")):
                built.clear()
                result = call()
                assert built == [result.control.images]


def test_auto_mode_prefers_the_rewrite_engine(monkeypatch, all_contexts):
    # the engines agree on every result, so only the engine reached shows
    # which one "auto" picked; elt mult and elt invert take this path, and
    # equal_sym reduces each of its two sides
    calls = []
    original = symrep.canon

    def counting_canon(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(symrep, "canon", counting_canon)
    for ctx in all_contexts.values():
        assert ctx.rules is not None and ctx.image is not None
        a, b = rand_elements(ctx, 2, seed=18)
        raw = ctx.element(a.control, a.word)
        for call, count in ((lambda: mult(a, b), 1), (lambda: invert_sym(a), 1),
                            (lambda: equal_sym(raw, b), 2)):
            calls.clear()
            call()
            assert len(calls) == count


def test_operator_sugar(u3_3):
    a, b = rand_elements(u3_3, 2, seed=14)
    # == compares canonical forms, so it holds across the two engines
    assert mult(a, b) == mult(a, b, mode="image")
    assert invert_sym(a) == invert_sym(a, mode="image")
    assert a != (a.control, a.word)
    with pytest.raises(TypeError):
        hash(a)


def test_equal_sym_modes_agree(all_contexts):
    for ctx in all_contexts.values():
        rng = random.Random(15)
        full = ctx.image.full_group
        for _ in range(150):
            p, q = full.random_element(rng), full.random_element(rng)
            a, b = per2sym(ctx, p), per2sym(ctx, q)
            assert equal_sym(a, b, mode="pure") == equal_sym(a, b, mode="image") \
                == (p == q)
        # raw pairs: any control, squares, words longer than any canonical
        # word; both engines' canonical forms are the product with 1
        one = ctx.element(Perm.identity(ctx.n), ())
        group = ctx.spec.control_group
        for length in range(8):
            word = tuple(rng.randint(1, ctx.n) for _ in range(length))
            i = rng.randint(1, ctx.n)
            for w in (word, word + (i, i), (i, i) + word):
                raw = ctx.element(group.random_element(rng), w)
                forms = [canonical_form(raw, mode) for mode in ("pure", "image")]
                forms.append(mult(raw, one, mode="pure"))
                assert len({(f.control, f.word) for f in forms}) == 1
                assert equal_sym(raw, forms[0])


def _accepts(ctx, control, word):
    """Whether ctx.element takes (control, word) as a canonical pair."""
    try:
        ctx.element(control, word, canonical=True)
    except ValueError as exc:
        assert str(exc) == "control and word are not a canonical pair"
        return False
    return True


def _pure_accepts(ctx, control, word):
    form = canonical_form(SymElement(ctx, control, word), "pure")
    return (form.control, form.word) == (control, word)


def test_canonical_claims_are_checked(d6_5sq, u3_3):
    # t1 t1 = 1: equal_sym reduces the unchecked pair (id | 1.1) in either
    # mode, and element() rejects it as a canonical pair, as canon does
    # through a context whose image refuses every read, while both accept
    # the identity's own pair
    ctx = d6_5sq
    one = Perm.identity(ctx.n)
    square = SymElement(ctx, one, (1, 1))
    for mode in ("pure", "image"):
        assert equal_sym(square, ctx.element(one, ()), mode=mode)
    assert ctx.element(one, (), canonical=True).word == ()
    with pytest.raises(ValueError, match="^control and word are not a "
                                         "canonical pair$"):
        ctx.element(one, (1, 1), canonical=True)
    pure_only = SymContext(ctx.spec, RefusingImage(), rules=ctx.rules)
    assert _pure_accepts(pure_only, one, ())
    assert not _pure_accepts(pure_only, one, (1, 1))
    # the image engine decides, so checking a claim builds no letter table;
    # each verdict is the one canon gives
    fresh = load_bundled("u3_3").build_context()
    rules_only = SymContext(u3_3.spec, RefusingImage(), rules=u3_3.rules)
    rng = random.Random(19)
    pairs = []
    for e in rand_elements(fresh, 6, seed=19):
        i = rng.randint(1, fresh.n)
        pairs += [(e.control, e.word), (e.control, e.word + (i, i)),
                  (e.control, tuple(rng.randint(1, fresh.n) for _ in range(4)))]
    verdicts = [_accepts(fresh, *pair) for pair in pairs]
    assert "table" not in vars(fresh.rules)
    assert verdicts == [_pure_accepts(rules_only, *pair) for pair in pairs]
    assert verdicts.count(True) == 6


def test_equal_sym_specific_relation(u3_3):
    # b0.1 and y * 1.b0 are the same element written two ways
    ctx = u3_3
    ix = ix_map(ctx)
    y = ctx.spec.control_gens[1]
    left = ctx.element(Perm.identity(14), (ix["b0"], ix["1"]))
    right = ctx.element(y, (ix["1"], ix["b0"]))
    assert equal_sym(left, right, mode="pure")
    assert equal_sym(left, right, mode="image")


def test_cenelt_identity_is_whole_group(d6_5sq):
    order, gens = cenelt(d6_5sq, d6_5sq.element(Perm.identity(d6_5sq.n), ()))
    assert order == d6_5sq.image.full_group.order() == 300
    for g in gens:
        assert isinstance(g, SymElement)


def test_cenelt_brute_force_count(u3_3):
    ctx = u3_3
    ix = ix_map(ctx)
    a = ctx.element(Perm.identity(14), (ix["b0"],))
    order, gens = cenelt(ctx, a)
    target = sym2per(ctx, a)
    count = sum(1 for e in elements_by_chain(ctx.image.full_group)
                if e * target == target * e)
    assert order == count
    assert ctx.image.full_group.order() % order == 0
    for g in gens:
        prod1 = mult(g, a)
        prod2 = mult(a, g)
        assert prod1.control == prod2.control and prod1.word == prod2.word


@pytest.mark.parametrize("name", ["5sq_d6", "l2_19", "u3_3"])
def test_cenelt_matches_the_perm_product_chain(all_contexts, name):
    # cenelt's order and generator text on seeded elements are those of
    # the centralizer enumerated over the chain built from Perm products
    ctx = all_contexts[name]
    full = ctx.image.full_group
    elements = elements_by_perms(chain_by_perms(full), full.degree)
    rng = random.Random(12)
    for _ in range(10):
        p = full.random_element(rng)
        order, gens = cenelt(ctx, per2sym(ctx, p))
        ref = centralizer_by_enumeration(full, p, elements)
        assert (order, [format_element(g) for g in gens]) == (
            ref.order(), [format_element(per2sym(ctx, g)) for g in ref.gens])


def test_worked_product(u3_3):
    # two short elements whose product collapses back to a two-letter word;
    # the pure and image products agree and multiply correctly
    ctx = u3_3
    img = ctx.image
    ix = ix_map(ctx)
    t = ctx.spec.control_gens[2]
    a = ctx.element(t, (ix["b1"], ix["b2"]))
    pair_swap = per2sym(
        ctx, img.ts[ix["b2"] - 1] * img.ts[ix["3"] - 1] * img.ts[ix["b2"] - 1])
    assert pair_swap.word == ()
    b = ctx.element(pair_swap.control, (ix["b5"], ix["6"]))

    prod = mult(a, b, mode="pure")
    assert sym2per(ctx, prod) == sym2per(ctx, a) * sym2per(ctx, b)
    assert len(prod.word) == 2
    # the product lies in the single coset named by b2.b1 (and equivalently
    # by b1.b2, the canonical spelling)
    point = sym2per(ctx, prod).apply(1)
    assert follow_word(img, (ix["b2"], ix["b1"])) == point
    assert prod.word == (ix["b1"], ix["b2"])


def test_format_parse_roundtrip(all_contexts):
    for ctx in all_contexts.values():
        for e in rand_elements(ctx, 30, seed=17):
            text = format_element(e)
            back = parse_element(ctx, text)
            assert back.control == e.control and back.word == e.word
        one = ctx.element(Perm.identity(ctx.n), ())
        assert format_element(one).endswith("| -)")


def test_parse_element_errors(u3_3):
    with pytest.raises(ValueError):
        parse_element(u3_3, "no parens")
    with pytest.raises(ValueError):
        parse_element(u3_3, "(id)")
    with pytest.raises(ValueError):
        parse_element(u3_3, "(id | nope)")
    with pytest.raises(ValueError):
        parse_element(u3_3, "((b0,zz) | -)")


def test_per2sym_rejects_wrong_degree(u3_3):
    with pytest.raises(ValueError):
        per2sym(u3_3, Perm.identity(35))


def test_sym2per_rejects_a_control_outside_n(l2_19):
    # an unchecked element whose control has another degree, or lies
    # outside N, raises as SymImage.realized does, in image-mode products,
    # inversions and canonical forms too
    one = l2_19.element(Perm.identity(l2_19.n), ())
    for control, error, message in (
            (Perm.identity(3), ValueError, "^control degree 3 != 6$"),
            (Perm((2, 1, 3, 4, 5, 6)), IdentificationError,
             "^permutation is not in the control group$")):
        e = SymElement(l2_19, control, (1,))
        for call in (lambda: sym2per(l2_19, e),
                     lambda: mult(e, one, mode="image"),
                     lambda: mult(one, e, mode="image"),
                     lambda: invert_sym(e, mode="image"),
                     lambda: canonical_form(e, mode="image")):
            with pytest.raises(error, match=message):
                call()


@pytest.mark.parametrize("letter", [0, 7, -1],
                         ids=["zero", "n_plus_one", "negative"])
def test_image_operations_reject_a_letter_out_of_range(l2_19, letter):
    # a hand-built element's letter outside 1..n raises ValueError naming
    # it in every image-engine operation, in either factor of a product;
    # -1 would read the last t if letters were looked up by position, and
    # word_perm would read it as t_1's inverse
    ctx = l2_19
    e = SymElement(ctx, Perm.identity(ctx.n), (2, letter))
    one = ctx.element(Perm.identity(ctx.n), ())
    for call in (lambda: mult(e, one, mode="image"),
                 lambda: mult(one, e, mode="image"),
                 lambda: invert_sym(e, mode="image"),
                 lambda: invert_sym(e, mode="pure"),
                 lambda: canonical_form(e, mode="image"),
                 lambda: equal_sym(e, one, mode="image"),
                 lambda: sym2per(ctx, e)):
        with pytest.raises(ValueError, match=re.escape(
                f"letter {letter} out of range 1..{ctx.n}")):
            call()


# the fixtures and the image of every power case that has one
IMAGE_CASES = (["l2_19", "5sq_d6", "u3_3"]
               + [f"{n},{word},{k}" for n, word, k, outcome in POWER_CASES
                  if isinstance(outcome, int)])


def image_context(all_contexts, name):
    if name in all_contexts:
        return all_contexts[name]
    spec = _case_spec(name)
    return SymContext(spec, image=build_image(spec, max_cosets=2000))


def pair(e):
    return e.control, e.word


@pytest.mark.parametrize("name", IMAGE_CASES)
def test_image_engine_matches_the_perm_oracle(all_contexts, name):
    # the prebuilt gathers give what one Perm product per letter gave, on
    # canonical pairs
    ctx = image_context(all_contexts, name)
    full = ctx.image.full_group
    rng = random.Random(18)
    for _ in range(2000):
        p, q = full.random_element(rng), full.random_element(rng)
        a, b = per2sym(ctx, p), per2sym(ctx, q)
        assert pair(a) == pair(per2sym_by_perms(ctx, p))
        assert sym2per(ctx, a) == sym2per_by_perms(ctx, a) == p
        assert pair(mult(a, b, mode="image")) == pair(image_product_by_perms(a, b))
        assert pair(invert_sym(a, mode="image")) == pair(image_inverse_by_perms(a))


@pytest.mark.parametrize("name", IMAGE_CASES)
def test_per2sym_matches_the_perm_oracle_on_n(all_contexts, name):
    # the realization of each element of N has the empty canonical word,
    # the one case where the t-chain that per2sym strips is the identity
    ctx = image_context(all_contexts, name)
    for nu, g in control_action_by_perms(ctx.image).items():
        e = per2sym(ctx, g)
        assert pair(e) == pair(per2sym_by_perms(ctx, g)) == (nu, ())


@pytest.mark.parametrize("name", IMAGE_CASES)
def test_action_table_matches_the_perm_oracle(all_contexts, name):
    # one entry per element of N in each direction: an element's images
    # give the gather of its realization, and the realization's images
    # give the element back
    ctx = image_context(all_contexts, name)
    img = ctx.image
    gathers, elements = img._action
    oracle = control_action_by_perms(img)
    assert len(gathers) == len(elements) == len(oracle) == \
        ctx.spec.control_group.order()
    identity = Perm.identity(img.index).images
    assert {Perm(images): Perm(gather(identity))
            for images, gather in gathers.items()} == oracle
    assert elements == {g.images: nu for nu, g in oracle.items()}
    assert all(type(nu) is Perm for nu in elements.values())


# the image cases, dihedral images of a few orders, an image whose t_i
# share cosets, and the index-2 image of 2^{*1} : 1, whose control group
# is trivial and so has an empty base
TRACED_CASES = IMAGE_CASES + ["dihedral_3", "dihedral_4", "dihedral_8",
                              "dihedral_31", "shared_cosets",
                              "degree_one_free"]


@pytest.mark.parametrize("name", TRACED_CASES)
def test_image_engine_matches_the_perm_oracle_on_raw_words(all_contexts, name):
    # words that are not canonical: squares, long words, any control; the
    # pair operations trace 1 + |base| points, and canonical forms match
    # the oracle's conversions too
    ctx = image_context(all_contexts, name)
    full, control = ctx.image.full_group, ctx.spec.control_group
    if name == "shared_cosets":  # the case's point: the 1^(t_i) coincide
        assert len({t.apply(1) for t in ctx.image.ts}) == 4
    rng = random.Random(19)
    for _ in range(300):
        word = tuple(rng.randint(1, ctx.n) for _ in range(rng.randint(0, 9)))
        raw = ctx.element(control.random_element(rng), word)
        other = per2sym(ctx, full.random_element(rng))
        assert sym2per(ctx, raw) == sym2per_by_perms(ctx, raw)
        for a, b in ((raw, other), (other, raw), (raw, raw)):
            assert pair(mult(a, b, mode="image")) == pair(
                image_product_by_perms(a, b))
        for a in (raw, other):
            assert pair(invert_sym(a, mode="image")) == pair(
                image_inverse_by_perms(a))
            assert pair(canonical_form(a, mode="image")) == pair(
                per2sym_by_perms(ctx, sym2per_by_perms(ctx, a)))


def test_image_engine_matches_the_perm_oracle_at_index_1015():
    # 2^{*4}:S_4 / (x t_1)^7, where each table holds 1,015 entries of
    # 1,015 points: the tables give what one Perm product per letter gives
    spec = power_relator_spec(4, "x", 7)
    ctx = SymContext(spec, image=build_image(spec))
    assert ctx.image.index == 1015
    full = ctx.image.full_group
    rng = random.Random(21)
    perms = [full.random_element(rng) for _ in range(50)]
    elements = [per2sym(ctx, p) for p in perms]
    for p, a, b in zip(perms, elements, elements[1:] + elements[:1]):
        assert pair(a) == pair(per2sym_by_perms(ctx, p))
        assert sym2per(ctx, a) == sym2per_by_perms(ctx, a) == p
        assert pair(mult(a, b, mode="image")) == pair(image_product_by_perms(a, b))
        assert pair(invert_sym(a, mode="image")) == pair(image_inverse_by_perms(a))


@pytest.mark.parametrize("name", ["l2_19", "5sq_d6", "u3_3", "dihedral_2000"])
def test_pair_operations_build_no_chains(name):
    # products, inversions and canonical forms read no table of index^2
    # entries, so on a fresh image they leave the coset words' t-chains
    # unbuilt; each conversion still builds them
    spec = _case_spec(name)
    ctx = SymContext(spec, image=build_image(spec))
    img = ctx.image
    rng = random.Random(23)
    control = spec.control_group
    a, b = (ctx.element(control.random_element(rng), rng.choice(img.cst),
                        canonical=True) for _ in range(2))
    product, inverse = mult(a, b, mode="image"), invert_sym(a, mode="image")
    assert equal_sym(canonical_form(product, mode="image"), product, mode="image")
    assert "_chains" not in vars(img) and "_traces" in vars(img)
    p = sym2per(ctx, product)
    assert "_chains" in vars(img)
    del img._chains
    assert pair(per2sym(ctx, p)) == pair(product)
    assert "_chains" in vars(img)
    assert pair(mult(inverse, a, mode="image")) == (
        Perm.identity(ctx.n), ())


def _outcome(convert, ctx, p):
    try:
        return pair(convert(ctx, p))
    except ValueError as exc:  # IdentificationError is a ValueError
        return type(exc), str(exc)


@pytest.mark.parametrize("name", IMAGE_CASES)
def test_per2sym_matches_the_perm_oracle_outside_the_group(all_contexts, name):
    # a perm of the image's degree converts iff it lies in the group, and
    # raises IdentificationError otherwise; a wrong degree raises
    # ValueError, as the oracle does
    ctx = image_context(all_contexts, name)
    index, full = ctx.image.index, ctx.image.full_group
    rng = random.Random(20)
    outside = 0
    for _ in range(100):
        images = list(range(1, index + 1))
        rng.shuffle(images)
        p = Perm(images)
        got = _outcome(per2sym, ctx, p)
        assert got == _outcome(per2sym_by_perms, ctx, p)
        if p in full:
            assert sym2per(ctx, per2sym(ctx, p)) == p
        else:
            outside += 1
            assert got == (IdentificationError, "permutation is not in the group")
    # only a symmetric group holds every perm of its degree
    assert outside or full.order() == math.factorial(index)
    for degree in (index - 1, index + 1):
        got = _outcome(per2sym, ctx, Perm.identity(degree))
        assert got == _outcome(per2sym_by_perms, ctx, Perm.identity(degree))
        assert got == (ValueError, f"degree {degree} != image degree {index}")

