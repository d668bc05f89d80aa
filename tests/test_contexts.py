import random

import pytest

from symgen.dcenum import build_image
from symgen.perm import Perm
from symgen.progenitor import derive_rules
from symgen.symrep import (SymContext, cenelt, equal_sym, invert_sym, mult,
                           sym2per)
from oracles import RefusingImage
from test_progenitor import (DEGREE_ONE_RELATORS, FIXTURES, _raw_pairs,
                             degree_one_spec, power_relator_spec)


def test_pure_only_context(l2_19):
    ctx = SymContext(l2_19.spec, RefusingImage(), rules=l2_19.rules)
    a = ctx.element(Perm.identity(6), (1, 2))
    b = ctx.element(Perm.identity(6), (2, 1))
    prod = mult(a, b)
    # t1 t2 t2 t1 collapses to the identity, and no attribute of the
    # image is read on the way
    assert prod.control.is_identity() and prod.word == ()
    assert equal_sym(a, a)


@pytest.mark.parametrize("name", FIXTURES + ["degree_one_free"])
def test_pure_engine_never_reads_the_image(all_contexts, name):
    # 100 seeded products and inversions of raw pairs, in pure mode through
    # a context whose image refuses every read, equal the image engine's on
    # a context of the same spec and rules; 2^{*1} : 1 with no relator has
    # an image of index 2 (t1_is_1 has none, and
    # test_degree_one_pure_products_and_inversions_match_the_oracle runs it
    # on a refusing image)
    if name in all_contexts:
        ctx = all_contexts[name]
    else:
        spec = degree_one_spec(DEGREE_ONE_RELATORS["free"])
        ctx = SymContext(spec, build_image(spec), rules=derive_rules(spec))
    refusing = SymContext(ctx.spec, RefusingImage(), rules=ctx.rules)
    raws = _raw_pairs(ctx.spec, random.Random(name), 200)
    for (p, u), (q, v) in zip(raws[::2], raws[1::2]):
        a, b = refusing.element(p, u), refusing.element(q, v)
        x, y = ctx.element(p, u), ctx.element(q, v)
        for got, want in ((mult(a, b, mode="pure"), mult(x, y, mode="image")),
                          (invert_sym(a, mode="pure"),
                           invert_sym(x, mode="image"))):
            assert ((got.control, got.word)
                    == (want.control, want.word)), (name, p, u, q, v)


def test_image_only_context(l2_19):
    ctx = SymContext(l2_19.spec, rules=None, image=l2_19.image)
    a = ctx.element(Perm.identity(6), (1, 2))
    b = ctx.element(Perm.identity(6), (2, 1))
    prod = mult(a, b)  # auto mode falls back to the image engine
    assert prod.control.is_identity() and prod.word == ()
    with pytest.raises(ValueError,
                       match="^operation requires the rewrite engine$"):
        mult(a, b, mode="pure")


def test_mode_validation(l2_19):
    a = l2_19.element(Perm.identity(l2_19.n), ())
    with pytest.raises(ValueError):
        mult(a, a, mode="sideways")


def test_elements_of_different_contexts_do_not_mix(d6_5sq, u3_3):
    # 5sq_d6 and 2^{*3}:S_3 / (x t_1)^5 both act on three letters, so only
    # the context check tells their elements apart; u3_3's act on 14
    spec = power_relator_spec(3, "x", 5)
    other = SymContext(spec, RefusingImage(), rules=derive_rules(spec))
    a = d6_5sq.element(Perm.identity(3), (1,))
    for b in (other.element(Perm.identity(3), (1,)),
              u3_3.element(Perm.identity(u3_3.n), ())):
        for x, y in ((a, b), (b, a)):
            for mode in ("auto", "pure", "image"):
                with pytest.raises(ValueError, match="^elements come from "
                                                     "different contexts$"):
                    mult(x, y, mode=mode)
                with pytest.raises(ValueError, match="^elements come from "
                                                     "different contexts$"):
                    equal_sym(x, y, mode=mode)


def test_conversions_refuse_an_element_of_another_context(d6_5sq, u3_3):
    # both contexts have an image, of 50 and of 20 points; an element of
    # one realized in the other would give a perm of the wrong group
    spec = power_relator_spec(3, "x", 5)
    other = SymContext(spec, image=build_image(spec))
    a = d6_5sq.element(Perm.identity(3), (1,))
    for b in (other.element(Perm.identity(3), (1,)),
              u3_3.element(Perm.identity(u3_3.n), ())):
        for ctx, e in ((d6_5sq, b), (b.ctx, a)):
            with pytest.raises(ValueError, match="^elements come from "
                                                 "different contexts$"):
                sym2per(ctx, e)
            with pytest.raises(ValueError, match="^elements come from "
                                                 "different contexts$"):
                cenelt(ctx, e)
