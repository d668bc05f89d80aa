import pytest

from symgen.dcenum import build_image
from symgen.perm import Perm
from symgen.progenitor import derive_rules
from symgen.symrep import (SymContext, cenelt, equal_sym, mult, per2sym,
                           sym2per)
from test_progenitor import power_relator_spec


def test_pure_only_context(l2_19):
    ctx = SymContext(l2_19.spec, rules=l2_19.rules, image=None)
    a = ctx.element(Perm.identity(6), (1, 2))
    b = ctx.element(Perm.identity(6), (2, 1))
    prod = mult(a, b)
    # t1 t2 t2 t1 collapses to the identity with no image in sight
    assert prod.control.is_identity() and prod.word == ()
    assert equal_sym(a, a)
    needs_image = "^operation requires the image engine$"
    with pytest.raises(ValueError, match=needs_image):
        sym2per(ctx, a)
    with pytest.raises(ValueError, match=needs_image):
        per2sym(ctx, Perm.identity(57))
    with pytest.raises(ValueError, match=needs_image):
        mult(a, b, mode="image")


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
    other = SymContext(spec, rules=derive_rules(spec))
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
