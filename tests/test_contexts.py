import pytest

from symgen.perm import Perm
from symgen.symrep import (ContextError, SymContext, equal_sym, mult,
                           per2sym, sym2per)


def test_pure_only_context(l2_19):
    ctx = SymContext(l2_19.spec, rules=l2_19.rules, image=None)
    a = ctx.element(Perm.identity(6), (1, 2))
    b = ctx.element(Perm.identity(6), (2, 1))
    prod = mult(a, b)
    # t1 t2 t2 t1 collapses to the identity with no image in sight
    assert prod.control.is_identity() and prod.word == ()
    assert equal_sym(a, a)
    with pytest.raises(ContextError):
        sym2per(ctx, a)
    with pytest.raises(ContextError):
        per2sym(ctx, Perm.identity(57))
    with pytest.raises(ContextError):
        mult(a, b, mode="image")


def test_image_only_context(l2_19):
    ctx = SymContext(l2_19.spec, rules=None, image=l2_19.image)
    a = ctx.element(Perm.identity(6), (1, 2))
    b = ctx.element(Perm.identity(6), (2, 1))
    prod = mult(a, b)  # auto mode falls back to the image engine
    assert prod.control.is_identity() and prod.word == ()
    with pytest.raises(ContextError):
        mult(a, b, mode="pure")


def test_mode_validation(l2_19):
    a = l2_19.identity_element()
    with pytest.raises(ValueError):
        mult(a, a, mode="sideways")

