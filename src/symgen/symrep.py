"""Arithmetic on symmetrically represented elements.

An element is a pair (control permutation, word in the symmetric
generators); the canonical form uses the coset-representative word of the
element's control-group coset, so a group of order thousands is handled
through permutations of the small control degree plus a short word.

Two independent engines are provided and must agree: a pure rewrite
engine (unify + canon over the derived rule system, no image needed) and
an image-backed engine (convert to a coset permutation, operate, convert
back).  per2sym and sym2per are the two converters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perm import (IdentificationError, Perm, label_cycles_str,
                   parse_label_cycles)
from .progenitor import ProgenitorSpec, RuleSet, Word, normalize_tail
from .dcenum import SymImage


class ContextError(ValueError):
    """The operation needs a capability this context does not have."""


@dataclass
class SymContext:
    """Shared context for symmetric-representation arithmetic.

    rules enables the pure rewrite engine; image enables the image-backed
    engine.  Either may be None, but not both.
    """

    spec: ProgenitorSpec
    rules: RuleSet | None = None
    image: SymImage | None = None

    def __post_init__(self):
        if self.rules is None and self.image is None:
            raise ContextError("context needs rules, an image, or both")

    @property
    def n(self) -> int:
        return self.spec.n

    def require_image(self) -> SymImage:
        if self.image is None:
            raise ContextError("operation requires the image engine")
        return self.image

    def require_rules(self) -> RuleSet:
        if self.rules is None:
            raise ContextError("operation requires the rewrite engine")
        return self.rules

    def element(self, control: Perm, word: Sequence[int],
                canonical: bool = False) -> "SymElement":
        """Checked construction from outside input: the control must be a
        degree-n member of N and every letter must lie in 1..n."""
        if control.degree != self.n:
            raise ValueError(f"control degree {control.degree} != {self.n}")
        if control not in self.spec.control_group:
            raise IdentificationError("control permutation is not in the control group")
        word = tuple(word)
        for letter in word:
            if not 1 <= letter <= self.n:
                raise ValueError(f"word letter {letter} out of range 1..{self.n}")
        return SymElement(self, control, word, canonical)

    def identity_element(self) -> "SymElement":
        return SymElement(self, Perm.identity(self.n), (), True)


class SymElement:
    """control * t_word, with the control in its action on generator indices.

    Built unchecked: outside input goes through SymContext.element, and
    the engines build results only from members of N.
    """

    __slots__ = ("ctx", "control", "word", "canonical")

    def __init__(self, ctx: SymContext, control: Perm, word: Word,
                 canonical: bool = False):
        self.ctx = ctx
        self.control = control
        self.word = word
        self.canonical = canonical

    def __mul__(self, other: "SymElement") -> "SymElement":
        return mult(self, other)

    def __invert__(self) -> "SymElement":
        return invert_sym(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymElement):
            return NotImplemented
        return equal_sym(self, other)

    def __hash__(self):
        raise TypeError("SymElement is unhashable; compare via equal_sym")

    def __repr__(self) -> str:
        return f"SymElement({format_element(self)!r})"


def unify(a: SymElement, b: SymElement) -> tuple[Perm, Word]:
    """Gather two elements into one raw pair: pi*u . sigma*v =
    (pi*sigma) . u^sigma ++ v, with no reduction performed."""
    if a.ctx is not b.ctx and a.ctx.spec is not b.ctx.spec:
        raise ValueError("elements come from different contexts")
    sigma = b.control
    return (a.control * sigma,
            sigma.images_of(a.word) + b.word)


def canon(raw: tuple[Perm, Word], rules: RuleSet, *,
          trace: list | None = None) -> tuple[Perm, Word]:
    """Reduce a raw pair to canonically shortest form.

    One left-to-right pass over the word (RuleSet.canonical_form): each
    letter extends the least form of the prefix before it, through the
    (least word, letter) table read off the completed rule system on first
    use, and the table's permutation is gathered into the control part.
    When given, trace collects the (length, word) measure of the input and
    of the whole word after every rewrite step; each entry is strictly
    less than the one before.
    """
    perm, word = raw
    delta, form = rules.canonical_form(normalize_tail(word, rules.n),
                                       trace=trace)
    return perm * delta, form


def canon_element(ctx: SymContext, raw: tuple[Perm, Word]) -> SymElement:
    perm, word = canon(raw, ctx.require_rules())
    return SymElement(ctx, perm, word, canonical=True)


def per2sym(ctx: SymContext, p: Perm) -> SymElement:
    """Algorithm converting a coset permutation to its canonical pair.

    The image of point 1 names the coset, hence the word; stripping the
    word off leaves a permutation fixing point 1, whose control element is
    read off N's action table on the coset points.  A miss there means p
    is not in the group, which raises IdentificationError.
    """
    img = ctx.require_image()
    if p.degree != img.index:
        raise ValueError(f"degree {p.degree} != image degree {img.index}")
    word = img.cst[p.apply(1) - 1]
    residue = p
    for letter in reversed(word):
        residue = residue * img.ts[letter - 1]
    control = img.control_perm_of(residue)
    return SymElement(ctx, control, word, canonical=True)


def sym2per(ctx: SymContext, e: SymElement) -> Perm:
    """Realize an element as a permutation of the coset points."""
    img = ctx.require_image()
    p = img.realize_control(e.control)
    for letter in e.word:
        p = p * img.ts[letter - 1]
    return p


def mult(a: SymElement, b: SymElement, mode: str = "auto") -> SymElement:
    """Product of two symmetrically represented elements.

    mode "pure" uses unify + canon; mode "image" multiplies the realized
    permutations and converts back; "auto" prefers pure when rules exist.
    """
    ctx = a.ctx
    mode = _pick_mode(ctx, mode)
    if mode == "pure":
        return canon_element(ctx, unify(a, b))
    return per2sym(ctx, sym2per(ctx, a) * sym2per(ctx, b))


def invert_sym(a: SymElement, mode: str = "auto") -> SymElement:
    """Inverse: (pi*w)^-1 = pi^-1 * reverse(w)^(pi^-1), then canonical form."""
    ctx = a.ctx
    inv = ~a.control
    word = inv.images_of(a.word[::-1])
    mode = _pick_mode(ctx, mode)
    if mode == "pure":
        return canon_element(ctx, (inv, word))
    return per2sym(ctx, sym2per(ctx, SymElement(ctx, inv, word)))


def equal_sym(a: SymElement, b: SymElement, mode: str = "auto") -> bool:
    ctx = a.ctx
    mode = _pick_mode(ctx, mode)
    if mode == "pure":
        ca = a if a.canonical else canon_element(ctx, (a.control, a.word))
        cb = b if b.canonical else canon_element(ctx, (b.control, b.word))
        return ca.control == cb.control and ca.word == cb.word
    return sym2per(ctx, a) == sym2per(ctx, b)


def _pick_mode(ctx: SymContext, mode: str) -> str:
    if mode == "auto":
        return "pure" if ctx.rules is not None else "image"
    if mode == "pure":
        ctx.require_rules()
    elif mode == "image":
        ctx.require_image()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def cenelt(ctx: SymContext, a: SymElement) -> tuple[int, list[SymElement]]:
    """Centralizer of a symmetrically represented element, computed in the
    image and returned symmetrically represented."""
    img = ctx.require_image()
    cent = img.full_group.centralizer(sym2per(ctx, a))
    return cent.order(), [per2sym(ctx, g) for g in cent.gens]


# -- text form ---------------------------------------------------------------

def format_element(e: SymElement) -> str:
    """Render as "(control-cycles | l1.l2...)" using the group's labels."""
    labels = e.ctx.spec.labels
    control = label_cycles_str(e.control, labels) or "id"
    word = ".".join(labels[i - 1] for i in e.word) if e.word else "-"
    return f"({control} | {word})"


def parse_element(ctx: SymContext, text: str) -> SymElement:
    """Inverse of format_element (whitespace-insensitive)."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"element must be parenthesized: {text!r}")
    body = s[1:-1]
    if "|" not in body:
        raise ValueError(f"element needs a '|' separator: {text!r}")
    control_part, word_part = body.rsplit("|", 1)
    control_part = control_part.strip()
    word_part = word_part.strip()
    labels = ctx.spec.labels
    control = (Perm.identity(ctx.n) if control_part == "id"
               else parse_label_cycles(control_part, labels))
    if word_part in ("", "-"):
        word: Word = ()
    else:
        word = tuple(ctx.spec.label_index(tok.strip())
                     for tok in word_part.split("."))
    return ctx.element(control, word)

