"""Arithmetic on symmetrically represented elements.

An element is a pair (control permutation, word in the symmetric
generators); the canonical form uses the coset-representative word of the
element's control-group coset, so a group of order thousands is handled
through permutations of the small control degree plus a short word.

Two independent engines are provided and must agree: a pure rewrite
engine (unify + canon over the derived rule system, no image needed) and
an image-backed engine, which realizes unify's raw pair on the coset
points and reads its canonical pair back with per2sym's reader.  mult,
invert_sym and equal_sym reduce their raw pairs through one dispatch
between the two.  per2sym and sym2per are the two converters.  The image
engine works on image tuples through the image's prebuilt gathers
(SymImage.t_gathers, control_gathers), so a conversion or an image-mode
product builds no Perm product on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perm import (IdentificationError, Images, Perm, _gather, _trusted,
                   label_cycles_str, parse_label_cycles)
from .progenitor import ProgenitorSpec, RuleSet, Word, normalize_tail
from .dcenum import SymImage, word_label


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


def _shared_context(a: SymElement, b: SymElement) -> SymContext:
    """a's context, once b is known to come from a context of the same
    spec: elements of two specs never mix, whatever their degrees."""
    if a.ctx is not b.ctx and a.ctx.spec is not b.ctx.spec:
        raise ValueError("elements come from different contexts")
    return a.ctx


def unify(a: SymElement, b: SymElement) -> tuple[Perm, Word]:
    """Gather two elements into one raw pair: pi*u . sigma*v =
    (pi*sigma) . u^sigma ++ v, with no reduction performed.  sigma's
    images are padded behind a 0 once, and both pi*sigma and u^sigma are
    gathered from that one tuple, so a call builds one Perm."""
    _shared_context(a, b)
    padded = (0,) + b.control.images
    return (_trusted(_gather(a.control.images, padded)),
            _gather(a.word, padded) + b.word)


def canon(raw: tuple[Perm, Word], rules: RuleSet, *,
          trace: list | None = None) -> tuple[Perm, Word]:
    """Reduce a raw pair to canonically shortest form.

    One left-to-right pass over the word (RuleSet.canonical_form): each
    letter extends the least form of the prefix before it, through the
    (least word, letter) table read off the completed rule system on first
    use.  The scan starts from the raw control's images and gathers each
    table entry's into them, so a call builds one Perm, its result.

    Without a trace the word goes into the scan as it is: the table has an
    entry (s, i) for every least word s and letter i, an s that ends in i
    too, so the scan cancels squares t_i t_i itself.  A letter outside
    1..n misses the table, and the range check then names it.  With a
    trace, squares are dropped first, and trace collects the (length,
    word) measure of that input and of the whole word after every rewrite
    step; each entry is strictly less than the one before.
    """
    perm, word = raw
    if perm.degree != rules.n:
        raise ValueError(f"degree mismatch: {perm.degree} != {rules.n}")
    if trace is not None:
        return rules.canonical_form(normalize_tail(word, rules.n),
                                    perm.images, trace)
    try:
        return rules.canonical_form(word, perm.images)
    except KeyError:
        normalize_tail(word, rules.n)  # raises for a letter out of range
        raise


def _t_chain(img: SymImage, word: Word) -> Images:
    """The images of t_word = t_w1 * ... * t_wk: those of word's last t,
    then one prebuilt gather per letter before it, right to left."""
    if not word:
        return tuple(range(1, img.index + 1))
    images = img.ts[word[-1] - 1].images
    gathers = img.t_gathers
    for letter in word[-2::-1]:
        images = gathers[letter - 1](images)
    return images


def _realized(img: SymImage, control: Images, word: Word) -> Images:
    """The images of realize(nu) * t_word, for nu the control element with
    the images control: the t-chain of word gathered by nu's gather."""
    return img.control_gathers[control](_t_chain(img, word))


def _read_pair(ctx: SymContext, images: Images) -> SymElement:
    """The canonical pair of the element of the image with these images.

    The image of point 1 names the coset, hence the canonical word w;
    stripping the word off leaves g * t_wk...t_w1, which fixes point 1 and
    is the realization of the control element.  One gather of the images
    by the t-chain of w reversed gives that residue, looked up in N's
    realizations.  A miss there means the images are not those of an
    element of the group, which raises IdentificationError.
    """
    img = ctx.image
    word = img.cst[images[0] - 1]
    residue = _gather(images, (0,) + _t_chain(img, word[::-1]))
    return SymElement(ctx, img.control_of_images(residue), word, canonical=True)


def per2sym(ctx: SymContext, p: Perm) -> SymElement:
    """Algorithm converting a coset permutation to its canonical pair:
    _read_pair on its images."""
    img = ctx.require_image()
    if p.degree != img.index:
        raise ValueError(f"degree {p.degree} != image degree {img.index}")
    return _read_pair(ctx, p.images)


def sym2per(ctx: SymContext, e: SymElement) -> Perm:
    """Realize an element as a permutation of the coset points: the images
    of realize(control) * t_word, gathered right to left by the image's
    prebuilt gathers."""
    img = ctx.require_image()
    try:
        images = _realized(img, e.control.images, e.word)
    except KeyError:
        img.realize_control(e.control)  # raises for a control outside N
        raise
    return _trusted(images)


def mult(a: SymElement, b: SymElement, mode: str = "auto") -> SymElement:
    """Product of two symmetrically represented elements: the raw pair
    that unify gathers, where the two elements' context is checked,
    reduced by the engine mode picks (_reduce)."""
    return _reduce(a.ctx, unify(a, b), _is_pure(a.ctx, mode))


def invert_sym(a: SymElement, mode: str = "auto") -> SymElement:
    """Inverse: (pi*w)^-1 = pi^-1 * reverse(w)^(pi^-1), then canonical form."""
    inv = ~a.control
    return _reduce(a.ctx, (inv, inv.images_of(a.word[::-1])),
                   _is_pure(a.ctx, mode))


def equal_sym(a: SymElement, b: SymElement, mode: str = "auto") -> bool:
    """Whether two elements agree: their canonical pairs are equal.  An
    element marked canonical is its own pair; the others are reduced by
    the engine mode picks."""
    ctx = _shared_context(a, b)
    pure = _is_pure(ctx, mode)
    ca = a if a.canonical else _reduce(ctx, (a.control, a.word), pure)
    cb = b if b.canonical else _reduce(ctx, (b.control, b.word), pure)
    return ca.control == cb.control and ca.word == cb.word


def _is_pure(ctx: SymContext, mode: str) -> bool:
    """Whether mode picks the rewrite engine, after checking that the
    engine it picks exists; "auto" prefers pure when rules exist."""
    if mode == "auto":
        return ctx.rules is not None
    if mode == "pure":
        ctx.require_rules()
    elif mode == "image":
        ctx.require_image()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "pure"


def _reduce(ctx: SymContext, raw: tuple[Perm, Word], pure: bool) -> SymElement:
    """The canonical element of a raw pair (nu, word): by canon over the
    rules, or by realizing it in one chain of prebuilt gathers and reading
    its canonical pair back (_read_pair), with no Perm product."""
    if pure:
        # canon by its module global, which the benchmark's tracer wraps
        perm, word = canon(raw, ctx.rules)
        return SymElement(ctx, perm, word, canonical=True)
    control, word = raw
    return _read_pair(ctx, _realized(ctx.image, control.images, word))


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
    word = word_label(e.ctx.spec, e.word) if e.word else "-"
    return f"({control} | {word})"


def parse_element(ctx: SymContext, text: str) -> SymElement:
    """Inverse of format_element (whitespace-insensitive)."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"element must be parenthesized: {text!r}")
    body = s[1:-1]
    if body.count("|") != 1:
        raise ValueError(f"element needs exactly one '|' separator: {text!r}")
    control_part, word_part = body.split("|")
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

