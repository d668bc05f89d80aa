"""Arithmetic on symmetrically represented elements.

An element is a pair (control permutation, word in the symmetric
generators); the canonical form uses the coset-representative word of the
element's control-group coset, so a group of order thousands is handled
through permutations of the small control degree plus a short word.

Two independent engines are provided and must agree: a pure rewrite
engine (canon's walk of the letter table, reading no image) and the
image engine in dcenum.SymImage.  mult, invert_sym, canonical_form and
equal_sym pick one by mode (_is_pure), after checking that their
elements share a context; the rewrite engine reduces a raw pair, or a
product of two, and the image engine's traced_pair traces point 1 and a
base of N through the factors' controls and letters and reads the
canonical pair off the traced points, with no gather of a whole coset
permutation.  An inversion is the product (1 | reverse(w)) * (pi^-1 | ())
in either engine.  canonical_form is the one way to ask for an
element's canonical pair outside a product or an inversion: equal_sym
compares two of them, and SymContext.element(..., canonical=True)
compares a pair with its own, by the image engine.  per2sym and sym2per
are the two converters, through SymImage.read_pair and
SymImage.realized, one gather per table each.

A raw pair is (control images, word): the control travels as its tuple
of images, as inside RuleSet, so a pure product or inversion builds one
Perm, canon's result.  A pure product hands canon the two factors' pairs,
which it multiplies and reduces in one walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .perm import (IdentificationError, Images, Perm, _inverse, _trusted,
                   label_cycles_str, parse_label_cycles)
from .progenitor import ProgenitorSpec, RuleSet, Word, normalize_tail
from .dcenum import SymImage, word_label


@dataclass
class SymContext:
    """Shared context for symmetric-representation arithmetic.

    image is the image engine, which every context carries; rules enables
    the pure rewrite engine, and a pure operation on a context without
    rules raises ValueError.
    """

    spec: ProgenitorSpec
    image: SymImage
    rules: RuleSet | None = None

    @property
    def n(self) -> int:
        return self.spec.n

    def element(self, control: Perm, word: Sequence[int],
                canonical: bool = False) -> "SymElement":
        """Checked construction from outside input: the control must be a
        degree-n member of N and every letter must be an int (no bool) in
        1..n.  With canonical=True the pair must also be its own
        canonical_form, which raises ValueError otherwise; the image engine
        decides, so the check builds no letter table."""
        if control.degree != self.n:
            raise ValueError(f"control degree {control.degree} != {self.n}")
        if control not in self.spec.control_group:
            raise IdentificationError("control permutation is not in the control group")
        word = tuple(word)
        for letter in word:
            if not isinstance(letter, int) or isinstance(letter, bool):
                raise ValueError(f"word letter {letter!r} is not an integer")
            if not 1 <= letter <= self.n:
                raise ValueError(f"word letter {letter} out of range 1..{self.n}")
        e = SymElement(self, control, word)
        if canonical:
            form = canonical_form(e, "image")
            if (form.control, form.word) != (control, word):
                raise ValueError("control and word are not a canonical pair")
        return e


class SymElement:
    """control * t_word, with the control in its action on generator indices.

    Built unchecked: outside input goes through SymContext.element, and
    the engines build results only from members of N.
    """

    __slots__ = ("ctx", "control", "word")

    def __init__(self, ctx: SymContext, control: Perm, word: Word):
        self.ctx = ctx
        self.control = control
        self.word = word

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymElement):
            return NotImplemented
        return equal_sym(self, other)

    def __repr__(self) -> str:
        return f"SymElement({format_element(self)!r})"


def _shared_context(ctx: SymContext, other: SymContext) -> SymContext:
    """ctx, once other is known to be a context of the same spec: elements
    of two specs never mix, whatever their degrees."""
    if ctx is not other and ctx.spec is not other.spec:
        raise ValueError("elements come from different contexts")
    return ctx


def canon(raw: tuple[Images, Word], rules: RuleSet,
          right: tuple[Images, Word] | None = None, *,
          trace: list | None = None) -> tuple[Perm, Word]:
    """Reduce a raw pair (control images, word), or with right the product
    raw * right, to its canonically shortest form (perm, least word), with
    control * t_word = perm * t_form.

    One left-to-right run of the letter table's automaton, whose states
    are the cosets of N (RuleSet.table), from state 0, the coset of ():
    each letter takes one row entry, whose images are gathered into the
    control's, and the form is the least word of the last state.  A call
    builds one Perm, its result.

    A product (pi | u) * (sigma | v) is (pi*sigma | u^sigma v): sigma is
    padded behind a 0 once, pi*sigma is gathered from it, and the walk
    reads each letter of u through it and then reads v, so no word
    u^sigma v is built.

    Without a trace the words go into the walk as they are: every state's
    row has an entry for every letter i, a state whose least word ends in
    i too, so the walk cancels squares t_i t_i itself.  A letter outside
    1..n misses the row, and the range check then names it; one in range
    that is no int, such as 2.5, raises KeyError, in either factor.  With a
    trace, a product's word u^sigma v is built, squares are dropped first,
    and trace collects the (length, word) measure of that input and of the
    whole word after every rewrite step; each entry is strictly less than
    the one before.
    """
    images, word = raw
    n = rules.n
    if len(images) != n:
        raise ValueError(f"degree mismatch: {len(images)} != {n}")
    rows, words = rules.table
    state = 0
    if right is not None:
        sigma, v = right
        if len(sigma) != n:
            raise ValueError(f"degree mismatch: {len(sigma)} != {n}")
        padded = (0,) + sigma
        # at degree 1 both controls are the identity, and itemgetter of
        # one index would return no tuple
        if n > 1:
            images = itemgetter(*images)(padded)
        if trace is not None:
            normalize_tail(word, n)  # names a letter out of range
            # sigma as a dict, which a letter in range but no int misses
            word = tuple(map(dict(enumerate(sigma, start=1)).__getitem__,
                             word)) + v
        else:
            try:
                for letter in word:
                    # padded[-k] would be a letter of sigma, so a letter
                    # below 1 reads 0 instead and misses the row; a letter
                    # above n misses padded
                    step, state = rows[state][
                        padded[letter] if letter > 0 else 0]
                    if step is not None:
                        images = itemgetter(*images)(step)
            except (KeyError, IndexError, TypeError):
                normalize_tail(word, n)  # raises for a letter out of range
                # a letter in range but no int, which padded cannot read
                raise KeyError(letter) from None
            word = v
    if trace is not None:
        word = normalize_tail(word, n)
        trace.append((len(word), word))
        read = 0  # letters read, counted only for the trace
    try:
        for letter in word:
            step, new = rows[state][letter]
            # None for the identity, so always at degree 1, where
            # itemgetter of one index would return no tuple
            if step is not None:
                images = itemgetter(*images)(step)
            if trace is not None:
                read += 1
                if words[new] != words[state] + (letter,):
                    current = words[new] + word[read:]
                    trace.append((len(current), current))
            state = new
    except KeyError:
        normalize_tail(word, n)  # raises for a letter out of range
        raise
    return _trusted(images), words[state]


def per2sym(ctx: SymContext, p: Perm) -> SymElement:
    """Algorithm converting a coset permutation to its canonical pair, read
    back from its images by the image engine (SymImage.read_pair)."""
    img = ctx.image
    if p.degree != img.index:
        raise ValueError(f"degree {p.degree} != image degree {img.index}")
    nu, word = img.read_pair(p.images)
    return SymElement(ctx, nu, word)


def sym2per(ctx: SymContext, e: SymElement) -> Perm:
    """Realize an element of ctx's spec as a permutation of the coset
    points, by the image engine (SymImage.realized)."""
    _shared_context(ctx, e.ctx)
    return _trusted(ctx.image.realized(e.control, e.word))


def mult(a: SymElement, b: SymElement, mode: str = "auto") -> SymElement:
    """Product of two symmetrically represented elements of one context,
    by the engine mode picks: canon reduces the product of the two pairs
    in one walk, or the image engine traces it."""
    ctx = a.ctx
    if b.ctx is not ctx:
        _shared_context(ctx, b.ctx)
    # "auto" and "pure" need no further check when rules exist; _is_pure
    # checks every other case
    pure = ctx.rules is not None and mode in ("auto", "pure")
    if pure or _is_pure(ctx, mode):
        # canon by its module global, which the benchmark's tracer wraps
        perm, word = canon((a.control.images, a.word), ctx.rules,
                           (b.control.images, b.word))
        return SymElement(ctx, perm, word)
    return SymElement(ctx, *ctx.image.traced_pair(a.control, a.word,
                                                  b.control, b.word))


def invert_sym(a: SymElement, mode: str = "auto") -> SymElement:
    """Inverse: (pi*w)^-1 = (1 | reverse(w)) * (pi^-1 | ()), as every t is
    an involution, a product that canon reduces or the image engine
    traces."""
    ctx = a.ctx
    if _is_pure(ctx, mode):
        perm, word = canon((tuple(range(1, ctx.n + 1)), a.word[::-1]),
                           ctx.rules, (_inverse(a.control.images), ()))
        return SymElement(ctx, perm, word)
    return SymElement(ctx, *ctx.image.traced_pair(a.word[::-1], ~a.control))


def canonical_form(e: SymElement, mode: str = "auto") -> SymElement:
    """The canonical form of an element, by the engine mode picks: canon
    reduces its pair, or the image engine traces it."""
    ctx = e.ctx
    if _is_pure(ctx, mode):
        return SymElement(ctx, *canon((e.control.images, e.word), ctx.rules))
    return SymElement(ctx, *ctx.image.traced_pair(e.control, e.word))


def equal_sym(a: SymElement, b: SymElement, mode: str = "auto") -> bool:
    """Whether two elements agree: their canonical forms, each by the
    engine mode picks, are equal."""
    _shared_context(a.ctx, b.ctx)
    x, y = canonical_form(a, mode), canonical_form(b, mode)
    return (x.control, x.word) == (y.control, y.word)


def _is_pure(ctx: SymContext, mode: str) -> bool:
    """Whether mode picks the rewrite engine, after checking that ctx has
    rules when it does (ValueError if not); "auto" picks pure when rules
    exist, and the image engine, which every context has, otherwise."""
    if mode == "auto":
        return ctx.rules is not None
    if mode == "pure":
        if ctx.rules is None:
            raise ValueError("operation requires the rewrite engine")
    elif mode != "image":
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "pure"


def cenelt(ctx: SymContext, a: SymElement) -> tuple[int, list[SymElement]]:
    """Centralizer of a symmetrically represented element of ctx's spec,
    computed in the image and returned symmetrically represented."""
    p = sym2per(ctx, a)  # checks a's context
    cent = ctx.image.full_group.centralizer(p)
    return cent.order(), [per2sym(ctx, g) for g in cent.gens]


# -- text form ---------------------------------------------------------------

def format_element(e: SymElement) -> str:
    """Render as "(control-cycles | l1.l2...)" using the group's labels."""
    labels = e.ctx.spec.labels
    control = label_cycles_str(e.control, labels) or "id"
    word = word_label(e.ctx.spec, e.word) if e.word else "-"
    return f"({control} | {word})"


def parse_element(ctx: SymContext, text: str) -> SymElement:
    """Inverse of format_element; whitespace around labels is skipped."""
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

