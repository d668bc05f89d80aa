"""Permutations on {1..degree} and small permutation-group machinery.

Everything downstream (coset actions, control groups, rewrite rules) is
built on two types: an immutable ``Perm`` stored as an image tuple, and a
``PermGroup`` backed by a deterministic stabilizer chain.  The convention
throughout is the right action: in ``p * q`` the permutation ``p`` acts
first, so ``(p * q)(k) == q(p(k))`` and p conjugated by q is
``~q * p * q``.

Groups here are desk-scale (orders up to a few tens of thousands), so the
stabilizer chain is the plain deterministic Schreier-Sims construction,
one orbit-Schreier pass (_schreier) on image tuples per level.
Centralizers split over the chain's top level: a group keeps only the
first base point's stabilizer multiplied out, behind a size bound, and
prunes each top coset by two one-point tests.  No randomization anywhere:
two builds of the same group produce identical transversals, orders and
element sequences.

Cycle notation lives here, over arbitrary string labels (a spec file's
"∞", "0".."6", "b0".."b6"); the numerals "1".."degree" are one such label
set, read by parse_cycles and written by cycles_str.

Only outside input is validated: Perm(images), and so the cycle parser and
the coset action read off a coset table, checks that the images form a
permutation, and apply() range-checks its point.
Products, inverses, conjugates and identity() are built unchecked
from permutations already valid, the product in one C-level gather
(operator.itemgetter), so composing pays for no validation.  PermGroup
and the modules that keep a permutation as its tuple of images (Images)
gather with this one's _gather, _product, _inverse and _gather_of.

Perm values are immutable.  A PermGroup builds its chain and caches lazily
on first use, so share instances across threads only after forcing that
(e.g. by calling order()); afterwards reads are safe everywhere.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence


# centralizer() refuses a group of more elements than this, and SymImage's
# action table, one entry per element, a control group of more
MAX_ELEMENTS = 10 ** 6

Images = tuple[int, ...]  # a perm's images of 1..degree, as Perm.images


class GroupTooLarge(RuntimeError):
    """Raised when an exhaustive-enumeration operation exceeds
    MAX_ELEMENTS: a resource limit, like a coset limit, not bad input."""


class IdentificationError(ValueError):
    """Raised when an element is not in the group it must belong to."""


class Perm:
    """A permutation of {1..degree}, stored as the tuple of images.

    Perm(images) is the checked constructor, for outside input: images
    must be a permutation of 1..len(images).  Products, inverses,
    conjugates and identity() build their results with no check
    (_trusted), since the check costs more than composing them.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        _set_images(self, images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @staticmethod
    def identity(degree: int) -> "Perm":
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return _trusted(tuple(range(1, degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, k: int) -> int:
        if not 1 <= k <= len(self.images):
            raise ValueError(f"point {k} out of range 1..{len(self.images)}")
        return self.images[k - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # self acts first: k^(self*other) == (k^self)^other
        si, oi = self.images, other.images
        if len(si) != len(oi):
            raise ValueError(f"degree mismatch: {len(si)} != {len(oi)}")
        return _trusted(_product(si, oi))

    def __invert__(self) -> "Perm":
        return _trusted(_inverse(self.images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def order(self) -> int:
        n = 1
        for cycle in self.cycles():
            n = math.lcm(n, len(cycle))
        return n

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cycle = [start]
            seen.add(start)
            k = self.images[start - 1]
            while k != start:
                cycle.append(k)
                seen.add(k)
                k = self.images[k - 1]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({cycles_str(self)!r}, degree={len(self.images)})"


_set_images = Perm.images.__set__  # the slot's own setter, past __setattr__


def _trusted(images: tuple[int, ...]) -> Perm:
    """A Perm on images with no check: only for tuples computed from valid
    permutations of the same degree."""
    p = object.__new__(Perm)
    _set_images(p, images)
    return p


def _gather(points: Sequence[int], padded: Sequence[int]) -> Images:
    """padded[k] for each point k in turn: the image of each point under
    the perm whose images padded holds behind a 0.  itemgetter of one
    index returns no tuple, and of none fails, so those two lengths are
    spelled out."""
    if len(points) > 1:
        return itemgetter(*points)(padded)
    return (padded[points[0]],) if points else ()


def _product(p: Images, q: Images) -> Images:
    """The images of p * q, p acting first."""
    return _gather(p, (0,) + q)


def _inverse(p: Images) -> Images:
    """The images of ~p."""
    out = [0] * len(p)
    for k, i in enumerate(p, start=1):
        out[i - 1] = k
    return tuple(out)


def _gather_of(p: Images) -> itemgetter:
    """An itemgetter of p's images as 0-based points: applied to the images
    of q it gives the images of p * q.  p's degree must be at least 2, or
    the getter returns a bare item."""
    return itemgetter(*[k - 1 for k in p])


def parse_label_cycles(text: str, labels: Sequence[str]) -> Perm:
    """Parse cycle notation whose points are labels, the k-th label naming
    point k: "(a,b,c)(d,e)" over the labels of a spec file.

    Whitespace around labels, commas and parentheses is ignored, but not
    inside a label, so "(1 2)" names the label "1 2"; "()" or the empty
    string is the identity.  Each label may appear at most once.
    """
    index = {label: i for i, label in enumerate(labels, start=1)}
    images = list(range(1, len(labels) + 1))
    seen: set[int] = set()
    # the search skips the whitespace between matches
    for match in re.finditer(r"\(([^()]*)\)|(\S)", text):
        if match.group(2) is not None:
            raise ValueError(f"unexpected {match.group(2)!r} in {text!r}")
        body = match.group(1)
        if not body.strip():
            continue
        try:
            cycle = [index[tok.strip()] for tok in body.split(",")]
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r} in {text!r}") from None
        for k in cycle:
            if k in seen:
                raise ValueError(f"label {labels[k - 1]!r} used twice in {text!r}")
            seen.add(k)
        for a, b in zip(cycle, cycle[1:]):
            images[a - 1] = b
        images[cycle[-1] - 1] = cycle[0]
    return Perm(images)


def label_cycles_str(p: Perm, labels: Sequence[str]) -> str:
    """Cycle notation over labels, the k-th label naming point k, with
    fixed points omitted: the identity gives the empty string."""
    return "".join("(" + ",".join(labels[k - 1] for k in c) + ")"
                   for c in p.cycles())


def _numerals(degree: int) -> tuple[str, ...]:
    return tuple(map(str, range(1, degree + 1)))


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(1,2,3)(4,5)" on the points 1..degree."""
    return parse_label_cycles(text, _numerals(degree))


def cycles_str(p: Perm) -> str:
    """Cycle notation with fixed points omitted; identity prints as "()"."""
    return label_cycles_str(p, _numerals(p.degree)) or "()"


def word_perm(gens: Sequence[Perm], letters: Iterable[int], degree: int | None = None) -> Perm:
    """Product of generators along a word of signed 1-based indices.

    Positive letter k means gens[k-1], negative means its inverse, which
    is computed once per call however often the word meets it.
    """
    if degree is None:
        if not gens:
            raise ValueError("cannot infer degree from empty generator list")
        degree = gens[0].degree
    result = Perm.identity(degree).images
    inverses: dict[int, Images] = {}
    for letter in letters:
        if letter == 0 or abs(letter) > len(gens):
            raise ValueError(f"letter {letter} out of range for {len(gens)} generators")
        g = gens[abs(letter) - 1].images
        if len(g) != degree:
            raise ValueError(f"degree mismatch: {degree} != {len(g)}")
        if letter < 0:
            inverse = inverses.get(letter)
            if inverse is None:
                inverse = inverses[letter] = _inverse(g)
            g = inverse
        result = _product(result, g)
    return _trusted(result)


def _schreier(degree: int, gens: Sequence[Images], point: int,
              action: Sequence[Images] | None = None):
    """Orbit of point, its transversal and the stabilizer's Schreier
    generators, in one breadth-first pass over the images of gens, which
    permute 1..degree (given, as gens may be empty).

    action, when given, pairs each generator with its permutation of
    another point set (zip stops at the shorter); point and the orbit
    are then in that set, while transversal elements and Schreier
    generators stay in the generators' group.  Returns (orbit in discovery
    order, transversal with point^u_b == b, the distinct non-identity
    u_a g u_(a^g)^-1 in discovery order), the last generating the
    stabilizer of point, all as image tuples.  Besides PermGroup.chain,
    dcenum's double_cosets and build_image run it with an action.
    """
    pairs = [((0,) + g, act) for g, act in zip(gens, gens if action is None else action)]
    trans = {point: tuple(range(1, degree + 1))}
    inverses: dict[int, Images] = {}  # b -> ~u_b's images, padded behind a 0
    orbit = [point]
    stab: dict[Images, None] = {}  # keys in discovery order
    for a in orbit:
        ua = trans[a]
        for g, act in pairs:
            b = act[a - 1]
            uag = _gather(ua, g)
            if b not in trans:
                trans[b] = uag
                orbit.append(b)
            elif uag != trans[b]:
                if b not in inverses:
                    inverses[b] = (0,) + _inverse(trans[b])
                stab[_gather(uag, inverses[b])] = None
    return orbit, trans, list(stab)


class _Level(NamedTuple):
    point: int                        # base point
    orbit: list[int]                  # points in BFS discovery order
    transversal: dict[int, Images]    # point -> images of u with point^u == that point


class PermGroup:
    """Permutation group with a lazily built deterministic stabilizer chain.

    Base points are the ascending moved points of each level's generators,
    orbits are explored breadth-first with generators in their given order,
    so orders, membership tests, transversals and the generators the span
    filter keeps are all reproducible.  All of it works on image tuples
    and builds a Perm only for what a method returns.
    """

    def __init__(self, degree: int, generators: Iterable[Perm] = ()):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.gens = gens

    # -- chain ---------------------------------------------------------

    @cached_property
    def chain(self) -> list[_Level]:
        """One _schreier pass per level, at the least point that the
        level's generators (the Schreier generators of the one above) move."""
        levels = []
        gens = [g.images for g in self.gens if not g.is_identity()]
        while gens:
            point = min(next(k for k, i in enumerate(g, 1) if i != k) for g in gens)
            orbit, trans, gens = _schreier(self.degree, gens, point)
            levels.append(_Level(point, orbit, trans))
        return levels

    def order(self) -> int:
        return math.prod(len(level.orbit) for level in self.chain)

    def __contains__(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} != {self.degree}")
        s = _inverse(p.images)  # sift ~p from the left: s is the residue's inverse
        for level in self.chain:
            b = s.index(level.point) + 1  # the residue's image of the point
            if b not in level.transversal:
                return False
            s = _product(level.transversal[b], s)
        return s == tuple(range(1, self.degree + 1))

    def _multiply_out(self, levels: Sequence[_Level]) -> list[Images]:
        """The images of every product u_k * ... * u_1 of transversal
        elements, one per level, the deepest level's varying slowest.

        Over chain[1:] it is the stabilizer H of the first base point; over
        the whole chain it is every element, [e * u_c for e in H for c in
        the top orbit].
        """
        elems = [tuple(range(1, self.degree + 1))]
        for level in reversed(levels):
            padded = [(0,) + level.transversal[pt] for pt in level.orbit]
            elems = [_gather(e, u) for e in elems for u in padded]
        return elems

    def random_element(self, rng) -> Perm:
        g = tuple(range(1, self.degree + 1))
        for level in reversed(self.chain):
            g = _product(g, level.transversal[rng.choice(level.orbit)])
        return _trusted(g)

    # -- orbits and stabilizers -----------------------------------------

    def orbit(self, k: int) -> tuple[list[int], dict[int, tuple[int, ...]]]:
        """BFS orbit of k and witness words (1-based generator indices).

        The witness word for a point p multiplies out to a group element
        mapping k to p.
        """
        if not 1 <= k <= self.degree:
            raise ValueError(f"point {k} out of range 1..{self.degree}")
        words: dict[int, tuple[int, ...]] = {k: ()}
        orbit = [k]
        for a in orbit:
            for gi, g in enumerate(self.gens, start=1):
                b = g.images[a - 1]
                if b not in words:
                    words[b] = words[a] + (gi,)
                    orbit.append(b)
        return orbit, words

    def orbits(self) -> list[list[int]]:
        """All orbits on {1..degree}, ordered by least point, each in the
        breadth-first order of orbit(k) from its least point k."""
        seen: set[int] = set()
        out = []
        for k in range(1, self.degree + 1):
            if k not in seen:
                orbit, _ = self.orbit(k)
                seen.update(orbit)
                out.append(orbit)
        return out

    def schreier_generators(self, k: int) -> list[tuple[tuple[int, ...], Perm]]:
        """(word, perm) pairs generating the stabilizer of k.

        Words are over the group's own generators (signed 1-based letters);
        the list is deduplicated by permutation and filtered to a small
        generating set, in deterministic order.  The filter stops at the
        stabilizer's order |G| / |orbit of k| (Schreier's lemma), past
        which every candidate lies in the span.
        """
        return self._stabilizer_span(k)[0]

    def point_stabilizer(self, k: int) -> "PermGroup":
        """The stabilizer of k: the span that schreier_generators' filter
        builds, chain and all, or the group itself when every generator
        fixes k."""
        if not 1 <= k <= self.degree:
            raise ValueError(f"point {k} out of range 1..{self.degree}")
        if all(g.images[k - 1] == k for g in self.gens):
            return self
        return self._stabilizer_span(k)[1]

    def _stabilizer_span(self, k: int) -> tuple[list, "PermGroup"]:
        """_span_filter over the Schreier generators of k's stabilizer, as
        (word, perm) pairs."""
        orbit, words = self.orbit(k)
        schreier_words = (
            words[a] + (gi,) + tuple(-x for x in reversed(words[g.images[a - 1]]))
            for a in orbit for gi, g in enumerate(self.gens, start=1))
        return self._span_filter(
            ((w, word_perm(self.gens, w, self.degree)) for w in schreier_words),
            self.order() // len(orbit))

    def _span_filter(self, candidates: Iterable[tuple[object, Perm]],
                     order: int) -> tuple[list, "PermGroup"]:
        """(kept, span): each (key, perm) candidate whose perm lies outside
        the span of those kept before it, taken in turn until the span
        reaches the given order, and the span of the kept perms, chain built."""
        kept: list = []
        sub = PermGroup(self.degree)
        for key, q in candidates:
            if sub.order() == order:
                break
            if q.is_identity() or q in sub:
                continue
            kept.append((key, q))
            sub = PermGroup(self.degree, sub.gens + (q,))
        sub.order()  # a span built from the last candidate has no chain yet
        return kept, sub

    def centralizer(self, p: Perm) -> "PermGroup":
        """Centralizer of p (p must lie in the group), split over the
        chain's top level.

        Every element is g = e * u_c, with e in the stabilizer H of the
        first base point b and u_c the top transversal element for c.  g
        commutes with p only if it does at b, that is, if e sends b^p to the
        preimage of c^p under u_c, and H is bucketed by the image of b^p;
        the elements that pass must also commute with p at b^p, two lookups
        a side, and only then is g gathered and compared with p in full.
        The matches are sorted by (index in H, index in the top orbit),
        which is their order when the whole chain is multiplied out
        (_multiply_out), so the span filter keeps exactly the generators it
        would keep filtering every element of the group in that order.

        The group keeps H multiplied out (_split), which does not depend on
        p, from the first call that passes the size bound.  Raises
        GroupTooLarge when the group order exceeds MAX_ELEMENTS, before
        anything is multiplied out.
        """
        if p not in self:
            raise IdentificationError("element is not in the group")
        if self.order() > MAX_ELEMENTS:
            raise GroupTooLarge(
                f"group order {self.order()} exceeds bound {MAX_ELEMENTS}")
        if not self.chain:
            return PermGroup(self.degree)
        top = self.chain[0]
        stab = self._split
        images = p.images
        pb = images[top.point - 1]
        ppb = images[pb - 1]
        by_image: dict[int, list[tuple[int, Images]]] = {}
        for i, e in enumerate(stab):
            by_image.setdefault(e[pb - 1], []).append((i, e))
        matches = []
        for j, c in enumerate(top.orbit):
            u = top.transversal[c]
            pc = images[c - 1]
            ppc = images[pc - 1]  # g sends b^p to c^p, so b^(p p g) is c^(p p)
            for i, e in by_image.get(u.index(pc) + 1, ()):
                if u[e[ppb - 1] - 1] == ppc:
                    g = _product(e, u)
                    if _product(images, g) == _product(g, images):
                        matches.append((i, j, g))
        matches.sort()
        # the matches are all of C(p), so the span stops at |C(p)|
        _, cent = self._span_filter(
            (((i, j), _trusted(g)) for i, j, g in matches), len(matches))
        return cent

    @cached_property
    def _split(self) -> list[Images]:
        """centralizer()'s top split: the images of the first base point's
        stabilizer H multiplied out and nothing else, read only past the
        size bound; e * u_c is gathered only once it passes both tests."""
        return self._multiply_out(self.chain[1:])
