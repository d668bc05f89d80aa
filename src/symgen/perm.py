"""Permutations on {1..degree} and small permutation-group machinery.

Everything downstream (coset actions, control groups, rewrite rules) is
built on two types: an immutable ``Perm`` stored as an image tuple, and a
``PermGroup`` backed by a deterministic stabilizer chain.  The convention
throughout is the right action: in ``p * q`` the permutation ``p`` acts
first, so ``(p * q)(k) == q(p(k))`` and conjugation is ``p.conj(q) ==
~q * p * q``.

Groups here are desk-scale (orders up to a few tens of thousands), so the
stabilizer chain is the plain deterministic Schreier-Sims construction.
Set stabilizers are found by filtered element enumeration; centralizers
split over the chain's top level, so a call multiplies out only the
stabilizer of the first base point.  Both sit behind an explicit size
bound.  No randomization anywhere: two builds of the same group produce
identical transversals, orders and element sequences.

Only outside input is validated: Perm(images), and so parse_cycles, the
label-cycle parser and the coset action read off a coset table, checks that
the images form a permutation, and apply() range-checks its point.
Products, inverses, conjugates, powers and identity() are built unchecked
from permutations already valid, the product and images_of() in one C-level
gather (operator.itemgetter), so composing pays for no validation.

Perm values are immutable.  A PermGroup builds its chain and caches lazily
on first use, so share instances across threads only after forcing that
(e.g. by calling order()); afterwards reads are safe everywhere.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Sequence


class GroupTooLarge(ValueError):
    """Raised when an exhaustive-enumeration operation exceeds its bound."""


class IdentificationError(ValueError):
    """Raised when an element is not in the group it must belong to."""


class Perm:
    """A permutation of {1..degree}, stored as the tuple of images.

    Perm(images) is the checked constructor, for outside input: images
    must be a permutation of 1..len(images).  Products, inverses,
    conjugates, powers and identity() build their results with no check
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

    __call__ = apply

    def images_of(self, points: Sequence[int]) -> tuple[int, ...]:
        """The image of each point in turn, unchecked: every point must
        lie in 1..degree (e.g. the letters of a word moved by a control
        element)."""
        if len(points) > 1:
            return itemgetter(*points)((0,) + self.images)
        return tuple(self.images[k - 1] for k in points)

    def __mul__(self, other: "Perm") -> "Perm":
        # self acts first: k^(self*other) == (k^self)^other
        si, oi = self.images, other.images
        if len(si) != len(oi):
            raise ValueError(f"degree mismatch: {len(si)} != {len(oi)}")
        if len(si) == 1:  # itemgetter of one index gives no tuple
            return other
        return _trusted(itemgetter(*si)((0,) + oi))

    def __invert__(self) -> "Perm":
        inv = [0] * len(self.images)
        for k, i in enumerate(self.images, start=1):
            inv[i - 1] = k
        return _trusted(tuple(inv))

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return (~self) ** (-n)
        result = Perm.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self, other: "Perm") -> "Perm":
        """Conjugate self by other: ~other * self * other."""
        return ~other * self * other

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def order(self) -> int:
        n = 1
        for cycle in self.cycles():
            n = math.lcm(n, len(cycle))
        return n

    def moved(self) -> list[int]:
        return [k for k, i in enumerate(self.images, start=1) if i != k]

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


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(1,2,3)(4,5)" into a Perm.

    Whitespace-insensitive; "()" or the empty string is the identity.
    Points must lie in 1..degree and may appear at most once.
    """
    s = "".join(text.split())
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    pos = 0
    while pos < len(s):
        if s[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} in {text!r}")
        end = s.find(")", pos)
        if end < 0:
            raise ValueError(f"unbalanced '(' in {text!r}")
        body = s[pos + 1:end]
        pos = end + 1
        if not body:
            continue
        try:
            cycle = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise ValueError(f"bad cycle {body!r} in {text!r}") from None
        for k in cycle:
            if not 1 <= k <= degree:
                raise ValueError(f"point {k} out of range 1..{degree}")
            if k in seen:
                raise ValueError(f"point {k} repeated in {text!r}")
            seen.add(k)
        for a, b in zip(cycle, cycle[1:]):
            images[a - 1] = b
        images[cycle[-1] - 1] = cycle[0]
    return Perm(images)


def cycles_str(p: Perm) -> str:
    """Cycle notation with fixed points omitted; identity prints as "()"."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def word_perm(gens: Sequence[Perm], letters: Iterable[int], degree: int | None = None) -> Perm:
    """Product of generators along a word of signed 1-based indices.

    Positive letter k means gens[k-1], negative means its inverse.
    """
    if degree is None:
        if not gens:
            raise ValueError("cannot infer degree from empty generator list")
        degree = gens[0].degree
    result = Perm.identity(degree)
    for letter in letters:
        if letter == 0 or abs(letter) > len(gens):
            raise ValueError(f"letter {letter} out of range for {len(gens)} generators")
        g = gens[abs(letter) - 1]
        result = result * (g if letter > 0 else ~g)
    return result


class _Level:
    __slots__ = ("point", "orbit", "transversal", "gens")

    def __init__(self, point, orbit, transversal, gens):
        self.point = point            # base point
        self.orbit = orbit            # points in BFS discovery order
        self.transversal = transversal  # point -> Perm u with point^u == that point
        self.gens = gens              # generators of this level's group


class PermGroup:
    """Permutation group with a lazily built deterministic stabilizer chain.

    Base points are the ascending moved points of each level's generators,
    orbits are explored breadth-first with generators in their given order,
    so orders, membership tests, transversals and element enumeration are
    all reproducible.
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
        self._chain: list[_Level] | None = None
        self._order: int | None = None
        self._elements: tuple[Perm, ...] | None = None

    # -- chain ---------------------------------------------------------

    def schreier(self, point: int, action: Sequence[Perm] | None = None):
        """Orbit of point, its transversal and the stabilizer's Schreier
        generators, in one breadth-first pass over the generators.

        action, when given, pairs each generator with its permutation of
        another point set (zip stops at the shorter); point and the orbit
        are then in that set, while transversal elements and Schreier
        generators stay in this group.  Returns (orbit in discovery order,
        transversal with point^u_b == b, the distinct non-identity
        u_a g u_(a^g)^-1 in discovery order), the last generating the
        stabilizer of point.
        """
        pairs = list(zip(self.gens, self.gens if action is None else action))
        trans = {point: Perm.identity(self.degree)}
        orbit = [point]
        stab: dict[tuple[int, ...], Perm] = {}
        for a in orbit:
            ua = trans[a]
            for g, act in pairs:
                b = act.images[a - 1]
                uag = ua * g
                if b not in trans:
                    trans[b] = uag
                    orbit.append(b)
                elif uag != trans[b]:
                    sg = uag * ~trans[b]
                    stab.setdefault(sg.images, sg)
        return orbit, trans, list(stab.values())

    @property
    def chain(self) -> list[_Level]:
        if self._chain is None:
            levels = []
            gens = [g for g in self.gens if not g.is_identity()]
            while gens:
                point = min(min(g.moved()) for g in gens)
                orbit, trans, nxt = PermGroup(self.degree, gens).schreier(point)
                levels.append(_Level(point, orbit, trans, gens))
                gens = nxt
            self._chain = levels
        return self._chain

    def order(self) -> int:
        if self._order is None:
            n = 1
            for level in self.chain:
                n *= len(level.orbit)
            self._order = n
        return self._order

    def __contains__(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} != {self.degree}")
        r = p
        for level in self.chain:
            b = r.images[level.point - 1]
            if b not in level.transversal:
                return False
            r = r * ~level.transversal[b]
        return r.is_identity()

    def elements(self, max_elements: int = 10 ** 6) -> tuple[Perm, ...]:
        """All elements in a deterministic order; the identity comes first."""
        if self._elements is None:
            self._check_order(max_elements)
            self._elements = tuple(self._multiply_out(self.chain))
        return self._elements

    def _check_order(self, max_elements: int) -> None:
        if self.order() > max_elements:
            raise GroupTooLarge(
                f"group order {self.order()} exceeds bound {max_elements}")

    def _multiply_out(self, levels: Sequence[_Level]) -> list[Perm]:
        """Every product u_k * ... * u_1 of transversal elements, one per
        level, the deepest level's varying slowest.

        Over the whole chain this is elements(); over chain[1:] it is the
        stabilizer of the first base point, and elements() is then
        [e * u_c for e in those for c in the top orbit].
        """
        elems = [Perm.identity(self.degree)]
        for level in reversed(levels):
            elems = [e * level.transversal[pt]
                     for e in elems for pt in level.orbit]
        return elems

    def random_element(self, rng) -> Perm:
        g = Perm.identity(self.degree)
        for level in reversed(self.chain):
            g = g * level.transversal[rng.choice(level.orbit)]
        return g

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
        """All orbits on {1..degree}, ordered by least point."""
        seen: set[int] = set()
        out = []
        for k in range(1, self.degree + 1):
            if k in seen:
                continue
            orb, _ = self.orbit(k)
            seen.update(orb)
            out.append(orb)
        return out

    def schreier_generators(self, k: int) -> list[tuple[tuple[int, ...], Perm]]:
        """(word, perm) pairs generating the stabilizer of k.

        Words are over the group's own generators (signed 1-based letters);
        the list is deduplicated by permutation and filtered to a small
        generating set, in deterministic order.
        """
        orbit, words = self.orbit(k)
        out: list[tuple[tuple[int, ...], Perm]] = []
        sub = PermGroup(self.degree)
        for a in orbit:
            wa = words[a]
            for gi, g in enumerate(self.gens, start=1):
                b = g.images[a - 1]
                word = wa + (gi,) + tuple(-x for x in reversed(words[b]))
                perm = word_perm(self.gens, word, self.degree)
                if perm.is_identity() or perm in sub:
                    continue
                out.append((word, perm))
                sub = PermGroup(self.degree, sub.gens + (perm,))
        return out

    def point_stabilizer(self, k: int) -> "PermGroup":
        if not 1 <= k <= self.degree:
            raise ValueError(f"point {k} out of range 1..{self.degree}")
        if all(g.images[k - 1] == k for g in self.gens):
            return PermGroup(self.degree, self.gens)
        gens = tuple(p for _, p in self.schreier_generators(k))
        return PermGroup(self.degree, gens)

    def _span_filter(self, perms: Iterable[Perm],
                     order: int = 0) -> "PermGroup":
        """Span of perms, keeping each one outside the span of those kept,
        until the span reaches the given order (all of perms by default)."""
        kept: list[Perm] = []
        sub = PermGroup(self.degree)
        for q in perms:
            if sub.order() == order:
                break
            if q.is_identity() or q in sub:
                continue
            kept.append(q)
            sub = PermGroup(self.degree, tuple(kept))
        return sub

    def setwise_stabilizer(self, points: Iterable[int],
                           max_elements: int = 10 ** 6) -> "PermGroup":
        """Subgroup preserving the given point set, by filtered enumeration."""
        pts = frozenset(points)
        if not pts:
            raise ValueError("point set must be nonempty")
        for k in pts:
            if not 1 <= k <= self.degree:
                raise ValueError(f"point {k} out of range 1..{self.degree}")
        matching = (g for g in self.elements(max_elements)
                    if all(g.images[k - 1] in pts for k in pts))
        return self._span_filter(matching)

    def centralizer(self, p: Perm, max_elements: int = 10 ** 6) -> "PermGroup":
        """Centralizer of p (p must lie in the group), split over the
        chain's top level.

        Every element is e * u_c, with e in the stabilizer H of the first
        base point b and u_c the top transversal element for c, and it
        centralizes p iff p.conj(e) == u_c * p * ~u_c =: q_c.  Since e fixes
        b, it must then send b^p to b^(q_c), so for each c only the
        elements of H with that image are compared with q_c, on image
        tuples.  The matches are sorted by (index in H, index in the top
        orbit), which is their order in elements(), so the generators kept
        by the span filter are exactly those of filtering elements().
        Raises GroupTooLarge when the group order exceeds max_elements.
        """
        if p not in self:
            raise IdentificationError("element is not in the group")
        self._check_order(max_elements)
        if not self.chain:
            return PermGroup(self.degree)
        top = self.chain[0]
        stab = self._multiply_out(self.chain[1:])
        pb = p.images[top.point - 1]
        by_image: dict[int, list[int]] = {}
        for i, e in enumerate(stab):
            by_image.setdefault(e.images[pb - 1], []).append(i)
        p0 = tuple(k - 1 for k in p.images)
        matches = []
        for j, c in enumerate(top.orbit):
            u = top.transversal[c]
            q1 = (0,) + (u * p * ~u).images
            for i in by_image.get(q1[top.point], ()):
                ei = stab[i].images
                # k^(p e) == k^(e q) for every point k
                if tuple(map(ei.__getitem__, p0)) == tuple(map(q1.__getitem__, ei)):
                    matches.append((i, j))
        matches.sort()
        # the matches are all of C(p), so the span stops at |C(p)|
        return self._span_filter((stab[i] * top.transversal[top.orbit[j]]
                                  for i, j in matches), len(matches))

    # -- transversals ------------------------------------------------------

    def is_subgroup(self, h: "PermGroup") -> bool:
        return h.degree == self.degree and all(g in self for g in h.gens)

    def right_transversal(self, h: "PermGroup",
                          max_elements: int = 10 ** 6) -> list[Perm]:
        """One representative per right coset h*x.

        The first entry is the identity; every other coset is represented
        by its minimal element (smallest image tuple), and the list is
        sorted by that key.  Entirely deterministic.
        """
        if not self.is_subgroup(h):
            raise ValueError("h is not a subgroup")
        h_elems = h.elements(max_elements)

        def coset_min(x: Perm) -> Perm:
            return min((e * x for e in h_elems), key=lambda q: q.images)

        identity = Perm.identity(self.degree)
        reps: dict[tuple[int, ...], Perm] = {}
        root = coset_min(identity)
        reps[root.images] = root
        queue = [identity]
        for x in queue:
            for g in self.gens:
                y = x * g
                m = coset_min(y)
                if m.images not in reps:
                    reps[m.images] = m
                    queue.append(y)
        others = sorted((m for key, m in reps.items() if key != root.images),
                        key=lambda q: q.images)
        return [identity] + others

