"""Finite image construction and double coset enumeration.

build_image runs the coset enumeration for a progenitor spec, realizes the
symmetric generators as permutations on the coset points, and numbers the
points by their canonical coset-representative words (breadth-first,
shortest then lexicographically least), so the image does not depend on
the enumerator's definition order.  The image engine (SymImage.realized,
SymImage.realized_inverse and SymImage.read_pair) reads two tables: the
control group's action on the coset points, each element against its
realization, and the t-chain of each coset word with its inverse, so an
element with a coset word is realized, inverted or read back with one
gather per table.  double_cosets reads
the collapsed Cayley graph straight off the image: nodes are orbits of the
control group on coset points, sized |N| / |N^(w)|, with one edge entry
per orbit of the coset stabilizer N^(w) on the symmetric generators.
Orbit and N^(w) come from one orbit-Schreier pass of N itself
(PermGroup.schreier) acting on the coset points, so N^(w) is found in N's
own degree-n action.

Construction is single-threaded; a built SymImage is effectively immutable
(its tables are built on first use), and distinct images can be processed
concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .perm import (Images, Perm, PermGroup, IdentificationError, _gather,
                   _gather_of, _product, _trusted, word_perm)
from .fpgroup import (CosetLimitExceeded, FreeWord, coset_action, todd_coxeter,
                      word_str)
from .progenitor import ProgenitorSpec, Word, build_presentation, default_t_words


class ImageError(ValueError):
    """The enumerated image violates a structural requirement."""


@dataclass
class SymImage:
    """Coset-space realization of a factored progenitor.

    gens_image[j-1] is the action on the coset points {1..index} of the
    j-th generator of the built presentation (the control generators, then
    t); ts[i-1] is the image of the i-th symmetric generator; cst[c-1] is
    the canonical generator word reaching coset point c from point 1, the
    shortest and then lexicographically least.  The points are numbered
    in that (length, lex) order of their words, so cst is strictly
    increasing in it, and the image is the same whatever order the
    enumeration defined its cosets in.  Each element of N has one
    realization on the coset points, which sends the coset of w to the
    coset of w^nu.

    That realization is one to one, so read_pair reads a permutation
    fixing point 1 back as the unique control element.  build_image checks
    that the ts are distinct involutions and that each control generator
    conjugates them as it permutes their indices, so the image of any nu
    in N conjugates t_i to t_(i^nu).  If nu acts trivially on the coset
    points, then t_i = t_i^nu = t_(i^nu) for every i, and since the ts are
    distinct, i^nu = i for every i: nu = 1.

    The image engine is three methods on image tuples: realized multiplies
    a pair out on the coset points, realized_inverse does so for the
    pair's inverse, and read_pair reads the canonical pair of an element
    back.  They read two tables, each built breadth-first on first use:
    N's action, in its two directions, and the t-chain of each coset word
    with its inverse.  A word that is no coset word is chained letter by
    letter.
    """

    spec: ProgenitorSpec
    index: int
    gens_image: tuple[Perm, ...]
    ts: tuple[Perm, ...]
    cst: tuple[Word, ...]

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def full_group(self) -> PermGroup:
        return PermGroup(self.index, self.gens_image)

    @cached_property
    def point_of(self) -> dict[Word, int]:
        """Each coset word against its coset point."""
        return {word: c for c, word in enumerate(self.cst, start=1)}

    # The image engine, on image tuples.  Its tables, N's action and the
    # coset words' t-chains, are built on first use, so enumerate and graph
    # never pay for them; the chains hold 2 * index^2 references.  A gather
    # is an itemgetter of 0-based points: applied to the images of X it
    # gives the images of g * X, for the g it was built from.  build_image
    # rejects an identity t, so the index is at least 2 and a gather never
    # has a single index (which would return a bare item instead of a
    # tuple).

    @cached_property
    def _t_gathers(self) -> tuple[itemgetter, ...]:
        """The gather of each t_i, in index order."""
        return tuple(_gather_of(t.images) for t in self.ts)

    @cached_property
    def _action(self) -> tuple[dict[Images, itemgetter], dict[Images, Perm]]:
        """N's action on the coset points, closed breadth-first on image
        tuples from the control generators' images, as two lookups: an
        element's images to the gather of its realization, and the
        realization's images back to the element.  A word trivial in N (in
        a cover) fixes point 1 and commutes with every t_i, so the action
        is well defined."""
        gens = [(gen.images, gen_image.images)
                for gen, gen_image in zip(self.spec.control_gens, self.gens_image)]
        action = {tuple(range(1, self.n + 1)): tuple(range(1, self.index + 1))}
        queue = list(action)
        for nu in queue:
            for gen, gen_image in gens:
                mu = _product(nu, gen)
                if mu not in action:
                    action[mu] = _product(action[nu], gen_image)
                    queue.append(mu)
        return ({nu: _gather_of(g) for nu, g in action.items()},
                {g: _trusted(nu) for nu, g in action.items()})

    @cached_property
    def _chains(self) -> dict[Word, tuple[Images, Images]]:
        """Each coset word w against the images of t_w and those of its
        inverse padded behind a 0.  Built breadth-first along cst, whose
        (length, lex) order puts each word after its parent, the word
        without its last letter i: t_(w i) is t_w * t_i and its inverse
        t_i * t_w^-1, one gather each from the parent's entry."""
        identity = tuple(range(1, self.index + 1))
        padded_ts = [(0,) + t.images for t in self.ts]
        # the gather of each t_i on tuples padded behind a 0, keeping the 0
        padded_gathers = [itemgetter(0, *t.images) for t in self.ts]
        chains = {(): (identity, (0,) + identity)}
        for word in self.cst[1:]:
            images, inverse = chains[word[:-1]]
            chains[word] = (_gather(images, padded_ts[word[-1] - 1]),
                            padded_gathers[word[-1] - 1](inverse))
        return chains

    def _t_chain(self, word: Word) -> Images:
        """The images of t_word = t_w1 * ... * t_wk: those of word's last t,
        then one gather per letter before it, right to left, for a
        non-empty word.  The one path that chains a word letter by letter:
        for a word that is no coset word, and for verify_relators_in_image,
        which leaves the coset-word table unbuilt."""
        images = self.ts[word[-1] - 1].images
        gathers = self._t_gathers
        for letter in word[-2::-1]:
            images = gathers[letter - 1](images)
        return images

    def realized(self, control: Perm, word: Word) -> Images:
        """The images of the realization of control times t_word: the
        t-chain of word, read from the table for a coset word, gathered by
        control's realization (coset of w goes to the coset of
        w^control).  Raises ValueError for a control of another degree and
        IdentificationError for one outside N."""
        gather = self._action[0].get(control.images)
        if gather is None:
            if control.degree != self.n:
                raise ValueError(f"control degree {control.degree} != {self.n}")
            raise IdentificationError("permutation is not in the control group")
        entry = self._chains.get(word)
        return gather(self._t_chain(word) if entry is None else entry[0])

    def realized_inverse(self, control: Perm, word: Word) -> Images:
        """The images of the realization of (control * t_word)^-1, that is
        of t_word^-1 * control^-1: for a coset word, its inverse entry
        gathers the realization of control^-1.  Any other word is inverted
        as a pair, control^-1 * t_(reverse(word)^(control^-1)), and
        realized.  Raises as realized does."""
        inv = ~control
        entry = self._chains.get(word)
        if entry is None:
            return self.realized(inv, inv.images_of(word[::-1]))
        # the padded entry keeps its 0 in front of the product's images
        return _gather(entry[1], (0,) + self.realized(inv, ()))[1:]

    def read_pair(self, images: Images) -> tuple[Perm, Word]:
        """The canonical pair (nu, w) of the element with these images.

        The image of point 1 names the coset, hence the canonical word w;
        stripping the word off leaves g * t_wk...t_w1, which fixes point 1
        and is the realization of nu.  One gather of the images by w's
        inverse entry gives that residue.  A residue that realizes no
        element of N means the images are not those of an element of the
        group, which raises IdentificationError.
        """
        word = self.cst[images[0] - 1]
        residue = _gather(images, self._chains[word][1])
        nu = self._action[1].get(residue)
        if nu is None:
            raise IdentificationError("permutation is not in the group")
        return nu, word


def build_image(spec: ProgenitorSpec, t_words: Sequence[FreeWord] | None = None,
                max_cosets: int = 10 ** 6) -> SymImage:
    """Enumerate the image and realize the symmetric generators.

    t_words may give explicit words (over the built presentation's
    generators) realizing each symmetric generator; by default they are
    conjugates of the t symbol along orbit witness words.
    """
    pres = build_presentation(spec)
    m = len(spec.control_gens)
    try:
        table = todd_coxeter(pres, [(i,) for i in range(1, m + 1)], max_cosets)
    except CosetLimitExceeded:
        _check_control_presentation(spec)
        raise
    gens_image = tuple(coset_action(table))
    if t_words is None:
        t_words = default_t_words(spec)
    if len(t_words) != spec.n:
        raise ValueError(f"expected {spec.n} t_words, got {len(t_words)}")
    ts = tuple(word_perm(gens_image, w) for w in t_words)

    for i, t in enumerate(ts, start=1):
        if t.is_identity() or not (t * t).is_identity():
            raise ImageError(f"image of generator {i} does not have order 2")
    if len(set(ts)) != spec.n:
        raise ImageError("images of the symmetric generators are not distinct")
    for g36, gn in zip(gens_image, spec.control_gens):
        for i in range(1, spec.n + 1):
            if ts[i - 1].conj(g36) != ts[gn.apply(i) - 1]:
                raise ImageError(
                    "conjugation by the control image does not permute the "
                    "generators as the control action does")

    return _standard_numbering(spec, table.index, gens_image, ts)


def _check_control_presentation(spec: ProgenitorSpec):
    """Raise ValueError unless the control presentation closes at |N|
    within 100 |N| cosets.  Run only after the progenitor's enumeration hit
    its limit, where a presentation of a cover of N would otherwise read as
    a resource limit; the budget is not the caller's limit, so a small
    limit on a valid spec still ends as a resource limit."""
    order = spec.control_group.order()
    pres = spec.control_presentation
    try:
        closed = todd_coxeter(pres, (), 100 * order).index == order
    except CosetLimitExceeded:
        closed = False
    if not closed:
        relators = ", ".join(word_str(rel, pres.names) for rel in pres.relators)
        raise ValueError(f"control presentation {relators} does not present "
                         f"the control group of order {order}")


def _standard_numbering(spec: ProgenitorSpec, index: int,
                        gens_image: Sequence[Perm],
                        ts: Sequence[Perm]) -> SymImage:
    """The image with its points renumbered in (length, lex) order of their
    canonical words.  A breadth-first orbit of point 1 under the ts, taken
    in ascending index order, finds each point first through its shortest,
    lexicographically least word, and in that order; the orbit's k-th
    point becomes point k, and gens_image and ts are relabeled through
    it, two gathers each."""
    orbit, words = PermGroup(index, ts).orbit(1)
    if len(orbit) != index:
        raise ImageError(
            "symmetric generators do not reach every coset: "
            f"{len(orbit)} of {index}")
    new = [0] * (index + 1)  # old point -> new point, padded behind a 0
    for k, point in enumerate(orbit, start=1):
        new[point] = k

    def relabel(p: Perm) -> Perm:
        return _trusted(_gather(_gather(orbit, (0,) + p.images), new))

    return SymImage(spec, index, tuple(map(relabel, gens_image)),
                    tuple(map(relabel, ts)),
                    tuple(words[point] for point in orbit))


@dataclass
class DoubleCoset:
    rep: Word
    points: tuple[int, ...]
    stabilizer: PermGroup      # coset stabilizer, in the degree-n action
    size: int
    edges: list[tuple[int, int, int]]  # (orbit rep t-index, orbit size, target node)


@dataclass
class CollapsedGraph:
    spec: ProgenitorSpec
    index: int
    control_order: int
    nodes: list[DoubleCoset]

    def node_sizes(self) -> list[int]:
        return [node.size for node in self.nodes]


def double_cosets(img: SymImage) -> CollapsedGraph:
    """Collapsed Cayley graph of the image over the control group.

    A node is an orbit of N on the coset points; its representative w is
    the least (length, lex) canonical word among them, its coset
    stabilizer is N^(w) = {pi in N : N w^pi = N w}, and its size is
    |N| / |N^(w)|.  Each orbit of N^(w) on the symmetric generators gives
    one edge entry, to the node holding N w t_i for the orbit's least i.
    Nodes appear in breadth-first discovery order from the trivial double
    coset.

    The point through which the search first reaches a node is N w, so w
    is read off it: with w = v t_i, v represents its own node and i is
    least in its N^(v)-orbit, or conjugating by N^(v) or N would give a
    smaller canonical word in w's node.
    """
    N = img.spec.control_group
    found: list = []   # (point N w, orbit, Schreier generators of N^(w)) per node
    node_of: dict[int, int] = {}

    def discover(point: int) -> int:
        orbit, _, sgens = N.schreier(point, action=img.gens_image)
        node_of.update(dict.fromkeys(orbit, len(found)))
        found.append((point, orbit, sgens))
        return node_of[point]

    discover(1)
    nodes: list[DoubleCoset] = []
    for point, orbit, sgens in found:
        stab = PermGroup(img.n, sgens)
        edges: list[tuple[int, int, int]] = []
        for t_orbit in stab.orbits():
            target = img.ts[t_orbit[0] - 1].apply(point)
            target_id = node_of[target] if target in node_of else discover(target)
            edges.append((t_orbit[0], len(t_orbit), target_id))
        nodes.append(DoubleCoset(img.cst[point - 1], tuple(sorted(orbit)),
                                 stab, len(orbit), edges))
    return CollapsedGraph(img.spec, img.index, N.order(), nodes)


def word_label(spec: ProgenitorSpec, word: Word) -> str:
    """Dotted generator labels of a word; "*" for the empty word."""
    if not word:
        return "*"
    return ".".join(spec.labels[i - 1] for i in word)


def emit_graph(graph: CollapsedGraph, format: str = "dot") -> str:
    """Deterministic DOT or JSON text for a collapsed Cayley graph.

    DOT output is an undirected graph with one line per node pair; the
    tail and head labels give the edge multiplicities seen from each side,
    and loops carry their orbit sizes joined by '+'.
    """
    if format == "json":
        payload = {
            "index": graph.index,
            "control_order": graph.control_order,
            "nodes": [
                {
                    "rep": [graph.spec.labels[i - 1] for i in node.rep],
                    "size": node.size,
                    "stabilizer_order": node.stabilizer.order(),
                    "edges": [
                        {"orbit_rep": graph.spec.labels[t - 1],
                         "orbit_size": size, "target": target}
                        for t, size, target in node.edges
                    ],
                }
                for node in graph.nodes
            ],
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if format != "dot":
        raise ValueError(f"unknown format {format!r}")

    lines = ["graph collapsed_cayley {", "  rankdir=LR;"]
    for i, node in enumerate(graph.nodes):
        label = f"[{word_label(graph.spec, node.rep)}] / {node.size}"
        # escape " and \: a bare " ends a quoted DOT string, and Graphviz
        # reads \n, \l and \N in labels as escapes
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    # collect multiplicities per unordered node pair
    toward: dict[tuple[int, int], int] = {}
    loops: dict[int, list[int]] = {}
    for i, node in enumerate(graph.nodes):
        for _, size, target in node.edges:
            if target == i:
                loops.setdefault(i, []).append(size)
            else:
                toward[(i, target)] = toward.get((i, target), 0) + size
    for i in range(len(graph.nodes)):
        if i in loops:
            label = "+".join(str(s) for s in sorted(loops[i]))
            lines.append(f'  n{i} -- n{i} [label="{label}"];')
        for j in range(i + 1, len(graph.nodes)):
            out_ij = toward.get((i, j))
            out_ji = toward.get((j, i))
            if out_ij is None and out_ji is None:
                continue
            lines.append(
                f'  n{i} -- n{j} [taillabel="{out_ij or 0}", '
                f'headlabel="{out_ji or 0}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def verify_relators_in_image(spec: ProgenitorSpec, img: SymImage) -> list[str]:
    """Check every factoring relator in the image; returns a report line per
    relator, raising ImageError on the first failure.

    Each relator pi * t_tail = 1 is checked in the image.  The report also
    names the witness identity that follows: t_tail is then the image of
    ~pi, and since N acts faithfully on the coset points (see SymImage),
    the tail acts by conjugation on the generators exactly as ~pi acts on
    indices.
    """
    report = []
    identity = tuple(range(1, img.index + 1))
    realize = img._action[0]
    for k, (control_word, tail) in enumerate(spec.relators, start=1):
        pi = word_perm(spec.control_gens, control_word, spec.n)
        # letter by letter, leaving the coset-word table unbuilt
        chain = img._t_chain(tail) if tail else identity
        if realize[pi.images](chain) != identity:
            raise ImageError(f"relator {k} does not evaluate to the identity")
        report.append(
            f"relator {k}: control * t[{word_label(spec, tail)}] = 1; "
            f"tail acts on the generators as {~pi!r}")
    return report
