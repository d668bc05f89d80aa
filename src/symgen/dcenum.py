"""Finite image construction and double coset enumeration.

build_image runs the coset enumeration for a progenitor spec, realizes the
symmetric generators as permutations on the coset points, and builds the
table of canonical coset-representative words (breadth-first, shortest
then lexicographically least).  double_cosets then reads the collapsed
Cayley graph straight off the image: nodes are orbits of the control group
on coset points, sized |N| / |N^(w)|, with one edge entry per orbit of the
coset stabilizer N^(w) on the symmetric generators.  Orbit and N^(w) come
from one orbit-Schreier pass of N itself (PermGroup.schreier) acting on
the coset points, so N^(w) is found in N's own degree-n action.

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

from .perm import (Perm, PermGroup, IdentificationError, _gather_of,
                   word_perm)
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
    the canonical generator word reaching coset point c from point 1.
    control_action maps each element of N to its permutation of the coset
    points.

    That map is one to one, so per2sym reads a permutation fixing point 1
    back as the unique control element.  build_image checks that the ts
    are distinct involutions and that each control generator conjugates
    them as it permutes their indices, so the image of any nu in N
    conjugates t_i to t_(i^nu).  If nu acts trivially on the coset points,
    then t_i = t_i^nu = t_(i^nu) for every i, and since the ts are
    distinct, i^nu = i for every i: nu = 1.

    The image engine (symrep's per2sym, sym2per and image-mode products)
    runs on image tuples through tables built on first use: t_gathers and
    control_gathers, which multiply a t_i or a control element's
    realization onto a permutation from the left, and the map that
    control_of_images reads a control element back from its realization's
    images with.
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
    def control_action(self) -> dict[Perm, Perm]:
        """N's action on the coset points, closed breadth-first from the
        control generators' images; a word trivial in N (in a cover) fixes
        point 1 and commutes with every t_i, so the action is well defined."""
        action = {Perm.identity(self.n): Perm.identity(self.index)}
        queue = list(action)
        for nu in queue:
            for gen, gen_image in zip(self.spec.control_gens, self.gens_image):
                mu = nu * gen
                if mu not in action:
                    action[mu] = action[nu] * gen_image
                    queue.append(mu)
        return action

    # The image engine's tables, built on first use, so enumerate and graph
    # never pay for them.  A gather is an itemgetter of 0-based points:
    # applied to the images of X it gives the images of g * X, for the g it
    # was built from.  build_image rejects an identity t, so the index is at
    # least 2 and a gather never has a single index (which would return a
    # bare item instead of a tuple).

    @cached_property
    def t_gathers(self) -> tuple[itemgetter, ...]:
        """The gather of each t_i, in index order."""
        return tuple(_gather_of(t) for t in self.ts)

    @cached_property
    def control_gathers(self) -> dict[tuple[int, ...], itemgetter]:
        """The gather of each control element's realization, keyed by the
        element's images."""
        return {nu.images: _gather_of(g) for nu, g in self.control_action.items()}

    @cached_property
    def _control_by_images(self) -> dict[tuple[int, ...], Perm]:
        return {g.images: nu for nu, g in self.control_action.items()}

    def control_of_images(self, images: tuple[int, ...]) -> Perm:
        """The control element whose realization on the coset points has
        the given images, read off N's action table; a miss means they are
        not the images of an element of N."""
        nu = self._control_by_images.get(images)
        if nu is None:
            raise IdentificationError("permutation is not in the group")
        return nu

    def realize_control(self, nu: Perm) -> Perm:
        """Image of a control element as a permutation of coset points:
        coset of word w goes to the coset of w^nu."""
        if nu.degree != self.n:
            raise ValueError(f"control degree {nu.degree} != {self.n}")
        g = self.control_action.get(nu)
        if g is None:
            raise IdentificationError("permutation is not in the control group")
        return g


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

    return SymImage(spec, table.index, gens_image, ts,
                    _build_cst(ts, table.index))


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


def _build_cst(ts: Sequence[Perm], index: int) -> tuple[Word, ...]:
    """Canonical word per coset point: the orbit's witness words, found
    breadth-first over the generators in ascending index order, so each
    coset gets its shortest, lexicographically least reaching word."""
    _, cst = PermGroup(index, ts).orbit(1)
    if len(cst) != index:
        raise ImageError(
            "symmetric generators do not reach every coset: "
            f"{len(cst)} of {index}")
    return tuple(cst[c] for c in range(1, index + 1))


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
    n_order = N.order()
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
        size = len(orbit)
        if size * stab.order() != n_order:
            raise ImageError(
                f"orbit size {size} x stabilizer {stab.order()} != |N| = {n_order}")
        edges: list[tuple[int, int, int]] = []
        for t_orbit in stab.orbits():
            target = img.ts[t_orbit[0] - 1].apply(point)
            target_id = node_of[target] if target in node_of else discover(target)
            edges.append((t_orbit[0], len(t_orbit), target_id))
        nodes.append(DoubleCoset(img.cst[point - 1], tuple(sorted(orbit)),
                                 stab, size, edges))
    if len(node_of) != img.index:
        raise ImageError("collapsed graph is not connected from the trivial coset")
    return CollapsedGraph(img.spec, img.index, n_order, nodes)


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
    for k, (control_word, tail) in enumerate(spec.relators, start=1):
        pi = word_perm(spec.control_gens, control_word, spec.n)
        if not (img.realize_control(pi) * word_perm(img.ts, tail)).is_identity():
            raise ImageError(f"relator {k} does not evaluate to the identity")
        report.append(
            f"relator {k}: control * t[{word_label(spec, tail)}] = 1; "
            f"tail acts on the generators as {~pi!r}")
    return report
