"""Involutory progenitors: a control group acting on n symmetric generators,
factored by relators of the form (control word) * (word in the generators).

This module turns such a specification into

  * a finite presentation suitable for coset enumeration (one extra symbol
    for the first symmetric generator, commutators encoding its stabilizer,
    and the factoring relators rewritten through orbit witness words), and

  * a rewrite-rule system over generator words.  The relators, closed
    under control-group conjugation, cyclic rotation and inversion, are
    split into rules t_pattern = perm * t_replacement.  Knuth-Bendix
    completion under reverse shortlex makes them confluent, so every word
    reduces to one normal form per coset of N.  The least (length, lex)
    form of (least word) * t_i is then read off the completed system for
    every least word and letter into one table, and a word is
    canonicalized letter by letter through it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .perm import Perm, PermGroup, _trusted, word_perm
from .fpgroup import (CosetLimitExceeded, FreeWord, Presentation, concat,
                      invert_word, reduce_word, word_conj, word_str)

Word = tuple[int, ...]  # letters are symmetric-generator indices in 1..n


class UnsupportedRelator(ValueError):
    """A factoring relator whose shape the rule deriver cannot use."""


def normalize_tail(tail: Iterable[int], n: int) -> Word:
    """Drop adjacent equal letters (the generators are involutions)."""
    out: list[int] = []
    for letter in tail:
        if not 1 <= letter <= n:
            raise ValueError(f"tail letter {letter} out of range 1..{n}")
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class ProgenitorSpec:
    """2^{*n} : N with factoring relators.

    control_gens give N's action on the generator indices {1..n}; the
    presentation's generators must line up with control_gens one to one.
    Each factoring relator is (word over N's generators, tail of t-indices)
    and is read as control_word * t_tail = 1.
    """

    n: int
    control_gens: tuple[Perm, ...]
    control_presentation: Presentation
    relators: tuple[tuple[FreeWord, Word], ...]
    labels: tuple[str, ...] = ()
    t_name: str = "t"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for g in self.control_gens:
            if g.degree != self.n:
                raise ValueError("control generator degree != n")
        if len(self.control_gens) != len(self.control_presentation.names):
            raise ValueError("control generators and presentation names differ in number")
        for rel in self.control_presentation.relators:
            if not word_perm(self.control_gens, rel, self.n).is_identity():
                raise ValueError(
                    "control generators do not satisfy control relator "
                    + word_str(rel, self.control_presentation.names))
        if self.t_name in self.control_presentation.names:
            raise ValueError(f"symbol {self.t_name!r} collides with a control generator name")
        labels = self.labels or tuple(str(i) for i in range(1, self.n + 1))
        if len(labels) != self.n or len(set(labels)) != self.n:
            raise ValueError("labels must be n distinct strings")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "relators", tuple(
            (reduce_word(cw), normalize_tail(tail, self.n))
            for cw, tail in self.relators))
        group = PermGroup(self.n, self.control_gens)
        orbit, _ = group.orbit(1)
        if len(orbit) != self.n:
            raise ValueError("control group is not transitive on 1..n")
        object.__setattr__(self, "_control_group", group)

    @property
    def control_group(self) -> PermGroup:
        return self._control_group

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise ValueError(f"unknown generator label {label!r}") from None

    def control_word_perm(self, word: Sequence[int]) -> Perm:
        return word_perm(self.control_gens, word, self.n)


def build_presentation(spec: ProgenitorSpec) -> Presentation:
    """Presentation of the factored progenitor over N's generators plus one
    symbol for t_1.

    Consists of N's relators, t^2, commutators of t with Schreier-word
    generators of the stabilizer of index 1, and the factoring relators
    with tail letters replaced by conjugates of t along orbit witness
    words.
    """
    m = len(spec.control_gens)
    t = m + 1
    names = spec.control_presentation.names + (spec.t_name,)
    relators: list[FreeWord] = list(spec.control_presentation.relators)
    relators.append((t, t))

    for stab_word, _ in spec.control_group.schreier_generators(1):
        relators.append(concat(invert_word((t,)), invert_word(stab_word),
                               (t,), stab_word))
    t_words = default_t_words(spec)
    for control_word, tail in spec.relators:
        rel = control_word
        for i in tail:
            rel = concat(rel, t_words[i - 1])
        relators.append(rel)
    return Presentation(names, tuple(relators))


def default_t_words(spec: ProgenitorSpec) -> list[FreeWord]:
    """Words realizing each t_i in the built presentation's generators:
    conjugates of the t symbol along orbit witness words."""
    t = len(spec.control_gens) + 1
    _, witness = spec.control_group.orbit(1)
    return [word_conj((t,), witness[i]) for i in range(1, spec.n + 1)]


# -- rewrite rules ---------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """t_pattern = perm * t_replacement, as an identity in the image."""

    pattern: Word
    perm: Perm
    replacement: Word


def _relator_variants(spec: ProgenitorSpec):
    """All (perm, tail) relators: originals closed under control conjugation,
    cyclic rotation and inversion."""
    seeds = []
    for control_word, tail in spec.relators:
        pi = spec.control_word_perm(control_word)
        tail = normalize_tail(tail, spec.n)
        if not tail:
            raise UnsupportedRelator("factoring relator with empty tail")
        seeds.append((pi, tail))

    elems = spec.control_group.elements()
    pool: dict[tuple[tuple[int, ...], Word], tuple[Perm, Word]] = {}

    def add(pi: Perm, w: Word):
        w = normalize_tail(w, spec.n)
        key = (pi.images, w)
        if key in pool or not w:
            return
        pool[key] = (pi, w)
        # cyclic rotation: conjugating pi*t_a*u = 1 by pi*t_a gives
        # u*pi*t_a = pi * u^pi * t_a
        a, rest = w[0], w[1:]
        rotated = pi.images_of(rest) + (a,)
        add(pi, rotated)
        # inversion: (pi*w)^-1 = pi^-1 * reverse(w)^(pi^-1)
        inv = ~pi
        add(inv, inv.images_of(w[::-1]))

    for pi, tail in seeds:
        for nu in elems:
            add(pi.conj(nu), nu.images_of(tail))
    return list(pool.values())


def derive_rules(spec: ProgenitorSpec, max_cosets: int = 10 ** 6) -> "RuleSet":
    """Base rewrite rules from the factoring relators.

    Each relator variant pi * t_w = 1 is split at the middle into
    t_u = pi^-1 * t_(reverse v), with |u| >= |v|.  The set is closed under
    control conjugation by construction.  RuleSet completes it on first
    use, within the max_cosets budget.
    """
    rules = []
    for pi, w in _relator_variants(spec):
        a = (len(w) + 1) // 2
        rules.append(Rule(w[:a], ~pi, tuple(reversed(w[a:]))))
    ordered = sorted(rules, key=lambda r: (len(r.pattern), r.pattern,
                                           r.replacement, r.perm.images))
    return RuleSet(spec, tuple(ordered), max_cosets)


class RuleSet:
    """The base rules, their Knuth-Bendix completion and the letter table.

    A rule t_u = pi * t_v rewrites x u y to x^pi v y and gathers pi into
    the control part (t_x pi = pi t_(x^pi)).  Letters right of the window
    stay put, so under reverse shortlex (length, then lex from the right)
    a rule with v below u lowers every word it rewrites.  The completed
    rules in system are confluent: reduce maps each word to the one
    irreducible word of its coset N t_w.  max_cosets bounds the least
    words, and n * max_cosets the rules that completion adds; past either,
    building the table raises CosetLimitExceeded.
    """

    def __init__(self, spec: ProgenitorSpec, rules: tuple[Rule, ...],
                 max_cosets: int):
        self.spec = spec
        self.rules = rules
        self.n = spec.n
        self.max_cosets = max_cosets
        self.system: dict[Word, Rule] = {}  # filled by the table's build
        self._widths: tuple[int, ...] = ()  # left-hand side lengths, ascending

    def reduce(self, word: Word) -> tuple[Perm, Word]:
        """(delta, nf) with t_word = delta * t_nf and nf irreducible.

        Letters go one at a time onto an irreducible stack, so a redex can
        only end at the letter just pushed.  A rule applied there moves the
        stack below its window by its perm; the moved part is scanned
        again, ahead of the replacement and the rest of the word.
        """
        system = self.system
        delta = tuple(range(1, self.n + 1))
        out: list[int] = []
        todo = list(reversed(word))
        while todo:
            letter = todo.pop()
            if out and out[-1] == letter:
                out.pop()
                continue
            out.append(letter)
            # shortest first: a slice longer than out is all of out, and
            # out's own length was probed before it
            for k in self._widths:
                rule = system.get(tuple(out[-k:]))
                if rule is not None:
                    break
            else:
                continue
            del out[-k:]
            delta = rule.perm.images_of(delta)
            todo += reversed(rule.replacement)
            todo += reversed(rule.perm.images_of(out))
            out.clear()
        return _trusted(delta), tuple(out)

    def _complete(self):
        """Knuth-Bendix completion of the base rules under reverse shortlex.

        Equations p t_u = q t_v wait in a heap, shortest first.  Each one
        popped is reduced on both sides and, unless they meet, oriented
        into a new rule; equal words under unequal perms mean the relators
        collapse N.  A new rule sends back as equations the rules whose
        left-hand side contains its own, then queues its critical pairs.
        """
        identity = Perm.identity(self.n)
        heap: list = []
        tiebreak = itertools.count()

        def push(p: Perm, u: Word, q: Perm, v: Word):
            key = max((len(u), u[::-1]), (len(v), v[::-1]))
            heapq.heappush(heap, (key, next(tiebreak), p, u, q, v))

        for r in self.rules:
            push(identity, r.pattern, r.perm, r.replacement)
        added = 0
        while heap:
            _, _, p, u, q, v = heapq.heappop(heap)
            d, u = self.reduce(u)
            e, v = self.reduce(v)
            p, q = p * d, q * e
            if u == v:
                if p != q:
                    raise ValueError("the factoring relators identify a "
                                     "non-identity element of N with 1")
                continue
            if (len(u), u[::-1]) < (len(v), v[::-1]):
                p, u, q, v = q, v, p, u
            added += 1
            if added > self.n * self.max_cosets:
                raise CosetLimitExceeded(self.n * self.max_cosets,
                                         "Knuth-Bendix completion", "added rules")
            stale = [r for lhs, r in self.system.items()
                     if any(lhs[i:i + len(u)] == u for i in range(len(lhs)))]
            for r in stale:
                del self.system[r.pattern]
                push(identity, r.pattern, r.perm, r.replacement)
            rule = self.system[u] = Rule(u, ~p * q, v)
            self._widths = tuple(sorted({*self._widths, len(u)}))
            for pair in self._critical_pairs(rule):
                push(*pair)

    def _critical_pairs(self, rule: Rule):
        """The two one-step rewrites (p, u, q, v) of each word where rule
        overlaps t_c t_c = 1, a control generator g on its right, or a rule
        in system (itself too).  The generator overlap is the conjugate
        rule t_(u^g) = pi^g t_(v^g): a rewrite moves the letters left of
        its window, so the rules there must also join in moved form."""
        identity = Perm.identity(self.n)
        u, pi, v = rule.pattern, rule.perm, rule.replacement
        yield identity, u[:-1], pi, v + u[-1:]
        yield identity, u[1:], pi, pi.images_of(u[:1]) + v
        for g in self.spec.control_gens:
            yield identity, g.images_of(u), pi.conj(g), g.images_of(v)
        for other in list(self.system.values()):
            for a, b in ((rule, other), (other, rule)):
                # a's pattern ends with the k letters that b's begins with
                for k in range(1, min(len(a.pattern), len(b.pattern))):
                    if a.pattern[-k:] == b.pattern[:k]:
                        yield (a.perm, a.replacement + b.pattern[k:], b.perm,
                               b.perm.images_of(a.pattern[:-k]) + b.replacement)

    @cached_property
    def table(self) -> dict[tuple[Word, int], tuple[Perm, Word]]:
        """One breadth-first pass over least words in (length, lex) order.

        Least words are prefix-closed, so a coset's least word s_c is the
        first extension s + (i,) whose normal form nf_c is new, and
        t_(s_c) = eps_c t_(nf_c).  If t_s t_i = delta t_nf, the entry
        (s, i) is (delta * eps_c^-1, s_c) for nf's coset c.
        """
        self._complete()
        identity = Perm.identity(self.n)
        least: dict[Word, tuple[Word, Perm]] = {(): ((), identity)}
        table: dict[tuple[Word, int], tuple[Perm, Word]] = {}
        queue: list[Word] = [()]
        for s in queue:
            for i in range(1, self.n + 1):
                delta, nf = self.reduce(s + (i,))
                if nf not in least:
                    if len(least) >= self.max_cosets:
                        raise CosetLimitExceeded(self.max_cosets,
                                                 "rewrite letter table", "least words")
                    least[nf] = s + (i,), delta
                    queue.append(s + (i,))
                word, eps = least[nf]
                table[s, i] = delta * ~eps, word
        return table

    def canonical_form(self, word: Word,
                       trace: list | None = None) -> tuple[Perm, Word]:
        """Least (length, lex) form of a word with its gathered perm,
        t_word = perm * t_form: a left-to-right scan that extends the least
        form of each prefix by one table entry.  When given, trace collects
        the (length, word) measure of the input and of the whole word after
        every step that rewrites it."""
        table = self.table
        identity = perm = Perm.identity(self.n)
        form: Word = ()
        if trace is not None:
            trace.append((len(word), word))
        for k, letter in enumerate(word):
            delta, new = table[form, letter]
            if delta != identity:  # cheaper than a product on warm scans
                perm = perm * delta
            if trace is not None and new != form + (letter,):
                current = new + word[k + 1:]
                trace.append((len(current), current))
            form = new
        return perm, form
