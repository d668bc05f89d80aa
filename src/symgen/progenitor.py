"""Involutory progenitors: a control group acting on n symmetric generators,
factored by relators of the form (control word) * (word in the generators).

This module turns such a specification into

  * a finite presentation suitable for coset enumeration (one extra symbol
    for the first symmetric generator, commutators encoding its stabilizer,
    and the factoring relators rewritten through orbit witness words), and

  * a rewrite-rule system over generator words, derived by closing the
    relators under control-group conjugation, cyclic rotation and
    inversion, then splitting each into pattern -> (permutation, shorter or
    equal replacement) form.  Each rule also yields two half rules, with
    its pattern's first or last letter moved into the replacement: the
    effect of inserting an involution square t_k t_k beside a window and
    letting the rule consume one k.  Words are canonicalized letter by
    letter: the least form of (least word) * t_i is found once by a
    bounded search over rule and half-rule moves and is then kept in a
    table.  Every letter pair gets a direct rule up front, from one search
    per control-group orbit of pairs moved over the orbit by conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .perm import Perm, PermGroup, word_perm
from .fpgroup import (FreeWord, Presentation, concat, invert_word, reduce_word,
                      word_conj, word_str)

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


def conjugate_rule(rule: Rule, pi: Perm) -> Rule:
    """Map a rule through a control element: letters via pi, perm by conjugation."""
    return Rule(tuple(pi.apply(i) for i in rule.pattern),
                rule.perm.conj(pi),
                tuple(pi.apply(i) for i in rule.replacement))


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
        rotated = tuple(pi.apply(i) for i in rest) + (a,)
        add(pi, rotated)
        # inversion: (pi*w)^-1 = pi^-1 * reverse(w)^(pi^-1)
        inv = ~pi
        add(inv, tuple(inv.apply(i) for i in reversed(w)))

    for pi, tail in seeds:
        for nu in elems:
            add(pi.conj(nu), tuple(nu.apply(i) for i in tail))
    return list(pool.values())


def derive_rules(spec: ProgenitorSpec) -> "RuleSet":
    """Rewrite rules from the factoring relators.

    Each relator variant pi * t_w = 1 is split at the middle into
    t_u = pi^-1 * t_(reverse v), giving a shortening rule when |u| > |v|
    and a swap rule when equal.  The full set is closed under control
    conjugation by construction.
    """
    rules: dict[tuple[Word, tuple[int, ...], Word], Rule] = {}
    for pi, w in _relator_variants(spec):
        length = len(w)
        a = (length + 1) // 2
        pattern, v = w[:a], w[a:]
        rule = Rule(pattern, ~pi, tuple(reversed(v)))
        rules[(rule.pattern, rule.perm.images, rule.replacement)] = rule
    ordered = sorted(rules.values(),
                     key=lambda r: (len(r.pattern), r.pattern, r.replacement,
                                    r.perm.images))
    widest = max((len(r.pattern) for r in ordered), default=2)
    slack = 2 if widest <= 2 else 4
    ruleset = RuleSet(spec, tuple(ordered), slack)
    ruleset.bootstrap_pairs()
    return ruleset


class RuleSet:
    """Base rules plus a lazy letter table over the rule system.

    A reachability move applies a rule or a half rule at some window.  A
    half rule is a rule with the first or last letter k dropped from its
    pattern and carried into its replacement: it is the standard manual
    derivation step of inserting an involution square t_k t_k next to the
    window and letting the rule consume one of the two k's.  Half rules
    grow the word, so they fire only while it stays within ``slack``
    letters above the query.

      step(w, i)           -- least form of t_w t_i for a least word w,
                              memoized per (w, i)
      canonical_form(word) -- least (length, lex) form, one step per letter

    The least words are the coset representatives, so the table has at
    most index * n entries; it fills as products need it.

    bootstrap_pairs gives every letter pair whose least form differs from
    it a direct rule, so that the badly hidden pair identities (the ones
    whose manual derivations run through long intermediate words) become
    single moves afterwards.  It searches one pair per control-group orbit
    and carries the result over the orbit by conjugation.
    """

    def __init__(self, spec: ProgenitorSpec, rules: tuple[Rule, ...],
                 slack: int):
        self.spec = spec
        self.rules = rules
        self.slack = slack
        self.n = spec.n
        self._index(rules)
        self._steps: dict[tuple[Word, int], tuple[Perm, Word]] = {}

    def _index(self, rules: tuple[Rule, ...]):
        """Build the move tables, indexed by window width and then window,
        each holding the distinct (perm, replacement) moves as dict keys:
        one for rules alone, one for rules plus half rules."""
        widths = range(max((len(r.pattern) for r in rules), default=0) + 1)
        self._full: list[dict[Word, dict]] = [{} for _ in widths]
        self._grow: list[dict[Word, dict]] = [{} for _ in widths]
        for r in rules:
            pi, pat, rep = r.perm, r.pattern, r.replacement
            self._full[len(pat)].setdefault(pat, {})[pi, rep] = None
            # t_pat = pi t_rep gives t_pat[1:] = pi t_(pi(pat[0])) t_rep
            # and t_pat[:-1] = pi t_rep t_pat[-1]
            for window, move in ((pat, rep),
                                 (pat[1:], (pi.apply(pat[0]),) + rep),
                                 (pat[:-1], rep + (pat[-1],))):
                self._grow[len(window)].setdefault(window, {})[pi, move] = None

    def bootstrap_pairs(self):
        """Derive a direct rule for every two-letter word not in least form.

        The base rules are closed under control conjugation, so the words
        reachable from pair^nu are those reachable from pair, moved by nu,
        with every delta conjugated by nu.  One exhaustive search per
        control-group orbit of ordered pairs therefore settles the whole
        orbit.  The searches run on the base rules alone, and the rules are
        indexed only after the last one: a pair rule indexed earlier would
        not come with its conjugates, and later searches would lose that
        symmetry.  Conjugation keeps lengths, so only the shortest reached
        words can hold an orbit member's least form.
        """
        found = []
        for pair, conjugators in self._pair_orbits():
            reached = self._reach(pair, 3 + self.slack)
            shortest = min(map(len, reached))
            candidates = [w for w in reached if len(w) == shortest]
            for target, nu in conjugators:
                moved = {tuple(nu.apply(i) for i in w): w for w in candidates}
                form = min(moved)
                if form != target:
                    w = moved[form]
                    found.append(conjugate_rule(Rule(pair, reached[w], w), nu))
        self._index(self.rules + tuple(found))

    def _pair_orbits(self) -> list[tuple[Word, list[tuple[Word, Perm]]]]:
        """Control-group orbits on ordered pairs of distinct letters: each
        orbit's least pair with (pair^nu, nu) for one nu per orbit member."""
        elems = self.spec.control_group.elements()
        seen: set[Word] = set()
        orbits = []
        for a in range(1, self.n + 1):
            for b in range(1, self.n + 1):
                if a == b or (a, b) in seen:
                    continue
                members = {}
                for nu in elems:
                    members.setdefault((nu.apply(a), nu.apply(b)), nu)
                seen.update(members)
                orbits.append(((a, b), list(members.items())))
        return orbits

    def canonical_form(self, word: Word,
                       trace: list | None = None) -> tuple[Perm, Word]:
        """Least form of a word with its gathered perm, t_word = perm *
        t_form: a left-to-right scan that extends the least form of each
        prefix by one letter.  When given, trace collects the (length,
        word) measure of the input and of the whole word after every step
        that rewrites it."""
        identity = perm = Perm.identity(self.n)
        form: Word = ()
        if trace is not None:
            trace.append((len(word), word))
        for k, letter in enumerate(word):
            delta, new = self.step(form, letter)
            if delta != identity:  # cheaper than a product on warm scans
                perm = perm * delta
            if trace is not None and new != form + (letter,):
                current = new + word[k + 1:]
                trace.append((len(current), current))
            form = new
        return perm, form

    def step(self, w: Word, letter: int) -> tuple[Perm, Word]:
        """Least form of t_w t_letter for a least word w: (delta, form) with
        t_w t_letter = delta * t_form."""
        key = (w, letter)
        result = self._steps.get(key)
        if result is not None:
            return result
        word = w + (letter,)
        if w and w[-1] == letter:
            result = Perm.identity(self.n), w[:-1]
        else:
            reached = self._reach(word, len(word) + self.slack,
                                  stop_shorter=True)
            form = min(reached, key=lambda v: (len(v), v))
            delta = reached[form]
            if len(form) < len(word):
                # every step of this scan extends a word shorter than w
                rest, form = self.canonical_form(form)
                delta = delta * rest
            result = delta, form
        self._steps[key] = result
        return result

    def _reach(self, word: Word, limit: int,
               stop_shorter: bool = False) -> dict[Word, Perm]:
        """Breadth-first search over word states no longer than limit:
        each reached state maps to the delta with t_word = delta * t_state.
        Any two derivations of the same state carry the same delta (the
        residue is determined in the image), so first-found wins.  With
        stop_shorter the search returns at the first state shorter than
        word, which is then the only such state in the map."""
        best: dict[Word, Perm] = {word: Perm.identity(self.n)}
        frontier = [word]
        while frontier:
            nxt: list[Word] = []
            for state in frontier:
                delta = best[state]
                for new_state, step in self._moves(state, limit):
                    if new_state not in best:
                        best[new_state] = delta * step
                        if stop_shorter and len(new_state) < len(word):
                            return best
                        nxt.append(new_state)
            frontier = nxt
        return best

    def _moves(self, state: Word, limit: int) -> list[tuple[Word, Perm]]:
        """Every rule (and, with room for two more letters, half rule)
        application to state, gathering the rule permutation over the
        prefix: t_x t_pat t_y = pi t_(x^pi) t_rep t_y."""
        L = len(state)
        index = self._grow if L + 2 <= limit else self._full
        out = []
        for width, windows in enumerate(index[:L + 1]):
            if not windows:
                continue
            for q in range(L - width + 1):
                for perm, rep in windows.get(state[q:q + width], ()):
                    prefix = tuple(perm.apply(i) for i in state[:q])
                    out.append((normalize_tail(
                        prefix + rep + state[q + width:], self.n), perm))
        return out

