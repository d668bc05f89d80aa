"""Involutory progenitors: a control group acting on n symmetric generators,
factored by relators of the form (control word) * (word in the generators).

This module turns such a specification into

  * a finite presentation suitable for coset enumeration (one extra symbol
    for the first symmetric generator, commutators encoding its stabilizer,
    and the factoring relators rewritten through orbit witness words, with
    a shortest control word between each two t's), and

  * a rewrite-rule system over generator words.  Each relator, as
    written, is split into one rule t_pattern = perm * t_replacement.
    Knuth-Bendix completion under reverse shortlex makes them confluent,
    deriving the relators' control-group conjugates, cyclic rotations and
    inverses on the way, so every word reduces to one normal form per
    coset of N.  The letter table, the normal-form automaton of the
    completed system, is then read off it: one state per coset of N, and
    per state a row holding, for each letter t_i, the least (length, lex)
    form of (least word) * t_i as a perm and a next state.  symrep.canon
    reduces a word letter by letter through the rows, from state to state.

Within the rewrite system a permutation travels as its tuple of images,
and a Perm is built only for what leaves it (see RuleSet); the arithmetic
on image tuples is perm's (Images, _gather, _product, _inverse,
_quotient).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .perm import (MAX_ELEMENTS, Images, Perm, PermGroup, _gather, _inverse,
                   _product, _quotient, _trusted, word_perm)
from .fpgroup import (CosetLimitExceeded, FreeWord, Presentation, commutator,
                      concat, invert_word, reduce_word, word_conj, word_str)

Word = tuple[int, ...]  # letters are symmetric-generator indices in 1..n
# a state's row of the letter table: letter -> (padded images or None, state)
Row = dict[int, tuple[Images | None, int]]


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
        orbit, _ = self.control_group.orbit(1)
        if len(orbit) != self.n:
            raise ValueError("control group is not transitive on 1..n")

    @cached_property
    def control_group(self) -> PermGroup:
        return PermGroup(self.n, self.control_gens)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise ValueError(f"unknown generator label {label!r}") from None


def build_presentation(spec: ProgenitorSpec) -> Presentation:
    """Presentation of the factored progenitor over N's generators plus one
    symbol for t_1.

    Consists of N's relators, t^2, commutators of t with Schreier-word
    generators of the stabilizer of index 1, and the factoring relators
    with tail letters replaced by conjugates of t along orbit witness
    words, each shortened where _shortest_segments finds shorter control
    words.
    """
    m = len(spec.control_gens)
    t = m + 1
    names = spec.control_presentation.names + (spec.t_name,)
    relators: list[FreeWord] = list(spec.control_presentation.relators)
    relators.append((t, t))

    for stab_word, _ in spec.control_group.schreier_generators(1):
        relators.append(commutator((t,), stab_word))
    relators += _shortest_segments(spec)
    return Presentation(names, tuple(relators))


def default_t_words(spec: ProgenitorSpec) -> list[FreeWord]:
    """Words realizing each t_i in the built presentation's generators:
    conjugates of the t symbol along orbit witness words."""
    t = len(spec.control_gens) + 1
    _, witness = spec.control_group.orbit(1)
    return [word_conj((t,), witness[i]) for i in range(1, spec.n + 1)]


def _shortest_segments(spec: ProgenitorSpec) -> list[FreeWord]:
    """The factoring relators over the built presentation's generators,
    with shortest control words between the t's.

    With w_i the orbit witness word of index i (default_t_words), the
    relator pi * t_i1 ... t_ik is written pi * w_i1^-1 t w_i1 ... w_ik^-1 t
    w_ik.  Read cyclically, it is S_0 t S_1 t ... S_(k-1) t with the
    control words S_0 = w_ik pi w_i1^-1 and S_j = w_ij w_i(j+1)^-1.  Each
    segment is replaced by a shortest word for the same element of N,
    which the control relators make equal to it when they present N, and
    the cyclic reading is a conjugate of the relator, so the
    presentation's group is unchanged.  (Over a presentation of a proper
    cover of N the two words may differ by a kernel element, and the
    group with them.)  A relator is kept as written unless the rebuilt
    one is strictly shorter, since a mere rotation can make Todd-Coxeter
    define more cosets.  A relator with an empty tail has no t to read
    from and stays as written.
    """
    t = len(spec.control_gens) + 1
    _, witness = spec.control_group.orbit(1)
    written: list[FreeWord] = []
    segments: list[list[FreeWord]] = []
    for control_word, tail in spec.relators:
        w = [witness[i] for i in tail]
        written.append(concat(control_word, *(word_conj((t,), v) for v in w)))
        segments.append([concat(w[j - 1], control_word if j == 0 else (),
                                invert_word(w[j])) for j in range(len(w))])
    elements = {seg: word_perm(spec.control_gens, seg, spec.n).images
                for segs in segments for seg in segs}
    shortest = _shortest_words(spec.control_gens, spec.n,
                               set(elements.values()),
                               max(map(len, elements), default=0))
    relators = []
    for rel, segs in zip(written, segments):
        rebuilt = concat(*(shortest.get(elements[seg], seg) + (t,)
                           for seg in segs))
        relators.append(rebuilt if segs and len(rebuilt) < len(rel) else rel)
    return relators


def _shortest_words(gens: Sequence[Perm], degree: int, targets: set[Images],
                    depth: int) -> dict[Images, FreeWord]:
    """A shortest word over gens for each target found, by one breadth-first
    search over image tuples from the identity, the generators taken in
    order, each followed by its inverse unless it is an involution.  The
    search stops once every target is found, at words of length depth, or
    once it has visited perm.MAX_ELEMENTS elements; a target it does not
    reach is left out."""
    letters = []
    for k, g in enumerate(gens, start=1):
        letters.append((k, (0,) + g.images))
        inverse = (~g).images
        if inverse != g.images:
            letters.append((-k, (0,) + inverse))
    identity = tuple(range(1, degree + 1))
    words: dict[Images, FreeWord] = {identity: ()}
    level = [identity]
    for _ in range(depth):
        following = []
        for p in level:
            if targets <= words.keys() or len(words) >= MAX_ELEMENTS:
                break
            for letter, padded in letters:
                q = _gather(p, padded)  # p * g
                if q not in words:
                    words[q] = words[p] + (letter,)
                    following.append(q)
        level = following
    return {p: words[p] for p in targets & words.keys()}


# -- rewrite rules ---------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """t_pattern = perm * t_replacement, as an identity in the image."""

    pattern: Word
    perm: Perm
    replacement: Word

    @cached_property
    def _padded(self) -> Images:
        """perm's images behind a 0, so that a gather by points reads the
        image of each; built on the rule's first rewrite."""
        return (0,) + self.perm.images


def derive_rules(spec: ProgenitorSpec, max_cosets: int = 10 ** 6) -> "RuleSet":
    """Base rewrite rules from the factoring relators as written.

    Each relator pi * t_w = 1 is split at the middle into one rule
    t_u = pi^-1 * t_(reverse v), with w = u v and |u| >= |v|.  Its
    conjugates, cyclic rotations and inverse need no rules of their own,
    since completion derives them.  A rotation or the inverse is the
    relator multiplied through by letters that t_c t_c = 1 cancels, and
    completion joins every rule's overlaps with t_c t_c at both ends.  The
    conjugate by an element of N follows from conjugates by the control
    generators, and completion joins every rule's conjugate by each of
    them.  So the completed system decides the congruence that the closed
    relators generate, and the letter table, which depends only on that
    congruence, is theirs.  RuleSet completes the rules on first use,
    within the max_cosets budget.
    """
    rules = []
    for control_word, w in spec.relators:
        if not w:
            raise UnsupportedRelator("factoring relator with empty tail")
        a = (len(w) + 1) // 2
        pi = word_perm(spec.control_gens, control_word, spec.n)
        rules.append(Rule(w[:a], ~pi, tuple(reversed(w[a:]))))
    return RuleSet(spec, tuple(rules), max_cosets)


def _straddled(system: dict[Word, Rule], p: Word, q: Word, k: int) -> bool:
    """Whether a left-hand side of system lies strictly inside the overlap
    w = p + q[k:] of left-hand sides p and q.  No left-hand side contains
    another, so such an occurrence starts after w's first letter and before
    q's window, and ends after p's window and before w's last letter."""
    w = p + q[k:]
    for i in range(1, len(p) - k):
        for j in range(len(p) + 1, len(w)):
            if w[i:j] in system:
                return True
    return False


class RuleSet:
    """The base rules, their Knuth-Bendix completion and the letter table,
    an automaton whose states are the cosets of N (see table).

    A rule t_u = pi * t_v rewrites x u y to x^pi v y and gathers pi into
    the control part (t_x pi = pi t_(x^pi)).  Letters right of the window
    stay put, so under reverse shortlex (length, then lex from the right)
    a rule with v below u lowers every word it rewrites.  The completed
    rules in system are confluent: _reduce maps each word to the one
    irreducible word of its coset N t_w.  max_cosets bounds the table's
    states, and n * max_cosets the rules that completion adds; past either,
    building the table raises CosetLimitExceeded, and so does every later
    access, since each one completes afresh from the base rules.

    Completion keeps a memo of _reduce and indexes the left-hand sides by
    proper prefix, proper suffix and factor (see _complete); both live only
    while _complete runs, and system, _widths and the table outlive it.

    Inside, perms travel as image tuples (Images): the completion's
    equations, reductions and conjugates, the entries of the table's rows
    and the running control of symrep.canon's walk, which steps through
    the states as integers and takes its raw control as images too.  A
    product is one gather of the left factor's images from the right
    factor's padded behind a 0; each rule is padded once, on first
    rewrite, and each row entry when it is built.  A Perm is built only
    where a result leaves: a rule's perm and canon's result.
    """

    def __init__(self, spec: ProgenitorSpec, rules: tuple[Rule, ...],
                 max_cosets: int):
        self.spec = spec
        self.rules = rules
        self.n = spec.n
        self.max_cosets = max_cosets
        self._identity: Images = tuple(range(1, spec.n + 1))
        self.system: dict[Word, Rule] = {}  # filled by the table's build
        self._widths: tuple[int, ...] = ()  # left-hand side lengths, ascending

    def _reduce(self, word: Word) -> tuple[Images, Word]:
        """(delta, nf) with t_word = delta * t_nf, nf irreducible and delta
        as its images.

        Letters go one at a time onto an irreducible stack, so a redex can
        only end at the letter just pushed.  A rule applied there moves the
        stack below its window by its perm; the moved part is scanned
        again, ahead of the replacement and the rest of the word.
        """
        system, widths = self.system, self._widths
        delta = self._identity
        out: list[int] = []
        todo = list(reversed(word))
        while todo:
            letter = todo.pop()
            if out and out[-1] == letter:
                out.pop()
                continue
            out.append(letter)
            # shortest first, and no longer than out: a key of length k
            # cannot equal out[-k:] once k > len(out), since that slice is
            # all of out
            rule = None
            for k in widths:
                if k > len(out):
                    break
                rule = system.get(tuple(out[-k:]))
                if rule is not None:
                    break
            if rule is None:
                continue
            del out[-k:]
            # itemgetter of one index returns no tuple, and at degree 1
            # every perm is the identity
            images = rule._padded
            if len(delta) > 1:
                delta = itemgetter(*delta)(images)
            todo += reversed(rule.replacement)
            if len(out) > 1:
                todo += reversed(itemgetter(*out)(images))
            elif out:
                todo.append(images[out[0]])
            out.clear()
        return delta, tuple(out)

    def _complete(self):
        """Knuth-Bendix completion of the base rules under reverse shortlex.

        Equations p t_u = q t_v wait in a heap, shortest first, with p and
        q as images.  Each one popped is reduced on both sides and, unless
        they meet, oriented into a new rule; equal words under unequal
        perms mean the relators collapse N.  A new rule sends back as
        equations the rules whose left-hand side contains its own, then
        queues its critical pairs.

        _reduce reads only system and _widths, so a memo of its results is
        exact until a rule is added or retired, and is cleared then.  The
        left-hand sides are indexed by each proper prefix, each proper
        suffix and each factor, so a new rule finds the rules it overlaps
        and the rules it makes stale without a scan of system.

        The order in which equations are pushed changes the steps but not
        the result: the completed left-hand sides are the minimal reducible
        words of the reduction order, and each word has one normal form
        with one gathered perm (Sims 1994, ch. 2), so system's left-hand
        sides, each right-hand side's reduction and the table are fixed.

        _critical_pairs drops the composite rule-rule overlaps, judged
        against system as it stands when the new rule's overlaps are
        collected.  That stays sound after later retirements: a rule c is
        retired only by a new rule r whose left-hand side lies inside c's,
        so r's lies strictly inside the overlap word too, and so on down to
        a rule of the final system.
        """
        identity = self._identity
        system = self.system
        heap: list = []
        tiebreak = itertools.count()
        memo: dict[Word, tuple[Images, Word]] = {}
        # proper prefix / proper suffix / factor -> left-hand sides with it
        prefixes: dict[Word, set[Word]] = {}
        suffixes: dict[Word, set[Word]] = {}
        factors: dict[Word, set[Word]] = {}

        def index(lhs: Word, update) -> None:
            k = len(lhs)
            for i in range(1, k):
                update(prefixes.setdefault(lhs[:i], set()), lhs)
                update(suffixes.setdefault(lhs[i:], set()), lhs)
            for i in range(k):
                for j in range(i + 1, k + 1):
                    update(factors.setdefault(lhs[i:j], set()), lhs)

        def push(p: Images, u: Word, q: Images, v: Word):
            key = max((len(u), u[::-1]), (len(v), v[::-1]))
            heapq.heappush(heap, (key, next(tiebreak), p, u, q, v))

        def reduce(word: Word) -> tuple[Images, Word]:
            hit = memo.get(word)
            if hit is None:
                hit = memo[word] = self._reduce(word)
            return hit

        for r in self.rules:
            push(identity, r.pattern, r.perm.images, r.replacement)
        added = 0
        while heap:
            _, _, p, u, q, v = heapq.heappop(heap)
            d, u = reduce(u)
            e, v = reduce(v)
            p, q = _product(p, d), _product(q, e)
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
            memo.clear()
            for lhs in list(factors.get(u, ())):  # index() shrinks the set
                r = system.pop(lhs)
                index(lhs, set.discard)
                push(identity, r.pattern, r.perm.images, r.replacement)
            rule = system[u] = Rule(u, _trusted(_quotient(p, q)), v)
            index(u, set.add)
            self._widths = tuple(sorted({*self._widths, len(u)}))
            for pair in self._critical_pairs(rule, prefixes, suffixes):
                push(*pair)

    def _critical_pairs(self, rule: Rule, prefixes: dict[Word, set[Word]],
                        suffixes: dict[Word, set[Word]]):
        """The two one-step rewrites (p, u, q, v) of each word where rule
        overlaps t_c t_c = 1, a control generator g on its right, or a rule
        in system (itself too), with p and q as images.  The generator
        overlap is the conjugate rule t_(u^g) = pi^g t_(v^g): a rewrite
        moves the letters left of its window, so the rules there must also
        join in moved form.  prefixes and suffixes are _complete's indexes,
        which hold rule: a rule-rule overlap has a's pattern end with the k
        letters that b's begins with, and rule is a or b.

        A rule-rule overlap w = a.pattern + b.pattern[k:] is composite, and
        yields nothing, when a left-hand side c of system lies strictly
        inside w: after its first letter and before its last (Kapur,
        Musser & Narendran 1988).  Its two sides still join:

        * system is interreduced, so that occurrence of c is no factor of
          a or b: it starts left of b's window and ends right of a's.  The
          prefix w1 of w that ends with c holds the windows of a and c, and
          the suffix w2 that starts with c holds those of c and b.  Both
          are shorter than w, and so is the rewrite of w by c.
        * Words below w in reverse shortlex are confluent (induct on w, as
          in Newman's lemma), so the two sides of w1 and those of w2 each
          reduce to one (delta, nf).
        * A right extension w1 y is untouched: a rewrite leaves the letters
          right of its window in place, so the steps that join w1's sides
          join the sides of w1 y by a and by c.
        * A left extension x w2 joins too.  A step at a window inside s
          gathers its perm pi and moves x to x^pi, so a reduction of s to
          delta t_nf reduces x s to delta t_(x^delta nf).  Both sides of w2
          gather the same delta, so the moved prefix x^delta is the same on
          both, and the sides of x w2 by c and by b meet.
        * The rewrite of w by c is below w, hence confluent, and joins both
          a's side and b's side; so those two join.
        """
        identity = self._identity
        u, pi, v = rule.pattern, rule.perm.images, rule.replacement
        yield identity, u[:-1], pi, v + u[-1:]
        yield identity, u[1:], pi, (rule._padded[u[0]],) + v
        for g in self.spec.control_gens:
            # pi^g = ~g * (pi * g)
            yield (identity, g.images_of(u),
                   _quotient(g.images, _product(pi, g.images)),
                   g.images_of(v))
        system = self.system
        for k in range(1, len(u)):
            pairs = [(rule, system[lhs]) for lhs in prefixes.get(u[-k:], ())]
            pairs += [(system[lhs], rule) for lhs in suffixes.get(u[:k], ())]
            for a, b in pairs:
                p, q = a.pattern, b.pattern
                # most overlaps leave no room for a third left-hand side:
                # two letters of p before q's window and two of q after p's
                if len(p) - k > 1 and len(q) - k > 1 and _straddled(
                        system, p, q, k):
                    continue
                yield (a.perm.images, a.replacement + q[k:], b.perm.images,
                       _gather(p[:-k], b._padded) + b.replacement)

    @cached_property
    def table(self) -> tuple[tuple[Row, ...], tuple[Word, ...]]:
        """The letter table, the normal-form automaton of the completed
        system: (rows, words), whose states are the cosets of N.

        One breadth-first pass over least words in (length, lex) order.
        Least words are prefix-closed, so a coset's least word s_c is the
        first extension s + (i,) whose normal form nf_c is new; c is its
        state, its place in that order, and words[c] is s_c, with
        t_(s_c) = eps_c t_(nf_c).  If t_s t_i = delta t_nf for the least
        word s of state k, rows[k][i] is (delta * eps_c^-1, c) for nf's
        coset c, with the perm's images padded behind a 0 for
        symrep.canon's gathers, or None for the identity, which needs
        none.  Each row is a dict on the letters 1..n, so any other key
        raises KeyError.

        Completion starts from an empty system, so an access after a
        budget error raises that error again instead of resuming from the
        rules the failed one left.
        """
        self.system, self._widths = {}, ()
        self._complete()
        identity = self._identity
        # normal form -> (state c, eps_c^-1 padded behind a 0)
        least: dict[Word, tuple[int, Images]] = {(): (0, (0,) + identity)}
        rows: list[Row] = []
        queue: list[Word] = [()]
        for s in queue:
            row: Row = {}
            for i in range(1, self.n + 1):
                delta, nf = self._reduce(s + (i,))
                if nf not in least:
                    if len(least) >= self.max_cosets:
                        raise CosetLimitExceeded(self.max_cosets,
                                                 "rewrite letter table", "least words")
                    least[nf] = len(queue), (0,) + _inverse(delta)
                    queue.append(s + (i,))
                state, eps_inverse = least[nf]
                step = _gather(delta, eps_inverse)
                row[i] = None if step == identity else (0,) + step, state
            rows.append(row)
        return tuple(rows), tuple(queue)
