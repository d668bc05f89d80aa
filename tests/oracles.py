"""Reference implementations that tests compare the library against."""

import heapq
import itertools
from typing import Sequence

from symgen.fpgroup import (CosetLimitExceeded, CosetTable, Presentation,
                            _check_closed, reduce_word)
from symgen.perm import Perm, PermGroup
from symgen.progenitor import (Rule, RuleSet, UnsupportedRelator, Word,
                               normalize_tail)


def product_by_generator(p, q):
    """p * q (p acts first) gathered by a generator and checked by Perm."""
    return Perm(tuple(q.images[i - 1] for i in p.images))


def inverse_by_loop(p):
    """~p by filling a list point by point, checked by Perm."""
    inv = [0] * p.degree
    for k, i in enumerate(p.images, start=1):
        inv[i - 1] = k
    return Perm(inv)


def closure_order(gens):
    """Order of the generated group by plain product closure."""
    if not gens:
        return 1
    degree = gens[0].degree
    seen = {Perm.identity(degree).images}
    queue = [Perm.identity(degree)]
    for x in queue:
        for g in gens:
            y = x * g
            if y.images not in seen:
                seen.add(y.images)
                queue.append(y)
    return len(seen)


def centralizer_by_enumeration(group, p):
    """Centralizer of p by filtering every element of the group for the
    ones commuting with p, spanned in element order."""
    kept = []
    sub = PermGroup(group.degree)
    for g in group.elements():
        if g * p == p * g and not g.is_identity() and g not in sub:
            kept.append(g)
            sub = PermGroup(group.degree, tuple(kept))
    return sub


def canon_by_perms(raw, rules, trace=None):
    """symrep.canon as written before it gathered image tuples: one Perm
    product per table entry that is no identity (whose images the table
    holds padded behind a 0, or None for the identity), then one last
    product with the raw control."""
    perm, word = raw
    word = normalize_tail(word, rules.n)
    table = rules.table
    delta = Perm.identity(rules.n)
    form: Word = ()
    if trace is not None:
        trace.append((len(word), word))
    for k, letter in enumerate(word):
        padded, new = table[form, letter]
        if padded is not None:
            delta = delta * Perm(padded[1:])
        if trace is not None and new != form + (letter,):
            current = new + word[k + 1:]
            trace.append((len(current), current))
        form = new
    return perm * delta, form


def unify_two_step(a, b):
    """symrep.unify as written before it padded sigma once: the control
    product through Perm.__mul__, then the word moved by images_of, which
    pads sigma a second time."""
    sigma = b.control
    return a.control * sigma, sigma.images_of(a.word) + b.word


def conjugate_rule(rule, pi):
    """Map a rule through a control element: letters via pi, perm by conjugation."""
    return Rule(tuple(pi.apply(i) for i in rule.pattern),
                rule.perm.conj(pi),
                tuple(pi.apply(i) for i in rule.replacement))


def closed_relator_rules(spec):
    """derive_rules' base rules as built before completion was left to
    close the relators: every relator pi * t_w = 1, closed under
    control-group conjugation, cyclic rotation and inversion by
    enumerating N, each variant split at the middle into
    t_u = pi^-1 * t_(reverse v) with |u| >= |v|, sorted."""
    seeds = []
    for control_word, tail in spec.relators:
        pi = spec.control_word_perm(control_word)
        tail = normalize_tail(tail, spec.n)
        if not tail:
            raise UnsupportedRelator("factoring relator with empty tail")
        seeds.append((pi, tail))

    elems = spec.control_group.elements()
    pool = {}

    def add(pi, w):
        w = normalize_tail(w, spec.n)
        key = (pi.images, w)
        if key in pool or not w:
            return
        pool[key] = (pi, w)
        # cyclic rotation: conjugating pi*t_a*u = 1 by pi*t_a gives
        # u*pi*t_a = pi * u^pi * t_a
        a, rest = w[0], w[1:]
        add(pi, pi.images_of(rest) + (a,))
        # inversion: (pi*w)^-1 = pi^-1 * reverse(w)^(pi^-1)
        inv = ~pi
        add(inv, inv.images_of(w[::-1]))

    for pi, tail in seeds:
        for nu in elems:
            add(pi.conj(nu), nu.images_of(tail))
    rules = []
    for pi, w in pool.values():
        a = (len(w) + 1) // 2
        rules.append(Rule(w[:a], ~pi, tuple(reversed(w[a:]))))
    return tuple(sorted(rules, key=lambda r: (len(r.pattern), r.pattern,
                                              r.replacement, r.perm.images)))


def todd_coxeter_reference(pres: Presentation,
                           subgroup_gens: Sequence[Sequence[int]] = (),
                           max_cosets: int = 10 ** 6) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words by
    HLT as written before relators were compiled to column tuples, one
    col_of and find call at a time; fpgroup.todd_coxeter must define the
    same cosets in the same order and trip max_cosets at the same count.

    Raises CosetLimitExceeded if more than max_cosets cosets get defined;
    that is a resource verdict, not a proof the index is infinite.
    """
    m = len(pres.names)
    ncols = 2 * m
    relators = [reduce_word(r) for r in pres.relators]
    subgens = [reduce_word(w) for w in subgroup_gens]
    for w in subgens:
        for letter in w:
            if abs(letter) > m:
                raise ValueError(f"subgroup generator letter {letter} out of range")

    def col_of(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def define(a: int, col: int) -> int:
        if len(table) >= max_cosets:
            raise CosetLimitExceeded(max_cosets)
        b = len(table)
        table.append([None] * ncols)
        parent.append(b)
        table[a][col] = b
        table[b][col ^ 1] = a
        return b

    def merge(a: int, b: int, queue: list[int]):
        a, b = find(a), find(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a: int, b: int):
        queue: list[int] = []
        merge(a, b, queue)
        i = 0
        while i < len(queue):
            dead = queue[i]
            i += 1
            for col in range(ncols):
                target = table[dead][col]
                if target is None:
                    continue
                table[target][col ^ 1] = None
                u, v = find(dead), find(target)
                if table[u][col] is not None:
                    merge(v, table[u][col], queue)
                elif table[v][col ^ 1] is not None:
                    merge(u, table[v][col ^ 1], queue)
                else:
                    table[u][col] = v
                    table[v][col ^ 1] = u

    def scan_and_fill(a: int, word: Sequence[int]):
        if not word:
            return
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            # scan forward
            while i <= j:
                nxt = table[f][col_of(word[i])]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            # scan backward
            while j >= i:
                nxt = table[b][col_of(word[j]) ^ 1]
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                # deduction closes the gap
                table[f][col_of(word[i])] = b
                table[b][col_of(word[i]) ^ 1] = f
                return
            define(f, col_of(word[i]))

    for w in subgens:
        scan_and_fill(0, w)
    a = 0
    while a < len(table):
        if find(a) == a:
            for rel in relators:
                scan_and_fill(a, rel)
                if find(a) != a:
                    break
            if find(a) == a:
                for col in range(ncols):
                    if table[a][col] is None:
                        define(a, col)
        a += 1

    live = [c for c in range(len(table)) if find(c) == c]
    renumber = {c: i for i, c in enumerate(live)}
    rows = tuple(tuple(renumber[find(table[c][col])] for col in range(ncols))
                 for c in live)
    result = CosetTable(m, rows)
    _check_closed(result, relators, subgens)
    return result


class CompletionReference(RuleSet):
    """RuleSet with _reduce, _complete and _critical_pairs as written before
    the completion kept a memo of its reductions, indexed its left-hand
    sides and carried its perms as image tuples: each new rule scans system
    once for stale rules and once for overlaps, and the equations hold
    Perms.  RuleSet must complete to the same left-hand sides, with the
    same reduced right-hand sides and perms, build the same letter table
    and raise the same errors."""

    def _reduce(self, word: Word) -> tuple[tuple[int, ...], Word]:
        """(delta images, nf) with t_word = delta * t_nf and nf irreducible.

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
        return delta, tuple(out)

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
            d, u = self._reduce(u)
            e, v = self._reduce(v)
            p, q = p * Perm(d), q * Perm(e)
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
