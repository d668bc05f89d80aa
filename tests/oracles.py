"""Reference implementations that tests compare the library against."""

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from symgen.fpgroup import (CosetLimitExceeded, CosetTable, Presentation,
                            _check_closed, commutator, concat, reduce_word,
                            word_conj)
from symgen.perm import IdentificationError, Perm, PermGroup, word_perm
from symgen.progenitor import Word, normalize_tail
from symgen.symrep import SymElement


def images_of(p, points):
    """The image under p of each point in turn."""
    return tuple(p.images[k - 1] for k in points)


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


def elements_by_chain(group):
    """Every element of the group, identity first: the products u_k * ...
    * u_1 of one transversal element per level of its stabilizer chain,
    the deepest level's varying slowest."""
    elems = [Perm.identity(group.degree)]
    for level in reversed(group.chain):
        elems = [e * Perm(level.transversal[point])
                 for e in elems for point in level.orbit]
    return elems


def chain_by_perms(group):
    """PermGroup.chain as built before it gathered image tuples, as (base
    point, orbit, transversal of Perms) per level: one breadth-first
    orbit-Schreier pass of Perm products per level, at the least point
    that the level's generators move, whose distinct non-identity Schreier
    generators u_a g u_(a^g)^-1, in discovery order, generate the next."""
    levels = []
    gens = [g for g in group.gens if not g.is_identity()]
    while gens:
        point = min(k for g in gens for k in range(1, group.degree + 1)
                    if g.apply(k) != k)
        trans = {point: Perm.identity(group.degree)}
        orbit = [point]
        stab = {}
        for a in orbit:
            for g in gens:
                b, uag = g.apply(a), trans[a] * g
                if b not in trans:
                    trans[b] = uag
                    orbit.append(b)
                elif uag != trans[b]:
                    sg = uag * ~trans[b]
                    stab.setdefault(sg.images, sg)
        levels.append((point, orbit, trans))
        gens = list(stab.values())
    return levels


def elements_by_perms(levels, degree):
    """elements_by_chain on chain_by_perms' levels, multiplied as Perms."""
    elems = [Perm.identity(degree)]
    for _, orbit, trans in reversed(levels):
        elems = [e * trans[point] for e in elems for point in orbit]
    return elems


def random_element_by_perms(levels, degree, rng):
    """PermGroup.random_element on chain_by_perms' levels: one transversal
    element per level, drawn deepest level first, multiplied as Perms."""
    g = Perm.identity(degree)
    for _, orbit, trans in reversed(levels):
        g = g * trans[rng.choice(orbit)]
    return g


def centralizer_by_enumeration(group, p, elements=None):
    """Centralizer of p by filtering every element of the group for the
    ones commuting with p, spanned in element order; the elements are
    elements_by_chain's unless given."""
    kept = []
    sub = PermGroup(group.degree)
    for g in elements_by_chain(group) if elements is None else elements:
        if g * p == p * g and not g.is_identity() and g not in sub:
            kept.append(g)
            sub = PermGroup(group.degree, tuple(kept))
    return sub


def schreier_generators_by_scan(group, k):
    """PermGroup.schreier_generators as written before it stopped at the
    stabilizer's order: every Schreier generator in turn, kept when it
    lies outside the span of those kept before it."""
    orbit, words = group.orbit(k)
    out = []
    sub = PermGroup(group.degree)
    for a in orbit:
        wa = words[a]
        for gi, g in enumerate(group.gens, start=1):
            b = g.images[a - 1]
            word = wa + (gi,) + tuple(-x for x in reversed(words[b]))
            perm = word_perm(group.gens, word, group.degree)
            if perm.is_identity() or perm in sub:
                continue
            out.append((word, perm))
            sub = PermGroup(group.degree, sub.gens + (perm,))
    return out


def table_view(rules):
    """The letter table keyed by (least word, letter), as RuleSet.table was
    before its rows were indexed by integer states: each state's row,
    state by state and letter by letter, with every state named by its
    least word."""
    rows, words = rules.table
    return {(words[k], i): (padded, words[state])
            for k, row in enumerate(rows)
            for i, (padded, state) in row.items()}


def canon_by_perms(raw, rules, trace=None):
    """symrep.canon as written before it gathered image tuples: one Perm
    product per table entry that is no identity (whose images the table
    holds padded behind a 0, or None for the identity), then one last
    product with the raw control.  It walks the table's (least word,
    letter) view."""
    perm, word = raw
    word = normalize_tail(word, rules.n)
    table = table_view(rules)
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
    product through Perm.__mul__, then the word moved by sigma's images,
    padded a second time."""
    sigma = b.control
    return a.control * sigma, images_of(sigma, a.word) + b.word


@dataclass(frozen=True)
class Rule:
    """t_pattern = perm * t_replacement, as an identity in the image."""

    pattern: Word
    perm: Perm
    replacement: Word


def _split_rule(pi, w):
    """The rule of the relator pi * t_w = 1 split at the middle:
    t_u = pi^-1 * t_(reverse v), with w = u v and |u| >= |v|."""
    a = (len(w) + 1) // 2
    return Rule(w[:a], ~pi, tuple(reversed(w[a:])))


def completion_rules(spec):
    """The completion's base rules as derive_rules built them before the
    letter table came from a coset enumeration: one rule per factoring
    relator as written, split at the middle.  A relator with an empty tail
    gives no rule and is refused."""
    rules = []
    for control_word, tail in spec.relators:
        if not tail:
            raise ValueError("factoring relator with empty tail")
        rules.append(_split_rule(
            word_perm(spec.control_gens, control_word, spec.n), tail))
    return tuple(rules)


def conjugate_rule(rule, pi):
    """Map a rule through a control element: letters via pi, perm by conjugation."""
    return Rule(tuple(pi.apply(i) for i in rule.pattern),
                ~pi * rule.perm * pi,
                tuple(pi.apply(i) for i in rule.replacement))


def follow_word(img, word):
    """The coset point that word's t_i take point 1 to, in turn."""
    point = 1
    for letter in word:
        point = img.ts[letter - 1].images[point - 1]
    return point


def node_points(img, node):
    """The coset points of a collapsed graph node with representative w:
    N w^nu for each element nu of N."""
    return {follow_word(img, tuple(nu.apply(i) for i in node.rep))
            for nu in elements_by_chain(img.spec.control_group)}


def closed_relator_rules(spec):
    """completion_rules as built before completion was left to close the
    relators: every relator pi * t_w = 1, closed under
    control-group conjugation, cyclic rotation and inversion by
    enumerating N, each variant split at the middle into
    t_u = pi^-1 * t_(reverse v) with |u| >= |v|, sorted."""
    seeds = []
    for control_word, tail in spec.relators:
        pi = word_perm(spec.control_gens, control_word, spec.n)
        tail = normalize_tail(tail, spec.n)
        if not tail:
            raise ValueError("factoring relator with empty tail")
        seeds.append((pi, tail))

    elems = elements_by_chain(spec.control_group)
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
        add(pi, images_of(pi, rest) + (a,))
        # inversion: (pi*w)^-1 = pi^-1 * reverse(w)^(pi^-1)
        inv = ~pi
        add(inv, images_of(inv, w[::-1]))

    for pi, tail in seeds:
        for nu in elems:
            add(~nu * pi * nu, images_of(nu, tail))
    rules = [_split_rule(pi, w) for pi, w in pool.values()]
    return tuple(sorted(rules, key=lambda r: (len(r.pattern), r.pattern,
                                              r.replacement, r.perm.images)))


def todd_coxeter_reference(pres: Presentation,
                           subgroup_gens: Sequence[Sequence[int]] = (),
                           max_cosets: int = 10 ** 6) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words by
    HLT as written before relators were compiled to column tuples, one
    col_of, inv_of and find call at a time; fpgroup.todd_coxeter must
    define the same cosets in the same order and trip max_cosets at the
    same count.

    A generator k with a relator k^2 or k^-2 is an involution: k and k^-1
    share one column, and the squares are not scanned.  The other
    generators keep a column for k and one for k^-1, in generator order,
    and the closed table keeps these columns with each letter's column.

    Raises CosetLimitExceeded if more than max_cosets cosets get defined;
    that is a resource verdict, not a proof the index is infinite.
    """
    m = len(pres.names)
    relators = [reduce_word(r) for r in pres.relators]
    subgens = [reduce_word(w) for w in subgroup_gens]
    for w in subgens:
        for letter in w:
            if abs(letter) > m:
                raise ValueError(f"subgroup generator letter {letter} out of range")
    squares = [r for r in relators if len(r) == 2 and r[0] == r[1]]
    involutions = {abs(r[0]) for r in squares}
    scanned = [r for r in relators if r not in squares]

    def col_of(letter: int) -> int:
        col = 0
        for k in range(1, abs(letter)):
            col += 1 if k in involutions else 2
        if letter < 0 and -letter not in involutions:
            col += 1
        return col

    ncols = col_of(m + 1)
    letter_of = {col_of(letter): letter
                 for k in range(1, m + 1) for letter in (k, -k)}

    def inv_of(col: int) -> int:
        return col_of(-letter_of[col])

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
        table[b][inv_of(col)] = a
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
                table[target][inv_of(col)] = None
                u, v = find(dead), find(target)
                if table[u][col] is not None:
                    merge(v, table[u][col], queue)
                elif table[v][inv_of(col)] is not None:
                    merge(u, table[v][inv_of(col)], queue)
                else:
                    table[u][col] = v
                    table[v][inv_of(col)] = u

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
                nxt = table[b][col_of(-word[j])]
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
                table[b][col_of(-word[i])] = f
                return
            define(f, col_of(word[i]))

    for w in subgens:
        scan_and_fill(0, w)
    a = 0
    while a < len(table):
        if find(a) == a:
            for rel in scanned:
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
    column = {letter: col_of(letter) for k in range(1, m + 1) for letter in (k, -k)}
    result = CosetTable(len(rows), tuple(zip(*rows)), column)
    _check_closed(result, relators, subgens)
    return result


class CompletionReference:
    """The letter table as RuleSet built it before it came from a coset
    enumeration: a Knuth-Bendix completion of the base rules under reverse
    shortlex, then one breadth-first pass over least words.  Each new rule
    scans system once for stale rules and once for overlaps, and the
    equations hold Perms.

    The completed system is confluent: every word reduces to one normal
    form per coset of N, so its table is the one that the relators
    determine.  max_cosets bounds the table's least words, and n *
    max_cosets the rules that completion adds; past either, the table
    raises CosetLimitExceeded.
    """

    def __init__(self, spec, rules, max_cosets: int = 10 ** 6):
        self.spec = spec
        self.rules = rules
        self.n = spec.n
        self.max_cosets = max_cosets
        self.system: dict[Word, Rule] = {}
        self._widths: tuple[int, ...] = ()  # left-hand side lengths, ascending

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
            delta = images_of(rule.perm, delta)
            todo += reversed(rule.replacement)
            todo += reversed(images_of(rule.perm, out))
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
        yield identity, u[1:], pi, images_of(pi, u[:1]) + v
        for g in self.spec.control_gens:
            yield identity, images_of(g, u), ~g * pi * g, images_of(g, v)
        for other in list(self.system.values()):
            for a, b in ((rule, other), (other, rule)):
                # a's pattern ends with the k letters that b's begins with
                for k in range(1, min(len(a.pattern), len(b.pattern))):
                    if a.pattern[-k:] == b.pattern[:k]:
                        yield (a.perm, a.replacement + b.pattern[k:], b.perm,
                               images_of(b.perm, a.pattern[:-k]) + b.replacement)

    @cached_property
    def table(self):
        """(rows, words) in RuleSet.table's format, read off the completed
        system: one breadth-first pass over least words in (length, lex)
        order.  Least words are prefix-closed, so a coset's least word s_c
        is the first extension s + (i,) whose normal form nf_c is new, with
        t_(s_c) = eps_c t_(nf_c); if t_s t_i = delta t_nf for the least word
        s of state k, rows[k][i] is delta * eps_c^-1 for nf's coset c, as
        images padded behind a 0 or None for the identity, and c."""
        self.system, self._widths = {}, ()
        self._complete()
        identity = Perm.identity(self.n)
        least = {(): (0, identity)}  # normal form -> (state, eps^-1)
        rows, queue = [], [()]
        for s in queue:
            row = {}
            for i in range(1, self.n + 1):
                delta, nf = self._reduce(s + (i,))
                delta = Perm(delta)
                if nf not in least:
                    if len(least) >= self.max_cosets:
                        raise CosetLimitExceeded(
                            self.max_cosets, "rewrite letter table",
                            "least words")
                    least[nf] = len(queue), ~delta
                    queue.append(s + (i,))
                state, eps_inverse = least[nf]
                step = delta * eps_inverse
                row[i] = (None if step == identity else (0,) + step.images,
                          state)
            rows.append(row)
        return tuple(rows), tuple(queue)


# id(img) -> (img, its action); holding img keeps its id from being reused
_ACTIONS = {}


def control_action_by_perms(img):
    """N's action on the coset points as a dict from each element of N to
    its realization, closed breadth-first with one Perm product per step,
    as SymImage built it before its table held image tuples."""
    if id(img) not in _ACTIONS:
        action = {Perm.identity(img.n): Perm.identity(img.index)}
        queue = list(action)
        for nu in queue:
            for gen, gen_image in zip(img.spec.control_gens, img.gens_image):
                mu = nu * gen
                if mu not in action:
                    action[mu] = action[nu] * gen_image
                    queue.append(mu)
        _ACTIONS[id(img)] = (img, action)
    return _ACTIONS[id(img)][1]


def sym2per_by_perms(ctx, e):
    """symrep.sym2per as written before the image engine gathered image
    tuples: the control's realization, then one Perm product per letter."""
    img = ctx.image
    p = control_action_by_perms(img)[e.control]
    for letter in e.word:
        p = p * img.ts[letter - 1]
    return p


def per2sym_by_perms(ctx, p):
    """symrep.per2sym as written before the image engine gathered image
    tuples: one Perm product per letter of the coset word strips it off,
    and the residue is looked up, as a Perm, in N's action inverted."""
    img = ctx.image
    if p.degree != img.index:
        raise ValueError(f"degree {p.degree} != image degree {img.index}")
    word = img.cst[p.apply(1) - 1]
    residue = p
    for letter in reversed(word):
        residue = residue * img.ts[letter - 1]
    control_of = {g: nu for nu, g in control_action_by_perms(img).items()}
    if residue not in control_of:
        raise IdentificationError("permutation is not in the group")
    return SymElement(ctx, control_of[residue], word)


class RefusingImage:
    """A stand-in for a SymImage that raises AssertionError, naming the
    attribute, whenever any attribute is read: a context that holds it
    shows that the rewrite engine's paths never touch the image."""

    def __getattribute__(self, name):
        raise AssertionError(f"image attribute {name!r} was read")


def image_product_by_perms(a, b):
    """The image-mode product as written before: both factors realized as
    Perms, multiplied, and converted back."""
    ctx = a.ctx
    return per2sym_by_perms(ctx, sym2per_by_perms(ctx, a)
                            * sym2per_by_perms(ctx, b))


def image_inverse_by_perms(a):
    """The image-mode inverse as written before: the raw inverse pair
    realized as a Perm and converted back."""
    ctx = a.ctx
    inv = ~a.control
    raw = SymElement(ctx, inv, images_of(inv, a.word[::-1]))
    return per2sym_by_perms(ctx, sym2per_by_perms(ctx, raw))


def build_presentation_as_written(spec):
    """progenitor.build_presentation as written before it shortened the
    factoring relators: each is the control word followed by the words of
    its tail's t_i, conjugates of t along orbit witness words, as concat
    reduces them."""
    t = len(spec.control_gens) + 1
    relators = list(spec.control_presentation.relators) + [(t, t)]
    for stab_word, _ in spec.control_group.schreier_generators(1):
        relators.append(commutator((t,), stab_word))
    _, witness = spec.control_group.orbit(1)
    for control_word, tail in spec.relators:
        relators.append(concat(control_word,
                               *(word_conj((t,), witness[i]) for i in tail)))
    names = spec.control_presentation.names
    return Presentation(names + ("t" * (1 + max(map(len, names), default=0)),),
                        tuple(relators))
