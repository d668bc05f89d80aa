"""Involutory progenitors: a control group acting on n symmetric generators,
factored by relators of the form (control word) * (word in the generators).

This module turns such a specification into

  * a finite presentation suitable for coset enumeration (one extra symbol
    for the first symmetric generator, commutators encoding its stabilizer,
    and the factoring relators rewritten through orbit witness words, with
    a shortest control word between each two t's), and

  * the rewrite engine's letter table, an automaton whose states are the
    cosets of N: per state a row holding, for each letter t_i, the least
    (length, lex) form of (least word) * t_i as a perm and a next state.
    It is read straight off one coset enumeration of G over N whose
    entries carry elements of N, run on the factoring relators and the
    conjugation relators t_i^g = t_(i^g) (see RuleSet.table).
    symrep.canon reduces a word letter by letter through the rows, from
    state to state.

Within the rewrite engine a permutation travels as its tuple of images,
and a Perm is built only for what leaves it (see RuleSet); the arithmetic
on image tuples is perm's (Images, _gather, _product, _inverse).  Only the
table's enumeration goes further: its labels are numbers for the elements
of N (_Labels), each product of two of them gathered once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .perm import (MAX_ELEMENTS, Images, Perm, PermGroup, _gather, _inverse,
                   _product, word_perm)
from .fpgroup import (MAX_COSETS, CosetLimitExceeded, FreeWord, Presentation,
                      _column_layout, commutator, concat, invert_word,
                      reduce_word, word_conj, word_str)

Word = tuple[int, ...]  # letters are symmetric-generator indices in 1..n
# a state's row of the letter table: letter -> (padded images or None, state)
Row = dict[int, tuple[Images | None, int]]


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

    @cached_property
    def _columns(self) -> tuple[dict[int, int], list[int]]:
        """The columns of the letter table's enumeration (RuleSet.table),
        laid out by fpgroup._column_layout: letter t_i's is i - 1, its own
        inverse, and then the control generators', one column for an
        involution.  Returns each control letter's column, k for g_k and
        -k for g_k^-1, and inv, each column's inverse column."""
        return _column_layout(self.n, [_inverse(g.images) == g.images
                                       for g in self.control_gens])

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise ValueError(f"unknown generator label {label!r}") from None


def build_presentation(spec: ProgenitorSpec) -> Presentation:
    """Presentation of the factored progenitor over N's generators plus one
    symbol for t_1, named by "t" repeated once more than the longest
    control generator name, so that it names no control generator.

    Consists of N's relators, t^2, commutators of t with Schreier-word
    generators of the stabilizer of index 1, and the factoring relators
    with tail letters replaced by conjugates of t along orbit witness
    words, each shortened where _shortest_segments finds shorter control
    words.
    """
    m = len(spec.control_gens)
    t = m + 1
    names = spec.control_presentation.names
    names += ("t" * (1 + max(map(len, names), default=0)),)
    relators: list[FreeWord] = list(spec.control_presentation.relators)
    relators.append((t, t))

    for stab_word, _ in spec.control_group.schreier_generators(1):
        relators.append(commutator((t,), stab_word))
    relators += _shortest_segments(spec)
    return Presentation(names, tuple(relators))


def _shortest_segments(spec: ProgenitorSpec) -> list[FreeWord]:
    """The factoring relators over the built presentation's generators,
    with shortest control words between the t's.

    With w_i the orbit witness word of index i, so that t_i = w_i^-1 t w_i,
    the relator pi * t_i1 ... t_ik is written pi * w_i1^-1 t w_i1 ...
    w_ik^-1 t w_ik.  Read cyclically, it is S_0 t S_1 t ... S_(k-1) t with
    the control words S_0 = w_ik pi w_i1^-1 and S_j = w_ij w_i(j+1)^-1.
    Each segment is replaced by a shortest word for the same element of
    N, which the control relators make equal to it when they present N,
    and the cyclic reading is a conjugate of the relator, so the
    presentation's group is unchanged.  Over a cover of N the two words
    differ by an element of the kernel, which acts trivially on any image
    that build_image certifies, so that image is the spec's group all the
    same.  A relator is kept as written unless the rebuilt one is strictly
    shorter, since a mere rotation can make Todd-Coxeter define more
    cosets.  A relator with an empty tail has no t to read from and stays
    as written.
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
    shortest = _shortest_words(spec.control_gens, spec.n,
                               [seg for segs in segments for seg in segs])
    relators = []
    for rel, segs in zip(written, segments):
        rebuilt = concat(*(shortest[seg] + (t,) for seg in segs))
        relators.append(rebuilt if segs and len(rebuilt) < len(rel) else rel)
    return relators


def _shortest_words(gens: Sequence[Perm], degree: int,
                    words: Iterable[FreeWord]) -> dict[FreeWord, FreeWord]:
    """Each word over gens against a shortest word for its element, by one
    breadth-first search over image tuples from the identity, the
    generators taken in order, each followed by its inverse unless it is
    an involution.  It stops once it has found every element, within the
    longest word's length, or visited perm.MAX_ELEMENTS elements; a word
    whose element it has not found stands for itself."""
    elements = {w: word_perm(gens, w, degree).images for w in words}
    targets = set(elements.values())
    letters = []
    for k, g in enumerate(gens, start=1):
        letters.append((k, (0,) + g.images))
        inverse = _inverse(g.images)
        if inverse != g.images:
            letters.append((-k, (0,) + inverse))
    identity = tuple(range(1, degree + 1))
    found: dict[Images, FreeWord] = {identity: ()}
    queue = [identity]
    for p in queue:
        if targets <= found.keys() or len(found) >= MAX_ELEMENTS:
            break
        for letter, padded in letters:
            q = _gather(p, padded)  # p * g
            if q not in found:
                found[q] = found[p] + (letter,)
                queue.append(q)
    return {w: found.get(p, w) for w, p in elements.items()}


# -- the letter table --------------------------------------------------------

def derive_rules(spec: ProgenitorSpec, max_cosets: int = MAX_COSETS) -> "RuleSet":
    """The rewrite engine of spec: its factoring relators, each as a word
    over the letter table's enumeration columns (ProgenitorSpec._columns),
    and the table, enumerated on first use within the max_cosets budget.

    A relator pi * t_w = 1 is a shortest control word for pi, found by
    _shortest_words as for build_presentation, followed by its tail.  The
    labels are exact, so any word for pi gives the same table, and a
    shorter one defines fewer cosets.  One with an empty tail reads
    pi = 1, which the enumeration checks at the coset of N itself.
    """
    n = spec.n
    shortest = _shortest_words(spec.control_gens, n,
                               [word for word, _ in spec.relators])
    columns, _ = spec._columns
    relators = tuple(
        tuple(columns[letter] for letter in shortest[control_word])
        + tuple(i - 1 for i in tail)
        for control_word, tail in spec.relators)
    return RuleSet(spec, relators, max_cosets)


_COLLAPSE = ("the factoring relators identify a non-identity element of N "
             "with 1")


class RuleSet:
    """The rewrite engine's letter table over a progenitor spec, built by
    one enumeration of the cosets of the control group N whose entries
    carry elements of N (see table).

    The letter table is an automaton whose states are the cosets of N: a
    state k stands for its coset N t_(words[k]), and the entry of letter i
    in rows[k] is the least form of t_(words[k]) t_i.  symrep.canon reduces
    a word letter by letter through the rows, from state to state.

    rules holds the factoring relators, one word of columns each
    (derive_rules), and max_cosets bounds the cosets that the
    enumeration defines; past it, building the table raises
    CosetLimitExceeded, and so does every later access, since each one
    enumerates afresh.

    Inside, perms travel as image tuples (Images): the entries of the
    table's rows and the running control of symrep.canon's walk, which
    steps through the states as integers and takes its raw control as
    images too.  A product is one gather of the left factor's images from
    the right factor's padded behind a 0, and each row entry is padded
    when it is built.  The engine builds a Perm only for canon's result.
    The enumeration's labels are numbers for the elements of N (_Labels),
    which never leave the table's build.
    """

    def __init__(self, spec: ProgenitorSpec,
                 rules: tuple[tuple[int, ...], ...], max_cosets: int):
        self.spec = spec
        self.rules = rules
        self.n = spec.n
        self.max_cosets = max_cosets

    @cached_property
    def table(self) -> tuple[tuple[Row, ...], tuple[Word, ...]]:
        """The letter table (rows, words), whose states are the cosets of N.

        The enumeration is HLT over N (Neubueser 1982; Holt, Eick &
        O'Brien 2005, ch. 5) with an element of N on each entry, over the
        column map of ProgenitorSpec._columns: coset x_a has one column
        per t_i, which is its own inverse, and per control generator g one
        column that is its own inverse when g is an involution, or two,
        for g and g^-1; the entry (b, lambda) of column c says
        x_a c = lambda x_b.  Coset 0 is N itself, x_0 = 1, so its control
        entries are preset to (0, g) and (0, g^-1).  Every live coset
        scans t_i g t_(i^g) g^-1 letter by letter, for each letter i every
        control generator g in order, so that a new t edge is carried
        along every g before the next letter's, and then the factoring
        relators (rules), compiled through the same map; N's own
        relations hold in the labels, so its presentation is not needed.
        A coincidence x_a = tau x_b moves a's row onto b, multiplying the
        labels through.  The factoring relators identify a non-identity
        element of N with 1, and ValueError is raised, when a scan closes
        a loop at one coset with a label other than the identity, a coset
        merges with itself under such a label, or a self-loop in a column
        that is its own inverse, a t_i's or an involution's, gets a label
        whose square is not the identity.  Each label is the number of its
        element of N (_Labels): 0 for the identity, so those checks compare
        numbers, and each product of two labels is gathered once however
        often the scans meet it.

        Once the table closes, one breadth-first pass over the t columns,
        in letter order from coset 0, renumbers the cosets by their least
        words in (length, lex) order: a state's place in that order,
        words[k] its least word, with t_(words[k]) = mu_k x_k.  An entry
        x_k t_i = lambda x_j becomes rows[k][i] = (mu_k lambda mu_j^-1,
        state of j), multiplied out on the same numbers: the perm's images
        padded behind a 0 for symrep.canon's gathers, or None for the
        identity, which needs none.  Each row is a dict on the letters
        1..n, so any other key raises KeyError.
        """
        n = self.n
        table, labels = _labelled_cosets(self.spec, self.rules,
                                         self.max_cosets)
        product, inverse = labels.product, labels.inverse
        # coset -> (state, mu^-1), labels as numbers
        states: dict[int, tuple[int, int]] = {0: (0, 0)}
        cosets, words, mus = [0], [()], [0]
        rows: list[Row] = []
        for k, coset in enumerate(cosets):
            row: Row = {}
            entries = table[coset]
            for i in range(1, n + 1):
                target, label = entries[i - 1]
                nu = product(mus[k], label)  # t_(words[k]) t_i = nu x_target
                if target not in states:
                    states[target] = len(cosets), inverse(nu)
                    cosets.append(target)
                    words.append(words[k] + (i,))
                    mus.append(nu)
                state, mu_inverse = states[target]
                step = product(nu, mu_inverse)
                row[i] = (0,) + labels.images[step] if step else None, state
            rows.append(row)
        return tuple(rows), tuple(words)


class _Labels:
    """The elements of N that the letter table's enumeration meets, each
    numbered the first time it is seen: images[a] holds element a's
    images and number maps them back.  0 is the identity, so a label is
    the identity exactly when it is falsy.  Each product of two numbers
    is gathered once, by _product, and each inverse computed once; both
    are memoized per number."""

    def __init__(self, identity: Images):
        self.images: list[Images] = [identity]
        self.number: dict[Images, int] = {identity: 0}
        self.products: list[dict[int, int]] = [{}]
        self.inverses: list[int | None] = [0]

    def of(self, images: Images) -> int:
        """The number of the element with these images."""
        a = self.number.get(images)
        if a is None:
            a = self.number[images] = len(self.images)
            self.images.append(images)
            self.products.append({})
            self.inverses.append(None)
        return a

    def product(self, a: int, b: int) -> int:
        """a * b, a acting first."""
        if not (a and b):
            return a or b
        c = self.products[a].get(b)
        if c is None:
            c = self.products[a][b] = self.of(
                _product(self.images[a], self.images[b]))
        return c

    def inverse(self, a: int) -> int:
        """~a."""
        b = self.inverses[a]
        if b is None:
            b = self.of(_inverse(self.images[a]))
            self.inverses[a], self.inverses[b] = b, a
        return b

    def quotient(self, a: int, b: int) -> int:
        """~a * b."""
        return self.product(self.inverse(a), b)


def _labelled_cosets(spec: ProgenitorSpec,
                     relators: Sequence[tuple[int, ...]],
                     max_cosets: int) -> tuple[list, _Labels]:
    """The closed HLT table of RuleSet.table and the numbering of its
    labels: row a holds, per column c of spec._columns (t_i at i - 1,
    then one column per involutory control generator and two per other),
    the entry (b, lambda) with x_a c = lambda x_b, lambda an element of N
    as its number in labels; rows of dead cosets are None, and live rows
    name only live cosets.  Each live coset scans the conjugation
    relators letter by letter, every control generator for one letter
    before the next letter, then the factoring relators."""
    n = spec.n
    columns, inv = spec._columns
    labels = _Labels(tuple(range(1, n + 1)))
    product, inverse = labels.product, labels.inverse
    quotient = labels.quotient
    ncols = len(inv)
    first: list = [None] * ncols
    gens = []
    for k, g in enumerate(spec.control_gens, start=1):
        label, c, d = labels.of(g.images), columns[k], columns[-k]
        # an involution's one column gets its label, its own inverse
        first[c], first[d] = (0, label), (0, inverse(label))
        gens.append((g.images, c, d))
    table: list = [first]
    # x_a = link[a] x_parent[a]; a live coset is its own parent
    parent, link = [0], [0]
    # t_i g t_(i^g) g^-1 for each letter i and each control generator g
    scanned = [(i, c, g[i] - 1, d) for i in range(n) for g, c, d in gens]
    scanned += relators

    def find(a: int) -> tuple[int, int]:
        """a's root r and the label with x_a = label x_r; compresses."""
        path = []
        while parent[a] != a:
            path.append(a)
            a = parent[a]
        label = 0
        for b in reversed(path):
            label = product(link[b], label)
            parent[b], link[b] = a, label
        return a, label

    def connect(a: int, col: int, b: int, label: int):
        """Set x_a c = label x_b in both directions."""
        back, label_inverse = inv[col], inverse(label)
        if a == b and back == col and label_inverse != label:
            raise ValueError(_COLLAPSE)
        table[a][col] = b, label
        table[b][back] = a, label_inverse

    def define(a: int, col: int):
        if len(table) >= max_cosets:
            raise CosetLimitExceeded(max_cosets, "rewrite letter table",
                                     "cosets")
        b = len(table)
        table.append([None] * ncols)
        parent.append(b)
        link.append(0)
        connect(a, col, b, 0)

    def merge(a: int, b: int, tau: int, queue: list[int]):
        """Record x_a = tau x_b: the greater root dies onto the lesser."""
        a, alpha = find(a)
        b, beta = find(b)
        tau = product(quotient(alpha, tau), beta)  # x_a = tau x_b, roots
        if a == b:
            if tau:
                raise ValueError(_COLLAPSE)
            return
        if a < b:
            a, b, tau = b, a, inverse(tau)
        parent[a], link[a] = b, tau
        queue.append(a)

    def coincidence(a: int, b: int, tau: int):
        queue: list[int] = []
        merge(a, b, tau, queue)
        for dead in queue:
            u, delta = find(dead)
            for col, entry in enumerate(table[dead]):
                if entry is None:
                    continue
                target, label = entry
                back = inv[col]
                table[target][back] = None
                if parent[u] != u:  # a merge below killed dead's root
                    u, delta = find(dead)
                if parent[target] == target:
                    v, epsilon = target, 0
                else:
                    v, epsilon = find(target)
                # x_u c = label x_v
                if delta:
                    label = quotient(delta, label)
                if epsilon:
                    label = product(label, epsilon)
                here, there = table[u][col], table[v][back]
                if here is not None:
                    merge(v, here[0], quotient(label, here[1]), queue)
                elif there is not None:
                    merge(u, there[0], product(label, there[1]), queue)
                else:
                    connect(u, col, v, label)
            # every entry that named dead is cleared, so its row is garbage
            table[dead] = None

    def scan_and_fill(a: int, word: tuple[int, ...]):
        f, forward, i = a, 0, 0
        b, backward, j = a, 0, len(word) - 1
        while True:
            while i <= j:
                entry = table[f][word[i]]
                if entry is None:
                    break
                f, label = entry
                if label:
                    forward = product(forward, label)
                i += 1
            if i > j:
                break
            while j >= i:
                entry = table[b][inv[word[j]]]
                if entry is None:
                    break
                b, label = entry
                if label:
                    backward = product(backward, label)
                j -= 1
            if j < i:
                break
            if j == i:  # one letter left: the gap closes by deduction
                connect(f, word[i], b, quotient(forward, backward))
                return
            define(f, word[i])
        # forward x_f = backward x_b
        if f != b or forward != backward:
            coincidence(f, b, quotient(forward, backward))

    a = 0
    while a < len(table):
        if parent[a] == a:
            for word in scanned:
                scan_and_fill(a, word)
                if parent[a] != a:
                    break
            else:
                for col in range(ncols):
                    if table[a][col] is None:
                        define(a, col)
        a += 1
    return table, labels
