"""Free words, presentations, and Todd-Coxeter coset enumeration.

Words are tuples of signed 1-based generator indices (negative means the
inverse).  Presentations carry generator names plus relator words, and can
be parsed from a compact text syntax mirroring common CAS input:

    x^7, y^2, (x^-1*t)^2, (y*x)^3, (s^(x^3), y)

where ``*`` is the product, ``^`` is an integer power or (for a word
exponent) conjugation a^b = b^-1*a*b, and ``(a, b)`` is the commutator
a^-1*b^-1*a*b.

The enumerator is the relator-scanning (HLT) strategy with row filling and
immediate coincidence processing via union-find.  Coset numbering is the
definition order, compacted ascending when the table closes, so enumeration
output is reproducible run to run; dcenum.build_image renumbers the points
of an image in (length, lex) order of their coset words, so no output
depends on this order.  A generator k with a relator k^2 or
k^-2 is an involution: k and k^-1 share one column that is its own
inverse, so the squares hold by construction and are not scanned; the
closed table keeps the columns as they were enumerated, with the map from
each letter to its column.  The table is column-major, one list per
column indexed by coset (Holt, Eick & O'Brien, Handbook of Computational
Group Theory, 2005, ch. 5), so defining a coset fills entries of lists
that grow a chunk at a time.  Each relator and subgroup generator is
compiled once per enumeration to the tuple of its column lists, and a
relator walk at a coset that meets no undefined entry only compares its
end with the start; the closed table is then checked against every
relator, squares included, one relator at a time over all cosets, by
C-level gathers along its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .perm import Perm, _gather

FreeWord = tuple[int, ...]

# the default limit on the cosets that each of the two enumerations defines
MAX_COSETS = 10 ** 6


class CosetLimitExceeded(RuntimeError):
    """A search abandoned at its budget before closure.  The coset limit
    bounds the cosets that each of two enumerations defines: Todd-Coxeter
    here, the default stage, and the rewrite engine's letter table, which
    names its own stage."""

    def __init__(self, limit: int, stage: str = "coset enumeration",
                 unit: str = "cosets"):
        super().__init__(f"{stage} exceeded the limit of {limit} {unit}")


# -- free words ----------------------------------------------------------

def reduce_word(word: Iterable[int]) -> FreeWord:
    """Freely reduce: cancel adjacent (k, -k) pairs."""
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word: Sequence[int]) -> FreeWord:
    return tuple(-x for x in reversed(word))


def concat(*words: Sequence[int]) -> FreeWord:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return reduce_word(out)


def word_power(word: Sequence[int], n: int) -> FreeWord:
    if n < 0:
        return word_power(invert_word(word), -n)
    return reduce_word(tuple(word) * n)


def word_conj(word: Sequence[int], by: Sequence[int]) -> FreeWord:
    """word^by = by^-1 * word * by."""
    return concat(invert_word(by), word, by)


def commutator(a: Sequence[int], b: Sequence[int]) -> FreeWord:
    return concat(invert_word(a), invert_word(b), a, b)


@dataclass(frozen=True)
class Presentation:
    names: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > len(self.names):
                    raise ValueError(f"relator letter {letter} out of range")

    @staticmethod
    def parse(names: Sequence[str], relator_text: str) -> "Presentation":
        names = tuple(names)
        return Presentation(names, _WordParser(relator_text, names).word_list())


# open parentheses past this many, each 3 calls deep, are a parse error
_MAX_NESTING = 100
# a parse error quotes at most this many characters of the word text
_EXCERPT = 60


class _WordParser:
    """Recursive-descent parser for the word syntax described above."""

    def __init__(self, text: str, names: Sequence[str]):
        self.text = "".join(text.split())
        self.pos = 0
        self.names = list(names)
        self.depth = 0  # parentheses open at pos

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, msg: str):
        """Raise ValueError naming pos, and quoting the text, or an excerpt
        of _EXCERPT characters around pos when the text is longer."""
        text, pos = self.text, self.pos
        start = max(0, min(pos - _EXCERPT // 2, len(text) - _EXCERPT))
        end = start + _EXCERPT
        quoted = (("..." if start else "") + repr(text[start:end])
                  + ("..." if end < len(text) else ""))
        raise ValueError(f"{msg} at position {pos} in {quoted}")

    def parse(self) -> FreeWord:
        w = self.word()
        if self.pos != len(self.text):
            self.error("trailing input")
        return w

    def word_list(self) -> tuple[FreeWord, ...]:
        """Comma-separated words, skipping empty items; the commas of a
        commutator are read inside its parentheses by atom."""
        words = []
        while True:
            if self.peek() not in (",", ""):
                words.append(self.word())
            if self.pos == len(self.text):
                return tuple(words)
            if self.peek() != ",":
                self.error("expected ','")
            self.pos += 1

    def word(self) -> FreeWord:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = concat(out, self.factor())
        return out

    def factor(self) -> FreeWord:
        out = self.atom()
        while self.peek() == "^":
            self.pos += 1
            if self.peek() == "-" or self.peek().isdigit():
                out = word_power(out, self.integer())
            else:
                out = word_conj(out, self.atom())
        return out

    def atom(self) -> FreeWord:
        if self.peek() == "(":
            if self.depth == _MAX_NESTING:
                self.error(f"parentheses nested deeper than {_MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            parts = [self.word()]
            while self.peek() == ",":
                self.pos += 1
                parts.append(self.word())
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            out = parts[0]
            for nxt in parts[1:]:
                out = commutator(out, nxt)
            return out
        return self.name()

    def name(self) -> FreeWord:
        # longest match wins so names need not be prefix-free in practice
        best = None
        for i, nm in enumerate(self.names, start=1):
            if self.text.startswith(nm, self.pos):
                if best is None or len(nm) > len(self.names[best - 1]):
                    best = i
        if best is None:
            self.error("expected a generator name")
        self.pos += len(self.names[best - 1])
        return (best,)

    def integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer")
        return int(self.text[start:self.pos])


def parse_word(text: str, names: Sequence[str]) -> FreeWord:
    """The word that text spells; blank text is the empty word."""
    parser = _WordParser(text, names)
    return parser.parse() if parser.text else ()


def word_str(word: Sequence[int], names: Sequence[str]) -> str:
    if not word:
        return "1"
    parts = []
    for letter in word:
        nm = names[abs(letter) - 1]
        parts.append(nm if letter > 0 else nm + "^-1")
    return "*".join(parts)


# -- Todd-Coxeter ---------------------------------------------------------

def _column_layout(self_inverse: int, involutions: Sequence[bool]
                   ) -> tuple[dict[int, int], list[int]]:
    """The working columns of an enumeration: first self_inverse columns
    that are their own inverses, then per generator k in order one column
    that is its own inverse when involutions[k - 1] holds, or two, for k
    and k^-1.  Returns each generator letter's column, k for generator k
    and -k for its inverse, and inv, each column's inverse column."""
    inv = list(range(self_inverse))
    column: dict[int, int] = {}
    for k, involution in enumerate(involutions, start=1):
        c = len(inv)
        if involution:
            column[k] = column[-k] = c
            inv.append(c)
        else:
            column[k], column[-k] = c, c + 1
            inv += [c + 1, c]
    return column, inv


@dataclass(frozen=True)
class CosetTable:
    """Closed coset table: columns[column[letter]][c] is the 0-based
    target of coset c under a letter, k for generator k or -k for its
    inverse.  The columns are the enumeration's, laid out by _column_layout.
    Coset 0 is the subgroup.  The index is kept apart from the columns,
    since a presentation with no generators has one coset and no column.
    """

    index: int
    columns: tuple[tuple[int, ...], ...]
    column: dict[int, int]

    def trace(self, coset: int, word: Sequence[int]) -> int:
        for letter in word:
            coset = self.columns[self.column[letter]][coset]
        return coset


def todd_coxeter(pres: Presentation, subgroup_gens: Sequence[Sequence[int]] = (),
                 max_cosets: int = MAX_COSETS) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

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
    # an involution k (a relator k^2 or k^-2) works in one column for k and
    # k^-1, which makes its square hold by construction
    squares = [r for r in relators if len(r) == 2 and r[0] == r[1]]
    involutions = {abs(r[0]) for r in squares}
    column, inv = _column_layout(0, [k in involutions for k in range(1, m + 1)])

    def compile_word(word: FreeWord) -> tuple[int, ...]:
        return tuple(map(column.__getitem__, word))

    scanned = [r for r in relators if r and r not in squares]
    # the working table is freed on return, before the check reads columns
    result = CosetTable(*_hlt(inv, [compile_word(r) for r in scanned],
                              [compile_word(w) for w in subgens if w],
                              max_cosets), column)
    _check_closed(result, relators, subgens)
    return result


# the working table grows by this many cosets when a definition reaches
# its end
_CHUNK = 1024


def _hlt(inv: list[int], relators: list[tuple[int, ...]],
         subgens: list[tuple[int, ...]], max_cosets: int
         ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """HLT over compiled, non-empty words; returns the index and the
    working columns, compacted to the live cosets.

    The working columns are laid out by _column_layout, an involution's
    one column its own inverse (inv[c] == c).  Each working column is one
    list indexed by coset, grown by _CHUNK Nones at a time, so a
    definition allocates no container.  A word is compiled to the
    tuple of its column lists, walked forward, and the tuple of their
    inverse columns, walked backward.  Dead cosets keep stale entries,
    which nothing reads: walks start at live cosets, and a finished
    coincidence has cleared every entry that named a dead coset.
    """
    columns: list[list[int | None]] = [[None] * _CHUNK for _ in inv]
    pairs = [(column, columns[d]) for column, d in zip(columns, inv)]
    parent = [0]

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def define(a: int, col: int):
        b = len(parent)
        if b >= max_cosets:
            raise CosetLimitExceeded(max_cosets)
        column = columns[col]
        if b == len(column):
            for grown in columns:
                grown += [None] * _CHUNK
        parent.append(b)
        column[a] = b
        columns[inv[col]][b] = a

    def coincidence(a: int, b: int):
        # merges keep the lesser root; the queue lists dead cosets in
        # the order they died
        a, b = find(a), find(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        parent[b] = a
        queue = [b]
        for dead in queue:
            for column, back in pairs:
                target = column[dead]
                if target is None:
                    continue
                back[target] = None
                u = find(dead)
                v = target if parent[target] == target else find(target)
                w = column[u]
                if w is None:
                    w = back[v]
                    if w is None:
                        column[u] = v
                        back[v] = u
                        continue
                    v = u
                # merge v with w
                if parent[w] != w:
                    w = find(w)
                if v < w:
                    parent[w] = v
                    queue.append(w)
                elif w < v:
                    parent[v] = w
                    queue.append(v)

    def scan_and_fill(a: int, word: tuple[int, ...],
                      forward: tuple[list[int | None], ...],
                      backward: tuple[list[int | None], ...]):
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            # scan forward
            while i <= j:
                nxt = forward[i][f]
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
                nxt = backward[j][b]
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                # deduction closes the gap
                forward[i][f] = b
                backward[i][b] = f
                return
            define(f, word[i])

    def walks(words: list[tuple[int, ...]]):
        return [(word, tuple(columns[c] for c in word),
                 tuple(columns[inv[c]] for c in word)) for word in words]

    for walk in walks(subgens):
        scan_and_fill(0, *walk)
    relator_walks = walks(relators)
    a = 0
    while a < len(parent):
        if parent[a] == a:
            for word, forward, backward in relator_walks:
                # a walk that meets no gap only compares its end with a
                f = a
                for column in forward:
                    f = column[f]
                    if f is None:
                        scan_and_fill(a, word, forward, backward)
                        break
                else:
                    if f != a:
                        coincidence(f, a)
                if parent[a] != a:
                    break
            else:
                for col, column in enumerate(columns):
                    if column[a] is None:
                        define(a, col)
        a += 1

    # live cosets only name live cosets, so each working column is
    # gathered once over them, renumbered, and emptied
    live = [c for c in range(len(parent)) if parent[c] == c]
    renumber: list[int | None] = [None] * len(parent)
    for i, c in enumerate(live):
        renumber[c] = i
    closed = []
    for column in columns:
        closed.append(_gather(_gather(live, column), renumber))
        column.clear()
    return len(live), tuple(closed)


def _check_closed(t: CosetTable, relators, subgens):
    """Raise RuntimeError unless every subgroup generator fixes coset 0
    and every relator closes at every coset.

    Each relator is traced from all cosets at once: its first letter's
    column, then one C-level gather per further letter's column; a
    failure names the least failing coset and, at that coset, the first
    failing relator, as a coset-by-coset scan would.
    """
    for w in subgens:
        if t.trace(0, w) != 0:
            raise RuntimeError(
                f"coset table check failed: subgroup generator {w} "
                f"does not fix coset 0")
    cosets = tuple(range(t.index))
    first = None
    for rel in relators:
        ends = cosets
        for k, letter in enumerate(rel):
            column = t.columns[t.column[letter]]
            ends = _gather(ends, column) if k else column
        if ends != cosets:
            c = next(c for c in cosets if ends[c] != c)
            if first is None or c < first[0]:
                first = (c, rel)
    if first is not None:
        c, rel = first
        raise RuntimeError(
            f"coset table check failed: relator {rel} "
            f"does not close at coset {c}")


def coset_action(t: CosetTable) -> list[Perm]:
    """One permutation of {1..index} per presentation generator."""
    return [Perm(tuple(target + 1 for target in t.columns[t.column[k]]))
            for k in range(1, len(t.column) // 2 + 1)]

