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
k^-2 is an involution: while enumerating, k and k^-1 share one column that
is its own inverse, so the squares hold by construction and are not
scanned, and the closed rows are expanded back to a column for k and one
for k^-1.  Each relator and subgroup generator is compiled once per
enumeration to a tuple of working columns, and a relator walk at a coset
that meets no undefined entry only compares its end with the start; the
closed table is then checked against every relator, squares included, one
relator at a time over all cosets, by C-level gathers along the table's
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .perm import Perm, _gather

FreeWord = tuple[int, ...]


class CosetLimitExceeded(RuntimeError):
    """A search abandoned at its budget before closure: Todd-Coxeter's
    cosets by default; stage and unit name another search the coset limit
    bounds, such as the rewrite engine's letter table."""

    def __init__(self, limit: int, stage: str = "coset enumeration",
                 unit: str = "cosets"):
        super().__init__(f"{stage} exceeded the limit of {limit} {unit}")
        self.limit = limit


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


class _WordParser:
    """Recursive-descent parser for the word syntax described above."""

    def __init__(self, text: str, names: Sequence[str]):
        self.text = "".join(text.split())
        self.pos = 0
        self.names = list(names)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, msg: str):
        raise ValueError(f"{msg} at position {self.pos} in {self.text!r}")

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
            self.pos += 1
            parts = [self.word()]
            while self.peek() == ",":
                self.pos += 1
                parts.append(self.word())
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
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
    return _WordParser(text, names).parse()


def word_str(word: Sequence[int], names: Sequence[str]) -> str:
    if not word:
        return "1"
    parts = []
    for letter in word:
        nm = names[abs(letter) - 1]
        parts.append(nm if letter > 0 else nm + "^-1")
    return "*".join(parts)


# -- Todd-Coxeter ---------------------------------------------------------

def _column(letter: int) -> int:
    """Coset table column of a letter: 2k-2 for generator k, 2k-1 for its
    inverse, so flipping the low bit inverts the letter."""
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


def _compile(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(_column, word))


@dataclass(frozen=True)
class CosetTable:
    """Closed coset table: rows[c][col] is the 0-based target coset.

    Columns alternate generator and inverse: generator k (1-based) acts via
    column 2k-2 and its inverse via column 2k-1.  Coset 0 is the subgroup.
    """

    n_gens: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.rows)

    def trace(self, coset: int, word: Sequence[int]) -> int:
        for letter in word:
            coset = self.rows[coset][_column(letter)]
        return coset


def todd_coxeter(pres: Presentation, subgroup_gens: Sequence[Sequence[int]] = (),
                 max_cosets: int = 10 ** 6) -> CosetTable:
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
    column: dict[int, int] = {}
    inv: list[int] = []
    for k in range(1, m + 1):
        c = len(inv)
        if k in involutions:
            column[k] = column[-k] = c
            inv.append(c)
        else:
            column[k], column[-k] = c, c + 1
            inv += [c + 1, c]

    def compile_word(word: FreeWord) -> tuple[int, ...]:
        return tuple(map(column.__getitem__, word))

    scanned = [r for r in relators if r and r not in squares]
    # the working table is freed on return, before the check builds columns
    rows = _hlt(inv, [compile_word(r) for r in scanned],
                [compile_word(w) for w in subgens if w], max_cosets)
    result = CosetTable(m, rows)
    _check_closed(result, relators, subgens)
    return result


def _hlt(inv: list[int], relators: list[tuple[int, ...]],
         subgens: list[tuple[int, ...]], max_cosets: int) -> tuple[tuple[int, ...], ...]:
    """HLT over compiled, non-empty words; returns the compacted rows.

    The working columns follow the generators in order: two columns, k
    then k^-1, for a generator that is no involution, and one column that
    is its own inverse (inv[c] == c) for an involution.  The returned rows
    are expanded to CosetTable's layout of two columns per generator.
    """
    ncols = len(inv)
    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def define(a: int, col: int):
        if len(table) >= max_cosets:
            raise CosetLimitExceeded(max_cosets)
        b = len(table)
        row = [None] * ncols
        row[inv[col]] = a
        table.append(row)
        parent.append(b)
        table[a][col] = b

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
            row = table[dead]
            for col in range(ncols):
                target = row[col]
                if target is None:
                    continue
                back = inv[col]
                table[target][back] = None
                u = find(dead)
                v = target if parent[target] == target else find(target)
                row_u = table[u]
                w = row_u[col]
                if w is None:
                    row_v = table[v]
                    w = row_v[back]
                    if w is None:
                        row_u[col] = v
                        row_v[back] = u
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
            # every entry that named dead is cleared, so its row is garbage
            table[dead] = None

    def scan_and_fill(a: int, word: tuple[int, ...]):
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            # scan forward
            while i <= j:
                nxt = table[f][word[i]]
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
                nxt = table[b][inv[word[j]]]
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                # deduction closes the gap
                table[f][word[i]] = b
                table[b][inv[word[i]]] = f
                return
            define(f, word[i])

    for w in subgens:
        scan_and_fill(0, w)
    a = 0
    while a < len(table):
        if parent[a] == a:
            for rel in relators:
                # a walk that meets no gap only compares its end with a
                f = a
                for col in rel:
                    f = table[f][col]
                    if f is None:
                        scan_and_fill(a, rel)
                        break
                else:
                    if f != a:
                        coincidence(f, a)
                if parent[a] != a:
                    break
            else:
                for col in range(ncols):
                    if table[a][col] is None:
                        define(a, col)
        a += 1

    # a finished coincidence clears every entry that pointed at a dead
    # coset, so live rows only name live cosets; each row is renumbered
    # and expanded to the columns k, k^-1 of every generator in one pass
    expand = []
    for c, d in enumerate(inv):
        if c <= d:
            expand += [c, d]
    live = [c for c in range(len(table)) if parent[c] == c]
    renumber: list[int | None] = [None] * len(table)
    for i, c in enumerate(live):
        renumber[c] = i
    return tuple(_gather(_gather(expand, table[c]), renumber) for c in live)


def _check_closed(t: CosetTable, relators, subgens):
    """Raise RuntimeError unless every subgroup generator fixes coset 0
    and every relator closes at every coset.

    Each relator is compiled to its column tuple and traced from all
    cosets at once, one C-level gather per letter over the table's
    columns; a failure names the least failing coset and, at that coset,
    the first failing relator, as a coset-by-coset scan would.
    """
    for w in subgens:
        if t.trace(0, w) != 0:
            raise RuntimeError(
                f"coset table check failed: subgroup generator {w} "
                f"does not fix coset 0")
    columns = list(zip(*t.rows))
    cosets = tuple(range(t.index))
    first = None
    for rel in relators:
        ends = cosets
        for col in _compile(rel):
            ends = _gather(ends, columns[col])
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
    columns = list(zip(*t.rows))
    return [Perm(tuple(target + 1 for target in columns[_column(g)]))
            for g in range(1, t.n_gens + 1)]

