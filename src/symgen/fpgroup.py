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
output is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .perm import Perm, word_perm

FreeWord = tuple[int, ...]


class CosetLimitExceeded(RuntimeError):
    """Enumeration abandoned: the coset limit was hit before closure."""

    def __init__(self, limit: int):
        super().__init__(f"coset enumeration exceeded the limit of {limit} cosets")
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
        relators = tuple(parse_word(part, names)
                         for part in split_top_level(relator_text) if part.strip())
        return Presentation(names, relators)


def split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ')' in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced '(' in {text!r}")
    parts.append("".join(cur))
    return parts


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

    def follow(self, coset: int, letter: int) -> int:
        col = 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1
        return self.rows[coset][col]

    def trace(self, coset: int, word: Sequence[int]) -> int:
        for letter in word:
            coset = self.follow(coset, letter)
        return coset


def todd_coxeter(pres: Presentation, subgroup_gens: Sequence[Sequence[int]] = (),
                 max_cosets: int = 10 ** 6) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

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


def _check_closed(t: CosetTable, relators, subgens):
    """Raise RuntimeError unless every subgroup generator fixes coset 0
    and every relator closes at every coset."""
    for w in subgens:
        if t.trace(0, w) != 0:
            raise RuntimeError(
                f"coset table check failed: subgroup generator {w} "
                f"does not fix coset 0")
    for c in range(t.index):
        for rel in relators:
            if t.trace(c, rel) != c:
                raise RuntimeError(
                    f"coset table check failed: relator {rel} "
                    f"does not close at coset {c}")


def coset_action(t: CosetTable) -> list[Perm]:
    """One permutation of {1..index} per presentation generator."""
    perms = []
    for g in range(1, t.n_gens + 1):
        perms.append(Perm(tuple(t.follow(c, g) + 1 for c in range(t.index))))
    return perms


def word_image(images: Sequence[Perm], word: Sequence[int]) -> Perm:
    """Product of the generator images along a free word."""
    if not images:
        raise ValueError("no generator images")
    return word_perm(images, word, images[0].degree)
