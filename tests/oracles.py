"""Reference implementations that tests compare the library against."""

from typing import Sequence

from symgen.fpgroup import (CosetLimitExceeded, CosetTable, Presentation,
                            _check_closed, reduce_word)
from symgen.perm import Perm, PermGroup
from symgen.progenitor import Rule


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


def conjugate_rule(rule, pi):
    """Map a rule through a control element: letters via pi, perm by conjugation."""
    return Rule(tuple(pi.apply(i) for i in rule.pattern),
                rule.perm.conj(pi),
                tuple(pi.apply(i) for i in rule.replacement))


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
