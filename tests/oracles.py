"""Reference implementations that tests compare the library against."""

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
