import random

import pytest

from symgen.fpgroup import (CosetLimitExceeded, Presentation, parse_word,
                            todd_coxeter, word_image, coset_action)
from symgen.perm import Perm, parse_cycles, word_perm
from symgen.progenitor import (ProgenitorSpec, Rule, RuleSet,
                               build_presentation, derive_rules,
                               normalize_tail)
from symgen.groupfile import load_bundled
from oracles import conjugate_rule

FIXTURES = ["5sq_d6", "l2_19", "u3_3"]


def test_normalize_tail():
    assert normalize_tail((1, 1, 2), 3) == (2,)
    assert normalize_tail((1, 2, 2, 1), 3) == ()
    with pytest.raises(ValueError):
        normalize_tail((4,), 3)


def spec_without_relators(spec):
    return ProgenitorSpec(spec.n, spec.control_gens, spec.control_presentation,
                          (), spec.labels, t_name=spec.t_name)


def test_spec_validation():
    pres = Presentation.parse(["x"], "x^2")
    with pytest.raises(ValueError):
        # intransitive control action
        ProgenitorSpec(3, (parse_cycles("(1,2)", 3),), pres, ())
    with pytest.raises(ValueError):
        # symbol collision
        ProgenitorSpec(2, (parse_cycles("(1,2)", 2),), pres, (), t_name="x")
    with pytest.raises(ValueError):
        # wrong number of labels
        ProgenitorSpec(2, (parse_cycles("(1,2)", 2),), pres, (), labels=("a",))


@pytest.mark.parametrize("name,subgens,index", [
    ("l2_19", 2, 57),
    ("u3_3", 3, 36),
    ("5sq_d6", 2, 50),
])
def test_build_presentation_enumerates_to_known_index(name, subgens, index):
    spec = load_bundled(name).spec
    pres = build_presentation(spec)
    table = todd_coxeter(pres, [(i,) for i in range(1, subgens + 1)])
    assert table.index == index


def test_build_presentation_structure():
    spec = load_bundled("u3_3").spec
    pres = build_presentation(spec)
    m = len(spec.control_gens)
    t = m + 1
    assert pres.names == spec.control_presentation.names + ("s",)
    # the involution relator for the added symbol is present
    assert (t, t) in pres.relators
    # control relators come through unchanged
    for rel in spec.control_presentation.relators:
        assert rel in pres.relators
    # stabilizer commutators: [t, w] with w evaluating into the stabilizer
    # of index 1 in the control action
    gens14 = spec.control_gens
    comms = [rel for rel in pres.relators
             if rel not in spec.control_presentation.relators
             and rel != (t, t) and rel[0] == -t]
    assert comms
    for rel in comms:
        # shape t^-1 * w^-1 * t * w: extract w as the trailing segment
        body = rel[1:]
        half = (len(body) - 1) // 2
        w = body[half + 1:]
        perm = word_perm(gens14, w, spec.n)
        assert perm.apply(1) == 1


def test_progenitor_without_factoring_relators_does_not_close():
    spec = spec_without_relators(load_bundled("5sq_d6").spec)
    pres = build_presentation(spec)
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(pres, [(1,), (2,)], max_cosets=500)


def test_derived_rules_valid_in_image(all_contexts):
    for name, ctx in all_contexts.items():
        img = ctx.image
        for rule in ctx.rules.rules:
            assert len(rule.replacement) <= len(rule.pattern)
            lhs = Perm.identity(img.index)
            for i in rule.pattern:
                lhs = lhs * img.ts[i - 1]
            rhs = img.realize_control(rule.perm)
            for i in rule.replacement:
                rhs = rhs * img.ts[i - 1]
            assert lhs == rhs, (name, rule)


def test_rules_closed_under_control_conjugation(all_contexts):
    for name, ctx in all_contexts.items():
        rules = ctx.rules
        keys = {(r.pattern, r.perm.images, r.replacement) for r in rules.rules}
        for rule in rules.rules:
            for nu in ctx.spec.control_gens:
                c = conjugate_rule(rule, nu)
                assert (c.pattern, c.perm.images, c.replacement) in keys, (name, rule)


def test_rule_shapes_u3(u3_3):
    spec = u3_3.spec
    ix = {label: i + 1 for i, label in enumerate(spec.labels)}
    by_pattern = {}
    for r in u3_3.rules.rules:
        by_pattern.setdefault(r.pattern, []).append(r)
    # shortening family from the length-3 relator: pattern (b0, 0) -> one letter
    short = by_pattern[(ix["b0"], ix["0"])]
    assert any(len(r.replacement) == 1 for r in short)
    t_perm = spec.control_gens[2]
    assert any(r.perm == t_perm and r.replacement == (ix["b0"],) for r in short)
    # swap family from the length-4 relator: pattern (b0, 1) -> two letters
    swaps = by_pattern[(ix["b0"], ix["1"])]
    y_perm = spec.control_gens[1]
    assert any(r.perm == y_perm and r.replacement == (ix["1"], ix["b0"])
               for r in swaps)
    # the shortening family covers the whole control orbit of the pair
    orbit = {(ix["b0"], ix["0"])}
    frontier = [(ix["b0"], ix["0"])]
    for pair in frontier:
        for g in spec.control_gens:
            img = (g.apply(pair[0]), g.apply(pair[1]))
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    assert len(orbit) == 56
    for pair in orbit:
        assert any(len(r.replacement) == 1 for r in by_pattern.get(pair, []))


def test_rule_shapes_5sq(d6_5sq):
    # the order-6 relator yields t1 t0 t1 = t0 t1 t0 as a swap rule
    ix = {label: i + 1 for i, label in enumerate(d6_5sq.spec.labels)}
    target = Rule((ix["1"], ix["0"], ix["1"]), Perm.identity(3),
                  (ix["0"], ix["1"], ix["0"]))
    assert any(r.pattern == target.pattern and r.replacement == target.replacement
               and r.perm == target.perm for r in d6_5sq.rules.rules)


def test_conjugate_rule_by_identity():
    rule = Rule((1, 2), parse_cycles("(1,2)", 3), (2,))
    assert conjugate_rule(rule, Perm.identity(3)) == rule


def test_conjugate_rule_transports_valid_relations(u3_3):
    # conjugating the relation t_1 = sigma * t_b3 t_b0 t_b1 by the group
    # element gamma produces the relation for the transported letters, with
    # the permutation part conjugated; checked in the image.
    ctx = u3_3
    img = ctx.image
    spec = ctx.spec
    ix = {label: i + 1 for i, label in enumerate(spec.labels)}
    from symgen.symrep import parse_label_cycles
    sigma = parse_label_cycles("(b2,b6)(b4,b5)(0,3)(5,6)", spec.labels)
    gamma = parse_label_cycles("(b1,b3,b0)(b4,b5,b6)(2,0,6)(3,5,4)", spec.labels)

    def realize(word, perm):
        p = img.realize_control(perm)
        for letter in word:
            p = p * img.ts[letter - 1]
        return p

    base = Rule((ix["1"],), sigma, (ix["b3"], ix["b0"], ix["b1"]))
    assert img.ts[ix["1"] - 1] == realize(base.replacement, base.perm)
    conj = conjugate_rule(base, gamma)
    assert conj.pattern == (ix["1"],)
    assert conj.replacement == (ix["b0"], ix["b1"], ix["b3"])
    # the permutation part of a conjugated involution relation stays an
    # involution, and the transported relation still holds in the image
    assert (conj.perm * conj.perm).is_identity()
    lhs = img.ts[conj.pattern[0] - 1]
    assert lhs == realize(conj.replacement, conj.perm)


def test_conjugate_rule_second_transport(u3_3):
    # (b0.b3 = sigma * b1.1) conjugated by (b1,b3)(b4,b5)(3,5)(6,0) gives
    # b0.b1 = sigma * b3.1, with sigma centralized by the conjugator
    ctx = u3_3
    img = ctx.image
    spec = ctx.spec
    ix = {label: i + 1 for i, label in enumerate(spec.labels)}
    from symgen.symrep import parse_label_cycles
    sigma = parse_label_cycles("(b2,b6)(b4,b5)(0,3)(5,6)", spec.labels)
    gamma2 = parse_label_cycles("(b1,b3)(b4,b5)(3,5)(6,0)", spec.labels)
    base = Rule((ix["b0"], ix["b3"]), sigma, (ix["b1"], ix["1"]))
    conj = conjugate_rule(base, gamma2)
    assert conj.pattern == (ix["b0"], ix["b1"])
    assert conj.replacement == (ix["b3"], ix["1"])
    assert conj.perm == sigma  # the conjugator centralizes sigma
    lhs = img.ts[ix["b0"] - 1] * img.ts[ix["b1"] - 1]
    rhs = img.realize_control(conj.perm)
    for letter in conj.replacement:
        rhs = rhs * img.ts[letter - 1]
    assert lhs == rhs


def test_unsupported_relator_shape():
    pres = Presentation.parse(["x"], "x^2")
    spec = ProgenitorSpec(2, (parse_cycles("(1,2)", 2),), pres,
                          ((parse_word("x", ["x"]), ()),))
    # an empty tail is normalized away and cannot produce rules
    from symgen.progenitor import UnsupportedRelator
    with pytest.raises(UnsupportedRelator):
        derive_rules(spec)


def test_default_t_words_reach_all_generators(l2_19):
    from symgen.progenitor import default_t_words
    spec = l2_19.spec
    pres = build_presentation(spec)
    table = todd_coxeter(pres, [(1,), (2,)])
    images = coset_action(table)
    words = default_t_words(spec)
    ts = [word_image(images, w) for w in words]
    assert len(set(ts)) == spec.n
    for t in ts:
        assert t.order() == 2


def test_pair_canonical_forms_match_image(all_contexts):
    # every ordered pair, including the u3_3 pairs whose least forms lie
    # past long detours that no single base rule shortens
    from symgen.symrep import per2sym
    for name, ctx in all_contexts.items():
        img = ctx.image
        n = ctx.spec.n
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a == b:
                    continue
                delta, form = ctx.rules.canonical_form((a, b))
                e = per2sym(ctx, img.ts[a - 1] * img.ts[b - 1])
                assert (delta, form) == (e.control, e.word), (name, a, b)


def _realize(img, perm, word):
    p = img.realize_control(perm)
    for letter in word:
        p = p * img.ts[letter - 1]
    return p


@pytest.mark.parametrize("name", FIXTURES)
def test_completed_system_is_confluent(all_contexts, name):
    # every rule holds in the image and lowers its word in reverse shortlex;
    # every critical pair joins: the overlaps of two left-hand sides, the
    # overlaps with t_c t_c = 1 at either end and the conjugates by the
    # control generators; no left-hand side contains another
    ctx = all_contexts[name]
    rules = ctx.rules
    rules.table
    system = list(rules.system.values())
    identity = Perm.identity(rules.n)

    def shift(word, pi):
        return tuple(pi.apply(i) for i in word)

    def joins(p, u, q, v):
        d, u = rules.reduce(u)
        e, v = rules.reduce(v)
        return u == v and p * d == q * e

    for r in system:
        u, pi, v = r.pattern, r.perm, r.replacement
        assert rules.system[u] is r
        assert (len(v), v[::-1]) < (len(u), u[::-1])
        assert _realize(ctx.image, identity, u) == _realize(ctx.image, pi, v)
        assert joins(identity, u[:-1], pi, v + u[-1:]), r
        assert joins(identity, u[1:], pi, shift(u[:1], pi) + v), r
        for g in ctx.spec.control_gens:
            assert joins(identity, shift(u, g), pi.conj(g),
                         shift(v, g)), (r, g)
        for s in system:
            w = s.pattern
            if s is not r:
                assert all(u[i:i + len(w)] != w
                           for i in range(len(u) - len(w) + 1)), (r, s)
            for k in range(1, min(len(u), len(w))):
                if u[-k:] == w[:k]:
                    assert joins(pi, v + w[k:], s.perm,
                                 shift(u[:-k], s.perm) + s.replacement), (r, s)


@pytest.mark.parametrize("name,words,entries", [("5sq_d6", 50, 150),
                                                ("l2_19", 57, 342),
                                                ("u3_3", 36, 504)])
def test_letter_table_closes_on_coset_representatives(all_contexts, name,
                                                      words, entries):
    # the table's least words are exactly the image's coset representatives,
    # and every entry is the image engine's form of t_s t_i
    from symgen.symrep import per2sym
    ctx = all_contexts[name]
    img = ctx.image
    table = ctx.rules.table
    assert {s for s, _ in table} == set(img.cst)
    assert len(set(img.cst)) == words
    assert len(table) == entries
    identity = Perm.identity(ctx.n)
    for (s, i), entry in table.items():
        e = per2sym(ctx, _realize(img, identity, s + (i,)))
        assert entry == (e.control, e.word), (name, s, i)


@pytest.mark.parametrize("name", FIXTURES)
def test_products_read_the_table_without_reducing(monkeypatch, all_contexts,
                                                  name):
    from symgen.symrep import canon, per2sym, sym2per, unify
    ctx = all_contexts[name]
    ctx.rules.table
    reduced = []
    reduce = RuleSet.reduce

    def counting_reduce(self, word):
        reduced.append(word)
        return reduce(self, word)

    monkeypatch.setattr(RuleSet, "reduce", counting_reduce)
    rng = random.Random(11)
    full = ctx.image.full_group
    for _ in range(200):
        a = per2sym(ctx, full.random_element(rng))
        b = per2sym(ctx, full.random_element(rng))
        perm, word = canon(unify(a, b), ctx.rules)
        e = per2sym(ctx, sym2per(ctx, a) * sym2per(ctx, b))
        assert (perm, word) == (e.control, e.word)
    assert reduced == []


@pytest.mark.parametrize("max_cosets,fits", [(36, True), (35, False)])
def test_rewrite_table_is_bounded_by_max_cosets(max_cosets, fits):
    rules = derive_rules(load_bundled("u3_3").spec, max_cosets)
    if fits:
        assert len({s for s, _ in rules.table}) == 36
    else:
        with pytest.raises(CosetLimitExceeded):
            rules.table


def test_rewrite_budget_names_its_stage():
    with pytest.raises(CosetLimitExceeded) as exc:
        derive_rules(load_bundled("u3_3").spec, 35).table
    assert "letter table" in str(exc.value)
    assert "coset enumeration" not in str(exc.value)
    # a budget of one coset lets the completion add n = 14 rules, too few
    with pytest.raises(CosetLimitExceeded,
                       match="^Knuth-Bendix completion exceeded the limit "
                             "of 14 added rules$"):
        derive_rules(load_bundled("u3_3").spec, 1).table


def test_rewrite_engine_without_factoring_relators_hits_the_budget():
    spec = spec_without_relators(load_bundled("5sq_d6").spec)
    rules = derive_rules(spec, max_cosets=200)
    with pytest.raises(CosetLimitExceeded):
        rules.canonical_form((1, 2))


def test_relator_that_collapses_the_control_group_raises():
    # x * t_1 = 1 makes t_1 = x^-1, and t_1^2 = 1 then forces x^2 = 1,
    # which the order-3 generator x does not satisfy
    spec = load_bundled("5sq_d6").spec
    names = spec.control_presentation.names
    collapsing = ProgenitorSpec(spec.n, spec.control_gens,
                                spec.control_presentation,
                                ((parse_word("x", names), (1,)),),
                                spec.labels, t_name=spec.t_name)
    with pytest.raises(ValueError, match="non-identity element of N"):
        derive_rules(collapsing).table
