import random

import pytest

from symgen.fpgroup import (CosetLimitExceeded, Presentation, parse_word,
                            todd_coxeter, word_image, coset_action)
from symgen.perm import Perm, parse_cycles, word_perm
from symgen.progenitor import (ProgenitorSpec, Rule, build_presentation,
                               conjugate_rule, derive_rules, normalize_tail)
from symgen.groupfile import load_bundled


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
    # every ordered pair, including the u3_3 pair orbits whose least forms
    # only the depth-(3 + slack) orbit search finds
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


@pytest.mark.parametrize("name,searches", [("5sq_d6", 1), ("l2_19", 1),
                                           ("u3_3", 3)])
def test_bootstrap_searches_one_pair_per_orbit(monkeypatch, name, searches):
    from symgen.progenitor import RuleSet
    reach = RuleSet._reach
    queries = []

    def counting_reach(self, word, limit, stop_shorter=False):
        queries.append(word)
        return reach(self, word, limit, stop_shorter)

    monkeypatch.setattr(RuleSet, "_reach", counting_reach)
    rules = derive_rules(load_bundled(name).spec)
    assert len(queries) == searches
    assert len(rules._pair_orbits()) == searches
    # the representatives' orbits partition the ordered pairs
    n = rules.n
    covered = [target for _, members in rules._pair_orbits()
               for target, _ in members]
    assert sorted(covered) == [(a, b) for a in range(1, n + 1)
                               for b in range(1, n + 1) if a != b]


@pytest.mark.parametrize("name,words,entries", [("5sq_d6", 50, 150),
                                                ("l2_19", 57, 342),
                                                ("u3_3", 36, 504)])
def test_letter_table_closes_on_coset_representatives(monkeypatch, all_contexts,
                                                      name, words, entries):
    # the least words the table reaches from () are exactly the image's
    # coset representatives, so a complete table needs no further search
    from symgen.progenitor import RuleSet
    from symgen.symrep import canon, per2sym, unify
    ctx = all_contexts[name]
    rules = ctx.rules
    reached, frontier = {()}, [()]
    while frontier:
        nxt = []
        for w in frontier:
            for letter in range(1, rules.n + 1):
                _, form = rules.step(w, letter)
                if form not in reached:
                    reached.add(form)
                    nxt.append(form)
        frontier = nxt
    assert reached == set(ctx.image.cst)
    assert len(reached) == words
    assert len(rules._steps) == entries

    searches = []
    reach = RuleSet._reach

    def counting_reach(self, word, limit, stop_shorter=False):
        searches.append(word)
        return reach(self, word, limit, stop_shorter)

    monkeypatch.setattr(RuleSet, "_reach", counting_reach)
    rng = random.Random(11)
    full = ctx.image.full_group
    for _ in range(200):
        a = per2sym(ctx, full.random_element(rng))
        b = per2sym(ctx, full.random_element(rng))
        perm, word = canon(unify(a, b), rules)
        assert word in reached
    assert searches == []


def insertion_moves(by_pattern, n, state, limit):
    """Reference move generator: apply each rule at every window and, with
    room for two more letters, insert t_k t_k at every position and apply
    each rule at every window that overlaps an inserted letter."""
    def apply_at(word, q, width):
        for perm, rep in by_pattern.get(word[q:q + width], ()):
            prefix = tuple(perm.apply(i) for i in word[:q])
            yield normalize_tail(prefix + rep + word[q + width:], n), perm

    widths = sorted({len(p) for p in by_pattern})
    L = len(state)
    for width in widths:
        for q in range(L - width + 1):
            yield from apply_at(state, q, width)
    if L + 2 <= limit:
        for p in range(L + 1):
            for k in range(1, n + 1):
                grown = state[:p] + (k, k) + state[p:]
                for width in widths:
                    for q in range(max(0, p - width + 1),
                                   min(p + 1, len(grown) - width) + 1):
                        yield from apply_at(grown, q, width)


@pytest.mark.parametrize("name", ["5sq_d6", "l2_19", "u3_3"])
def test_half_rules_make_the_square_insertion_moves(all_contexts, name):
    rules = all_contexts[name].rules
    by_pattern = {pattern: moves for windows in rules._full
                  for pattern, moves in windows.items()}
    rng = random.Random(23)
    for length in range(8):
        for _ in range(12):
            state = ()
            while len(state) < length:
                letter = rng.randrange(1, rules.n + 1)
                if not state or state[-1] != letter:
                    state += (letter,)
            for extra in (0, 1, 2, rules.slack):
                limit = length + extra
                assert set(rules._moves(state, limit)) == set(
                    insertion_moves(by_pattern, rules.n, state, limit)), \
                    (state, limit)
