import hashlib
import heapq
import random
from types import SimpleNamespace

import pytest

from symgen.fpgroup import (CosetLimitExceeded, Presentation, invert_word,
                            parse_word, todd_coxeter, coset_action)
from symgen import progenitor
from symgen.perm import Perm, PermGroup, parse_cycles, word_perm
from symgen.progenitor import (ProgenitorSpec, Rule, RuleSet,
                               build_presentation, derive_rules,
                               normalize_tail)
from symgen.groupfile import load_bundled
from symgen.dcenum import ImageError, build_image
from symgen.symrep import (SymContext, canon, cenelt, format_element,
                           invert_sym, mult, per2sym, sym2per, unify)
from oracles import (CompletionReference, build_presentation_as_written,
                     canon_by_perms, closed_relator_rules, conjugate_rule,
                     control_action_by_perms,
                     schreier_generators_by_scan, table_view,
                     unify_two_step)

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
            rhs = control_action_by_perms(img)[rule.perm]
            for i in rule.replacement:
                rhs = rhs * img.ts[i - 1]
            assert lhs == rhs, (name, rule)


@pytest.mark.parametrize("name,count", [("5sq_d6", 2), ("l2_19", 1),
                                        ("u3_3", 2)])
def test_one_base_rule_per_relator_without_enumerating_n(monkeypatch, name,
                                                         count):
    # each factoring relator as written gives one rule, and neither the
    # split nor its completion lists the elements of N
    def refuse(self, levels):
        raise AssertionError("N enumerated")

    monkeypatch.setattr(PermGroup, "_multiply_out", refuse)
    spec = load_bundled(name).spec
    rules = derive_rules(spec)
    assert len(rules.rules) == len(spec.relators) == count
    rules.table


def test_rule_shapes_u3(u3_3):
    spec = u3_3.spec
    ix = {label: i + 1 for i, label in enumerate(spec.labels)}
    # the length-3 relator gives the shortening rule (b0, 0) -> one letter,
    # the length-4 relator the swap rule (b0, 1) -> two letters
    t_perm, y_perm = spec.control_gens[2], spec.control_gens[1]
    assert [(r.pattern, r.perm, r.replacement) for r in u3_3.rules.rules] == [
        ((ix["b0"], ix["0"]), t_perm, (ix["b0"],)),
        ((ix["b0"], ix["1"]), y_perm, (ix["1"], ix["b0"]))]
    # completion carries the shortening to the whole control orbit of the
    # pair: each of its 56 pairs has a one-letter least form
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
        assert len(canon((Perm.identity(spec.n).images, pair),
                         u3_3.rules)[1]) == 1, pair


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
        p = control_action_by_perms(img)[perm]
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
    rhs = control_action_by_perms(img)[conj.perm]
    for letter in conj.replacement:
        rhs = rhs * img.ts[letter - 1]
    assert lhs == rhs


def empty_tail_spec():
    """2^{*2} : 2 factored by x alone, a relator with no t letters."""
    pres = Presentation.parse(["x"], "x^2")
    return ProgenitorSpec(2, (parse_cycles("(1,2)", 2),), pres,
                          ((parse_word("x", ["x"]), ()),))


def test_unsupported_relator_shape():
    # an empty tail is normalized away and cannot produce rules
    from symgen.progenitor import UnsupportedRelator
    with pytest.raises(UnsupportedRelator):
        derive_rules(empty_tail_spec())


def test_default_t_words_reach_all_generators(l2_19):
    from symgen.progenitor import default_t_words
    spec = l2_19.spec
    pres = build_presentation(spec)
    table = todd_coxeter(pres, [(1,), (2,)])
    images = coset_action(table)
    words = default_t_words(spec)
    ts = [word_perm(images, w) for w in words]
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
                delta, form = canon((Perm.identity(n).images, (a, b)),
                                    ctx.rules)
                e = per2sym(ctx, img.ts[a - 1] * img.ts[b - 1])
                assert (delta, form) == (e.control, e.word), (name, a, b)


def _realize(img, perm, word):
    p = control_action_by_perms(img)[perm]
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
        d, u = rules._reduce(u)
        e, v = rules._reduce(v)
        return u == v and p * Perm(d) == q * Perm(e)

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
    # the table's states, named by their least words, are exactly the
    # image's coset representatives, and every entry of their rows is the
    # image engine's form of t_s t_i, its perm's images padded behind a 0,
    # or None for the identity
    from symgen.symrep import per2sym
    ctx = all_contexts[name]
    img = ctx.image
    rows, states = ctx.rules.table
    assert set(states) == set(img.cst)
    assert len(set(states)) == len(rows) == words
    assert sum(map(len, rows)) == entries
    identity = Perm.identity(ctx.n)
    for (s, i), (padded, word) in table_view(ctx.rules).items():
        e = per2sym(ctx, _realize(img, identity, s + (i,)))
        perm = identity if padded is None else Perm(padded[1:])
        assert padded is None or (padded[0] == 0 and perm != identity)
        assert (perm, word) == (e.control, e.word), (name, s, i)


@pytest.mark.parametrize("name", FIXTURES)
def test_products_read_the_table_without_reducing(monkeypatch, all_contexts,
                                                  name):
    from symgen.symrep import canon, per2sym, sym2per, unify
    ctx = all_contexts[name]
    ctx.rules.table
    reduced = []
    reduce = RuleSet._reduce  # what completion and the table call

    def counting_reduce(self, word):
        reduced.append(word)
        return reduce(self, word)

    monkeypatch.setattr(RuleSet, "_reduce", counting_reduce)
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
        assert len({s for s, _ in table_view(rules)}) == 36
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


@pytest.mark.parametrize("max_cosets", [1, 2])
def test_table_access_after_a_budget_error_raises_it_again(max_cosets):
    # every access completes from the base rules: a retry neither grows the
    # system nor gets past the completion's budget to the table's
    rules = derive_rules(load_bundled("u3_3").spec, max_cosets)
    seen = []
    for _ in range(3):
        with pytest.raises(CosetLimitExceeded) as exc:
            rules.table
        seen.append((str(exc.value), list(rules.system.items())))
    assert seen[0][0] == ("Knuth-Bendix completion exceeded the limit of "
                          f"{14 * max_cosets} added rules")
    assert len(seen[0][1]) == 14 * max_cosets
    assert seen[1:] == seen[:1] * 2


def test_rewrite_engine_without_factoring_relators_hits_the_budget():
    spec = spec_without_relators(load_bundled("5sq_d6").spec)
    rules = derive_rules(spec, max_cosets=200)
    with pytest.raises(CosetLimitExceeded):
        canon((Perm.identity(spec.n).images, (1, 2)), rules)


def collapsing_spec():
    # x * t_1 = 1 makes t_1 = x^-1, and t_1^2 = 1 then forces x^2 = 1,
    # which the order-3 generator x does not satisfy
    spec = load_bundled("5sq_d6").spec
    names = spec.control_presentation.names
    return ProgenitorSpec(spec.n, spec.control_gens, spec.control_presentation,
                          ((parse_word("x", names), (1,)),),
                          spec.labels, t_name=spec.t_name)


def test_relator_that_collapses_the_control_group_raises():
    with pytest.raises(ValueError, match="non-identity element of N"):
        derive_rules(collapsing_spec()).table


def _outcome(rules):
    """What the completion's result is, whatever order it pushed its
    equations in: the completed left-hand sides, sorted, each with its
    right-hand side reduced and the images of the perm gathered on the
    way, then the letter table's entries in order; or the type and message
    of the error that building them raised."""
    try:
        table = table_view(rules)
    except (CosetLimitExceeded, ValueError) as exc:
        return type(exc), str(exc)
    system = []
    for lhs in sorted(rules.system):
        rule = rules.system[lhs]
        delta, nf = rules._reduce(rule.replacement)
        system.append((lhs, (rule.perm * Perm(delta)).images, nf))
    return system, list(table.items())


def _completion(rules):
    """The number of equations pushed onto the completion's heap, counted
    by wrapping heapq.heappush, and the outcome."""
    pushed = 0
    heappush = heapq.heappush

    def counting_push(heap, item):
        nonlocal pushed
        pushed += 1
        heappush(heap, item)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heapq, "heappush", counting_push)
        outcome = _outcome(rules)
    return pushed, outcome


def _assert_completion_pinned(rules):
    """The completion's outcome, which must be the scanning reference's, and
    the numbers of equations pushed by the completion and the reference."""
    reference = CompletionReference(rules.spec, rules.rules, rules.max_cosets)
    pushed, outcome = _completion(rules)
    reference_pushed, reference_outcome = _completion(reference)
    assert outcome == reference_outcome
    return outcome, (pushed, reference_pushed)


def test_completion_matches_the_reference_without_relators():
    spec = spec_without_relators(load_bundled("5sq_d6").spec)
    # no rule to complete: both trip the letter-table budget at one word
    outcome, _ = _assert_completion_pinned(derive_rules(spec, 200))
    assert outcome[0] is CosetLimitExceeded


def test_completion_matches_the_reference_on_a_collapse():
    outcome, _ = _assert_completion_pinned(derive_rules(collapsing_spec()))
    assert outcome[0] is ValueError


# the least max_cosets at which each fixture's letter table fits
INDEX = {"5sq_d6": 50, "l2_19": 57, "u3_3": 36}

# equations pushed by the completion and by the scanning reference; the
# completion skips the composite critical pairs
PUSHES = {"5sq_d6": (129, 204), "l2_19": (2546, 4846), "u3_3": (3194, 3197)}


@pytest.mark.parametrize("name,index,rules", [("5sq_d6", 50, 14),
                                              ("l2_19", 57, 143),
                                              ("u3_3", 36, 179)])
def test_completion_matches_the_scanning_reference(name, index, rules):
    # each budget either builds the reference's system and table or raises
    # its error; index is the least budget that fits, so the last case is
    # the fixture's whole completion, where the skipped composite pairs are
    # pinned so that a criterion that stops firing fails here
    spec = load_bundled(name).spec
    outcomes = [_assert_completion_pinned(derive_rules(spec, m))
                for m in (1, 2, index - 1, index)]
    assert outcomes[0][0][0] is CosetLimitExceeded
    assert outcomes[2][0][0] is CosetLimitExceeded
    (system, entries), pushes = outcomes[3]
    assert len(system) == rules
    assert len({s for (s, _), _ in entries}) == index
    assert pushes == PUSHES[name]


# 2^{*3} : S_3 and 2^{*4} : S_4 on x = (1,...,n), y = (1,2)
SYMMETRIC_CONTROL = {3: ("(1,2,3)", "(1,2)", "x^3, y^2, (x*y)^2"),
                     4: ("(1,2,3,4)", "(1,2)", "x^4, y^2, (x*y)^3")}


def power_relator_spec(n, word, k):
    """2^{*n} : S_n factored by (pi t_1)^k for the control word given;
    (pi t_1)^k = pi^k t_(1^(pi^(k-1))) ... t_(1^pi) t_1."""
    x, y, text = SYMMETRIC_CONTROL[n]
    gens = (parse_cycles(x, n), parse_cycles(y, n))
    pres = Presentation.parse(["x", "y"], text)
    control_word = parse_word(word, pres.names)
    pi = word_perm(gens, control_word, n)
    tail = [1]
    for _ in range(k - 1):
        tail.insert(0, pi.apply(tail[0]))
    return ProgenitorSpec(n, gens, pres, ((control_word * k, tuple(tail)),))


# (n, control word, k, number of least words or the error raised)
POWER_CASES = [
    (3, "x", 5, 20), (3, "y", 5, 20), (3, "x^2*y", 4, 8),
    (3, "x", 8, CosetLimitExceeded), (4, "x*y*x^-1*y", 4, 10),
    (4, "y", 4, 16), (4, "x", 5, 5), (4, "x", 6, 84),
    (4, "x*y*x^-1*y", 7, 91), (4, "x", 3, ValueError)]


def test_shortest_words_stop_at_depth_and_at_the_element_bound(monkeypatch):
    # S_4 on x = (1,2,3,4), y = (1,2): the letters are x, x^-1 and y
    x, y = parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)
    lengths = word_lengths_in((x, y), 4)
    targets = {p.images for p in lengths}
    found = progenitor._shortest_words((x, y), 4, targets, 10)
    assert len(found) == 24
    for images, word in found.items():
        assert word_perm((x, y), word, 4).images == images
        assert len(word) == lengths[Perm(images)]
    assert found[(x * y).images] == (1, 2)
    assert found[(~x).images] == (-1,)
    # depth 2 finds the elements of length at most 2
    near = progenitor._shortest_words((x, y), 4, targets, 2)
    assert sorted(map(len, near.values())) == sorted(
        k for k in lengths.values() if k <= 2)
    # the search stops once it has visited MAX_ELEMENTS elements
    monkeypatch.setattr(progenitor, "MAX_ELEMENTS", 1)
    assert progenitor._shortest_words((x, y), 4, targets, 10) == {
        Perm.identity(4).images: ()}


@pytest.mark.parametrize("n,word,k,outcome", POWER_CASES)
def test_completion_matches_the_reference_on_small_progenitors(n, word, k,
                                                               outcome):
    # outcome is the number of least words, or the error raised: N
    # collapses, or the budget of 2000 least words runs out
    (first, entries), _ = _assert_completion_pinned(
        derive_rules(power_relator_spec(n, word, k), 2000))
    if isinstance(outcome, int):
        assert len({s for (s, _), _ in entries}) == outcome
    else:
        assert first is outcome


@pytest.mark.parametrize("name", FIXTURES + [
    f"{n},{word},{k}" for n, word, k, _ in POWER_CASES])
def test_schreier_generators_match_the_scan(all_contexts, name):
    # stopping at the stabilizer's order keeps the words and perms that
    # scanning every Schreier generator keeps, at every point; for the
    # fixtures the image's full group is checked too
    if name in FIXTURES:
        ctx = all_contexts[name]
        groups = [ctx.spec.control_group, ctx.image.full_group]
    else:
        n, word, k = name.split(",")
        groups = [power_relator_spec(int(n), word, int(k)).control_group]
    for group in groups:
        for k in range(1, group.degree + 1):
            assert (group.schreier_generators(k)
                    == schreier_generators_by_scan(group, k)), (name, k)


@pytest.mark.parametrize("name,max_cosets", list(INDEX.items()) + [
    (f"{n},{word},{k}", 2000) for n, word, k, outcome in POWER_CASES
    if isinstance(outcome, int)])
def test_completion_outcome_does_not_depend_on_push_order(name, max_cosets):
    # equations of equal size leave the heap in the order of a random
    # tiebreak instead of their push order, which reorders the completion's
    # steps but must not change its outcome; only whole completions are
    # compared, since a budget can trip at another count in another order
    if name in INDEX:
        spec = load_bundled(name).spec
    else:
        n, word, k = name.split(",")
        spec = power_relator_spec(int(n), word, int(k))
    expected = _outcome(derive_rules(spec, max_cosets))
    assert isinstance(expected[0], list)
    for seed in range(3):
        rng = random.Random(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(progenitor, "itertools", SimpleNamespace(
                count=lambda: iter(rng.random, None)))
            assert _outcome(derive_rules(spec, max_cosets)) == expected, seed


def degree_one_spec(relators):
    """2^{*1} : 1 with the factoring relators given."""
    return ProgenitorSpec(1, (Perm.identity(1),),
                          Presentation.parse(["x"], "x"), relators)


DEGREE_ONE_RELATORS = {"t1_is_1": (((), (1,)),), "free": ()}


@pytest.mark.parametrize("relators,words", [
    (DEGREE_ONE_RELATORS["t1_is_1"], {((), 1): ()}),
    (DEGREE_ONE_RELATORS["free"], {((), 1): (1,), ((1,), 1): ()}),
], ids=["t1_is_1", "free"])
def test_degree_one_progenitor(relators, words):
    # 2^{*1} : 1, whose perms have degree 1: a gather of a single index
    # returns no tuple
    identity = Perm.identity(1)
    spec = degree_one_spec(relators)
    rules = derive_rules(spec)
    (_, entries), _ = _assert_completion_pinned(rules)
    assert dict(entries) == {key: (None, word) for key, word in words.items()}
    # products: t_1 is words[(), 1], and t_1 t_1 t_1 is t_1
    t1 = words[(), 1]
    for word in ((1,), (1, 1, 1)):
        trace = []
        assert canon((identity.images, word), rules,
                     trace=trace) == (identity, t1)
        assert trace == [(1, (1,))] + [(0, ())] * (t1 == ())
    ctx = SymContext(spec, rules=rules)
    t = ctx.element(identity, (1,))
    product, inverse = mult(t, t), invert_sym(t)
    assert (product.control, product.word) == (identity, ())
    assert (inverse.control, inverse.word) == (identity, t1)
    if t1 == ():
        # t_1 = 1, which build_image rejects
        with pytest.raises(ImageError, match="^image of generator 1 does "
                                             "not have order 2$"):
            build_image(spec)
        return
    # free, the image has index 2 and order 2: the least index at which
    # the image engine's gathers run, each over two points
    ctx = SymContext(spec, image=build_image(spec))
    assert (ctx.image.index, ctx.image.full_group.order()) == (2, 2)
    t, one = ctx.element(identity, (1,)), ctx.identity_element()
    swap = Perm((2, 1))
    assert sym2per(ctx, t) == swap and sym2per(ctx, one) == Perm.identity(2)
    for p, word in ((swap, (1,)), (Perm.identity(2), ())):
        e = per2sym(ctx, p)
        assert (e.control, e.word) == (identity, word)
    for e, want in ((mult(t, t, mode="image"), ()),
                    (mult(t, one, mode="image"), (1,)),
                    (mult(one, t, mode="image"), (1,)),
                    (invert_sym(t, mode="image"), (1,)),
                    (invert_sym(one, mode="image"), ())):
        assert (e.control, e.word) == (identity, want)
    for e in (t, one):
        order, gens = cenelt(ctx, e)
        assert (order, [format_element(g) for g in gens]) == (2, ["(id | 1)"])


def _table_or_error(build):
    """The letter table's entries in order, or the type and message of the
    error that building the rules or their table raised."""
    try:
        return list(table_view(build()).items())
    except (CosetLimitExceeded, ValueError) as exc:
        return type(exc), str(exc)


CLOSED_RELATOR_CASES = (
    [(name, m) for name, index in INDEX.items()
     for m in (1, 2, index - 1, index)]
    + [(f"{n},{word},{k}", 2000) for n, word, k, _ in POWER_CASES]
    + [(f"degree_one_{key}", 10 ** 6) for key in DEGREE_ONE_RELATORS]
    + [("5sq_d6_without_relators", 200), ("collapsing", 10 ** 6),
       ("empty_tail", 10 ** 6)])


def _case_spec(name):
    """The spec of a case named as in CLOSED_RELATOR_CASES."""
    if name in INDEX:
        return load_bundled(name).spec
    if name.startswith("degree_one_"):
        return degree_one_spec(DEGREE_ONE_RELATORS[name[len("degree_one_"):]])
    if name == "5sq_d6_without_relators":
        return spec_without_relators(load_bundled("5sq_d6").spec)
    if name == "collapsing":
        return collapsing_spec()
    if name == "empty_tail":
        return empty_tail_spec()
    n, word, k = name.split(",")
    return power_relator_spec(int(n), word, int(k))


def factoring_relators(spec, pres):
    return pres.relators[len(pres.relators) - len(spec.relators):]


def word_lengths_in(gens, degree):
    """Each element of the group gens generate against the length of its
    shortest word over gens and their inverses, by one Perm product per
    step."""
    steps = list(gens) + [~g for g in gens]
    lengths = {Perm.identity(degree): 0}
    queue = list(lengths)
    for p in queue:
        for g in steps:
            if p * g not in lengths:
                lengths[p * g] = lengths[p] + 1
                queue.append(p * g)
    return lengths


# factoring relator lengths, as written and as built
RELATOR_LENGTHS = {"5sq_d6": ((32, 18), (20, 12)), "l2_19": ((55,), (27,)),
                   "u3_3": ((6, 13), (6, 13))}


@pytest.mark.parametrize("name", list(dict.fromkeys(
    name for name, _ in CLOSED_RELATOR_CASES)))
def test_factoring_relators_use_shortest_control_words(name):
    # read cyclically, a built relator is S_0 t S_1 t ... S_(k-1) t, whose
    # control words multiply out in N to those of the relator as written,
    # S_0 = w_ik pi w_i1^-1 and S_j = w_ij w_i(j+1)^-1 along the orbit
    # witness words w_i, each at the least length a word for its element
    # has; a relator that would not get strictly shorter, or has no t,
    # stays as written
    spec = _case_spec(name)
    gens, n = spec.control_gens, spec.n
    t = len(gens) + 1
    lengths = word_lengths_in(gens, n)
    _, witness = spec.control_group.orbit(1)
    written = factoring_relators(spec, build_presentation_as_written(spec))
    built = factoring_relators(spec, build_presentation(spec))
    if name in RELATOR_LENGTHS:
        assert RELATOR_LENGTHS[name] == (tuple(map(len, written)),
                                         tuple(map(len, built)))
    for (control_word, tail), old, new in zip(spec.relators, written, built):
        if not tail:
            assert new == old
            continue
        w = [witness[i] for i in tail]
        segments = [w[-1] + control_word + invert_word(w[0])] + [
            w[j - 1] + invert_word(w[j]) for j in range(1, len(w))]
        shortest = [lengths[word_perm(gens, seg, n)] for seg in segments]
        if new == old:
            assert len(old) <= sum(shortest) + len(tail)
            continue
        assert len(new) < len(old)
        assert new[-1] == t and new.count(t) == len(tail)
        pieces, piece = [], []  # the control words before each t
        for letter in new:
            if letter == t:
                pieces.append(tuple(piece))
                piece = []
            else:
                piece.append(letter)
        assert [word_perm(gens, p, n) for p in pieces] == [
            word_perm(gens, seg, n) for seg in segments]
        assert list(map(len, pieces)) == shortest


@pytest.mark.parametrize("name,max_cosets", CLOSED_RELATOR_CASES)
def test_relators_as_written_give_the_closed_relators_table(name,
                                                            max_cosets):
    # completion closes the relators under N, rotation and inversion
    # itself: the base of one rule per relator gives the same letter table,
    # entry by entry in order, or the same error, as the base that closed
    # every relator over the elements of N before completing
    spec = _case_spec(name)
    reference = _table_or_error(lambda: RuleSet(
        spec, closed_relator_rules(spec), max_cosets))
    assert _table_or_error(lambda: derive_rules(spec, max_cosets)) == reference
    if name in INDEX and max_cosets == INDEX[name]:
        assert len(reference) == INDEX[name] * spec.n


# sha256 of repr(list(table_view(rules).items())): the letter table as
# the dict keyed by (least word, letter) that it was before its rows were
# indexed by states, entry by entry in order
TABLE_SHA256 = {
    "5sq_d6": "cbe56a500baaeb52e6339a9085e4260e5135ad0f1aa84fb82c694c76b6d3c349",
    "l2_19": "f7d6ce35b7f9d383403c60c15e5451cbfba1c14ed8e1db3540920ed688d6a707",
    "u3_3": "bacd7b0fd7b6dab18dfd6e28ed1beda60da801f4c2951d198fb93bca382a89c2",
    "3,x,5": "63cc3623c9d420cc5100e73b35d3aa9ecc70916092500114cbb5e9c9c59b3b1d",
    "3,y,5": "96c241db45835e458b338b80c65cbc8c955d0ec2fe482f0d0c8d985fa7d0c552",
    "3,x^2*y,4":
        "8b8160a0635fa1ded20af81cb3f3e08ea556fdc586ec4173664d89b7aa0be9a6",
    "4,x*y*x^-1*y,4":
        "b4c1f5889739c38fe1946e2be8ea14bf28e4e456621b9b2038871f4f6114d82b",
    "4,y,4": "f90de9c617384b2aeba8fa5ac9e3a02cb386e20ec164bd7d5439aa83c887fdb8",
    "4,x,5": "de5e2562a174f10e554070739450c5115beacced6fd730023f922191af16050d",
    "4,x,6": "9fea4066836d56ea1508001f5101aff1ce670f3bcd42ea60838f0e9dfe702392",
    "4,x*y*x^-1*y,7":
        "a3253ae50c2f4f836eda0828402135b21aab5ffc8edfe592963d9d30c115d45f",
    "degree_one_t1_is_1":
        "d9748395defe497a1a26f5c4e4e8683ddc99338a6826aab0a14fc045e64358a8",
    "degree_one_free":
        "d0a8127b1777f51e35e535e0fc7ed760cf51cc1b5678484c619ba9441e4b9c2a",
}


# every case that builds a table, with its budget
TABLE_CASES = (
    [(name, 10 ** 6) for name in INDEX]
    + [(f"{n},{word},{k}", 2000) for n, word, k, outcome in POWER_CASES
       if isinstance(outcome, int)]
    + [(f"degree_one_{key}", 10 ** 6) for key in DEGREE_ONE_RELATORS])


@pytest.mark.parametrize("name,max_cosets", TABLE_CASES)
def test_letter_table_automaton(name, max_cosets):
    # the states are the least words in (length, lex) order from (), each
    # with one row on exactly the letters 1..n; any other key misses a row,
    # a negative letter too; read by least word, the rows are the table
    # that the (least word, letter) dict held
    rules = derive_rules(_case_spec(name), max_cosets)
    rows, words = rules.table
    n = rules.n
    assert words[0] == ()
    assert list(words) == sorted(set(words), key=lambda w: (len(w), w))
    assert len(rows) == len(words)
    for row in rows:
        assert list(row) == list(range(1, n + 1))
        assert all(0 <= state < len(words) for _, state in row.values())
        for letter in (0, -1, -n, n + 1, 2.5):
            with pytest.raises(KeyError):
                row[letter]
    view = repr(list(table_view(rules).items())).encode()
    assert hashlib.sha256(view).hexdigest() == TABLE_SHA256[name]


def _raw_pairs(spec, rng, count):
    """Seeded raw pairs: a random control and a word of up to 8 letters,
    each letter after the first repeating the one before a third of the
    time."""
    pairs = []
    for _ in range(count):
        word: list[int] = []
        for _ in range(rng.randrange(9)):
            word.append(word[-1] if word and rng.random() < 1 / 3
                        else rng.randrange(1, spec.n + 1))
        pairs.append((spec.control_group.random_element(rng), tuple(word)))
    return pairs


@pytest.mark.parametrize("name", FIXTURES + [
    "3,x,5", "3,y,5", "3,x^2*y,4", "4,x*y*x^-1*y,4", "4,y,4", "4,x,5",
    "4,x,6", "4,x*y*x^-1*y,7"])
def test_canon_matches_the_per_letter_oracle(all_contexts, name):
    # canon gathers image tuples and builds one Perm per call; the oracle
    # multiplies a Perm per letter, as canon did before; both give the same
    # pair and the same trace, on fixtures and on small progenitors
    # 2^{*n} : S_n / (pi t_1)^k named "n,pi,k"
    if name in all_contexts:
        rules = all_contexts[name].rules
    else:
        n, word, k = name.split(",")
        rules = derive_rules(power_relator_spec(int(n), word, int(k)), 2000)
    rng = random.Random(name)
    moved = 0
    for raw in _raw_pairs(rules.spec, rng, 2000):
        trace, expected_trace = [], []
        pair = (raw[0].images, raw[1])
        result = canon(pair, rules, trace=trace)
        expected = canon_by_perms(raw, rules, trace=expected_trace)
        assert (result, trace) == (expected, expected_trace), raw
        # without a trace the squares are left to the table, which products
        # and inversions rely on
        assert canon(pair, rules) == expected, raw
        moved += not (~raw[0] * result[0]).is_identity()
    # the words reach the entries that move letters, where there are any
    assert (moved > 0) == any(padded is not None
                              for padded, _ in table_view(rules).values())


@pytest.mark.parametrize("name", FIXTURES + [
    f"degree_one_{key}" for key in DEGREE_ONE_RELATORS])
def test_unify_matches_the_two_step_oracle(all_contexts, name):
    # unify pads sigma once and gathers the control product and the moved
    # word from it; the oracle multiplies the controls and then moves the
    # word, padding sigma twice; both give the same raw pair
    if name in all_contexts:
        ctx = all_contexts[name]
    else:
        spec = degree_one_spec(DEGREE_ONE_RELATORS[name[len("degree_one_"):]])
        ctx = SymContext(spec, rules=derive_rules(spec))
    rng = random.Random(name)
    raws = _raw_pairs(ctx.spec, rng, 400)
    for (p, u), (q, v) in zip(raws[::2], raws[1::2]):
        a, b = ctx.element(p, u), ctx.element(q, v)
        perm, word = unify_two_step(a, b)
        assert unify(a, b) == (perm.images, word), (a, b)


@pytest.mark.parametrize("key", list(DEGREE_ONE_RELATORS))
def test_degree_one_pure_products_and_inversions_match_the_oracle(key):
    # at degree 1 the controls' images are one item each, and a gather of
    # one index returns no tuple; mult and invert_sym gather image tuples
    # for canon, and the oracle multiplies Perms and reduces per letter
    spec = degree_one_spec(DEGREE_ONE_RELATORS[key])
    rules = derive_rules(spec)
    ctx = SymContext(spec, rules=rules)
    elements = [ctx.element(p, u)
                for p, u in _raw_pairs(spec, random.Random(key), 200)]
    for a, b in zip(elements[::2], elements[1::2]):
        product = mult(a, b, mode="pure")
        assert ((product.control, product.word)
                == canon_by_perms(unify_two_step(a, b), rules)), (a, b)
        inverse, inv = invert_sym(a, mode="pure"), ~a.control
        assert ((inverse.control, inverse.word) == canon_by_perms(
            (inv, inv.images_of(a.word[::-1])), rules)), a
