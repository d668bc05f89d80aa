import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from symgen import dcenum
from symgen.dcenum import (CollapsedGraph, DoubleCoset, build_image,
                           double_cosets, emit_graph)
from symgen.fpgroup import Presentation, todd_coxeter
from symgen.groupfile import load_bundled
from symgen.perm import Perm, parse_cycles, word_perm
from symgen.symrep import SymContext, SymElement, sym2per
from oracles import (build_presentation_as_written, control_action_by_perms,
                     elements_by_chain, follow_word, node_points,
                     sym2per_by_perms)
from test_progenitor import POWER_CASES, _case_spec

GOLDEN = Path(__file__).parent / "golden"


def label_index(ctx):
    return {label: i + 1 for i, label in enumerate(ctx.spec.labels)}


@pytest.mark.parametrize("name,index,order", [
    ("l2_19", 57, 3420),
    ("u3_3", 36, 12096),
    ("5sq_d6", 50, 300),
])
def test_image_index_and_order(all_contexts, name, index, order):
    img = all_contexts[name].image
    assert img.index == index
    assert img.full_group.order() == order
    # N acts faithfully on the coset points, so per2sym's read-back of
    # the action table is exact
    action = control_action_by_perms(img)
    assert len(set(action.values())) == len(action) == \
        all_contexts[name].spec.control_group.order()


# the fixtures, the power cases whose image closes, and the index-1,015
# member 2^{*4}:S_4 / (x t_1)^7
NUMBERING_CASES = (["l2_19", "5sq_d6", "u3_3"]
                   + [f"{n},{word},{k}" for n, word, k, outcome in POWER_CASES
                      if isinstance(outcome, int)]
                   + ["4,x,7"])


@pytest.mark.parametrize("name", NUMBERING_CASES)
def test_coset_points_are_numbered_by_their_words(monkeypatch, name):
    # the points are numbered in (length, lex) order of their coset words,
    # so the image built from the shortened relators equals, field by
    # field, the one built from the relators as written, though
    # Todd-Coxeter defines their cosets in other orders
    spec = _case_spec(name)
    img = build_image(spec)
    keys = [(len(w), w) for w in img.cst]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    monkeypatch.setattr(dcenum, "build_presentation",
                        build_presentation_as_written)
    assert build_image(spec) == img


def test_image_invariants(all_contexts):
    for ctx in all_contexts.values():
        img = ctx.image
        for t in img.ts:
            assert t.order() == 2
        assert len(set(img.ts)) == ctx.n
        # conjugation by control images permutes the ts like the indices
        for g_img, g_ctrl in zip(img.gens_image, ctx.spec.control_gens):
            for i in range(1, ctx.n + 1):
                assert ~g_img * img.ts[i - 1] * g_img == img.ts[g_ctrl.apply(i) - 1]
        # control image fixes the trivial coset point
        for g in img.gens_image[:len(ctx.spec.control_gens)]:
            assert g.apply(1) == 1


@pytest.mark.parametrize("name,profile", [
    ("l2_19", {0: 1, 1: 6, 2: 30, 3: 20}),
    ("u3_3", {0: 1, 1: 14, 2: 21}),
    ("5sq_d6", {0: 1, 1: 3, 2: 6, 3: 9, 4: 12, 5: 12, 6: 6, 7: 1}),
])
def test_cst_length_profile(all_contexts, name, profile):
    img = all_contexts[name].image
    assert dict(Counter(len(w) for w in img.cst)) == profile


def test_cst_words_reach_their_cosets(all_contexts):
    for ctx in all_contexts.values():
        img = ctx.image
        for point in range(1, img.index + 1):
            assert follow_word(img, img.cst[point - 1]) == point
        # the coset reached by the first generator alone is named by it
        assert img.cst[img.ts[0].apply(1) - 1] == (1,)


def test_l2_19_graph_values(l2_19):
    graph = double_cosets(l2_19.image)
    assert [n.size for n in graph.nodes] == [1, 6, 30, 20]
    assert [n.stabilizer.order() for n in graph.nodes] == [60, 10, 2, 3]
    ix = label_index(l2_19)
    assert [tuple(l2_19.spec.labels[i - 1] for i in n.rep) for n in graph.nodes] == \
        [(), ("∞",), ("∞", "0"), ("∞", "0", "1")]
    # loops at the 30-node: orbit sizes 1 and 2, summing to 3
    loops = [size for rep, size, target in graph.nodes[2].edges if target == 2]
    assert sorted(loops) == [1, 2]


def test_u3_graph_values(u3_3):
    graph = double_cosets(u3_3.image)
    assert [n.size for n in graph.nodes] == [1, 14, 21]
    assert [n.stabilizer.order() for n in graph.nodes] == [336, 24, 16]
    # orbits of the coset stabilizer of the 21-node on the generators
    labels = u3_3.spec.labels
    orbits = [frozenset(labels[i - 1] for i in orb)
              for orb in graph.nodes[2].stabilizer.orbits()]
    assert frozenset({"b3", "1"}) in orbits
    assert frozenset({"b0", "b1", "5", "6"}) in orbits
    assert frozenset({"b2", "b4", "b5", "b6", "2", "3", "4", "0"}) in orbits


def test_5sq_graph_values(d6_5sq):
    graph = double_cosets(d6_5sq.image)
    assert len(graph.nodes) == 14
    assert sum(n.size for n in graph.nodes) == 50
    img = d6_5sq.image
    ix = label_index(d6_5sq)

    def node_size_of(word_labels):
        word = tuple(ix[l] for l in word_labels)
        point = follow_word(img, word)
        for node in graph.nodes:
            if point in node_points(img, node):
                return node.size
        raise AssertionError("point not in any node")

    # narrative counts by coset name
    assert node_size_of("0") == 3
    assert node_size_of("01") == 6
    assert node_size_of("010") == 3
    assert node_size_of("0102") == 3
    assert node_size_of("01202") == 6
    assert node_size_of("012") == 6
    assert node_size_of("0120") == 6
    assert node_size_of("0121") == 3
    assert node_size_of("01210") == 3
    assert node_size_of("01201") == 3
    assert node_size_of("012010") == 3
    assert node_size_of("012021") == 3
    assert node_size_of("0120210") == 1
    # erratum guard: [0] holds exactly the three cosets named by the three
    # generators; a miscount of six must not be reproduced
    assert node_size_of("0") != 6


def test_double_coset_counting_identities(all_contexts):
    for ctx in all_contexts.values():
        img = ctx.image
        graph = double_cosets(img)
        n_order = ctx.spec.control_group.order()
        assert sum(n.size for n in graph.nodes) == img.index
        for node in graph.nodes:
            assert node.size * node.stabilizer.order() == n_order
            assert sum(size for _, size, _ in node.edges) == ctx.n


def test_pointwise_stabilizer_inside_coset_stabilizer(all_contexts):
    for ctx in all_contexts.values():
        graph = double_cosets(ctx.image)
        N = ctx.spec.control_group
        for node in graph.nodes:
            letters = set(node.rep)
            pointwise = [e for e in elements_by_chain(N)
                         if all(e.apply(i) == i for i in letters)]
            for e in pointwise:
                assert e in node.stabilizer


def test_coset_stabilizers_match_their_definition(all_contexts):
    # w is the least canonical word of its node, N^(w) = {nu in N :
    # N w^nu = N w}, and the node's size counts the cosets N w^nu, filtered
    # straight from the elements of N
    for ctx in all_contexts.values():
        img = ctx.image
        N = ctx.spec.control_group
        for node in double_cosets(img).nodes:
            moved = {nu: follow_word(img, tuple(nu.apply(i) for i in node.rep))
                     for nu in elements_by_chain(N)}
            point = follow_word(img, node.rep)
            points = set(moved.values())
            assert node.rep == min((img.cst[p - 1] for p in points),
                                   key=lambda w: (len(w), w))
            assert {nu for nu in elements_by_chain(N) if nu in node.stabilizer} == \
                {nu for nu, p in moved.items() if p == point}
            assert node.size == len(points)


def test_edge_double_counting(all_contexts):
    for ctx in all_contexts.values():
        graph = double_cosets(ctx.image)
        # number of Cayley edges from node A into node B equals the number
        # from B into A (each is |A| * multiplicity(A->B))
        flow = {}
        for a, node in enumerate(graph.nodes):
            for _, size, b in node.edges:
                flow[(a, b)] = flow.get((a, b), 0) + size * node.size
        for (a, b), value in flow.items():
            assert flow[(b, a)] == value


def assert_relators_hold(ctx):
    # each factoring relator pi * t_tail realizes as the identity, and
    # without its last letter i as t_i, which is not the identity
    spec = ctx.spec
    for control_word, tail in spec.relators:
        pi = word_perm(spec.control_gens, control_word, spec.n)
        assert sym2per(ctx, ctx.element(pi, tail)).is_identity()
        assert sym2per(ctx, ctx.element(pi, tail[:-1])) == ctx.image.ts[tail[-1] - 1]


@pytest.mark.parametrize("name", ["l2_19", "5sq_d6", "u3_3"])
def test_factoring_relators_hold_in_the_image(all_contexts, name):
    assert_relators_hold(all_contexts[name])


def test_l2_19_relator_witness(l2_19):
    # the tail product acts by conjugation on the six generators exactly as
    # the displayed 3+3 cycle permutation
    img = l2_19.image
    ix = label_index(l2_19)
    word = [ix[l] for l in ("4", "2", "3", "4", "2")]
    g = Perm.identity(img.index)
    for i in word:
        g = g * img.ts[i - 1]
    action = img.read_pair(g.images)[0]
    from symgen.symrep import parse_label_cycles
    assert action == parse_label_cycles("(∞,0,1)(2,4,3)", l2_19.spec.labels)


def test_u3_second_relator_identity(u3_3):
    # the square of the first two-generator word equals the control element
    # that the factoring relator names
    img = u3_3.image
    ix = label_index(u3_3)
    y_ctrl = u3_3.spec.control_gens[1]
    lhs = Perm.identity(img.index)
    for i in (ix["b0"], ix["1"], ix["b0"], ix["1"]):
        lhs = lhs * img.ts[i - 1]
    assert lhs == Perm(img.realized(y_ctrl, ()))


def test_emit_graph_single_node():
    from symgen.progenitor import ProgenitorSpec
    from symgen.fpgroup import Presentation
    pres = Presentation.parse(["x"], "x^2")
    spec = ProgenitorSpec(2, (parse_cycles("(1,2)", 2),), pres, ())
    node = DoubleCoset(rep=(), stabilizer=spec.control_group, size=1,
                       edges=[(1, 2, 0)])
    graph = CollapsedGraph(spec, 1, 2, [node])
    dot = emit_graph(graph, "dot")
    assert dot.count("--") == 1
    assert '[label="[*] / 1"]' in dot
    assert 'n0 -- n0 [label="2"]' in dot


def test_emit_graph_l2_19_topology(l2_19):
    dot = emit_graph(double_cosets(l2_19.image), "dot")
    lines = [ln for ln in dot.splitlines() if "--" in ln]
    loops = [ln for ln in lines if ln.split("--")[0].strip() == ln.split("--")[1].split("[")[0].strip()]
    assert len(lines) == 5
    assert len(loops) == 2
    assert '"1+2"' in dot


def test_emit_graph_deterministic(l2_19):
    g1 = emit_graph(double_cosets(l2_19.image), "dot")
    img2 = build_image(l2_19.spec)
    g2 = emit_graph(double_cosets(img2), "dot")
    assert g1 == g2
    j1 = emit_graph(double_cosets(l2_19.image), "json")
    j2 = emit_graph(double_cosets(img2), "json")
    assert j1 == j2


def test_emit_graph_unknown_format(l2_19):
    with pytest.raises(ValueError):
        emit_graph(double_cosets(l2_19.image), "svg")


def test_emit_graph_json_schema(u3_3):
    import json
    payload = json.loads(emit_graph(double_cosets(u3_3.image), "json"))
    assert payload["index"] == 36
    assert payload["control_order"] == 336
    for node in payload["nodes"]:
        assert set(node) == {"rep", "size", "stabilizer_order", "edges"}
        for edge in node["edges"]:
            assert set(edge) == {"orbit_rep", "orbit_size", "target"}
            assert 0 <= edge["target"] < len(payload["nodes"])


@pytest.mark.parametrize("name", ["l2_19", "5sq_d6", "u3_3"])
@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_golden_graphs(all_contexts, name, fmt):
    text = emit_graph(double_cosets(all_contexts[name].image), fmt)
    golden = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert text == golden


# control presentations of proper covers of N: 2.A5 of order 120, the
# infinite (2,3,10) triangle group, and u3_3's without its last relator
COVERS = [("l2_19", "x^5*y^-2, (x*y)^3*y^-2, y^4"),
          ("l2_19", "x^10, y^2, (x*y)^3"),
          ("u3_3", None)]


@pytest.mark.parametrize("name,relators", COVERS)
def test_a_cover_that_passes_the_checks_gives_the_fixture_image(
        all_contexts, name, relators):
    # build_image's pass checks that t commutes with every Schreier word
    # of point 1, which generate the preimage of N_1 in the cover, kernel
    # and all; so the cover gives the fixture's image and group
    fixture = all_contexts[name].image
    pres = fixture.spec.control_presentation
    cover = (Presentation(pres.names, pres.relators[:-1]) if relators is None
             else Presentation.parse(pres.names, relators))
    if name == "l2_19" and relators.startswith("x^5"):
        assert todd_coxeter(cover).index == 120
    img = build_image(dataclasses.replace(fixture.spec,
                                          control_presentation=cover))
    assert (img.index, img.gens_image, img.ts, img.cst) == (
        fixture.index, fixture.gens_image, fixture.ts, fixture.cst)
    assert img.full_group.order() == {"l2_19": 3420, "u3_3": 12096}[name]
    assert_relators_hold(SymContext(img.spec, image=img))


def test_degenerate_image_rejected():
    # factoring by t itself collapses the symmetric generators into the
    # control group; the builder must refuse the degenerate image
    from symgen.progenitor import ProgenitorSpec
    from symgen.fpgroup import Presentation
    pres = Presentation.parse(["x"], "x^2")
    spec = ProgenitorSpec(2, (parse_cycles("(1,2)", 2),), pres,
                          (((), (1,)),))
    with pytest.raises(ValueError, match="^image of generator 1 does not "
                                         "have order 2$"):
        build_image(spec)
    # t_1 t_2 = 1 in 2^{*3} : S_3 makes t_1 = t_2 = t_3, one involution
    # that N centralizes: the order-2 and conjugation checks pass, and the
    # builder must refuse the image for its repeated generators
    pres = Presentation.parse(["x", "y"], "x^3, y^2, (x*y)^2")
    gens = (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3))
    spec = ProgenitorSpec(3, gens, pres, (((1, 1, 1), (1, 2)),))
    with pytest.raises(ValueError, match="^images of the symmetric "
                                         "generators are not distinct$"):
        build_image(spec)



def test_a_spec_with_no_control_generators_builds():
    # 2^{*1} : 1 is C_2: the Schreier pass that realizes the ts has no
    # generator, so its transversal is the identity on the coset points
    from symgen.progenitor import ProgenitorSpec
    from symgen.fpgroup import Presentation
    img = build_image(ProgenitorSpec(1, (), Presentation((), ()), ()))
    assert img.index == 2
    assert img.ts == (Perm((2, 1)),)
    assert img.cst == ((), (1,))
    graph = double_cosets(img)
    assert [(node.rep, node.size, node.edges) for node in graph.nodes] == [
        ((), 1, [(1, 1, 1)]), ((1,), 1, [(1, 1, 0)])]
    assert 'n0 -- n1 [taillabel="1", headlabel="1"];' in emit_graph(graph)
    assert '"control_order": 1' in emit_graph(graph, "json")

def test_realized_rejects_non_members(u3_3):
    from symgen.perm import IdentificationError
    outside = Perm((2, 1) + tuple(range(3, u3_3.n + 1)))
    assert outside not in u3_3.spec.control_group
    with pytest.raises(IdentificationError):
        u3_3.image.realized(outside, ())
    with pytest.raises(ValueError, match="control degree"):
        u3_3.image.realized(Perm.identity(u3_3.n + 1), ())


@pytest.mark.parametrize("name", ["l2_19", "5sq_d6", "u3_3"])
def test_control_action_table_matches_coset_words(all_contexts, name):
    # the table closed from the generators' images agrees with moving every
    # coset word by nu, N w -> N w^nu, and read_pair inverts it
    img = all_contexts[name].image
    N = all_contexts[name].spec.control_group
    realizations = set()
    for nu in elements_by_chain(N):
        g = img.realized(nu, ())
        assert g == tuple(
            follow_word(img, tuple(nu.apply(i) for i in img.cst[c - 1]))
            for c in range(1, img.index + 1))
        assert img.read_pair(g) == (nu, ())
        realizations.add(g)
    assert len(realizations) == N.order()


@pytest.mark.parametrize("name", ["l2_19", "5sq_d6", "u3_3"])
def test_chain_table_matches_the_perm_oracle(all_contexts, name):
    # one entry per coset word: the images of its t-chain, as one Perm
    # product per letter gives them, and those of the chain's inverse
    # padded behind a 0
    ctx = all_contexts[name]
    img = ctx.image
    identity = Perm.identity(img.index)
    assert len(img._chains) == img.index
    for word in img.cst:
        images, inverse = img._chains[word]
        chain = sym2per_by_perms(ctx, SymElement(ctx, Perm.identity(ctx.n), word))
        assert images == chain.images
        assert inverse[0] == 0
        assert Perm(inverse[1:]) * chain == identity


@pytest.mark.parametrize("name", ["l2_19", "5sq_d6", "u3_3"])
def test_enumerate_and_graph_build_no_engine_table(name):
    # the image engine's tables are built on first use, and building the
    # image and its collapsed graph never uses them
    ctx = load_bundled(name).build_context(with_rules=False)
    img = ctx.image
    graph = double_cosets(img)
    emit_graph(graph, "dot")
    emit_graph(graph, "json")
    assert "_chains" not in img.__dict__
    assert "_action" not in img.__dict__


@pytest.mark.parametrize("name", ["l2_19", "5sq_d6", "u3_3"])
def test_per2sym_rejects_permutations_outside_the_group(all_contexts, name):
    # swapping two cosets of word length 2 fixes point 1 and every N*t_i,
    # so only the action on the other cosets shows it is not in the group
    from symgen.perm import IdentificationError
    from symgen.symrep import per2sym
    ctx = all_contexts[name]
    img = ctx.image
    a, b = [c for c in range(1, img.index + 1) if len(img.cst[c - 1]) == 2][:2]
    swap = parse_cycles(f"({a},{b})", img.index)
    assert swap not in img.full_group
    with pytest.raises(IdentificationError):
        per2sym(ctx, swap)
