import copy
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from symgen import dcenum, perm
from symgen.cli import build_parser, main
from symgen.dcenum import double_cosets, word_label
from symgen.groupfile import load_bundled

GOLDEN = Path(__file__).parent / "golden"
FIXTURE_DIR = Path(__file__).parents[1] / "src/symgen/fixtures"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_l2_19(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "l2_19")
    assert code == 0
    assert "index: 57" in out
    assert "order: 3420" in out
    for fragment in ("size 1 ", "size 6 ", "size 30 ", "size 20 "):
        assert fragment in out
    assert "stabilizer 60" in out and "stabilizer 10" in out
    assert "stabilizer 2" in out and "stabilizer 3" in out


def test_enumerate_u3_3(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "u3_3")
    assert code == 0
    assert "index: 36" in out
    assert "order: 12096" in out
    assert "size 14" in out and "size 21" in out


def test_enumerate_5sq(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "5sq_d6")
    assert code == 0
    assert "index: 50" in out
    assert "order: 300" in out
    assert "double cosets: 14" in out


def test_enumerate_spec_file_path(tmp_path, capsys):
    src = json.loads(
        (Path(__file__).parents[1] / "src/symgen/fixtures/5sq_d6.json")
        .read_text(encoding="utf-8"))
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, _ = run_cli(capsys, "enumerate", str(path))
    assert code == 0 and "index: 50" in out


def test_spec_file_with_t_words_and_t_name_still_loads(tmp_path, capsys):
    # spec files once named the symbol for t_1 and gave a word realizing
    # each t_i; both keys are now ignored like any other unknown key, and
    # u3_3 as it was written with them gives the bundled fixture's graph
    src = json.loads((FIXTURE_DIR / "u3_3.json").read_text(encoding="utf-8"))
    src["t_name"] = "s"
    src["t_words"] = [
        "s", "s^x", "s^(x^2)", "s^(x^3)", "s^(x^4)", "s^(x^5)", "s^(x^6)",
        "s^t", "(s^t)^(x^6)", "(s^t)^(x^5)", "(s^t)^(x^4)", "(s^t)^(x^3)",
        "(s^t)^(x^2)", "(s^t)^x"]
    path = tmp_path / "u3_3_with_t_words.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 0 and err == "" and "index: 36" in out
    for fmt in ("dot", "json"):
        assert (run_cli(capsys, "graph", str(path), "--format", fmt)
                == run_cli(capsys, "graph", "u3_3", "--format", fmt))


def test_enumerate_expectation_mismatch(tmp_path, capsys):
    src = json.loads(
        (Path(__file__).parents[1] / "src/symgen/fixtures/5sq_d6.json")
        .read_text(encoding="utf-8"))
    src["expected"]["index"] = 51
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, _ = run_cli(capsys, "enumerate", str(path))
    assert code == 3
    assert "MISMATCH" in out


@pytest.mark.parametrize("field,value,line", [
    ("group_order", 1, "MISMATCH: order 12096 != expected 1"),
    ("node_sizes", [1, 2],
     "MISMATCH: node sizes (1, 14, 21) != expected (1, 2)"),
])
def test_enumerate_order_and_node_size_mismatch(tmp_path, capsys, field, value,
                                                line):
    # a wrong expectation prints one MISMATCH line naming both values
    src = json.loads((FIXTURE_DIR / "u3_3.json").read_text(encoding="utf-8"))
    src["expected"][field] = value
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 3 and err == ""
    assert [ln for ln in out.splitlines() if ln.startswith("MISMATCH")] == [line]


# N = <(1,2)> presented by x^4 is a cover of C2: x^2 fixes both generator
# indices, but no relator makes it commute with t_1, and in this image it
# does not, so x conjugates t_2 to t_1^(x^2), not to t_1, and the control
# presentation is named as the fault
COVER_SPEC = {
    "name": "cover", "n": 2, "labels": ["1", "2"],
    "control_generator_names": ["x"], "control_generators": ["(1,2)"],
    "control_presentation": "x^4",
    "relators": [{"control_word": "x^3", "tail": ["1", "2", "1"]}],
}


# t_1 t_2 = 1 identifies the three symmetric generators of 2^{*3} : S_3
IDENTIFIED_SPEC = {
    "name": "identified", "n": 3, "labels": ["1", "2", "3"],
    "control_generator_names": ["x", "y"],
    "control_generators": ["(1,2,3)", "(1,2)"],
    "control_presentation": "x^3, y^2, (x*y)^2",
    "relators": [{"control_word": "x^3", "tail": ["1", "2"]}],
}


@pytest.mark.parametrize("mutate,message", [
    (lambda src: COVER_SPEC,
     "error: control presentation x*x*x*x does not present the control "
     "group of order 2"),
    (lambda src: IDENTIFIED_SPEC,
     "error: images of the symmetric generators are not distinct"),
    (lambda src: {**src, "control_generators": src["control_generators"][:-1]},
     "inconsistent.json: control generators and presentation names differ "
     "in number"),
    (lambda src: {**src, "labels": src["labels"][:-1]},
     "expected 14 labels, got 13"),
    (lambda src: [src], "top level must be an object"),
])
def test_inconsistent_spec_file_exit_code(tmp_path, capsys, mutate, message):
    # well-typed fields that disagree with each other or with the image
    src = json.loads((FIXTURE_DIR / "u3_3.json").read_text(encoding="utf-8"))
    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps(mutate(src)), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith(message)


@pytest.mark.parametrize("field,value", [
    ("relators", [1]),
    ("relators", [{"control_word": "x", "tail": "01"}]),
    ("labels", [1, 2, 3]),
    ("control_generators", 5),
    ("control_presentation", ["x^3"]),
    ("expected", "abc"),
    ("expected", {"node_sizes": [1, "3"]}),
    ("n", True),
    ("name", 7),
    ("display", ["b0"]),
])
def test_malformed_spec_field_exit_code(tmp_path, capsys, field, value):
    src = json.loads(
        (Path(__file__).parents[1] / "src/symgen/fixtures/5sq_d6.json")
        .read_text(encoding="utf-8"))
    src[field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert repr(field) in lines[0]


@pytest.mark.parametrize("field", ["control_presentation", "relators"])
def test_deeply_nested_word_text_exit_code(tmp_path, monkeypatch, capsys,
                                          field):
    # word text nested past the parser's depth is a parse error, not a
    # RecursionError traceback, and its one line quotes an excerpt of the
    # 6,001 characters around the position, not the whole text
    src = json.loads((FIXTURE_DIR / "5sq_d6.json").read_text(encoding="utf-8"))
    nested = "(" * 3000 + "x" + ")" * 3000
    if field == "relators":
        src["relators"][0]["control_word"] = nested
    else:
        src["control_presentation"] = nested + ", y^2"
    monkeypatch.chdir(tmp_path)
    Path("nested.json").write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", "nested.json")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert lines[0].startswith("error: nested.json: parentheses nested deeper "
                               "than 100 at position 100 in ...'(((")


@pytest.mark.parametrize("field,value", [
    ("control_generator_names", ["x", ""]),
    ("control_generator_names", ["", "y"]),
])
def test_empty_generator_name_exit_code(tmp_path, capsys, field, value):
    # an empty name would match with zero width anywhere in word text
    src = json.loads((FIXTURE_DIR / "5sq_d6.json").read_text(encoding="utf-8"))
    src[field] = value
    path = tmp_path / "empty_name.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"field {field!r} holds the empty generator name ''" in lines[0]


def test_unknown_tail_label_exit_code(tmp_path, capsys):
    # the message names the label, not Python's "x not in tuple"
    src = json.loads((FIXTURE_DIR / "5sq_d6.json").read_text(encoding="utf-8"))
    src["relators"][0]["tail"][0] = "9"
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "unknown tail label '9'" in lines[0]



@pytest.mark.parametrize("args", [("enumerate",), ("elt", "invert", "(id | a)")])
def test_identity_t_exit_code(tmp_path, capsys, args):
    # the relator t_1 = 1 over a one-point control group: the image has no
    # involution to realize t, which every command that builds it reports
    spec = {"name": "trivial_t", "n": 1, "labels": ["a"],
            "control_generator_names": ["x"], "control_generators": ["()"],
            "control_presentation": "x",
            "relators": [{"control_word": "", "tail": ["a"]}]}
    path = tmp_path / "trivial_t.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(capsys, args[0], str(path), *args[1:])
    assert (code, out) == (2, "")
    assert err == "error: image of generator 1 does not have order 2\n"


def test_label_with_inner_whitespace_exit_code(tmp_path, capsys):
    # cycle text ignores whitespace, so "x y" would be read as the label "xy"
    src = json.loads((FIXTURE_DIR / "l2_19.json").read_text(encoding="utf-8"))
    rename = {"∞": "x y", "2": "xy"}
    src["labels"] = [rename.get(label, label) for label in src["labels"]]
    src["control_generators"] = ["(0,1,xy,3,4)", "(0,x y)(1,4)"]
    for item in src["relators"]:
        item["tail"] = [rename.get(label, label) for label in item["tail"]]
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "label 'x y'" in lines[0]


def test_label_dash_exit_code(tmp_path, capsys):
    # "(id | -)" is the identity, so a label "-" would make it ambiguous
    src = json.loads((FIXTURE_DIR / "5sq_d6.json").read_text(encoding="utf-8"))
    src["labels"][0] = "-"
    src["control_generators"] = ["(-,1,2)", "(-,1)"]
    for item in src["relators"]:
        item["tail"] = ["-" if label == "0" else label for label in item["tail"]]
    path = tmp_path / "dash.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "elt", str(path), "invert", "(id | -)")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "label '-'" in lines[0]


def test_label_star_exit_code(tmp_path, capsys):
    # enumerate and graph write the empty word as "*", so a label "*" would
    # print the identity's node and t_*'s node alike
    src = json.loads((FIXTURE_DIR / "5sq_d6.json").read_text(encoding="utf-8"))
    src["labels"][0] = "*"
    src["control_generators"] = ["(*,1,2)", "(*,1)"]
    for item in src["relators"]:
        item["tail"] = ["*" if label == "0" else label for label in item["tail"]]
    path = tmp_path / "star.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "label '*'" in lines[0]


def test_graph_escapes_quotes_and_backslashes_in_labels(tmp_path, capsys):
    # a bare " would end a DOT string early, and Graphviz would read the
    # label c\n as a c and a line break
    src = json.loads((FIXTURE_DIR / "5sq_d6.json").read_text(encoding="utf-8"))
    rename = {"0": 'a"', "1": "b", "2": "c\\n"}
    src["labels"] = [rename[label] for label in src["labels"]]
    src["control_generators"] = ['(a",b,c\\n)', '(a",b)']
    for item in src["relators"]:
        item["tail"] = [rename[label] for label in item["tail"]]
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    nodes = [line for line in out.splitlines() if "[label=" in line
             and " -- " not in line]
    assert len(nodes) == 14
    assert all(re.fullmatch(r'  n\d+ \[label="(?:[^"\\]|\\.)*"\];', line)
               for line in nodes)
    assert nodes[1] == '  n1 [label="[a\\"] / 3"];'
    assert nodes[4] == '  n4 [label="[a\\".b.c\\\\n] / 6"];'


FIXTURE_DATA = {name: json.loads((FIXTURE_DIR / f"{name}.json")
                                 .read_text(encoding="utf-8"))
                for name in ("l2_19", "5sq_d6", "u3_3")}

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 60), st.text(max_size=6),
    st.lists(st.one_of(st.integers(-2, 60), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 60), max_size=2))


@st.composite
def mutated_spec(draw):
    """A bundled fixture with one field, label, tail entry or cycle string
    replaced by junk or by a near-valid value."""
    kind = draw(st.sampled_from(["field", "label", "tail", "cycle"]))
    data = copy.deepcopy(FIXTURE_DATA[draw(st.sampled_from(sorted(FIXTURE_DATA)))])
    labels = data["labels"]

    def pick(items):
        return draw(st.integers(0, len(items) - 1))

    if kind == "field":
        data[draw(st.sampled_from(sorted(data)))] = draw(JUNK)
    elif kind == "label":
        labels[pick(labels)] = draw(st.text(max_size=3))
    elif kind == "tail":
        tail = data["relators"][pick(data["relators"])]["tail"]
        tail[pick(tail)] = draw(st.one_of(st.sampled_from(labels),
                                          st.text(max_size=3)))
    else:
        cycle = draw(st.lists(st.sampled_from(labels), unique=True, max_size=4))
        gens = data["control_generators"]
        gens[pick(gens)] = draw(st.one_of(
            st.text(max_size=8), st.just("(" + ",".join(cycle) + ")")))
    return data


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_spec())
def test_mutated_spec_file_exits_cleanly(tmp_path, capsys, monkeypatch, data):
    # a spec file broken in one place ends with a documented exit code, and
    # every error exit prints exactly one error line and no traceback
    monkeypatch.setenv("SYMGEN_MAX_COSETS", "2000")
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "enumerate", str(path))
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err
    if code in (2, 4, 5):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_unsatisfied_control_relator_exit_code(tmp_path, capsys):
    # (0,1,2)*(0,1) has order 2, so (x*y)^3 fails; this once ran coset
    # enumeration to its limit and exited 4
    src = json.loads(
        (Path(__file__).parents[1] / "src/symgen/fixtures/5sq_d6.json")
        .read_text(encoding="utf-8"))
    src["control_presentation"] = "x^3, y^2, (x*y)^3"
    path = tmp_path / "unsatisfied.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "control relator x*y*x*y*x*y" in lines[0]


def test_control_presentation_of_a_cover_exit_code(tmp_path, capsys,
                                                   monkeypatch):
    # x^3, y^2 presents the infinite group C3 * C2, not D6; the progenitor's
    # enumeration runs to the limit, which must not read as exit 4
    monkeypatch.setenv("SYMGEN_MAX_COSETS", "3000")
    src = json.loads(
        (Path(__file__).parents[1] / "src/symgen/fixtures/5sq_d6.json")
        .read_text(encoding="utf-8"))
    src["control_presentation"] = "x^3, y^2"
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "control presentation x*x*x, y*y" in lines[0]


def test_small_limit_on_valid_spec_exit_code(capsys, monkeypatch):
    # the presentation check on failure has its own budget, so a limit
    # below the index of a valid spec is still a resource limit
    monkeypatch.setenv("SYMGEN_MAX_COSETS", "40")
    code, out, err = run_cli(capsys, "enumerate", "u3_3")
    assert code == 4
    assert out == ""
    assert "exceeded the limit of 40 cosets" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2
    assert "error" in err


def test_unknown_fixture(capsys):
    code, out, err = run_cli(capsys, "enumerate", "no_such_fixture")
    assert code == 2
    assert out == ""
    assert err == "error: no such spec file or bundled fixture: no_such_fixture\n"


def test_empty_control_word_is_the_identity(tmp_path, capsys):
    # 5sq_d6 spells its second relator's identity control word as y^6;
    # blank text gives the same index, order and graph bytes
    src = json.loads((FIXTURE_DIR / "5sq_d6.json").read_text(encoding="utf-8"))
    assert src["relators"][1]["control_word"] == "y^6"
    src["relators"][1]["control_word"] = ""
    path = tmp_path / "empty_word.json"
    path.write_text(json.dumps(src), encoding="utf-8")
    code, out, _ = run_cli(capsys, "enumerate", str(path))
    assert code == 0
    assert "index: 50\n" in out and "order: 300\n" in out
    for fmt in ("dot", "json"):
        code, out, _ = run_cli(capsys, "graph", str(path), "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"5sq_d6.{fmt}").read_text(encoding="utf-8")


def test_limit_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMGEN_MAX_COSETS", "10")
    code, _, err = run_cli(capsys, "enumerate", "l2_19")
    assert code == 4
    assert "limit" in err or "exceeded" in err


def test_group_too_large_exit_code(capsys, monkeypatch):
    # a group beyond the element bound is a resource limit, like a coset
    # limit: exit 4 with one line, where |G| = 300 exceeds a bound of 100
    monkeypatch.setattr(perm, "MAX_ELEMENTS", 100)
    code, out, err = run_cli(capsys, "elt", "5sq_d6", "centralize", "(id | 0)")
    assert code == 4
    assert out == ""
    assert err == "error: group order 300 exceeds bound 100\n"


@pytest.mark.parametrize("bound", [335, 336])
def test_control_action_bound_exit_code(capsys, monkeypatch, bound):
    # the image engine's table of N's action holds |N| = 336 entries on
    # u3_3: a bound of one fewer refuses it before any is built, exit 4
    # with one line, while the pure engine and enumerate never build it
    monkeypatch.setattr(dcenum, "MAX_ELEMENTS", bound)
    code, out, err = run_cli(capsys, "elt", "u3_3", "convert", "(id | b0)")
    if bound == 335:
        assert (code, out) == (4, "")
        assert err == "error: control group order 336 exceeds bound 335\n"
    else:
        assert (code, err) == (0, "")
    assert run_cli(capsys, "elt", "u3_3", "invert", "(id | b0)")[:1] == (0,)
    assert run_cli(capsys, "enumerate", "u3_3")[:1] == (0,)


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
def test_max_cosets_must_be_a_positive_integer(capsys, monkeypatch, value):
    # a limit that is not a positive integer is bad input, not a resource limit
    monkeypatch.setenv("SYMGEN_MAX_COSETS", value)
    code, out, err = run_cli(capsys, "enumerate", "5sq_d6")
    assert code == 2
    assert out == ""
    assert err == ("error: SYMGEN_MAX_COSETS must be a positive integer, "
                   f"got {value!r}\n")


def test_graph_golden_bytes(tmp_path, capsys):
    for fmt in ("dot", "json"):
        out_file = tmp_path / f"g.{fmt}"
        code, _, _ = run_cli(capsys, "graph", "l2_19",
                             "--format", fmt, "--out", str(out_file))
        assert code == 0
        assert out_file.read_text(encoding="utf-8") == \
            (GOLDEN / f"l2_19.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["5sq_d6", "l2_19", "u3_3"])
def test_enumerate_and_graph_multiply_no_perm_objects(monkeypatch, capsys, name):
    # enumerate and graph compute on image tuples: with Perm's product and
    # inverse refusing, both still print the golden output, and enumerate's
    # orbit-stabilizer orders are the orders of the stabilizers' chains
    ctx = load_bundled(name).build_context(with_rules=False)
    expected = [f"  [{word_label(ctx.spec, node.rep)}]  size {node.size}  "
                f"stabilizer {node.stabilizer.order()}"
                for node in double_cosets(ctx.image).nodes]

    def refuse(*args):
        raise AssertionError("a Perm was multiplied or inverted")

    monkeypatch.setattr(perm.Perm, "__mul__", refuse)
    monkeypatch.setattr(perm.Perm, "__invert__", refuse)
    code, out, err = run_cli(capsys, "enumerate", name)
    assert code == 0 and err == ""
    assert out.splitlines()[4:] == expected
    code, out, err = run_cli(capsys, "graph", name, "--format", "json")
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_graph_out_in_missing_directory(tmp_path, capsys):
    path = tmp_path / "missing" / "g.dot"
    code, out, err = run_cli(capsys, "graph", "5sq_d6", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err and not path.exists()


def test_graph_stdout(capsys):
    code, out, _ = run_cli(capsys, "graph", "5sq_d6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 50


def test_elt_convert_both_directions(capsys):
    code, out, _ = run_cli(capsys, "elt", "u3_3", "convert", "(id | b0.0.b0)")
    assert code == 0
    lines = out.strip().splitlines()
    # first line: the coset permutation; second: the canonical pair, which
    # absorbs the word into the paired control element
    assert lines[1] == "((b0,0)(b1,1)(b2,2)(b3,3)(b4,4)(b5,5)(b6,6) | -)"
    # converting the emitted permutation back gives the same canonical pair
    code, out, _ = run_cli(capsys, "elt", "u3_3", "convert", lines[0])
    assert code == 0
    assert out.strip() == lines[1]


def test_elt_convert_applied_twice_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "elt", "l2_19", "convert", "(id | ∞.0)")
    assert code == 0
    perm_line = out.strip().splitlines()[0]
    code, out, _ = run_cli(capsys, "elt", "l2_19", "convert", perm_line)
    assert code == 0
    assert out.strip() == "(id | ∞.0)"



def test_elt_convert_joins_no_label_across_whitespace(capsys):
    # whitespace around labels, commas and parentheses is skipped, but not
    # inside a label: "(1 2)" names the unknown label "1 2", where reading
    # it as the one-point cycle (12) printed (id | -) with exit 0
    code, out, err = run_cli(capsys, "elt", "u3_3", "convert", "(1 2)")
    assert (code, out, err) == (
        2, "", "error: unknown label '1 2' in '(1 2)'\n")
    code, out, _ = run_cli(capsys, "elt", "u3_3", "convert", "(id | b0)")
    perm_line = out.splitlines()[0]
    spaced = " " + "".join(f" {ch} " if ch in "()," else ch
                           for ch in perm_line) + " "
    code, out, _ = run_cli(capsys, "elt", "u3_3", "convert", spaced)
    assert code == 0
    assert out.strip() == "(id | b0)"

def test_elt_invert_involution(capsys):
    code, out, _ = run_cli(capsys, "elt", "u3_3", "invert", "(id | b0)")
    assert code == 0
    assert out.strip() == "(id | b0)"


@pytest.mark.parametrize("limit,code", [(178, 4), (179, 0)])
def test_elt_letter_table_budget(capsys, monkeypatch, limit, code):
    # the letter table's enumeration defines 179 cosets of N in u3_3, more
    # than the image route's 134: one fewer is a resource limit, named by
    # its stage on one line
    monkeypatch.setenv("SYMGEN_MAX_COSETS", str(limit))
    got, out, err = run_cli(capsys, "elt", "u3_3", "invert", "(id | b0.1)")
    assert got == code
    if code:
        assert out == ""
        assert err == ("error: rewrite letter table exceeded the limit of "
                       "178 cosets\n")
    else:
        assert (out, err) == ("((b2,b6)(b4,b5)(0,3)(5,6) | b0.1)\n", "")


def test_readme_elt_commands_print_the_golden_output(capsys):
    # the README's five `symgen elt` commands, run in order, print
    # tests/golden/elt.out byte for byte, as CI's installed package must
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    commands = [shlex.split(line, comments=True)[1:]
                for line in readme.splitlines()
                if line.startswith("symgen elt ")]
    assert len(commands) == 5
    printed = ""
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        printed += out
    assert printed.encode() == (GOLDEN / "elt.out").read_bytes()


def test_elt_mult(capsys):
    code, out, _ = run_cli(capsys, "elt", "5sq_d6", "mult",
                           "(id | 0.1)", "(id | 1.2)")
    assert code == 0
    assert out.strip() == "(id | 0.2)"


@pytest.mark.parametrize("name,element,expected", [
    ("5sq_d6", "(id | -)",
     "centralizer order: 300\n"
     "  (id | 0)\n"
     "  ((0,1,2) | 1)\n"
     "  ((1,2) | 0.1)\n"),
    ("u3_3", "(id | b0)",
     "centralizer order: 48\n"
     "  (id | b0)\n"
     "  ((b1,b5)(b3,b4)(0,6)(1,4) | -)\n"
     "  ((b1,b2)(b3,b6)(1,2)(3,6) | -)\n"
     "  ((b1,b4,b3,b5)(b2,b6)(0,5,6,3)(1,4) | -)\n"),
    ("l2_19", "(id | ∞.0)",
     "centralizer order: 10\n"
     "  ((∞,0)(1,4) | 0)\n"
     "  ((1,4)(2,3) | -)\n"),
], ids=["5sq_d6", "u3_3", "l2_19"])
def test_elt_centralize(capsys, name, element, expected):
    # the generator lists are pinned: they depend on the order in which the
    # centralizer's span filter meets the group's elements
    code, out, _ = run_cli(capsys, "elt", name, "centralize", element)
    assert code == 0
    assert out == expected


U3_3_B0_1 = ("(1,22)(2,10)(3,5)(4,21,8,17)(6,20,7,19)(9,30,12,29)(11,13)"
             "(14,32,15,36)(16,18)(23,24)(25,34,28,33)(26,31,27,35)")


@pytest.mark.parametrize("args,builds", [
    (["convert", "(id | b0.1)"], 1),
    (["mult", "(id | b0)", "(id | b1)"], 1),
    (["convert", U3_3_B0_1], 0),
    (["centralize", "(id | b0)"], 0),
], ids=["convert-pair", "mult", "convert-perm", "centralize"])
def test_one_shot_elt_builds_the_letter_table_at_most_once(
        capsys, monkeypatch, args, builds):
    # a pure operation enumerates the letter table on first use and reads
    # it after that; converting a coset permutation and centralizing go
    # through the image alone and never build it
    from symgen import progenitor
    calls = []
    enumerate_cosets = progenitor._labelled_cosets

    def counting_enumeration(*a):
        calls.append(a)
        return enumerate_cosets(*a)

    monkeypatch.setattr(progenitor, "_labelled_cosets", counting_enumeration)
    code, out, _ = run_cli(capsys, "elt", "u3_3", *args)
    assert code == 0 and out
    assert len(calls) == builds


def test_elt_membership_failure(capsys):
    # a permutation of the generator indices that is not in the control group
    code, _, err = run_cli(capsys, "elt", "u3_3", "convert", "((b0,b1) | -)")
    assert code == 5


@pytest.mark.parametrize("args", [
    ("convert", "(8,9)"),
    ("mult", "(8,9)", "(id | b0)"),
    ("centralize", "(8,9)"),
])
def test_elt_permutation_outside_the_group(capsys, args):
    # (8,9) swaps two cosets of word length 2 and fixes point 1 and every
    # length-one coset, but is not in the group
    code, out, err = run_cli(capsys, "elt", "u3_3", *args)
    assert code == 5
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_elt_bad_element_text(capsys):
    code, _, err = run_cli(capsys, "elt", "5sq_d6", "convert", "(id | banana)")
    assert code == 2


@pytest.mark.parametrize("text", ["(id||b0)", "(id | b0 | b1)"])
def test_elt_more_than_one_separator(capsys, text):
    # a second '|' is named as such, not blamed on the control part
    code, out, err = run_cli(capsys, "elt", "u3_3", "convert", text)
    assert code == 2 and out == ""
    assert err == f"error: element needs exactly one '|' separator: {text!r}\n"


def test_elt_wrong_arg_count(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "elt", "5sq_d6", "mult", "(id | 0)")
    assert code == 2
    # a usage error is reported before any enumeration can hit the limit
    monkeypatch.setenv("SYMGEN_MAX_COSETS", "1")
    code, out, err = run_cli(capsys, "elt", "5sq_d6", "mult", "(id | 0)")
    assert code == 2 and out == ""
    assert err == "error: mult takes 2 element argument(s)\n"


@pytest.mark.parametrize("argv", [
    ["bogus"], ["graph", "5sq_d6", "--format", "xml"], [],
])
def test_bad_arguments_exit_2_with_usage(capsys, argv):
    # main shares one parser across calls: a bad call prints what a fresh
    # parser prints, twice in a row, and a good call after it is unharmed
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    fresh = capsys.readouterr()
    assert fresh.out == "" and fresh.err.startswith("usage: symgen")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == fresh
    code, out, _ = run_cli(capsys, "graph", "5sq_d6")
    assert code == 0
    assert out == (GOLDEN / "5sq_d6.dot").read_text(encoding="utf-8")


def test_selftest(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    for name in ("l2_19", "5sq_d6", "u3_3"):
        assert f"== {name}: ok" in out
    # l2_19's enumeration defines 317 cosets and the others 131 and 134:
    # l2_19 fails at 135 with one error line, and the run goes on to u3_3
    monkeypatch.setenv("SYMGEN_MAX_COSETS", "135")
    code, out, err = run_cli(capsys, "selftest")
    assert code == 4
    assert [line for line in out.splitlines() if line.startswith("==")] == [
        "== 5sq_d6: ok", "== l2_19: FAILED (exit 4)", "== u3_3: ok"]
    assert err == "error: coset enumeration exceeded the limit of 135 cosets\n"


def test_a_directory_does_not_hide_a_fixture(tmp_path, monkeypatch, capsys):
    # a spec path must exist and not be a directory; a directory named
    # like a fixture loads the fixture, and any other directory is no spec
    _, bundled, _ = run_cli(capsys, "enumerate", "u3_3")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u3_3").mkdir()
    (tmp_path / "specsdir").mkdir()
    assert run_cli(capsys, "enumerate", "u3_3") == (0, bundled, "")
    assert run_cli(capsys, "enumerate", "specsdir") == (
        2, "", "error: no such spec file or bundled fixture: specsdir\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_enumerate_reads_a_spec_from_stdin():
    # /dev/stdin is no regular file, yet it is read as a spec file
    spec = (FIXTURE_DIR / "5sq_d6.json").read_text(encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "symgen.cli", "enumerate",
                           "/dev/stdin"], input=spec, capture_output=True,
                          text=True, encoding="utf-8")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "index: 50" in proc.stdout


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symgen.cli", "enumerate", "5sq_d6"],
                          capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0
    assert "index: 50" in proc.stdout


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    ["enumerate", "u3_3"],
    ["graph", "u3_3", "--format", "json"],
    ["elt", "l2_19", "centralize", "(id | -)"],
], ids=["enumerate", "graph", "centralize"])
def test_reader_closed_before_any_write_exits_cleanly(args, buffered):
    # the read end of the pipe is closed before the CLI starts, as when a
    # reader such as head exits early: exit 0 and no traceback, whether the
    # pipe breaks at a print (unbuffered) or at the last flush (buffered)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "symgen.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
