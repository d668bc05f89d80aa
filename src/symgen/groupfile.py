"""Group spec files: the JSON format describing a progenitor fixture.

A spec file carries the control action (cycle strings over arbitrary
string labels), the control presentation, the factoring relators, and
optionally expected enumeration results for self-testing.  The symmetric
generators are always N's conjugates of one t (build_image), so a spec
file names no word for them; any other key is ignored, such as the keys
in which older files named the t symbol and gave a word for each t_i.
Labels are free-form strings so symbols like "∞" survive; glyph-heavy
alphabets should use plain encodings (the bundled fixtures write b0..b6)
with a display table kept alongside as metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from .fpgroup import MAX_COSETS, Presentation, parse_word
from .progenitor import ProgenitorSpec, derive_rules
from .dcenum import build_image
from .perm import parse_label_cycles
from .symrep import SymContext


@dataclass(frozen=True)
class Expected:
    index: int | None = None
    group_order: int | None = None
    node_sizes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class GroupSpecFile:
    name: str
    spec: ProgenitorSpec
    expected: Expected

    def build_context(self, with_rules: bool = True,
                      max_cosets: int = MAX_COSETS) -> SymContext:
        image = build_image(self.spec, max_cosets=max_cosets)
        rules = derive_rules(self.spec, max_cosets) if with_rules else None
        return SymContext(self.spec, rules=rules, image=image)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_relator_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(item, dict) and isinstance(item.get("control_word"), str)
        and _is_str_list(item.get("tail")) for item in value)


def _is_expected(value) -> bool:
    if not isinstance(value, dict):
        return False
    sizes = value.get("node_sizes")
    return all(value.get(key) is None or _is_int(value[key])
               for key in ("index", "group_order")) and (
        sizes is None or isinstance(sizes, list) and all(map(_is_int, sizes)))


def _field(data: dict, key: str, path: str, check, what: str,
           required: bool = True):
    """data[key] after a type check; None for an absent optional field."""
    value = data.get(key)
    if value is None:
        if required:
            raise ValueError(f"{path}: missing required field {key!r}")
        return None
    if not check(value):
        raise ValueError(f"{path}: field {key!r} must be {what}")
    return value


def load_spec_data(data: dict, path: str = "<data>") -> GroupSpecFile:
    strings = "a list of strings"
    name = _field(data, "name", path, lambda v: isinstance(v, str), "a string")
    n = _field(data, "n", path, lambda v: _is_int(v) and v >= 1,
               "a positive integer")
    labels = tuple(_field(data, "labels", path, _is_str_list, strings))
    gen_names = tuple(_field(data, "control_generator_names", path,
                             _is_str_list, strings))
    gen_cycles = _field(data, "control_generators", path, _is_str_list, strings)
    pres_text = _field(data, "control_presentation", path,
                       lambda v: isinstance(v, str), "a string")
    relator_items = _field(
        data, "relators", path, _is_relator_list,
        'a list of {"control_word": string, "tail": list of labels} objects')
    exp = _field(data, "expected", path, _is_expected,
                 "an object of integer index, group_order and node_sizes",
                 required=False) or {}
    # display is metadata for readers of the file: checked, not kept
    _field(data, "display", path, lambda v: isinstance(v, dict), "an object",
           required=False)
    if len(labels) != n:
        raise ValueError(f"{path}: expected {n} labels, got {len(labels)}")
    for label in labels:
        # cycle and element text strip whitespace off labels: a label holds none
        if not label or any(ch in "(),.|" or ch.isspace() for ch in label):
            raise ValueError(f"{path}: label {label!r} is empty or contains "
                             "whitespace or one of ( ) , . |")
        if label in ("-", "*"):
            # element text writes the empty word as "-", and enumerate and
            # graph output as "*"
            raise ValueError(f"{path}: label {label!r} is reserved for the empty word")
    if "" in gen_names:
        # word text would read an empty name at every position
        raise ValueError(f"{path}: field 'control_generator_names' holds "
                         "the empty generator name ''")

    try:
        control_gens = tuple(parse_label_cycles(c, labels) for c in gen_cycles)
        presentation = Presentation.parse(gen_names, pres_text)
        relators = []
        for item in relator_items:
            cw = parse_word(item["control_word"], gen_names)
            for label in item["tail"]:
                if label not in labels:
                    raise ValueError(
                        f"field 'relators' has unknown tail label {label!r}")
            tail = tuple(labels.index(l) + 1 for l in item["tail"])
            relators.append((cw, tail))
        spec = ProgenitorSpec(n, control_gens, presentation, tuple(relators),
                              labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

    node_sizes = exp.get("node_sizes")
    expected = Expected(
        index=exp.get("index"),
        group_order=exp.get("group_order"),
        node_sizes=tuple(node_sizes) if node_sizes is not None else None)
    return GroupSpecFile(name, spec, expected)


def load_spec_file(path: str) -> GroupSpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    return load_spec_data(data, path)


def bundled_fixture_names() -> list[str]:
    names = []
    for entry in resources.files("symgen.fixtures").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return sorted(names)


def load_bundled(name: str) -> GroupSpecFile:
    ref = resources.files("symgen.fixtures").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ValueError(f"no such spec file or bundled fixture: {name}")
    data = json.loads(ref.read_text(encoding="utf-8"))
    return load_spec_data(data, f"fixtures/{name}.json")
