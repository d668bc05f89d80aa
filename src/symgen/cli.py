"""Command-line front end.

    symgen enumerate <spec.json>
    symgen graph <spec.json> --format dot|json [--out FILE]
    symgen elt <spec.json> convert|mult|invert|centralize ELEMENT...
    symgen selftest

Spec files are the JSON format of groupfile; bundled fixture names
(l2_19, 5sq_d6, u3_3) are accepted wherever a path is.  Exit codes:
0 ok, 2 parse/validation error or unwritable --out file, 3 expectation
mismatch, 4 resource limit (cosets, or a group too large to list),
5 membership failure; a reader that closes stdout early gets 0.
selftest goes on past a fixture that fails and exits with the worst code.
SYMGEN_MAX_COSETS overrides the coset limit, which bounds the cosets that
each of the two enumerations defines: the image route's Todd-Coxeter and
the rewrite engine's letter table.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .fpgroup import MAX_COSETS, CosetLimitExceeded
from .perm import GroupTooLarge, IdentificationError, parse_cycles, cycles_str
from .dcenum import CollapsedGraph, double_cosets, emit_graph, word_label
from .groupfile import (GroupSpecFile, bundled_fixture_names, load_bundled,
                        load_spec_file)
from . import symrep

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_LIMIT = 4
EXIT_MEMBERSHIP = 5


def _load(spec_arg: str) -> GroupSpecFile:
    # a directory does not hide its fixture; isfile would refuse /dev/stdin
    if os.path.exists(spec_arg) and not os.path.isdir(spec_arg):
        return load_spec_file(spec_arg)
    return load_bundled(spec_arg)


def _max_cosets() -> int:
    value = os.environ.get("SYMGEN_MAX_COSETS")
    if not value:
        return MAX_COSETS
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(
            f"SYMGEN_MAX_COSETS must be a positive integer, got {value!r}")
    return int(value)


def _enumerate(gf: GroupSpecFile, out) -> int:
    ctx = gf.build_context(with_rules=False, max_cosets=_max_cosets())
    img = ctx.image
    graph = double_cosets(img)
    order = img.index * gf.spec.control_group.order()
    print(f"fixture: {gf.name}", file=out)
    print(f"index: {img.index}", file=out)
    print(f"order: {order}", file=out)
    print(f"double cosets: {len(graph.nodes)}", file=out)
    for node in graph.nodes:
        print(f"  [{word_label(gf.spec, node.rep)}]  size {node.size}  "
              f"stabilizer {graph.control_order // node.size}", file=out)
    problems = _check_expected(gf, img.index, order, graph)
    if problems:
        for line in problems:
            print(f"MISMATCH: {line}", file=out)
        return EXIT_MISMATCH
    return EXIT_OK


def _check_expected(gf: GroupSpecFile, index: int, order: int,
                    graph: CollapsedGraph) -> list[str]:
    problems = []
    exp = gf.expected
    if exp.index is not None and exp.index != index:
        problems.append(f"index {index} != expected {exp.index}")
    if exp.group_order is not None and exp.group_order != order:
        problems.append(f"order {order} != expected {exp.group_order}")
    if exp.node_sizes is not None:
        sizes = tuple(node.size for node in graph.nodes)
        if sizes != exp.node_sizes:
            problems.append(f"node sizes {sizes} != expected {exp.node_sizes}")
    return problems


def _graph(gf: GroupSpecFile, fmt: str, out_path: str | None, out) -> int:
    ctx = gf.build_context(with_rules=False, max_cosets=_max_cosets())
    text = emit_graph(double_cosets(ctx.image), fmt)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"{out_path}: {exc.strerror or exc}") from exc
    else:
        out.write(text)
    return EXIT_OK


def _parse_elt_arg(ctx, img, text: str):
    """An element argument is either a sym pair "(control | word)" or a
    permutation of the coset points in cycle notation."""
    if "|" in text:
        return symrep.parse_element(ctx, text)
    perm = parse_cycles(text, img.index)
    return symrep.per2sym(ctx, perm)


def _elt(gf: GroupSpecFile, action: str, element_args: list[str], out) -> int:
    need = {"convert": 1, "invert": 1, "centralize": 1, "mult": 2}[action]
    if len(element_args) != need:
        print(f"error: {action} takes {need} element argument(s)", file=sys.stderr)
        return EXIT_PARSE
    ctx = gf.build_context(with_rules=True, max_cosets=_max_cosets())
    img = ctx.image
    elements = [_parse_elt_arg(ctx, img, a) for a in element_args]
    if action == "convert":
        e = elements[0]
        if "|" in element_args[0]:
            print(cycles_str(symrep.sym2per(ctx, e)), file=out)
            canonical = symrep.canonical_form(e, mode="pure")
            print(symrep.format_element(canonical), file=out)
        else:
            print(symrep.format_element(e), file=out)
        return EXIT_OK
    if action == "mult":
        print(symrep.format_element(symrep.mult(elements[0], elements[1])), file=out)
        return EXIT_OK
    if action == "invert":
        print(symrep.format_element(symrep.invert_sym(elements[0])), file=out)
        return EXIT_OK
    order, gens = symrep.cenelt(ctx, elements[0])
    print(f"centralizer order: {order}", file=out)
    for g in gens:
        print(f"  {symrep.format_element(g)}", file=out)
    return EXIT_OK


def _selftest(out) -> int:
    worst = EXIT_OK
    for name in bundled_fixture_names():
        buf = io.StringIO()
        code = _exit_code(lambda: _enumerate(load_bundled(name), buf))
        status = "ok" if code == EXIT_OK else f"FAILED (exit {code})"
        print(f"== {name}: {status}", file=out)
        out.write(buf.getvalue())
        worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symgen",
        description="Symmetric generation: enumeration, graphs, element arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="run double coset enumeration")
    p.add_argument("spec")

    p = sub.add_parser("graph", help="emit the collapsed Cayley graph")
    p.add_argument("spec")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out")

    p = sub.add_parser("elt", help="element arithmetic in symmetric form")
    p.add_argument("spec")
    p.add_argument("action", choices=["convert", "mult", "invert", "centralize"])
    p.add_argument("elements", nargs="*")

    sub.add_parser("selftest", help="enumerate all bundled fixtures")
    return parser


# parsing leaves the parser as it was, so every call shares one
_PARSER = build_parser()


def _exit_code(command) -> int:
    """command()'s exit code, or the code of the error it raises, whose
    message is then one line on stderr."""
    try:
        return command()
    except (CosetLimitExceeded, GroupTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except IdentificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MEMBERSHIP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    out = sys.stdout
    commands = {
        "enumerate": lambda: _enumerate(_load(args.spec), out),
        "graph": lambda: _graph(_load(args.spec), args.format, args.out, out),
        "elt": lambda: _elt(_load(args.spec), args.action, args.elements, out),
        "selftest": lambda: _selftest(out),
    }
    try:
        code = _exit_code(commands[args.command])
        out.flush()  # a closed reader shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader closed stdout early: what is left goes to devnull, so
        # the flush at shutdown is silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
