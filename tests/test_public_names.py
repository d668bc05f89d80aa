import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symgen"


def _public_definitions(tree):
    """The names of a module's public module-level functions and classes
    and of its classes' public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield item.name


def _references(tree):
    """Every name a module reads, imports or spells as a string (the
    benchmark's tracer looks its targets up by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def test_no_public_name_is_test_only():
    # each public function, class and method of the package is named in
    # the package, the demos or the benchmark outside its own def; a name
    # that only the tests call is library API to delete
    sources = [path for folder in ("src", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))
               if not path.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources}
    used = set()
    for tree in trees.values():
        used.update(_references(tree))
    defined = {name for path, tree in trees.items()
               if path.is_relative_to(PACKAGE)
               for name in _public_definitions(tree)}
    assert sorted(defined - used) == []
