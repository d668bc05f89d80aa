import ast
import builtins
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symgen"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree, private):
    """A module's module-level functions and classes and its classes'
    methods, as (name, def node): the public ones, or the private ones
    other than dunders."""
    def wanted(node):
        return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") == private
                and not _is_dunder(node.name))

    for node in tree.body:
        if wanted(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if wanted(item) and isinstance(item, ast.FunctionDef):
                    yield item.name, item


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


def _fields(tree):
    """A module's classes' dataclass fields and the attributes their
    methods assign on self, as (class name, attribute name)."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names = set()
        if any(ast.unparse(d).startswith("dataclass")
               for d in node.decorator_list):
            names.update(item.target.id for item in node.body
                         if isinstance(item, ast.AnnAssign)
                         and isinstance(item.target, ast.Name))
        names.update(sub.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute)
                     and isinstance(sub.ctx, ast.Store)
                     and isinstance(sub.value, ast.Name)
                     and sub.value.id == "self")
        for name in sorted(names):
            yield node.name, name


def _reads(tree):
    """Every attribute a module reads, and every name it spells as a
    string (getattr and the benchmark's tracer look names up so)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def _is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def _handled(tree):
    """Every name a module's except clauses catch."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for sub in ast.walk(node.type):
                if isinstance(sub, ast.Name):
                    yield sub.id
                elif isinstance(sub, ast.Attribute):
                    yield sub.attr


def _sources():
    """The parsed modules of src, the demos and the benchmark."""
    sources = [path for folder in ("src", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))
               if not path.name.startswith("test_")]
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sources}


def _unused(private):
    """The package's definitions that src, the demos and the benchmark
    never name outside their own def."""
    trees = _sources()
    used = Counter()
    for tree in trees.values():
        used.update(_references(tree))
    return sorted(name for path, tree in trees.items()
                  if path.is_relative_to(PACKAGE)
                  for name, node in _definitions(tree, private)
                  if used[name] == Counter(_references(node))[name])


def test_no_public_name_is_test_only():
    # each public function, class and method of the package is named in
    # the package, the demos or the benchmark outside its own def; a name
    # that only the tests call is library API to delete
    assert _unused(private=False) == []


def test_no_private_name_is_dead():
    # the same for private functions, classes and methods other than
    # dunders: one that nothing outside its own def names is dead code
    assert _unused(private=True) == []


def test_no_field_is_unread():
    # each dataclass field and self attribute of the package's classes is
    # read somewhere in the package, the demos or the benchmark; one that
    # is only written, or only read by the tests, is state to delete
    trees = _sources()
    read = set()
    for tree in trees.values():
        read.update(_reads(tree))
    assert sorted(f"{cls}.{name}" for path, tree in trees.items()
                  if path.is_relative_to(PACKAGE)
                  for cls, name in _fields(tree) if name not in read) == []


def test_only_the_image_engine_reads_its_tables():
    # SymImage's two tables, N's action and the coset words' t-chains, are
    # read by SymImage's own methods (the image engine) and by nothing
    # else in the package, the demos or the benchmark
    tables = ("_action", "_chains")
    readers = []
    for path, tree in _sources().items():
        engine = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "SymImage"
                  for sub in ast.walk(node)}
        readers += [f"{path.relative_to(ROOT)}:{node.lineno}"
                    for node in ast.walk(tree) if id(node) not in engine
                    and (isinstance(node, ast.Attribute) and node.attr in tables
                         or isinstance(node, ast.Constant)
                         and node.value in tables)]
    assert readers == []


def test_every_exception_class_is_handled():
    # each exception class of the package is caught by name by an except
    # clause outside its own module, in the package, the demos or the
    # benchmark; one that every handler catches as its base class is a
    # second name for the base class's error
    trees = _sources()
    bases = {node.name: (path, [ast.unparse(base).rsplit(".", 1)[-1]
                                for base in node.bases])
             for path, tree in trees.items() if path.is_relative_to(PACKAGE)
             for node in tree.body if isinstance(node, ast.ClassDef)}
    homes = {}
    while True:
        found = {name: path for name, (path, names) in bases.items()
                 if name not in homes and any(
                     base in homes or _is_builtin_exception(base)
                     for base in names)}
        if not found:
            break
        homes.update(found)
    assert homes  # the scan sees the package's exception classes
    assert sorted(name for name, home in homes.items()
                  if not any(name in _handled(tree)
                             for path, tree in trees.items()
                             if path != home)) == []


def test_only_fpgroup_reads_coset_table_columns():
    # a CosetTable's columns and its letter-to-column map are read in
    # fpgroup alone, so a change of the column layout stays in one module;
    # the rest of the package, the demos and the benchmark read the index
    # and the coset action
    fields = ("columns", "column")
    readers = [f"{path.relative_to(ROOT)}:{node.lineno}"
               for path, tree in _sources().items()
               if path != PACKAGE / "fpgroup.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in fields
               and isinstance(node.ctx, ast.Load)]
    assert readers == []
