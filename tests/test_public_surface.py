"""The package's public surface: what it exports, what each module imports,
and that every public name has a caller outside the tests."""

import ast
import pathlib
import re

import pytest

import noninv

PACKAGE = pathlib.Path(noninv.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = pathlib.Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def top_level_imports(tree):
    """Names bound by the module's own top-level import statements."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = set(top_level_imports(tree))
    assert len(noninv.__all__) == len(set(noninv.__all__))
    assert set(noninv.__all__) == imported | {"__version__"}
    for name in noninv.__all__:
        assert hasattr(noninv, name), name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(noninv.__all__)  # re-exports
    unused = {name: line for name, line in top_level_imports(tree).items()
              if name not in used}
    assert unused == {}, f"{path.name}: imported but never used"


# ---------------------------------------------------------------------------
# every public name has a caller

# cli.py holds the entry points, suites.py is dispatched by name through
# cli._SUITES (tests/test_suites.py ties the two), and __init__.py only
# re-exports
_NO_CALLER_NEEDED = {"__init__.py", "cli.py", "suites.py"}


def _referenced(node) -> set[str]:
    """Every ast.Name id and ast.Attribute attr under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _module_name_refs(node) -> set[str]:
    """Each m that node names as m.m or imports by from .m import m."""
    refs = set()
    for n in ast.walk(node):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == n.attr):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom) and n.module:
            module = n.module.rsplit(".", 1)[-1]
            refs |= {alias.name for alias in n.names if alias.name == module}
    return refs


def _exports(init) -> set[tuple[str, str]]:
    """(file, name) for each __all__ name that init imports from a module."""
    exported = set()
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    return {(f"{node.module}.py", alias.name) for node in init.body
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names if alias.name in exported}


def names_without_caller(modules, bench_text) -> list[str]:
    """The public names of modules that only tests could reach.

    modules maps a file name to its source and bench_text is the
    benchmark's source.  Checked are the top-level public defs and classes
    of every module but those in _NO_CALLER_NEEDED, and every name in
    __init__'s __all__.  Each must (a) appear as a Name or Attribute in a
    module other than __init__.py, outside its own definition, or (b)
    appear as a word in bench_text.  A def named like its module, m.m, is
    matched in (a) only within m itself or as m.m or from .m import m
    elsewhere, since every m.anything access names m; in (b), only as the
    word m.m.  Returns "module.name" for each that does neither.
    """
    trees = {file: ast.parse(src) for file, src in modules.items()}
    defs = {(file, node.name): node for file, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    checked = {(file, name) for file, name in defs
               if file not in _NO_CALLER_NEEDED and not name.startswith("_")}
    if "__init__.py" in trees:
        checked |= _exports(trees["__init__.py"])
    statements = [(file, stmt, _referenced(stmt), _module_name_refs(stmt))
                  for file, tree in trees.items() if file != "__init__.py"
                  for stmt in tree.body]
    flagged = []
    for file, name in sorted(checked):
        node = defs.get((file, name))
        own_module = name == file[:-3]
        if any(name in (module_refs if own_module and where != file else refs)
               for where, stmt, refs, module_refs in statements
               if stmt is not node):
            continue
        word = f"{file[:-3]}.{name}" if own_module else name
        if re.search(rf"\b{re.escape(word)}\b", bench_text):
            continue
        flagged.append(f"{file[:-3]}.{name}")
    return flagged


def test_every_public_name_has_a_caller():
    modules = {path.name: path.read_text() for path in MODULES}
    bench_text = "\n".join(p.read_text() for p in sorted(BENCH.glob("*.py")))
    flagged = names_without_caller(modules, bench_text)
    assert flagged == [], "public names that only tests reach"


def test_every_oracle_is_used_by_a_test():
    # tests/oracles.py holds the reference routes that only tests call; one
    # that no test uses is dead code
    tree = ast.parse((TESTS / "oracles.py").read_text())
    oracles = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for path in TESTS.glob("test_*.py"):
        used |= _referenced(ast.parse(path.read_text()))
    assert sorted(oracles - used) == []


_SYNTHETIC = {
    "__init__.py": "from .m import lonely, used\n__all__ = ['lonely', 'used']\n",
    "cli.py": """from . import nib, pin, pip
from .m import used
from .pop import pop


def main():
    used(nib.other(), pin.pin(), pip.other(), pop())
""",
    # nib.other() names nib but does not call nib.nib; pip.pip has a
    # caller in its own module
    "nib.py": "def nib():\n    pass\n\n\ndef other():\n    pass\n",
    "pin.py": "def pin():\n    pass\n",
    "pip.py": "def pip():\n    pass\n\n\ndef other():\n    pip()\n",
    "pop.py": "def pop():\n    pass\n",
    "m.py": '''
def used():
    return helper()


def helper():
    return 1


def lonely():
    return lonely()


def timed():
    pass


def cited():
    """Brute force: the oracle of test_here in tests/test_file.py."""
''',
}


def test_guard_flags_uncalled_defs_even_when_a_docstring_cites_a_test():
    # a docstring naming a test earns no credit: m.cited has no caller
    bench_text = ('TARGETS = {"m.timed": ("m", "timed", None), '
                  '"nib.other": ("nib", "other", None)}')
    flagged = names_without_caller(_SYNTHETIC, bench_text)
    assert flagged == ["m.cited", "m.lonely", "nib.nib"]
