"""The package's public surface: what it exports and what each module imports."""

import ast
import pathlib

import pytest

import noninv

PACKAGE = pathlib.Path(noninv.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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
