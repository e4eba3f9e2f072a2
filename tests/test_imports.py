"""Every name a module of the package imports is used there or listed in its ``__all__``."""

import ast
import pathlib

import pytest

import cuspeps

SOURCES = sorted(pathlib.Path(cuspeps.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names the import statements of a module bind, anywhere in it, that it neither reads nor exports."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    exported = set()
    for node in tree.body:  # a literal __all__; the package's is built from its export map
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            if any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_a_leftover_import_is_seen():
    source = "from ._frozen import Frozen, set_field\nimport os.path\n__all__ = ['os']\nx = Frozen\n"
    assert _unused_imports(source) == ["set_field"]
