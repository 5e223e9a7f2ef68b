import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "src" / "hyperlab").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_import_detector():
    source = "import os\nimport numpy as np\nfrom .model import A, B\nprint(np.zeros, A)\n"
    assert unused_imports(source) == ["os", "B"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names that an import statement takes from a hyperlab module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "hyperlab")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_private_import_detector():
    source = (
        "from os import _exit\n"
        "from . import __version__, engines\n"
        "from .enumeration import sweep, _check_job\n"
        "def f():\n"
        "    from hyperlab.model import _relabelings\n"
    )
    assert private_imports(source) == ["_check_job", "_relabelings"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_name_imported_from_another_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
