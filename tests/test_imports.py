import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "hyperlab").glob("*.py"))
SOURCES = [path for path in MODULES if path.name != "__init__.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


def module_level_names(tree) -> list[str]:
    """The functions, classes and assigned names a module defines at its top level."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return defined


def dead_private_names(source: str) -> list[str]:
    """Module-level underscore functions, classes and assignments that the
    module never reads.  No other module may import them (see above), so
    such a name is dead code."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name
        for name in module_level_names(tree)
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]


def test_dead_private_name_detector():
    source = (
        "__all__ = []\n"
        "_USED = 1\n"
        "_DEAD: int = 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "class _Unused:\n"
        "    pass\n"
        "def public():\n"
        "    _local = 3\n"
        "    return _helper\n"
    )
    assert dead_private_names(source) == ["_DEAD", "_Unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_dead_private_module_level_name(path):
    assert dead_private_names(path.read_text(encoding="utf-8")) == []


def read_names(source: str) -> set[str]:
    """The names a source reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def dead_names(modules: dict, readers) -> list[str]:
    """module.name for every module-level name of `modules` (name -> source)
    that no source in `readers` reads."""
    read = set().union(*map(read_names, readers))
    return [
        f"{module}.{name}"
        for module, source in modules.items()
        for name in module_level_names(ast.parse(source))
        if not (name.startswith("__") and name.endswith("__")) and name not in read
    ]


def test_dead_name_detector():
    modules = {
        "a": "X = 1\nY: int = 2\n__all__ = []\ndef f():\n    return X\nclass C:\n    pass\n",
        "b": "from a import C\n",
    }
    readers = [*modules.values(), "import a\nprint(a.f)\n"]
    assert dead_names(modules, readers) == ["a.Y"]
    assert dead_names(modules, modules.values()) == ["a.Y", "a.f"]


def test_every_module_level_name_is_read():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    readers = [path.read_text(encoding="utf-8") for path in MODULES + TESTS]
    assert dead_names(modules, readers) == []
