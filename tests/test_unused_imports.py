"""No module of the package, the tests or the demos imports a name it does not use.

A deletion that leaves its imports behind fails here.  A name counts as used
when the module reads it anywhere (annotations included) or lists it in
``__all__``, which is how ``__init__`` re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s imports bind and nothing in it reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    unread = sorted((line, name) for name, line in bound.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unread]


def test_the_modules_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in MODULES}
    assert {"src/videosynopsis/core.py", "tests/conftest.py", "demos/03_full_pipeline.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "import os.path\nimport numpy as np\nfrom typing import IO, Sequence\n"
        "__all__ = ['IO']\n\ndef f(n: Sequence) -> None:\n    np.zeros(n)\n"
    )
    assert unused_imports(source) == ["line 1: os"]
    assert unused_imports(source + "os.sep\n") == []
