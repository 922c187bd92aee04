"""Every name a module under ``src/repro`` imports is used there.

Package ``__init__`` files are skipped (their imports are the package's
public names), as are ``from __future__`` imports and imports under
``if TYPE_CHECKING:``.  A name counts as used when the module's code
(annotations included) names it or lists it in ``__all__``.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _imports(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every checked import under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _is_type_checking(child):
            yield from (item for orelse in child.orelse
                        for item in _imports(ast.Module([orelse], [])))
            continue
        if isinstance(child, ast.Import):
            for alias in child.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, child.lineno
        elif isinstance(child, ast.ImportFrom):
            if child.module == "__future__":
                continue
            for alias in child.names:
                yield alias.asname or alias.name, child.lineno
        else:
            yield from _imports(child)


def _used(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant)
                     and isinstance(item.value, str)}
    return used


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` of each import in ``source`` nothing uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imports(tree)
            if name not in used]


def test_checker_flags_unused_and_skips_exempt_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from typing import TYPE_CHECKING, Dict, List, Tuple\n"
              "if TYPE_CHECKING:\n"
              "    from pathlib import Path\n"
              "__all__ = ['Dict', 'f']\n"
              "def f(x: List[int]) -> int:\n"
              "    import json\n"
              "    return np.sum(x)\n")
    assert unused_imports(source) == [("os", 2), ("Tuple", 4),
                                      ("json", 9)]


def test_no_unused_imports_in_src():
    found = []
    for path in sorted(REPO_SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, line in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(REPO_SRC)}:{line}: {name}")
    assert found == []
