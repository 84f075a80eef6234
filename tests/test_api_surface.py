"""The public surface of uwrt holds only what uwrt itself uses.

A public (no leading underscore) module-level function or class must be
referenced, as a name or an attribute, by some other top-level statement
of a module in src/uwrt.  Imports do not count, and neither do
docstrings, so a definition that only tests call fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uwrt"


def _referenced(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreferenced_public_definitions(src=SRC):
    """Sorted "module.name" of every public module-level def or class
    that no other top-level statement under src references."""
    definitions = []            # (statement id, module, name)
    references = []             # (statement id, referenced names)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            sid = (path.stem, i)
            references.append((sid, _referenced(node)))
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions.append((sid, path.stem, node.name))
    return sorted(f"{module}.{name}" for sid, module, name in definitions
                  if not any(name in names for other, names in references
                             if other != sid))


def test_every_public_definition_is_used_in_src():
    assert unreferenced_public_definitions() == []


def test_detector_flags_a_test_only_function(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Mentions helper and unused in prose only."""\n'
        "from .b import helper\n\n\n"
        "def used():\n    return helper() + recursive(1)\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def unused():\n    return unused\n\n\n"
        "class Thing:\n    pass\n\n\n"
        "VALUE = used() + Thing.__name__.count('x')\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import unused\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return 2\n",
        encoding="utf-8")
    assert unreferenced_public_definitions(tmp_path) == \
        ["a.unused", "b.orphan"]
