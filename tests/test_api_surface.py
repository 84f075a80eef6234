"""The public surface of uwrt holds only what uwrt itself uses.

A public (no leading underscore) module-level function or class must be
referenced, as a name or an attribute, by some other top-level statement
of a module in src/uwrt.  A public method's name must be referenced as
an attribute somewhere in src/uwrt other than by a call on self in its
own body: a bare name is a local or a global, never the method, so a
local variable of the same name does not hide an unused method.
Imports do not count, and neither do docstrings, so a definition that
only tests call fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uwrt"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _referenced(nodes, method=None):
    """(bare names, attribute names) under nodes, except self.method."""
    names, attributes = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and not (
                    sub.attr == method and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"):
                attributes.add(sub.attr)
    return names, attributes


def unreferenced_public_definitions(src=SRC):
    """Sorted "module.name" of every public module-level def or class
    that no other top-level statement under src references, and
    "module.Class.name" of every public method whose name nothing under
    src references but a call on self in its own body."""
    definitions = []            # (units the definition owns, name)
    references = []             # (unit, referenced names)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, ast.ClassDef):
                sid = (path.stem, i)
                references.append((sid, _referenced([node])))
                if (isinstance(node, _DEFS)
                        and not node.name.startswith("_")):
                    definitions.append(({sid}, f"{path.stem}.{node.name}"))
                continue
            # each method is a unit of its own and the rest of the class
            # one more; the class owns them all, a method owns none
            rest = (path.stem, i, None)
            units = {rest}
            references.append((rest, _referenced(
                node.bases + node.keywords + node.decorator_list
                + [s for s in node.body if not isinstance(s, _DEFS)])))
            for j, sub in enumerate(node.body):
                if isinstance(sub, _DEFS):
                    mid = (path.stem, i, j)
                    units.add(mid)
                    references.append((mid, _referenced([sub], sub.name)))
                    if not sub.name.startswith("_"):
                        definitions.append(
                            (set(), f"{path.stem}.{node.name}.{sub.name}"))
            if not node.name.startswith("_"):
                definitions.append((units, f"{path.stem}.{node.name}"))
    return sorted(qualified for own, qualified in definitions
                  if not any(_mentions(qualified, names, attributes)
                             for unit, (names, attributes) in references
                             if unit not in own))


def _mentions(qualified, names, attributes):
    """Whether the referenced names can reach the definition: a
    module-level one by name or attribute, a method by attribute only."""
    name = qualified.rsplit(".", 1)[1]
    return name in attributes or (qualified.count(".") == 1
                                  and name in names)


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


def test_detector_flags_a_test_only_method(tmp_path):
    (tmp_path / "c.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.size = self.inner()\n\n"
        "    def inner(self):\n        return 1\n\n"
        "    def used(self):\n        return 2\n\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n\n"
        "    @staticmethod\n"
        "    def make():\n        return Box()\n\n"
        "    def shadowed(self):\n        return 3\n\n\n"
        "def outer():\n    shadowed = 4\n    return shadowed\n\n\n"
        "VALUE = Box().used() + outer()\n",
        encoding="utf-8")
    # the local variable shadowed is not the method Box.shadowed
    assert unreferenced_public_definitions(tmp_path) == \
        ["c.Box.make", "c.Box.recursive", "c.Box.shadowed"]
