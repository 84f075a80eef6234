"""The public surface of uwrt holds only what uwrt itself uses.

A public (no leading underscore) module-level function or class must be
referenced, as a name or an attribute, by some other top-level statement
of a module in src/uwrt.  A public method's name must be referenced as
an attribute somewhere in src/uwrt outside its own body: there, an
attribute of that name is a recursive call, or the same method of
another operand (x.m() inside m, as a method of a container calls the
method of its elements), never a use.  A bare name is a local or a
global, never the method, so a local variable of the same name does not
hide an unused method.  An attribute read off a class defined in
src/uwrt, K.m, counts only toward K.m, so it does not hide an unused
method m of another class.  Imports do not count, and neither do
docstrings, so a definition that only tests call fails here.  Nor does src/uwrt hold an assert statement, or
import a leading-underscore name from another uwrt module.  The storage
of a LaurentU stays inside laurent: no other module reads its slots or
slices a run out of its coeffs view.  The packed format stays inside
tangles: no other module imports its codec or its packed constants.
There is one Kronecker codec, laurent's encode_run, decode_run and
_bias: no other code calls array() or reads int.from_bytes or .to_bytes.
Every memo is an lru_cache, so none is a module-level container named
for a cache, and a count or order below 1 is refused in one place,
errors.require_positive: no other raise builds a "must be >= 1" message.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uwrt"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _referenced(nodes, classes, method=None):
    """(bare names, attributes) under nodes, except every attribute
    named method: an attribute is its name, or (K, name) when read off a
    class K in classes."""
    names, attributes = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and sub.attr != method:
                owner = sub.value.id if isinstance(sub.value, ast.Name) \
                    else None
                attributes.add((owner, sub.attr) if owner in classes
                               else sub.attr)
    return names, attributes


def unreferenced_public_definitions(src=SRC):
    """Sorted "module.name" of every public module-level def or class
    that no other top-level statement under src references, and
    "module.Class.name" of every public method whose name nothing under
    src references outside its own body."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    definitions = []            # (units the definition owns, name)
    references = []             # (unit, referenced names)
    for stem, tree in trees.items():
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, ast.ClassDef):
                sid = (stem, i)
                references.append((sid, _referenced([node], classes)))
                if (isinstance(node, _DEFS)
                        and not node.name.startswith("_")):
                    definitions.append(({sid}, f"{stem}.{node.name}"))
                continue
            # each method is a unit of its own and the rest of the class
            # one more; the class owns them all, a method owns none
            rest = (stem, i, None)
            units = {rest}
            references.append((rest, _referenced(
                node.bases + node.keywords + node.decorator_list
                + [s for s in node.body if not isinstance(s, _DEFS)],
                classes)))
            for j, sub in enumerate(node.body):
                if isinstance(sub, _DEFS):
                    mid = (stem, i, j)
                    units.add(mid)
                    references.append(
                        (mid, _referenced([sub], classes, sub.name)))
                    if not sub.name.startswith("_"):
                        definitions.append(
                            (set(), f"{stem}.{node.name}.{sub.name}"))
            if not node.name.startswith("_"):
                definitions.append((units, f"{stem}.{node.name}"))
    return sorted(qualified for own, qualified in definitions
                  if not any(_mentions(qualified, names, attributes)
                             for unit, (names, attributes) in references
                             if unit not in own))


def _mentions(qualified, names, attributes):
    """Whether the referenced names can reach the definition: a
    module-level one by name or attribute, a method by an attribute of
    its name that is not read off another class."""
    parts = qualified.split(".")
    if len(parts) == 2:
        return parts[1] in names or parts[1] in attributes
    return parts[2] in attributes or tuple(parts[1:]) in attributes


def test_every_public_definition_is_used_in_src():
    assert unreferenced_public_definitions() == []


def test_no_assert_in_src():
    # python -O strips assert statements, so a check in src must raise
    # a typed error instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _uwrt_imports(src):
    """(module, name) of every name that a module under src imports from
    a uwrt module, relative or absolute."""
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").split(".")[0]
                         == "uwrt")):
                yield from ((path.stem, alias.name) for alias in node.names)


def private_imports(src=SRC):
    """Sorted "module: name" of every leading-underscore name that a
    module under src imports from a uwrt module, relative or absolute."""
    return sorted(f"{stem}: {name}" for stem, name in _uwrt_imports(src)
                  if name.startswith("_"))


_PACKED = {"pack", "unpack", "PACKED_ZERO", "PACKED_ONE"}


def packed_imports(src=SRC):
    """Sorted "module: name" of every import of the packed codec or a
    packed constant into a module under src other than tangles."""
    return sorted(f"{stem}: {name}" for stem, name in _uwrt_imports(src)
                  if name in _PACKED and stem != "tangles")


def test_no_private_import_across_modules():
    # a name another module needs is public; a private one stays put
    assert private_imports() == []


def test_private_import_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "from .b import _hidden, shown\n"
        "from uwrt.c import _other\n"
        "from os import _exit\n",
        encoding="utf-8")
    assert private_imports(tmp_path) == ["a: _hidden", "a: _other"]


def test_packed_format_stays_in_tangles():
    # the digit width and bias of a packed value may change in one module
    assert packed_imports() == []


def test_packed_import_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .tangles import colored_jones, unpack\n"
        "from uwrt.tangles import PACKED_ONE\n"
        "from struct import pack\n",
        encoding="utf-8")
    (tmp_path / "tangles.py").write_text(
        "from .reps import pack\n\nPACKED_ZERO = (0, 0)\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .tangles import PACKED_ZERO, pack\n", encoding="utf-8")
    assert packed_imports(tmp_path) == [
        "a: PACKED_ONE", "a: unpack", "b: PACKED_ZERO", "b: pack"]


_CODEC = {"encode_run", "decode_run", "_bias"}
_BYTE_CALLS = {"from_bytes", "to_bytes"}


def byte_codecs(src=SRC):
    """Sorted "module:line name" of every array() call and every
    from_bytes or to_bytes attribute under src outside laurent's codec
    functions."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        codec = {id(sub) for node in tree.body
                 if path.stem == "laurent" and isinstance(node, _DEFS)
                 and node.name in _CODEC for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in codec:
                continue
            if isinstance(node, ast.Attribute) and node.attr in _BYTE_CALLS:
                found.append(f"{path.stem}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.Call) and "array" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                found.append(f"{path.stem}:{node.lineno} array")
    return sorted(found)


def test_one_kronecker_codec():
    # L1 and L2 write and read every packed digit through one encoder
    # and one decoder, so a digit's layout changes in one place
    assert byte_codecs() == []


def test_byte_codec_detector(tmp_path):
    # a second packer kept in tangles, as it was before the codec moved
    (tmp_path / "tangles.py").write_text(
        "import array as arr\n"
        "from array import array\n\n\n"
        "def pack(run):\n"
        "    return int.from_bytes(array('Q', run), 'little')\n\n\n"
        "def unpack(mag, n):\n"
        "    raw = mag.to_bytes(8 * n, 'little')\n"
        "    words = arr.array('B', raw)\n"
        "    return list(map(int.from_bytes, [words], ['little']))\n",
        encoding="utf-8")
    (tmp_path / "laurent.py").write_text(
        "def encode_run(run, width):\n"
        "    return int.from_bytes(array('B', run), 'little')\n\n\n"
        "def decode_run(mag, width):\n"
        "    return mag.to_bytes(width, 'little')\n\n\n"
        "def other(mag):\n"
        "    return mag.to_bytes(1, 'little')\n",
        encoding="utf-8")
    # an import of array is no call, and only laurent's codec is exempt
    assert byte_codecs(tmp_path) == [
        "laurent:10 to_bytes", "tangles:10 to_bytes", "tangles:11 array",
        "tangles:12 from_bytes", "tangles:6 array", "tangles:6 from_bytes"]


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
        "    def mapped(self, items):\n"
        "        return [item.mapped(self) for item in items]\n\n"
        "    @staticmethod\n"
        "    def make():\n        return Box()\n\n"
        "    def shadowed(self):\n        return 3\n\n\n"
        "class Crate:\n"
        "    @staticmethod\n"
        "    def make():\n        return Crate()\n\n\n"
        "def outer():\n    shadowed = 4\n    return shadowed\n\n\n"
        "VALUE = Box().used() + outer() + len([Crate.make()])\n",
        encoding="utf-8")
    # the local variable shadowed is not the method Box.shadowed,
    # Crate.make reaches Crate's make, not Box's, and item.mapped inside
    # mapped is no use of mapped
    assert unreferenced_public_definitions(tmp_path) == \
        ["c.Box.make", "c.Box.mapped", "c.Box.recursive", "c.Box.shadowed"]


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.DictComp,
               ast.ListComp, ast.SetComp, ast.Call)


def cache_containers(src=SRC):
    """Sorted "module: name" of every module-level name containing "cache"
    that is bound to a container display, comprehension or call."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, _CONTAINERS)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                found += [f"{path.stem}: {name.id}" for target in targets
                          for name in ast.walk(target)
                          if isinstance(name, ast.Name)
                          and "cache" in name.id.lower()]
    return sorted(found)


def test_every_cache_is_an_lru_cache():
    # each memo has cache_clear and cache_info, so the benchmark resets it
    # and its hits and misses can be counted
    assert cache_containers() == []


def test_cache_container_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "from collections import defaultdict\n"
        "from functools import lru_cache\n\n"
        "_jones_cache = {}\n"
        "rows_CACHE: dict = dict()\n"
        "_seen = cache_limit = 3\n"
        "_memo = {}\n\n\n"
        "def f():\n    local_cache = {}\n    return local_cache\n\n\n"
        "@lru_cache(maxsize=None)\n"
        "def cached(n):\n    return n\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from collections import defaultdict\n\n"
        "left, cache_b = [], defaultdict(list)\n", encoding="utf-8")
    assert cache_containers(tmp_path) == [
        "a: _jones_cache", "a: rows_CACHE", "b: cache_b"]


_POSITIVE = re.compile(r"must be (>= 1|positive)")


def positive_refusals(src=SRC):
    """Sorted "module:line" of every raise outside errors whose message
    holds a literal "must be >= 1" or "must be positive"."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and any(
                    isinstance(sub, ast.Constant)
                    and _POSITIVE.search(str(sub.value))
                    for sub in ast.walk(node)):
                found.append(f"{path.stem}:{node.lineno}")
    return sorted(found)


def test_one_refusal_of_a_count_below_1():
    # errors.require_positive words and types the refusal, so every
    # count, order, depth, modulus and precision exits 2 the same way
    assert positive_refusals() == []


def test_positive_refusal_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(r, n):\n"
        "    if r < 1:\n"
        "        raise ValueError('r must be >= 1')\n"
        "    if n < 1:\n"
        "        raise InputError(f'{n} must be >= 1, got {n}')\n"
        "    if n < 0:\n"
        "        raise ValueError('powers must be >= 0')\n"
        "    require_positive('r', r)\n"
        "    raise ValueError('modulus must be positive')\n",
        encoding="utf-8")
    (tmp_path / "errors.py").write_text(
        "def require_positive(name, value):\n"
        "    if value < 1:\n"
        "        raise InputError(f'{name} must be >= 1, got {value}')\n",
        encoding="utf-8")
    assert positive_refusals(tmp_path) == ["a:3", "a:5", "a:9"]


def _laurent_slots():
    """The __slots__ of laurent.LaurentU, read from its source."""
    tree = ast.parse((SRC / "laurent.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "LaurentU")
    return set(next(ast.literal_eval(stmt.value) for stmt in cls.body
                    if isinstance(stmt, ast.Assign)
                    and stmt.targets[0].id == "__slots__"))


def storage_reads(src=SRC):
    """Sorted "module:line what" of every LaurentU slot read (.slot) and
    every strided slice of a coeffs view (.coeffs[::k]) in a module under
    src other than laurent."""
    slots = _laurent_slots()
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "laurent":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in slots:
                found.append(f"{path.stem}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "coeffs"
                  and isinstance(node.slice, ast.Slice)
                  and node.slice.step is not None):
                found.append(f"{path.stem}:{node.lineno} .coeffs[::k]")
    return sorted(found)


def test_laurent_storage_stays_in_laurent():
    # other modules read a value through q_run, so the storage format
    # can change in one module
    assert _laurent_slots() and storage_reads() == []


def test_storage_read_detector(tmp_path):
    slot = sorted(_laurent_slots())[0]
    (tmp_path / "a.py").write_text(
        "def expand(c, d):\n"
        "    crun = c.coeffs[::4]\n"
        "    return remainder(0, crun, d.coeffs[1::4])\n\n\n"
        f"def peek(x):\n    return x.{slot}\n\n\n"
        "def fine(m, x):\n"
        "    return m.coeffs[0], m.coeffs[1:], x.q_run()\n",
        encoding="utf-8")
    (tmp_path / "laurent.py").write_text(
        f"def own(x):\n    return x.{slot}, x.coeffs[::2]\n",
        encoding="utf-8")
    assert storage_reads(tmp_path) == [
        "a:2 .coeffs[::k]", "a:3 .coeffs[::k]", f"a:7 .{slot}"]
