"""Static checks on the package source, stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "subbeam"
MODULES = sorted(SRC.rglob("*.py"))


def _exports(tree: ast.Module) -> list[str]:
    """The names the module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return sorted(name for name in imported if name not in _read(tree) | set(_exports(tree)))


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def undefined_exports(source: str) -> list[str]:
    """``__all__`` entries that the module neither defines nor imports at its top level."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return [name for name in _exports(tree) if name not in bound]


def unused_private_functions(source: str) -> list[str]:
    """Module-level ``_private`` functions whose name the module never reads."""
    tree = ast.parse(source)
    read = _read(tree)
    return [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__") and node.name not in read
    ]


def test_detects_an_undefined_export():
    source = "import os\nfrom m import y\nX = 1\ndef f(): pass\nclass C: pass\n"
    assert undefined_exports(source + "__all__ = ['os', 'y', 'X', 'f', 'C', 'gone']\n") == ["gone"]
    assert undefined_exports("x = 1\n") == []


def test_detects_an_unused_private_function():
    source = "def _used(): pass\ndef _unused(): pass\ndef public(): return _used()\n"
    assert unused_private_functions(source) == ["_unused"]
    assert unused_private_functions("def __getattr__(name): pass\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_private_functions(path):
    assert unused_private_functions(path.read_text()) == []


def _read_outside_own_definition(tree: ast.Module) -> set[str]:
    """Names and attributes the module reads, a top-level definition's reads
    of its own name (recursion) left out."""
    read = set()
    for stmt in tree.body:
        names = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        }
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        read |= names
    return read


def unread_exports(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each ``__all__`` entry that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read_outside_own_definition, trees.values()))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exports(tree)
        if name not in read
    ]


# Public names with no reader in the package, each with its reason.
READER_ALLOWLIST = {
    "waveform.read_iq": "the reader of the IQ file that simulate's save_iq writes",
    "codebook.optimize_weighted_sum": (
        "the paper's weighted-sum solver, kept beside max-min; no subcommand runs it yet"
    ),
}


def test_detects_an_unread_export():
    sources = {
        "a": "__all__ = ['f', 'g', 'h', 'K']\ndef f(): return f()\ndef g(): pass\n"
             "def h(): pass\nK = 1\n",
        "b": "from a import g\nimport a\ndef run(): return g() + a.h()\n",
    }
    assert unread_exports(sources) == ["a.f", "a.K"]


def test_every_export_has_a_reader():
    sources = {".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text() for p in MODULES}
    assert sorted(unread_exports(sources)) == sorted(READER_ALLOWLIST)


def class_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """``(class, field)`` for each annotated field of each class."""
    return [
        (node.name, stmt.target.id)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.field`` for each annotated class field whose name no
    module reads as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        n.attr for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [
        f"{module}.{cls}.{name}"
        for module, tree in trees.items()
        for cls, name in class_fields(tree)
        if name not in read
    ]


def test_detects_an_unread_field():
    sources = {
        "a": "class P:\n    x: int\n    y: int\n    z: int = 0\n    w = 1\n"
             "def f(p): return p.x\n",
        "b": "def g(p):\n    p.z = 1\n    return p.y, y\n",
    }
    assert unread_fields(sources) == ["a.P.z"]


def test_every_field_has_a_reader():
    sources = {".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text() for p in MODULES}
    assert unread_fields(sources) == []
