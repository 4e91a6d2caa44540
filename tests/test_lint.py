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


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` functions, classes and assigned names (dunders left out)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name that no module in
    ``sources`` reads, as a name or an attribute, outside its own definition;
    a name only tests read is flagged."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read_outside_own_definition, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    )


def test_detects_an_unread_private_name():
    sources = {
        "a": "_K = 1\n_T: int = 2\n_J = 3\ndef _f(): return _f()\ndef _g(): pass\n"
             "class _C: pass\ndef run(): return _g() + _T\n__all__ = ['run']\n",
        "b": "import a\nfrom a import _C\ndef use(): return a._J, _C\n",
    }
    assert unread_private_names(sources) == ["a._K", "a._f"]


def test_every_private_name_is_read():
    sources = {".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text() for p in MODULES}
    assert unread_private_names(sources) == []


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


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """``(qualified name, parameter, position)`` for each defaulted parameter of
    a public function or method; ``position`` counts a call's positional
    arguments (a method's ``self`` or ``cls`` left out) and is None for a
    keyword-only parameter."""
    out = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
                )
                if in_class and not static:
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                out.extend(
                    (prefix + node.name, arg.arg, i)
                    for i, arg in enumerate(positional) if i >= first
                )
                out.extend(
                    (prefix + node.name, arg.arg, None)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )

    visit(tree.body, "", False)
    return out


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """``module.function.parameter`` for each defaulted parameter of a public
    function or method that no call in ``sources`` passes, by position or by
    keyword. Calls match by the called name; one with ``*args`` or
    ``**kwargs`` passes every parameter."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    passed = {}  # called name -> (most positional arguments, keywords), or None for all
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if passed.get(name, ()) is None:
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                passed[name] = None
                continue
            count, keywords = passed.get(name, (0, set()))
            passed[name] = (max(count, len(call.args)), keywords | {k.arg for k in call.keywords})
    flagged = []
    for module, tree in trees.items():
        for qualname, param, position in _defaulted_parameters(tree):
            calls = passed.get(qualname.rsplit(".", 1)[-1], (0, set()))
            if calls is None or param in calls[1] or (position is not None and position < calls[0]):
                continue
            flagged.append(f"{module}.{qualname}.{param}")
    return sorted(flagged)


# Defaulted parameters that no call in the package passes, each with its reason.
DEFAULT_ALLOWLIST = {
    "cli.main.argv": "the console script passes none; the benchmark and the tests pass argv",
}


def test_detects_an_unset_default():
    sources = {
        "a": "def f(x, y=1, z=2, *, k=3, m=4): pass\ndef _p(q=1): pass\n"
             "class C:\n    def g(self, u=1, v=2): pass\n"
             "    @staticmethod\n    def s(u=1): pass\n"
             "def h(n=1): pass\n",
        "b": "from a import f, C, h\n"
             "def run(c, args):\n    f(0, 1, m=2)\n    c.g(1)\n    C.s(5)\n    h(*args)\n",
    }
    assert unset_defaults(sources) == ["a.C.g.v", "a.f.k", "a.f.z"]


def test_every_defaulted_parameter_is_set():
    sources = {".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text() for p in MODULES}
    flagged = [
        name for name in unset_defaults(sources)
        if name.rsplit(".", 1)[0] not in READER_ALLOWLIST
    ]
    assert flagged == sorted(DEFAULT_ALLOWLIST)
