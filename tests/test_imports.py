"""No unused imports, no orphaned private helpers, no never-set defaults,
no package asserts and one broad catch (standard library `ast` only).

`__init__.py` files are skipped by the import scan because their imports
are re-exports; a single import line can opt out with `# noqa: F401`.  A
module-level private definition (`_name`, not a dunder) in the package
must be referenced somewhere in the package, so a helper left behind when
its last caller goes is caught.  Each defaulted parameter of such a
function must be passed by some call in the package, so a parameter that
no caller sets goes with its default.  The package holds no `assert`
statement: `python -O` strips them, so no invariant may live only in one.
The one handler in the package that catches `Exception`, `BaseException`
or everything is the check runner of `verify`, which turns a raise into a
failed check; a broad catch anywhere else would hide the defects that the
oracles exist to find.  The oracle layer (`verify`) and the CLI use only
the public names of the other package modules, so an oracle cannot lean on
the internals of the construction it checks.  Every public function of the
elimination kernel `linalg` is called by another package module, so a
kernel helper kept alive only by a test import is caught.  A cold
`import angulated.cli` loads none of the introspection modules that
`dataclasses` pulls in.  A record is built in one step: no package class
defines `__post_init__`, and each constructor that perfbench's tracer wraps
is its class's own `__init__`.  Records have one equality: no package class
but `Record` defines `__eq__` or `__hash__`.
"""

import ast
import subprocess
import sys
from pathlib import Path

from angulated import Angle, Morphism, SubcatSpec, SumObject

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "angulated").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_checker_flags_an_unused_import():
    src = "import os\nfrom sys import argv, path  # noqa: F401\nimport re\nre.escape\n"
    assert unused_imports(src) == ["os (line 1)"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in FILES
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def orphaned_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level `_name` definitions that no source in `sources` references.

    A reference is a loaded name, an attribute or an imported name anywhere
    in any of the sources; the definition itself does not count.
    """
    defined = []
    used = set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(label, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{label}: {name} (line {line})" for label, name, line in defined
            if name not in used]


def test_checker_flags_an_orphaned_private_helper():
    sources = {
        "a.py": "_KEPT = 1\n_LOST: int = 2\n\ndef _used():\n    return _KEPT\n\n"
                "def _orphan():\n    return 0\n\nclass _Gone:\n    pass\n\n"
                "__all__ = []\n",
        "b.py": "from a import _used\n\ndef run():\n    return _used()\n",
    }
    assert orphaned_private_defs(sources) == [
        "a.py: _LOST (line 2)", "a.py: _orphan (line 7)", "a.py: _Gone (line 10)",
    ]


def test_no_orphaned_private_helpers():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert orphaned_private_defs(sources) == []


def never_passed_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of module-level `_name` functions that no call in
    `sources` passes, by position or by keyword.

    A call reaches a function through its name or an attribute of that
    name; a `*args` may pass any position and a `**kwargs` any parameter.
    """
    defaults, calls = [], []
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaults += [(label, node.name, a.arg, i, node.lineno)
                         for i, a in enumerate(positional) if i >= first]
            defaults += [(label, node.name, a.arg, None, node.lineno)
                         for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]

    def passes(call, name, arg, index):
        func = call.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != name:
            return False
        if any(k.arg in (arg, None) for k in call.keywords):
            return True
        return index is not None and (
            index < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)
        )

    return [f"{label}: {name}({arg}) (line {line})" for label, name, arg, index, line in defaults
            if not any(passes(call, name, arg, index) for call in calls)]


def test_checker_flags_a_never_passed_default():
    sources = {
        "a.py": "def _f(x, y=1, *, z=2):\n    return x\n\n"
                "def _g(x, y=1, z=2):\n    return x\n\n"
                "def _h(x, y=1):\n    return x\n\n"
                "def _k(x=0, **kw):\n    return x\n\n"
                "def public(x=1):\n    return x\n",
        "b.py": "import a\n\na._f(1, 2)\na._g(0, z=3)\na._h(*[1, 2])\n_k(**{})\n",
    }
    assert never_passed_defaults(sources) == ["a.py: _f(z) (line 1)", "a.py: _g(y) (line 4)"]


def test_every_default_of_a_private_function_is_passed_somewhere():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert never_passed_defaults(sources) == []


def assert_statements(source: str) -> list[int]:
    """Line numbers of the `assert` statements in `source`."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_checker_flags_an_assert_statement():
    src = ("def f(x):\n    assert x > 0, 'gone under -O'\n    return x\n\n"
           "assert_like = 'assert x'\nclass C:\n    def g(self):\n        assert self\n")
    assert assert_statements(src) == [2, 8]


def test_no_assert_statements_in_the_package():
    found = {
        path.name: lines for path in PACKAGE if (lines := assert_statements(path.read_text()))
    }
    assert found == {}


BROAD = {"Exception", "BaseException"}


def broad_catches(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each `except` that catches
    `Exception` or `BaseException`, alone or in a tuple, or everything."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and (
                child.type is None
                or any(isinstance(n, ast.Name) and n.id in BROAD for n in ast.walk(child.type))
            ):
                found.append((where, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_a_broad_catch():
    src = ("try:\n    pass\nexcept:\n    pass\n\n"
           "def f():\n    try:\n        pass\n    except ValueError:\n        pass\n"
           "    def g():\n        try:\n            pass\n"
           "        except (KeyError, BaseException) as exc:\n            pass\n"
           "    try:\n        pass\n    except Exception:\n        pass\n")
    assert broad_catches(src) == [("<module>", 3), ("g", 14), ("f", 18)]


def test_one_broad_catch_in_the_package_in_the_verify_runner():
    found = [
        (path.name, where) for path in PACKAGE for where, _ in broad_catches(path.read_text())
    ]
    assert found == [("verify.py", "_run")]


PUBLIC_ONLY = ("verify.py", "cli.py")


def private_names_used(source: str) -> list[str]:
    """`module._name` for each `from .module import _name` and each read of
    `_name` on a package module bound by `from . import module`, in line
    order; dunder names are not private."""
    tree = ast.parse(source)
    modules = {a.asname or a.name: a.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.level and n.module is None
               for a in n.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules
              and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_checker_flags_a_private_name_of_another_module():
    src = ("from . import artheory, wide as w\nfrom .angles import Angle, _min_positions\n"
           "from .core import __all__\n\ndef f(spec):\n    spec._cache\n"
           "    artheory.cover(spec)\n    report = artheory._theorem_b(spec)\n"
           "    w._scan(report)\n    return artheory.__name__\n")
    assert private_names_used(src) == [
        "angles._min_positions (line 2)", "artheory._theorem_b (line 8)", "wide._scan (line 9)",
    ]


def test_oracles_and_cli_use_public_names_only():
    found = {
        name: used for name in PUBLIC_ONLY
        if (used := private_names_used((ROOT / "src" / "angulated" / name).read_text()))
    }
    assert found == {}


def uncalled_public_functions(sources: dict[str, str], module: str) -> list[str]:
    """Public module-level functions of `module` that no other source calls,
    as an attribute of the module's name or by a name imported from it."""
    stem = module.removesuffix(".py")
    public = [(n.name, n.lineno) for n in ast.parse(sources[module]).body
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not n.name.startswith("_")]
    called = set()
    for label, source in sources.items():
        if label == module:
            continue
        tree = ast.parse(source)
        imported = {a.asname or a.name: a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.module == stem for a in n.names}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == stem):
                called.add(func.attr)
            elif isinstance(func, ast.Name) and func.id in imported:
                called.add(imported[func.id])
    return [f"{stem}.{name} (line {line})" for name, line in public if name not in called]


def test_checker_flags_an_uncalled_kernel_function():
    sources = {
        "kernel.py": "def by_attr():\n    return 0\n\ndef by_import():\n    return 1\n\n"
                     "def only_named():\n    return 2\n\ndef only_here():\n    return 3\n\n"
                     "def _private():\n    return only_here()\n",
        "user.py": "from . import kernel\nfrom .kernel import by_import as b\n\n"
                   "def run():\n    hook = kernel.only_named\n    return kernel.by_attr() + b()\n",
    }
    assert uncalled_public_functions(sources, "kernel.py") == [
        "kernel.only_named (line 7)", "kernel.only_here (line 10)",
    ]


def test_every_linalg_function_has_a_package_caller():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert uncalled_public_functions(sources, "linalg.py") == []


SLOW_TO_IMPORT = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cold_import_of_the_cli_loads_no_introspection_module():
    # -S keeps site `.pth` files from loading modules before the package
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import angulated.cli; "
            f"print(*(m for m in {SLOW_TO_IMPORT!r} if m in sys.modules))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def classes_defining(source: str, method: str) -> list[str]:
    """Names of the classes in `source` whose own body defines `method`, by
    a `def` or by an assignment such as `__hash__ = Base.__hash__`."""
    def defines(node):
        if isinstance(node, ast.FunctionDef):
            return node.name == method
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return any(isinstance(t, ast.Name) and t.id == method for t in targets)

    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(map(defines, node.body))]


def test_checker_flags_a_class_defining_a_method():
    src = ("class A:\n    def __post_init__(self):\n        pass\n\n"
           "class B:\n    def __init__(self):\n        pass\n\n"
           "def __post_init__():\n    pass\n")
    assert classes_defining(src, "__post_init__") == ["A"]


def test_records_are_checked_and_set_in_their_one_init():
    found = {
        path.name: names for path in PACKAGE
        if (names := classes_defining(path.read_text(), "__post_init__"))
    }
    assert found == {}
    # perfbench's tracer wraps `vars(cls)["__init__"]` of these four
    assert [cls.__name__ for cls in (SumObject, Morphism, Angle, SubcatSpec)
            if "__init__" not in vars(cls)] == []


def test_checker_flags_a_class_assigning_a_method():
    src = ("class A:\n    __hash__ = object.__hash__\n\n"
           "class B:\n    x: int = 0\n    def __eq__(self, other):\n        return True\n\n"
           "class C:\n    __eq__: object = None\n\n"
           "class D:\n    hash_ = __hash__ = None\n\n"
           "class E:\n    def f(self):\n        __hash__ = 1\n")
    assert classes_defining(src, "__hash__") == ["A", "D"]
    assert classes_defining(src, "__eq__") == ["B", "C"]


def test_only_record_defines_equality_and_hashing():
    # every value class compares and hashes by its fields through `Record`
    found = {
        (path.name, method): names for path in PACKAGE for method in ("__eq__", "__hash__")
        if (names := [n for n in classes_defining(path.read_text(), method) if n != "Record"])
    }
    assert found == {}
