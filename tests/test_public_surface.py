"""The package ships only code that the package or its benchmark uses.

Every module-level function and class of ``src/survcare`` must be named
somewhere in the package (outside ``__init__.py``, which only re-exports) or
in the benchmark's own modules.  So must every method and property of those
classes: one counts as used when the package or the benchmark reads it as an
attribute, or names it in a string next to its class (the benchmark patches
some by name).
Special methods, which Python calls itself, are left out.  A name that only
tests use belongs in a ``tests/*_oracle.py`` module instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "survcare"
# read back by the saved-estimator external kind (ROADMAP item 11)
EXEMPT_METHODS = {"KernelEstimator.from_json"}


def module_level_definitions():
    """(path, name, line of the def or class statement) for every module."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.name, node.lineno


def method_definitions():
    """(path, "Class.name", line) for every method and property but the special ones."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield path, f"{node.name}.{item.name}", item.lineno


def non_test_paths():
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    return package + bench


def uses_outside_tests():
    """Attribute names read, and "Class.name" for a string next to its class, outside tests.

    The string form is how a lookup site is named to ``getattr`` or a patch:
    ``(owner, "name", ...)`` in one tuple, list or call.
    """
    uses = set()
    for path in non_test_paths():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                uses.add(node.attr)
            items = node.args if isinstance(node, ast.Call) else getattr(node, "elts", ())
            owners = [item.attr if isinstance(item, ast.Attribute) else item.id
                      for item in items if isinstance(item, (ast.Attribute, ast.Name))]
            uses.update(f"{owner}.{item.value}" for item in items for owner in owners
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return uses


def test_every_library_name_is_used_outside_tests():
    sources = {p: p.read_text(encoding="utf-8").splitlines() for p in non_test_paths()}
    test_only = []
    for def_path, name, def_line in module_level_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(
            word.search(text) and not (path == def_path and number == def_line)
            for path, lines in sources.items()
            for number, text in enumerate(lines, start=1)
        )
        if not used:
            test_only.append(f"{def_path.name}:{def_line} {name}")
    assert not test_only, "defined in src/survcare but used only by tests: " + ", ".join(test_only)


def test_every_method_and_property_is_used_outside_tests():
    uses = uses_outside_tests()
    methods = list(method_definitions())
    assert EXEMPT_METHODS <= {qualname for _, qualname, _ in methods}
    test_only = [f"{path.name}:{line} {qualname}" for path, qualname, line in methods
                 if not {qualname, qualname.split(".")[1]} & uses
                 and qualname not in EXEMPT_METHODS]
    assert not test_only, "methods of src/survcare used only by tests: " + ", ".join(test_only)
