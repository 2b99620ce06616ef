"""The package ships only code that the package or its benchmark uses.

Every module-level function and class of ``src/survcare`` must be named
somewhere in the package (outside ``__init__.py``, which only re-exports) or
in the benchmark's own modules.  A name that only tests use belongs in a
``tests/*_oracle.py`` module instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "survcare"


def module_level_definitions():
    """(path, name, line of the def or class statement) for every module."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.name, node.lineno


def non_test_sources():
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    return {p: p.read_text(encoding="utf-8").splitlines() for p in package + bench}


def test_every_library_name_is_used_outside_tests():
    sources = non_test_sources()
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
