"""Guard for the library's ground rules, read from the source of
`src/toriq`: exact arithmetic only (no float literal, no use of the name
`float`), the standard library only, and no threads or worker
processes."""

import ast
import glob
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "toriq")
BANNED_MODULES = {"threading", "concurrent", "multiprocessing"}


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative: within toriq
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                top = name.split(".")[0]
                if top in BANNED_MODULES:
                    yield node.lineno, f"import of {name}"
                elif top not in sys.stdlib_module_names:
                    yield node.lineno, f"import of {name}, outside the standard library"


def test_source_is_exact_stdlib_and_single_threaded():
    found = []
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    assert any(f.endswith("linprog.py") for f in files)
    for path in files:
        name = os.path.relpath(path, SRC)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found.extend(f"{name}:{line}: {what}" for line, what in _violations(tree))
    assert not found, found


def test_guard_catches_each_rule():
    src = "\n".join([
        "import threading",
        "from concurrent.futures import ThreadPoolExecutor",
        "import numpy",
        "from . import intmat",
        "x = 0.5",
        "y = float(1)",
    ])
    found = [what for _, what in _violations(ast.parse(src))]
    assert found == [
        "import of threading",
        "import of concurrent.futures",
        "import of numpy, outside the standard library",
        "float literal 0.5",
        "the name float",
    ]
