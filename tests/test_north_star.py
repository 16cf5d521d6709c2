"""Guard for the library's ground rules, read from the source of
`src/toriq`: exact arithmetic only (no float literal, no use of the name
`float`), the standard library only, and no threads or worker
processes.  Importing the CLI loads no standard-library module beyond
those the sources import themselves, so start-up pays for nothing else."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

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


def _imported_modules():
    """Every absolute module name an import in `src/toriq` names."""
    names = set()
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names.add(node.module)
    return sorted(names)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_cli_import_adds_only_toriq_modules(flags):
    # with the standard-library modules toriq imports already loaded,
    # importing the CLI adds toriq's own modules and nothing else; in
    # particular it loads neither dataclasses nor inspect (which alone
    # import ast, dis and tokenize), nor argparse and its gettext
    modules = _imported_modules()
    assert "json" in modules and not any(m.startswith("toriq") for m in modules)
    code = "; ".join([
        "import json, sys",
        f"import {', '.join(modules)}",
        "before = set(sys.modules)",
        "import toriq.cli",
        "added = sorted(set(sys.modules) - before)",
        "print(json.dumps([added, [m for m in ('dataclasses', 'inspect', 'argparse', 'gettext') if m in sys.modules]]))",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True)
    added, heavy = json.loads(out.stdout)
    assert "toriq.cli" in added
    assert all(m == "toriq" or m.startswith("toriq.") for m in added), added
    assert heavy == [], heavy
