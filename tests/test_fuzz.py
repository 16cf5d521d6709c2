"""Seeded in-process fuzz of the command line.

Random small documents (1-3 rows, n + 1 to n + 5 columns, entries in
[-3, 3], either role, no fan) go through `cli.main` on every subcommand.
Nothing but SystemExit may leave `main`, and the exit code must be 0, 2
with an error object, or 1 from `verify`'s certificates.  The checks
raise explicitly, so they also run under `python -O`.
"""

import json
import random

import pytest

from toriq.cli import main

COMMANDS = (
    ["analyze", "--table"],
    ["gale"],
    ["polar"],
    ["volume"],
    ["cover"],
    ["fan"],
    ["qfano"],
    ["classify"],
    ["verify"],
)


def _documents(rng, count):
    for _ in range(count):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, n + 5)
        yield {
            "matrix": [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)],
            "role": rng.choice(("fan-matrix", "weight-matrix")),
        }


def _run(capsys, argv, doc):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        raise AssertionError(f"{type(exc).__name__} left main on {argv[0]} of {doc}") from exc
    out = capsys.readouterr().out
    allowed = (0, 1, 2) if argv[0] == "verify" else (0, 2)
    if code not in allowed:
        pytest.fail(f"exit {code} from {argv[0]} on {doc}")
    if code == 2 and "error" not in json.loads(out):
        pytest.fail(f"exit 2 without an error object from {argv[0]} on {doc}")


@pytest.mark.filterwarnings("ignore:non-vertex columns pruned")
def test_cli_fuzz(capsys, tmp_path):
    rng = random.Random(1)
    path = tmp_path / "doc.json"
    for doc in _documents(rng, 600):
        path.write_text(json.dumps(doc))
        for cmd in COMMANDS:
            _run(capsys, [cmd[0], str(path), *cmd[1:]], doc)
        n = len(doc["matrix"])
        _run(capsys, ["bounds", "--dim", str(n), "--rank", str(len(doc["matrix"][0]) - n)], doc)
