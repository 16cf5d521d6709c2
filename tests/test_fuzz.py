"""Seeded in-process fuzz of the command line.

Random small documents (1-3 rows, n + 1 to n + 5 columns, entries in
[-3, 3], either role, no fan) go through `cli.main` on every subcommand,
and so do documents with an explicit complete fan: the face fan of a
positive rescaling of the columns, which need not refine the face fan of
the columns themselves.  Nothing but SystemExit may leave `main`, and
the exit code must be 0, 2 with an error object, or 1 from `verify`'s
certificates.  The checks raise explicitly, so they also run under
`python -O`.
"""

import json
import math
import random
import warnings

import pytest

from oracles import polar_points_by_elimination
from toriq.cli import main
from toriq.covering import analyze
from toriq.errors import InvalidFan
from toriq.fans import FanData, face_fan
from toriq.gale import _fan_conditions
from toriq.intmat import IntMatrix
from toriq.polytope import VPolytope, fmatrix_index, polar_vertex_matrix

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


def _fan_documents(rng, count):
    """Documents with n = 2 or 3, distinct primitive columns v_j in
    [-3, 3]^n that pass F.a-F.d, and as fan the face fan of the matrix of
    the columns t_j v_j, t_j drawn from 1..3, kept when every t_j v_j is a
    vertex of their hull (so the fan is complete over the v_j)."""
    made = 0
    while made < count:
        n = rng.randint(2, 3)
        m = rng.randint(n + 1, n + 4)
        cols = list(dict.fromkeys(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)))
        if any(math.gcd(*c) != 1 for c in cols) or not all(_fan_conditions(IntMatrix.from_columns(cols))):
            continue
        ts = [rng.randint(1, 3) for _ in cols]
        scaled = IntMatrix.from_columns([[t * x for x in c] for t, c in zip(ts, cols)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if VPolytope(scaled).pruned:
                continue
        made += 1
        yield {"matrix": [list(r) for r in zip(*cols)], "fan": face_fan(scaled).cones_1based()}


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


def test_cli_fuzz(capsys, tmp_path):
    rng = random.Random(1)
    path = tmp_path / "doc.json"
    for doc in _documents(rng, 600):
        path.write_text(json.dumps(doc))
        for cmd in COMMANDS:
            _run(capsys, [cmd[0], str(path), *cmd[1:]], doc)
        n = len(doc["matrix"])
        _run(capsys, ["bounds", "--dim", str(n), "--rank", str(len(doc["matrix"][0]) - n)], doc)


@pytest.mark.filterwarnings("ignore:non-vertex columns pruned")
def test_cli_fuzz_explicit_fans(capsys, tmp_path):
    # every command on explicit complete fans; the covering commands need
    # one that refines the face fan of the columns' hull and uses only its
    # vertices, and name the column or the cone of any other.  Where
    # analyze accepts the fan, the polar points of V and W match one
    # elimination per cone, and the bundle's k and k̂, read off those
    # points, are the indices that fmatrix_index reads off every hull row
    rng = random.Random(2)
    path = tmp_path / "doc.json"
    accepted = refused = 0
    for doc in _fan_documents(rng, 200):
        path.write_text(json.dumps(doc))
        for cmd in COMMANDS:
            _run(capsys, [cmd[0], str(path), *cmd[1:]], doc)
        v = IntMatrix(doc["matrix"])
        fan = FanData(v, [[j - 1 for j in c] for c in doc["fan"]])
        try:
            cd = analyze(v, fan)
        except InvalidFan:
            refused += 1
            continue
        accepted += 1
        for x in (v, cd.W):
            if polar_vertex_matrix(x, fan) != polar_points_by_elimination(x, fan.max_cones):
                pytest.fail(f"polar points of {x} differ from the per-cone elimination on {doc}")
        if (cd.k, cd.k_hat) != (fmatrix_index(v), fmatrix_index(cd.W)):
            pytest.fail(f"indices {cd.k}, {cd.k_hat} differ from fmatrix_index on {doc}")
    if not (accepted > 50 and refused > 20):
        pytest.fail(f"{accepted} fans accepted and {refused} refused")
