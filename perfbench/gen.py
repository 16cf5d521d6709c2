"""Seeded input generator for the benchmark workloads.

Pure standard library: it reads only `perfbench/golden.json` (the source
documents and the data derived from them by `golden.py`) and never
imports toriq, so the inputs of a seed do not depend on the code under
test.  The same (workload, seed, stream) gives byte-identical documents.  No
input is ever re-drawn or filtered because of how the library treats it.

Each workload yields a list of items.  An item is a dict with an `id`,
a `kind` (`analyze`, `classify` or `cell`), the input document, and the
facts the untimed check needs.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# ROADMAP item 2's reproducer: `analyze` escapes with a bare AssertionError.
PROBE_ID = "probe_roadmap2"
PROBE_DOC = {
    "matrix": [[1, 88, 75, 43, -56, -68, -83], [0, 112, 96, 56, -71, -87, -106]],
    "role": "fan-matrix",
}

# Products of two surfaces: n = 4, 6-7 rays, 9-12 polar vertices.  Pairs
# with 15-16 polar vertices take 20-48 s each and are left out.
PRODUCT_PAIRS = [
    ("dim2_r1_1", "dim2_r1_1"),
    ("bauerle", "dim2_r1_1"),
    ("dim2_r1_2", "dim2_r2_3"),
]

# (weight matrix, factor h, also enumerate the Fano family).  Chosen so a
# pass takes about 9 s; mds_Z at h = 2 alone takes 7-11 s and is left out.
# The Fano flag is set once on each Gorenstein weight matrix.
FAMILY_ITEMS = [
    ("blupP3_X", 1, True),
    ("blupP3_X", 2, False),
    ("blupP3_Xpolar", 1, True),
    ("mds_Z", 1, False),
    ("qfanocanonica_X", 2, False),
    ("bauerle", 3, False),
    ("dim2_r1_1", 3, True),
    ("dim2_r2_1", 3, True),
    ("dim2_r3_1", 2, True),
    ("dim2_r4_1", 2, True),
]

# Weight matrices whose moving cones are sampled, and the number of
# points drawn from each.  A pair names a block-diagonal product.
CELL_SOURCES = [
    (("dim2_r2_1",), 4),
    (("dim2_r3_1",), 8),
    (("dim2_r4_1",), 8),
    (("mds_Z",), 6),
    (("qfanocanonica_X",), 4),
    (("blupP3_X",), 8),
    (("dim2_r1_2", "dim2_r2_3"), 8),
    (("dim2_r2_1", "dim2_r2_6"), 8),
    (("dim2_r1_1", "dim2_r3_2"), 8),
    (("dim2_r2_4", "dim2_r3_3"), 8),
]
COEFF_MAX = 40  # moving-cone ray coefficients are drawn from 1..COEFF_MAX

WORKLOADS = ("fixtures", "products", "families", "cells")


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rng(seed, *parts) -> random.Random:
    return random.Random(":".join([str(seed), *map(str, parts)]))


def unimodular(rng: random.Random, n: int) -> list:
    """A signed row permutation times one shear row_i += c * row_j with
    c = +-1: unimodular, with entries at most doubled so that the cost of
    an input stays close to that of its source."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    return p


def _matmul(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def variant(doc: dict, rng: random.Random, gl: bool = True) -> dict:
    """P * M * S for a seeded unimodular P (when `gl`) and column
    permutation S; fan indices and torsion columns follow the columns."""
    mat = doc["matrix"]
    m = len(mat[0])
    perm = list(range(m))
    rng.shuffle(perm)  # new column j is old column perm[j]
    if gl:
        mat = _matmul(unimodular(rng, len(mat)), mat)
    out = {"matrix": [[row[j] for j in perm] for row in mat], "role": doc["role"]}
    new_index = {old: new for new, old in enumerate(perm)}
    if doc.get("fan") is not None:
        out["fan"] = sorted(sorted(new_index[i - 1] + 1 for i in cone) for cone in doc["fan"])
    if doc.get("torsion") is not None:
        cols = doc["torsion"]["columns"]
        out["torsion"] = {"factors": doc["torsion"]["factors"], "columns": [cols[j] for j in perm]}
    return out


def block_diag(a: list, b: list) -> list:
    wa, wb = len(a[0]), len(b[0])
    return [row + [0] * wb for row in a] + [[0] * wa + row for row in b]


def product_doc(s1: dict, s2: dict) -> dict:
    """Fan-matrix document of the product of two resolved surfaces
    (0-based cones in, 1-based cones out)."""
    m1 = len(s1["matrix"][0])
    fan = sorted(
        sorted([i + 1 for i in c1] + [m1 + j + 1 for j in c2]) for c1 in s1["fan"] for c2 in s2["fan"]
    )
    return {"matrix": block_diag(s1["matrix"], s2["matrix"]), "fan": fan, "role": "fan-matrix"}


def moving_point(rays: list, rng: random.Random) -> list:
    """Positive integer combination of every moving-cone ray: a point in
    the relative interior of the moving cone."""
    point = [0] * len(rays[0])
    for ray in rays:
        c = rng.randint(1, COEFF_MAX)
        point = [p + c * x for p, x in zip(point, ray)]
    return point


def _fixtures(golden: dict, seed: str) -> list:
    items = []
    for name, entry in sorted(golden["fixtures"].items()):
        items.append(
            {
                "id": name,
                "kind": "analyze",
                "doc": variant(entry["doc"], _rng(seed, "fixtures", name)),
                "source": name,
            }
        )
    return items


def _products(golden: dict, seed: str) -> list:
    items = []
    for a, b in PRODUCT_PAIRS:
        name = f"{a}x{b}"
        doc = product_doc(golden["surfaces"][a], golden["surfaces"][b])
        items.append(
            {
                "id": name,
                "kind": "analyze",
                "doc": variant(doc, _rng(seed, "products", name)),
                "factors": [a, b],
            }
        )
    return items


def _families(golden: dict, seed: str) -> list:
    items = []
    for name, h, fano in FAMILY_ITEMS:
        q = golden["weights"][name]["q"]
        # Each (matrix, h) gets its own permutation, so no item reuses the
        # cached work of another and its cost does not hang on the order.
        doc = variant({"matrix": q, "role": "weight-matrix"}, _rng(seed, "families", name, h), gl=False)
        items.append(
            {
                "id": f"{name}:h{h}",
                "kind": "classify",
                "doc": doc,
                "factor": h,
                "fano": fano,
                "signature": f"{name}:h{h}",
            }
        )
    return items


def _cells(golden: dict, seed: str) -> list:
    items = []
    weights = golden["weights"]
    for names, count in CELL_SOURCES:
        label = "x".join(names)
        q = weights[names[0]]["q"]
        for other in names[1:]:
            q = block_diag(q, weights[other]["q"])
        rng = _rng(seed, "cells", label)
        for i in range(count):
            parts = [moving_point(weights[nm]["mov_rays"], rng) for nm in names]
            items.append(
                {
                    "id": f"{label}#{i}",
                    "kind": "cell",
                    "doc": {"matrix": q, "role": "weight-matrix"},
                    "point": [x for part in parts for x in part],
                    "factors": [
                        {"q": weights[nm]["q"], "point": part} for nm, part in zip(names, parts)
                    ]
                    if len(names) > 1
                    else None,
                }
            )
    return items


def generate(workload: str, seed: int, golden: dict | None = None, stream: int = 0) -> list:
    """The items of one workload at one seed, in a seeded order.  Each pass
    of a run draws its own stream, so a run covers several variants of
    every input.  The shuffled order scatters inputs of similar cost over
    the pass, so that no percentile is read from one stretch of time."""
    golden = golden if golden is not None else load_golden()
    make = {"fixtures": _fixtures, "products": _products, "families": _families, "cells": _cells}
    if workload not in make:
        raise ValueError(f"unknown workload {workload!r}")
    items = make[workload](golden, f"{seed}/{stream}")
    _rng(f"{seed}/{stream}", workload, "order").shuffle(items)
    return items


def dump(obj) -> str:
    """Canonical JSON text of a document or manifest."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
