"""Untimed correctness checks of one pass's outputs.

Each check returns None when the output is right, else a one-line reason.
`fixtures` items must match the golden report of their source fixture
byte-for-byte; `products` must satisfy the product identities against
the factors' golden reports; `families` must match the golden
signatures; `cells` must give a complete fan whose nef cone holds the
point and, for products, the product of the factors' cell fans.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from golden import family_signature


def _num(x):
    return Fraction(x) if isinstance(x, str) else x


def check_fixture(golden: dict, item: dict, res: dict):
    ref = golden["fixtures"][item["source"]]
    if res["exit"] != ref["exit"]:
        return f"exit {res['exit']} ({res['error']}), golden {ref['exit']}"
    if res["stdout"] != ref["stdout"]:
        return "report differs from the golden report"
    return None


def check_product(golden: dict, item: dict, res: dict):
    if res["exit"] != 0:
        return f"exit {res['exit']} ({res['error']})"
    out = json.loads(res["stdout"])
    f1, f2 = (json.loads(golden["fixtures"][name]["stdout"]) for name in item["factors"])
    for key in ("n", "m", "r"):
        if out[key] != f1[key] + f2[key]:
            return f"{key} = {out[key]}, factors {f1[key]} + {f2[key]}"
    if _num(out["mult"]) != _num(f1["mult"]) * _num(f2["mult"]):
        return "mult is not the product of the factors' mult"
    k1, k2 = f1["k"], f2["k"]
    if out["k"] != math.lcm(k1, k2):
        return f"k = {out['k']}, lcm of factors {math.lcm(k1, k2)}"
    d1 = Fraction(_num(f1["degree_scaled"]), k1 ** f1["n"])
    d2 = Fraction(_num(f2["degree_scaled"]), k2 ** f2["n"])
    if Fraction(_num(out["degree_scaled"]), out["k"] ** out["n"]) != 6 * d1 * d2:
        return "degree_scaled / k^4 != 6 d1 d2"
    return None


def check_family(golden: dict, item: dict, res: dict):
    if res["exit"] != 0:
        return f"exit {res['exit']} ({res['error']})"
    got = family_signature(res["stdout"], res["extra"] if item["fano"] else None)
    if got != golden["families"][item["signature"]]:
        return "family signature differs from the golden signature"
    return None


class CellChecker:
    """Cell checks; factor fans are computed once per (factor, point)."""

    def __init__(self):
        from toriq import IntMatrix, fan_from_point
        from toriq.linprog import cone_contains

        self._int = IntMatrix
        self._fan_from_point = fan_from_point
        self._cone_contains = cone_contains
        self._factor_cones = {}

    def _cones(self, q, point):
        key = json.dumps([q, point])
        if key not in self._factor_cones:
            fan = self._fan_from_point(self._int(q), tuple(point))
            self._factor_cones[key] = [list(c) for c in fan.max_cones]
        return self._factor_cones[key]

    def __call__(self, golden: dict, item: dict, res: dict):
        if res["exit"] != 0:
            return f"exit {res['exit']} ({res['error']})"
        out = json.loads(res["stdout"])
        if out["complete"] is not True:
            return "cell fan is not complete"
        if not self._cone_contains([tuple(g) for g in res["extra"]], tuple(item["point"])):
            return "point is not in the nef cone"
        if item["factors"]:
            (a, b) = item["factors"]
            shift = len(a["q"][0])
            want = sorted(
                sorted(c1 + [shift + j for j in c2])
                for c1 in self._cones(a["q"], a["point"])
                for c2 in self._cones(b["q"], b["point"])
            )
            got = sorted(sorted(i - 1 for i in c) for c in out["max_cones"])
            if got != want:
                return "cell fan is not the product of the factors' cell fans"
        return None


def checker(workload: str):
    if workload == "fixtures":
        return check_fixture
    if workload == "products":
        return check_product
    if workload == "families":
        return check_family
    return CellChecker()
