"""Build (or check) `perfbench/golden.json`, the benchmark's references.

    python3 perfbench/golden.py            # rewrite golden.json
    python3 perfbench/golden.py --check    # rebuild in memory, compare bytes

Run from the repository root.  The file holds, for the commit it was
built at:

- `fixtures`: every document under `fixtures/` (matrix, fan, role,
  torsion) with the exit code and exact stdout of `toriq analyze` on it;
  `mds_W` is recorded as exit 2 with an `InvalidFan` error object;
- `surfaces`: the resolved fan matrix and 0-based maximal cones of each
  surface used as a product factor;
- `weights`: the weight matrix (the fixture matrix, or the Gale dual of a
  fan matrix) and the moving-cone rays of each family and cell source;
- `families`: per (weight matrix, h) the kept/rejected counts, the sorted
  (order, mult, index) of the kept quotients and, where enumerated, the
  sorted Fano-family multiplicities.

The benchmark compares seeded variants of these inputs against these
values; it never regenerates them itself.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402


def _toriq():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import toriq.cli

    return toriq.cli


def run_cli(cli, argv) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def source_doc(raw: dict) -> dict:
    return {k: raw[k] for k in ("matrix", "fan", "role", "torsion") if raw.get(k) is not None}


def family_signature(stdout: str, fano_mults) -> dict:
    """What the families check compares: invariant under column
    permutation of the weight matrix."""
    out = json.loads(stdout)
    return {
        "kept": len(out["kept"]),
        "rejected": len(out["rejected"]),
        "kept_sig": sorted([k["order"], k["mult"], k["index"]] for k in out["kept"]),
        "fano": sorted(fano_mults) if fano_mults is not None else None,
    }


def build(workdir: str) -> dict:
    cli = _toriq()
    from toriq import IntMatrix, enumerate_fano_family, gale_dual, mov_cone

    fixtures = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as fh:
            doc = source_doc(json.load(fh))
        code, stdout = run_cli(cli, ["analyze", path])
        fixtures[name] = {"doc": doc, "exit": code, "stdout": stdout}

    surfaces = {}
    for name in sorted({n for pair in gen.PRODUCT_PAIRS for n in pair}):
        v, fan = cli.resolve_variety(cli.load_document(os.path.join(ROOT, "fixtures", name + ".json")))
        surfaces[name] = {"matrix": [list(r) for r in v.data], "fan": [list(c) for c in fan.max_cones]}

    names = {n for n, _, _ in gen.FAMILY_ITEMS}
    names |= {n for src, _ in gen.CELL_SOURCES for n in src}
    weights = {}
    for name in sorted(names):
        doc = fixtures[name]["doc"]
        m = IntMatrix(doc["matrix"])
        q = m if doc["role"] == "weight-matrix" else gale_dual(m)
        weights[name] = {
            "q": [list(r) for r in q.data],
            "mov_rays": sorted(list(g) for g in mov_cone(q).generators),
        }

    families = {}
    os.makedirs(workdir, exist_ok=True)
    for name, h, fano in gen.FAMILY_ITEMS:
        path = os.path.join(workdir, f"golden-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.dump({"matrix": weights[name]["q"], "role": "weight-matrix"}))
        code, stdout = run_cli(cli, ["classify", path, "--factor", str(h)])
        if code != 0:
            raise SystemExit(f"classify failed on {name} at h = {h}: {stdout}")
        mults = [e[2] for e in enumerate_fano_family(IntMatrix(weights[name]["q"]))] if fano else None
        families[f"{name}:h{h}"] = family_signature(stdout, mults)

    return {"fixtures": fixtures, "surfaces": surfaces, "weights": weights, "families": families}


def render(golden: dict) -> str:
    return json.dumps(golden, sort_keys=True, indent=1) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="fail unless a rebuild reproduces golden.json")
    args = ap.parse_args(argv)
    text = render(build(os.path.join(ROOT, ".perfbench_work", "golden")))
    if args.check:
        with open(gen.GOLDEN_PATH, "r", encoding="utf-8") as fh:
            same = fh.read() == text
        print("golden.json reproduces" if same else "golden.json differs from a rebuild")
        return 0 if same else 1
    with open(gen.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
