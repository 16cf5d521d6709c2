"""The benchmark's own tests.

    python3 -m pytest -q perfbench

They run small manifests through the real pass worker (about ten
seconds in all).
"""

import contextlib
import io
import itertools
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SMALL_FAMILIES = [("dim2_r1_1", 3, True), ("bauerle", 3, False)]


@pytest.fixture
def golden():
    return gen.load_golden()


def run_bench(monkeypatch, golden, *args) -> tuple:
    monkeypatch.setattr(gen, "load_golden", lambda: golden)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(args)) == 0
    lines = buf.getvalue().splitlines()
    return json.loads(lines[-2][len("info "):]), json.loads(lines[-1])


def one_pass(tmp_path, items, *flags) -> list:
    manifest = run.write_inputs(items, str(tmp_path))
    return run.run_worker(manifest, str(tmp_path / "out.json"), *flags)["items"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(golden, workload):
    first = gen.dump(gen.generate(workload, 7, golden))
    assert gen.dump(gen.generate(workload, 7, golden)) == first
    assert gen.dump(gen.generate(workload, 8, golden)) != first


def test_variant_permutes_columns_and_reindexes_the_fan(golden):
    src = golden["fixtures"]["blupP3_X"]["doc"]
    doc = gen.variant(src, gen._rng(3, "t"), gl=False)
    assert doc["matrix"] != src["matrix"]

    def cones(d):
        cols = list(zip(*d["matrix"]))
        return sorted(sorted(cols[i - 1] for i in c) for c in d["fan"])

    assert cones(doc) == cones(src)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unimodular_has_unit_determinant(n):
    p = gen.unimodular(gen._rng(n, "u"), n)
    det = sum(
        (-1) ** sum(a > b for i, a in enumerate(s) for b in s[i + 1 :]) * math.prod(p[i][s[i]] for i in range(n))
        for s in itertools.permutations(range(n))
    )
    assert abs(det) == 1


def test_hd_quantile_matches_plain_quantiles_on_even_spacing():
    assert run.hd_quantile([0.5], 0.5) == pytest.approx(0.5)
    assert run.hd_quantile([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert run.hd_quantile(list(range(1, 102)), 0.5) == pytest.approx(51.0)
    assert 90 < run.hd_quantile(list(range(1, 102)), 0.9) < 93


def test_corrupted_golden_value_fails_the_run(monkeypatch, golden):
    monkeypatch.setattr(gen, "FAMILY_ITEMS", SMALL_FAMILIES)
    info, result = run_bench(monkeypatch, golden, "--workload", "families", "--seed", "1", "--seconds", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0

    bad = json.loads(json.dumps(golden))
    bad["families"]["bauerle:h3"]["kept"] += 1
    info, result = run_bench(monkeypatch, bad, "--workload", "families", "--seed", "1", "--seconds", "0")
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.5
    assert [f.split(":")[0] for f in info["failed_inputs"]] == ["pass 0 bauerle", "pass 1 bauerle"]


def test_traced_and_untraced_passes_agree(monkeypatch, golden, tmp_path):
    monkeypatch.setattr(gen, "FAMILY_ITEMS", SMALL_FAMILIES)
    items = gen.generate("families", 2, golden) + gen.generate("cells", 2, golden)[:3]
    plain = one_pass(tmp_path, items)
    traced = one_pass(tmp_path, items, "--trace")
    strip = lambda rs: [{k: v for k, v in r.items() if k != "seconds"} for r in rs]  # noqa: E731
    assert strip(plain) == strip(traced)

    info, result = run_bench(monkeypatch, golden, "--workload", "families", "--seed", "2", "--seconds", "0", "--trace", "1")
    assert result["correct"]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["classify.subgroups.calls"]["value"] > 0


def test_mds_w_is_rejected_with_invalid_fan(golden, tmp_path):
    ref = golden["fixtures"]["mds_W"]
    assert ref["exit"] == 2 and json.loads(ref["stdout"])["error"]["type"] == "InvalidFan"
    item = next(i for i in gen.generate("fixtures", 4, golden) if i["id"] == "mds_W")
    (res,) = one_pass(tmp_path, [item])
    assert res["exit"] == 2 and json.loads(res["stdout"])["error"]["type"] == "InvalidFan"
    assert checks.check_fixture(golden, item, res) is None


def test_probe_is_the_recorded_known_defect(tmp_path):
    ok, status = run.run_probe(str(tmp_path))
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        (defect,) = json.load(fh)["known_defects"]
    assert not ok and defect["status_at_seed"].startswith(status)
