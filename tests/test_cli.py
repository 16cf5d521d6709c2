import json
import math
import os
import random
import sys

import pytest

from conftest import FIXTURES, fixture_path, load_fixture
from oracles import _encode, snf_by_alternating_hnf
from toriq.cli import _parse, build_report, load_document, main, resolve_variety
from toriq.errors import ToriqError
from toriq.intmat import IntMatrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_blowup(capsys):
    code, out = run_cli(capsys, "analyze", fixture_path("blupP3_X"))
    assert code == 0
    assert out["mult"] == 1
    assert out["modulus"] == 8
    assert out["weight_order"] == 4
    assert out["weight_group"] == "Z/2 + Z/2"
    assert out["degree_scaled"] == 48


def test_analyze_weight_matrix_role(capsys):
    code, out = run_cli(capsys, "analyze", fixture_path("dim2_r1_1"))
    assert code == 0
    assert out["weight_group"] == "Z/3"
    assert out["degree_scaled"] == 9  # the plane


def test_gale_command(capsys):
    code, out = run_cli(capsys, "gale", fixture_path("bauerle"))
    assert code == 0
    assert out["gale_dual"] == [[1, 3, 4]]
    assert out["input_class"]["is_F"] and out["input_class"]["is_reduced"]


def test_polar_command(capsys):
    code, out = run_cli(capsys, "polar", fixture_path("bauerle"))
    assert code == 0
    assert out["k"] == 6
    assert out["degree_scaled"] == 48


def test_polar_command_on_every_complete_fixture(capsys):
    # polar_vertices lists, cone by cone in fan.max_cones order, the
    # Fraction solution of <x, v_j> = -1 over the cone's generators,
    # each entry an int or a "p/q" string (docs/format.md); and on the
    # face fan polar_vertex_matrix gives reduced numerators over the index
    import glob
    import os
    from fractions import Fraction

    from oracles import solve_unique
    from toriq.fans import face_fan, is_complete
    from toriq.polytope import fmatrix_index, polar_vertex_matrix

    def encoded(x: Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    checked = 0
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        v, fan = resolve_variety(load_document(path))
        if not is_complete(fan):
            continue
        code, out = run_cli(capsys, "polar", path)
        assert code == 0, path
        points = [solve_unique([v.col(j) for j in g], [-1] * len(g)) for g in fan.max_cones]
        assert out["polar_vertices"] == [[encoded(x[i]) for x in points] for i in range(v.rows)], path
        p, d = polar_vertex_matrix(v, face_fan(v))
        assert d == fmatrix_index(v) and math.gcd(d, *(x for r in p.data for x in r)) == 1, path
        checked += 1
    assert checked == 32


def test_volume_command(capsys):
    code, out = run_cli(capsys, "volume", fixture_path("blupP3_X"))
    assert code == 0
    assert out["normalized_volume"] == 8


def test_cover_command(capsys):
    code, out = run_cli(capsys, "cover", fixture_path("bauerle"))
    assert code == 0
    assert out["covering_group"] == "Z/4"
    assert out["mult"] == 4
    assert IntMatrix(out["unitary_cover"])  # parses back as a matrix


def test_fan_command(capsys):
    code, out = run_cli(capsys, "fan", fixture_path("mds_Zprime"))
    assert code == 0
    assert out["complete"]
    assert [1, 2, 4, 5] in out["max_cones"]


def test_qfano_command(capsys):
    code, out = run_cli(capsys, "qfano", fixture_path("mds_Z"))
    assert code == 0
    assert out["input_qfano"] is False
    assert [1, 2, 4, 5] in out["representative_cones"]


def test_qfano_command_on_incomplete_fans(tmp_path, capsys):
    # P^2 missing a cone, P^2 with no cone at all, and the non-complete
    # mds_W: none is Q-Fano
    doc = tmp_path / "p2_missing_a_cone.json"
    doc.write_text(json.dumps({"matrix": [[1, 0, -1], [0, 1, -1]], "role": "fan-matrix", "fan": [[1, 2], [2, 3]]}))
    empty = tmp_path / "p2_no_cone.json"
    empty.write_text(json.dumps({"matrix": [[1, 0, -1], [0, 1, -1]], "role": "fan-matrix", "fan": []}))
    for path in (str(doc), str(empty), fixture_path("mds_W")):
        code, out = run_cli(capsys, "qfano", path)
        assert code == 0
        assert out["input_qfano"] is False, path
    code, out = run_cli(capsys, "analyze", str(empty))
    assert code == 2
    assert out["error"] == {"type": "InvalidFan", "message": "covering invariants need a complete fan"}


def test_classify_command(capsys):
    code, out = run_cli(capsys, "classify", fixture_path("bauerle"), "--factor", "1")
    assert code == 0
    assert sorted(e["order"] for e in out["kept"]) == [1, 2]
    assert sorted(e["order"] for e in out["rejected"]) == [3, 6]
    assert all("witness_column" in e for e in out["rejected"])


def _family_invariants(out):
    """What a classify output says about the family, whatever the torsion
    coordinates: the factor, the set of subgroup handles, and the
    multisets of kept (order, fan_matrix, mult, index) and rejected
    (order, fan_matrix, witness_column)."""
    if "error" in out:
        return out
    key = lambda e, *names: json.dumps([e[n] for n in ("order", "fan_matrix", *names)])
    return (
        out["factor"],
        sorted({json.dumps(e["subgroup"]) for e in out["kept"] + out["rejected"]}),
        sorted(key(e, "mult", "index") for e in out["kept"]),
        sorted(key(e, "witness_column") for e in out["rejected"]),
    )


def test_classify_family_does_not_depend_on_torsion_coordinates(capsys, monkeypatch):
    # the torsion matrix reads its coordinates off the Smith transforms;
    # another valid pair (the alternating-HNF oracle's) may pair subgroup
    # handles with other quotients, but the family must be the same
    from toriq import classify

    names = sorted(f[:-5] for f in os.listdir(FIXTURES) if f.endswith(".json"))
    runs = {}
    for snf in (classify.snf, snf_by_alternating_hnf):
        monkeypatch.setattr(classify, "snf", snf)
        for name in names:
            for h in ("1", "2", "3"):
                code, out = run_cli(capsys, "classify", fixture_path(name), "--factor", h)
                runs.setdefault((name, h), []).append((code, out))
    differ = []
    for (name, h), ((code, out), (oracle_code, oracle_out)) in runs.items():
        assert code == oracle_code, (name, h)
        assert _family_invariants(out) == _family_invariants(oracle_out), (name, h)
        if out != oracle_out:
            differ.append((name, h))
    # the two transforms give other coordinates on these fixtures, so the
    # comparison above is not vacuous
    assert {(f"qfanocanonica_{x}polar", h) for x in "YZ" for h in "23"} <= set(differ)


def test_bounds_command(capsys):
    code, out = run_cli(capsys, "bounds", "--dim", "3", "--rank", "2")
    assert code == 0
    assert out["fano_bound"] == 16
    code, out = run_cli(
        capsys, "bounds", "--dim", "3", "--rank", "2", "--index", "6", "--fake-wps", "--conjecture"
    )
    assert out["qgorenstein_bound"] == 3456
    assert "fake_wps_bound" in out and "conjecture_bound" in out


def test_verify_all_fixture_varieties(capsys):
    for name in ("blupP3_X", "bauerle", "qfanocanonica_X", "mds_Zprime"):
        code, out = run_cli(capsys, "verify", fixture_path(name))
        assert code == 0, name
        assert out["ok"]


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"matrix": "nope"}')
    code, out = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert out["error"]["type"] == "invalid-input"
    missing = tmp_path / "missing.json"
    code, out = run_cli(capsys, "analyze", str(missing))
    assert code == 2


@pytest.mark.parametrize("matrix", [[[]], [[], []]])
@pytest.mark.parametrize(
    "command", ["analyze", "gale", "polar", "volume", "cover", "fan", "qfano", "classify", "verify"]
)
def test_matrix_without_columns_is_invalid_input(tmp_path, capsys, matrix, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, out = run_cli(capsys, command, str(path))
    assert code == 2
    assert out["error"] == {"type": "invalid-input", "message": "'matrix' must be a non-empty 2-D array"}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-string limit")
def test_bound_beyond_the_digit_limit_is_too_large(capsys):
    # fano_bound(15, 1) has 6,668 digits, past the interpreter's default
    # limit of 4,300; fano_bound(14, 1) is within it and still printed
    from toriq.bounds import fano_bound

    code, out = run_cli(capsys, "bounds", "--dim", "14", "--rank", "1")
    assert code == 0
    assert out["fano_bound"] == str(fano_bound(14, 1))
    code, out = run_cli(capsys, "bounds", "--dim", "15", "--rank", "1")
    assert code == 2
    assert out["error"]["type"] == "TooLarge"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-string limit")
def test_bounds_answer_at_once_on_huge_arguments():
    # s_64 has more than 2^62 log10(2) digits, and t_{k,15} >= k^(2^14)
    # behind the fake-wps and conjectural bounds has more than 16 million
    # at k = 10^1000, so both are refused before any arithmetic, with the
    # error the printer gives; the McMullen count for a huge rank is
    # bisected, not searched
    import subprocess

    import toriq

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(toriq.__file__)))

    def bounds(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "toriq.cli", "bounds", *argv],
            env=env, capture_output=True, text=True, timeout=20,
        )
        return proc.returncode, json.loads(proc.stdout)

    limit = sys.get_int_max_str_digits()
    message = f"an output integer has more than {limit} digits, the interpreter's limit"
    assert bounds("--dim", "64", "--rank", "1") == (2, {"error": {"type": "TooLarge", "message": message}})
    huge_t = bounds("--dim", "15", "--rank", "1", "--index", str(10**1000), "--fake-wps", "--conjecture")
    assert huge_t == (2, {"error": {"type": "TooLarge", "message": message}})
    code, out = bounds("--dim", "2", "--rank", "1000000000")
    assert code == 0
    assert out["mcmullen"] == 1000000002


def test_verify_failure_exit_code(capsys):
    # hard failures cannot arise from consistent inputs, so exercise the
    # accounting directly through a synthetic certificate
    from toriq.bounds import BoundCertificate
    from toriq.cli import _print_failures

    report = {
        "certificates": [
            {
                "name": "synthetic",
                "inputs": [],
                "bound": 1,
                "observed": 2,
                "kind": "upper",
                "satisfied": False,
                "applicable": True,
                "conjectural": False,
            }
        ]
    }
    assert _print_failures(report) == 1
    cert = BoundCertificate("synthetic", (), 1, 2, False)
    assert cert.hard_failure()


def test_failed_identity_is_reported_not_raised(capsys, monkeypatch):
    # a covering identity that fails is a certificate, not an exception:
    # with |Q| off by one, analyze still exits 0 with the identity
    # unsatisfied, and verify exits 1 with one FAIL line per hard failure.
    # Checks raise explicitly, so they also run under python -O
    from toriq import covering

    real = covering.weight_modulus
    monkeypatch.setattr(covering, "weight_modulus", lambda q: real(q) + 1)
    path = fixture_path("dim2_r2_1")
    code, report = run_cli(capsys, "analyze", path)
    volume = next(c for c in report["certificates"] if c["name"] == "mult-modulus-volume-identity")
    if code != 0 or volume["satisfied"]:
        raise AssertionError(f"analyze exits {code} with {volume}")
    code = main(["verify", path])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    hard = [c["name"] for c in out["certificates"] if c["applicable"] and not c["conjectural"] and not c["satisfied"]]
    failed = [line.split(":")[0][len("FAIL ") :] for line in captured.err.splitlines() if line.startswith("FAIL ")]
    if code != 1 or "mult-modulus-volume-identity" not in hard or failed != hard or out["failures"] != len(hard):
        raise AssertionError(f"verify exits {code}, hard failures {hard}, FAIL lines {failed}")


def test_one_based_index_round_trip():
    doc = load_document(fixture_path("blupP3_X"))
    v, fan = resolve_variety(doc)
    raw = load_fixture("blupP3_X")
    assert sorted(fan.cones_1based()) == sorted(sorted(c) for c in raw["fan"])
    assert all(min(c) >= 1 for c in raw["fan"])
    assert all(min(c) >= 0 for c in fan.max_cones)


def test_report_round_trip_byte_stable_on_every_fixture():
    import glob
    import os

    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        if name == "mds_W":
            continue  # deliberately non-complete; covered below
        doc = load_document(path)
        v, fan = resolve_variety(doc)
        report = build_report(v, fan)
        s1 = json.dumps(_encode(report), sort_keys=True)
        parsed = json.loads(s1)
        s2 = json.dumps(parsed, sort_keys=True)
        assert s1 == s2, name


def _unimodular(rng, n):
    """A signed row permutation times two shears row_i += c * row_j."""
    perm = rng.sample(range(n), n)
    p = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    return IntMatrix(p)


def test_report_invariant_under_gl_and_column_permutation(tmp_path):
    # P * M * S with P in GL(Z) and S a column permutation, fan indices
    # following the columns, is the same variety: every report entry agrees
    import glob
    import os
    import random

    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        if name == "mds_W":
            continue  # deliberately non-complete
        with open(path) as fh:
            raw = json.load(fh)
        rng = random.Random(f"gl-perm:{name}")
        mat = _unimodular(rng, len(raw["matrix"])) * IntMatrix(raw["matrix"])
        perm = rng.sample(range(mat.cols), mat.cols)  # new column j is old column perm[j]
        moved = {
            "matrix": [[row[j] for j in perm] for row in mat.data],
            "role": raw.get("role", "fan-matrix"),
        }
        if raw.get("fan") is not None:
            new_index = {old: new for new, old in enumerate(perm)}
            moved["fan"] = [[new_index[i - 1] + 1 for i in cone] for cone in raw["fan"]]
        moved_path = tmp_path / f"{name}.json"
        moved_path.write_text(json.dumps(moved))
        want = build_report(*resolve_variety(load_document(path)))
        got = build_report(*resolve_variety(load_document(str(moved_path))))
        assert got == want, name


def test_analyze_matches_golden_reports_on_every_fixture(capsys):
    # the benchmark's reference reports: exit code and exact stdout of
    # `toriq analyze` per fixture (read only; rebuilt by perfbench/golden.py)
    import glob
    import os

    with open(os.path.join(FIXTURES, "..", "perfbench", "golden.json")) as fh:
        golden = json.load(fh)["fixtures"]
    names = sorted(
        os.path.splitext(os.path.basename(p))[0] for p in glob.glob(os.path.join(FIXTURES, "*.json"))
    )
    assert names == sorted(golden)
    for name in names:
        code = main(["analyze", fixture_path(name)])
        out = capsys.readouterr().out
        assert (code, out) == (golden[name]["exit"], golden[name]["stdout"]), name


def test_classify_matches_golden_family_signatures(capsys, tmp_path):
    # the benchmark's `families` references: `toriq classify --factor h`
    # on each weight matrix, plus the reflexive family where recorded
    import os

    from toriq.classify import enumerate_fano_family

    with open(os.path.join(FIXTURES, "..", "perfbench", "golden.json")) as fh:
        golden = json.load(fh)
    assert golden["families"]
    for item, expected in sorted(golden["families"].items()):
        name, h = item.rsplit(":h", 1)
        q = golden["weights"][name]["q"]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"matrix": q, "role": "weight-matrix"}))
        code, out = run_cli(capsys, "classify", str(path), "--factor", h)
        assert code == 0, item
        got = {
            "kept": len(out["kept"]),
            "rejected": len(out["rejected"]),
            "kept_sig": sorted([k["order"], k["mult"], k["index"]] for k in out["kept"]),
            "fano": None,
        }
        if expected["fano"] is not None:
            got["fano"] = sorted(e[2] for e in enumerate_fano_family(IntMatrix(q)))
        assert got == expected, item


def test_non_complete_fan_is_rejected(capsys):
    code, out = run_cli(capsys, "analyze", fixture_path("mds_W"))
    assert code == 2
    assert out["error"]["type"] == "InvalidFan"


def test_column_in_no_maximal_cone_is_a_named_error(tmp_path, capsys):
    # column 6 lies inside the cone over columns 5 and 7, so the face fan
    # has no maximal cone with it as a ray
    doc = tmp_path / "probe.json"
    doc.write_text(json.dumps({"matrix": [
        [1, 88, 75, 43, -56, -68, -83],
        [0, 112, 96, 56, -71, -87, -106],
    ]}))
    code = main(["analyze", str(doc)])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 2
    assert out["error"]["type"] == "InvalidFan"
    assert "column 6" in out["error"]["message"]
    assert captured.err == "toriq: warning: non-vertex columns pruned from polytope input\n"


@pytest.mark.parametrize("name, code, out", [
    ("dim2_r1_2", 0, {"normalized_volume": 1}),
    ("dim2_r1_1", 2, {"error": {"type": "NotFullDimensional", "message": "polytope is not full-dimensional"}}),
])
def test_volume_prints_library_warnings_as_toriq_lines(tmp_path, name, code, out):
    # a weight-matrix document's columns include non-vertices of their
    # hull: the library's warning reaches stderr as one toriq line that
    # names no source file, whatever the working directory
    import os
    import subprocess
    import sys

    import toriq

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(toriq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "toriq.cli", "volume", os.path.abspath(fixture_path(name))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, json.loads(proc.stdout)) == (code, out)
    assert proc.stderr == "toriq: warning: non-vertex columns pruned from polytope input\n"


NON_EXTREME_GENERATORS = [
    # column 3 = (-2, 0) lies inside the face fan's cone over columns 1, 3, 5
    ({"matrix": [[-2, -1, -2, 2, -2, 3, 0], [-1, -3, 0, 3, 1, 2, -3]], "role": "fan-matrix"},
     "column 3 of the fan matrix is not an extreme ray of the cone (1, 3, 5)"),
    # -K = (-3, 0) is on the boundary of Mov(Q); its cell fan's cone over
    # columns 1, 2, 4 has column 4 inside it
    ({"matrix": [[-2, -1, -2, 2], [2, 1, 0, -3]], "role": "weight-matrix"},
     "column 4 of the fan matrix is not an extreme ray of the cone (1, 2, 4)"),
]


@pytest.mark.parametrize("doc, message", NON_EXTREME_GENERATORS, ids=["fan-matrix", "weight-matrix"])
def test_generator_inside_its_cone_is_a_named_error(tmp_path, capsys, doc, message):
    # the covering identities fail on such a fan; analyze and verify end in
    # exit 2 with the column and the cone named, also without asserts
    import os
    import subprocess
    import sys

    import toriq

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "verify"):
        code, out = run_cli(capsys, command, str(path))
        assert code == 2, command
        assert out["error"] == {"type": "InvalidFan", "message": message}
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(toriq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "toriq.cli", "verify", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == {"type": "InvalidFan", "message": message}


def test_fan_point_of_the_wrong_length_is_invalid_input(capsys):
    # the weight matrices have r = 1 (bauerle) and r = 2 (mds_Zprime); a
    # longer or shorter point was cut to fit
    for name, point in (("bauerle", "1,2,3,4,5,6,7"), ("mds_Zprime", "1"), ("mds_Zprime", "2,2,2")):
        code, out = run_cli(capsys, "fan", fixture_path(name), "--point", point)
        assert code == 2, (name, point)
        assert out["error"]["type"] == "invalid-input"


# Command lines and what argparse parsed them to, recorded before the
# command table replaced it: the handler and every attribute.
PARSED = [
    (["analyze", "x"], "cmd_analyze", {"path": "x", "table": False}),
    (["analyze", "--table", "x"], "cmd_analyze", {"path": "x", "table": True}),
    (["gale", "x"], "cmd_gale", {"path": "x"}),
    (["polar", "x"], "cmd_polar", {"path": "x"}),
    (["volume", "x"], "cmd_volume", {"path": "x"}),
    (["cover", "x"], "cmd_cover", {"path": "x"}),
    (["fan", "x"], "cmd_fan", {"path": "x", "point": None}),
    (["fan", "x", "--point", "1,2"], "cmd_fan", {"path": "x", "point": "1,2"}),
    (["fan", "--point=3,4", "x"], "cmd_fan", {"path": "x", "point": "3,4"}),
    (["fan", "x", "--point=-1,2"], "cmd_fan", {"path": "x", "point": "-1,2"}),
    (["qfano", "x"], "cmd_qfano", {"path": "x"}),
    (["classify", "x"], "cmd_classify", {"path": "x", "factor": 1}),
    (["classify", "x", "--factor", "2"], "cmd_classify", {"path": "x", "factor": 2}),
    (["classify", "x", "--factor=3"], "cmd_classify", {"path": "x", "factor": 3}),
    (["classify", "x", "--fac", "3"], "cmd_classify", {"path": "x", "factor": 3}),
    (["classify", "x", "--factor", "-2"], "cmd_classify", {"path": "x", "factor": -2}),
    (["classify", "x", "--factor", "+2"], "cmd_classify", {"path": "x", "factor": 2}),
    (
        ["bounds", "--rank", "2", "--dim", "3"],
        "cmd_bounds",
        {"dim": 3, "rank": 2, "index": None, "fake_wps": False, "conjecture": False},
    ),
    (
        ["bounds", "--dim", "3", "--rank", "2", "--index", "2", "--fake-wps", "--conjecture"],
        "cmd_bounds",
        {"dim": 3, "rank": 2, "index": 2, "fake_wps": True, "conjecture": True},
    ),
    (
        ["bounds", "--d", "3", "--r=2", "--i", "4", "--fake", "--conj"],
        "cmd_bounds",
        {"dim": 3, "rank": 2, "index": 4, "fake_wps": True, "conjecture": True},
    ),
    (["verify", "x"], "cmd_verify", {"path": "x"}),
    (["analyze", "-"], "cmd_analyze", {"path": "-", "table": False}),
    (["analyze", "--", "x"], "cmd_analyze", {"path": "x", "table": False}),
]


@pytest.mark.parametrize("argv, handler, attrs", PARSED, ids=[" ".join(a) for a, _, _ in PARSED])
def test_command_table_parses_as_argparse_did(argv, handler, attrs):
    func, args = _parse(argv)
    assert func.__name__ == handler
    assert vars(args) == attrs


# Usage errors, each of which argparse ended with SystemExit(2), and the
# reason now printed after the usage line.
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["bogus"], "invalid choice: 'bogus' (choose from 'analyze', 'gale', 'polar', 'volume', 'cover', "
                "'fan', 'qfano', 'classify', 'bounds', 'verify')"),
    (["analyze"], "the following arguments are required: path"),
    (["analyze", "x", "--bogus"], "unrecognized arguments: --bogus"),
    (["gale", "x", "--table"], "unrecognized arguments: --table"),
    (["analyze", "x", "y"], "unrecognized arguments: y"),
    (["fan", "x", "--point"], "argument --point: expected one argument"),
    (["classify", "x", "--factor", "two"], "argument --factor: invalid int value: 'two'"),
    (["classify", "x", "--factor=2.0"], "argument --factor: invalid int value: '2.0'"),
    (["bounds", "--dim", "3"], "the following arguments are required: --rank"),
    (["bounds"], "the following arguments are required: --dim, --rank"),
    (["bounds", "--dim", "3", "--rank", "2", "--index"], "argument --index: expected one argument"),
    (["analyze", "x", "--table=1"], "argument --table: ignored explicit argument '1'"),
]


@pytest.mark.parametrize("argv, reason", USAGE_ERRORS, ids=[" ".join(a) or "-" for a, _ in USAGE_ERRORS])
def test_usage_error_exits_2_with_usage_and_reason(argv, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    command = argv[0] if argv and argv[0] != "bogus" else "[-h]"
    assert usage.startswith(f"usage: toriq {command}")
    assert error == f"toriq: error: {reason}"


@pytest.mark.parametrize(
    "argv, command",
    [(["-h"], None), (["--help", "bogus"], None), (["--he"], None), (["analyze", "-h"], "analyze"),
     (["bounds", "--h"], "bounds"), (["classify", "x", "--help"], "classify")],
)
def test_help_goes_to_stdout_and_exits_0(argv, command, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["toriq", *argv])  # main() reads sys.argv
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(f"usage: toriq {command or '[-h]'}")
    if command is None:
        assert all(f"\n  {name} " in out for name in ("analyze", "fan", "bounds", "verify"))
    if command == "bounds":
        assert "usage: toriq bounds [-h] --dim DIM --rank RANK [--index INDEX] [--fake-wps] [--conjecture]\n" in out


def test_fan_point_may_start_with_a_minus_sign(tmp_path, capsys):
    # argparse took "-1,3" after --point for an option and exited 2; the
    # point is the class 3,2 of mds_Zprime's moving cone, in the basis of
    # rows r2 - r1, r1 of its weight matrix
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"matrix": [[1, -1, 0, -1, 1], [0, 2, 1, 1, 1]], "role": "weight-matrix"}))
    assert main(["fan", str(path), "--point", "-1,3"]) == 0
    out = capsys.readouterr().out
    assert main(["fan", str(path), "--point=-1,3"]) == 0
    assert capsys.readouterr().out == out
    assert json.loads(out)["complete"]
    # an option's value is the next token whatever it looks like
    code, out = run_cli(capsys, "fan", str(path), "--point", "--table")
    assert code == 2 and out["error"] == {"type": "invalid-input", "message": "bad integer string '--table'"}


def test_classify_factor_below_one_is_out_of_domain(capsys):
    for h in ("0", "-1"):
        code, out = run_cli(capsys, "classify", fixture_path("bauerle"), "--factor", h)
        assert code == 2
        assert out["error"] == {"type": "OutOfDomain", "message": "needs h >= 1"}


def test_family_work_counts(capsys, monkeypatch):
    # one hull per covering fan matrix, none per quotient, and snf (with
    # transforms) only for the torsion matrix: counts, not timings
    import sys

    from toriq import intmat, polytope

    counts = {"_hull": 0, "snf": 0}

    def counter(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(polytope, "_hull", counter("_hull", polytope._hull))
    snf = counter("snf", intmat.snf)
    for name, mod in list(sys.modules.items()):
        if name.startswith("toriq") and getattr(mod, "snf", None) is intmat.snf:
            monkeypatch.setattr(mod, "snf", snf)
    code, out = run_cli(capsys, "classify", fixture_path("mds_Z"), "--factor", "2")
    assert code == 0
    assert (len(out["kept"]), len(out["rejected"])) == (48, 1248)
    assert counts["_hull"] <= 3
    assert counts["snf"] <= 1


def test_family_reads_each_quotient_off_one_frame(capsys, monkeypatch):
    # the frame of the action is reduced once per family; each of the
    # 1,296 subgroups then costs one small Hermite reduction and no Smith
    # reduction (the congruence HNF with two Smith reductions per subgroup
    # ran _smith 2,596 times here): counts, not timings
    import sys

    from toriq import intmat

    counts = {"_smith": 0, "_hermite_rows": 0}
    real_rows = intmat._hermite_rows

    def counter(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(intmat, "_smith", counter("_smith", intmat._smith))
    rows = counter("_hermite_rows", real_rows)
    for name, mod in list(sys.modules.items()):
        if name.startswith("toriq") and getattr(mod, "_hermite_rows", None) is real_rows:
            monkeypatch.setattr(mod, "_hermite_rows", rows)
    code, out = run_cli(capsys, "classify", fixture_path("mds_Z"), "--factor", "2")
    assert code == 0
    subgroups = len(out["kept"]) + len(out["rejected"])
    assert subgroups == 1296
    assert counts["_smith"] <= 8
    assert counts["_hermite_rows"] <= subgroups + 40


def test_report_hulls_each_point_set_once(monkeypatch):
    # with every cache empty, one report hulls each set of integer rows
    # (D, D*p) at most once, in whatever column order it is asked for:
    # conv(V), conv(W), conv(Lambda°) and the polar sides are shared by
    # every caller through one cache.  Polar points are solved cone by
    # cone (`polar_vertex_matrix`) only for kV° and k̂W° on the fan's
    # cones: the indices, reflexivity, the face fan and a family's polar
    # points are read off the hull rows
    import glob
    import os
    from collections import Counter

    import toriq
    from toriq import polytope
    from toriq.classify import enumerate_qgorenstein_family
    from toriq.fans import face_fan
    from toriq.gale import gale_dual

    caches = [
        fn
        for mod in (toriq.covering, toriq.fans, toriq.gale, toriq.polytope)
        for fn in vars(mod).values()
        if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__
    ]
    hulls = Counter()
    solves = Counter()
    real, real_solve = polytope._hull, polytope.polar_vertex_matrix

    def counted(rows):
        hulls[frozenset(map(tuple, rows))] += 1
        return real(rows)

    def counted_solve(v, fan):
        solves["calls"] += 1
        return real_solve(v, fan)

    monkeypatch.setattr(polytope, "_hull", counted)
    for mod in (toriq.polytope, toriq.covering, toriq.classify, toriq.cli):
        monkeypatch.setattr(mod, "polar_vertex_matrix", counted_solve, raising=False)
    paths = {}
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        paths[name] = path
        if name == "mds_W":
            continue  # deliberately non-complete
        for fn in caches:
            fn.cache_clear()
        hulls.clear()
        solves.clear()
        build_report(*resolve_variety(load_document(path)))
        assert hulls and max(hulls.values()) == 1, (name, hulls)
        assert solves["calls"] == 2, (name, solves)

    for fn in caches:
        fn.cache_clear()
    solves.clear()
    v, _ = resolve_variety(load_document(paths["mds_Z"]))
    enumerate_qgorenstein_family(gale_dual(v), 2)
    assert 0 < solves["calls"] <= 2, solves

    def refused(v, fan):
        raise RuntimeError("polar points solved cone by cone")

    monkeypatch.setattr(polytope, "polar_vertex_matrix", refused)
    for name, path in paths.items():
        for fn in caches:
            fn.cache_clear()
        v, _ = resolve_variety(load_document(path))
        polytope.fmatrix_index(v)
        polytope.is_reflexive(polytope.VPolytope(v))
        face_fan(v)


def test_report_solves_each_cone_once(monkeypatch):
    # every cone's facets come from one cache: with it empty, over the
    # reports of every complete fixture no generator tuple reaches the
    # double description or the closed-form square elimination twice, and
    # analyze validates no fan (the fan over the cover W is the input
    # fan's preimage under the nonsingular B, so it is valid already)
    import glob
    import os
    from collections import Counter

    from toriq import covering, fans, linprog

    dd, square, fan_data = Counter(), Counter(), Counter()
    real_dd, real_square, real_init = linprog._dd, linprog._simplicial_facets, fans.FanData.__init__

    def counted_dd(rows, dim):
        dd[tuple(map(tuple, rows)), dim] += 1
        return real_dd(rows, dim)

    def counted_square(gens):
        square[gens] += 1
        return real_square(gens)

    def counted_init(self, *args):
        fan_data["init"] += 1
        real_init(self, *args)

    monkeypatch.setattr(linprog, "_dd", counted_dd)
    monkeypatch.setattr(linprog, "_simplicial_facets", counted_square)
    monkeypatch.setattr(fans.FanData, "__init__", counted_init)
    linprog._cone_facets.cache_clear()
    covering.analyze.cache_clear()
    names = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        if name == "mds_W":
            continue  # deliberately non-complete
        v, fan = resolve_variety(load_document(path))
        fan_data.clear()
        covering.analyze(v, fan)
        assert not fan_data, name
        build_report(v, fan)
        names.append(name)
    assert len(names) == 32
    assert dd and max(dd.values()) == 1, [k for k, c in dd.items() if c > 1]
    assert square and max(square.values()) == 1, [k for k, c in square.items() if c > 1]
    # the non-simplicial cone (1, 2, 4, 6) of blupP3_X went through the
    # double description, once
    v = load_document(fixture_path("blupP3_X"))["matrix"]
    assert dd[tuple(map(v.col, (0, 1, 3, 5))), 3] == 1


def test_smith_reduction_limit_is_a_named_error(capsys, monkeypatch):
    # a Smith reduction that runs out of rounds ends in exit 2 with an
    # error object, not a traceback
    from toriq import intmat

    monkeypatch.setattr(intmat, "_SNF_ROUNDS", 0)
    code, out = run_cli(capsys, "analyze", fixture_path("blupP3_X"))
    assert code == 2
    assert out["error"] == {"type": "NotConverged", "message": "Smith reduction failed to converge"}


def test_big_integer_serialization():
    huge = 2 ** 60 + 7
    enc = _encode({"x": huge, "y": 12, "m": IntMatrix([[huge, 1]])})
    assert enc["x"] == str(huge)
    assert enc["y"] == 12
    assert enc["m"][0][0] == str(huge)
    from toriq.cli import _parse_int

    assert _parse_int(str(huge)) == huge


def test_fraction_serialization():
    from fractions import Fraction

    assert _encode(Fraction(3, 2)) == "3/2"
    assert _encode(Fraction(4, 2)) == 2


def _dumped(payload) -> str:
    return json.dumps(_encode(payload), sort_keys=True, indent=2) + "\n"


def test_emit_matches_json_dumps_on_edge_values(capsys):
    # the one-walk writer against json.dumps of the converted payload
    from fractions import Fraction

    from toriq.cli import emit

    edge = {
        "safe": [2**53, -(2**53)],
        "unsafe": [2**53 + 1, -(2**53) - 1],
        "mixed": [1, 2**53, -(2**53), 2**53 + 1, True, 1, False, None, "s"],
        "fractions": [Fraction(4, 2), Fraction(-3, 2), Fraction(2**60, 3), Fraction(2**60)],
        "empty": [[], {}, (), IntMatrix._of(())],
        "nested": ((1, (2, (3, ()))), [(), [[]]], {"a": ({}, [])}),
        "matrix": IntMatrix([[2**60, -1], [0, 5]]),
        "message": 'caf\u00e9 \u2260 \U0001d4aa "quoted" \\ /\n\t',
        "flags": {"true": True, "one": 1, "false": False, "zero": 0},
    }
    for payload in [edge, *edge.values(), True, 1, Fraction(4, 2), 2**53, -(2**53) - 1, []]:
        emit(payload)
        assert capsys.readouterr().out == _dumped(payload), payload


def test_emit_matches_json_dumps_on_every_payload(capsys, monkeypatch, tmp_path):
    # every fixture's payloads, the golden families and cells at moving
    # points of the golden weight matrices, errors included
    import glob
    import os

    from toriq import cli

    payloads = []
    real = cli.emit

    def recording(payload):
        payloads.append(payload)
        real(payload)

    monkeypatch.setattr(cli, "emit", recording)
    runs = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        for cmd in ("analyze", "gale", "polar", "volume", "cover", "fan", "qfano", "verify"):
            runs.append([cmd, path])
        runs.append(["classify", path, "--factor", "2"])
    with open(os.path.join(FIXTURES, "..", "perfbench", "golden.json")) as fh:
        golden = json.load(fh)
    for name, entry in sorted(golden["weights"].items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"matrix": entry["q"], "role": "weight-matrix"}))
        rays = entry["mov_rays"]
        for point in ([sum(c) for c in zip(*rays)], rays[0], [2 * x for x in rays[-1]]):
            runs.append(["fan", str(path), "--point", ",".join(map(str, point))])
    for item in golden["families"]:
        name, h = item.rsplit(":h", 1)
        runs.append(["classify", str(tmp_path / f"{name}.json"), "--factor", h])
    for argv in runs:
        main(argv)
        assert capsys.readouterr().out == _dumped(payloads[-1]), argv
    assert len(payloads) == len(runs)


def test_classify_is_invariant_under_the_weight_basis(capsys, tmp_path):
    # `classify` on a weight matrix Q and on U * Q (U unimodular) prints the
    # same family: the fan and the quotients depend on the row lattice only
    import os

    with open(os.path.join(FIXTURES, "..", "perfbench", "golden.json")) as fh:
        weights = json.load(fh)["weights"]
    rng = random.Random(23)
    for name, entry in sorted(weights.items()):
        q = IntMatrix(entry["q"])
        outs = []
        for mat in (q, _unimodular(rng, q.rows) * q):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"matrix": [list(r) for r in mat.data], "role": "weight-matrix"}))
            assert main(["classify", str(path), "--factor", "2"]) == 0, name
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], name


def test_torsion_block_parses():
    doc = load_document(fixture_path("mds_Zprime"))
    assert doc["torsion"] == {"factors": [3], "columns": [[1], [0], [1], [0], [0]]}
    from toriq.classify import torsion_matrix

    gamma = torsion_matrix(doc["matrix"])
    assert gamma.ambient.invariant_factors == (3,)


MDS_TORSION = {"factors": [3], "columns": [[1], [0], [1], [0], [0]]}


def _torsion_doc(tmp_path, torsion, base="mds_Zprime"):
    with open(fixture_path(base), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["torsion"] = torsion
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_torsion_blocks_of_the_fixtures_are_valid(capsys):
    for name in ("mds_W", "mds_Z", "mds_Zprime"):
        assert load_document(fixture_path(name))["torsion"] == MDS_TORSION
    # the block passes, and the non-complete fan is still what mds_W fails on
    code, out = run_cli(capsys, "analyze", fixture_path("mds_W"))
    assert (code, out["error"]["type"]) == (2, "InvalidFan")


@pytest.mark.parametrize("torsion, message", [
    ({"factors": [3], "columns": [[1], [0], [1], [0]]}, "one column per matrix column"),
    ({"factors": [3], "columns": [[1, 0], [0], [1], [0], [0]]}, "one entry per factor"),
    ({"factors": [1], "columns": [[0], [0], [0], [0], [0]]}, "at least 2"),
    ({"factors": [3], "columns": [[1], [0], [0], [0], [0]]}, "does not pair to 0"),
    ({"factors": [3, 3], "columns": [[1, 0], [0, 0], [1, 0], [0, 0], [0, 0]]}, "multiply to 9"),
    ({"factors": [3], "columns": [[0], [0], [0], [0], [0]]}, "does not generate"),
])
def test_invalid_torsion_block_is_invalid_input(tmp_path, capsys, torsion, message):
    code, out = run_cli(capsys, "gale", _torsion_doc(tmp_path, torsion))
    assert code == 2
    assert out["error"]["type"] == "invalid-input"
    assert message in out["error"]["message"]


def test_torsion_block_of_a_weight_matrix(tmp_path, capsys):
    # a weight-matrix document grades by Z^m / (kernel of Q), which is
    # torsion-free: only the empty block fits
    assert load_document(_torsion_doc(tmp_path, {"factors": [], "columns": [[]] * 3}, "dim2_r1_1"))
    code, out = run_cli(capsys, "gale", _torsion_doc(tmp_path, {"factors": [2], "columns": [[0]] * 3}, "dim2_r1_1"))
    assert code == 2
    assert "the class group's torsion has order 1" in out["error"]["message"]


def test_torsion_blocks_from_the_smith_form_are_valid(tmp_path):
    # the splitting of torsion_matrix is one valid block; changing the
    # basis of each cyclic factor by a unit gives another
    from toriq.classify import torsion_matrix

    rng = random.Random(71)
    seen = 0
    while seen < 40:
        n = rng.randint(2, 3)
        m = n + rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        rows[0] = [rng.choice((2, 3)) * x for x in rows[0]]
        v = IntMatrix(rows)
        try:
            tm = torsion_matrix(v)
        except ToriqError:
            continue
        factors = list(tm.ambient.invariant_factors)
        if not factors:
            continue
        units = [next(u for u in range(d - 1, 0, -1) if math.gcd(u, d) == 1) for d in factors]
        for scale in ([1] * len(factors), units):
            columns = [[c * u % d for c, u, d in zip(col, scale, factors)] for col in tm.columns]
            path = tmp_path / "smith.json"
            path.write_text(json.dumps({"matrix": rows, "torsion": {"factors": factors, "columns": columns}}))
            assert load_document(str(path))["torsion"]["factors"] == factors
        seen += 1


def test_all_fixtures_parse():
    import glob
    import os

    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    assert len(paths) >= 29
    for path in paths:
        doc = load_document(path)
        assert doc["matrix"].rows >= 1


def test_classify_command_factor_two(capsys):
    code, out = run_cli(capsys, "classify", fixture_path("bauerle"), "--factor", "2")
    assert code == 0
    # the index-6 quotient itself sits in the factor-2 family
    kept_orders = sorted(e["order"] for e in out["kept"])
    assert 4 in kept_orders
    assert any(
        e["order"] == 4 and e["index"] == 6 for e in out["kept"]
    )
    assert out["rejected"]
