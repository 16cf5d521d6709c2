"""Run every demo's main() in-process, stdout captured, and check a few
of the values each demo is written to show."""

import importlib.util
import io
import os
from contextlib import redirect_stdout

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")

EXPECTED_LINES = {
    "blowup_quotient_family": [
        "weight group     = Z/2 + Z/2  (order 4 )",
        "4 families up to lattice equivalence:",
        "multiplicity pairs multiply to the weight order: 4",
    ],
    "bound_tables": ["Sylvester numbers: [2, 3, 7, 43, 1807, 3263443]"],
    "fake_wps_index_six": [
        "multiplicity = 4  covering group = Z/4",
        "its index: 3 (factor 1, as it must be)",
    ],
    "secondary_fan_walk": [
        "  anticanonically polarized: False",
        "  anticanonically polarized: True",
        "weight group: Z/15 + Z/30 of order 450",
    ],
}


def test_every_demo_is_listed():
    names = {f[:-3] for f in os.listdir(DEMOS) if f.endswith(".py")}
    assert names == set(EXPECTED_LINES)


@pytest.mark.parametrize("name", sorted(EXPECTED_LINES))
def test_demo_runs(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", os.path.join(DEMOS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buf = io.StringIO()
    with redirect_stdout(buf):
        module.main()
    lines = buf.getvalue().splitlines()
    for line in EXPECTED_LINES[name]:
        assert line in lines, (name, line)
