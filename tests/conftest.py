import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from toriq.intmat import IntMatrix

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name + ".json")


def load_fixture(name: str) -> dict:
    with open(fixture_path(name)) as fh:
        return json.load(fh)


def fixture_matrix(name: str) -> IntMatrix:
    return IntMatrix(load_fixture(name)["matrix"])


def fixture_cones(name: str):
    return [tuple(i - 1 for i in c) for c in load_fixture(name)["fan"]]


@pytest.fixture(scope="session")
def blup_data():
    from toriq.fans import FanData

    v = fixture_matrix("blupP3_X")
    return v, FanData(v, fixture_cones("blupP3_X"))
