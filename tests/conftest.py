import math
import pathlib

import pytest

from polyspanner.io import parse_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load_scene(name: str):
    return parse_instance(fixture_text(name))


def edge_length(scene, u: int, v: int) -> float:
    """Euclidean length of one pair from its integer coordinate
    differences: the float ``verify.edge_table`` holds for that edge."""
    (ux, uy), (vx, vy) = scene.ipoints[u], scene.ipoints[v]
    s = scene.scale
    return math.hypot((vx - ux) / s, (vy - uy) / s)


@pytest.fixture
def micro3():
    return load_scene("micro3.json")


@pytest.fixture
def split_cones():
    return load_scene("split_cones.json")


@pytest.fixture
def nonconvex():
    return load_scene("nonconvex.json")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from tests.test_acceptance import ACCEPTANCE_LOG
    except ImportError:
        try:
            from test_acceptance import ACCEPTANCE_LOG
        except ImportError:
            return
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LOG:
        terminalreporter.write_line(line)
