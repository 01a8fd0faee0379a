"""``tests/output_digest.py`` runs on the fixtures and prints the same
digests in two processes with different hash seeds."""

import os
import subprocess
import sys

from tests.conftest import FIXTURES
from tests.test_acceptance import FIXTURE_NAMES

SCRIPT = FIXTURES.parent / "output_digest.py"


def test_digest_agrees_across_runs():
    cmd = [sys.executable, str(SCRIPT), "--src", str(FIXTURES.parent.parent / "src")]
    runs = [
        subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    (first, err1), (second, err2) = [run.communicate(timeout=60) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], (err1, err2)
    assert [line.split()[0] for line in first.splitlines()] == FIXTURE_NAMES
    assert first == second
