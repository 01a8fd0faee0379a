"""The benchmark's own tests, on the tiny size of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, load_digests

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
run.import_program()


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_present_with_its_unit(workload):
    plain = run.run_one(workload, seed=3, seconds=0.1, trace=0, size="tiny")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run_one(workload, seed=3, seconds=0.1, trace=1, size="tiny")
    assert traced["correct"] and traced["failed"] == 0
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_counts_repeat_exactly():
    first, second = (
        run.run_one("cli-small", seed=5, seconds=0.1, trace=1, size="tiny")["metrics"] for _ in range(2)
    )
    counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["geom.polygon_tests"] > 0 and counts["spanners.g7_edges"] > 0


def test_open_scenes_make_no_polygon_tests():
    metrics = run.run_one("verify-open", seed=1, seconds=0.1, trace=1, size="tiny")["metrics"]
    assert metrics["geom.polygon_tests"]["value"] == 0
    assert metrics["verify.checks_failed"]["value"] == 0


@pytest.mark.parametrize("workload,graph", [("build-dense", "g7"), ("verify-obstacles", "g7"),
                                            ("cli-small", "g7"), ("cli-small", "g15")])
def test_wrong_stored_digest_fails(workload, graph):
    digests = load_digests()
    tampered = {key: {**entry, graph: "0" * 16} for key, entry in digests.items()}
    result = run.run_one(workload, seed=3, seconds=0.1, trace=0, size="tiny", digests=tampered)
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", ["verify-open", "cli-small"])
def test_dropped_g15_edge_fails(workload):
    result = run.run_one(workload, seed=3, seconds=0.1, trace=0, size="tiny", drop_g15_edge=True)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify-open", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
