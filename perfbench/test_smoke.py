"""Smoke test of the benchmark itself: tiny runs of every workload, each in a
fresh process as the benchmark is used.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_command_matches_benchmark_json():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    sys.path.insert(0, str(HERE))
    import run

    assert list(run.WORKLOADS) == WORKLOADS
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_and_agrees_with_the_oracles(workload):
    timed = result("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert timed["correct"] and timed["attempted"] >= 1
    assert set(timed["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        got = timed["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0

    traced = result("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert traced["correct"] and traced["attempted"] >= 1
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    assert traced["metrics"]["construction.step.calls"]["value"] > 0


def test_traced_counts_repeat_for_a_seed():
    counts = ("construction.step.calls", "construction.step.distinct",
              "lasso.bda_final_run.no_final_run", "automata.waa.states")
    args = ("--workload", "ltl-large", "--seed", "5", "--seconds", "0", "--trace", "1")
    first, second = result(*args), result(*args)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name]


def test_untraced_counts_repeat_for_a_seed():
    # the timed loop's length depends on the machine; the counts must not
    args = ("--workload", "ltl-large", "--seed", "5", "--trace", "0")
    first, second = result(*args, "--seconds", "0"), result(*args, "--seconds", "30")
    assert first["failed"] > 0
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
