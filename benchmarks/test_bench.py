"""Tests of the benchmark itself, at tiny sizes:

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from wfalloc import allocation, submodular  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_tiny(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.05", "--trace", str(trace)]
    assert run.main(argv, size_name="tiny") == 0
    out = capsys.readouterr().out
    return out.splitlines(), json.loads(out.strip().splitlines()[-1])


def printed(lines, name):
    """The value and unit printed on the report line for ``name``."""
    fields = next(line.split() for line in lines if line.split()[:1] == [name])
    return float(fields[1]), fields[2]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace, kind):
    lines, result = run_tiny(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert printed(lines, name) == (result["metrics"][name]["value"], unit)
    if trace == 0:
        assert printed(lines, "failed_ratio") == (0.0, "ratio")


def test_vacuous_pairwise_checker_fails_every_certify_item(capsys, monkeypatch):
    monkeypatch.setattr(submodular, "check_submodular_pairwise", lambda oracle, **kw: [])
    lines, result = run_tiny(capsys, "certify", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert printed(lines, "failed_ratio")[0] == 1.0


def test_bound_below_the_utilities_fails_online_greedy_items(capsys, monkeypatch):
    monkeypatch.setattr(allocation, "offline_upper_bound", lambda W: 0.0)
    lines, result = run_tiny(capsys, "online-greedy", 0)
    assert not result["correct"]
    assert printed(lines, "failed_ratio")[0] > 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
