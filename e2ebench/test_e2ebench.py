"""Tests of the end-to-end benchmark itself.

Run from the repository root with ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import check_lookup_sites  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_tracer_replaces_every_lookup_site():
    assert check_lookup_sites() is None


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


def test_each_call_is_divided_by_the_mean_of_the_probes_around_it(monkeypatch):
    from ginikit import cli

    probes = iter([1.0, 3.0, 5.0])
    clock = iter([0.0, 2.0, 10.0, 14.0])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    monkeypatch.setattr(cli, "main", lambda argv: print(*argv) or 0)
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    elapsed, in_probes, outputs = run.run_op([["a"], ["b"]])
    assert (elapsed, in_probes) == (6.0, 2.0 / 2.0 + 4.0 / 4.0)
    assert outputs == [(0, "a\n", ""), (0, "b\n", "")]


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    if kind == "end_to_end":
        for name in run.PRINTED_ONLY + ("failed_frac",):
            assert f"  {name} " in done.stdout
    for name, entry in result["metrics"].items():
        if kind == "end_to_end" or name.endswith(".self_s"):
            assert entry["value"] >= 0.0, name


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        done = bench("--workload", "verify_audit", "--seed", "9", "--trace", "1", "--smoke")
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["means.log_power_sum.calls"] == 20 * 200
    assert counts[0]["means.log_power_sum.distinct_ratio"] == 7 / 20


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "verify_audit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
