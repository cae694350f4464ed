"""The benchmark's own tests: run it on a held-out seed and check its output.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
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
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

#: not used while the benchmark was written or tuned
HELD_OUT_SEED = 904_117


def _run(workload: str, trace: int = 0, seconds: int = 2, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(HELD_OUT_SEED),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(workload: str, trace: int = 0) -> dict:
    path = ROOT / ".perfbench" / "out" / (
        f"{workload}-seed{HELD_OUT_SEED}-trace{trace}.json"
    )
    return json.loads(path.read_text())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    assert [m["name"] for m in spec["per_layer"]] == layers.NAMES
    for metric in spec["per_layer"]:
        assert metric["unit"] == layers.unit(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_oltp_and_fleet_are_correct_and_agree():
    single = _result(_run("oltp"))
    fleet = _result(_run("oltp_4shard"))
    for result in (single, fleet):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # same seed, same warm-up prefix: identical agg and range answers
    assert (
        _report("oltp")["warmup_answers_digest"]
        == _report("oltp_4shard")["warmup_answers_digest"]
    )


def test_warmup_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        assert _result(_run("oltp"))["correct"] is True
        counts.append(_report("oltp")["warmup_counts"])
    # one client over a seeded prefix: program counters repeat exactly
    assert counts[0] == counts[1]
    assert counts[0]["verified_reads"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = _result(_run(workload, trace=1))
    assert result["correct"] is True
    assert list(result["metrics"]) == layers.NAMES
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 < metrics["trace.overhead_ratio"] <= 1.5
    assert metrics["epoch.memory.verifier.cells_scanned"] > 0
    assert metrics["read.core.portal.self_us"] > 0
    assert metrics["write.storage.record.encodes"] > 0
    assert metrics["agg.storage.record.decodes"] > 0
    if workload == "oltp":
        assert metrics["write.wal.syncs"] >= 1
        assert metrics["read.shard.requests"] == 0
    else:
        assert metrics["read.shard.requests"] >= 1
        assert metrics["agg.shard.merge_us"] > 0
    spans = ROOT / _report(workload, trace=1)["spans"]
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"id", "kind", "span", "parent", "name", "start", "end"} <= set(first)


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__"
    ))
    proc = _run("oltp", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
