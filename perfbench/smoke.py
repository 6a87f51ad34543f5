"""Smoke test of the benchmark: every workload once at a tiny size.

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py

Each workload runs untraced and traced; the run must exit 0, pass its
checks, and print every metric BENCHMARK.json names, with the unit given
there. A copy of the benchmark without the kdsm sources must fail without
printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload]
    cmd += ["--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(workload: str) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected, (workload, trace, set(printed) ^ set(expected))
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name


def test_study():
    check_workload("study")


def test_pipeline():
    check_workload("pipeline")


def test_score():
    check_workload("score")


def test_fails_without_sources():
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    bare = tempfile.mkdtemp(dir=work_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            BENCH_DIR,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns(".work", "results", "__pycache__"),
        )
        proc = _run(bare, "score", 0)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_study, test_pipeline, test_score, test_fails_without_sources):
        test()
        print(f"ok {test.__name__}")
