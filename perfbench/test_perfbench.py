"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys

import pipeline
import tracing
from workloads import Cell

BENCHMARK = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(pipeline.ROOT / "perfbench" / "run.py")]


def test_small_run_of_every_workload_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        RUN + ["--workload", "all", "--small", "--seconds", "0"],
        capture_output=True, text=True, timeout=300, cwd=pipeline.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert {(r["workload"], r["trace"]) for r in results} == {(n, t) for n in names for t in (0, 1)}
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        wanted = BENCHMARK["per_layer" if result["trace"] else "end_to_end"]
        assert {m["name"]: m["unit"] for m in wanted} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }
        if not result["trace"]:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_counts_the_zero_factor_lemma_check_failure(tmp_path):
    # -3 + 3 = 0, so every pair sharing the value 3 solves the equation and
    # lemma-check rejects the engine's own witnesses with exit code 3.
    cell = Cell(2, 6, "rational:-3", 1)
    ops = pipeline.run_pipeline(cell, tmp_path)
    pipeline.run_gate(cell, ops, tmp_path, None)
    assert [(op.name, op.exit_code) for op in ops] == [
        ("count", 0), ("witness", 0), ("lemma_check", 3)
    ]
    assert [op.name for op in ops if op.errors] == ["lemma_check"]


def test_self_time_subtracts_direct_children():
    spans = [
        ("1", None, "cli.main", 0.0, 10.0, None),
        ("2", "1", "counting.build_product_table", 1.0, 7.0, None),
        ("3", "2", "counting.diagonal_count_exact", 2.0, 3.0, None),
        ("4", "1", "verify.verify_witness", 8.0, 9.5, None),
    ]
    summary = tracing.summarize(spans)
    assert summary["self_s"] == {"cli": 2.5, "counting": 6.0, "verify": 1.5, "shifts": 0.0}
    assert summary["total_s"]["counting.build_product_table"] == 6.0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(pipeline.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(pipeline.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alg-k3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
