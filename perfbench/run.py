"""The shiftprod benchmark: time to an exactly settled (k, X, shift) cell.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (`--trace 0`), it settles the cell once through the public CLI,
`count` -> `witness` -> `lemma-check`, one subprocess at a time, and then
repeats those commands round-robin until S seconds have passed; it prints the
median wall time of each command.  Traced (`--trace 1`), each repetition runs
the pipeline untraced and then again under `traced_cli.py`, and prints the
per-layer metrics with the tracing overhead.
Every output is checked exactly (see `pipeline.gate`); the last line of
stdout is the result as JSON, and the exit code is 1 when any check failed.

`--workload all` runs every workload in both modes and prints one result line
per run; `--small` shrinks X for a quick smoke run.  Spans of a traced run
are written to `.perfbench_work/trace-<workload>-seed<N>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from math import comb
from pathlib import Path

import pipeline
import tracing
from workloads import WORKLOADS, Cell

SETUP_REPEATS = 15
# Interpreter start, `import shiftprod.cli` and parsing/validating the shift.
SETUP_CODE = "import sys, shiftprod.cli; from shiftprod.shifts import parse_shift; parse_shift(sys.argv[1])"


def measure_setup(cell: Cell, workdir: Path) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and parses the shift."""
    argv = [sys.executable, "-c", SETUP_CODE, cell.shift]
    out, err = workdir / "setup.out", workdir / "setup.err"
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one writes bytecode caches
        wall, _, code = pipeline.run_process(argv, out, err)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.read_text()[-500:]}")
        if i:
            times.append(wall)
    return statistics.median(times)


def settle_and_repeat(cell: Cell, expected: dict, deadline: float) -> list[pipeline.Op]:
    """One gated pipeline, then its commands repeated until `deadline`: every op run."""
    with tempfile.TemporaryDirectory(dir=pipeline.WORK) as tmp:
        workdir = Path(tmp)
        ops = pipeline.run_pipeline(cell, workdir)
        pipeline.run_gate(cell, ops, workdir, expected)
        if any(op.errors for op in ops):
            return ops
        return ops + pipeline.repeat_commands(cell, workdir, ops, deadline)


def settle(cell: Cell, expected: dict, tracer=None) -> tuple[list[pipeline.Op], dict, list]:
    """One checked pipeline: its ops, the gate's facts and, if traced, every span."""
    with tempfile.TemporaryDirectory(dir=pipeline.WORK) as tmp:
        workdir = Path(tmp)
        if tracer is None:
            ops = pipeline.run_pipeline(cell, workdir)
            return ops, pipeline.run_gate(cell, ops, workdir, expected)[0], []
        with tracer.span("pipeline"):
            ops = pipeline.run_pipeline(cell, workdir, tracer)
        facts, _ = pipeline.run_gate(cell, ops, workdir, expected, tracer)
        spans = list(tracer.spans)
        for path in workdir.glob("*.spans.json"):
            spans += tracing.load_spans(path)
        return ops, facts, spans


def wall(ops, name: str) -> float | None:
    return next((op.wall_s for op in ops if op.name == name), None)


def end_to_end(ops, setup_s: float) -> dict:
    """Median times over the repetitions of each command; a pipeline is one of each.

    The peak RSS is the largest of the run: a two-worker `witness` peaks
    anywhere from 490 to 575 MiB, depending on when the parent merges.
    """
    walls = defaultdict(list)
    for op in ops:
        walls[op.name].append(op.wall_s)
    median_s = {name: statistics.median(times) for name, times in walls.items()}
    return {
        "pipeline_s": (sum(median_s.values()), "s"),
        "count_s": (median_s["count"], "s"),
        "witness_s": (median_s["witness"], "s"),
        "peak_rss_mb": (max(op.maxrss_mb for op in ops), "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(cell: Cell, untraced, traced, facts: dict, spans: list) -> dict:
    summary = tracing.summarize(spans)
    total, calls = summary["total_s"], summary["calls"]
    command_of = {sp[0]: sp[2].removeprefix("cmd.") for sp in spans if sp[2].startswith("cmd.")}
    main_of = {sp[0]: command_of[sp[1]] for sp in spans if sp[2] == "cli.main"}
    json_s = defaultdict(float)  # (command, name) -> seconds, for cli.json.* spans under cli.main
    for sid, parent, name, start, end, _ in spans:
        if name.startswith("cli.json.") and parent in main_of:
            json_s[main_of[parent], name] += end - start
    builds = [sp[5] for sp in spans if sp[2] == "counting.build_product_table"]
    growth = sum(extra["rss_growth_bytes"] for extra in builds)
    multisets = comb(cell.X + cell.k - 1, cell.k)
    verify_calls = calls.get("verify.verify_witness", 0)
    untraced_s = sum(op.wall_s for op in untraced)
    traced_s = sum(op.wall_s for op in traced)
    metrics = {
        "counting.build_product_table_s": (total["counting.build_product_table"], "s"),
        "counting.build_cpu_s": (sum(extra["cpu_s"] for extra in builds), "s"),
        "counting.mean_value_s": (total["counting.ProductTable.mean_value"], "s"),
        "counting.diagonal_count_exact_s": (total["counting.diagonal_count_exact"], "s"),
        "counting.find_nondiagonal_witnesses_s": (total["counting.find_nondiagonal_witnesses"], "s"),
        "counting.multisets": (multisets, "count"),
        "counting.distinct_keys": (facts["distinct_nu"], "count"),
        "counting.colliding_keys": (facts["colliding_keys"], "count"),
        "counting.collision_yield": (facts["colliding_multisets"] / multisets, "ratio"),
        "counting.build_rss_mb": (growth / 2**20, "MiB"),
        "counting.bytes_per_key": (growth / max(1, facts["distinct_nu"]), "B/key"),
        "counting.cancel_common_factors_s": (total["counting.cancel_common_factors"], "s"),
        "counting.witness_pairs": (facts["witness_pairs"], "count"),
        "verify.verify_witness_s": (total["verify.verify_witness"], "s"),
        "verify.verify_witness_us_per_pair": (
            1e6 * total["verify.verify_witness"] / verify_calls if verify_calls else 0.0, "us"),
        "verify.factor_out_minpoly_s": (total["verify.factor_out_minpoly"], "s"),
        "verify.product_difference_s": (total["verify.product_difference"], "s"),
        "verify.norm_identity_check_s": (total["verify.norm_identity_check"], "s"),
        "shifts.parse_shift_s": (total["shifts.parse_shift"], "s"),
        "shifts.shifted_product_s": (total["shifts.shifted_product"], "s"),
        "cli.import_s": (total["cli.import"], "s"),
        "cli.witness_json_dump_s": (json_s["witness", "cli.json.dumps"], "s"),
        "cli.witness_json_load_s": (json_s["lemma_check", "cli.json.load"], "s"),
        "cli.report_json_dump_s": (json_s["lemma_check", "cli.json.dumps"], "s"),
        "lemma_check_s": (wall(untraced, "lemma_check") or 0.0, "s"),
        "trace.pipeline_s": (traced_s, "s"),
        "trace.untraced_pipeline_s": (untraced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    for layer, seconds in summary["self_s"].items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool,
                 digests: dict) -> dict:
    cell = WORKLOADS[name].cell(seed, small)
    expected = digests.get(cell.key)
    if expected is None:
        raise SystemExit(f"no reference digests for {cell.key!r} in {pipeline.DIGESTS_PATH}")
    pipeline.WORK.mkdir(exist_ok=True)
    samples, ops_run, traces = [], [], []
    if not trace:
        with tempfile.TemporaryDirectory(dir=pipeline.WORK) as tmp:
            setup_s = measure_setup(cell, Path(tmp))
        ops_run = settle_and_repeat(cell, expected, time.perf_counter() + seconds)
        if not any(op.errors for op in ops_run):
            samples.append(end_to_end(ops_run, setup_s))
    start = time.perf_counter()
    while trace:
        ops, _, _ = settle(cell, expected)
        ops_run += ops
        if any(op.errors for op in ops):
            break
        tracer = tracing.Tracer(f"{name}-seed{seed}-{len(traces)}")
        traced, facts, spans = settle(cell, expected, tracer)
        ops_run += traced
        traces.append({"run_id": tracer.run_id, "spans": spans})
        if any(op.errors for op in traced):
            break
        samples.append(per_layer(cell, ops, traced, facts, spans))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) > seconds:  # the next repetition would overrun
            break
    if traces:
        with open(pipeline.WORK / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(traces, fh)
    failed = [op for op in ops_run if op.errors]
    for op in failed:
        for error in op.errors:
            print(f"{name} seed {seed}: {op.name}: {error}", file=sys.stderr)
    metrics = {}
    if samples:
        for key, (_, unit) in samples[0].items():
            metrics[key] = {"value": statistics.median(s[key][0] for s in samples), "unit": unit}
    if trace:
        metrics["ops_failed_ratio"] = {"value": len(failed) / len(ops_run), "unit": "ratio"}
    return {"correct": not failed, "attempted": len(ops_run), "failed": len(failed),
            "metrics": metrics}


def machine() -> dict:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "ram_gib": round(ram / 2**30, 1), "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small X, for a smoke run")
    args = parser.parse_args(argv)
    if not (pipeline.SRC / "shiftprod" / "cli.py").is_file():
        print(f"error: no shiftprod sources under {pipeline.SRC}", file=sys.stderr)
        return 2
    digests = pipeline.load_digests()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.small, digests)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    correct = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace, args.small, digests)
            correct &= result["correct"]
            print(json.dumps({"workload": name, "seed": args.seed, "trace": int(trace),
                              "machine": machine(), **result}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
