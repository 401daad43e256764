"""Settle one cell through the public CLI and check every output exactly.

A pipeline is `count` -> `witness --out` -> `lemma-check --in --out`, each its
own subprocess, started only after the previous one has ended (a closed loop
with one client).  Each command is one operation; it fails on a non-zero exit
or when a check on its output fails (see `gate.py`).  Once a pipeline has
passed the gate, `repeat_commands` runs its commands again, each one checked
against the gated output.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import count_digest
from workloads import Cell

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # scratch outputs, inside the checkout
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
COMMAND_TIMEOUT_S = 170

# What the installed `shiftprod` console script runs.
CLI = [sys.executable, "-c", "import sys; from shiftprod.cli import main; sys.exit(main())"]
TRACED_CLI = [sys.executable, str(Path(__file__).resolve().parent / "traced_cli.py")]
GATE = [sys.executable, str(Path(__file__).resolve().parent / "gate.py")]


def child_env() -> dict:
    env = dict(os.environ)
    # Imports read bytecode caches, as in an installed package, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclasses.dataclass
class Op:
    """One CLI command as run: its wall time, peak RSS and what failed."""

    name: str
    wall_s: float
    maxrss_mb: float
    exit_code: int
    errors: list[str]


def run_process(argv: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int]:
    """Run argv to completion; return (wall seconds, peak RSS in MiB, exit code).

    The RSS comes from `os.wait4`, whose usage covers the process and every
    descendant it reaped, so pool workers count: Linux reports the largest.
    It also covers the parent's RSS at the time of the start, which is why
    the benchmark process leaves reading outputs to `gate.py`.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024, proc.returncode


def cli_commands(cell: Cell, workdir: Path, rep: str = "") -> list[tuple[str, list[str]]]:
    """The pipeline's commands; `rep` is a suffix that keeps a repetition's outputs apart."""
    common = ["--k", str(cell.k), "--X", str(cell.X), "--shift", cell.shift]
    if cell.workers != 1:
        common += ["--workers", str(cell.workers)]
    commands = [
        ("count", ["count", *common]),
        ("witness", ["witness", *common, "--out", str(workdir / f"witness{rep}.json")]),
    ]
    if cell.has_identities:
        commands.append((
            "lemma_check",
            ["lemma-check", "--shift", cell.shift, "--X", str(cell.X),
             "--in", str(workdir / "witness.json"), "--out", str(workdir / f"report{rep}.json")],
        ))
    return commands


def run_command(name: str, args: list[str], workdir: Path, rep: str = "", tracer=None) -> Op:
    """Run one CLI command; its stdout and stderr go to `<workdir>/<name><rep>.out|.err`.

    With a tracer, the command runs under `traced_cli.py` and leaves its
    spans in `<workdir>/<name>.spans.json`.
    """
    stdout, stderr = workdir / f"{name}{rep}.out", workdir / f"{name}{rep}.err"
    if tracer is None:
        wall, rss, code = run_process(CLI + args, stdout, stderr)
    else:
        with tracer.span(f"cmd.{name}") as sid:
            argv = TRACED_CLI + [str(workdir / f"{name}.spans.json"), tracer.run_id, sid, "--"] + args
            wall, rss, code = run_process(argv, stdout, stderr)
    errors = []
    if code != 0:
        tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
        errors.append(f"exit {code}: {' | '.join(tail)}")
    return Op(name, wall, rss, code, errors)


def run_pipeline(cell: Cell, workdir: Path, tracer=None) -> list[Op]:
    """Run the cell's commands one after another; stop at the first non-zero exit."""
    ops = []
    for name, args in cli_commands(cell, workdir):
        ops.append(run_command(name, args, workdir, tracer=tracer))
        if ops[-1].exit_code != 0:
            break
    return ops


def same_output(name: str, workdir: Path, rep: str) -> bool:
    """Whether a repetition's output equals the gated pipeline's, read in small chunks.

    `count` prints one CSV row whose last column is its elapsed time, so that
    column is left out of the comparison.
    """
    if name == "count":
        return count_digest((workdir / f"count{rep}.out").read_text()) == count_digest(
            (workdir / "count.out").read_text())
    out = {"witness": "witness", "lemma_check": "report"}[name]
    return filecmp.cmp(workdir / f"{out}{rep}.json", workdir / f"{out}.json", shallow=False)


def repeat_commands(cell: Cell, workdir: Path, checked: list[Op], deadline: float) -> list[Op]:
    """Run the commands of a gated pipeline again, round-robin, until `deadline`.

    Interleaving the commands spreads the host's slow swings of speed over all
    of them alike.  A command runs only if its last wall time says it ends
    before the deadline, so cheap commands fill the end of a run.  Each
    repetition fails on a non-zero exit or when its output differs from the
    gated one.  `checked` must be the pipeline that passed the gate in `workdir`.
    """
    rep = ".rep"
    last = {op.name: op.wall_s for op in checked}
    ops = []
    while True:
        ran = False
        for name, args in cli_commands(cell, workdir, rep):
            if time.perf_counter() + last[name] > deadline:
                continue
            op = run_command(name, args, workdir, rep)
            if op.exit_code == 0 and not same_output(name, workdir, rep):
                op.errors.append(f"{name} output differs from the gated run")
            ops.append(op)
            last[name], ran = op.wall_s, True
            if op.errors:
                return ops
        if not ran:
            return ops


def run_gate(cell: Cell, ops: list[Op], workdir: Path, expected: dict | None,
             tracer=None) -> tuple[dict, dict]:
    """Check the pipeline's outputs in `gate.py`; add its errors to the ops they concern.

    Returns the gate's exact facts and the digests of the outputs.  With a
    tracer, the gate's spans land in `<workdir>/gate.spans.json`.
    """
    request = {
        "cell": dataclasses.asdict(cell),
        "workdir": str(workdir),
        "exits": {op.name: op.exit_code for op in ops},
        "expected": expected,
        "trace": None,
    }
    out, err = workdir / "gate.out", workdir / "gate.err"
    if tracer is None:
        _, _, code = run_process(GATE + [json.dumps(request)], out, err)
    else:
        with tracer.span("gate") as sid:
            request["trace"] = [str(workdir / "gate.spans.json"), tracer.run_id, sid]
            _, _, code = run_process(GATE + [json.dumps(request)], out, err)
    if code != 0:
        ops[0].errors.append(f"gate exited {code}: {err.read_text(errors='replace')[-500:]}")
        return {}, {}
    verdict = json.loads(out.read_text())
    for op in ops:
        op.errors += verdict["errors"].get(op.name, [])
    return verdict["facts"], verdict["digests"]


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
