"""The benchmark's traced mode still finds every name it wraps.

`perfbench/tracing.py` replaces public shiftprod functions by name and raises
on a missing one, so renaming or deleting a traced name would end every
traced benchmark run.  This test loads the tracer from its file (without
writing bytecode next to it) and runs one small CLI call under it.
"""

import importlib.util
import sys
from pathlib import Path

import shiftprod.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "shiftprod" or name.startswith("shiftprod.")
        for attr, value in vars(module).items()
    }


def test_traced_count_records_spans_and_restores_names(monkeypatch, capsys):
    tracing = load_tracing(monkeypatch)
    before = package_bindings()
    tracer = tracing.Tracer("t")
    with tracer.installed():
        for module_name, attr, _ in tracing.TARGETS:
            owner = sys.modules[module_name]
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), (module_name, attr)
        code = shiftprod.cli.main(
            ["count", "--k", "2", "--X", "5", "--shift", "rational:1/2"]
        )
    assert code == 0 and capsys.readouterr().out.startswith("k,X,shift,")
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "shifts.parse_shift", "counting.count_mean_value"} <= names
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
