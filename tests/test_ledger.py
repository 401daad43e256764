"""tools/ledger.py re-derives the ledger's known answers; the fast rows run here.

The whole ledger takes about 19 s and 1.9 GiB (`python3 tools/ledger.py`);
the six rows below take about 1.8 s together.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ledger.py"
spec = importlib.util.spec_from_file_location("ledger", TOOL)
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)

ROWS = ledger.load_rows()
FAST_CELLS = [
    (2, 400, "rational:1/2"),
    (4, 100, "transcendental"),
    (3, 400, "minpoly:-2,0,1"),
    (4, 100, "minpoly:-2,0,1"),
    # 67-bit keys, the array backend's wide path now that transcendental cells
    # take the closed form
    (4, 100, "minpoly:-2,0,0,1"),
    # k = 6 on the array backend; the peak tests build this cell but read no figure of it
    (6, 30, "minpoly:-2,0,1"),
]


def row_of(cell):
    (row,) = [row for row in ROWS if (row["k"], row["X"], row["shift"]) == cell]
    return row


@pytest.mark.parametrize("cell", FAST_CELLS, ids=lambda cell: "-".join(map(str, cell)))
def test_fast_rows_rederive(cell):
    assert ledger.differences(row_of(cell)) == []


def test_rows_are_consistent():
    for row in ROWS:
        assert row["nondiag"] == row["M"] - row["T"] >= 0, row
        assert row["checked_by"], row


def test_a_changed_figure_is_reported():
    row = dict(row_of(FAST_CELLS[0]), M=586350, witness_pairs=33438)
    assert ledger.differences(row) == ["M 586350 != 586348", "witness_pairs 33438 != 33439"]
