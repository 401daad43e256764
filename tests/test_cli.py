"""End-to-end CLI behaviour: formats, round trips, exit codes."""

import collections
import dataclasses
import io
import json
import os
import sys
import tempfile
import tracemalloc
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftprod import (
    Algebraic,
    MinimalPolynomial,
    Rational,
    find_nondiagonal_witnesses,
    format_shift,
    minimal_polynomial_for,
    parse_shift,
    verify_witness,
)
from shiftprod.cli import _json_records, main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_degree_equals_k_cell(self, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "2", "--X", "10", "--shift", "minpoly:-2,0,1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,X,shift,M,T,nondiag,distinct_nu,elapsed_ms"
        fields = lines[1].split(",")
        # the shift field itself contains commas, hence csv quoting
        assert lines[1].startswith('2,10,"minpoly:-2,0,1",190,190,0,')

    def test_transcendental_k1(self, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "1", "--X", "5", "--shift", "transcendental"
        )
        assert code == 0
        assert out.strip().splitlines()[1].startswith("1,5,transcendental,5,5,0,")

    def test_rational_cell(self, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "2", "--X", "7", "--shift", "rational:1/2"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert int(row[5]) >= 8

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "2", "--X", "10", "--shift", "minpoly:-2,0,1",
            "--format", "json",
        )
        assert code == 0
        [payload] = json.loads(out)
        assert payload["M"] == payload["T"] == 190
        assert payload["shift"] == "minpoly:-2,0,1"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, out, _ = run(
            capsys, "count", "--k", "1", "--X", "3", "--shift", "rational:1/2",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("k,X,shift,")


class TestScan:
    def test_rows_and_fit(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--k", "2", "--X-list", "10,20,40",
            "--shift", "rational:1/2",
        )
        assert code == 0
        assert "# fitted_alpha=" in out
        assert "# reference_exponent=2" in out

    def test_zero_count_marker(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--k", "2", "--X-list", "5,10,15",
            "--shift", "minpoly:-2,0,1",
        )
        assert code == 0
        assert "# fitted_alpha=zero-count" in out

    def test_single_x_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "scan", "--k", "2", "--X-list", "10", "--shift", "rational:1/2"
        )
        assert code == 1 and "three X values" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--k", "2", "--X-list", "10,20,40",
            "--shift", "rational:1/2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 3
        assert payload["fit"]["alpha"] > 1


class TestWitnessAndLemmaCheck:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "witnesses.json"
        code, out, _ = run(
            capsys, "witness", "--k", "2", "--X", "12", "--shift", "rational:1/2",
            "--out", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert {"x": [1, 7], "y": [2, 4]} in data
        code, out, err = run(
            capsys, "lemma-check", "--shift", "rational:1/2", "--X", "12",
            "--in", str(path),
        )
        assert code == 0, err
        reports = json.loads(out)
        assert len(reports) == len(data)
        assert all(all(r["lemma_ok"]) and r["norm_ok"] for r in reports)

    def test_algebraic_witnesses_check(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "witness", "--k", "3", "--X", "50", "--shift", "minpoly:-2,0,1",
            "--out", str(path),
        )
        assert code == 0
        assert len(json.loads(path.read_text())) == 2
        code, out, _ = run(
            capsys, "lemma-check", "--shift", "minpoly:-2,0,1", "--X", "50",
            "--in", str(path),
        )
        assert code == 0
        assert all(r["norm_ok"] for r in json.loads(out))

    def test_limit(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--k", "2", "--X", "25", "--shift", "rational:1/2",
            "--limit", "2",
        )
        assert code == 0 and len(json.loads(out)) == 2

    def test_non_solution_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"x": [1, 2, 5], "y": [3, 4, 6]}]))
        code, _, err = run(
            capsys, "lemma-check", "--shift", "minpoly:-2,0,1", "--in", str(path)
        )
        assert code == 3 and "does not divide" in err

    def test_diagonal_rejected(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps([{"x": [1, 2], "y": [2, 1]}]))
        code, out, err = run(
            capsys, "lemma-check", "--shift", "rational:1/2", "--in", str(path)
        )
        assert code == 3
        assert err == "witness x=[1, 2] y=[1, 2]: diagonal after cancellation\n"
        assert json.loads(out) == [
            {"x": [1, 2], "y": [1, 2], "error": "diagonal after cancellation"}
        ]

    def test_empty_sided_witness_same_with_and_without_x(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps([{"x": [], "y": []}]))
        cmd = ("lemma-check", "--shift", "rational:1/2", "--in", str(path))
        without_x = run(capsys, *cmd)
        assert without_x == run(capsys, *cmd, "--X", "5")
        assert without_x[0] == 3
        assert without_x[2] == "witness x=[] y=[]: diagonal after cancellation\n"

    def test_x_below_a_cancelled_entry_writes_no_record(self, capsys, tmp_path):
        # (x + 1) products: 2 * 6 = 3 * 4 and 2 * 8 = 4 * 4.  The second pair's
        # 7 is above --X 6, so the first pair's record, which passes, is not
        # written either.
        path, out_path = tmp_path / "w.json", tmp_path / "r.json"
        path.write_text(json.dumps([{"x": [1, 5], "y": [2, 3]}, {"x": [1, 7], "y": [3, 3]}]))
        cmd = ("lemma-check", "--shift", "rational:1", "--in", str(path), "--X")
        assert run(capsys, *cmd, "6") == (1, "", "error: X=6 is below the largest witness entry\n")
        assert run(capsys, *cmd, "6", "--out", str(out_path))[0] == 1
        assert not out_path.exists()
        # a value above the cap that cancels away is no error
        path.write_text(json.dumps([{"x": [1, 5, 9], "y": [2, 3, 9]}]))
        code, out, err = run(capsys, *cmd, "5")
        assert (code, err) == (0, "") and len(json.loads(out)) == 1

    def test_transcendental_rejected(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[]")
        code, _, err = run(
            capsys, "lemma-check", "--shift", "transcendental", "--in", str(path)
        )
        assert code == 1

    def test_empty_witness_list_vacuous_pass(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[]")
        code, out, _ = run(
            capsys, "lemma-check", "--shift", "rational:1/2", "--in", str(path)
        )
        assert code == 0 and out == "[]\n"

    def test_shared_values_cancelled_byte_identical(self, capsys, tmp_path):
        # lemma-check cancels the shared 1 and reports the pair ((1, 7), (2, 4))
        path = tmp_path / "w.json"
        path.write_text(json.dumps([{"x": [1, 1, 7], "y": [1, 2, 4]}]))
        code, out, err = run(
            capsys, "lemma-check", "--shift", "rational:1/2", "--in", str(path)
        )
        assert (code, err) == (0, "")
        assert out == SHARED_VALUE_REPORT

    @pytest.mark.parametrize("source", [(), ("--in", "-")], ids=["no-in", "in-dash"])
    def test_reads_stdin(self, capsys, monkeypatch, source):
        monkeypatch.setattr(sys, "stdin", io.StringIO('[{"x": [1, 1, 7], "y": [1, 2, 4]}]'))
        cmd = ("lemma-check", "--shift", "rational:1/2", *source)
        assert run(capsys, *cmd) == (0, SHARED_VALUE_REPORT, "")

    def test_failed_identity_exits_3_and_still_reports(self, capsys, monkeypatch, tmp_path):
        def first_identity_fails(pair, m, X):
            report = verify_witness(pair, m, X)
            return dataclasses.replace(report, lemma_ok=(False,) + report.lemma_ok[1:])

        monkeypatch.setattr("shiftprod.cli.verify_witness", first_identity_fails)
        path = tmp_path / "w.json"
        path.write_text(json.dumps([{"x": [1, 7], "y": [2, 4]}, {"x": [1, 4], "y": [2, 6]}]))
        code, out, err = run(capsys, "lemma-check", "--shift", "rational:1/2", "--in", str(path))
        assert code == 3
        assert err == (
            "witness x=[1, 7] y=[2, 4]: identity check failed\n"
            "witness x=[1, 4] y=[2, 6]: 2t - 1 does not divide -3t - 8 (remainder -19/2)\n"
        )
        expected = [
            json.loads(SHARED_VALUE_REPORT)[0] | {"lemma_ok": [False, True]},
            {"x": [1, 4], "y": [2, 6], "error": "2t - 1 does not divide -3t - 8 (remainder -19/2)"},
        ]
        assert out == json.dumps(expected, indent=2) + "\n"


class TestJsonRecords:
    """The writer of every flat JSON list is byte-equal to json.dumps(indent=2)."""

    TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "日本", "\u2028", "😀", "a\"b\\c\nd"]
    scalars = st.one_of(
        st.integers(),
        st.integers(min_value=2**64 - 2, max_value=2**200),
        st.integers(min_value=-(2**200), max_value=-(2**64) + 2),
        st.booleans(),
        st.fractions().map(str),
        st.text(),
        st.sampled_from(TRICKY),
    )
    values = st.one_of(
        scalars,
        st.lists(st.one_of(st.integers(), st.integers(min_value=2**64))),
        st.lists(st.booleans()),
    )
    keys = st.one_of(
        st.sampled_from(["x", "y", "F_coeffs", "psi_coeffs", "rho", "C_a", "C_b", "error"]),
        st.text(),
    )
    records = st.lists(st.dictionaries(keys, values))

    @settings(deadline=None)
    @given(records)
    @example([])
    @example([{}])
    @example([{"x": [], "y": [], "lemma_ok": []}])
    @example([{"rho": [-3, 2**64, -(2**70)], "lemma_ok": [True, False], "norm_ok": False}])
    @example([{"C_a": "-5/3", "C_b": "1/18446744073709551616"}])
    @example([{"x": [1], "y": [2], "error": 'a "quoted" \\ back\nslash é 日本 \u2028'}])
    def test_equals_json_dumps(self, records):
        assert "".join(_json_records(records)) == json.dumps(records, indent=2) + "\n"


@pytest.mark.parametrize("k, X, text", [(2, 40, "rational:1/2"), (3, 30, "minpoly:-2,0,1")])
def test_written_files_equal_json_dumps_of_engine_dicts(tmp_path, k, X, text):
    # a change to the writer must fail here before it changes a benchmark digest
    shift = parse_shift(text)
    m = minimal_polynomial_for(shift)
    pairs = list(find_nondiagonal_witnesses(k, X, shift))
    assert pairs
    witnesses, reports = tmp_path / "w.json", tmp_path / "r.json"
    code = main(
        ["witness", "--k", str(k), "--X", str(X), "--shift", text, "--out", str(witnesses)]
    )
    assert code == 0
    code = main(
        ["lemma-check", "--shift", text, "--X", str(X), "--in", str(witnesses),
         "--out", str(reports)]
    )
    assert code == 0
    expected = [p.to_json_dict() for p in pairs]
    assert witnesses.read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"
    expected = [verify_witness(p, m, X).to_json_dict() for p in pairs]
    assert reports.read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"


def test_witness_command_peaks_near_the_engine(tmp_path):
    # the engine yields its pairs and the writer streams one record at a
    # time, so the command holds little beyond the search's colliding groups
    k, X, text = 3, 60, "rational:1/2"
    argv = ["witness", "--k", str(k), "--X", str(X), "--shift", text, "--out", str(tmp_path / "w")]

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    main(argv)  # first-use caches, outside the measurement
    shift = parse_shift(text)
    engine = peak(lambda: collections.deque(find_nondiagonal_witnesses(k, X, shift), 0))
    command = peak(lambda: main(argv))
    assert command <= 1.2 * engine, (command, engine)


def _algebraic_or_none(coeffs):
    try:
        return Algebraic(MinimalPolynomial(coeffs))
    except ValueError:  # a rational root or a zero leading coefficient
        return None


RATIONAL_SHIFTS = st.tuples(st.integers(-12, 12), st.integers(1, 4)).filter(
    lambda pq: gcd(*pq) == 1
).map(lambda pq: Rational(*pq))
ALGEBRAIC_SHIFTS = st.lists(st.integers(-4, 4), min_size=3, max_size=4).map(
    _algebraic_or_none
).filter(lambda shift: shift is not None)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(k=st.integers(2, 4), X=st.integers(1, 20), shift=RATIONAL_SHIFTS | ALGEBRAIC_SHIFTS)
# cells with witnesses, which few drawn cells have: either sign of a
# rational, a quadratic and a cubic
@example(k=4, X=20, shift=Rational(1, 2))
@example(k=3, X=20, shift=Rational(-5, 2))
@example(k=4, X=14, shift=Algebraic(MinimalPolynomial([2, -3, -1])))
@example(k=4, X=14, shift=Algebraic(MinimalPolynomial([2, 1, 3, 1])))
def test_lemma_check_accepts_every_witness(k, X, shift):
    # a shift -p with p in [1, X] makes a zero factor, whose semantics are open
    assume(not (isinstance(shift, Rational) and shift.q == 1 and 1 <= -shift.p <= X))
    m = minimal_polynomial_for(shift)
    for pair in find_nondiagonal_witnesses(k, X, shift):
        assert verify_witness(pair, m, X).all_ok, pair
    text = format_shift(shift)
    with tempfile.TemporaryDirectory() as tmp:
        witnesses, reports = os.path.join(tmp, "w.json"), os.path.join(tmp, "r.json")
        cell = ["--k", str(k), "--X", str(X), "--shift", text]
        assert main(["witness", *cell, "--out", witnesses]) == 0
        assert main(["lemma-check", *cell[2:], "--in", witnesses, "--out", reports]) == 0


def test_error_entries_equal_json_dumps(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps([{"x": [3, 2], "y": [2, 3]}, {"x": [1, 4], "y": [2, 6]}]))
    code, out, _ = run(capsys, "lemma-check", "--shift", "rational:1/2", "--in", str(path))
    assert code == 3
    expected = [
        {"x": [2, 3], "y": [2, 3], "error": "diagonal after cancellation"},
        {"x": [1, 4], "y": [2, 6], "error": "2t - 1 does not divide -3t - 8 (remainder -19/2)"},
    ]
    assert out == json.dumps(expected, indent=2) + "\n"


CONTRAST_CELL = (
    "contrast", "--k", "2", "--X-list", "10,20,40",
    "--rational-shift", "rational:1/2", "--algebraic-shift", "minpoly:-2,0,1",
)

CONTRAST_JSON = """\
[
  {
    "X": 10,
    "k": 2,
    "shift_rational_nondiag": 24,
    "shift_algebraic_nondiag": 0
  },
  {
    "X": 20,
    "k": 2,
    "shift_rational_nondiag": 168,
    "shift_algebraic_nondiag": 0
  },
  {
    "X": 40,
    "k": 2,
    "shift_rational_nondiag": 1172,
    "shift_algebraic_nondiag": 0
  }
]
"""

SHARED_VALUE_REPORT = """\
[
  {
    "x": [
      1,
      7
    ],
    "y": [
      2,
      4
    ],
    "F_coeffs": [
      -1,
      2
    ],
    "psi_coeffs": [
      1
    ],
    "rho": [
      1,
      1
    ],
    "C_a": "2/7",
    "C_b": "1/7",
    "norm_ok": true,
    "lemma_ok": [
      true,
      true
    ]
  }
]
"""


class TestContrastCommand:
    def test_csv_byte_identical(self, capsys):
        assert run(capsys, *CONTRAST_CELL) == (
            0,
            "X,k,shift_rational_nondiag,shift_algebraic_nondiag\n"
            "10,2,24,0\n20,2,168,0\n40,2,1172,0\n",
            "",
        )

    def test_json_byte_identical(self, capsys):
        assert run(capsys, *CONTRAST_CELL, "--format", "json") == (0, CONTRAST_JSON, "")

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "contrast", "--k", "2", "--X-list", "10,20",
            "--rational-shift", "rational:1/2", "--algebraic-shift", "minpoly:-2,0,1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "X,k,shift_rational_nondiag,shift_algebraic_nondiag"
        assert lines[1].endswith(",0") and lines[2].endswith(",0")


class TestErrors:
    def test_bad_shift_grammar(self, capsys):
        code, _, err = run(capsys, "count", "--k", "2", "--X", "5", "--shift", "nope")
        assert code == 1 and "unrecognised shift" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "count", "--k", "2", "--X", "5")
        assert code == 1
        for command in ("count", "witness"):
            code, out, err = run(capsys, command, "--k", "2", "--shift", "rational:1/2")
            assert (code, out) == (1, "") and "--X" in err, command

    def test_witness_takes_no_format(self, capsys):
        code, out, err = run(
            capsys, "witness", "--k", "2", "--X", "8", "--shift", "rational:1/2",
            "--format", "csv",
        )
        assert (code, out) == (1, "") and "--format" in err

    def test_nonincreasing_x_list(self, capsys):
        code, _, err = run(
            capsys, "scan", "--k", "2", "--X-list", "10,10,20",
            "--shift", "rational:1/2",
        )
        assert code == 1 and "strictly increasing" in err

    def test_negative_limit_is_usage_error(self, capsys):
        cell = ("witness", "--k", "2", "--X", "8", "--shift", "rational:1/2")
        code, out, _ = run(capsys, *cell)
        assert code == 0 and len(json.loads(out)) == 1
        code, out, err = run(capsys, *cell, "--limit", "-1")
        assert code == 1 and out == "" and "limit" in err

    def test_bad_workers_and_memory_budget_are_usage_errors(self, capsys):
        for command in ("count", "witness"):
            for flag, value in (
                ("--workers", "-3"),
                ("--workers", "0"),
                ("--memory-budget-mb", "-5"),
                ("--memory-budget-mb", "0"),
            ):
                code, out, err = run(
                    capsys, command, "--k", "2", "--X", "8", "--shift", "rational:1/2",
                    flag, value,
                )
                assert code == 1 and out == "", (command, flag, value)
                if flag == "--workers":
                    assert err == f"error: workers must be an integer >= 1, got {value}\n"

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(
            capsys, "count", "--k", "3", "--X", "400", "--shift", "minpoly:-2,0,1",
            "--memory-budget-mb", "1",
        )
        assert code == 2 and "budget" in err

    def test_colliding_multisets_over_budget_exit_code(self, capsys, tmp_path):
        # the table fits 16 MiB; the cell's colliding multisets do not
        cell = ("--k", "3", "--X", "100", "--shift", "rational:1/2", "--memory-budget-mb", "16")
        code, _, _ = run(capsys, "count", *cell)
        assert code == 0
        path = tmp_path / "w.json"
        code, out, err = run(capsys, "witness", *cell, "--out", str(path))
        assert code == 2 and out == "" and "104758 colliding multisets" in err
        assert not path.exists()

    def test_file_errors_are_usage_errors(self, capsys, tmp_path):
        missing = tmp_path / "absent"
        for args in (
            ("lemma-check", "--shift", "rational:1/2", "--in", str(missing / "w.json")),
            ("count", "--k", "1", "--X", "3", "--shift", "rational:1/2",
             "--out", str(missing / "x.csv")),
        ):
            code, out, err = run(capsys, *args)
            assert (code, out) == (1, ""), args
            assert err.startswith("error:") and "Traceback" not in err, args

    @pytest.mark.parametrize(
        "text, err",
        [
            ('{"x": [1, 7], "y": [2, 4]}', "witness input must be a JSON array of {x, y} objects"),
            ('[{"x": [1, 7]}]', "bad witness entry {'x': [1, 7]}: 'y'"),
        ],
        ids=["object", "no-y"],
    )
    def test_malformed_witness_input(self, capsys, tmp_path, text, err):
        path = tmp_path / "w.json"
        path.write_text(text)
        cmd = ("lemma-check", "--shift", "rational:1/2", "--in", str(path))
        assert run(capsys, *cmd) == (1, "", f"error: {err}\n")

    def test_reducible_minpoly_rejected(self, capsys):
        code, _, err = run(
            capsys, "count", "--k", "2", "--X", "5", "--shift", "minpoly:-1,0,1"
        )
        assert code == 1 and "rational root" in err


class TestDeterminism:
    def test_identical_runs_identical_output(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "witness", "--k", "2", "--X", "30", "--shift", "rational:1/2"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_worker_counts_agree(self, capsys):
        outs = []
        for w in ("1", "2"):
            code, out, _ = run(
                capsys, "count", "--k", "3", "--X", "20", "--shift", "minpoly:-2,0,1",
                "--workers", w,
            )
            assert code == 0
            rows = [line.rsplit(",", 1)[0] for line in out.strip().splitlines()]
            outs.append(rows)
        assert outs[0] == outs[1]
