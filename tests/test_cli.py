"""End-to-end CLI behaviour: formats, round trips, exit codes."""

import array
import collections
import functools
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftprod import (
    Algebraic,
    MinimalPolynomial,
    NotASolutionError,
    Poly,
    Rational,
    SolutionPair,
    WitnessReport,
    count_mean_value,
    find_nondiagonal_witnesses,
    fit_growth_exponent,
    format_shift,
    minimal_polynomial_for,
    parse_shift,
    reference_exponent,
    verify_witness,
)
import shiftprod
from shiftprod.counting import cancel_common_factors
from shiftprod.verify import (
    PreconditionViolationError,
    factor_out_minpoly,
    norm_identity_check,
    product_difference,
    witness_identities,
)
from shiftprod import cli
from shiftprod.cli import _load_witnesses, _pair_record, _report_record, main


def first_identity_fails(x, y, m, X):
    """`witness_identities`, but with the first of the k lemma identities failed."""
    report = witness_identities(x, y, m, X)
    return report._replace(lemma_ok=(False,) + report.lemma_ok[1:])


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

    @pytest.mark.parametrize("k, X, text", [(2, 30, "rational:1/2"), (3, 20, "minpoly:-2,0,1")])
    def test_json_equals_json_dumps_of_the_engine_row(self, capsys, k, X, text):
        code, out, err = run(
            capsys, "count", "--k", str(k), "--X", str(X), "--shift", text, "--format", "json"
        )
        assert (code, err) == (0, "")
        row = count_mean_value(k, X, parse_shift(text)).to_json_dict()
        [written] = json.loads(out)
        row["elapsed_ms"] = written["elapsed_ms"]
        assert out == json.dumps([row], indent=2) + "\n"

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

    @pytest.mark.parametrize(
        "xs, text", [((10, 20, 40), "rational:1/2"), ((5, 10, 15), "minpoly:-2,0,1")]
    )
    def test_json_equals_json_dumps_of_the_engine_rows(self, capsys, xs, text):
        code, out, err = run(
            capsys, "scan", "--k", "2", "--X-list", ",".join(map(str, xs)), "--shift", text,
            "--format", "json",
        )
        assert (code, err) == (0, "")
        shift = parse_shift(text)
        reports = [count_mean_value(2, X, shift) for X in xs]
        rows = [r.to_json_dict() for r in reports]
        for row, written in zip(rows, json.loads(out)["rows"], strict=True):
            row["elapsed_ms"] = written["elapsed_ms"]
        alpha = fit_growth_exponent(reports)
        expected = {
            "rows": rows,
            "fit": {
                "alpha": alpha,
                "zero_count": alpha is None,
                "reference_exponent": reference_exponent(2, shift),
            },
        }
        assert out == json.dumps(expected, indent=2) + "\n"


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

    @pytest.mark.parametrize("witnesses", ["[]", '[{"x": [1, 7], "y": [2, 4]}]'])
    @pytest.mark.parametrize("x_cap", ["-5", "0"])
    def test_x_below_1_is_usage_error(self, capsys, monkeypatch, tmp_path, witnesses, x_cap):
        out_path = tmp_path / "r.json"
        cmd = ("lemma-check", "--shift", "rational:1/2", "--X", x_cap)
        for out in ((), ("--out", str(out_path))):
            monkeypatch.setattr(sys, "stdin", io.StringIO(witnesses))
            error = f"error: X must be an integer >= 1, got {x_cap}\n"
            assert run(capsys, *cmd, *out) == (1, "", error)
        assert not out_path.exists()

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
        monkeypatch.setattr("shiftprod.cli.witness_identities", first_identity_fails)
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


# strings whose JSON text needs escaping: quotes, backslash, control
# characters, U+2028, and characters outside ASCII and outside the BMP
TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "日本", "\u2028", "😀", "a\"b\\c\nd"]


def assert_error_record_equals_json_dumps(message):
    """An error record, which `_check_span` fills with `_json_string`, is `json.dumps`'s text."""
    def fails(x, y, m, X):
        raise NotASolutionError(message)

    m = minimal_polynomial_for(parse_shift("rational:1/2"))
    store = cli._Witnesses()
    store.append(((1, 7), (2, 4)))
    with mock.patch.object(cli, "witness_identities", fails):
        text, errors = cli._check_span(store, m, 7, 0, 1)
    expected = [{"x": [1, 7], "y": [2, 4], "error": message}]
    assert "".join(cli._json_list_text([text])) == json.dumps(expected, indent=2) + "\n"
    assert errors == [f"witness x=[1, 7] y=[2, 4]: {message}\n"]


@pytest.mark.parametrize("message", TRICKY)
def test_error_records_escape_like_json_dumps(message):
    assert_error_record_equals_json_dumps(message)


@settings(deadline=None)
@given(st.text())
def test_any_error_text_escapes_like_json_dumps(message):
    assert_error_record_equals_json_dumps(message)


MINPOLYS = [MinimalPolynomial(cs) for cs in ([-1, 2], [-2, 0, 1], [2, 1, 3, 1])]
BIG_INTS = st.one_of(
    st.integers(-50, 50),
    st.integers(min_value=2**64 - 2, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64) + 2),
)


def witness_pairs(k):
    side = st.tuples(*[st.integers(1, 2**70)] * k)
    return st.builds(SolutionPair, side, side)


WITNESS_PAIRS = st.integers(1, 6).flatmap(witness_pairs)


@st.composite
def witness_reports(draw):
    """Any report a writer may meet, genuine or not, with k > d as verify_witness ensures."""
    m = draw(st.sampled_from(MINPOLYS))
    k = draw(st.integers(m.degree + 1, 6))
    pair = draw(witness_pairs(k))
    return WitnessReport(
        x=pair.x,
        y=pair.y,
        f_coeffs=Poly(draw(st.lists(BIG_INTS, max_size=k))).coeffs,
        psi_coeffs=Poly(draw(st.lists(BIG_INTS, max_size=k - m.degree))).coeffs,
        rho=tuple(draw(st.lists(BIG_INTS, min_size=k, max_size=k))),
        norm_identity_ok=draw(st.booleans()),
        lemma_ok=tuple(draw(st.lists(st.booleans(), min_size=k, max_size=k))),
        minpoly=m,
        x_cap=draw(st.integers(1, 2**70)),
    )


@settings(deadline=None)
@given(WITNESS_PAIRS | witness_reports())
# a one-term psi; a zero C_b, which prints "0"; a failed norm and lemma check
@example(WitnessReport(
    (1, 7), (2, 4), (-1, 2), (1,), (1, 1), True, (True, True), MINPOLYS[0], 7
))
@example(WitnessReport(
    (1, 2**65), (3, 2**66), (-(2**70), 2**64 + 1), (), (0, -(2**64) - 5, 3), False,
    (True, False, True), MINPOLYS[1], 2**66
))
def test_rendered_witness_records_equal_json_dumps(record):
    # witness and lemma-check fill a template per record shape, not to_json_dict
    if isinstance(record, WitnessReport):
        rendered = _report_record(record)
    else:
        rendered = _pair_record(record)
    expected = json.dumps([record.to_json_dict()], indent=2) + "\n"
    assert "".join(cli._json_list_text([rendered])) == expected


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


def test_both_spellings_of_a_shift_write_the_same_files(capsys, tmp_path):
    # minpoly:2,0,-1 is minpoly:-2,0,1: a negative leading coefficient is
    # divided out, so every command prints and reports the positive spelling
    written = []
    for text in ("minpoly:-2,0,1", "minpoly:2,0,-1"):
        witnesses, reports = tmp_path / f"w{text}.json", tmp_path / f"r{text}.json"
        cell = ("--k", "3", "--X", "40", "--shift", text)
        assert main(["witness", *cell, "--out", str(witnesses)]) == 0
        argv = ["lemma-check", "--shift", text, "--X", "40", "--in", str(witnesses)]
        assert main([*argv, "--out", str(reports)]) == 0
        code, out, _ = run(capsys, "count", *cell)
        count = out.rsplit(",", 1)[0]  # without elapsed_ms
        written.append((code, count, witnesses.read_bytes(), reports.read_bytes()))
    assert written[0] == written[1]
    assert '"minpoly:-2,0,1"' in written[0][1]
    assert b'"psi_coeffs": [\n      4\n    ]' in written[0][3]


def peak(call):
    """The tracemalloc peak of `call()`, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_witness_command_peaks_near_the_engine(tmp_path):
    # the engine yields its pairs and the writer streams one record at a
    # time, so the command holds little beyond the search's colliding groups
    k, X, text = 3, 60, "rational:1/2"
    argv = ["witness", "--k", str(k), "--X", str(X), "--shift", text, "--out", str(tmp_path / "w")]
    main(argv)  # first-use caches, outside the measurement
    shift = parse_shift(text)
    engine = peak(lambda: collections.deque(find_nondiagonal_witnesses(k, X, shift), 0))
    command = peak(lambda: main(argv))
    assert command <= 1.2 * engine, (command, engine)


def test_lemma_check_peaks_near_the_loader(tmp_path):
    # lemma-check verifies and writes one report at a time, so the command
    # holds little beyond the witness list it read
    k, X, text = 2, 150, "rational:1/2"
    witnesses = str(tmp_path / "w.json")
    assert main(["witness", "--k", str(k), "--X", str(X), "--shift", text, "--out", witnesses]) == 0
    argv = ["lemma-check", "--shift", text, "--X", str(X), "--in", witnesses,
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0  # first-use caches, outside the measurement
    loaded = peak(lambda: _load_witnesses(witnesses))
    command = peak(lambda: main(argv))
    assert len(_load_witnesses(witnesses)) > 2000
    assert command <= 1.2 * loaded, (command, loaded)


def _algebraic_or_none(coeffs):
    try:
        return Algebraic(MinimalPolynomial(coeffs))
    except ValueError:  # reducible, or a zero leading coefficient
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


def force_pool(monkeypatch, pairs_per_span=2):
    """Send lemma-check's spans of `pairs_per_span` pairs to a pool of two forked workers.

    Returns the list of pools handed spans, one entry per command run, so a
    test can tell that the pool ran.
    """
    monkeypatch.setattr(cli, "_SPAN_PAIRS", pairs_per_span)
    monkeypatch.setattr(cli, "_POOL_MIN_PAIRS", 0)
    return spy_on_pool(monkeypatch)


def spy_on_pool(monkeypatch):
    """Pretend to two CPUs, and list the pools lemma-check hands spans, one per command run.

    Each task sent to a worker must be one span, a (start, stop) of ints: the
    pairs themselves reach the workers by fork, not by pickle.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls = []
    in_order = cli._in_order

    def spy(pool, fn, spans, ahead):
        assert all(type(a) is type(b) is int for a, b in spans), spans
        calls.append(pool)
        return in_order(pool, fn, spans, ahead)

    monkeypatch.setattr(cli, "_in_order", spy)
    return calls


def lemma_check_both_ways(capsys, monkeypatch, *args, pairs_per_span=2, spans=2):
    """lemma-check's (exit code, stdout, stderr) in this process, then from the pool.

    With `spans` below 2 there is nothing to share out, and the second run
    must stay in this process too.
    """
    in_process = run(capsys, "lemma-check", *args)
    calls = force_pool(monkeypatch, pairs_per_span)
    pooled = run(capsys, "lemma-check", *args)
    assert len(calls) == (spans >= 2), "the pool ran" if calls else "the pool did not run"
    assert multiprocessing.active_children() == []
    return in_process, pooled


WITNESS_CELLS = [
    (4, 20, "rational:1/2"),
    (3, 20, "rational:-5/2"),
    (4, 14, "minpoly:2,-3,-1"),  # a negative c_d, which the CLI divides out
    (4, 14, format_shift(Algebraic(MinimalPolynomial([2, 1, 3, 1])))),
]


class TestLemmaCheckPool:
    """Spans checked in forked workers give the in-process output, byte for byte."""

    @pytest.mark.parametrize("k, X, shift", WITNESS_CELLS)
    def test_witness_cells(self, capsys, monkeypatch, tmp_path, k, X, shift):
        witnesses = str(tmp_path / "w.json")
        assert main(["witness", "--k", str(k), "--X", str(X), "--shift", shift,
                     "--out", witnesses]) == 0
        pairs = len(json.loads((tmp_path / "w.json").read_text()))
        in_process, pooled = lemma_check_both_ways(
            capsys, monkeypatch, "--shift", shift, "--X", str(X), "--in", witnesses,
            pairs_per_span=1, spans=pairs)
        assert in_process[0] == 0 and in_process == pooled

    def test_zero_factor_cell(self, capsys, monkeypatch, tmp_path):
        # -3 + 3 = 0: lemma-check rejects 15 of the 19 pairs the search finds
        witnesses = str(tmp_path / "w.json")
        cell = ("--X", "6", "--shift", "rational:-3")
        assert main(["witness", "--k", "2", *cell, "--out", witnesses]) == 0
        in_process, pooled = lemma_check_both_ways(
            capsys, monkeypatch, *cell, "--in", witnesses, pairs_per_span=3)
        assert in_process[0] == 3 and in_process == pooled
        assert len(in_process[2].splitlines()) == 15

    def test_failed_identity(self, capsys, monkeypatch, tmp_path):
        # the replacement is looked up in shiftprod.cli, so forked workers see it
        monkeypatch.setattr("shiftprod.cli.witness_identities", first_identity_fails)
        path = tmp_path / "w.json"
        path.write_text(json.dumps([{"x": [1, 7], "y": [2, 4]}, {"x": [1, 4], "y": [2, 6]}]))
        in_process, pooled = lemma_check_both_ways(
            capsys, monkeypatch, "--shift", "rational:1/2", "--in", str(path), pairs_per_span=1)
        assert in_process[0] == 3 and in_process == pooled
        assert in_process[2].startswith("witness x=[1, 7] y=[2, 4]: identity check failed\n")

    def test_stdin(self, capsys, monkeypatch):
        assert main(["witness", "--k", "2", "--X", "12", "--shift", "rational:1/2"]) == 0
        text = capsys.readouterr().out
        assert len(json.loads(text)) > 2
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        in_process = run(capsys, "lemma-check", "--shift", "rational:1/2")
        calls = force_pool(monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        pooled = run(capsys, "lemma-check", "--shift", "rational:1/2")
        assert calls and in_process[0] == 0 and in_process == pooled

    @pytest.mark.parametrize(
        "text, err",
        [
            ('[{"x": [1, 7], "y": [2, 4]}, {"x": [1, 4], "y": [2,',
             "Expecting value: line 1 column 52 (char 51)"),
            ('[{"x": [1, 7], "y": [2, 4]}, {"x": [1, 4], "y": [0, 6]}]',
             "bad witness entry {'x': [1, 4], 'y': [0, 6]}: "
             "witness entries must be integers >= 1, got 0"),
            ('{"x": [1, 7], "y": [2, 4]}', "witness input must be a JSON array of {x, y} objects"),
            ('[{"x": [1, 7], "y": [2, 4]}] []', "Extra data: line 1 column 30 (char 29)"),
            # (x + 1) products: 2 * 8 = 4 * 4, and the 7 is above --X 6
            ('[{"x": [1, 5], "y": [2, 3]}, {"x": [1, 7], "y": [3, 3]}]',
             "X=6 is below the largest witness entry"),
        ],
        ids=["bad-json-after-good", "bad-entry-after-good", "object", "trailing-garbage",
             "cancelled-pair-above-X"],
    )
    def test_malformed_input_writes_nothing(self, capsys, monkeypatch, tmp_path, text, err):
        path, out = tmp_path / "w.json", tmp_path / "r.json"
        path.write_text(text)
        force_pool(monkeypatch, pairs_per_span=1)
        cmd = ("lemma-check", "--shift", "rational:1", "--X", "6", "--in", str(path))
        assert run(capsys, *cmd) == (1, "", f"error: {err}\n")
        assert run(capsys, *cmd, "--out", str(out)) == (1, "", f"error: {err}\n")
        assert not out.exists()

    def test_no_worker_outlives_the_command(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "w.json"
        assert main(["witness", "--k", "2", "--X", "12", "--shift", "rational:1/2",
                     "--out", str(path)]) == 0
        calls = force_pool(monkeypatch)
        cmd = ["lemma-check", "--shift", "rational:1/2", "--in", str(path)]
        assert main(cmd) == 0
        assert multiprocessing.active_children() == []

        def fails_on_one_pair(x, y, m, X):
            if x == (1, 7):
                raise RuntimeError("no report for this pair")
            return witness_identities(x, y, m, X)

        monkeypatch.setattr("shiftprod.cli.witness_identities", fails_on_one_pair)
        with pytest.raises(RuntimeError, match="no report for this pair"):
            main(cmd)
        assert multiprocessing.active_children() == []
        assert len(calls) == 2

    def test_a_dying_worker_fails_the_command(self, tmp_path):
        # a worker that ends without raising, as when the OOM killer picks it,
        # must fail the command rather than leave it waiting for its span
        path = tmp_path / "w.json"
        assert main(["witness", "--k", "2", "--X", "12", "--shift", "rational:1/2",
                     "--out", str(path)]) == 0
        code, _, err = fresh_python(f"""
            import multiprocessing, os, sys
            from shiftprod import cli
            from shiftprod.verify import witness_identities
            cli._SPAN_PAIRS = 2
            cli._POOL_MIN_PAIRS = 0
            os.sched_getaffinity = lambda pid: {{0, 1}}

            def dies_on_one_pair(x, y, m, X):
                if x == (1, 7):
                    os._exit(9)
                return witness_identities(x, y, m, X)

            cli.witness_identities = dies_on_one_pair
            try:
                cli.main(["lemma-check", "--shift", "rational:1/2", "--in", {str(path)!r}])
            finally:
                print("children:", multiprocessing.active_children(), file=sys.stderr)
        """)
        assert code == 1, err
        assert "children: []\n" in err and "BrokenProcessPool" in err, err


def big_solution(P, Q):
    """A rational:1/2 witness: 2v + 1 runs over 3P, 5Q on one side and 5P, 3Q on the other."""
    return {"x": [(3 * P - 1) // 2, (5 * Q - 1) // 2], "y": [(5 * P - 1) // 2, (3 * Q - 1) // 2]}


# Inputs the flat store must hold as they are: a side of k = 2 and one of
# k = 3, entries of 2^63 and more (past int64, where the store becomes a
# list) and of 2^64 and more, and a pair with empty sides.
EDGE_WITNESSES = [
    {"x": [1, 7], "y": [2, 4]},
    big_solution(2**62 + 1, 3),  # (5P - 1) / 2 lies in [2^63, 2^64)
    {"x": [1, 12, 3], "y": [2, 2, 10]},  # 3 * 25 * 7 = 5 * 5 * 21
    {"x": [], "y": []},
    big_solution(2**64 + 1, 2**64 + 3),
    {"x": [1, 4], "y": [2, 6]},  # no solution
    {"x": [2**64, 5], "y": [3, 2**64]},  # cancels to k = 1 = d
]


def expected_lemma_check(entries, m, X):
    """lemma-check's (exit code, stdout, stderr) on `entries`, from `verify_witness`'s reports."""
    records, err = [], ""
    for entry in entries:
        pair = SolutionPair(tuple(entry["x"]), tuple(entry["y"]))
        try:
            report = verify_witness(pair, m, X)
        except (NotASolutionError, PreconditionViolationError) as exc:
            records.append({**pair.to_json_dict(), "error": str(exc)})
            err += f"witness x={list(pair.x)} y={list(pair.y)}: {exc}\n"
        else:
            records.append(report.to_json_dict())
            if not report.all_ok:
                err += f"witness x={list(pair.x)} y={list(pair.y)}: identity check failed\n"
    return (3 if err else 0), json.dumps(records, indent=2) + "\n", err


class TestWitnessStore:
    """lemma-check's flat store of pairs, in this process and read in place by forked workers."""

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_edge_inputs(self, capsys, monkeypatch, tmp_path, source):
        text = json.dumps(EDGE_WITNESSES)
        args = ["--shift", "rational:1/2"]
        if source == "file":
            (tmp_path / "w.json").write_text(text)
            args += ["--in", str(tmp_path / "w.json")]
        else:
            monkeypatch.setattr(sys, "stdin", mock.Mock(**{"read.return_value": text}))
        largest = max(v for entry in EDGE_WITNESSES for side in entry.values() for v in side)
        assert largest >= 2**65
        expected = expected_lemma_check(
            EDGE_WITNESSES, minimal_polynomial_for(parse_shift("rational:1/2")), largest)
        in_process, pooled = lemma_check_both_ways(capsys, monkeypatch, *args, spans=4)
        assert in_process == pooled == expected
        assert '"k=1 must exceed the minimal-polynomial degree d=1"' in expected[1]

    def test_widens_only_past_int64(self):
        store = cli._Witnesses()
        store.append(((1, 2**63 - 1), (3, 4)))
        assert type(store.entries) is array.array
        store.append(((1, 5), (2, 2**63)))
        assert type(store.entries) is list
        assert list(store.sides(0, 2)) == [((1, 2**63 - 1), (3, 4)), ((1, 5), (2, 2**63))]

    def test_pool_only_from_the_minimum_input(self, capsys, monkeypatch, tmp_path):
        calls = spy_on_pool(monkeypatch)
        path = tmp_path / "w.json"
        for pairs, pooled in ((cli._POOL_MIN_PAIRS - 1, False), (cli._POOL_MIN_PAIRS, True)):
            path.write_text(json.dumps([{"x": [1, 7], "y": [2, 4]}] * pairs))
            before = len(calls)
            code, out, err = run(capsys, "lemma-check", "--shift", "rational:1/2", "--in", str(path))
            assert (code, err, out.count('"lemma_ok"')) == (0, "", pairs)
            assert len(calls) - before == pooled, pairs
        assert multiprocessing.active_children() == []

    def test_store_holds_at_most_64_bytes_a_pair(self, tmp_path):
        # 2 + 2 entries of 8 B and an offset of 8 B, and the arrays' growth room;
        # the pairs held as tuples of ints took about 197 B
        path = str(tmp_path / "w.json")
        code, out, err = fresh_python(f"""
            import tracemalloc
            from shiftprod import cli
            argv = ["witness", "--k", "2", "--X", "400", "--shift", "rational:1/2", "--out", {path!r}]
            assert cli.main(argv) == 0
            tracemalloc.start()
            store = cli._load_witnesses({path!r})
            print(len(store), tracemalloc.get_traced_memory()[0])
        """)
        assert code == 0, err
        pairs, held = map(int, out.split())
        assert pairs >= 30_000
        assert held <= 64 * pairs, held / pairs


GENUINE_CELLS = [(3, 12, Rational(1, 2)), (3, 20, Algebraic(MINPOLYS[1])),
                 (4, 14, Algebraic(MINPOLYS[2]))]


@functools.cache
def genuine_witnesses(i):
    """The witnesses of one small cell over MINPOLYS[i]."""
    k, X, shift = GENUINE_CELLS[i]
    assert minimal_polynomial_for(shift) == MINPOLYS[i]
    return list(find_nondiagonal_witnesses(k, X, shift))


@st.composite
def checked_pairs(draw):
    """(m, pair, X): a pair that solves, or does not, or cancels down to k <= d, at an X
    that may lie below its largest entry."""
    i = draw(st.integers(0, len(MINPOLYS) - 1))
    kind = draw(st.sampled_from(["genuine", "big", "random"]))
    if kind == "genuine":
        pair = draw(st.sampled_from(genuine_witnesses(i)))
        x, y = list(pair.x), list(pair.y)
    elif kind == "big":  # a rational:1/2 solution, which is none over the other m
        odd = st.integers(0, 2**69).map(lambda n: 2 * n + 1)
        x, y = big_solution(draw(odd), draw(odd)).values()
    else:
        k = draw(st.integers(0, 5))
        side = st.lists(st.integers(1, 40), min_size=k, max_size=k)
        x, y = draw(side), draw(side)
    shared = draw(st.lists(st.integers(1, 40), max_size=3))
    x, y = x + shared, y + shared
    top = max(x + y, default=1)
    X = draw(st.integers(max(1, top - 2), top + 50))
    return MINPOLYS[i], SolutionPair(tuple(x), tuple(y)), X


@settings(deadline=None, max_examples=300)
@given(checked_pairs())
def test_kernel_records_equal_json_dumps_of_verify_witness(case):
    # lemma-check renders the kernel's result; verify_witness wraps it in a report
    m, pair, X = case
    store = cli._Witnesses()
    store.append((pair.x, pair.y))

    def outcome(call):
        try:
            return call()
        except ValueError as exc:  # X below the largest entry left after cancelling
            return type(exc), str(exc)

    def checked():
        text, errors = cli._check_span(store, m, X, 0, 1)
        return 3 if errors else 0, "".join(cli._json_list_text([text])), "".join(errors)

    assert outcome(checked) == outcome(lambda: expected_lemma_check([pair.to_json_dict()], m, X))


@st.composite
def genuine_pairs(draw):
    """(m, pair): a genuine witness over one of MINPOLYS, or a rational:1/2 solution with
    entries past 2^64, with shared values added."""
    i = draw(st.integers(0, len(MINPOLYS) - 1))
    if draw(st.booleans()):
        pair = draw(st.sampled_from(genuine_witnesses(i)))
        m, x, y = MINPOLYS[i], list(pair.x), list(pair.y)
    else:
        odd = st.integers(2**64, 2**69).map(lambda n: 2 * n + 1)
        P, Q = draw(odd), draw(odd)
        assume(P != Q)  # P = Q makes the sides equal
        m, (x, y) = MINPOLYS[0], big_solution(P, Q).values()
    shared = draw(st.lists(st.integers(1, 40), max_size=3))
    return m, SolutionPair(tuple(x + shared), tuple(y + shared))


@settings(deadline=None, max_examples=200)
@given(genuine_pairs())
def test_report_views_equal_the_helpers(case):
    # the kernel inlines each helper's arithmetic; the report's views tie them together
    m, pair = case
    rep = verify_witness(pair, m, max(pair.x + pair.y))
    assert rep.f == product_difference(rep.x, rep.y)
    assert rep.psi == factor_out_minpoly(rep.f, m)
    assert rep.pair == cancel_common_factors(pair)
    assert rep.norm_identity_ok == norm_identity_check(rep.pair, m)
    assert rep.psi_degree_ok == (rep.psi.degree <= rep.k - 1 - rep.d)


def count_calls(monkeypatch, owner, name, counts):
    """Count the calls of `owner.name`, a function or classmethod, in `counts[name]`."""
    original = owner.__dict__[name]
    is_classmethod = isinstance(original, classmethod)
    fn = original.__func__ if is_classmethod else original

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[f"{owner.__name__}.{name}"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, classmethod(counted) if is_classmethod else counted)


def test_lemma_check_builds_no_view_per_pair(capsys, monkeypatch, tmp_path):
    # each pair's report stays a tuple of plain values: its SolutionPair and
    # Polys are built only when read, and the command reads none of them
    one, many = tmp_path / "one.json", tmp_path / "many.json"
    one.write_text(json.dumps([{"x": [1, 7], "y": [2, 4]}]))
    argv = ["--k", "2", "--X", "150", "--shift", "rational:1/2"]
    assert main(["witness", *argv, "--out", str(many)]) == 0
    assert 2 <= len(_load_witnesses(str(many))) < cli._POOL_MIN_PAIRS  # checked in this process
    counts = collections.Counter()
    for owner, name in ((Poly, "__init__"), (Poly, "_of_ints"),
                        (SolutionPair, "__init__"), (SolutionPair, "_canonical")):
        count_calls(monkeypatch, owner, name, counts)

    def calls(path):
        counts.clear()
        code, out, err = run(capsys, "lemma-check", "--shift", "rational:1/2", "--in", str(path))
        assert (code, err) == (0, "")
        return dict(counts)

    assert calls(one) == calls(many)
    report = verify_witness(SolutionPair((1, 7), (2, 4)), MINPOLYS[0], 7)
    counts.clear()
    report.pair, report.f, report.psi  # the spies see the views built when read
    assert counts == {"SolutionPair._canonical": 1, "Poly._of_ints": 2}


@pytest.mark.parametrize(
    "text",
    ["[]", " [ ] \n", '[{"x": [2, 1], "y": [3, 1]} , {"x": [], "y": []}]\n', "[", "[,]", "[1]",
     '[{"x": [1], "y": [2]},]', '[{"x": [1], "y": [2]}] x', '[{"x": [1], "y": [2]}', "\ufeff[]",
     '"[]"', "NaN", '[{"x": [1], "y": [2]}, {"y": [2]}]', '[{"x": [true], "y": [2]}]',
     '[{"x": [1], "y": [2]} {"x": [1], "y": [2]}]', '[{"x": [1], "y": [2, 3]}]', "",
     # objects that are no array element, and elements that are no object
     '{"x": [1], "y": [2]}', '[{"x": [{"x": [1], "y": [2]}], "y": [2]}]',
     '[[{"x": [1], "y": [2]}]]', '[{"x": [1], "y": [2], "z": {"x": [1], "y": [2]}}]',
     '[{"x": [1], "y": [2], "z": {"w": 1}}]', '[{"x": [1], "y": [2]}, 3]',
     # entries past int64, and sides of k = 2 and 3 in one file
     '[{"x": [1, 2], "y": [3, 4]}, {"x": [18446744073709551616], "y": [9223372036854775808]},'
     ' {"x": [5, 6, 7], "y": [1, 2, 3]}]'],
)
def test_loader_meets_the_whole_text_parse(tmp_path, text):
    # each object is made a witness's sides as it is parsed; any fault is
    # named by a plain json.loads
    path = tmp_path / "w.json"
    path.write_text(text, encoding="utf-8")

    def outcome(load, arg):
        try:
            return load(arg)
        except Exception as exc:
            return type(exc), str(exc)

    def pairs(store):
        return list(store.sides(0, len(store)))

    loaded = outcome(lambda p: pairs(_load_witnesses(p)), str(path))
    assert loaded == outcome(lambda t: pairs(cli._parse_witnesses(t)), text)


def fresh_python(code: str) -> tuple[int, str, str]:
    """The (exit code, stdout, stderr) of `code` run in a new interpreter on this tree.

    The interpreter runs in a session of its own.  If it has not ended
    within 60 s, the whole session, forked workers too, is killed and the
    test fails.
    """
    src = os.path.dirname(os.path.dirname(shiftprod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with subprocess.Popen([sys.executable, "-c", textwrap.dedent(code)], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return proc.returncode, out, err


def test_setup_imports_neither_multiprocessing_nor_numpy():
    # what the benchmark's setup_s times: a fresh interpreter, the CLI's import
    # and a shift's parse; the pool's and the array backend's imports stay out
    code, out, err = fresh_python("""
        import sys, shiftprod.cli
        from shiftprod.shifts import parse_shift
        parse_shift('minpoly:-2,0,1')
        print(sorted({'multiprocessing', 'numpy'} & set(sys.modules)))
    """)
    assert (code, out) == (0, "[]\n"), err


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

    @pytest.mark.parametrize(
        "k, X, shift, M, distinct",
        [
            (4, 10**6, "transcendental", 23999928000081999967000000, 41666916667125000250000),
            (3, 10**5, "minpoly:-2,0,0,1", 5999910000400000, 166671666700000),
        ],
    )
    def test_lemma_cells_have_no_ceiling(self, capsys, k, X, shift, M, distinct):
        # k <= d: M = T in closed form, however large the cell
        cell = ("--k", str(k), "--X", str(X), "--shift", shift)
        code, out, err = run(capsys, "count", *cell, "--format", "json")
        assert (code, err) == (0, "")
        (row,) = json.loads(out)
        del row["elapsed_ms"]
        assert row == {
            "k": k, "X": X, "shift": shift, "M": M, "T": M, "nondiag": 0, "distinct_nu": distinct,
        }

    def test_cell_with_k_over_d_keeps_its_ceiling(self, capsys):
        code, out, err = run(capsys, "count", "--k", "3", "--X", "1100", "--shift", "minpoly:-2,0,1")
        assert (code, out) == (2, "") and "over the 2048 MiB budget" in err

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
        assert code == 1 and "reducible" in err

    def test_reducible_quintic_rejected_naming_a_factor(self, capsys):
        # (t^2 + 1)(t^3 + t + 1): no rational root, still reducible
        code, out, err = run(
            capsys, "count", "--k", "3", "--X", "5", "--shift", "minpoly:1,1,1,2,0,1"
        )
        assert (code, out) == (1, "") and "reducible" in err
        assert "(t^2 + 1)" in err or "(t^3 + t + 1)" in err

    @pytest.mark.filterwarnings("error")
    def test_irreducible_quintic_counts_without_warning(self, capsys):
        # t^5 + t^2 + 1
        code, out, err = run(
            capsys, "count", "--k", "6", "--X", "8", "--shift", "minpoly:1,0,1,0,0,1"
        )
        assert (code, err) == (0, "") and out


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
