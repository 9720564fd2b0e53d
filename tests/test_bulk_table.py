"""load_table's bulk parse of well-formed files, and its fall-back to the checked row loop.

numpy's C reader parses a file, mapped or not, in one call; any file it
cannot take goes through the row loop, which names the first fault. These
files are built so that a fault sits thousands of rows deep, past rows that
parse, and the values or error must be the row loop's.
"""

import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from hqloc import data
from hqloc.data import DataFormatError, load_table

from oracles import load_csv_reference

BOM = "\ufeff".encode()  # the UTF-8 byte-order mark
# A stretch of rows in these files, and the most rows a parse may hold as
# strings above the row loop's peak (the memory test).
_BULK_ROWS = 4096
HEADER = "rssi_a,rssi_b,rssi_c,x,y"


def _write(tmp_path, lines, end="\n", prefix=b""):
    path = tmp_path / "survey.csv"
    path.write_bytes(prefix + "".join(line + end for line in lines).encode())
    return path


def _rows(n):
    """``n`` distinct canonical rows."""
    return [f"-{50 + i % 40},-{60 + i % 7}.5,-70,{i}.25,{i % 13}" for i in range(n)]


# A layout of other people's surveys: a site label, the position reversed, the readings reversed.
REORDERED_HEADER = "site,py,px,zigbee,bluetooth,wifi"
BY_INDEX = {"rssi_a": 5, "rssi_b": 4, "rssi_c": 3, "x": 2, "y": 1}
BY_NAME = {"rssi_a": "wifi", "rssi_b": "bluetooth", "rssi_c": "zigbee", "x": "px", "y": "py"}


def _reordered(line):
    """A canonical row in the ``REORDERED_HEADER`` layout."""
    return ",".join(["A", *reversed(line.split(","))])


def _loop_table(path, has_header=False):
    """The row loop's table."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_loadtxt_table", lambda *args: None)
        return load_table(path, has_header)


def _same_as_the_loop_and_reference(path, has_header=False):
    table = load_table(path, has_header)
    assert table.tobytes() == _loop_table(path, has_header).tobytes()
    expected = [(*s.rssi, *s.position) for s in load_csv_reference(path, has_header)]
    assert table.tolist() == [list(row) for row in expected]
    return table


def _message(call) -> str:
    with pytest.raises(DataFormatError) as raised:
        call()
    return str(raised.value)


class TestBulkPath:
    def test_chunks_join_in_file_order(self, tmp_path):
        lines = _rows(2 * _BULK_ROWS + 17)
        table = _same_as_the_loop_and_reference(_write(tmp_path, [HEADER, *lines]), True)
        assert len(table) == len(lines)

    @pytest.mark.parametrize("lines, has_header, mapping", [
        pytest.param([HEADER, *_rows(5)], True, None, id="canonical"),
        pytest.param([HEADER, *_rows(5), ""], True, None, id="trailing-blank-line"),
        pytest.param([HEADER, *_rows(3), *[""] * (2 * _BULK_ROWS), *_rows(9)[3:]], True, None,
                     id="blank-chunks-mid-file"),
        pytest.param([*map(_reordered, _rows(5)), ""], False, BY_INDEX, id="mapped-by-index"),
        pytest.param([REORDERED_HEADER, *map(_reordered, _rows(5))], True, BY_NAME,
                     id="mapped-by-name"),
    ])
    def test_the_loop_is_not_run_for_a_regular_file(self, tmp_path, monkeypatch, lines,
                                                     has_header, mapping):
        def refuse(*args):
            raise AssertionError("fell back on a regular file")

        path = _write(tmp_path, lines)
        expected = [[*s.rssi, *s.position] for s in load_csv_reference(path, has_header, mapping)]
        monkeypatch.setattr(data, "_checked_values", refuse)
        table = load_table(path, has_header, mapping)
        assert table.tolist() == expected and len(expected) == sum(map(bool, lines)) - has_header

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        for has_header, lines in ((False, _rows(3)), (True, [HEADER, *_rows(3)])):
            path = _write(tmp_path, lines, prefix=BOM)
            assert len(_same_as_the_loop_and_reference(path, has_header)) == 3

    def test_a_quoted_field_spanning_lines_parses_and_later_lines_keep_their_numbers(
        self, tmp_path
    ):
        path = _write(tmp_path, ['"-50\n",-60,-70,1,2', *_rows(3)], end="\r\n")
        assert _same_as_the_loop_and_reference(path)[0].tolist() == [-50.0, -60.0, -70.0, 1.0,
                                                                      2.0]
        bad = _write(tmp_path, ['"-50\n",-60,-70,1,2', *_rows(3), "-50,abc,-70,1,2"])
        assert _message(lambda: load_table(bad)) == (
            f"{bad}: line 6: non-numeric value 'abc' for field 'rssi_b'")


class TestFallBack:
    def test_a_wrong_field_count_is_named_before_a_later_chunks_csv_error(self, tmp_path):
        lines = _rows(_BULK_ROWS + 100)
        lines[2] = "-50,-60,-70,1"
        lines[_BULK_ROWS + 50] = "1" * 200_000 + ",1,1,1,1"  # past the csv field size limit
        path = _write(tmp_path, lines)
        assert _message(lambda: load_table(path)) == f"{path}: line 3: expected 5 fields, got 4"

    def test_a_later_chunks_fault_is_named_before_a_csv_error_after_it(self, tmp_path):
        lines = _rows(2 * _BULK_ROWS + 100)
        lines[_BULK_ROWS + 9] = "-50,-60,-70,1,2,3"
        lines[2 * _BULK_ROWS + 50] = "1" * 200_000 + ",1,1,1,1"
        path = _write(tmp_path, [HEADER, *lines])
        assert _message(lambda: load_table(path, has_header=True)) == (
            f"{path}: line {_BULK_ROWS + 11}: expected 5 fields, got 6")

    def test_blank_lines_are_skipped(self, tmp_path):
        lines = _rows(_BULK_ROWS + 3)
        lines[_BULK_ROWS + 1: _BULK_ROWS + 1] = ["", " , ,\t", ""]
        path = _write(tmp_path, ["", HEADER, "", *lines, ""], end="\r\n")
        assert len(_same_as_the_loop_and_reference(path, True)) == _BULK_ROWS + 3

    def test_a_whitespace_only_first_row_is_not_the_header(self, tmp_path):
        path = _write(tmp_path, [" , \t", "  ", HEADER, *_rows(4)])
        assert len(_same_as_the_loop_and_reference(path, True)) == 4
        # Without a header it is skipped too, and the header line is the fault.
        assert _message(lambda: load_table(path)) == (
            f"{path}: line 3: non-numeric value 'rssi_a' for field 'rssi_a'")
        # A header that reads as numbers would pass for data if the blank row were the header.
        path = _write(tmp_path, [" , , , , ", "1,2,3,4,5", *_rows(4)])
        assert _same_as_the_loop_and_reference(path, True).tolist() == [
            [float(v) for v in row.split(",")] for row in _rows(4)]

    @pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
    def test_a_non_finite_value_in_the_last_chunk_is_named(self, tmp_path, token):
        lines = _rows(2 * _BULK_ROWS + 5)
        lines[-1] = f"-50,-60,-70,1,{token}"
        path = _write(tmp_path, [HEADER, *lines])
        assert _message(lambda: load_table(path, has_header=True)) == (
            f"{path}: line {len(lines) + 1}: non-finite value for field 'y'")

    def test_bytes_that_are_not_utf8_are_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(("\n".join(_rows(_BULK_ROWS + 2)) + "\n").encode() + b"-5\xff0,1,1,1,1\n")
        assert _message(lambda: load_table(path)) == (
            f"{path}: line {_BULK_ROWS + 3}: byte 0xff is not valid UTF-8")

    def test_finite_readings_near_the_float64_limit_load(self, tmp_path):
        path = _write(tmp_path, ["1e308,1e308,1e308,-1.7976931348623157e308,1e308"] * 3)
        assert _same_as_the_loop_and_reference(path)[0, 3] == -1.7976931348623157e308


def _traced_peak(call) -> int:
    """Peak bytes ``call`` allocates over what was allocated when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_bulk_parsing_peaks_at_the_row_loops_bytes_plus_one_chunk(tmp_path, monkeypatch):
    n = 200_000
    path = tmp_path / "big.csv"
    path.write_text(HEADER + "\n" + "\n".join(_rows(n)) + "\n", encoding="utf-8")

    def one_chunk():
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            return list(itertools.islice(reader, _BULK_ROWS))

    chunk = _traced_peak(one_chunk)
    bulk = _traced_peak(lambda: load_table(path, has_header=True))
    monkeypatch.setattr(data, "_loadtxt_table", lambda *args: None)
    loop = _traced_peak(lambda: load_table(path, has_header=True))
    assert bulk <= loop + chunk, (bulk, loop, chunk)
