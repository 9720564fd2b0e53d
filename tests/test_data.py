"""Dataset layer tests: CSV parsing, scaling, the synthetic channel model."""

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hqloc.data import (
    SCENARIOS,
    SYNTHETIC_RADIO,
    SYNTHETIC_SIGMA,
    TECHNOLOGIES,
    DataFormatError,
    RssiSample,
    Scaler,
    ScenarioMeta,
    default_tx_positions,
    fit_scaler,
    gen_scenario_standin,
    gen_synthetic,
    grid_positions,
    load_mapping,
    load_table,
    save_csv,
    scenario_meta,
    transform,
    transform_samples,
)

from hqloc.data import _aggregate_by_position
from oracles import aggregate_table_reference, load_csv_reference, synthetic_loop


def make_samples(rng, n=12):
    return [
        RssiSample(rssi=tuple(rng.uniform(-90.0, -30.0, size=3)), position=tuple(rng.uniform(0.0, 6.0, size=2)))
        for _ in range(n)
    ]


class TestScenarioTable:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("technology", TECHNOLOGIES)
    def test_meta_fields(self, name, technology):
        meta = scenario_meta(name, technology)
        assert meta.name == name
        assert meta.technology == technology
        assert meta.room == SCENARIOS[name]["room"]
        assert meta.n_train == SCENARIOS[name]["n_train"]
        assert meta.n_test == SCENARIOS[name]["n_test"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_grid_product_matches_train_count(self, name):
        nx, ny = SCENARIOS[name]["grid"]
        assert nx * ny == SCENARIOS[name]["n_train"]

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            scenario_meta("Sc-9", "WiFi")
        with pytest.raises(ValueError):
            scenario_meta("Sc-1", "LoRa")


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark some spreadsheet exports start with


class TestCsvRoundTrip:
    def test_save_then_load_is_exact(self, tmp_path):
        # repr() of a float parses back to the identical value.
        rng = np.random.default_rng(0)
        samples = make_samples(rng)
        path = tmp_path / "data.csv"
        save_csv(samples, path)
        back = load_table(path, has_header=True)
        assert back.tolist() == [list(s) for s in samples]

    def test_no_header_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = make_samples(rng, n=5)
        path = tmp_path / "data.csv"
        save_csv(samples, path, header=False)
        assert load_table(path).tolist() == [list(s) for s in samples]

    def test_header_line_content(self, tmp_path):
        path = tmp_path / "data.csv"
        save_csv([RssiSample((-50.0, -60.0, -70.0), (1.0, 2.0))], path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "rssi_a,rssi_b,rssi_c,x,y"

    def test_crlf_and_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"-50,-60,-70,1.5,2.5\r\n\r\n-51,-61,-71,3.0,4.0\r\n")
        table = load_table(path)
        assert len(table) == 2
        assert table[0].tolist() == [-50.0, -60.0, -70.0, 1.5, 2.5]

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        # Without a header its "\ufeff" would prefix the first reading.
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + b"-50,-60,-70,1,2\n")
        assert load_table(path).tolist() == [[-50.0, -60.0, -70.0, 1.0, 2.0]]

    def test_empty_file_gives_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert load_table(path).tolist() == []


class TestCsvErrors:
    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("-50,-60,-70,1,2\n-50,-60,-70,1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2"):
            load_table(path)

    def test_non_numeric_value_names_line_and_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("-50,abc,-70,1,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1.*rssi_b"):
            load_table(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"-50,-60,{token},1,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_table(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_table(tmp_path / "nope.csv")

    def test_line_counts_lines_inside_quoted_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('"-50\n",-60,-70,1,2\n-50,abc,-70,1,2\n', encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3: non-numeric"):
            load_table(path)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, end):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"-50,-60,-70,1,2" + end + b"-50,-6\xff0,-70,1,2" + end)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 2: byte 0xff")):
            load_table(path)

    def test_invalid_utf8_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(BOM + b"-50,-60,-70,1,2\n-50,-60,-70,1,2\n-50,-6\xff0,-70,1,2\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 3: byte 0xff")):
            load_table(path)

    def test_oversized_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("-50,-60,-70,1,2\n" + "1" * 200_000 + ",1,1,1,1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 2: field larger")):
            load_table(path)


# CSV-like text: number-ish and arbitrary fields, quotes, and every line ending.
csv_fields = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "-", "1e400", "nan", '"', '"1"', "1_0", "\x00"]),
    st.text(max_size=6),
)
csv_texts = st.lists(
    st.tuples(st.lists(csv_fields, max_size=7), st.sampled_from(["\n", "\r\n", "\r", ""])),
    max_size=5,
).map(lambda rows: "".join(",".join(fields) + end for fields, end in rows))


class TestCsvFuzz:
    """Any file content either parses into finite samples or raises DataFormatError."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.binary(max_size=200), csv_texts.map(str.encode)), st.booleans())
    @example(b"rssi_a,rssi_b,rssi_c,x,y\r\n-50,-60,-70,1,2\r\n", True)
    @example(b"-50,-60,-70,1,2\n-50,-6\xff0,-70,1,2\n", False)
    @example(b"-50,-60,-70,1,2\n" + b"1" * 200_000 + b",1,1,1,1\n", False)
    def test_parses_or_raises_format_error(self, tmp_path, content, has_header):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(content)
        try:
            table = load_table(path, has_header=has_header)
        except DataFormatError:
            return
        assert table.ndim == 2 and table.shape[1] == 5
        assert np.isfinite(table).all()


# Cells of a survey file. Most are readings, some padded or odd ("\x1c" is
# whitespace to str.strip() but not to float(), "٣" is an Arabic-Indic three),
# and one in twenty is a fault or a blank. Quoted cells hold a comma or line breaks.
survey_numbers = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([" -50 ", "\x1c-50", "\u00a07", "1_000", "٣", "1e308", "-0.0", '"-50\n"']),
)
survey_faults = st.sampled_from([
    "", " ", "  \t", "nan", "-inf", "inf", "1e400", "-1e400", "abc", "a", '"1\r\n2"', '"4,5"',
    '"a\rb"',
])
survey_cells = st.integers(0, 19).flatmap(lambda k: survey_faults if k == 0 else survey_numbers)
SURVEY_NAMES = ["a", "b", "x", "rssi_a", " b ", "7"]


@st.composite
def survey_cases(draw):
    """(text, has_header, mapping, aggregate_positions) of one generated survey file.

    A mapped file is seven columns wide, so its index sources 0-6 fit; a row
    of another width, a blank row or a bad source turns up now and then.
    """
    has_header = draw(st.booleans())
    mapping, width = None, 5
    if draw(st.booleans()):
        width = 7
        named = st.sampled_from(SURVEY_NAMES[:4]) if has_header else st.just("a")
        sources = st.integers(0, 19).flatmap(
            lambda k: st.one_of(st.just(-1), named) if k == 0 else
            named if k < 4 * has_header else st.integers(0, 6))
        mapping = {field: draw(sources) for field in ("rssi_a", "rssi_b", "rssi_c", "x", "y")}
    rows = []
    if has_header:
        rows.append(draw(st.lists(st.sampled_from(SURVEY_NAMES), min_size=width,
                                  max_size=width)))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            rows.append(draw(st.lists(survey_cells, max_size=8)))
        elif kind == 1:
            rows.append(draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3)))
        else:
            rows.append(draw(st.lists(survey_cells, min_size=width, max_size=width)))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(",".join(cells) + draw(ends) for cells in rows)
    return "\ufeff" * draw(st.booleans()) + text, has_header, mapping, draw(st.booleans())


def _bits(rows) -> list[list[str]]:
    return [[float(v).hex() for v in row] for row in rows]


class TestTableMatchesReference:
    """load_table gives the per-row loop's values bit for bit, or its exact error."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(survey_cases())
    @example(("1e308,1e308,1e308,1e308,1e308\n-1,-2,-3,1e308,1e308\n", False, None, False))
    @example(("rssi_a,b\r\n1,2,3,4,5\r\n1,nan,x,4,5\r\n", True, None, False))
    @example(('1,2,3,4,5\n"1\n2",abc,inf,4\n1,2\n', False, None, False))
    @example(("\ufeff-50,-60,-70,1,2\n-52,-62,-72,1,2\n-40,-41,-42,1.0,2\n", False, None, True))
    @example(("1e308,0,0,1,2\n1e308,0,0,1,2\n", False, None, True))
    @example(("1,2,3,4,5\n1,2,3,4\n", False, {"rssi_a": 4, "rssi_b": 0, "rssi_c": 1, "x": 2, "y": 3},
              False))
    @example(("x,a,b\n1,2,3,4,5,6,7\n1,2\n", True,
              {"rssi_a": "a", "rssi_b": 6, "rssi_c": "b", "x": 0, "y": "x"}, False))
    # Files numpy's C reader refuses, reads differently or cannot check, one fault each.
    @example(("1,2,3,4\n5,6,7,8\n", False, None, False))
    @example(("1_0,2,3,4,5\n", False, None, False))
    @example(("\u0663,2,3,4,5\n", False, None, False))  # an Arabic-Indic three
    @example(("1,2,3,4,5\n , ,\t\n6,7,8,9,10\n", False, None, False))
    @example(("1,2,3,4,5#x\n", False, None, False))
    @example(("0x1p3,2,3,4,5\n", False, None, False))
    @example(("1,2,3,4,nan\n", False, None, False))
    @example(("1e400,2,3,4,5\n", False, None, False))
    @example(('"a\nb",x,y\n1,2,3,4,5,6,7\n8,9,10,11,12,13,14\n', True,
              {"rssi_a": "x", "rssi_b": 3, "rssi_c": "y", "x": 5, "y": 6}, False))
    @example(("\n  \r\n\t\n", True, None, False))
    @example(("1,2,3,4,5,6,7\n", False, {"rssi_a": 0, "rssi_b": 0, "rssi_c": 1, "x": 2, "y": 3},
              False))
    @example(("1,2,3,4,0." + "0" * 200_000 + "1\n", False, None, False))
    @example(('1,2,3,4,"5' + " \n" * 100_000 + '"\n', False, None, False))
    def test_values_or_error_equal_the_reference(self, tmp_path, case):
        text, has_header, mapping, aggregate = case
        path = tmp_path / "survey.csv"
        path.write_bytes(text.encode())
        args = (path, has_header, mapping, aggregate)
        try:
            expected = load_csv_reference(*args)
        except RuntimeWarning:
            # The reference averages readings near the float64 limit into inf, with
            # numpy's overflow warning, which the tests raise; load_table refuses the file.
            with pytest.raises(DataFormatError, match=re.escape(f"{path}: the RSSI readings at "
                                                                "position (")):
                load_table(*args)
            return
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as raised:
                load_table(*args)
            assert str(raised.value) == str(exc)
            return
        table = load_table(*args)
        assert table.shape == (len(expected), 5) and table.dtype == np.float64
        assert _bits(table.tolist()) == _bits([(*s.rssi, *s.position) for s in expected])

    def test_finite_fields_whose_sum_overflows_load(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1e308,1e308,1e308,1e308,1e308\n-1e308,-1e308,-1,1e308,1e308\n",
                        encoding="utf-8")
        table = load_table(path)
        assert table.tolist() == [[1e308] * 5, [-1e308, -1e308, -1.0, 1e308, 1e308]]

    def test_an_empty_file_gives_an_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert load_table(path).shape == (0, 5)


class TestMapping:
    def test_mapped_columns_and_header_names(self, tmp_path):
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text(
            "site,px,py,bt,wifi,zb\nA,1.0,2.0,-61,-51,-71\n", encoding="utf-8"
        )
        map_path = tmp_path / "map.cfg"
        map_path.write_text(
            "# header-name sources\n"
            "rssi_a = wifi\nrssi_b = bt\nrssi_c = zb\nx = px\ny = py\n",
            encoding="utf-8",
        )
        table = load_table(csv_path, has_header=True, mapping=load_mapping(map_path))
        assert table.tolist() == [[-51.0, -61.0, -71.0, 1.0, 2.0]]

    def test_index_sources_without_header(self, tmp_path):
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text("1.0,2.0,-51,-61,-71\n", encoding="utf-8")
        map_path = tmp_path / "map.cfg"
        map_path.write_text(
            "rssi_a = 2\nrssi_b = 3\nrssi_c = 4\nx = 0\ny = 1\n", encoding="utf-8"
        )
        table = load_table(csv_path, mapping=load_mapping(map_path))
        assert table.tolist() == [[-51.0, -61.0, -71.0, 1.0, 2.0]]

    def test_a_mapping_files_byte_order_mark_is_dropped(self, tmp_path):
        # It would otherwise prefix the first field name.
        map_path = tmp_path / "map.cfg"
        map_path.write_bytes(BOM + b"rssi_a = 0\nrssi_b = 1\nrssi_c = 2\nx = 3\ny = 4\n")
        assert load_mapping(map_path) == {"rssi_a": 0, "rssi_b": 1, "rssi_c": 2, "x": 3, "y": 4}

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_a_mapping_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path, end):
        path = tmp_path / "map.cfg"
        path.write_bytes(end.join([b"rssi_a = 0", b"rssi_b = 1", b"rssi_c = \xff2", b""]))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 3: byte 0xff")):
            load_mapping(path)

    def test_a_headers_byte_order_mark_is_dropped(self, tmp_path):
        # It would otherwise prefix the first column name, which a mapping then misses.
        csv_path = tmp_path / "odd.csv"
        csv_path.write_bytes(BOM + b"rssi_a,b,c,d,e\n-50,-60,-70,1,2\n")
        mapping = {"rssi_a": "rssi_a", "rssi_b": 1, "rssi_c": 2, "x": 3, "y": 4}
        table = load_table(csv_path, has_header=True, mapping=mapping)
        assert table.tolist() == [[-50.0, -60.0, -70.0, 1.0, 2.0]]

    def test_mapping_file_errors(self, tmp_path):
        cases = {
            "no_equals.cfg": ("rssi_a 0\n", "line 1"),
            "unknown.cfg": ("rssi_q = 0\n", "unknown field"),
            "dup.cfg": ("rssi_a = 0\nrssi_a = 1\n", "duplicate"),
            "missing.cfg": ("rssi_a = 0\n", "missing fields"),
        }
        for fname, (content, pattern) in cases.items():
            path = tmp_path / fname
            path.write_text(content, encoding="utf-8")
            with pytest.raises(DataFormatError, match=pattern):
                load_mapping(path)

    @pytest.mark.parametrize("source", ["²", "--1", "٣", "+1", "1.0"])
    def test_a_source_that_is_no_ascii_integer_is_a_header_name(self, tmp_path, source):
        # str.isdigit accepts "²" and "٣", and "--1" passes once its dashes are
        # stripped, but int() refuses all three with a bare ValueError.
        map_path = tmp_path / "map.cfg"
        map_path.write_text(f"rssi_a = {source}\nrssi_b = 1\nrssi_c = 2\nx = 3\ny = 4\n",
                            encoding="utf-8")
        mapping = load_mapping(map_path)
        assert mapping["rssi_a"] == source
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text("a,b,c,d,e\n1,2,3,4,5\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=rf"column {re.escape(repr(source))} for "
                                                  r"'rssi_a' not in header"):
            load_table(csv_path, has_header=True, mapping=mapping)

    def test_ascii_integer_sources_are_column_indices(self, tmp_path):
        map_path = tmp_path / "map.cfg"
        map_path.write_text("rssi_a = 0\nrssi_b = -1\nrssi_c = 12\nx = 3\ny = 4\n",
                            encoding="utf-8")
        assert load_mapping(map_path) == {"rssi_a": 0, "rssi_b": -1, "rssi_c": 12, "x": 3, "y": 4}

    def test_name_source_needs_header(self, tmp_path):
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text("1,2,3,4,5\n", encoding="utf-8")
        mapping = {"rssi_a": "a", "rssi_b": 1, "rssi_c": 2, "x": 3, "y": 4}
        with pytest.raises(DataFormatError, match="without a header"):
            load_table(csv_path, mapping=mapping)

    def test_unknown_header_name(self, tmp_path):
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text("a,b,c,d,e\n1,2,3,4,5\n", encoding="utf-8")
        mapping = {"rssi_a": "zz", "rssi_b": 1, "rssi_c": 2, "x": 3, "y": 4}
        with pytest.raises(DataFormatError, match="'zz'"):
            load_table(csv_path, has_header=True, mapping=mapping)

    def test_mapped_column_out_of_range(self, tmp_path):
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text("1,2,3\n", encoding="utf-8")
        mapping = {"rssi_a": 0, "rssi_b": 1, "rssi_c": 2, "x": 3, "y": 4}
        with pytest.raises(DataFormatError, match="line 1"):
            load_table(csv_path, mapping=mapping)


class TestAggregation:
    def test_repeated_positions_average_rssi(self, tmp_path):
        path = tmp_path / "rep.csv"
        path.write_text(
            "-50,-60,-70,1,2\n-52,-62,-72,1,2\n-40,-40,-40,3,4\n", encoding="utf-8"
        )
        table = load_table(path, aggregate_positions=True)
        assert len(table) == 2
        assert table[0, 3:].tolist() == [1.0, 2.0]
        np.testing.assert_allclose(table[0, :3], (-51.0, -61.0, -71.0), rtol=0, atol=1e-12)
        assert table[1].tolist() == [-40.0, -40.0, -40.0, 3.0, 4.0]

    def test_first_seen_position_order_kept(self, tmp_path):
        path = tmp_path / "rep.csv"
        path.write_text(
            "-1,-1,-1,9,9\n-2,-2,-2,0,0\n-3,-3,-3,9,9\n", encoding="utf-8"
        )
        table = load_table(path, aggregate_positions=True)
        assert table[:, 3:].tolist() == [[9.0, 9.0], [0.0, 0.0]]

    def test_readings_that_average_beyond_float64_name_the_file_and_position(self, tmp_path):
        # Every reading is finite, but the two at (1, 2) sum to inf and the two
        # at (5, 6) to -inf; the first in file order is named.
        path = tmp_path / "huge.csv"
        path.write_text("-40,-41,-42,3,4\n1e308,0,0,1,2\n1e308,0,0,1,2\n-1e308,0,-1e308,5,6\n"
                        "-1e308,0,-1e308,5,6\n", encoding="utf-8")
        message = f"{path}: the RSSI readings at position (1.0, 2.0) average beyond the float64 range"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            load_table(path, aggregate_positions=True)
        assert load_table(path).shape == (5, 5)  # unaggregated, every row loads

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e308])] * 2),
                    min_size=1, max_size=3).flatmap(lambda pool: st.integers(0, 40).flatmap(
        lambda n: st.tuples(
            st.just(pool),
            st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n),
            st.sampled_from([[0.0, -0.0, 5e-324],
                             [0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308]]).flatmap(
                lambda edges: st.lists(st.one_of(st.sampled_from(edges), st.floats(-1e3, 1e3)),
                                       min_size=3 * n, max_size=3 * n)),
        ))))
    def test_one_pass_means_equal_the_per_group_loop(self, drawn):
        # Each row takes one of at most three positions, so groups of 8 to 40
        # rows are common, and readings at -0.0, at the float64 limit in some
        # examples only (a large group of them mostly overflows): the same
        # bits, or the same error.
        pool, group, readings = drawn
        n = len(group)
        positions = [pool[g] for g in group]
        table = np.column_stack([np.reshape(readings, (n, 3)), np.reshape(positions, (n, 2))])
        table = table.reshape(-1, 5)
        try:
            expected = aggregate_table_reference(table, "survey.csv")
        except DataFormatError as exc:
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(exc))}$"):
                _aggregate_by_position(table, "survey.csv")
        else:
            got = _aggregate_by_position(table, "survey.csv")
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestSamplesAreTableRows:
    def test_a_sample_is_a_row_of_five_floats(self):
        sample = RssiSample(rssi=np.array([-50, -60.5, -70.0]), position=(1, np.float64(2.5)))
        assert sample == (-50.0, -60.5, -70.0, 1.0, 2.5)
        assert sample.rssi == (-50.0, -60.5, -70.0) and sample.position == (1.0, 2.5)
        assert {type(v) for v in (*sample, *sample.rssi, *sample.position)} == {float}
        assert np.asarray([sample, sample], dtype=float).shape == (2, 5)
        with pytest.raises(AttributeError):
            sample.rssi = (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("rssi, position", [
        ((-50.0, -60.0), (1.0, 2.0, 3.0)), ((-50.0, -60.0, -70.0), (1.0,)), ((), ()),
    ])
    def test_a_row_of_other_widths_is_refused(self, rssi, position):
        with pytest.raises(ValueError, match="3 RSSI readings and an"):
            RssiSample(rssi, position)

    def test_copies_and_pickles_rebuild_the_sample(self):
        sample = RssiSample((-50.0, -0.0, -70.0), (1.0, 2.0))
        for twin in (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample))):
            assert type(twin) is RssiSample and twin == sample
            assert math.copysign(1.0, twin.rssi[1]) == -1.0

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(
        st.tuples(*[st.floats(-200.0, 200.0)] * 5), min_size=1, max_size=4,
    ).flatmap(lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=9)))
    @example(rows=[(-50.0, -60.0, -70.0, 1.0, 2.0)])  # one row: every column is constant
    @example(rows=[(-0.0, -60.0, -70.0, -0.0, 0.0), (-0.0, -60.0, -70.0, -0.0, 0.0),
                   (3.0, -40.0, -71.0, 1.0, -0.0)])
    def test_a_table_and_its_samples_give_the_same_bytes(self, rows, tmp_path):
        table = np.array(rows, dtype=float)
        samples = [RssiSample(row[:3], row[3:]) for row in rows]
        fitted = []
        for given_rows in (table, samples):
            try:
                scaler = fit_scaler(given_rows)
            except ValueError as exc:
                fitted.append(str(exc))
            else:
                fitted.append(scaler.lo.tobytes() + scaler.hi.tobytes())
        assert fitted[0] == fitted[1]
        # A lo of 0.0 scales a -0.0 reading to -0.0, whichever way the rows come.
        scaler = Scaler(lo=np.array([0.0, -100.0, -100.0]), hi=np.array([150.0, 0.0, 100.0]))
        scaled = [transform_samples(scaler, given_rows) for given_rows in (table, samples)]
        for a, b in zip(*scaled):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous and b.flags.c_contiguous  # training reads them per epoch
        save_csv(table, tmp_path / "table.csv")
        save_csv(samples, tmp_path / "samples.csv")
        written = (tmp_path / "table.csv").read_bytes()
        assert written == (tmp_path / "samples.csv").read_bytes()
        assert load_table(tmp_path / "table.csv", has_header=True).tobytes() == table.tobytes()


class TestScaler:
    def test_train_range_maps_to_unit_interval(self):
        rng = np.random.default_rng(2)
        samples = make_samples(rng, n=30)
        scaler = fit_scaler(samples)
        feats, targs = transform_samples(scaler, samples)
        assert feats.shape == (30, 3)
        assert np.all(feats >= 0.0) and np.all(feats <= 1.0)
        np.testing.assert_allclose(feats.min(axis=0), 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(feats.max(axis=0), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(targs, np.asarray(samples)[:, 3:])

    def test_out_of_range_values_clamp(self):
        samples = [
            RssiSample((-80.0, -80.0, -80.0), (0.0, 0.0)),
            RssiSample((-40.0, -40.0, -40.0), (1.0, 1.0)),
        ]
        scaler = fit_scaler(samples)
        np.testing.assert_array_equal(transform(scaler, (-100.0, -60.0, -20.0)), [0.0, 0.5, 1.0])

    def test_linear_inside_range(self):
        samples = [
            RssiSample((-90.0, -90.0, -90.0), (0.0, 0.0)),
            RssiSample((-50.0, -50.0, -50.0), (1.0, 1.0)),
        ]
        scaler = fit_scaler(samples)
        np.testing.assert_allclose(
            transform(scaler, (-80.0, -70.0, -60.0)), [0.25, 0.5, 0.75], rtol=0, atol=1e-15
        )

    def test_matrix_transform_matches_rows_bit_for_bit(self):
        rng = np.random.default_rng(3)
        scaler = fit_scaler(make_samples(rng, n=20))
        # Fresh draws fall outside the fitted range too, so clamping is covered.
        samples = make_samples(rng, n=50)
        rows = np.array([transform(scaler, s.rssi) for s in samples])
        assert np.any(rows == 0.0) and np.any(rows == 1.0)
        np.testing.assert_array_equal(transform(scaler, np.asarray(samples)[:, :3]), rows)
        np.testing.assert_array_equal(transform_samples(scaler, samples)[0], rows)
        assert transform_samples(scaler, [])[0].shape == (0, 3)

    def test_in_place_clip_equals_np_clip_bit_for_bit(self):
        # A lo of 0.0 lets a -0.0 reading scale to -0.0, which np.clip keeps.
        scaler = Scaler(lo=np.array([0.0, -90.0, -80.0]), hi=np.array([10.0, -40.0, -30.0]))
        readings = np.array([
            [-0.0, -90.0, -30.0],  # -0.0 and both exact bounds
            [0.0, -40.0, -80.0],
            [-1.0, -95.0, -29.0],  # beyond the range, both sides
            [11.0, -35.0, -81.0],
            [5e-324, -65.0, -55.0],  # just inside, and the middle
            [-5e-324, -39.99999999999999, -80.00000000000001],  # one ulp outside
        ])
        expected = np.clip((readings - scaler.lo) / (scaler.hi - scaler.lo), 0.0, 1.0)
        assert np.signbit(expected[0, 0]) and not np.signbit(expected[1, 0])
        assert transform(scaler, readings).tobytes() == expected.tobytes()
        for reading, row in zip(readings, expected):
            assert transform(scaler, reading).tobytes() == row.tobytes()

    @pytest.mark.parametrize("rssi", [
        np.zeros((2, 4)), np.zeros(2), np.zeros((3, 1)), -50.0,
    ], ids=["four_columns", "two_features", "column_vector", "scalar"])
    def test_rejects_wrong_feature_count(self, rssi):
        scaler = fit_scaler(make_samples(np.random.default_rng(4)))
        with pytest.raises(ValueError, match="maps 3 RSSI features"):
            transform(scaler, rssi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_readings(self, bad):
        scaler = fit_scaler(make_samples(np.random.default_rng(5)))
        with pytest.raises(ValueError, match="must be finite"):
            transform(scaler, [bad, -50.0, -60.0])
        rows = np.full((4, 3), -60.0)
        rows[2, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            transform(scaler, rows)

    def test_constant_column_rejected(self):
        samples = [
            RssiSample((-50.0, -60.0, -70.0), (0.0, 0.0)),
            RssiSample((-40.0, -60.0, -50.0), (1.0, 1.0)),
        ]
        with pytest.raises(ValueError, match=r"\[1\]"):
            fit_scaler(samples)

    def test_a_span_beyond_float64_is_rejected_by_column(self):
        # hi - lo would be inf, and every scaled reading 0 or NaN.
        table = np.array([[-1e308, -60.0, 1.7e308, 0.0, 0.0],
                          [1e308, -50.0, -1e308, 1.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape(
                "feature column(s) [0, 2] span beyond the float64 range: cannot scale")):
            fit_scaler(table)
        table[:, 0] = -1e308, 7.9e307  # a span just inside the float64 range
        table[:, 2] = -1e308, 1.0
        scaler = fit_scaler(table)
        assert np.isfinite(scaler.hi - scaler.lo).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_readings_rejected_by_column(self, bad):
        # NaN would become the column's bounds; an inf would scale every
        # reading of its column to 0 or 1.
        samples = make_samples(np.random.default_rng(6))
        for row, column in ((3, 2), (7, 0)):
            rssi = list(samples[row].rssi)
            rssi[column] = bad
            samples[row] = RssiSample(tuple(rssi), samples[row].position)
        with pytest.raises(ValueError, match=r"NaN or inf readings in feature column\(s\) \[0, 2\]"):
            fit_scaler(samples)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler([])


class TestGridPositions:
    def test_counts_margins_and_row_major_order(self):
        grid = grid_positions((6.0, 5.5), (7, 7))
        assert len(grid) == 49
        xs = [p[0] for p in grid]
        ys = [p[1] for p in grid]
        assert min(xs) == 0.5 and max(xs) == 5.5
        assert min(ys) == 0.5 and max(ys) == 5.0
        # Row-major: x sweeps fastest.
        assert grid[0] == (0.5, 0.5)
        assert grid[1][1] == 0.5 and grid[1][0] > grid[0][0]
        assert grid[7][1] > grid[6][1]

    def test_single_row_or_column_centers(self):
        assert grid_positions((4.0, 3.0), (1, 2)) == [(2.0, 0.5), (2.0, 2.5)]

    def test_uniform_spacing(self):
        grid = grid_positions((10.8, 7.2), (8, 5))
        xs = sorted({p[0] for p in grid})
        diffs = np.diff(xs)
        np.testing.assert_allclose(diffs, diffs[0], rtol=0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_positions((6.0, 5.5), (0, 3))
        with pytest.raises(ValueError):
            grid_positions((1.0, 5.0), (2, 2))
        for shape in [(2.5, 2), (2, 2.0), (True, 2)]:
            with pytest.raises(ValueError, match="grid shape must be an integer"):
                grid_positions((6.0, 5.5), shape)
        for room in [(np.nan, 5.5), (6.0, np.inf), (-np.inf, 5.5)]:
            with pytest.raises(ValueError, match="room sides must be finite"):
                grid_positions(room, (3, 3))


class TestSyntheticGenerator:
    def test_noiseless_rssi_matches_path_loss_formula(self):
        meta = scenario_meta("Sc-1", "WiFi")
        samples = gen_synthetic(meta, sigma=0.0, rng_seed=3, n_points=20)
        tx = np.asarray(default_tx_positions(meta.room))
        for s in samples:
            for j in range(3):
                d = max(math.dist(s.position, tx[j]), 1.0)
                expected = -40.0 - 10.0 * 2.5 * math.log10(d)
                np.testing.assert_allclose(s.rssi[j], expected, rtol=0, atol=1e-12)

    def test_rssi_decreases_with_distance(self):
        # Noiseless RSSI from one transmitter must fall monotonically along a
        # straight walk away from it, once past the 1 m reference floor.
        meta = scenario_meta("Sc-3", "WiFi")
        walk = [(1.6 + 0.8 * i, 0.5) for i in range(11)]
        samples = gen_synthetic(meta, sigma=0.0, positions=walk)
        first_tx = [s.rssi[0] for s in samples]
        assert all(a > b for a, b in zip(first_tx, first_tx[1:]))

    def test_distance_floored_at_reference(self):
        meta = scenario_meta("Sc-1", "WiFi")
        # Both positions are within 1 m of the first transmitter at (0.5, 0.5).
        samples = gen_synthetic(meta, sigma=0.0, positions=[(0.5, 0.5), (1.0, 0.5)])
        assert samples[0].rssi[0] == samples[1].rssi[0] == -40.0

    def test_positions_inside_room(self):
        meta = scenario_meta("Sc-2", "Bluetooth")
        samples = gen_synthetic(meta, rng_seed=4, n_points=200)
        pos = np.asarray(samples)[:, 3:]
        assert np.all(pos >= 0.0)
        assert np.all(pos[:, 0] <= meta.room[0])
        assert np.all(pos[:, 1] <= meta.room[1])

    def test_default_count_is_train_plus_test(self):
        meta = scenario_meta("Sc-1", "WiFi")
        assert len(gen_synthetic(meta, rng_seed=0)) == meta.n_train + meta.n_test

    def test_same_seed_reproduces_sequence_seeds_decorrelate(self):
        meta = scenario_meta("Sc-1", "WiFi")
        a = gen_synthetic(meta, sigma=2.0, rng_seed=5)
        b = gen_synthetic(meta, sigma=2.0, rng_seed=5)
        c = gen_synthetic(meta, sigma=2.0, rng_seed=6)
        assert a == b
        assert a != c

    def test_sequence_seeds_accepted(self):
        meta = scenario_meta("Sc-1", "WiFi")
        a = gen_synthetic(meta, sigma=1.0, rng_seed=[1, 2, 3])
        b = gen_synthetic(meta, sigma=1.0, rng_seed=[1, 2, 3])
        c = gen_synthetic(meta, sigma=1.0, rng_seed=[1, 2, 4])
        assert a == b and a != c

    def test_explicit_positions_respected(self):
        meta = scenario_meta("Sc-1", "WiFi")
        anchors = [(1.0, 1.0), (2.0, 3.0)]
        samples = gen_synthetic(meta, sigma=1.0, rng_seed=0, positions=anchors)
        assert [s.position for s in samples] == anchors

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("technology", TECHNOLOGIES)
    def test_matches_a_per_position_loop_bit_for_bit(self, name, technology):
        meta = scenario_meta(name, technology)
        pl0, n_exp = SYNTHETIC_RADIO[technology]
        model = dict(pl0=pl0, n_exp=n_exp, sigma=SYNTHETIC_SIGMA[name])
        tx = default_tx_positions(meta.room)
        grid = grid_positions(meta.room, SCENARIOS[name]["grid"])
        for seed in (7, [1, 2, 0]):
            runs = [
                (gen_synthetic(meta, rng_seed=seed, n_points=60, **model),
                 synthetic_loop(meta.room, tx, rng_seed=seed, n_points=60, **model)),
                (gen_synthetic(meta, rng_seed=seed, positions=grid, **model),
                 synthetic_loop(meta.room, tx, rng_seed=seed, positions=grid, **model)),
            ]
            for samples, reference in runs:
                got = np.array([(*s.rssi, *s.position) for s in samples])
                assert got.tobytes() == np.array([(*r, *p) for r, p in reference]).tobytes()
                assert {type(v) for s in samples for v in s} == {float}  # a row of 5 floats

    def test_validation(self):
        meta = scenario_meta("Sc-1", "WiFi")
        with pytest.raises(ValueError):
            gen_synthetic(meta, sigma=-1.0)
        with pytest.raises(ValueError):
            gen_synthetic(meta, n_points=0)
        with pytest.raises(ValueError):
            gen_synthetic(meta, tx_positions=[(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            gen_synthetic(meta, tx_positions=[(0.0, 0.0), (1.0, 1.0), (99.0, 0.0)])
        with pytest.raises(ValueError):
            gen_synthetic(meta, positions=np.zeros((4, 3)))

    @pytest.mark.parametrize("name, value", [
        ("pl0", np.inf), ("n_exp", np.nan), ("sigma", np.nan), ("sigma", np.inf),
    ])
    def test_non_finite_model_parameter_rejected(self, name, value):
        meta = scenario_meta("Sc-1", "WiFi")
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            gen_synthetic(meta, n_points=5, **{name: value})

    @pytest.mark.parametrize("room, message", [
        ((np.inf, 5.0), "room width must be finite, got inf"),
        ((6.0, np.nan), "room height must be finite, got nan"),
    ])
    def test_non_finite_room_rejected(self, room, message):
        meta = ScenarioMeta("custom", "custom", room, 5, 0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_synthetic(meta, tx_positions=[(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)])

    def test_non_finite_positions_rejected(self):
        meta = scenario_meta("Sc-1", "WiFi")
        with pytest.raises(ValueError, match="must lie inside"):
            gen_synthetic(meta, tx_positions=[(0.5, 0.5), (np.nan, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError, match="positions must be finite"):
            gen_synthetic(meta, positions=[(1.0, 1.0), (np.inf, 2.0)])

    @pytest.mark.parametrize("room, model", [
        ((1e160, 1e160), {}),  # the distances' squares overflow
        ((1e155, 5.0), {}),
        ((6.0, 5.5), {"n_exp": 1e308}),  # 10 * n_exp overflows
        ((6.0, 5.5), {"n_exp": -1e308}),
        ((6.0, 5.5), {"sigma": 1e308}),  # the shadowing draws overflow
        ((6.0, 5.5), {"pl0": -1.7e308, "n_exp": 1e307}),  # pl0 minus the path loss overflows
    ])
    def test_settings_whose_readings_overflow_are_refused_by_name(self, room, model):
        # Every setting is finite; the readings are not. pytest's
        # error::RuntimeWarning filter fails the test if numpy warns first.
        meta = ScenarioMeta("custom", "custom", room, 5, 0)
        settings_ = {"pl0": -40.0, "n_exp": 2.5, "sigma": 1.0, **model}
        message = (f"pl0={settings_['pl0']!r}, n_exp={settings_['n_exp']!r} and "
                   f"sigma={settings_['sigma']!r} in a {room[0]!r}x{room[1]!r} room give "
                   "RSSI readings beyond the float64 range")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_synthetic(meta, rng_seed=1, n_points=5, **settings_)

    def test_readings_just_inside_the_float64_range_still_load(self):
        # A room side of 1e150 keeps every square finite: the readings are
        # large but finite, and they are what the per-position loop gives.
        meta = ScenarioMeta("custom", "custom", (1e150, 1e150), 5, 0)
        tx = default_tx_positions(meta.room)
        samples = gen_synthetic(meta, rng_seed=2, n_points=5)
        reference = synthetic_loop(meta.room, tx, -40.0, 2.5, 1.0, rng_seed=2, n_points=5)
        got = np.array([(*s.rssi, *s.position) for s in samples])
        assert np.isfinite(got).all()
        assert got.tobytes() == np.array([(*r, *p) for r, p in reference]).tobytes()

    @pytest.mark.parametrize("n_points", [2.7, 3.0, True, "5"])
    def test_non_integer_point_count_rejected(self, n_points):
        meta = scenario_meta("Sc-1", "WiFi")
        with pytest.raises(ValueError, match=re.escape(f"n_points must be an integer, got {n_points!r}")):
            gen_synthetic(meta, n_points=n_points)


class TestScenarioStandins:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_shapes_follow_published_split(self, name):
        meta, train, test = gen_scenario_standin(name, "WiFi", seed=0)
        assert len(train) == meta.n_train
        assert len(test) == meta.n_test

    def test_training_positions_sit_on_survey_grid(self):
        meta, train, _ = gen_scenario_standin("Sc-1", "Zigbee", seed=2)
        grid = grid_positions(meta.room, SCENARIOS["Sc-1"]["grid"])
        assert [s.position for s in train] == grid

    def test_cells_are_reproducible_and_decorrelated(self):
        a = gen_scenario_standin("Sc-2", "WiFi", seed=1)
        b = gen_scenario_standin("Sc-2", "WiFi", seed=1)
        c = gen_scenario_standin("Sc-2", "WiFi", seed=2)
        d = gen_scenario_standin("Sc-2", "Bluetooth", seed=1)
        assert a[1] == b[1] and a[2] == b[2]
        assert a[1] != c[1]
        assert a[1] != d[1]

    def test_n_test_override(self):
        _, _, test = gen_scenario_standin("Sc-1", "WiFi", seed=0, n_test=100)
        assert len(test) == 100

    def test_radio_profiles_cover_all_technologies(self):
        assert set(SYNTHETIC_RADIO) == set(TECHNOLOGIES)
        assert set(SYNTHETIC_SIGMA) == set(SCENARIOS)
