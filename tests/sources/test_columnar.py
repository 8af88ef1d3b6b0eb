"""Tests for the columnar ingestion plane: the parser and the fold.

The fold is checked against materialize-then-group semantics
(:func:`tests.sources.oracle.reference_summaries`): for any event
stream, chunk size and option set it must produce exactly the oracle's
summaries — same intervals, same first timestamps, same URL samples,
same ordering.  The chunk parser is checked against the record parser
(:func:`repro.sources.proxy.read_log`): same records, or the same error
naming the same line.
"""

import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sources.columnar import (
    ColumnTables,
    ColumnarAccumulator,
    RecordChunk,
    StringTable,
    chunks_to_records,
    read_log_chunks,
    records_to_chunks,
    summaries_from_chunks,
)
from repro.sources.proxy import (
    LogFormatError,
    PairConfig,
    ProxyLogRecord,
    read_log,
    records_to_summaries,
    slot_column,
    write_log,
)
from tests.sources.oracle import reference_summaries


def make_records(n=400, *, seed=7, sorted_times=True):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0, 7200, size=n)
    if sorted_times:
        times = np.sort(times)
    records = []
    for i, ts in enumerate(times):
        host = f"host{i % 7}"
        records.append(
            ProxyLogRecord(
                timestamp=round(float(ts), 3),
                source_mac=f"aa:bb:cc:00:00:{i % 7:02x}",
                source_ip=f"10.0.0.{i % 7}",
                destination=f"site{i % 13}.example.com",
                url=f"http://site{i % 13}.example.com/p{i % 5}?q={i}",
                status=200 if i % 11 else 404,
                bytes_sent=100 + i,
            )
        )
    return records


class TestStringTable:
    def test_intern_is_stable(self):
        table = StringTable()
        a = table.intern("alpha")
        b = table.intern("beta")
        assert table.intern("alpha") == a
        assert a != b

    def test_intern_column_matches_intern(self):
        column = ["c", "a", "b", "a", "c", "c"]
        one = StringTable()
        expected = [one.intern(v) for v in column]
        two = StringTable()
        ids = two.intern_column(column)
        # Ids may differ between the two tables; decoded values must not.
        assert two.decode(ids) == one.decode(np.asarray(expected))
        assert two.decode(ids) == column

    def test_decode_roundtrip(self):
        table = StringTable()
        ids = table.intern_column(["x", "y", "x"])
        assert table.decode(ids) == ["x", "y", "x"]

    @pytest.mark.parametrize(
        "columns",
        [
            pytest.param([["b", "a", "b", "c"], ["b", "a", "b", "c"]],
                         id="repeated"),
            pytest.param([["m", "c", "x", "c"], ["x", "a", "m", "z", "c", "a"]],
                         id="warm-new-and-known"),
            pytest.param([[], ["q", "p"], []], id="empty"),
            pytest.param([["é", "e", "日本", "ß", "z", "Ω", "é"], ["ü", "Ω", "€"]],
                         id="non-ascii"),
        ],
    )
    def test_intern_column_matches_unique_oracle(self, columns):
        table = StringTable()
        oracle: list = []
        for column in columns:
            ids = table.intern_column(column)
            assert ids.dtype == np.int32
            np.testing.assert_array_equal(ids, unique_intern(oracle, column))
            assert table.values == oracle
            assert table.decode(ids) == column

    @settings(max_examples=60, deadline=None)
    @given(
        columns=st.lists(
            st.lists(
                st.text(
                    st.characters(exclude_characters="\x00"), max_size=4
                ),
                max_size=12,
            ),
            max_size=4,
        )
    )
    def test_intern_column_matches_unique_oracle_on_any_text(self, columns):
        # The oracle's fixed-width numpy strings drop trailing NULs
        # (test_trailing_nul_is_its_own_string), so NUL is left out.
        table = StringTable()
        oracle: list = []
        for column in columns:
            ids = table.intern_column(column)
            np.testing.assert_array_equal(ids, unique_intern(oracle, column))
        assert table.values == oracle

    def test_trailing_nul_is_its_own_string(self):
        table = StringTable()
        ids = table.intern_column(["/x\x00", "/x"])
        assert ids[0] != ids[1]
        assert table.decode(ids) == ["/x\x00", "/x"]


def unique_intern(values, column):
    """The sort-based interning oracle: ``np.unique``, then a lookup table.

    ``values`` is the oracle table's id -> string list, extended in
    place; the distinct strings of ``column`` not in it yet are appended
    in ``np.unique``'s sorted order.
    """
    ids = {value: index for index, value in enumerate(values)}
    uniques, inverse = np.unique(np.asarray(column), return_inverse=True)
    lut = np.empty(len(uniques), dtype=np.int32)
    for index, value in enumerate(uniques.tolist()):
        if value not in ids:
            ids[value] = len(values)
            values.append(value)
        lut[index] = ids[value]
    return lut[inverse]


class TestChunkRoundtrip:
    def test_records_to_chunks_and_back(self):
        records = make_records(100)
        chunks = list(records_to_chunks(records, chunk_size=33))
        assert sum(len(c.data) for c in chunks) == 100
        assert list(chunks_to_records(chunks)) == records

    def test_file_parse_matches_object_parse(self, tmp_path):
        from repro.sources.proxy import read_log

        records = make_records(300)
        path = tmp_path / "log.tsv"
        write_log(records, path)
        via_objects = list(read_log(path))
        via_chunks = list(chunks_to_records(read_log_chunks(path, chunk_size=77)))
        assert via_chunks == via_objects

    def test_blank_lines_tolerated(self, tmp_path):
        records = make_records(20)
        path = tmp_path / "log.tsv"
        write_log(records, path)
        text = path.read_text()
        lines = text.splitlines()
        lines.insert(3, "")
        lines.insert(11, "")
        path.write_text("\n".join(lines) + "\n")
        parsed = list(chunks_to_records(read_log_chunks(path, chunk_size=7)))
        assert parsed == records


class TestMalformedLines:
    @pytest.mark.parametrize("surplus", [1, 2])
    def test_field_counts_that_cancel_out_are_rejected(self, tmp_path, surplus):
        # 8 + 6 or 9 + 5 fields make up 2 x 7: the batch's field total is
        # right, but the lines after the long one are misaligned.
        fields = ["10.0", "aa:bb", "10.0.0.1", "c2.example.net", "/x", "200", "0"]
        good = "\t".join(fields) + "\n"
        long_line = "\t".join(fields + ["220.000"] * surplus) + "\n"
        short_line = "\t".join(fields[:5 - surplus] + fields[5:]) + "\n"
        path = tmp_path / "log.tsv"
        path.write_text(good + long_line + short_line + good)
        message = f"malformed log line: {long_line!r}"
        with pytest.raises(LogFormatError, match=re.escape(message)):
            list(read_log_chunks(path))
        with pytest.raises(LogFormatError, match=re.escape(message)):
            list(read_log(path))

    @pytest.mark.parametrize(
        "status, bytes_sent, name",
        [
            ("99999999999", "0", "status"),
            ("2147483648", "0", "status"),
            ("-2147483649", "0", "status"),
            ("200", "99999999999999999999", "bytes_sent"),
            ("200", "-9223372036854775809", "bytes_sent"),
        ],
    )
    def test_numbers_out_of_column_range_are_rejected(
        self, tmp_path, status, bytes_sent, name
    ):
        # An int32 status column would wrap 99999999999 to 1215752191;
        # a byte count beyond int64 would end in a raw OverflowError.
        fields = ["10.0", "aa:bb", "10.0.0.1", "c2.example.net", "/x"]
        good = "\t".join(fields + ["200", "0"]) + "\n"
        bad = "\t".join(fields + [status, bytes_sent]) + "\n"
        path = tmp_path / "log.tsv"
        path.write_text(good + bad + good)
        value = status if name == "status" else bytes_sent
        message = f"malformed log line: {bad!r}: {name} {value} is out of range"
        with pytest.raises(LogFormatError, match=re.escape(message)):
            list(read_log_chunks(path))
        with pytest.raises(LogFormatError, match=re.escape(message)):
            list(read_log(path))

    def test_numbers_at_the_column_bounds_are_kept(self, tmp_path):
        fields = ["10.0", "aa:bb", "10.0.0.1", "c2.example.net", "/x"]
        path = tmp_path / "log.tsv"
        path.write_text(
            "\t".join(fields + ["2147483647", "9223372036854775807"]) + "\n"
            + "\t".join(fields + ["-2147483648", "-9223372036854775808"])
            + "\n"
        )
        parsed = list(chunks_to_records(read_log_chunks(path)))
        assert parsed == list(read_log(path))
        assert [(r.status, r.bytes_sent) for r in parsed] == [
            (2**31 - 1, 2**63 - 1), (-(2**31), -(2**63)),
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(
            st.sampled_from([0, 5, 6, 7, 8, 9]).flatmap(
                lambda n: st.lists(
                    st.sampled_from(
                        ["", " ", "7", "-2", "60.5", "1e3", "m1", "a.example",
                         "99999999999", "99999999999999999999"]
                    ),
                    min_size=n,
                    max_size=n,
                )
            ),
            min_size=1,
            max_size=12,
        ),
        chunk_size=st.integers(1, 5),
    )
    def test_chunk_parser_agrees_with_the_record_parser(self, lines, chunk_size):
        # Blank lines and lines of 5-9 fields, numbers or not, in range
        # or not: both parsers give the same records or the same error
        # naming the same line.
        def parse(records):
            try:
                return list(records), None
            except LogFormatError as exc:
                return None, str(exc)

        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "log.tsv"
            path.write_text("".join("\t".join(line) + "\n" for line in lines))
            by_records = parse(read_log(path))
            by_chunks = parse(
                chunks_to_records(read_log_chunks(path, chunk_size=chunk_size))
            )
        assert by_chunks == by_records


PARITY_CONFIGS = [
    {},
    {"time_scale": 30.0},
    {"aggregate_entities": True},
    {"keep_urls": False},
    {"max_urls_per_pair": 3},
    {"max_urls_per_pair": 0},
    {"time_scale": 60.0, "aggregate_entities": True, "max_urls_per_pair": 2},
]


class TestFoldParity:
    @pytest.mark.parametrize("config", PARITY_CONFIGS)
    def test_summaries_bit_identical_to_object_path(self, config):
        records = make_records(400)
        expected = reference_summaries(records, **config)
        actual = summaries_from_chunks(
            records_to_chunks(records, chunk_size=113), **config
        )
        assert actual == expected

    def test_unsorted_stream_parity(self):
        records = make_records(400, sorted_times=False)
        expected = reference_summaries(records)
        actual = summaries_from_chunks(records_to_chunks(records, chunk_size=97))
        assert actual == expected

    def test_single_chunk_parity(self):
        records = make_records(150)
        expected = reference_summaries(records)
        actual = summaries_from_chunks(records_to_chunks(records))
        assert actual == expected

    @pytest.mark.parametrize(
        "pair_config",
        [
            PairConfig(source_feature="ip"),
            PairConfig(destination_feature="registered_domain"),
        ],
    )
    def test_pair_config_keying_matches(self, pair_config):
        records = make_records(300)
        expected = reference_summaries(records, pair_config=pair_config)
        actual = summaries_from_chunks(
            records_to_chunks(records, chunk_size=64), pair_config=pair_config
        )
        assert actual == expected

    def test_incremental_observe_matches_batch(self):
        records = make_records(200)
        accumulator = ColumnarAccumulator()
        for chunk in records_to_chunks(records, chunk_size=41):
            accumulator.observe_chunk(chunk)
        assert accumulator.summaries() == reference_summaries(records)

    def test_empty_stream(self):
        assert summaries_from_chunks([]) == []

    @pytest.mark.parametrize("sorted_times", [True, False])
    @pytest.mark.parametrize("max_urls", [3, 64])
    def test_stream_mixing_two_column_tables(self, sorted_times, max_urls):
        # Alternate chunks interned against two ColumnTables: equal
        # strings carry different ids, so pairs and URL samples must be
        # matched by string, not id.
        records = make_records(1200, sorted_times=sorted_times)
        tables = (ColumnTables(), ColumnTables())
        chunks = [
            RecordChunk.from_records(
                records[start:start + 100], tables=tables[start // 100 % 2]
            )
            for start in range(0, len(records), 100)
        ]
        expected = reference_summaries(records, max_urls_per_pair=max_urls)
        actual = summaries_from_chunks(chunks, max_urls_per_pair=max_urls)
        assert actual == expected

    @pytest.mark.parametrize("sorted_times", [True, False])
    @pytest.mark.parametrize("chunk_size", [1, 7])
    @pytest.mark.parametrize("max_urls", [1, 3])
    def test_small_url_caps_across_chunk_sizes(
        self, max_urls, chunk_size, sorted_times
    ):
        # Timestamps rounded to whole minutes tie often, so arrival
        # order decides which URLs a capped sample keeps.
        records = [
            dataclasses.replace(r, timestamp=float(r.timestamp // 60 * 60))
            for r in make_records(300, sorted_times=sorted_times)
        ]
        expected = reference_summaries(records, max_urls_per_pair=max_urls)
        actual = summaries_from_chunks(
            records_to_chunks(records, chunk_size=chunk_size),
            max_urls_per_pair=max_urls,
        )
        assert actual == expected

    def test_long_runs_of_tied_timestamps_keep_arrival_order(self):
        # One pair, three distinct timestamps, out of order: every
        # chunk after the first merges into a full 64-URL sample along
        # runs of ties that only arrival order breaks.
        times = np.random.default_rng(5).choice([0.0, 60.0, 120.0], size=600)
        records = [
            ProxyLogRecord(float(ts), "aa:bb", "10.0.0.1", "c2.example.net",
                           f"/u{index}")
            for index, ts in enumerate(times)
        ]
        expected = reference_summaries(records, max_urls_per_pair=64)
        actual = summaries_from_chunks(
            records_to_chunks(records, chunk_size=50), max_urls_per_pair=64
        )
        assert actual == expected

    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 40), st.integers(0, 2), st.integers(0, 2),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=50,
        ),
        chunk_size=st.integers(1, 9),
        max_urls=st.integers(0, 4),
        two_tables=st.booleans(),
    )
    def test_any_stream_folds_like_the_record_path(
        self, events, chunk_size, max_urls, two_tables
    ):
        # Few distinct whole-second timestamps: ties, out-of-order
        # arrivals and shared 10 s slots are common.
        records = [
            ProxyLogRecord(
                float(ts), f"m{src}", "10.0.0.1", f"d{dst}.example", f"/u{url}"
            )
            for ts, src, dst, url in events
        ]
        tables = (ColumnTables(), ColumnTables())
        chunks = [
            RecordChunk.from_records(
                records[start:start + chunk_size],
                tables=tables[start // chunk_size % 2 if two_tables else 0],
            )
            for start in range(0, len(records), chunk_size)
        ]
        config = {"time_scale": 10.0, "max_urls_per_pair": max_urls}
        expected = reference_summaries(records, **config)
        assert summaries_from_chunks(chunks, **config) == expected

    def test_trailing_nul_survives_the_columnar_parse(self, tmp_path):
        records = [
            ProxyLogRecord(float(ts), mac, "10.0.0.1", host, url)
            for ts, mac, host, url in [
                (0, "aa:bb\x00", "c2.example.net", "/x\x00"),
                (60, "aa:bb", "c2.example.net", "/x"),
                (120, "aa:bb\x00", "c2.example.net", "/x"),
                (180, "aa:bb", "c2.example.net\x00", "/x\x00"),
                (240, "aa:bb", "c2.example.net", "/x\x00"),
            ]
        ]
        path = tmp_path / "log.tsv"
        write_log(records, path)
        expected = reference_summaries(read_log(path))
        assert [(s.source, s.destination) for s in expected] == [
            ("aa:bb", "c2.example.net"),
            ("aa:bb", "c2.example.net\x00"),
            ("aa:bb\x00", "c2.example.net"),
        ]
        assert summaries_from_chunks(read_log_chunks(path)) == expected


class TestHostileTimestamps:
    """Object records, parsed chunks and the extraction reduce reject a
    timestamp without an int64 slot with one error."""

    @staticmethod
    def write(tmp_path, timestamps):
        path = tmp_path / "log.tsv"
        path.write_text(
            "".join(
                f"{ts}\taa:bb\t10.0.0.1\tc2.example.net\t/x\t200\t0\n"
                for ts in timestamps
            )
        )
        return path

    @pytest.mark.parametrize(
        "value, message",
        [
            ("nan", "timestamp nan is not finite"),
            ("inf", "timestamp inf is not finite"),
            ("-inf", "timestamp -inf is not finite"),
            ("1e300", "timestamp 1e+300 is out of range"),
        ],
    )
    def test_both_planes_raise_the_same_error(self, tmp_path, value, message):
        path = self.write(tmp_path, ["10.0", "20.0", value, "30.0"])
        with pytest.raises(LogFormatError, match=re.escape(message)) as records:
            records_to_summaries(read_log(path))
        with pytest.raises(LogFormatError, match=re.escape(message)) as chunks:
            summaries_from_chunks(read_log_chunks(path, chunk_size=3))
        assert str(chunks.value) == str(records.value)

    def test_slot_overflow_depends_on_the_time_scale(self, tmp_path):
        path = self.write(tmp_path, ["1e10"])
        message = "its slot at time_scale 1e-10 does not fit int64"
        with pytest.raises(ValueError, match=re.escape(message)):
            records_to_summaries(read_log(path), time_scale=1e-10)
        with pytest.raises(ValueError, match=re.escape(message)):
            summaries_from_chunks(read_log_chunks(path), time_scale=1e-10)
        assert summaries_from_chunks(read_log_chunks(path)) == (
            reference_summaries(read_log(path))
        )

    def test_slot_column_of_an_empty_column(self):
        slots = slot_column(np.empty(0), 60.0)
        assert slots.dtype == np.int64 and slots.size == 0

    def test_negative_timestamps_are_accepted(self, tmp_path):
        path = self.write(tmp_path, ["-90.5", "-30.25", "0.0", "45.0"])
        expected = reference_summaries(read_log(path), time_scale=60.0)
        assert expected[0].first_timestamp == -120.0
        actual = summaries_from_chunks(read_log_chunks(path), time_scale=60.0)
        assert actual == expected


class TestRecordChunk:
    def test_from_records_preserves_columns(self):
        records = make_records(50)
        tables = ColumnTables()
        chunk = RecordChunk.from_records(records, tables=tables)
        assert len(chunk.data) == 50
        np.testing.assert_allclose(
            chunk.data["timestamp"], [r.timestamp for r in records]
        )
        assert tables.domains.decode(chunk.data["destination"]) == [
            r.destination for r in records
        ]
