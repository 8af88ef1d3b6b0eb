"""The summary store's columnar read: format, layout, damage, scales, answers."""

import pickle
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.timeseries import ActivitySummary, merge, rescale
from repro.jobs import CorruptFrameError, StoreLayoutError, SummaryStore
from repro.jobs.summary_store import (
    PACK_VERSION,
    PACKED_MAGIC,
    decode_frame,
    pack_summaries,
)
from repro.obs import MetricsRegistry, scoped_registry

DAY = 86_400.0


def pack_v1(summaries):
    """A version-1 frame payload, byte for byte as older versions wrote
    it: every URL stored in full, no URL dictionary."""

    def strings(values):
        encoded = [value.encode("utf-8") for value in values]
        offsets = np.zeros(len(encoded) + 1, dtype="<i8")
        np.cumsum([len(text) for text in encoded], out=offsets[1:])
        return offsets.tobytes() + b"".join(encoded)

    def offsets(lengths):
        out = np.zeros(len(lengths) + 1, dtype="<i8")
        np.cumsum(lengths, out=out[1:])
        return out.tobytes()

    intervals = [v for s in summaries for v in s.intervals]
    return b"".join([
        struct.pack("<HQQ", 1, len(summaries), len(intervals)),
        np.array([s.time_scale for s in summaries], "<f8").tobytes(),
        np.array([s.first_timestamp for s in summaries], "<f8").tobytes(),
        offsets([len(s.intervals) for s in summaries]),
        np.array(intervals, "<f8").tobytes(),
        offsets([len(s.urls) for s in summaries]),
        strings([s.source for s in summaries]),
        strings([s.destination for s in summaries]),
        strings([url for s in summaries for url in s.urls]),
    ])


def summary(source, destination, first, gaps, scale=1.0, urls=()):
    intervals = np.asarray(gaps, dtype=float) * scale
    return ActivitySummary(
        source, destination, scale, first, tuple(intervals), tuple(urls)
    )


SAMPLE = [
    summary("mac1", "a.com", 0.0, [3, 0, 7], urls=("/x", "/y", "/x")),
    summary("mac2", "ünïcødé.example", 10.0, [1, 2], urls=("/é",)),
    summary("mac1", "b.com", 123.0, []),  # single event
]


class TestVersions:
    def test_writes_version_2_with_a_url_dictionary(self):
        payload = pack_summaries(SAMPLE)
        assert struct.unpack_from("<H", payload)[0] == PACK_VERSION == 2
        columns = decode_frame(payload)
        assert columns.url_table == ["/x", "/y", "/é"]
        assert columns.url_ids.tolist() == [0, 1, 0, 2]

    def test_repeated_urls_are_stored_once(self):
        rows = [summary("mac1", f"d{i}.com", 0.0, [1] * 63,
                        urls=("/a/long/path?with=query",) * 64)
                for i in range(10)]
        assert len(pack_summaries(rows)) < 0.7 * len(pack_v1(rows))

    def test_version_1_payloads_are_refused(self, tmp_path):
        with pytest.raises(CorruptFrameError, match="version 1;"):
            decode_frame(pack_v1(SAMPLE))
        write_frames(tmp_path / "day-00000", [GOOD, pack_v1(SAMPLE)])
        with pytest.raises(CorruptFrameError) as caught:
            SummaryStore(tmp_path).load_day(0)
        assert str(caught.value).startswith(
            f"{tmp_path / 'day-00000'}, frame 1: packed summary payload has "
            f"version 1;"
        )


class TestLayout:
    def test_a_day_is_one_file_with_one_frame_per_append(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.append_day(0, SAMPLE[:2])
        store.append_day(0, SAMPLE[2:])
        store.append_day(0, [])
        assert [p.name for p in tmp_path.iterdir()] == ["day-00000"]
        data = (tmp_path / "day-00000").read_bytes()
        assert data.count(PACKED_MAGIC) == 3
        assert store.load_day(0) == SAMPLE

    def test_partitioned_day_is_refused_naming_its_directory(self, tmp_path):
        # Older versions stored a day as a directory of hash partitions.
        day = tmp_path / "day-00002"
        write_frames(day / "part-00007.pkl", [GOOD])
        (day / "part-00011.pkl").write_bytes(pickle.dumps(SAMPLE[0]))
        store = SummaryStore(tmp_path)
        store.append_day(3, SAMPLE)
        assert store.has_day(2) and store.days() == [2, 3]
        for call in (lambda: store.load_day(2),
                     lambda: store.load_window(window_days=2),
                     lambda: store.append_day(2, SAMPLE),
                     lambda: store.append_day(2, SAMPLE, replace=True)):
            with pytest.raises(StoreLayoutError) as caught:
                call()
            assert str(caught.value).startswith(f"{day} is a directory")
        assert len(store.load_window(window_days=1)) == len(SAMPLE)
        assert store.evict_before(3) == 1
        assert store.days() == [3] and not day.exists()

    def test_pickle_record_is_not_a_frame(self, tmp_path):
        (tmp_path / "day-00000").write_bytes(pickle.dumps(SAMPLE[0]))
        with pytest.raises(CorruptFrameError) as caught:
            SummaryStore(tmp_path).load_day(0)
        assert type(caught.value) is CorruptFrameError
        assert str(caught.value) == (
            f"{tmp_path / 'day-00000'}, frame 0: no frame magic at byte 0"
        )


class TestScales:
    def test_summaries_coarser_than_the_request_raise(self, tmp_path):
        store = SummaryStore(tmp_path)
        for day in range(2):
            store.append_day(day, [
                summary("mac1", "a.com", day * DAY, [1, 2], scale=600.0)
            ])
        with pytest.raises(ValueError) as caught:
            store.load_window(window_days=2, time_scale=60.0)
        message = str(caught.value)
        for part in ("('mac1', 'a.com')", "day 0", "60 s", "600 s"):
            assert part in message

    def test_a_pair_stored_at_two_scales_raises_under_none(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.append_day(0, [summary("mac1", "a.com", 0.0, [1], scale=60.0)])
        store.append_day(1, [summary("mac1", "a.com", DAY, [1], scale=600.0)])
        with pytest.raises(ValueError) as caught:
            store.load_window(window_days=2)
        message = str(caught.value)
        for part in ("('mac1', 'a.com')", "day 0", "day 1", "60 s", "600 s"):
            assert part in message
        # Coarse enough for both: the window merges.
        [merged] = store.load_window(window_days=2, time_scale=600.0)
        assert merged.event_count == 4

    def test_none_keeps_each_pair_at_its_stored_scale(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.append_day(0, [
            summary("mac1", "a.com", 0.0, [1, 1], scale=60.0),
            summary("mac2", "b.com", 0.0, [2], scale=600.0),
        ])
        assert [s.time_scale for s in store.load_window(window_days=1)] == [
            60.0, 600.0,
        ]


def sections(payload):
    """(name, start, end) of every section of a version-2 payload."""
    _version, rows, n_intervals, n_table = struct.unpack_from("<HQQQ", payload)
    layout = [("header", 26)]
    cursor = 26

    def i8_at(position):
        return struct.unpack_from("<q", payload, position)[0]

    def add(name, size):
        nonlocal cursor
        layout.append((name, cursor + size))
        cursor += size

    add("time scales", 8 * rows)
    add("first timestamps", 8 * rows)
    add("interval offsets", 8 * (rows + 1))
    add("intervals", 8 * n_intervals)
    add("URL offsets", 8 * (rows + 1))
    n_urls = i8_at(cursor - 8)
    for name, count in (("sources", rows), ("destinations", rows),
                        ("URL dictionary", n_table)):
        add(f"{name} offsets", 8 * (count + 1))
        add(name, i8_at(cursor - 8))
    add("URL ids", 4 * n_urls)
    assert cursor == len(payload)
    starts = [0] + [end for _name, end in layout[:-1]]
    return [(name, start, end)
            for (name, end), start in zip(layout, starts)]


def damaged(payload, name, index, dtype, value):
    """``payload`` with element ``index`` of section ``name`` set."""
    data = bytearray(payload)
    start = {n: s for n, s, _e in sections(payload)}[name]
    view = np.frombuffer(data, dtype=dtype, offset=start, count=index + 1)
    view.setflags(write=True)
    view[index] = value
    return bytes(data)


GOOD = pack_summaries(SAMPLE)

CORRUPTIONS = {
    "non-monotone interval offsets": damaged(
        GOOD, "interval offsets", 1, "<i8", 6),
    "non-monotone URL offsets": damaged(GOOD, "URL offsets", 1, "<i8", 5),
    "non-monotone source offsets": damaged(
        GOOD, "sources offsets", 1, "<i8", 12),
    "interval offsets ending early": damaged(
        GOOD, "interval offsets", 3, "<i8", 4),
    "URL id out of range": damaged(GOOD, "URL ids", 2, "<u4", 3),
    "NaN interval": damaged(GOOD, "intervals", 1, "<f8", np.nan),
    "negative interval": damaged(GOOD, "intervals", 2, "<f8", -1.0),
    "infinite interval": damaged(GOOD, "intervals", 0, "<f8", np.inf),
    "zero time scale": damaged(GOOD, "time scales", 0, "<f8", 0.0),
    "NaN first timestamp": damaged(GOOD, "first timestamps", 1, "<f8", np.nan),
    "unknown version": struct.pack("<H", 3) + GOOD[2:],
    "trailing bytes": GOOD + b"\x00",
    "huge row count": struct.pack("<HQ", 2, 2 ** 60) + GOOD[10:],
    "invalid UTF-8": damaged(GOOD, "sources", 0, "u1", 0xFF),
    **{
        f"truncated after {name}": GOOD[:end]
        for name, _start, end in sections(GOOD)[:-1]
    },
    "truncated inside the URL ids": GOOD[:-2],
}


def write_frames(path, payloads):
    """A file holding exactly ``payloads``, framed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(
        PACKED_MAGIC + struct.pack("<Q", len(p)) + p for p in payloads
    ))


class TestCorruptFrames:
    def test_every_section_boundary_is_covered(self):
        names = [name for name, _s, _e in sections(GOOD)]
        assert len(names) == 13
        assert all(f"truncated after {n}" in CORRUPTIONS for n in names[:-1])

    def test_every_prefix_of_a_frame_is_rejected(self):
        for end in range(len(GOOD)):
            with pytest.raises(CorruptFrameError):
                decode_frame(GOOD[:end])

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_load_day_and_load_window_name_file_and_frame(
        self, tmp_path, case
    ):
        part = tmp_path / "day-00003"
        write_frames(part, [GOOD, CORRUPTIONS[case]])
        store = SummaryStore(tmp_path)
        for read in (lambda: store.load_day(3),
                     lambda: store.load_window(window_days=1),
                     lambda: store.load_window(window_days=1,
                                               time_scale=60.0)):
            with pytest.raises(CorruptFrameError) as caught:
                read()
            assert type(caught.value) is CorruptFrameError
            assert str(part) in str(caught.value)
            assert "frame 1" in str(caught.value)

    def test_cut_off_frame_header_is_a_truncated_frame(self, tmp_path):
        part = tmp_path / "day-00000"
        write_frames(part, [GOOD])
        part.write_bytes(part.read_bytes() + PACKED_MAGIC[:5])
        store = SummaryStore(tmp_path)
        with pytest.raises(CorruptFrameError, match="frame 1: truncated"):
            store.load_day(0)


class TestTelemetry:
    def test_load_window_spans_and_counters(self, tmp_path):
        store = SummaryStore(tmp_path)
        for day in range(2):
            store.append_day(day, SAMPLE)
        registry = MetricsRegistry()
        with scoped_registry(registry):
            merged = store.load_window(window_days=2)
        assert len(merged) == 3
        counters = dict(registry.counters())
        assert counters["summary_store.rows_read"] == 6
        assert counters["summary_store.frames_read"] == 2
        assert counters["summary_store.bytes_read"] == sum(
            path.stat().st_size for path in tmp_path.glob("day-*")
        )
        names = {h.name for h in registry.histograms()}
        for path in ("summary_store.load_window",
                     "summary_store.load_window.decode",
                     "summary_store.load_window.merge"):
            assert f"span.{path}.seconds" in names


# -- the window read against the paper-level reference ---------------------

PAIRS = [("mac1", "a.com"), ("mac1", "b.com"), ("mac2", "a.com"),
         ("mäc3", "ünï.example")]
SCALES = [0.25, 0.5, 1.0, 60.0]
URLS = ["/a", "/b?q=1", "/é"]


@st.composite
def stored_summary(draw, day):
    pair = draw(st.sampled_from(PAIRS))
    scale = draw(st.sampled_from(SCALES))
    first = day * DAY + draw(st.integers(0, 80_000)) * scale
    gaps = draw(st.lists(st.integers(0, 5_000), max_size=12))
    return summary(*pair, first, gaps, scale=scale,
                   urls=draw(st.lists(st.sampled_from(URLS), max_size=4)))


@st.composite
def stores(draw):
    n_days = draw(st.integers(1, 4))
    writes = []
    for day in range(n_days):
        for _ in range(draw(st.integers(0, 3))):  # 0: an empty day
            rows = draw(st.lists(stored_summary(day), min_size=1, max_size=5))
            writes.append((day, rows))
    return n_days, writes


def reference(writes, days, time_scale):
    """``merge([rescale(s, t) for s in group])`` per pair, each group in
    rescaled-start order, ties in stored order (None: the pair's own
    scale); or the ValueError that load_window must raise."""
    groups = {}
    for day, rows in writes:
        if day in days:
            for row in rows:
                groups.setdefault(row.pair, []).append(row)
    out = []
    for pair in sorted(groups):
        group = groups[pair]
        target = group[0].time_scale if time_scale is None else time_scale
        if any(s.time_scale != target for s in group) if time_scale is None \
                else any(s.time_scale > target for s in group):
            return ValueError

        def start(s):
            if s.time_scale >= target:
                return s.first_timestamp
            return float(np.floor(s.first_timestamp / target) * target)

        out.append(merge([rescale(s, target)
                          for s in sorted(group, key=start)]))
    return out


def bits(summaries):
    return [(s.pair, s.time_scale, s.first_timestamp,
             np.array(s.intervals, dtype=float).view(np.int64).tolist(),
             s.urls) for s in summaries]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), layout=stores())
def test_window_equals_rescale_then_merge(data, layout):
    n_days, writes = layout
    end_day = data.draw(st.integers(0, n_days), label="end_day")
    window_days = data.draw(st.integers(1, 4), label="window_days")
    time_scale = data.draw(st.sampled_from([None, 0.5, 1.0, 7.0, 60.0, 600.0]),
                           label="time_scale")
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        for day, rows in writes:
            store.append_day(day, rows)
        for day in store.days():
            stored = [row for d, rows in writes if d == day for row in rows]
            key = lambda s: s.pair  # noqa: E731 - stable: keeps write order
            assert bits(sorted(store.load_day(day), key=key)) == bits(
                sorted(stored, key=key))
        days = set(range(end_day - window_days + 1, end_day + 1))
        expected = reference(writes, days, time_scale)
        if not writes:
            expected = []
        if expected is ValueError:
            with pytest.raises(ValueError):
                store.load_window(end_day=end_day, window_days=window_days,
                                  time_scale=time_scale)
        else:
            assert bits(store.load_window(
                end_day=end_day, window_days=window_days,
                time_scale=time_scale,
            )) == bits(expected)
