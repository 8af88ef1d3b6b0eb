"""Partitioned on-disk record store (the HDFS stand-in).

The paper persists each phase's output in HDFS so later phases (and the
next day's run) never reprocess raw logs.  :class:`PartitionedStore`
provides the same contract locally: records are appended to hash
partitions under a directory and read back partition by partition.

Two on-disk encodings coexist, distinguished per record frame:

* the legacy pickle stream — one pickle per record, appended; and
* **packed frames** — when the store is built with a ``packer``, each
  ``write`` call emits one framed columnar blob per partition
  (``magic + length + payload``) instead of per-record pickles.

The read path dispatches on the frame header, so a packed store reads
partitions written by older pickle-only code (and files that mix both,
e.g. a day appended before and after an upgrade) without migration.
A frame that cannot be read raises :class:`CorruptFrameError`, naming
the partition file and the frame's index in it.
"""

from __future__ import annotations

import io
import pickle
import struct
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro.mapreduce.job import stable_hash
from repro.utils.validation import require

#: Frame header of a packed batch.  Pickle records written by any
#: supported protocol start with ``b"\x80"``, so the first byte alone
#: disambiguates the two encodings at every record boundary.
PACKED_MAGIC = b"BAYPACK1"
_LENGTH = struct.Struct("<Q")


class CorruptFrameError(ValueError):
    """A frame of a partition file that cannot be decoded.

    Raised unlocated by a packer's decoder and re-raised by the store
    with :meth:`at`, so the message names the file and the frame.
    """

    def at(self, path: Path, frame: int) -> "CorruptFrameError":
        """This error, located at frame ``frame`` of ``path``."""
        return CorruptFrameError(f"{path}, frame {frame}: {self}")


class RecordPacker:
    """Codec contract for packed frames (see :class:`PartitionedStore`).

    Implementations turn a *batch* of records into one contiguous blob
    and back.  The store never interprets the payload — it only frames
    it — so packers are free to use any columnar layout.
    """

    def pack(self, records: List[Any]) -> bytes:
        """One batch of records -> an opaque payload blob."""
        raise NotImplementedError

    def unpack(self, payload: bytes) -> List[Any]:
        """Inverse of :meth:`pack`; raises :class:`CorruptFrameError`
        for a payload it cannot decode."""
        raise NotImplementedError


class PartitionedStore:
    """Append-only partitioned storage for picklable records.

    ``packer`` switches writes to packed frames: one columnar blob per
    partition per ``write`` call rather than one pickle per record.
    Reading stays format-agnostic — pickle records and packed frames
    are recognised per frame — but decoding a packed frame requires a
    packer, so only a packer-configured store can read packed files.
    """

    def __init__(
        self,
        root: Union[str, Path],
        n_partitions: int = 32,
        *,
        packer: "RecordPacker | None" = None,
    ) -> None:
        require(n_partitions >= 1, "n_partitions must be at least 1")
        self.root = Path(root)
        self.n_partitions = n_partitions
        self.packer = packer
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, partition: int) -> Path:
        return self.root / f"part-{partition:05d}.pkl"

    def write(self, records: Iterable[Any], key_of=lambda record: record) -> int:
        """Append records, routing each by ``stable_hash(key_of(record))``.

        Returns the number of records written.
        """
        if self.packer is not None:
            return self._write_packed(records, key_of)
        handles = {}
        count = 0
        try:
            for record in records:
                partition = stable_hash(key_of(record)) % self.n_partitions
                handle = handles.get(partition)
                if handle is None:
                    handle = self._path(partition).open("ab")
                    handles[partition] = handle
                pickle.dump(record, handle)
                count += 1
        finally:
            for handle in handles.values():
                handle.close()
        return count

    def _write_packed(self, records: Iterable[Any], key_of) -> int:
        """Bucket records per partition, then append one frame each."""
        buckets: Dict[int, List[Any]] = {}
        count = 0
        for record in records:
            partition = stable_hash(key_of(record)) % self.n_partitions
            buckets.setdefault(partition, []).append(record)
            count += 1
        for partition, batch in buckets.items():
            payload = self.packer.pack(batch)
            with self._path(partition).open("ab") as handle:
                handle.write(PACKED_MAGIC)
                handle.write(_LENGTH.pack(len(payload)))
                handle.write(payload)
        return count

    def frames(
        self,
        partition: int,
        decode: Optional[Callable[[memoryview], Any]] = None,
    ) -> Iterator[Tuple[bool, Any, int]]:
        """Stream one partition's frames in file order.

        Yields ``(packed, item, size)``: a packed frame's payload as a
        zero-copy :class:`memoryview`, passed through ``decode`` when
        given (``packed=True``), or one unpickled record; ``size`` is
        the bytes the frame takes in the file.  Damaged framing, or a
        :class:`CorruptFrameError` from ``decode``, raises
        :class:`CorruptFrameError` naming the file and the frame.
        """
        require(0 <= partition < self.n_partitions, "partition out of range")
        path = self._path(partition)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return
        view = memoryview(data)
        stream = None
        cursor = index = 0
        magic = len(PACKED_MAGIC)
        while cursor < len(data):
            if PACKED_MAGIC.startswith(data[cursor:cursor + magic]):
                start = cursor + magic + _LENGTH.size
                if start > len(data):
                    raise CorruptFrameError("truncated frame header").at(
                        path, index)
                (length,) = _LENGTH.unpack_from(data, cursor + magic)
                if start + length > len(data):
                    raise CorruptFrameError(
                        f"frame of {length} bytes truncated to "
                        f"{len(data) - start}"
                    ).at(path, index)
                item: Any = view[start:start + length]
                if decode is not None:
                    try:
                        item = decode(item)
                    except CorruptFrameError as exc:
                        raise exc.at(path, index) from None
                yield True, item, start + length - cursor
                cursor = start + length
            else:
                stream = stream or io.BytesIO(data)
                stream.seek(cursor)
                try:
                    record = pickle.load(stream)
                except EOFError:
                    break
                yield False, record, stream.tell() - cursor
                cursor = stream.tell()
            index += 1

    def read_partition(self, partition: int) -> Iterator[Any]:
        """Stream the records of one partition (empty if absent)."""
        for packed, item, _size in self.frames(partition, self._unpack):
            if packed:
                yield from item
            else:
                yield item

    def _unpack(self, payload: memoryview) -> List[Any]:
        if self.packer is None:
            raise ValueError(
                f"{self.root} contains packed frames but this store "
                f"has no packer configured to decode them"
            )
        return self.packer.unpack(bytes(payload))

    def read_all(self) -> Iterator[Any]:
        """Stream every record, partition by partition."""
        for partition in range(self.n_partitions):
            yield from self.read_partition(partition)

    def partition_sizes(self) -> List[int]:
        """On-disk bytes per partition (0 for absent partitions)."""
        return [
            self._path(p).stat().st_size if self._path(p).exists() else 0
            for p in range(self.n_partitions)
        ]

    def clear(self) -> None:
        """Delete all partitions."""
        for partition in range(self.n_partitions):
            path = self._path(partition)
            if path.exists():
                path.unlink()
