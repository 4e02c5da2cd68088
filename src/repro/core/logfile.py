"""Reading and writing phase-1 log files.

The instrumented VM writes one record per reclaimed object; the
off-line analyzer reads them back. Two formats exist:

* **v1** — JSONL: a JSON header line carrying the format version and
  run metadata, then one JSON object per record. Human-greppable.
* **v2** — the compact binary format of :mod:`repro.stream.codec`
  (length-prefixed frames with a string table), written by the
  streaming pipeline. Several times smaller and readable incrementally.

:func:`read_log` and :func:`iter_log` sniff the first bytes and
dispatch, so callers never care which format a file is in.

``strict=False`` tolerates a truncated final record — the normal state
of a log whose profiled run crashed or is still being written — by
stopping at the damage instead of raising :class:`ProfileError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.errors import ProfileError
from repro.core.trailer import ObjectRecord

FORMAT_NAME = "repro-drag-log"
FORMAT_VERSION = 1

# The v1 header line is padded to this width so a streaming writer can
# seek back and fill in ``end_time`` at close without shifting the
# record lines that follow it.
_HEADER_PAD = 192


def _header_dict(
    end_time: Optional[int],
    metadata: Optional[dict],
    finalizer_errors: Optional[int] = None,
) -> dict:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "end_time": end_time,
    }
    if finalizer_errors is not None:
        header["finalizer_errors"] = finalizer_errors
    if metadata:
        header["metadata"] = metadata
    return header


class LogWriter:
    """Streaming v1 writer: records go to disk as they are emitted.

    The header is written immediately (padded), so a reader — or
    ``repro watch`` — can consume the file while the run is still in
    flight; :meth:`close` seeks back and patches ``end_time`` in.
    """

    def __init__(self, path: Union[str, Path], metadata: Optional[dict] = None) -> None:
        self.path = Path(path)
        self.metadata = metadata
        self.count = 0
        self._file: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")
        self._write_header(None)

    def _write_header(
        self,
        end_time: Optional[int],
        finalizer_errors: Optional[int] = None,
    ) -> None:
        text = json.dumps(
            _header_dict(end_time, self.metadata, finalizer_errors)
        )
        if len(text) < _HEADER_PAD:
            text = text.ljust(_HEADER_PAD)
        self._file.write(text + "\n")

    def write_record(self, record: ObjectRecord) -> None:
        self._file.write(json.dumps(record.to_dict()) + "\n")
        self.count += 1

    def write_sample(self, sample) -> None:
        """v1 has no sample frames; accepted for sink compatibility."""

    def close(
        self,
        end_time: Optional[int] = None,
        finalizer_errors: Optional[int] = None,
    ) -> None:
        if self._file is None:
            return
        if end_time is not None:
            self._file.seek(0)
            self._write_header(end_time, finalizer_errors)
        self._file.close()
        self._file = None

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_log(
    path: Union[str, Path],
    records: Iterable[ObjectRecord],
    end_time: Optional[int] = None,
    metadata: Optional[dict] = None,
) -> int:
    """Write records as JSONL with a header; returns the record count."""
    writer = LogWriter(path, metadata=metadata)
    for record in records:
        writer.write_record(record)
    writer.close(end_time=end_time)
    return writer.count


class LoadedLog:
    """A parsed log: records plus header metadata (and, for v2 logs,
    the deep-GC heap samples)."""

    __slots__ = (
        "records",
        "end_time",
        "metadata",
        "samples",
        "finalizer_errors",
        "est_objects",
        "est_bytes",
    )

    def __init__(
        self,
        records: List[ObjectRecord],
        end_time: Optional[int],
        metadata: dict,
        samples: Optional[list] = None,
        finalizer_errors: Optional[int] = None,
        est_objects: Optional[float] = None,
        est_bytes: Optional[float] = None,
    ) -> None:
        self.records = records
        self.end_time = end_time
        self.metadata = metadata
        self.samples = samples or []
        # None = written before the field existed / run still in flight.
        self.finalizer_errors = finalizer_errors
        # Weight-estimated totals declared by a byte-sampled v2 log's
        # END frame; None for full-rate logs (observed == estimate).
        self.est_objects = est_objects
        self.est_bytes = est_bytes


def _is_v2(path: Union[str, Path]) -> bool:
    from repro.stream.codec import MAGIC

    try:
        with open(path, "rb") as f:
            return f.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _read_v1_header(f: IO[str], path) -> dict:
    header_line = f.readline()
    if not header_line:
        raise ProfileError(f"{path}: empty log file")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{path}: bad log header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ProfileError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ProfileError(f"{path}: unsupported version {header.get('version')}")
    return header


def _iter_v1_records(f: IO[str], path, strict: bool) -> Iterator[ObjectRecord]:
    for line_no, line in enumerate(f, start=2):
        truncated = not line.endswith("\n")
        line = line.strip()
        if not line:
            continue
        try:
            yield ObjectRecord.from_dict(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if not strict and truncated:
                # A final line without its newline is the signature of a
                # run that died mid-write; everything before it is good.
                return
            raise ProfileError(f"{path}:{line_no}: bad record: {exc}") from exc


def iter_log(
    path: Union[str, Path], strict: bool = True
) -> Iterator[ObjectRecord]:
    """Yield a log's records one by one without materializing the list.

    Handles both v1 (JSONL) and v2 (binary) files. With
    ``strict=False`` a truncated final record ends iteration cleanly.
    """
    if _is_v2(path):
        from repro.stream.codec import iter_v2_log

        yield from iter_v2_log(path, strict=strict)
        return
    with open(path, "r", encoding="utf-8") as f:
        try:
            _read_v1_header(f, path)
            yield from _iter_v1_records(f, path, strict)
        except UnicodeDecodeError as exc:
            raise ProfileError(f"{path}: not UTF-8 text: {exc}") from exc


def read_log(path: Union[str, Path], strict: bool = True) -> LoadedLog:
    """Read a log file written by :func:`write_log` (v1) or the v2
    streaming writer — the format is auto-detected."""
    if _is_v2(path):
        from repro.stream.codec import read_v2_log

        return read_v2_log(path, strict=strict)
    with open(path, "r", encoding="utf-8") as f:
        try:
            header = _read_v1_header(f, path)
            records = list(_iter_v1_records(f, path, strict))
        except UnicodeDecodeError as exc:
            raise ProfileError(f"{path}: not UTF-8 text: {exc}") from exc
    return LoadedLog(
        records,
        header.get("end_time"),
        header.get("metadata") or {},
        finalizer_errors=header.get("finalizer_errors"),
    )
