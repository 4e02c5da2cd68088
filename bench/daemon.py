"""Drive a ``repro serve`` daemon from outside the program.

The benchmark starts the daemon as ``python -m repro serve`` in a child
process, as a user would, and reads it only through its public surface:
the TCP ingest port (closed-loop via
:func:`repro.serve.client.replay_log`, open-loop via :class:`PacedLoad`),
the HTTP endpoints, and ``/proc`` CPU counters for the daemon and its
shard workers.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.error import URLError
from urllib.request import urlopen

_PORTS = re.compile(r"ingest on [\d.]+:(\d+), http on [\d.]+:(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

# Phase B's open-loop load: batches of up to 50 records every 10 ms
# (5,000 records/s, well under what one daemon ingests) with a /rankings
# read every 50 ms, until 5,000 records are sent. A fixed record count,
# not a fixed number of whole logs, leaves the daemon holding the same
# number of records for every seed.
BATCH_RECORDS = 50
BATCH_INTERVAL_S = 0.010
READ_INTERVAL_S = 0.050
PACED_RECORDS = 5000
READ_PATH = "/rankings?top=20"


class DaemonError(RuntimeError):
    """The daemon did not start, answer or stop as expected."""


class Daemon:
    """One ``repro serve --workers 2`` child process on free local ports."""

    def __init__(self, src_dir: Path, work_dir: Path) -> None:
        self.log_path = work_dir / f"serve-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w+", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", "2"],
            stdout=subprocess.DEVNULL, stderr=self._log, cwd=work_dir, env=env,
        )
        self.ingest_port = 0
        self.http_port = 0
        self.exit_code: Optional[int] = None

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the daemon logged its ports and /healthz answers."""
        deadline = time.monotonic() + timeout
        while not self.http_port:
            if self.proc.poll() is not None:
                raise DaemonError(f"serve exited with {self.proc.returncode} at start")
            if time.monotonic() > deadline:
                raise DaemonError("serve did not report its ports")
            match = _PORTS.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                self.ingest_port, self.http_port = int(match[1]), int(match[2])
            else:
                time.sleep(0.005)
        while True:
            try:
                if self.get_json("/healthz")[1].get("ok"):
                    return
            except (URLError, OSError):
                pass
            if time.monotonic() > deadline:
                raise DaemonError("serve /healthz never answered")
            time.sleep(0.005)

    def get(self, path: str, timeout: float = 30.0) -> Tuple[int, bytes]:
        """GET ``path``; returns (HTTP status, body)."""
        with urlopen(f"http://127.0.0.1:{self.http_port}{path}", timeout=timeout) as resp:
            return resp.status, resp.read()

    def get_json(self, path: str) -> Tuple[int, dict]:
        status, body = self.get(path)
        return status, json.loads(body.decode("utf-8"))

    def metrics(self) -> Dict[str, float]:
        """/metrics as ``{'name{labels}': value}``."""
        _, body = self.get("/metrics")
        out: Dict[str, float] = {}
        for line in body.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def cpu_seconds(self) -> Tuple[float, float]:
        """(daemon CPU s, shard workers' CPU s) from /proc."""
        loop = _proc_cpu(self.proc.pid)
        shards = sum(_proc_cpu(pid) for pid in _children(self.proc.pid))
        return loop, shards

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait for the drain, and return the exit code."""
        if self.exit_code is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.exit_code = self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                self.exit_code = -signal.SIGKILL
            self._log.close()
        return self.exit_code


def _uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def fixed_streams(log: bytes, records: int,
                  batch_records: int) -> Tuple[bytes, List[Tuple[int, List[bytes]]]]:
    """Cut a v2 log into streams that carry ``records`` RECORD frames in
    all: whole copies of the log while that many are left, then one
    stream with the rest spread evenly over the log. Returns the log's
    header and, per stream, (records, frame-aligned batches of up to
    ``batch_records`` records).

    Spreading the rest, rather than sending the log's first records,
    makes every seed's stream cover every phase of the program's run: a
    prefix of db's log reaches into the sites of the run's last phase
    for some seeds and not for others, which moved read latency by 12%.
    The other frames — strings and samples — all ride along in order,
    and each stream ends with the log's END frame, so the daemon sees a
    complete stream."""
    from repro.stream.codec import FRAME_END, FRAME_RECORD, MAGIC

    length, pos = _uvarint(log, len(MAGIC) + 1)
    pos += length
    header, frames = log[:pos], []
    while pos < len(log):
        start = pos
        length, pos = _uvarint(log, pos + 1)
        pos += length
        frames.append((log[start], log[start:pos]))
    if not frames or frames[-1][0] != FRAME_END:
        raise ValueError("log has no END frame")
    *body, (_, end) = frames
    in_log = sum(frame_type == FRAME_RECORD for frame_type, _ in body)
    if not in_log:
        raise ValueError("log has no records")
    streams, left = [], records
    while left:
        keep = min(left, in_log)
        batches, current, in_batch, seen = [], [], 0, 0
        for frame_type, frame in body:
            if frame_type == FRAME_RECORD:
                seen += 1
                # Keep the records at which seen * keep / in_log passes
                # a whole number: exactly ``keep`` of them, evenly spaced.
                if seen * keep // in_log == (seen - 1) * keep // in_log:
                    continue
                if in_batch == batch_records:
                    batches.append(b"".join(current))
                    current, in_batch = [], 0
                in_batch += 1
            current.append(frame)
        batches.append(b"".join(current + [end]))
        streams.append((keep, batches))
        left -= keep
    return header, streams


class PacedLoad:
    """Open-loop load: writes at a fixed rate with reads at a fixed rate.

    The writer (the calling thread) sends one batch every
    :data:`BATCH_INTERVAL_S` until :data:`PACED_RECORDS` records are
    sent, in the streams :func:`fixed_streams` cuts. A reader thread GETs
    :data:`READ_PATH` every :data:`READ_INTERVAL_S` while the writer
    runs. Both are timed from when each send or read was due, so a stall
    counts against every request queued behind it.
    """

    def __init__(self, daemon: Daemon, log: bytes) -> None:
        self.daemon = daemon
        self.header, self.streams = fixed_streams(log, PACED_RECORDS, BATCH_RECORDS)
        self.read_latency: List[float] = []
        self.read_ok: List[bool] = []
        self.lateness: List[float] = []
        self.send_blocked_s = 0.0
        # (records sent, FIN reply) per stream.
        self.fins: List[Tuple[int, dict]] = []

    def run(self) -> None:
        start = time.perf_counter()
        done = threading.Event()
        reader = threading.Thread(target=self._reads, args=(start, done), name="paced-reader")
        reader.start()
        try:
            due = start
            for records, batches in self.streams:
                due = self._stream(records, batches, due)
        finally:
            done.set()
            reader.join()

    def _stream(self, records: int, batches: List[bytes], due: float) -> float:
        from repro.serve.protocol import encode_hello, read_json_frame_sync

        with socket.create_connection(("127.0.0.1", self.daemon.ingest_port),
                                      timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock.makefile("rb") as replies:
                sock.sendall(encode_hello({"program": "paced"}))
                read_json_frame_sync(replies)  # ACK
                sock.sendall(self.header)
                for batch in batches:
                    wait = due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    self.lateness.append(time.perf_counter() - due)
                    due += BATCH_INTERVAL_S
                    sent = time.perf_counter()
                    sock.sendall(batch)
                    self.send_blocked_s += time.perf_counter() - sent
                sock.shutdown(socket.SHUT_WR)
                self.fins.append((records, read_json_frame_sync(replies)))
        return due

    def _reads(self, start: float, done: threading.Event) -> None:
        due = start
        while not done.wait(max(0.0, due - time.perf_counter())):
            ok, _ = read_rankings(self.daemon)
            self.read_latency.append(time.perf_counter() - due)
            self.read_ok.append(ok)
            due += READ_INTERVAL_S


def read_rankings(daemon: Daemon) -> Tuple[bool, float]:
    """GET :data:`READ_PATH`; returns (a 200 with a ``sites`` list,
    wall seconds the request took)."""
    started = time.perf_counter()
    try:
        status, body = daemon.get(READ_PATH)
        ok = status == 200 and isinstance(json.loads(body)["sites"], list)
    except (OSError, ValueError, KeyError):
        ok = False
    return ok, time.perf_counter() - started


def _proc_cpu(pid: int) -> float:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat.rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _children(pid: int):
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            yield int(entry.name)
