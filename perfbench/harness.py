"""Out-of-process harness: the server under test, the load, the statistics.

The server runs as its own process (``python -m repro serve``); this
module drives it over HTTP from the benchmark's process, so the load
generator never shares an interpreter lock with what it measures.
CPU time and peak memory are read from ``/proc`` for every server
process (the front door and, for a ``--workers`` fleet, each shard it
lists in ``/healthz``).
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HOST = "127.0.0.1"
#: Every request's budget; a stalled server fails the run, not hangs it.
REQUEST_TIMEOUT_S = 60.0
#: Fewest completed requests for which p90 has ten samples beyond it.
MIN_SAMPLES_P90 = 100
#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10
#: A window short of its sample floor is extended, up to this; with the
#: set-up and the checks, a run still ends well inside three minutes.
MAX_WINDOW_S = 60.0

_BANNER = re.compile(r"repro service on http://[^:]+:(\d+) ")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- statistics ----------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share ``q``
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q * n))


def latency_percentiles(latencies_s: list[float]) -> tuple[float, float]:
    """``(p50, p90)`` in milliseconds; p90 needs ten samples beyond
    it, so at least ``MIN_SAMPLES_P90``."""
    if samples_beyond(0.9, len(latencies_s)) < TAIL_SAMPLES:
        raise ValueError(
            f"p90 needs {MIN_SAMPLES_P90} samples, got {len(latencies_s)}"
        )
    return (
        1e3 * percentile(latencies_s, 0.5),
        1e3 * percentile(latencies_s, 0.9),
    )


# -- HTTP ----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One request and what the oracle needs to check its answer."""

    method: str
    path: str
    body: bytes | None
    tag: tuple


@dataclass
class Record:
    op: Op
    status: int
    data: bytes
    latency_s: float
    end: float


class Connection:
    """One keep-alive HTTP/1.1 connection to a server port.

    Each request leaves in one write with Nagle off, so the server reads
    head and body together and no delayed ACK holds the body back.
    """

    def __init__(self, port: int):
        self.port = port
        self._sock: socket.socket | None = None

    def _request(self, op: Op) -> bytes:
        head = f"{op.method} {op.path} HTTP/1.1\r\n"
        head += f"Host: {HOST}:{self.port}\r\n"
        if op.body is None:
            return (head + "\r\n").encode()
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(op.body)}\r\n\r\n"
        )
        return head.encode() + op.body

    def send(self, op: Op) -> Record:
        request = self._request(op)
        started = time.perf_counter()
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (HOST, self.port), timeout=REQUEST_TIMEOUT_S
                )
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            self._sock.sendall(request)
            response = http.client.HTTPResponse(self._sock, method=op.method)
            response.begin()
            data = response.read()
            status = response.status
            if response.will_close:
                self.close()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            status, data = 0, repr(exc).encode()
        ended = time.perf_counter()
        return Record(op, status, data, ended - started, ended)

    def get_json(self, path: str):
        record = self.send(Op("GET", path, None, ("admin",)))
        if record.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {record.status}")
        return json.loads(record.data)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def get_text(port: int, path: str) -> str:
    """``GET path`` as ``text/plain`` (the Prometheus exposition)."""
    conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path, headers={"Accept": "text/plain"})
        response = conn.getresponse()
        text = response.read().decode()
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"GET {path}: HTTP {response.status}")
    return text


# -- the server process --------------------------------------------------


class Server:
    """``python -m repro serve --port 0 [--workers N]`` as a subprocess.

    ``start()`` returns once the banner named the port and ``/healthz``
    reports every shard up; ``drain()`` sends SIGTERM and reports
    whether the service drained cleanly.
    """

    def __init__(self, root: str, workers: int = 1):
        self.root = root
        self.workers = workers
        self.port: int | None = None
        self.pids: list[int] = []
        self.shard_ports: list[int] = []
        self.log: list[str] = []
        self._banner = threading.Event()
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None

    def start(self, timeout: float = 60.0) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if self.workers > 1:
            argv += ["--workers", str(self.workers)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env.pop("REPRO_BACKEND", None)
        self._proc = subprocess.Popen(
            argv,
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            self._await_healthy(time.monotonic() + timeout)
        except BaseException:
            self.kill()
            raise

    def _await_healthy(self, deadline: float) -> None:
        while not self._banner.wait(0.01):
            if self._proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "server did not announce its port:\n" + "".join(self.log)
                )
        self.pids = [self._proc.pid]
        admin = Connection(self.port)
        try:
            while True:
                health = admin.get_json("/healthz")
                if health.get("status") == "ok":
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server not healthy: {health}")
                time.sleep(0.01)
        finally:
            admin.close()
        shards = health.get("shards", [])
        self.pids += [shard["pid"] for shard in shards]
        self.shard_ports = [shard["port"] for shard in shards]

    def _read_stderr(self) -> None:
        # EOF arrives only once every process holding the pipe (the
        # front door and its shards) has exited.
        for line in self._proc.stderr:
            self.log.append(line)
            if self.port is None:
                match = _BANNER.search(line)
                if match:
                    self.port = int(match.group(1))
                    self._banner.set()

    @property
    def worker_ports(self) -> list[int]:
        """The ports of the processes that run requests."""
        return self.shard_ports or [self.port]

    def cpu_seconds(self) -> float:
        """utime + stime of every server process, in seconds."""
        total = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over every server process, in MiB."""
        total_kb = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def drain(self, timeout: float = 60.0) -> bool:
        """SIGTERM, wait; ``True`` on a clean drain of every process."""
        proc = self._proc
        if proc is None:
            return False
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self._reader.join(timeout=timeout)
        clean = (
            code == 0
            and not self._reader.is_alive()
            and any("drained cleanly" in line for line in self.log)
        )
        survivors = [pid for pid in self.pids[1:] if _alive(pid)]
        if survivors:
            self.kill()
            clean = False
        self._proc = None
        return clean

    def kill(self) -> None:
        """Stop the whole process group at once (error paths only)."""
        proc = self._proc
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        self._proc = None


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


# -- the closed-loop load ------------------------------------------------


@dataclass
class Window:
    """What one timed window of closed-loop load produced."""

    seconds: float
    records: list[list[Record]] = field(default_factory=list)
    cpu_s: float = 0.0
    #: ``perf_counter`` time at which the window closed.
    end: float = 0.0

    @property
    def all_records(self) -> list[Record]:
        return [r for client in self.records for r in client]

    def completed(self) -> list[Record]:
        """2xx answers that arrived inside the window."""
        return [
            r
            for r in self.all_records
            if 200 <= r.status < 300 and r.end <= self.end
        ]


def closed_loop(
    server: Server,
    streams: list,
    seconds: float,
    tracer=None,
    min_samples: int = 0,
) -> Window:
    """Run one closed-loop client per stream for ``seconds``.

    Each client sends its next request only after the previous answer
    arrived.  If fewer than ``min_samples`` requests completed, the
    window is extended (up to ``MAX_WINDOW_S``).  The load generator's
    own garbage collector is off inside the window, so its pauses do
    not read as server latency.
    """
    gc.collect()
    gc.disable()
    try:
        return _closed_loop(server, streams, seconds, tracer, min_samples)
    finally:
        gc.enable()


def _closed_loop(server, streams, seconds, tracer, min_samples) -> Window:
    window = Window(seconds=seconds, records=[[] for _ in streams])
    errors: list[BaseException] = []
    stop = threading.Event()
    start_gate = threading.Barrier(len(streams) + 1)

    def client(index: int) -> None:
        conn = Connection(server.port)
        out = window.records[index]
        stream = streams[index]
        start_gate.wait()
        try:
            while not stop.is_set():
                op = next(stream)
                if tracer is None:
                    out.append(conn.send(op))
                else:
                    with tracer.span(f"client.{op.tag[0]}", client=index):
                        out.append(conn.send(op))
        except BaseException as exc:  # re-raised by the main thread
            errors.append(exc)
            stop.set()
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    cpu_before = server.cpu_seconds()
    start_gate.wait()
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        time.sleep(max(0.0, min(0.05, deadline - time.perf_counter())))
        now = time.perf_counter()
        if now < deadline:
            continue
        done = sum(
            1 for client in window.records for r in client if r.end <= now
        )
        if done >= min_samples or now - started >= MAX_WINDOW_S:
            break
    stop.set()
    window.end = now
    window.seconds = now - started
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S + 5)
        if thread.is_alive():
            raise RuntimeError("a load client did not finish its request")
    if errors:
        raise errors[0]
    window.cpu_s = server.cpu_seconds() - cpu_before
    return window
