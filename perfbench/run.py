"""The repository benchmark: the profiling service, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload warm-profile --seed 1 \\
        --seconds 10 --trace 0

It boots ``python -m repro serve`` on an ephemeral port and drives it
from this process with closed loops of at most ``nproc`` clients (the
workload's count, one for every workload today, so the load is the
same on a bigger machine), each sending its next request once the
previous answer arrived.  Every answer is checked against the
reference interpreter after the timed window (see ``oracle.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``SETUPS`` boots, spawn to end of warm-up), ``throughput_rps``,
``latency_p50_ms``/``latency_p90_ms`` (client side, nearest rank, at
least 100 samples), ``server_cpu_ms_per_req`` (utime+stime of every
server process over the window from ``/proc``) and
``server_peak_rss_mb`` (their summed ``VmHWM``).

``--trace 1`` reports the per-layer metrics instead: layer spans timed
in this process over the workload's own programs, server counters
from ``/metrics``, probes at concurrency 1, and the front-door hop on a
``--workers 2`` fleet booted for it.  It splits the window
into an untraced and a traced half, so the tracing overhead reads
directly.  Its spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro sources under {SRC}")
sys.path.insert(0, str(SRC))

import harness  # noqa: E402  (needs the source path above)
import layers  # noqa: E402
from oracle import QueryOracle  # noqa: E402
from workloads import WORKLOADS, Checker, IngestQuery, replay  # noqa: E402

from repro import profile_program  # noqa: E402
from repro.batch import ArtifactCache, BatchItem, run_batch  # noqa: E402
from repro.workloads import PAPER_SOURCE  # noqa: E402

#: Boots per run; ``setup_s`` is their median.
SETUPS = 7
#: Requests at concurrency 1 for the service-overhead probe.
OVERHEAD_PROBES = 12
#: Keyed queries per probe (door/owner pairs for the hop).
QUERY_PROBES = 20
#: Shards of the fleet the hop is measured on.
HOP_WORKERS = 2

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "server_peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "lang.parse_ms": "ms",
    "cfg.build_ms": "ms",
    "cfg.nodes": "count",
    "ecfg.build_ms": "ms",
    "cdg.fcdg_ms": "ms",
    "profiling.plan_ms": "ms",
    "profiling.counters": "count",
    "codegen.lower_ms": "ms",
    "codegen.pycompile_ms": "ms",
    "codegen.emit_ms": "ms",
    "codegen.variant_ms": "ms",
    "codegen.emitted_lines": "count",
    "codegen.run_ms": "ms",
    "profiling.reconstruct_ms": "ms",
    "analysis.summarize_ms": "ms",
    "profiling.database.record_ms": "ms",
    "profiling.database.lookup_ms": "ms",
    "batch.cache.memory_hit_ratio": "ratio",
    "batch.cache.lookups": "count",
    "batch.cache.misses": "count",
    "service.overhead_ms": "ms",
    "service.response_kb": "KiB",
    "service.batcher.flush_size": "tasks",
    "service.batcher.coalesced": "count",
    "service.frontdoor.hop_ms": "ms",
    "pipeline.fallbacks": "count",
    "trace.untraced_throughput_rps": "1/s",
    "trace.throughput_rps": "1/s",
}


def _client_count(workload_cls) -> int:
    return max(1, min(workload_cls.max_clients, len(os.sched_getaffinity(0))))


def _send_all(port: int, ops) -> list:
    conn = harness.Connection(port)
    try:
        return [conn.send(op) for op in ops]
    finally:
        conn.close()


def _server_counters(server) -> dict:
    """Cache and batcher counters summed over the serving processes,
    plus the backend fallbacks each one counted."""
    conn = harness.Connection(server.port)
    try:
        body = conn.get_json("/metrics")
    finally:
        conn.close()
    totals: dict[str, float] = {}
    for shard in body.get("shards") or [body]:
        if shard.get("up") is False:
            raise RuntimeError("a shard is down")
        for group in ("cache", "batcher"):
            for name, value in shard[group].items():
                key = f"{group}.{name}"
                totals[key] = totals.get(key, 0) + value
    fallbacks = 0.0
    for port in server.worker_ports:
        for line in harness.get_text(port, "/metrics").splitlines():
            if line.startswith("repro_backend_fallbacks_total"):
                fallbacks += float(line.rsplit(None, 1)[1])
    totals["fallbacks"] = fallbacks
    return totals


class Run:
    """One benchmark invocation: boots, windows, probes and checks."""

    def __init__(self, workload, seconds: float, root: Path):
        self.workload = workload
        self.seconds = seconds
        self.root = str(root)
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        #: Run-level faults: they make the run incorrect on their own.
        self.problems: list[str] = []
        #: Requests the reported metrics rest on.
        self.samples = 0

    def _check(self, streams: list[list]) -> None:
        self._count(self.workload.check(streams), streams)

    def _count(self, checker, streams: list[list]) -> None:
        self.attempted += sum(len(records) for records in streams)
        self.failed += checker.failed
        self.reasons += checker.reasons

    def drain(self, server) -> None:
        if not server.drain():
            self.problems.append("the server did not drain cleanly")

    def boot(self):
        """Spawn and warm up one server: ``(server, seconds, records)``."""
        server = harness.Server(self.root)
        started = time.perf_counter()
        server.start()
        try:
            warmup = _send_all(server.port, self.workload.warmup_ops())
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter() - started, warmup

    def end_to_end(self) -> dict[str, float]:
        setups, warmups = [], []
        for _ in range(SETUPS - 1):
            server, seconds, warmup = self.boot()
            self.drain(server)
            setups.append(seconds)
            warmups.append(warmup)
        server, seconds, warmup = self.boot()
        setups.append(seconds)
        try:
            window = harness.closed_loop(
                server,
                self.workload.streams(),
                self.seconds,
                min_samples=harness.MIN_SAMPLES_P90,
            )
            rss = server.peak_rss_mb()
        finally:
            self.drain(server)
        for records in warmups:
            self._check([records])
        self._check([warmup, *window.records])
        completed = window.completed()
        served = [
            r for r in window.all_records if 200 <= r.status < 300
        ]
        latencies = [r.latency_s for r in completed]
        try:
            p50, p90 = harness.latency_percentiles(latencies)
        except ValueError as exc:
            self.problems.append(str(exc))
            p50, p90 = (
                1e3 * harness.percentile(latencies, q) for q in (0.5, 0.9)
            )
        self.samples = len(completed)
        return {
            "setup_s": median(setups),
            "throughput_rps": len(completed) / window.seconds,
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "server_cpu_ms_per_req": 1e3 * window.cpu_s / max(1, len(served)),
            "server_peak_rss_mb": rss,
        }

    def per_layer(self, tracer, out_dir: Path, seed: int) -> dict[str, float]:
        with tracer.span("layers"):
            layers.time_layers(tracer, self.workload.layer_programs())
        metrics = layers.layer_metrics(tracer)
        server, _seconds, warmup = self.boot()
        try:
            before = _server_counters(server)
            streams = self.workload.streams()
            plain = harness.closed_loop(server, streams, self.seconds / 2)
            traced = harness.closed_loop(
                server, streams, self.seconds / 2, tracer
            )
            after = _server_counters(server)
            probes, overhead = self._overhead_probe(server)
            if overhead is None:
                overhead = self._query_overhead(server, seed)
        finally:
            self.drain(server)
        hop_ms = self._hop(seed)
        records = plain.all_records + traced.all_records
        self._check([warmup, *plain.records, *traced.records, probes])

        def delta(name: str) -> float:
            return after[name] - before[name]

        lookups = (
            delta("cache.memory_hits")
            + delta("cache.disk_hits")
            + delta("cache.misses")
        )
        flushes = delta("batcher.flushes")
        metrics.update(
            {
                "batch.cache.memory_hit_ratio": (
                    delta("cache.memory_hits") / lookups if lookups else 0.0
                ),
                "batch.cache.lookups": lookups,
                "batch.cache.misses": delta("cache.misses"),
                "service.overhead_ms": overhead,
                "service.response_kb": sum(len(r.data) for r in records)
                / len(records)
                / 1024.0,
                "service.batcher.flush_size": (
                    delta("batcher.flushed_tasks") / flushes
                    if flushes
                    else 0.0
                ),
                "service.batcher.coalesced": delta("batcher.coalesced"),
                "service.frontdoor.hop_ms": hop_ms,
                "pipeline.fallbacks": delta("fallbacks"),
                "trace.untraced_throughput_rps": len(plain.completed())
                / plain.seconds,
                "trace.throughput_rps": len(traced.completed())
                / traced.seconds,
            }
        )
        self.samples = len(records)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace-{self.workload.name}-{seed}.jsonl")
        return metrics

    def _overhead_probe(self, server):
        """``/profile`` latency at concurrency 1 minus the in-process
        ``run_batch`` of the same request against a cache that saw the
        same warm-up (``None`` for workloads without ``/profile``)."""
        ops = self.workload.probe_ops(OVERHEAD_PROBES)
        if not ops:
            return [], None
        cache = ArtifactCache()

        def in_process(op) -> float:
            _kind, label, source, runs = op.tag
            item = BatchItem(id=label, source=source, runs=tuple(runs))
            started = time.perf_counter()
            report = run_batch([item], mode="serial", cache=cache)
            elapsed = time.perf_counter() - started
            if not report.results[0].ok:
                raise RuntimeError(f"in-process run_batch failed: {label}")
            return elapsed

        for op in self.workload.warmup_ops():
            in_process(op)
        # Each request and its in-process twin run back to back, so a
        # change in the shared host's speed hits both alike.
        conn = harness.Connection(server.port)
        records, differences = [], []
        try:
            for op in ops:
                records.append(conn.send(op))
                differences.append(records[-1].latency_s - in_process(op))
        finally:
            conn.close()
        return records, 1e3 * median(differences)

    def _query_probe(self, server, seed: int):
        """Ingest one delta under a probe key, then query it at
        concurrency 1, alternately through the server's entry port and
        directly on the process that owns the key (the same process
        without a front door).  The answers are checked like any other;
        returns ``(oracle, key, via_entry, via_owner)`` latencies."""
        oracle = QueryOracle()
        key = f"probe{seed}"
        oracle.register(key, PAPER_SOURCE)
        program = oracle.programs.get(PAPER_SOURCE)
        delta = profile_program(program, [{"seed": 0}])[0]
        ingest = harness.Op(
            "POST",
            f"/profiles/{key}/ingest",
            json.dumps(
                {"profile": delta.to_dict(), "source": PAPER_SOURCE}
            ).encode(),
            ("ingest", key, 0),
        )
        query = IngestQuery.query_op(key, "zero")
        records = _send_all(server.port, [ingest, query])
        owner_port = server.port
        for port in server.shard_ports:
            # Only the owning shard knows the key; the others answer 404.
            if _send_all(port, [query])[0].status == 200:
                owner_port = port
        entry = harness.Connection(server.port)
        owner = harness.Connection(owner_port)
        via_entry, via_owner = [], []
        try:
            for i in range(QUERY_PROBES):
                for conn in (entry, owner) if i % 2 else (owner, entry):
                    record = conn.send(query)
                    records.append(record)
                    latencies = via_entry if conn is entry else via_owner
                    latencies.append(record.latency_s)
        finally:
            entry.close()
            owner.close()
        checker = Checker()
        for record in records:
            replay(record, checker, oracle, {key: [delta]})
        self._count(checker, [records])
        return oracle, key, via_entry, via_owner

    def _query_overhead(self, server, seed: int) -> float:
        """Keyed-query latency at concurrency 1 minus the same analysis
        in process, in ms."""
        oracle, key, via_entry, via_owner = self._query_probe(server, seed)
        analysis = []
        for _ in range(QUERY_PROBES):
            started = time.perf_counter()
            oracle.expected(key, "zero")
            analysis.append(time.perf_counter() - started)
        latency = median(via_entry + via_owner)
        return 1e3 * (latency - median(analysis))

    def _hop(self, seed: int) -> float:
        """The same keyed query through a fleet's front door minus
        straight to the owning shard (median of pairs), in ms."""
        fleet = harness.Server(self.root, workers=HOP_WORKERS)
        fleet.start()
        try:
            _oracle, _key, via_door, via_shard = self._query_probe(fleet, seed)
        finally:
            self.drain(fleet)
        return 1e3 * median(
            [door - shard for door, shard in zip(via_door, via_shard)]
        )


def _report(name: str, values: dict, units: dict, run: Run) -> dict:
    print(
        f"workload {name}: attempted={run.attempted} failed={run.failed} "
        f"samples={run.samples}"
    )
    for reason in run.problems + run.reasons:
        print(f"  failure: {reason}")
    for metric, value in values.items():
        print(f"  {metric:32s} {value:14.4f} {units[metric]}")
    return {
        metric: {"value": value, "unit": units[metric]}
        for metric, value in values.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload_cls = WORKLOADS[args.workload]
    clients = _client_count(workload_cls)
    workload = workload_cls(args.seed, clients)
    run = Run(workload, args.seconds, ROOT)
    if args.trace:
        values = run.per_layer(
            layers.Tracer(), ROOT / "perfbench" / "out", args.seed
        )
        units = LAYER_UNITS
    else:
        values = run.end_to_end()
        units = E2E_UNITS
    metrics = _report(args.workload, values, units, run)
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
