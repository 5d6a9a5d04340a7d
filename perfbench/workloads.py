"""The benchmark's workloads: what each sends and how it is checked.

Every input derives from the workload seed; the server sees only the
generated requests.  Each workload gives a sequential warm-up (the
untimed part of set-up), one endless request stream per closed-loop
client, the programs whose layers the traced run times, and a checker
that replays the recorded requests through the oracle.

* ``cold-profile`` — ``POST /profile`` of never-seen generated
  programs (a fixed pool, renamed per request from the seed): every
  artifact-cache lookup misses, so parse, graphs, plan, codegen and
  CPython ``compile()`` run on every request.
* ``warm-profile`` — ``POST /profile`` over the 12 builtins with the
  working set compiled during warm-up: the compile layers are idle and
  the time goes to running, reconstructing, summarizing and serving.
* ``ingest-query`` — raw TOTAL_FREQ deltas and keyed queries, 3 to 1:
  no compile, no codegen; the profile database and query-time
  Definition-3/Section-5 analysis.

The same mix through ``repro serve --workers 2`` was tried as a fourth
workload and left out: on a 2-core box the front door, two shards and
the clients contend for the cores, and its p90 spread across seeds
reached the largest bound.  The traced run measures the front-door hop
on a 2-worker fleet instead (``run.py``).
"""

from __future__ import annotations

import itertools
import json
import random
import re

from harness import Op
from oracle import ProfileOracle, Programs, QueryOracle

from repro import profile_program
from repro.profiling.database import ProgramProfile
from repro.validate.corpus import DEFAULT_INPUTS
from repro.workloads import ProgramGenerator, builtin_sources

#: Programs in cold-profile's pool: the first ones ProgramGenerator
#: makes from ``POOL_BASE`` that pass ``squares_integers`` and are at
#: most ``MAX_SOURCE_CHARS`` long.  The pool is the same for every
#: seed, so throughput and the latency percentiles do not swing with
#: which programs a seed happened to draw.  95 is odd and 5 modulo 10:
#: p50 and p90 fall mid-way through one program's samples, not on the
#: edge between two programs, and the tail is dense enough that p90
#: does not jump between far-apart program sizes (a pool of 45 spread
#: twice as wide).
POOL_SIZE = 95
POOL_BASE = 0
#: The longest source the pool takes, about the generator's 92nd
#: percentile.  The few longer programs (150-300 ms each, a handful of
#: samples per run) made p90 jump from run to run by more than the
#: host's own drift.
MAX_SOURCE_CHARS = 6000
#: Coprime to ``POOL_SIZE``; 59/95 is close to the golden ratio's 0.618.
POOL_STRIDE = 59
#: The array every generated procedure declares; each request renames
#: it, which makes every source (and its artifact-cache key) new at the
#: same compile and run cost.
_ARRAY = re.compile(r"\bARR\b")


#: An INTEGER assignment (implicit typing: names I-N) and the integer
#: variables it reads (a name followed by "(" is a function).
_INT_ASSIGN = re.compile(r"\b[I-N][A-Z0-9]*\s*=([^\n]*)")
_INT_VAR = re.compile(r"\b[I-N][A-Z0-9]*\b(?!\s*\()")
#: Profile runs per ``POST /profile``.
RUNS = 2


def _derive(seed: int, purpose: str) -> int:
    return random.Random(f"{purpose}/{seed}").randrange(1 << 30)


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode()


def _profile_op(label: str, source: str, runs: list[dict]) -> Op:
    body = _body({"source": source, "runs": runs})
    return Op("POST", "/profile", body, ("profile", label, source, runs))


def squares_integers(source: str) -> bool:
    """Whether an INTEGER assignment multiplies two variable terms.

    In a loop, ``K = (L * K)`` with ``L = K`` squares K on every trip;
    the unbounded Python integers of every engine then stall a request
    for minutes and gigabytes, and ``max_steps`` does not bound it.
    Cold-profile measures the compile path, not that defect, so it
    leaves such programs out (about 1 in 10 generated programs).
    """
    return any(
        "*" in rhs and len(_INT_VAR.findall(rhs)) >= 2
        for rhs in _INT_ASSIGN.findall(source)
    )


class Checker:
    """Counts failed operations; keeps the first few reasons."""

    def __init__(self):
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, record, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            op = record.op
            self.reasons.append(f"{op.method} {op.path}: {reason}")

    def ok_body(self, record) -> dict | None:
        """The parsed 2xx body, or ``None`` after counting a failure."""
        if not 200 <= record.status < 300:
            detail = record.data[:200].decode(errors="replace")
            self.fail(record, f"HTTP {record.status} {detail}")
            return None
        try:
            return json.loads(record.data)
        except ValueError as exc:
            self.fail(record, f"unparsable body: {exc}")
            return None


# -- /profile workloads --------------------------------------------------


class _ProfileWorkload:
    #: Closed-loop clients.  One: with two, each answer also waits for
    #: whatever the other client sent, and the upper percentiles read
    #: how the two request cycles happened to line up.
    max_clients = 1

    def check(self, streams: list[list]) -> Checker:
        """Check every recorded ``/profile`` answer (order is free)."""
        checker = Checker()
        oracle = ProfileOracle(self.programs)
        for records in streams:
            for record in records:
                body = checker.ok_body(record)
                if body is None:
                    continue
                _kind, _label, source, runs = record.op.tag
                reason = oracle.check(source, runs, body)
                if reason:
                    checker.fail(record, reason)
        return checker


class ColdProfile(_ProfileWorkload):
    """Never-seen generated programs: the pool, renamed per request.

    One caller at a time, as a one-shot user sends them: with two, the
    batcher flushes both callers' compiles together and each answer
    waits for the other's program, which ties every latency to which
    sizes happened to meet.
    """

    name = "cold-profile"

    def __init__(self, seed: int, clients: int):
        self.clients = clients
        self.programs = Programs()
        self._tag = f"{_derive(seed, 'cold'):X}"
        self._pool = pool()

    def _sources(self, stream: int):
        """Stream ``stream``'s programs: the pool over and over, each
        copy's array named after the seed, the stream and the copy, so
        no two requests of one run share an artifact-cache entry."""
        for index in itertools.count():
            name = f"R{stream}S{self._tag}N{index:X}"
            yield _ARRAY.sub(name, self._pool[index % POOL_SIZE])

    @staticmethod
    def _runs() -> list[dict]:
        return [{"seed": seed} for seed in range(RUNS)]

    def warmup_ops(self) -> list[Op]:
        """Two small builtins, compiled cold: lazy imports and first-use
        set-up, at a cost that does not vary with the seed."""
        return [
            _profile_op(label, source, self._runs())
            for label, source in builtin_sources()
            if label in ("paper", "shellsort")
        ]

    def _ops(self, stream: int, label: str):
        for source in self._sources(stream):
            yield _profile_op(label, source, self._runs())

    def streams(self) -> list:
        return [self._ops(i, f"gen{i}") for i in range(self.clients)]

    def probe_ops(self, count: int) -> list[Op]:
        return list(itertools.islice(self._ops(self.clients, "probe"), count))

    def layer_programs(self) -> list[tuple[str, str, list[dict]]]:
        return [
            (f"gen{i}", source, self._runs())
            for i, source in enumerate(
                itertools.islice(self._sources(0), POOL_SIZE)
            )
        ]


def pool() -> list[str]:
    """Cold-profile's ``POOL_SIZE`` programs, in the order sent.

    Sorted by length and walked with a stride near the golden ratio,
    every stretch of the cycle mixes small and large programs alike, so
    the pass a window ends in does not tilt the percentiles.
    """
    sources = []
    for seed in itertools.count(POOL_BASE):
        source = ProgramGenerator(seed).source()
        if len(source) <= MAX_SOURCE_CHARS and not squares_integers(source):
            sources.append(source)
            if len(sources) == POOL_SIZE:
                break
    sources.sort(key=len)
    return [sources[i * POOL_STRIDE % POOL_SIZE] for i in range(POOL_SIZE)]


def _builtins() -> list[tuple[str, str, list[float]]]:
    return [
        (label, source, list(DEFAULT_INPUTS.get(label, ())))
        for label, source in builtin_sources()
    ]


#: Requests in one warm-profile cycle: the 12 builtins, then the first
#: three again.  Like ``POOL_SIZE``, odd and 5 modulo 10, so p50 and
#: p90 fall mid-way through one request's samples: with a cycle of 12,
#: p90 sat near the edge between ``simple`` (8 ms) and ``livermore``
#: (12 ms) and flipped between them from run to run.
WARM_CYCLE = 15


class WarmProfile(_ProfileWorkload):
    """The 12 builtins, compiled during warm-up, with fresh run seeds."""

    name = "warm-profile"

    def __init__(self, seed: int, clients: int):
        self.clients = clients
        self.programs = Programs()
        self.builtins = _builtins()
        self._seed_base = _derive(seed, "warm")

    def _runs(self, stream: int, inputs: list[float]) -> list[dict]:
        # Each client runs its own seeds, so two clients never send the
        # same request at once and the batcher has nothing to coalesce.
        first = self._seed_base + RUNS * stream
        return [
            {"seed": first + i, "inputs": inputs} for i in range(RUNS)
        ]

    def _ops(self, stream: int, offset: int):
        n = len(self.builtins)
        for position in itertools.count(offset):
            label, source, inputs = self.builtins[position % WARM_CYCLE % n]
            yield _profile_op(label, source, self._runs(stream, inputs))

    def warmup_ops(self) -> list[Op]:
        return list(
            itertools.islice(self._ops(self.clients, 0), len(self.builtins))
        )

    def streams(self) -> list:
        step = WARM_CYCLE // self.clients
        return [self._ops(i, i * step) for i in range(self.clients)]

    def probe_ops(self, count: int) -> list[Op]:
        return list(itertools.islice(self._ops(self.clients + 1, 0), count))

    def layer_programs(self) -> list[tuple[str, str, list[dict]]]:
        return [
            (label, source, self._runs(0, inputs))
            for label, source, inputs in self.builtins
        ]


# -- ingest/query workloads ----------------------------------------------


#: One-run TOTAL_FREQ deltas per key, cycled through by the ingests.
DELTAS_PER_KEY = 2
#: Ingests per keyed query.
INGESTS_PER_QUERY = 3


class IngestQuery:
    """3 raw-delta ingests to 1 keyed query over 12 builtin keys."""

    name = "ingest-query"
    #: One client: a query's analysis would otherwise hold up the other
    #: client's ingests, and p50 would read how often the two met.
    max_clients = 1

    def __init__(self, seed: int, clients: int):
        self.clients = clients
        self.programs = Programs()
        self.builtins = _builtins()
        base = _derive(seed, "ingest")
        self.keys = [f"k{seed}-{label}" for label, _s, _i in self.builtins]
        self.sources = {
            key: source
            for key, (_label, source, _inputs) in zip(self.keys, self.builtins)
        }
        self.deltas: dict[str, list[ProgramProfile]] = {}
        self._delta_bodies: dict[str, list[bytes]] = {}
        for key, (_label, source, inputs) in zip(self.keys, self.builtins):
            program = self.programs.get(source)
            deltas = [
                profile_program(
                    program, [{"seed": base + i, "inputs": inputs}]
                )[0]
                for i in range(DELTAS_PER_KEY)
            ]
            self.deltas[key] = deltas
            self._delta_bodies[key] = [
                _body({"profile": delta.to_dict()}) for delta in deltas
            ]

    def ingest_op(self, key: str, index: int) -> Op:
        body = self._delta_bodies[key][index % DELTAS_PER_KEY]
        return Op(
            "POST",
            f"/profiles/{key}/ingest",
            body,
            ("ingest", key, index % DELTAS_PER_KEY),
        )

    @staticmethod
    def query_op(key: str, loop_variance: str) -> Op:
        return Op(
            "GET",
            f"/profiles/{key}?loop_variance={loop_variance}",
            None,
            ("query", key, loop_variance),
        )

    def warmup_ops(self) -> list[Op]:
        """Register and compile every key, then exercise both paths."""
        ops = []
        for key in self.keys:
            body = _body({"source": self.sources[key], "key": key})
            ops.append(Op("POST", "/compile", body, ("compile", key)))
            ops += [
                self.ingest_op(key, 0),
                self.query_op(key, "zero"),
                self.ingest_op(key, 1),
                self.query_op(key, "geometric"),
            ]
        return ops

    def streams(self) -> list:
        def ops(index: int):
            # Each client owns its keys: its queries have known answers.
            owned = self.keys[index :: self.clients]
            ingests = itertools.count()
            for visit in itertools.count():
                key = owned[visit % len(owned)]
                for _ in range(INGESTS_PER_QUERY):
                    yield self.ingest_op(key, next(ingests))
                variance = "geometric" if (visit // len(owned)) % 2 else "zero"
                yield self.query_op(key, variance)

        return [ops(i) for i in range(self.clients)]

    def probe_ops(self, count: int) -> list[Op]:
        return []

    def layer_programs(self) -> list[tuple[str, str, list[dict]]]:
        return [
            (label, source, [{"seed": 0, "inputs": inputs}])
            for label, source, inputs in self.builtins
        ]

    def check(self, streams: list[list]) -> Checker:
        """Replay the streams in order (warm-up first) through the oracle."""
        checker = Checker()
        oracle = QueryOracle(self.programs)
        for key, source in self.sources.items():
            oracle.register(key, source)
        for records in streams:
            for record in records:
                replay(record, checker, oracle, self.deltas)
        return checker


def replay(record, checker: Checker, oracle: QueryOracle, deltas) -> None:
    """Check one ingest/query/compile answer, accumulating ingests."""
    kind, key = record.op.tag[:2]
    body = checker.ok_body(record)
    if body is None:
        return
    if kind == "compile":
        reason = None if body.get("key") == key else f"key {body.get('key')!r}"
    elif kind == "ingest":
        oracle.ingest(key, deltas[key][record.op.tag[2]])
        reason = oracle.check_ingest(key, body)
    else:
        reason = oracle.check_query(key, record.op.tag[2], body)
    if reason:
        checker.fail(record, reason)


WORKLOADS = {cls.name: cls for cls in (ColdProfile, WarmProfile, IngestQuery)}
