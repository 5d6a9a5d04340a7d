"""The traced run's spans and its in-process per-layer timings.

Spans are recorded here, in the benchmark's own code, around each
client call and each call into a layer's public functions; nothing is
added inside ``src/``.  They stay in memory and are written out as
JSON lines when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from repro import profile_program, run_program, smart_program_plan
from repro.batch.aggregate import summarize_item
from repro.callgraph import build_call_graph
from repro.cdg import build_fcdg
from repro.cfg.builder import build_program_cfgs
from repro.cfg.reducibility import is_reducible, split_nodes
from repro.codegen import codegen_backend_for
from repro.costs import SCALAR_MACHINE
from repro.ecfg import build_ecfg
from repro.lang.parser import parse_program
from repro.lang.symbols import check_program
from repro.pipeline import CompiledProgram
from repro.profiling import PlanExecutor, reconstruct_profile
from repro.profiling.database import ProfileDatabase

#: Database operations timed per program (each is a few microseconds).
DB_REPEATS = 50


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """Spans with parents, one nesting stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = Span(name, 0.0, parent=parent, attrs=attrs)
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [s.ms for s in self.spans if s.name == name]

    def attr_values(self, name: str, attr: str) -> list[float]:
        return [s.attrs[attr] for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, record in enumerate(self.spans):
                line = json.dumps({"id": index, **asdict(record)})
                handle.write(line + "\n")


def time_layers(tracer: Tracer, programs) -> None:
    """Call each layer's public functions on every program, in spans.

    ``programs`` holds ``(label, source, runs)``; the span names are
    the per-layer metric names without their unit.
    """
    for label, source, runs in programs:
        with tracer.span("program", label=label) as top:
            with tracer.span("lang.parse"):
                checked = check_program(parse_program(source))
            with tracer.span("cfg.build"):
                cfgs = build_program_cfgs(checked)
                splits = {
                    name: split_nodes(cfg)
                    for name, cfg in cfgs.items()
                    if not is_reducible(cfg)
                }
            with tracer.span("ecfg.build"):
                ecfgs = {name: build_ecfg(cfg) for name, cfg in cfgs.items()}
            with tracer.span("cdg.fcdg"):
                fcdgs = {name: build_fcdg(e) for name, e in ecfgs.items()}
            with tracer.span("callgraph.build"):
                call_graph = build_call_graph(checked)
            program = CompiledProgram(
                source=source,
                checked=checked,
                cfgs=cfgs,
                ecfgs=ecfgs,
                fcdgs=fcdgs,
                call_graph=call_graph,
                splits=splits,
            )
            with tracer.span("profiling.plan"):
                plan = smart_program_plan(program)
            backend = codegen_backend_for(program)
            with tracer.span("codegen.lower"):
                backend.ensure_lowered()
            emitted = backend.emitted_source()
            with tracer.span("codegen.pycompile"):
                compile(emitted, "<perfbench>", "exec")
            with tracer.span("profile.first"):
                profile_program(program, runs, plan=plan)
            with tracer.span("codegen.run"):
                profile, _stats = profile_program(program, runs, plan=plan)
            executor = PlanExecutor(plan)
            for spec in runs:
                run_program(program, hooks=executor, **spec)
            with tracer.span("profiling.reconstruct"):
                reconstruct_profile(plan, executor, runs=len(runs))
            with tracer.span("analysis.summarize"):
                summarize_item(program, profile, SCALAR_MACHINE)
            database = ProfileDatabase(None)
            with tracer.span("profiling.database.record", ops=DB_REPEATS):
                for _ in range(DB_REPEATS):
                    database.record(label, profile)
            with tracer.span("profiling.database.lookup", ops=DB_REPEATS):
                for _ in range(DB_REPEATS):
                    database.lookup(label)
            top.attrs.update(
                nodes=sum(len(cfg) for cfg in cfgs.values()),
                counters=plan.n_counters,
                emitted_lines=emitted.count("\n"),
            )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-program means of each layer's span time and counts."""

    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    def mean_ms(name: str) -> float:
        return mean(tracer.durations_ms(name))

    lower = tracer.durations_ms("codegen.lower")
    pycompile = tracer.durations_ms("codegen.pycompile")
    first = tracer.durations_ms("profile.first")
    warm = tracer.durations_ms("codegen.run")
    return {
        "lang.parse_ms": mean_ms("lang.parse"),
        "cfg.build_ms": mean_ms("cfg.build"),
        "cfg.nodes": mean(tracer.attr_values("program", "nodes")),
        "ecfg.build_ms": mean_ms("ecfg.build"),
        "cdg.fcdg_ms": mean_ms("cdg.fcdg"),
        "profiling.plan_ms": mean_ms("profiling.plan"),
        "profiling.counters": mean(tracer.attr_values("program", "counters")),
        "codegen.lower_ms": mean(lower),
        "codegen.pycompile_ms": mean(pycompile),
        "codegen.emit_ms": mean([a - b for a, b in zip(lower, pycompile)]),
        "codegen.variant_ms": mean([a - b for a, b in zip(first, warm)]),
        "codegen.emitted_lines": mean(
            tracer.attr_values("program", "emitted_lines")
        ),
        "codegen.run_ms": mean(warm),
        "profiling.reconstruct_ms": mean_ms("profiling.reconstruct"),
        "analysis.summarize_ms": mean_ms("analysis.summarize"),
        "profiling.database.record_ms": mean_ms("profiling.database.record")
        / DB_REPEATS,
        "profiling.database.lookup_ms": mean_ms("profiling.database.lookup")
        / DB_REPEATS,
    }
