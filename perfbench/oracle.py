"""The correctness oracle: every answer the server gives is checked.

* ``POST /profile`` answers are compared with the reference
  interpreter's profile of the same program and runs
  (``profile_program(..., backend="reference")``), and their summary
  TIME/VAR with ``summarize_item`` on that reference profile.
* ``GET /profiles/{key}`` answers are compared with ``summarize_item``
  on the profile the client itself accumulated from the deltas it sent.

Expected answers are computed after the timed window, never inside it.
Floats agree to a relative 1e-9: the engines are bit-identical today,
and the tolerance keeps a legitimate change of summation order from
reading as a wrong answer.
"""

from __future__ import annotations

import json
import math

from repro import compile_source, profile_program
from repro.analysis.distributions import LoopDistribution
from repro.batch.aggregate import summarize_item
from repro.costs import SCALAR_MACHINE
from repro.profiling.database import ProgramProfile

REL_TOL = 1e-9

#: ``?loop_variance=`` values the workloads send, as ``summarize_item``
#: takes them (the server maps them the same way).
LOOP_VARIANCE = {"zero": "zero", "geometric": LoopDistribution.GEOMETRIC}


def as_json(value):
    """``value`` as it reads after a JSON round trip."""
    return json.loads(json.dumps(value))


def mismatch(got, want, where: str = "$") -> str | None:
    """Where ``got`` first differs from ``want`` (``None``: they agree)."""
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else f"{where}: {got!r} != {want!r}"
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12) or (
            math.isnan(got) and math.isnan(want)
        ):
            return None
        return f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = mismatch(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{where}: length {len(got)} != {len(want)}"
        for index, (a, b) in enumerate(zip(got, want)):
            found = mismatch(a, b, f"{where}[{index}]")
            if found:
                return found
        return None
    return None if got == want else f"{where}: {got!r} != {want!r}"


class Programs:
    """Compiled programs by source, compiled once per benchmark run."""

    def __init__(self):
        self._compiled: dict[str, object] = {}

    def get(self, source: str):
        program = self._compiled.get(source)
        if program is None:
            program = self._compiled[source] = compile_source(source)
        return program


class ProfileOracle:
    """Checks ``POST /profile`` answers against the reference engine."""

    def __init__(self, programs: Programs | None = None):
        self.programs = programs or Programs()
        self._expected: dict[tuple[str, str], tuple[dict, float, float]] = {}

    def expected(self, source: str, runs: list[dict]):
        key = (source, json.dumps(runs, sort_keys=True))
        found = self._expected.get(key)
        if found is None:
            program = self.programs.get(source)
            profile, _stats = profile_program(
                program, [dict(spec) for spec in runs], backend="reference"
            )
            summary = summarize_item(program, profile, SCALAR_MACHINE)
            found = (
                as_json(profile.to_dict()),
                summary["time"],
                summary["var"],
            )
            self._expected[key] = found
        return found

    def check(self, source: str, runs: list[dict], body: dict) -> str | None:
        profile, time, var = self.expected(source, runs)
        if body.get("runs") != len(runs):
            return f"runs {body.get('runs')!r} != {len(runs)}"
        summary = body.get("summary") or {}
        return (
            mismatch(body.get("profile"), profile, "profile")
            or mismatch(summary.get("time"), time, "summary.time")
            or mismatch(summary.get("var"), var, "summary.var")
        )


class QueryOracle:
    """Replays a client's ingests; checks each keyed query's answer."""

    def __init__(self, programs: Programs | None = None):
        self.programs = programs or Programs()
        self.sources: dict[str, str] = {}
        self.accumulated: dict[str, ProgramProfile] = {}

    def register(self, key: str, source: str) -> None:
        self.sources[key] = source

    def ingest(self, key: str, delta: ProgramProfile) -> None:
        self.accumulated.setdefault(key, ProgramProfile()).merge(delta)

    def expected(self, key: str, loop_variance: str) -> dict:
        return summarize_item(
            self.programs.get(self.sources[key]),
            self.accumulated[key],
            SCALAR_MACHINE,
            loop_variance=LOOP_VARIANCE[loop_variance],
        )

    def check_ingest(self, key: str, body: dict) -> str | None:
        runs = self.accumulated[key].runs
        if body.get("runs") != runs:
            return f"ingest runs {body.get('runs')!r} != {runs}"
        return None

    def check_query(
        self, key: str, loop_variance: str, body: dict
    ) -> str | None:
        profile = self.accumulated.get(key)
        if profile is None:
            return f"query of {key} before any ingest"
        if body.get("runs") != profile.runs:
            return f"query runs {body.get('runs')!r} != {profile.runs}"
        return mismatch(
            body.get("analysis"),
            as_json(self.expected(key, loop_variance)),
            "analysis",
        )
