"""Tests of the benchmark's own code: statistics, oracle, inputs.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import pytest

import harness
import run
from harness import Record
from oracle import QueryOracle, ProfileOracle, as_json
from workloads import (
    POOL_SIZE,
    WARM_CYCLE,
    WORKLOADS,
    Checker,
    ColdProfile,
    IngestQuery,
    WarmProfile,
    pool,
    replay,
    squares_integers,
)

from repro import profile_program
from repro.batch import BatchItem, run_batch
from repro.batch.aggregate import summarize_item
from repro.costs import SCALAR_MACHINE
from repro.workloads import PAPER_SOURCE, builtin_sources

RUNS = [{"seed": 0}, {"seed": 1}]


def test_nearest_rank_percentile():
    values = [float(v) for v in range(100, 0, -1)]
    assert harness.percentile(values, 0.5) == 50.0
    assert harness.percentile(values, 0.9) == 90.0
    assert harness.percentile([3.0], 0.9) == 3.0


def test_samples_beyond_a_percentile():
    assert harness.samples_beyond(0.9, 100) == 10
    assert harness.samples_beyond(0.9, 99) == 9
    assert harness.samples_beyond(0.5, 20) == 10
    assert harness.samples_beyond(0.99, 1000) == 10


def test_p90_needs_one_hundred_samples():
    with pytest.raises(ValueError):
        harness.latency_percentiles([0.001] * 99)
    p50, p90 = harness.latency_percentiles(
        [i / 1000 for i in range(1, 101)]
    )
    assert (p50, p90) == (50.0, 90.0)


def _served_profile_body() -> dict:
    """A ``POST /profile`` body as the service builds it (codegen)."""
    item = BatchItem(id="paper", source=PAPER_SOURCE, runs=tuple(RUNS))
    result = run_batch([item], mode="serial").results[0]
    assert result.ok
    return as_json(
        {
            "runs": result.runs,
            "summary": result.summary,
            "profile": result.profile.to_dict(),
        }
    )


def test_profile_oracle_accepts_a_true_answer():
    body = _served_profile_body()
    assert ProfileOracle().check(PAPER_SOURCE, RUNS, body) is None


def _bump_branch_count(body):
    first = body["profile"]["procedures"]["MAIN"]["branch_counts"][0]
    first[2] += 1


def _scale_time(body):
    body["summary"]["time"] *= 1.001


def _bump_var(body):
    body["summary"]["var"] += 1.0


def _wrong_runs(body):
    body["runs"] += 1


@pytest.mark.parametrize(
    "corrupt", [_bump_branch_count, _scale_time, _bump_var, _wrong_runs]
)
def test_profile_oracle_flags_a_corrupted_answer(corrupt):
    body = _served_profile_body()
    corrupt(body)
    assert ProfileOracle().check(PAPER_SOURCE, RUNS, body) is not None


def test_query_oracle_flags_a_corrupted_answer():
    oracle = QueryOracle()
    oracle.register("k", PAPER_SOURCE)
    program = oracle.programs.get(PAPER_SOURCE)
    delta = profile_program(program, [{"seed": 0}])[0]
    oracle.ingest("k", delta)
    oracle.ingest("k", delta)
    analysis = as_json(
        summarize_item(program, oracle.accumulated["k"], SCALAR_MACHINE)
    )
    body = {"runs": 2, "analysis": analysis}
    assert oracle.check_query("k", "zero", body) is None
    assert oracle.check_query("k", "zero", {"runs": 1, "analysis": analysis})
    analysis["var"] += 1.0
    assert oracle.check_query("k", "zero", {"runs": 2, "analysis": analysis})


def test_non_2xx_and_wrong_answers_count_as_failed():
    op = IngestQuery.query_op("k", "zero")
    oracle = QueryOracle()
    oracle.register("k", PAPER_SOURCE)
    checker = Checker()
    replay(Record(op, 503, b"{}", 0.001, 0.0), checker, oracle, {})
    replay(Record(op, 200, b"{}", 0.001, 0.0), checker, oracle, {})
    assert checker.failed == 2


def test_cold_streams_are_seeded_and_never_repeat_a_program():
    def first_programs(seed):
        workload = ColdProfile(seed, clients=2)
        streams = workload.streams()
        return [
            [op.tag[2] for op in itertools.islice(stream, 15)]
            for stream in streams
        ] + [[op.tag[2] for op in workload.warmup_ops()]]

    programs = first_programs(7)
    assert programs == first_programs(7)
    flat = [source for stream in programs for source in stream]
    assert len(set(flat)) == len(flat)
    sent = json.loads(ColdProfile(7, 2).warmup_ops()[0].body)
    assert sent["runs"] == RUNS


def test_cold_copies_are_the_pool_renamed():
    copy_name = re.compile(r"\bR\d+S[0-9A-Z]+N[0-9A-Z]+\b")
    expected = pool() + pool()[:1]
    for seed in (7, 8):
        stream = ColdProfile(seed, clients=1).streams()[0]
        sent = [op.tag[2] for op in itertools.islice(stream, POOL_SIZE + 1)]
        assert [copy_name.sub("ARR", source) for source in sent] == expected
        assert "ARR" not in sent[0]


def test_warm_cycle_sends_every_builtin_and_three_twice():
    stream = WarmProfile(7, clients=1).streams()[0]
    labels = [op.tag[1] for op in itertools.islice(stream, WARM_CYCLE)]
    assert set(labels) == {label for label, _source in builtin_sources()}
    assert len(labels) - len(set(labels)) == 3


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_cold_profile_leaves_out_squaring_integer_recurrences():
    assert squares_integers("      K = (L * K)\n")
    assert squares_integers("      IF (MOD(N, 4) .EQ. 0) M = (K * (L + 1))\n")
    assert not squares_integers("      K = (K * 4)\n")
    assert not squares_integers(
        "      ARR(MOD(ABS((K * L)), 20) + 1) = (A * B)\n"
    )
    assert not squares_integers("      DO 10 I2 = 1, 6\n")
