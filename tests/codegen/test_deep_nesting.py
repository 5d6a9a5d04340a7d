"""Programs CPython's ``compile()`` rejects fall back to the reference.

Structured emission turns every DO loop into a native ``while``, and
CPython refuses source with 20 or more statically nested blocks
("too many statically nested blocks").  A valid minifort program can
nest that deep, so the backend re-raises the ``SyntaxError`` as a
memoized :class:`LoweringError`: ``auto`` steps down to the reference
interpreter through the ordinary ``lowering`` fallback, and an
explicit ``backend="codegen"`` reports the lowering failure.
"""

import pytest

from repro.codegen import LoweringError
from repro.obs import metrics
from repro.pipeline import compile_source, profile_program, run_program
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from tests.conformance.harness import observe

pytestmark = pytest.mark.codegen

#: 19 nested loops still compile; 20 is CPython's static block limit.
DEPTHS = (19, 20, 25)


def nested_do_source(depth: int) -> str:
    """``depth`` nested DO loops; only the outermost iterates twice."""
    names = [f"I{level}" for level in range(depth)]
    lines = [
        "      PROGRAM MAIN",
        f"      INTEGER {', '.join(names)}, X",
        "      X = 0",
    ]
    for level, name in enumerate(names):
        stop = 2 if level == 0 else 1
        lines.append(f"      DO {100 + level} {name} = 1, {stop}")
    lines.append("      X = X + 1")
    for level in reversed(range(depth)):
        lines.append(f"{100 + level}   CONTINUE")
    lines += ["      PRINT *, X", "      END"]
    return "\n".join(lines) + "\n"


def _fallbacks() -> float:
    return metrics.counter(
        "repro_backend_fallbacks_total",
        "Runs that fell back to a slower backend.",
        labels=("reason",),
    ).value(reason="lowering")


def _expected_fallbacks(depth: int) -> int:
    return 1 if depth >= 20 else 0


@pytest.fixture(scope="module")
def server():
    with ServiceThread(ServiceConfig(linger=0.001)) as handle:
        yield handle


@pytest.mark.parametrize("depth", DEPTHS)
def test_run_program_matches_reference(depth):
    program = compile_source(nested_do_source(depth))
    expected = observe(program, "reference")
    before = _fallbacks()
    assert observe(program, "auto") == expected
    assert _fallbacks() - before == _expected_fallbacks(depth)
    assert expected["outputs"] == ["2"]


@pytest.mark.parametrize("mode", ["counters", "paths"])
@pytest.mark.parametrize("depth", DEPTHS)
def test_profile_program_matches_reference(depth, mode):
    program = compile_source(nested_do_source(depth))
    want, want_stats = profile_program(
        program, 1, mode=mode, backend="reference"
    )
    before = _fallbacks()
    got, got_stats = profile_program(program, 1, mode=mode)
    assert _fallbacks() - before == _expected_fallbacks(depth)
    assert got.to_dict() == want.to_dict()
    assert got_stats == want_stats


@pytest.mark.parametrize("depth", DEPTHS)
def test_service_profile_matches_reference(server, depth):
    source = nested_do_source(depth)
    with ServiceClient(port=server.port) as client:
        want = client.profile(source, runs=1, backend="reference")
        before = _fallbacks()
        got = client.profile(source, runs=1)
    assert _fallbacks() - before == _expected_fallbacks(depth)
    assert got["profile"] == want["profile"]
    assert got["summary"] == want["summary"]


@pytest.mark.parametrize("depth", DEPTHS)
def test_explicit_codegen_reports_lowering_error(depth):
    program = compile_source(nested_do_source(depth))
    if depth < 20:
        assert run_program(program, backend="codegen").outputs == ["2"]
        return
    for _ in range(2):  # memoized: the second call raises the same way
        with pytest.raises(LoweringError, match="statically nested"):
            run_program(program, backend="codegen")
