"""Path-mode conformance: fused path registers vs the reference hook.

The Ball–Larus path register is fused into the codegen backend, so
it gets the same treatment counters do: every builtin (with and
without an ``INPUT()`` vector) and the full 75-program generator
corpus run path-profiled on both backends, and the observations —
path-count spectra, STOP partials, update tallies, outputs, costs —
must be identical down to float reprs.  Each conformant reference
spectrum is then reconstructed and must reproduce the counter-measured
Definition-3 ``FREQ``/``NODE_FREQ``/``TOTAL_FREQ`` bit-for-bit.
"""

import pytest

from repro.workloads import builtin_sources
from tests.conformance.harness import (
    INPUTS,
    assert_path_conformance,
    builtin_program,
    generated_program,
)

pytestmark = [
    pytest.mark.conformance,
    pytest.mark.differential,
    pytest.mark.paths,
]

N_PROGRAMS = 75


@pytest.mark.parametrize("name", [n for n, _ in builtin_sources()])
def test_builtin_with_inputs(name):
    assert_path_conformance(builtin_program(name), seed=3, inputs=INPUTS)


@pytest.mark.parametrize("name", [n for n, _ in builtin_sources()])
def test_builtin_without_inputs(name):
    """No INPUT() vector: programs that read one must fail identically."""
    assert_path_conformance(builtin_program(name), seed=3)


@pytest.mark.parametrize("gen_seed", range(N_PROGRAMS))
def test_generated_program(gen_seed):
    program = generated_program(gen_seed)
    run_seed = 7919 * (gen_seed + 1)  # deterministic, distinct per program
    assert_path_conformance(program, seed=run_seed, max_steps=200_000)
