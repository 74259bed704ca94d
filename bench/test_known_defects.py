"""Defects of the program that the benchmark's workloads stay clear of.

Each test states the correct behaviour and is marked as an expected
failure: once the program is fixed it passes, strict xfail turns that
into a failure, and the workload it constrains can grow back.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402


@pytest.mark.xfail(strict=True, reason=(
    "StateVector.project renormalises by 1 - p(other outcome) instead of the "
    "kept amplitudes' norm, so the norm error doubles at each fair measurement "
    "and every outcome after about 60 of them reads 0"))
@pytest.mark.parametrize("seed", [0, 1])
def test_run_pattern_on_200_vertex_chain_gives_fair_coins(seed):
    rng = np.random.default_rng(seed)
    job = workloads._run_pattern_job(*workloads._chain_pattern(rng, 200), 20, seed)
    outcome = job.outcome(job.run(None), None)
    assert outcome.ok, outcome.detail
