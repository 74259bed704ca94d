"""Determinism self-check of the benchmark: python3 -m pytest bench

Same-seed runs give identical model outputs, and a traced run gives the
same outputs as an untraced one, so tracing does not perturb the
simulation.  Each workload is checked on one job of every kind in its
batch.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MODEL_KEYS = ("des.events", "protocols.requests_done", "protocols.sim_latency_ms_p50",
              "protocols.sim_latency_ms_p90", "mbqc.branches", "compiler.ops")


def _one_job_per_kind(workload, seed=7):
    kinds = {}
    for job in workloads.make_batch(workload, seed):
        kinds.setdefault(job.kind, job)
    return list(kinds.values())


def _entry_points():
    found = {}
    for name, _kind, module, cls, attr, _hook in layers.ENTRY_POINTS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        found[(module, cls, attr)] = getattr(owner, attr)
    return found


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_and_tracing_keep_model_outputs(workload, tmp_path):
    first = run.run_pass(_one_job_per_kind(workload), 0, workdir=tmp_path)
    second = run.run_pass(_one_job_per_kind(workload), 0, workdir=tmp_path)
    originals = _entry_points()
    tracer = layers.Tracer()
    traced = run.run_pass(_one_job_per_kind(workload), 0, tracer=tracer, workdir=tmp_path)

    assert first.models and first.models == second.models == traced.models
    plain = run.model_metrics(first.models.values())
    assert {k: plain[k] for k in MODEL_KEYS} == {
        k: run.model_metrics(traced.models.values())[k] for k in MODEL_KEYS}
    layer = tracer.metrics()
    assert layer["des.events"][0] == plain["des.events"][0]
    assert layer["mbqc.branches"][0] == plain["mbqc.branches"][0]
    assert layer["compiler.ops"][0] == plain["compiler.ops"][0]
    assert _entry_points() == originals


def test_missing_entry_point_leaves_metric_out(monkeypatch):
    from qnetsim.protocols.qkd_network import QKDRMP

    monkeypatch.delattr(QKDRMP, "pool_recovered")
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics()
    assert "protocols.pool_recovered_calls" not in metrics
    assert "protocols.handle_classical_calls" in metrics
    assert not hasattr(QKDRMP, "pool_recovered")
