"""Inputs, jobs and output checks of the four benchmark workloads.

Every input (scenario config and seed, circuit, graph, script) is drawn
from the workload seed, so the same seed gives the same batch.  A batch
is a list of jobs.  A job's ``run`` is the timed call into qnetsim; its
``outcome`` checks the output afterwards, outside the timed region, and
returns the job's model outputs, which must not change when only the
speed of the program changes.

Jobs call qnetsim through the modules that define each entry point
(``simulator.run_circuit``, not a name bound at import time), so that
the wrappers installed by ``layers.Tracer`` see every call.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qnetsim import scenarios
from qnetsim.backend import simulator
from qnetsim.backend.circuit import Circuit
from qnetsim.compiler.script import ClassicalSend, LocalOp, Transmit
from qnetsim.mbqc import engine
from qnetsim.mbqc.pattern import MeasurementSpec, ResourceGraph

compiler = importlib.import_module("qnetsim.compiler.compile")

# Each workload runs two job families from one process.  Families that
# share a workload stress different layers; the runs are long because
# only long runs are steady on a shared host (see README.md).
WORKLOADS = {"network": ("keypool", "keychain"), "quantum": ("circuits", "wide")}

# Failure probability allowed to each statistical check.
CHECK_DELTA = 1e-9

# ROADMAP acceptance config: A-R1-R2-B with C and D attached.
KEYPOOL_CONFIG = {"scenario": "keypool", "capacity": 100, "num_requests": 200,
                  "keygen_rate": 50_000.0, "end_time_ps": 400_000_000_000}
KEYPOOL_JOBS = 4

# A 64-repeater chain with 10 endnodes hung off it at even spacing: most
# events are hop-by-hop protocol messages, few are keygen ticks.  Sixty
# requests saturate the pools, so the keys generated, not the random
# endnode pairs, bound the work: a job's host time then has a coefficient
# of variation of about 0.08 between scenario seeds (0.22 with 20
# requests), and 13 jobs make a batch steady across workload seeds.  At
# 100 repeaters a job costs 2.5x more, too much for several rounds.
KEYCHAIN_REPEATERS = 64
KEYCHAIN_CONFIG = {"scenario": "keypool", "capacity": 40, "num_requests": 60,
                   "keygen_rate": 100.0, "end_time_ps": 400_000_000_000,
                   "n_repeaters": KEYCHAIN_REPEATERS,
                   "extra_endnodes": [[f"E{i}", (2 * i + 1) * KEYCHAIN_REPEATERS // 20]
                                      for i in range(10)]}
KEYCHAIN_JOBS = 13

LIVE_STATES = ("issued", "accepted", "queued", "serving")
FINAL_STATES = ("done", "rejected", "unreachable")

WIDE_QUBITS = 20
WIDE_LAYERS = 5
WIDE_SHOTS = 2


@dataclass
class Outcome:
    ok: bool
    detail: str
    model: dict = field(default_factory=dict)


@dataclass
class Job:
    """One closed-loop call into qnetsim and the check of its output.

    ``work`` holds the job's input size: virtual seconds simulated
    (``sim_s``), shots (``shots``) or gate evaluations (``gates``).
    ``make_batch`` numbers the jobs and names their family.
    """
    kind: str
    run: Callable[[Path], object]
    outcome: Callable[[object, Path], Outcome]
    work: dict
    id: int = -1
    family: str = ""


def make_batch(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    batch = []
    for family in WORKLOADS[workload]:
        salt = list(_FAMILIES).index(family)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), salt]))
        for job in _FAMILIES[family](rng):
            job.id, job.family = len(batch), family
            batch.append(job)
    return batch


def _derived_seed(rng):
    return int(rng.integers(2**31))


# ---- statistics ------------------------------------------------------------

def tvd(counts, probs):
    shots = sum(counts.values())
    keys = set(counts) | set(probs)
    return 0.5 * sum(abs(counts.get(k, 0) / shots - probs.get(k, 0.0)) for k in keys)


def tvd_bound(probs, shots, delta=CHECK_DELTA):
    """TVD that `shots` samples of `probs` exceed with probability < delta.

    E[TVD] <= sum_k sqrt(p_k (1 - p_k) / n) / 2 by Jensen, and one sample
    moves TVD by at most 1/n, so McDiarmid adds sqrt(ln(1/delta) / 2n).
    """
    mean = 0.5 * sum(math.sqrt(p * (1 - p) / shots) for p in probs.values())
    return mean + math.sqrt(math.log(1 / delta) / (2 * shots))


def hoeffding(n, delta=CHECK_DELTA):
    """Two-sided deviation of a mean of n bits exceeded w.p. < delta."""
    return math.sqrt(math.log(2 / delta) / (2 * n))


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _sorted_counts(counts):
    return sorted((str(k), int(v)) for k, v in counts.items())


# ---- keypool / keychain: run_scenario jobs ---------------------------------

def _scenario_job(kind, config, scenario_seed):
    def run(out_dir):
        return scenarios.run_scenario(dict(config), seed=scenario_seed,
                                      out_dir=out_dir)

    def outcome(metrics, out_dir):
        return _check_scenario(config, metrics, out_dir)

    return Job(kind, run, outcome, {"sim_s": config["end_time_ps"] / 1e12})


def _check_scenario(config, metrics, out_dir):
    requests = metrics["requests"]
    key_num = config.get("key_num", 10)
    errors = []
    if len(requests) != config["num_requests"]:
        errors.append(f"{len(requests)} requests, expected {config['num_requests']}")
    for r in requests:
        if r.state not in LIVE_STATES + FINAL_STATES:
            errors.append(f"request {r.id} in unknown state {r.state!r}")
        elif r.state == "done":
            if not (r.src_keys == r.dst_keys and len(r.src_keys) == key_num):
                errors.append(f"request {r.id}: src and dst keys differ")
            if r.completed_ps is None or r.completed_ps < r.issued_ps:
                errors.append(f"request {r.id}: completion before issue")
        elif r.completed_ps is not None:
            errors.append(f"request {r.id} is {r.state} but has a completion time")
    with open(out_dir / "pools.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        errors.append("pools.csv is empty")
    for row in rows:
        generated, delivered, volume = (int(row[k]) for k in
                                        ("generated", "delivered", "final_Vc"))
        if generated - delivered != volume:
            errors.append(f"pool {row['node']}~{row['peer']}: generated - delivered "
                          f"= {generated - delivered} != final_Vc {volume}")
    trace_path = out_dir / "trace.log"
    with open(trace_path, "rb") as f:
        events = sum(1 for _ in f)
    done = [r for r in requests if r.state == "done"]
    model = {
        "events": events,
        "requests_done": len(done),
        "requests_open": sum(1 for r in requests if r.state in LIVE_STATES),
        "latencies_ms": sorted((r.completed_ps - r.issued_ps) / 1e9 for r in done),
        "trace_bytes": trace_path.stat().st_size,
        "digest": _digest(((out_dir / "results.csv").read_bytes(),
                           (out_dir / "pools.csv").read_bytes())),
    }
    return Outcome(not errors, "; ".join(errors[:3]), model)


def _keypool_batch(rng):
    return [_scenario_job("keypool", KEYPOOL_CONFIG, _derived_seed(rng))
            for _ in range(KEYPOOL_JOBS)]


def _keychain_batch(rng):
    return [_scenario_job("keychain", KEYCHAIN_CONFIG, _derived_seed(rng))
            for _ in range(KEYCHAIN_JOBS)]


# ---- circuits: narrow quantum jobs with many shots -------------------------

def relay_script(hops, theta):
    """Teleport ry(theta)|0> from n0 to n<hops>, one hop at a time.

    At each hop the receiver makes a Bell pair, sends one half back, and
    the holder Bell-measures the data qubit against it and sends both
    outcomes on.  Eleven operations per hop, plus the preparation.
    """
    nodes = [f"n{i}" for i in range(hops + 1)]
    script = [LocalOp(nodes[0], "ry", 0, params=(theta,))]
    data = 0  # address of the data qubit at its holder
    for src, dst in zip(nodes, nodes[1:]):
        pair = 1 - data  # first empty unit of the holder
        script += [
            LocalOp(dst, "h", 0),
            LocalOp(dst, "cnot", (0, 1)),
            Transmit(dst, src, 0),
            LocalOp(src, "cnot", (data, pair)),
            LocalOp(src, "h", data),
            LocalOp(src, "measure", data),
            LocalOp(src, "measure", pair),
            ClassicalSend(src, dst, (src, data)),
            ClassicalSend(src, dst, (src, pair)),
            LocalOp(dst, "x", 1, cond=(src, pair)),
            LocalOp(dst, "z", 1, cond=(src, data)),
        ]
        data = 1
    return script, nodes


def _ghz_job(n, shots, seed):
    circ = Circuit().add("h", 0)
    for q in range(n - 1):
        circ.add("cnot", (q, q + 1))
    for q in range(n):
        circ.add("measure", q)

    def run(_out_dir):
        return simulator.run_circuit(circ, shots, seed=seed)

    def outcome(hist, _out_dir):
        zeros, ones = hist.get("0" * n, 0), hist.get("1" * n, 0)
        stray = sum(hist.values()) - zeros - ones
        dev = abs(zeros / shots - 0.5)
        ok = stray == 0 and zeros + ones == shots and dev <= hoeffding(shots)
        return Outcome(ok, f"GHZ-{n}: {stray} stray outcomes, |p0-1/2|={dev:.3f}",
                       {"digest": _digest(_sorted_counts(hist))})

    return Job("ghz", run, outcome, {"shots": shots})


def _teleport_job(hops, theta, shots, seed):
    script, nodes = relay_script(hops, theta)

    def run(_out_dir):
        circ = compiler.compile_protocol(script, nodes)
        hist = simulator.run_circuit(circ, shots, seed=seed)
        deferred = compiler.defer_measurements(circ)
        return hist, deferred, simulator.exact_state(deferred)

    def outcome(result, _out_dir):
        hist, deferred, branches = result
        target = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        regs = deferred.measured_regs
        worst = 1.0
        for bits, (_p, state) in branches.items():
            psi = state.amps.reshape((2,) * state.n)
            index = [slice(None)] * state.n
            for reg, bit in zip(regs, bits):
                index[state.n - 1 - reg] = int(bit)
            bob = psi[tuple(index)].reshape(-1)
            bob = bob / np.linalg.norm(bob)
            worst = min(worst, abs(np.vdot(target, bob)) ** 2)
        probs = {k: p for k, (p, _s) in branches.items()}
        dist = tvd(hist, probs)
        ok = (simulator.is_standard(deferred) and worst >= 1 - 1e-10
              and abs(sum(probs.values()) - 1) < 1e-9
              and dist <= tvd_bound(probs, shots))
        return Outcome(ok, f"teleport x{hops}: fidelity {worst:.12f}, TVD {dist:.3f}",
                       {"ops": len(script), "digest": _digest(_sorted_counts(hist))})

    return Job("teleport", run, outcome, {"shots": shots})


def random_dynamic_circuit(rng, width, measures):
    """Random gates with up to `measures` mid-circuit measurements, some
    later gates conditioned on them; unmeasured registers stay open."""
    circ = Circuit()
    measured = []
    gates_1q = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz"]
    free = list(range(width))
    for _ in range(14):
        kind = rng.random()
        if kind < 0.25 and len(measured) < measures and len(free) > 1:
            q = int(rng.choice(free))
            circ.add("measure", q)
            free.remove(q)
            measured.append(q)
        elif kind < 0.6:
            name = gates_1q[int(rng.integers(len(gates_1q)))]
            q = int(rng.choice(free))
            params = ((float(rng.uniform(0, 2 * np.pi)),)
                      if name in ("rx", "ry", "rz") else None)
            deferrable = name in ("x", "y", "z", "rx", "ry", "rz")
            cond = (int(rng.choice(measured))
                    if deferrable and measured and rng.random() < 0.5 else None)
            circ.add(name, q, params=params, cond=cond)
        elif len(free) >= 2:
            a, b = rng.choice(free, size=2, replace=False)
            circ.add("cnot", (int(a), int(b)))
    if not measured:
        circ.add("measure", int(rng.choice(free)))
    return circ


def _dynamic_job(circ, shots, seed):
    def run(_out_dir):
        hist = simulator.run_circuit(circ, shots, seed=seed)
        deferred = compiler.defer_measurements(circ)
        return hist, simulator.exact_state(deferred)

    def outcome(result, _out_dir):
        hist, branches = result
        probs = {k: p for k, (p, _s) in branches.items()}
        dist = tvd(hist, probs)
        ok = (abs(sum(probs.values()) - 1) < 1e-9 and set(hist) <= set(probs)
              and dist <= tvd_bound(probs, shots))
        return Outcome(ok, f"dynamic width {circ.width}: TVD {dist:.3f}",
                       {"digest": _digest(_sorted_counts(hist))})

    return Job("dynamic", run, outcome, {"shots": shots})


def _pattern_job(kind, graph, order, specs, shots, seed, max_tvd=None):
    """sample_pattern against dense_oracle.  `max_tvd` fixes the bound;
    without it the bound follows from the oracle and the shot count."""
    def run(_out_dir):
        counts = engine.sample_pattern(graph, order, specs, shots,
                                       np.random.default_rng(seed))
        return counts, engine.dense_oracle(graph, specs, order)

    def outcome(result, _out_dir):
        counts, oracle = result
        dist = tvd(counts, oracle)
        bound = max_tvd if max_tvd is not None else tvd_bound(oracle, shots)
        ok = (sum(counts.values()) == shots and abs(sum(oracle.values()) - 1) < 1e-9
              and dist <= bound)
        return Outcome(ok, f"{kind} {len(graph)} vertices: TVD {dist:.4f} (<= {bound:.4f})",
                       {"branches": len(counts), "digest": _digest(_sorted_counts(counts))})

    return Job(kind, run, outcome, {"shots": shots})


def _xy_specs(rng, n):
    return {v: MeasurementSpec(v, "XY", float(rng.uniform(0, 2 * np.pi))) for v in range(n)}


def _random_pattern(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    order = [int(v) for v in rng.permutation(n)]
    return ResourceGraph(list(range(n)), edges), order, _xy_specs(rng, n)


def _chain_pattern(rng, n):
    edges = [(i, i + 1) for i in range(n - 1)]
    return ResourceGraph(list(range(n)), edges), list(range(n)), _xy_specs(rng, n)


def _run_pattern_job(graph, order, specs, shots, seed):
    """Per-shot run_pattern on a chain.  Every vertex but the last has a
    live neighbour when measured, so its outcome is a fair coin.

    The chain is short: `StateVector.project` renormalises by
    1 - p(other outcome), so the state's norm error doubles at every fair
    measurement.  It passes NORM_TOL (1e-10) after about 20 of them and
    reaches 1 after about 60, from where every outcome reads 0; see
    test_known_defects.py."""
    def run(_out_dir):
        rng = np.random.default_rng(seed)
        return [engine.run_pattern(graph, order, specs, rng) for _ in range(shots)]

    def outcome(runs, _out_dir):
        coins = [shot[v] for shot in runs for v in order[:-1]]
        dev = abs(sum(coins) / len(coins) - 0.5)
        ok = all(set(shot) == set(order) for shot in runs) and dev <= hoeffding(len(coins))
        return Outcome(ok, f"run_pattern chain {len(graph)}: |mean-1/2|={dev:.4f}",
                       {"digest": _digest([[shot[v] for v in order] for shot in runs])})

    return Job("run_pattern", run, outcome, {"shots": shots})


def _relay_compile_job(hops, theta):
    script, nodes = relay_script(hops, theta)
    local_ops = sum(isinstance(op, LocalOp) for op in script)

    def run(_out_dir):
        return compiler.defer_measurements(compiler.compile_protocol(script, nodes))

    def outcome(deferred, _out_dir):
        ok = (simulator.is_standard(deferred) and len(deferred) == local_ops
              and len(deferred.measured_regs) == 2 * hops)
        return Outcome(ok, f"relay of {len(script)} ops: standard={ok}",
                       {"ops": len(script), "digest": _digest(deferred.to_json())})

    return Job("relay", run, outcome, {})


def _circuits_batch(rng):
    # Sizes are stratified (each hop count, width and vertex count once)
    # and only the rest is random, so the batch's cost varies little
    # between workload seeds.
    jobs = [_ghz_job(12, 1000, _derived_seed(rng))]
    for hops in (1, 2, 1, 2):
        jobs.append(_teleport_job(hops, float(rng.uniform(0, 2 * np.pi)),
                                  256, _derived_seed(rng)))
    for width in range(3, 9):
        circ = random_dynamic_circuit(rng, width, 3)
        jobs.append(_dynamic_job(circ, 400, _derived_seed(rng)))
    for n in range(3, 8):
        jobs.append(_pattern_job("pattern", *_random_pattern(rng, n),
                                 100_000, _derived_seed(rng), max_tvd=0.02))
    chain = _chain_pattern(rng, 12)
    jobs.append(_pattern_job("chain12", *chain, 100_000, _derived_seed(rng)))
    jobs.append(_run_pattern_job(*chain, 300, _derived_seed(rng)))
    jobs.append(_relay_compile_job(218, float(rng.uniform(0, 2 * np.pi))))
    return jobs


# ---- wide: one 20-qubit circuit ----------------------------------------------

def wide_circuit(rng, n=WIDE_QUBITS, layers=WIDE_LAYERS):
    """A layered h/rz/cnot block U, then U^-1, then h rz(phi) h on three
    tail qubits and nothing on a fourth, then the four tail measurements.

    U U^-1 is the identity, so the exact outcome law is known without
    simulation: tail qubit q reads 1 with probability sin^2(phi_q / 2),
    and the fourth always reads 0.  Returns (circuit, reference
    probabilities keyed like exact_state).
    """
    block = []
    for _ in range(layers):
        for q in rng.choice(n, size=4, replace=False):
            block.append(("rz", (int(q),), float(rng.uniform(0, 2 * np.pi))))
        for q in rng.choice(n, size=4, replace=False):
            block.append(("h", (int(q),), None))
        pairs = rng.choice(n, size=8, replace=False)
        for a, b in zip(pairs[::2], pairs[1::2]):
            block.append(("cnot", (int(a), int(b)), None))
    inverse = [(name, regs, -angle if angle is not None else None)
               for name, regs, angle in reversed(block)]
    circ = Circuit()
    for name, regs, angle in block + inverse:
        circ.add(name, regs, params=(angle,) if angle is not None else None)
    tail = [int(q) for q in rng.choice(n, size=4, replace=False)]
    p_one = {tail[-1]: 0.0}
    for q in tail[:-1]:
        phi = float(rng.uniform(0.3 * np.pi, 0.7 * np.pi))
        circ.add("h", q).add("rz", q, params=(phi,)).add("h", q)
        p_one[q] = math.sin(phi / 2) ** 2
    for q in rng.permutation(tail):
        circ.add("measure", int(q))
    regs = sorted(p_one)
    reference = {}
    for bits in range(2 ** len(regs)):
        key = "".join(str((bits >> i) & 1) for i in range(len(regs)))
        p = math.prod(p_one[r] if b == "1" else 1 - p_one[r] for r, b in zip(regs, key))
        if p > 0:
            reference[key] = p
    return circ, reference


def _wide_batch(rng):
    circ, reference = wide_circuit(rng)
    gates = sum(inst.name != "measure" for inst in circ)

    def run_exact(_out_dir):
        return simulator.exact_state(circ)

    def check_exact(branches, _out_dir):
        probs = {k: p for k, (p, _s) in branches.items()}
        worst = max(abs(probs.get(k, 0.0) - reference.get(k, 0.0))
                    for k in set(probs) | set(reference))
        ok = worst <= 1e-9 and abs(sum(probs.values()) - 1) <= 1e-9
        return Outcome(ok, f"exact_state: max |p - ref| = {worst:.2e}",
                       {"digest": _digest(sorted(probs.items()))})

    seed = _derived_seed(rng)

    def run_shots(_out_dir):
        return simulator.run_circuit(circ, WIDE_SHOTS, seed=seed)

    def check_shots(hist, _out_dir):
        ok = sum(hist.values()) == WIDE_SHOTS and set(hist) <= set(reference)
        return Outcome(ok, f"run_circuit outcomes {sorted(hist)} in the support",
                       {"digest": _digest(_sorted_counts(hist))})

    return [Job("exact", run_exact, check_exact, {"gates": gates}),
            Job("shots", run_shots, check_shots, {"gates": gates * WIDE_SHOTS})]


_FAMILIES = {"keypool": _keypool_batch, "keychain": _keychain_batch,
             "circuits": _circuits_batch, "wide": _wide_batch}
