"""Runnable scenarios: build an environment, run it, emit CSV results.

Every scenario draws all randomness from streams derived from the
environment seed, so a fixed (config, seed) pair reproduces byte-equal
result files and event traces.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .des import SimEnv
from .netmodel.channel import (ClassicalFiberChannel, QuantumFiberChannel,
                               survival_probability)
from .netmodel.devices import PhotonSource, PolarizationDetector
from .netmodel.mobility import Mobility, triangular_trajectory
from .netmodel.network import Link, Network, Node
from .protocols.bb84 import bb84_generate
from .protocols.chsh import chsh_play, classical_win_rate_exhaustive
from .protocols.qkd_network import (KeyDistributionNetwork, KeyRequest,
                                    build_chain_network, keygen_interval_ps)


class ScenarioError(ValueError):
    pass


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_trace(env, path):
    with open(path, "w") as f:
        f.writelines(f"{time}\t{priority}\t{seq}\t{handler}\n"
                     for time, priority, seq, handler in env.trace)


def write_manifest(out_dir, config, seed):
    blob = json.dumps(config, sort_keys=True).encode()
    manifest = {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "qnetsim_version": __version__,
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


# ---- CHSH ----------------------------------------------------------------

def run_chsh(config, seed, out_dir):
    strategy = config.get("strategy", "quantum-optimal")
    rounds = int(config.get("rounds", 100_000))
    env = SimEnv("chsh", seed=seed)
    if strategy == "classical-optimal" and config.get("exhaustive", False):
        win_rate = classical_win_rate_exhaustive()
        rows = [[strategy, 4, int(win_rate * 4), win_rate]]
    else:
        result = chsh_play(strategy, rounds, rng=env.rng_for("chsh"))
        win_rate = result.win_rate
        rows = [[strategy, result.rounds, result.wins, f"{win_rate:.6f}"]]
    _write_csv(Path(out_dir) / "results.csv",
               ["strategy", "rounds", "wins", "win_rate"], rows)
    _write_trace(env, Path(out_dir) / "trace.log")
    return {"primary": win_rate, "win_rate": win_rate}


# ---- BB84 over fiber -----------------------------------------------------

def _two_qkd_nodes(env, distance_km, source_cfg, detector_cfg):
    network = Network("bb84net", env=env)
    alice = Node("alice", env=env)
    bob = Node("bob", env=env)
    alice.install_device(PhotonSource("alice.source", env=env, **source_cfg))
    bob.install_device(PolarizationDetector("bob.detector", env=env, **detector_cfg))
    network.install_node(alice)
    network.install_node(bob)
    link = Link("alice-bob", ends=(alice, bob), env=env)
    network.install_link(link)
    link.install_channel(ClassicalFiberChannel("c:a->b", alice, bob,
                                               distance_km, env=env))
    link.install_channel(ClassicalFiberChannel("c:b->a", bob, alice,
                                               distance_km, env=env))
    link.install_channel(QuantumFiberChannel("q:a->b", alice, bob,
                                             distance_km, env=env))
    return network, alice, bob


def run_bb84(config, seed, out_dir):
    distance = float(config.get("distance_km", 50.0))
    pulses = int(config.get("pulses", 100_000))
    source_cfg = config.get("source", {"frequency": 1e6, "exact_photon_number": 1})
    detector_cfg = config.get("detector", {"efficiency": 1.0, "dark_count_rate": 0.0})
    env = SimEnv("bb84", seed=seed)
    _network, alice, bob = _two_qkd_nodes(env, distance, source_cfg, detector_cfg)
    env.init()
    result = bb84_generate(alice, bob, pulses, rng=env.rng_for("bb84"))
    env.run()
    _write_csv(Path(out_dir) / "results.csv",
               ["pulses", "detections", "detection_rate", "sifted", "qber"],
               [[result.pulses, result.detections,
                 f"{result.detection_rate:.6f}", result.sifted_length,
                 f"{result.qber:.6f}"]])
    _write_trace(env, Path(out_dir) / "trace.log")
    return {"primary": result.detection_rate,
            "detection_rate": result.detection_rate,
            "sifted": result.sifted_length, "qber": result.qber}


# ---- key-pool architecture -----------------------------------------------

def run_keypool(config, seed, out_dir):
    capacity = int(config.get("capacity", 40))
    num_requests = int(config.get("num_requests", 8))
    key_num = int(config.get("key_num", 10))
    key_length = int(config.get("key_length", 32))
    end_time = int(config.get("end_time_ps", 200_000_000_000))  # 0.2 s
    keygen_rate = float(config.get("keygen_rate", 20.0))
    n_repeaters = int(config.get("n_repeaters", 2))
    if n_repeaters < 0:
        raise ScenarioError(f"n_repeaters must not be negative, got {n_repeaters}")
    extra = _extra_endnodes(config.get("extra_endnodes", [["C", 0], ["D", 1]]),
                            n_repeaters)
    distance = float(config.get("distance_km", 1.0))
    if capacity <= 0:
        raise ScenarioError(f"capacity must be positive, got {capacity}")
    try:
        keygen_interval_ps(keygen_rate)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    env = SimEnv("keypool", seed=seed)
    network, endnodes = build_chain_network(env, n_repeaters=n_repeaters,
                                            extra_endnodes=extra,
                                            distance_km=distance)
    kdn = KeyDistributionNetwork(network, endnodes, pool_capacity=capacity,
                                 key_length=key_length,
                                 keygen_rate=keygen_rate)
    env.init()
    kdn.start()

    workload_rng = env.rng_for("workload")
    requests = []
    for rid in range(num_requests):
        src, dst = workload_rng.choice(endnodes, size=2, replace=False)
        t = int(workload_rng.integers(0, int(end_time * 0.8)))
        request = KeyRequest(id=rid, src=str(src), dst=str(dst),
                             key_num=key_num, key_length=key_length)
        requests.append(request)
        kdn.schedule_request(t, request)

    env.run(end_time=end_time)

    processed = sum(1 for r in requests if r.state == "done")
    _write_csv(Path(out_dir) / "results.csv",
               ["id", "src", "dst", "issued_ps", "completed_ps", "status"],
               [[r.id, r.src, r.dst, r.issued_ps,
                 r.completed_ps if r.completed_ps is not None else "",
                 r.state] for r in requests])
    _write_csv(Path(out_dir) / "pools.csv",
               ["node", "peer", "generated", "delivered", "final_Vc"],
               [[*sorted(key), pool.generated, pool.delivered, pool.v_current]
                for key, pool in sorted(kdn.pools.items(), key=lambda kv: sorted(kv[0]))])
    _write_trace(env, Path(out_dir) / "trace.log")
    agree = all(r.src_keys == r.dst_keys for r in requests if r.state == "done")
    return {"primary": processed, "processed_requests": processed,
            "keys_agree": agree, "requests": requests}


def _extra_endnodes(entries, n_repeaters):
    """The (name, repeater index) pairs of the endnodes hung off the chain
    A - R1 - ... - Rn - B, each checked against the chain."""
    names = {"A", "B", *(f"R{i + 1}" for i in range(n_repeaters))}
    extra = []
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], int)):
            raise ScenarioError("extra_endnodes entries must be [name, repeater index] "
                                f"pairs, got {entry!r}")
        name, index = entry
        if not 0 <= index < n_repeaters:
            raise ScenarioError(f"extra_endnodes index {index} of {name!r} must satisfy "
                                f"0 <= index < n_repeaters = {n_repeaters}")
        if name in names:
            raise ScenarioError(f"extra_endnodes name {name!r} is already in the chain")
        names.add(name)
        extra.append((name, index))
    return extra


# ---- satellite pass ------------------------------------------------------

def run_satellite(config, seed, out_dir):
    window = tuple(config.get("window_ps", [0, 300_000_000_000]))  # 0.3 s
    min_km = float(config.get("min_km", 500.0))
    max_km = float(config.get("max_km", 1400.0))
    loss_table = [tuple(row) for row in config.get(
        "loss_table", [[500.0, 13.0], [800.0, 15.5], [1100.0, 18.0],
                       [1400.0, 20.5]])]
    bins = int(config.get("bins", 41))
    pulses_per_bin = int(config.get("pulses_per_bin", 200_000))
    efficiency = float(config.get("efficiency", 0.5))

    env = SimEnv("satellite", seed=seed)
    mobility = Mobility(triangular_trajectory(window[0], window[1],
                                              min_km, max_km),
                        window, loss_table)
    rng = env.rng_for("satellite")

    t0, t1 = window
    edges = np.linspace(t0, t1, bins + 1)
    centers = ((edges[:-1] + edges[1:]) / 2).astype(np.int64)
    rows = []
    sifted_counts = []
    distances = []
    for t in centers:
        link = mobility.satellite_pass(int(t))
        if link is None:
            continue
        distance, loss = link
        p_click = survival_probability(loss) * efficiency
        clicks = rng.binomial(pulses_per_bin, p_click)
        sifted = rng.binomial(clicks, 0.5)  # basis reconciliation keeps half
        rows.append([int(t), f"{distance:.3f}", f"{loss:.3f}", clicks, sifted])
        distances.append(distance)
        sifted_counts.append(sifted)

    _write_csv(Path(out_dir) / "results.csv",
               ["time_ps", "distance_km", "loss_db", "clicks", "sifted"], rows)
    _write_trace(env, Path(out_dir) / "trace.log")
    corr = float(np.corrcoef(distances, sifted_counts)[0, 1])
    return {"primary": int(np.sum(sifted_counts)),
            "total_sifted": int(np.sum(sifted_counts)),
            "distance_sifted_correlation": corr,
            "sifted_series": sifted_counts, "distance_series": distances}


# scenario -> (runner, the config keys it reads); "scenario", "seed" and
# "log_level" (the CLI's overrides) are valid in every config
_COMMON_KEYS = {"scenario", "seed", "log_level"}
_SCENARIOS = {
    "chsh": (run_chsh, {"strategy", "rounds", "exhaustive"}),
    "bb84": (run_bb84, {"distance_km", "pulses", "source", "detector"}),
    "keypool": (run_keypool, {"capacity", "num_requests", "key_num", "key_length",
                              "end_time_ps", "keygen_rate", "n_repeaters",
                              "extra_endnodes", "distance_km"}),
    "satellite": (run_satellite, {"window_ps", "min_km", "max_km", "loss_table",
                                  "bins", "pulses_per_bin", "efficiency"}),
}


def run_scenario(config, seed, out_dir):
    kind = config.get("scenario")
    if kind not in _SCENARIOS:
        raise ScenarioError(f"unknown scenario {kind!r}; "
                            f"choose from {sorted(_SCENARIOS)}")
    run, keys = _SCENARIOS[kind]
    unknown = sorted(set(config) - keys - _COMMON_KEYS)
    if unknown:
        raise ScenarioError(f"unknown {kind} config key(s) {unknown}; "
                            f"choose from {sorted(keys | _COMMON_KEYS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = run(config, seed, out_dir)
    write_manifest(out_dir, config, seed)
    return metrics
