"""Runnable scenarios: one environment per run, CSV results, a trace.

Every scenario draws all randomness from streams derived from the
environment seed, so a fixed (config, seed) pair reproduces byte-equal
result files and event traces.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from pathlib import Path

import numpy as np

from . import __version__
from .des import SimEnv
from .netmodel.channel import (QuantumFiberChannel, loss_interpolator,
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


def _number(low=-math.inf, high=math.inf, whole=False):
    """Converter to a finite number in [low, high], an int if `whole`
    (4e11 passes, 2.5 and True fail)."""
    def convert(value):
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and (isinstance(value, numbers.Integral) or math.isfinite(value))
                and low <= value <= high and not (whole and value != int(value))):
            return int(value) if whole else float(value)
        raise ValueError(f"must be {'a whole' if whole else 'a finite'} number "
                         f"in [{low}, {high}], got {value!r}")
    return convert


def _choice(*options):
    """Converter that passes one of `options`, type included (1 is not True)."""
    def convert(value):
        if any(type(value) is type(option) and value == option for option in options):
            return value
        raise ValueError(f"must be one of {list(options)}, got {value!r}")
    return convert


def _window(value):
    """An ordered [start, end] window of whole ps, <= 2**53 (exact floats)."""
    start, end = map(_number(0, 2**53, whole=True), value)
    if not start < end:
        raise ValueError(f"start must precede end, got {value!r}")
    return start, end


def _loss_table(rows):
    """A [[distance km, loss dB], ...] table of numbers >= 0 that
    `loss_interpolator` accepts."""
    table = [tuple(map(_number(0), row)) for row in rows]
    loss_interpolator(table)
    return table


def _device(cls):
    """Converter to keyword arguments that `cls`'s constructor accepts."""
    def convert(kwargs):
        cls(cls.__name__, env=SimEnv("check"), **kwargs)
        return kwargs
    return convert


def _write_csv(path, header, rows):
    # made by the first write, so a run that fails before it leaves no directory
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


# ---- CHSH ----------------------------------------------------------------

def run_chsh(settings, env, out_dir):
    strategy = settings["strategy"]
    if strategy == "classical-optimal" and settings["exhaustive"]:
        win_rate = classical_win_rate_exhaustive()
        rows = [[strategy, 4, int(win_rate * 4), win_rate]]
    else:
        result = chsh_play(strategy, settings["rounds"], rng=env.rng_for("chsh"))
        win_rate = result.win_rate
        rows = [[strategy, result.rounds, result.wins, f"{win_rate:.6f}"]]
    _write_csv(out_dir / "results.csv",
               ["strategy", "rounds", "wins", "win_rate"], rows)
    return {"primary": win_rate, "win_rate": win_rate}


# ---- BB84 over fiber -----------------------------------------------------

def run_bb84(settings, env, out_dir):
    distance_km = settings["distance_km"]
    network = Network("bb84net", env=env)
    alice = Node("alice", env=env)
    bob = Node("bob", env=env)
    alice.install_device(PhotonSource("alice.source", env=env, **settings["source"]))
    bob.install_device(PolarizationDetector("bob.detector", env=env,
                                            **settings["detector"]))
    network.install_node(alice)
    network.install_node(bob)
    link = Link("alice-bob", ends=(alice, bob), env=env)
    network.install_link(link)
    link.install_channel(QuantumFiberChannel("q:a->b", alice, bob,
                                             distance_km, env=env))
    result = bb84_generate(alice, bob, settings["pulses"], rng=env.rng_for("bb84"))
    _write_csv(out_dir / "results.csv",
               ["pulses", "detections", "detection_rate", "sifted", "qber"],
               [[result.pulses, result.detections,
                 f"{result.detection_rate:.6f}", result.sifted_length,
                 f"{result.qber:.6f}"]])
    return {"primary": result.detection_rate,
            "detection_rate": result.detection_rate,
            "sifted": result.sifted_length, "qber": result.qber}


# ---- key-pool architecture -----------------------------------------------

def run_keypool(settings, env, out_dir):
    end_time = settings["end_time_ps"]
    extra = _extra_endnodes(settings["extra_endnodes"], settings["n_repeaters"])
    network, endnodes = build_chain_network(env, n_repeaters=settings["n_repeaters"],
                                            extra_endnodes=extra,
                                            distance_km=settings["distance_km"])
    kdn = KeyDistributionNetwork(network, endnodes, pool_capacity=settings["capacity"],
                                 key_length=settings["key_length"],
                                 keygen_rate=settings["keygen_rate"])
    env.init()
    kdn.start()

    workload_rng = env.rng_for("workload")
    requests = []
    for rid in range(settings["num_requests"]):
        src, dst = workload_rng.choice(endnodes, size=2, replace=False)
        t = int(workload_rng.integers(0, int(end_time * 0.8)))
        request = KeyRequest(id=rid, src=str(src), dst=str(dst),
                             key_num=settings["key_num"])
        requests.append(request)
        kdn.schedule_request(t, request)

    env.run(end_time=end_time)

    processed = sum(1 for r in requests if r.state == "done")
    _write_csv(out_dir / "results.csv",
               ["id", "src", "dst", "issued_ps", "completed_ps", "status"],
               [[r.id, r.src, r.dst, r.issued_ps,
                 r.completed_ps if r.completed_ps is not None else "",
                 r.state] for r in requests])
    _write_csv(out_dir / "pools.csv",
               ["node", "peer", "generated", "delivered", "final_Vc"],
               [[*sorted(key), pool.generated, pool.delivered, pool.v_current]
                for key, pool in sorted(kdn.pools.items(), key=lambda kv: sorted(kv[0]))])
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
                and isinstance(entry[0], str) and type(entry[1]) is int):
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

def run_satellite(settings, env, out_dir):
    window = t0, t1 = settings["window_ps"]
    mobility = Mobility(triangular_trajectory(t0, t1, settings["min_km"],
                                              settings["max_km"]),
                        window, settings["loss_table"])
    rng = env.rng_for("satellite")

    edges = np.linspace(t0, t1, settings["bins"] + 1)
    centers = ((edges[:-1] + edges[1:]) / 2).astype(np.int64)
    rows = []
    sifted_counts = []
    distances = []
    for t in centers:  # all inside the window, where the link is up
        distance, loss = mobility.satellite_pass(int(t))
        p_click = survival_probability(loss) * settings["efficiency"]
        clicks = rng.binomial(settings["pulses_per_bin"], p_click)
        sifted = rng.binomial(clicks, 0.5)  # basis reconciliation keeps half
        rows.append([int(t), f"{distance:.3f}", f"{loss:.3f}", clicks, sifted])
        distances.append(distance)
        sifted_counts.append(sifted)

    _write_csv(out_dir / "results.csv",
               ["time_ps", "distance_km", "loss_db", "clicks", "sifted"], rows)
    # a constant series (e.g. bins = 2, efficiency = 0) has no correlation
    corr = (float(np.corrcoef(distances, sifted_counts)[0, 1])
            if len(set(distances)) > 1 and len(set(sifted_counts)) > 1 else None)
    return {"primary": int(np.sum(sifted_counts)),
            "total_sifted": int(np.sum(sifted_counts)),
            "distance_sifted_correlation": corr,
            "sifted_series": sifted_counts, "distance_series": distances}


# config keys of every scenario besides "scenario": the CLI's overrides
_COMMON_KEYS = {
    "seed": (0, _number(0, whole=True)),
    "log_level": ("INFO", _choice("DEBUG", "INFO", "WARN")),  # names logging knows
}
# scenario -> (runner, {config key: (default, convert)})
_SCENARIOS = {
    "chsh": (run_chsh, {
        "strategy": ("quantum-optimal", _choice("quantum-optimal", "classical-optimal")),
        "rounds": (100_000, _number(1, whole=True)),
        "exhaustive": (False, _choice(False, True))}),
    "bb84": (run_bb84, {
        "distance_km": (50.0, _number(0)),
        "pulses": (100_000, _number(1, whole=True)),
        "source": ({"frequency": 1e6, "exact_photon_number": 1}, _device(PhotonSource)),
        "detector": ({"efficiency": 1.0, "dark_count_rate": 0.0},
                     _device(PolarizationDetector))}),
    "keypool": (run_keypool, {
        "capacity": (40, _number(1, whole=True)),
        "num_requests": (8, _number(0, whole=True)),
        "key_num": (10, _number(1, whole=True)),
        "key_length": (32, _number(1, whole=True)),
        # 0.2 s; requests are issued in [0, 0.8 end time), which must hold 1 ps
        "end_time_ps": (200_000_000_000, _number(2, whole=True)),
        "keygen_rate": (20.0, lambda rate:  # keygen_interval_ps checks the rate
                        keygen_interval_ps(_number()(rate)) and float(rate)),
        "n_repeaters": (2, _number(0, whole=True)),
        "extra_endnodes": ([["C", 0], ["D", 1]], list),  # see _extra_endnodes
        "distance_km": (1.0, _number(0))}),
    "satellite": (run_satellite, {
        "window_ps": ([0, 300_000_000_000], _window),  # 0.3 s
        "min_km": (500.0, _number(0)),
        "max_km": (1400.0, _number(0)),
        "loss_table": ([[500.0, 13.0], [800.0, 15.5], [1100.0, 18.0], [1400.0, 20.5]],
                       _loss_table),
        "bins": (41, _number(2, whole=True)),  # a correlation needs two points
        "pulses_per_bin": (200_000, _number(0, whole=True)),
        "efficiency": (0.5, _number(0, 1))}),
}


def resolve(config):
    """(runner, settings) of a config: every common and scenario key,
    converted, else ScenarioError naming the scenario or the key."""
    kind = config.get("scenario")
    if not isinstance(kind, str) or kind not in _SCENARIOS:
        raise ScenarioError(f"unknown scenario {kind!r}; "
                            f"choose from {sorted(_SCENARIOS)}")
    run, table = _SCENARIOS[kind]
    table = {**_COMMON_KEYS, **table}
    unknown = sorted(set(config) - set(table) - {"scenario"})
    if unknown:
        raise ScenarioError(f"unknown {kind} config key(s) {unknown}; "
                            f"choose from {sorted(set(table) | {'scenario'})}")
    settings = {}
    for key, (default, convert) in table.items():
        try:
            settings[key] = convert(config.get(key, default))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"config key {key!r}: {exc}") from None
    return run, settings


def run_scenario(config, seed, out_dir):
    """Run a config's scenario on a fresh environment and write its files:
    the runner's results, then `trace.log` and `manifest.json`."""
    return run_resolved(config, *resolve(config), seed, out_dir)


def run_resolved(config, run, settings, seed, out_dir):
    """`run_scenario` of a config that `resolve` turned into (run, settings)."""
    env = SimEnv(config["scenario"], seed=seed)
    out_dir = Path(out_dir)
    metrics = run(settings, env, out_dir)
    with open(out_dir / "trace.log", "w") as f:
        f.writelines(f"{time}\t{priority}\t{seq}\t{handler}\n"
                     for time, priority, seq, handler in env.trace)
    blob = json.dumps(config, sort_keys=True).encode()
    manifest = {"config_sha256": hashlib.sha256(blob).hexdigest(), "seed": seed,
                "qnetsim_version": __version__}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return metrics
