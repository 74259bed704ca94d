"""CLI contract: subcommands, exit codes, reproducibility, aggregation."""

import contextlib
import csv
import inspect
import io
import json
import logging
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from qnetsim import scenarios
from qnetsim.cli import main, parse_time_ps
from qnetsim.netmodel.devices import PhotonSource, PolarizationDetector
from qnetsim.scenarios import _COMMON_KEYS, _SCENARIOS
from qnetsim.compiler import (ClassicalSend, LocalOp, Transmit, dump_script)
from qnetsim.backend import Circuit, is_standard


# ---- duration parsing -----------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("0.5s", 500_000_000_000),
    ("500ms", 500_000_000_000),
    ("5e11ps", 500_000_000_000),
    ("250ns", 250_000),
    ("3us", 3_000_000),
    ("42", 42),
])
def test_parse_time(text, expected):
    assert parse_time_ps(text) == expected


def test_parse_time_rejects_garbage():
    with pytest.raises(ValueError):
        parse_time_ps("soon")


@pytest.mark.parametrize("text", ["-1s", "-5ps", "-1e-3ms", -7])
def test_parse_time_rejects_negative_durations(text):
    with pytest.raises(ValueError, match="negative"):
        parse_time_ps(text)


# ---- run ------------------------------------------------------------------

def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_run_chsh_writes_results(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"scenario": "chsh", "rounds": 20000,
                                   "seed": 7})
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    rows = _csv_rows(tmp_path / "out" / "results.csv")
    assert rows[0] == ["strategy", "rounds", "wins", "win_rate"]
    assert abs(float(rows[1][3]) - 0.8536) < 0.02
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_run_converts_a_bb84_config_once(tmp_path, capsys, monkeypatch):
    """Each device key builds its one throwaway check device, on one
    SimEnv("check"), per run."""
    checks = []
    sim_env = scenarios.SimEnv

    def counting_env(name, *args, **kwargs):
        checks.append(name)
        return sim_env(name, *args, **kwargs)

    monkeypatch.setattr(scenarios, "SimEnv", counting_env)
    cfg = _write_config(tmp_path, {"scenario": "bb84", "pulses": 200})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert checks == ["check", "check", "bb84"]  # source, detector, then the run


def test_run_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_run_unknown_scenario_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"scenario": "marsnet"})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2


def test_run_seed_override_and_determinism(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": "keypool", "seed": 3,
                                   "capacity": 40})
    for sub in ("o1", "o2"):
        assert main(["run", "--config", cfg,
                     "--out-dir", str(tmp_path / sub)]) == 0
    for name in ("results.csv", "pools.csv", "trace.log"):
        assert (tmp_path / "o1" / name).read_bytes() == \
            (tmp_path / "o2" / name).read_bytes()


def test_run_end_time_override(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": "keypool", "seed": 3})
    assert main(["run", "--config", cfg, "--end-time", "1us",
                 "--out-dir", str(tmp_path / "short")]) == 0
    # 1 us is shorter than a single 1 km channel delay (5 us), so no
    # request can even be accepted, let alone finish
    rows = _csv_rows(tmp_path / "short" / "results.csv")
    assert all(row[5] != "done" for row in rows[1:])


def test_run_negative_end_time_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"scenario": "keypool", "seed": 3})
    # both forms reach parse_time_ps, although argparse alone would take
    # "-1s" for an option
    assert main(["run", "--config", cfg, "--end-time=-1s",
                 "--out-dir", str(tmp_path / "neg")]) == 2
    assert "negative" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--end-time", "-1s",
                 "--out-dir", str(tmp_path / "neg")]) == 2
    assert "must not be negative" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize("command", [["run"],
                                     ["sweep", "--parameter", "rounds", "--values", "100"]])
def test_negative_seed_flag_exits_2_naming_seed(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, {"scenario": "chsh", "rounds": 100})
    assert main([*command, "--config", cfg, "--seed", "-1",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "config key 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_whole_float_seed_runs_as_that_integer(tmp_path):
    for sub, seed in (("int", 7), ("float", 7.0)):
        cfg = _write_config(tmp_path, {"scenario": "chsh", "rounds": 100, "seed": seed})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / sub)]) == 0
    assert (tmp_path / "int" / "results.csv").read_bytes() == \
        (tmp_path / "float" / "results.csv").read_bytes()
    assert json.loads((tmp_path / "float" / "manifest.json").read_text())["seed"] == 7


@pytest.mark.parametrize("argv", [["run"],
                                  ["sweep", "--parameter", "rounds", "--values", "100"]])
def test_log_level_reaches_logging_and_stdout_stays_json(tmp_path, capsys, monkeypatch,
                                                         argv):
    calls = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: calls.append(kwargs))
    cfg = _write_config(tmp_path, {"scenario": "chsh", "rounds": 100, "log_level": "WARN"})
    assert main([*argv, "--config", cfg, "--log-level", "DEBUG",
                 "--out-dir", str(tmp_path / "o")]) == 0
    assert calls == [{"level": "DEBUG"}]  # the flag overrides the config key
    if argv == ["run"]:
        assert set(json.loads(capsys.readouterr().out)) == {"primary", "win_rate"}


def test_run_unknown_log_level_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"scenario": "chsh", "rounds": 100})
    assert main(["run", "--config", cfg, "--log-level", "ERROR",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "--log-level" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad,named", [
    ({"keygen_rate": 1e13}, "keygen_rate"),  # rounds to a 0 ps interval
    ({"keygen_rate": 0}, "keygen_rate"),
    ({"keygen_rate": -5}, "keygen_rate"),
    ({"capacity": 0}, "capacity"),
    ({"capacitty": 30}, "capacitty"),
    ({"n_repeaters": 1}, "extra_endnodes"),  # the default extras hang D off R2
    ({"extra_endnodes": [["C", -1]]}, "extra_endnodes"),
    ({"extra_endnodes": [["A", 0]]}, "extra_endnodes"),  # A is already in the chain
    ({"extra_endnodes": [["C", 0], ["C", 1]]}, "extra_endnodes"),
    ({"extra_endnodes": [["C"]]}, "extra_endnodes"),
    ({"extra_endnodes": [[0, 1]]}, "extra_endnodes"),
    ({"n_repeaters": -1}, "n_repeaters"),
    ({"n_repeaters": "two"}, "n_repeaters"),
    ({"keygen_rate": "fast"}, "keygen_rate"),
])
def test_run_bad_keypool_config_exits_2_naming_the_key(tmp_path, capsys, bad, named):
    cfg = _write_config(tmp_path, {"scenario": "keypool", "seed": 3, **bad})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")  # a bad value fails before numpy can warn
@pytest.mark.parametrize("config,named", [
    ({"scenario": "chsh", "rounds": "many"}, "rounds"),
    ({"scenario": "bb84", "pulses": 100, "source": {"bogus": 1}}, "source"),
    ({"scenario": "bb84", "pulses": 100, "detector": 5}, "detector"),
    ({"scenario": "satellite", "bins": 0}, "bins"),
    ({"scenario": "satellite", "bins": 1}, "bins"),
    ({"scenario": "satellite", "window_ps": 5}, "window_ps"),
    ({"scenario": "bb84", "pulses": -5}, "pulses"),
    ({"scenario": "bb84", "distance_km": math.inf}, "distance_km"),
    ({"scenario": "bb84", "source": {"frequency": 0}}, "source"),
    ({"scenario": "bb84", "source": {"mean_photon_num": math.nan,
                                     "exact_photon_number": None}}, "source"),
    ({"scenario": "bb84", "source": {"exact_photon_number": -1}}, "source"),
    ({"scenario": "bb84", "detector": {"dark_count_rate": -1}}, "detector"),
    ({"scenario": "chsh", "strategy": "bogus"}, "strategy"),
    ({"scenario": "chsh", "rounds": True}, "rounds"),
    ({"scenario": "chsh", "strategy": "classical-optimal", "exhaustive": "yes"},
     "exhaustive"),
    ({"scenario": "satellite", "loss_table": []}, "loss_table"),
    ({"scenario": "satellite", "loss_table": [[1400, 20], [500, 13]]}, "loss_table"),
    ({"scenario": "satellite", "window_ps": [10, 0]}, "window_ps"),
    ({"scenario": "satellite", "efficiency": -1}, "efficiency"),
    ({"scenario": "keypool", "capacity": 2.7}, "capacity"),
    ({"scenario": "keypool", "key_num": 0}, "key_num"),
    ({"scenario": "keypool", "key_length": 0}, "key_length"),
    ({"scenario": "keypool", "num_requests": -3}, "num_requests"),
    ({"scenario": "keypool", "end_time_ps": 1}, "end_time_ps"),
    ({"scenario": "keypool", "distance_km": math.nan}, "distance_km"),
    ({"scenario": "chsh", "seed": 2.5}, "seed"),
    ({"scenario": "chsh", "seed": True}, "seed"),
    ({"scenario": "chsh", "seed": -1}, "seed"),
    ({"scenario": "chsh", "log_level": "BOGUS"}, "log_level"),
])
def test_run_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, config, named):
    cfg = _write_config(tmp_path, {"seed": 3, **config})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---- the exit-code contract, fuzzed ----------------------------------------

_SMALL_CONFIGS = {  # a valid config per scenario that runs in milliseconds
    "chsh": {"scenario": "chsh", "rounds": 200},
    "bb84": {"scenario": "bb84", "pulses": 200},
    "satellite": {"scenario": "satellite", "bins": 5, "pulses_per_bin": 100},
    "keypool": {"scenario": "keypool", "num_requests": 3, "end_time_ps": 10**9},
}
_DEVICES = {"source": PhotonSource, "detector": PolarizationDetector}
# (scenario, top-level key, device keyword or None)
_TARGETS = [(kind, key, None) for kind, (_, table) in _SCENARIOS.items() for key in table]
_TARGETS += [("chsh", key, None) for key in _COMMON_KEYS]
_TARGETS += [("bb84", key, kwarg) for key, cls in _DEVICES.items()
             for kwarg in inspect.signature(cls).parameters if kwarg not in ("name", "env")]
_REVERSED = object()  # stands for the key's default list, reversed
_HOSTILE = ["x", None, 0, -1, 2.5, True, math.nan, math.inf, -math.inf, [], _REVERSED,
            {"bogus": 1}]


# hypothesis's failure report warns from mypy_extensions; as an error it would
# hide the falsifying example behind an INTERNALERROR
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@settings(max_examples=500, deadline=None)  # tries every (key, value) pair
@given(st.sampled_from(_TARGETS), st.sampled_from(_HOSTILE))
def test_run_exits_0_or_2_naming_the_key_on_any_one_bad_value(target, value):
    kind, key, kwarg = target
    config = json.loads(json.dumps(_SMALL_CONFIGS[kind]))
    default = {**_COMMON_KEYS, **_SCENARIOS[kind][1]}[key][0]
    if value is _REVERSED:
        assume(kwarg is None and isinstance(default, list))
        value = default[::-1]
    config[key] = value if kwarg is None else {**default, kwarg: value}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--out-dir", str(Path(tmp) / "o")])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert key in err.getvalue()


def test_readme_tables_match_the_scenario_keys_and_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = {}
    for kind, body in re.findall(r"^#### `(\w+)`\n(.*?)(?=^#|\Z)", readme, re.M | re.S):
        documented[kind] = {key: json.loads(default) for key, default
                            in re.findall(r"^\| `(\w+)` \| `(.+?)` \|", body, re.M)}
    assert documented == {kind: {key: default for key, (default, _) in table.items()}
                          for kind, (_, table) in _SCENARIOS.items()}


@pytest.mark.parametrize("config", [
    {"scenario": "chsh", "rounds": 100, "roundz": 5},
    {"scenario": "bb84", "pulses": 100, "roundz": 5},
    {"scenario": "satellite", "bins": 3, "roundz": 5},
])
def test_run_unknown_config_key_exits_2_naming_it(tmp_path, capsys, config):
    cfg = _write_config(tmp_path, {"seed": 3, "log_level": "INFO", **config})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert "roundz" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario", ["chsh", "bb84", "satellite"])
def test_run_end_time_on_a_scenario_without_one_exits_2(tmp_path, capsys, scenario):
    cfg = _write_config(tmp_path, {"scenario": scenario})
    assert main(["run", "--config", cfg, "--end-time", "1us",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "end_time_ps" in capsys.readouterr().err


def test_run_keypool_accepts_every_documented_key(tmp_path):
    cfg = _write_config(tmp_path, {
        "scenario": "keypool", "seed": 3, "log_level": "INFO", "capacity": 20,
        "num_requests": 4, "key_num": 5, "key_length": 16, "end_time_ps": 10**10,
        "keygen_rate": 1e12, "n_repeaters": 2, "extra_endnodes": [["C", 1]],
        "distance_km": 0.5})
    assert main(["run", "--config", cfg, "--end-time", "1ns",
                 "--out-dir", str(tmp_path / "o")]) == 0


def test_run_keypool_without_repeaters_rejects_requests_no_pool_can_hold(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": "keypool", "seed": 3, "n_repeaters": 0,
                                   "extra_endnodes": [], "key_num": 14, "capacity": 6})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    rows = _csv_rows(tmp_path / "o" / "results.csv")
    assert len(rows) > 1
    assert all(row[-1] == "rejected" for row in rows[1:])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config", [
    {"scenario": "satellite", "bins": 2, "pulses_per_bin": 1000},
    {"scenario": "satellite", "bins": 5, "pulses_per_bin": 1000, "efficiency": 0},
])
def test_run_satellite_constant_series_has_no_correlation(tmp_path, capsys, config):
    cfg = _write_config(tmp_path, {"seed": 3, **config})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert "distance_sifted_correlation" not in printed
    assert "total_sifted" in printed


@pytest.mark.parametrize("config", [
    {"scenario": "chsh", "strategy": "classical-optimal", "rounds": 100,
     "exhaustive": True},
    {"scenario": "bb84", "distance_km": 1.0, "pulses": 100,
     "source": {"frequency": 1e6, "exact_photon_number": 1},
     "detector": {"efficiency": 1.0, "dark_count_rate": 0.0}},
    {"scenario": "satellite", "window_ps": [0, 10**9], "min_km": 500.0,
     "max_km": 900.0, "loss_table": [[500.0, 13.0], [900.0, 16.0]], "bins": 3,
     "pulses_per_bin": 100, "efficiency": 0.5},
])
def test_run_accepts_every_documented_key(tmp_path, config):
    cfg = _write_config(tmp_path, {"seed": 3, "log_level": "INFO", **config})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0


# ---- compile --------------------------------------------------------------

def _teleport_script_path(tmp_path):
    script = [
        LocalOp("c", "h", 0), LocalOp("c", "cnot", (0, 1)),
        Transmit("c", "a", 0), Transmit("c", "b", 1),
        LocalOp("a", "ry", 1, params=(0.4,)),
        LocalOp("a", "cnot", (1, 0)), LocalOp("a", "h", 1),
        LocalOp("a", "measure", 0), LocalOp("a", "measure", 1),
        ClassicalSend("a", "b", ("a", 0)), ClassicalSend("a", "b", ("a", 1)),
        LocalOp("b", "x", 0, cond=("a", 0)), LocalOp("b", "z", 0, cond=("a", 1)),
    ]
    p = tmp_path / "script.json"
    p.write_text(dump_script(script))
    return str(p)


def test_compile_with_defer_emits_standard_circuit(tmp_path):
    out = tmp_path / "circ.json"
    code = main(["compile", "--script", _teleport_script_path(tmp_path),
                 "--defer", "--out", str(out)])
    assert code == 0
    circ = Circuit.from_json(out.read_text())
    assert is_standard(circ)
    assert circ.width == 3


def test_compile_causality_violation_exits_1_naming_index(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(dump_script([LocalOp("a", "h", 0),
                                LocalOp("a", "x", 1, cond=("a", 0))]))
    code = main(["compile", "--script", str(bad),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "instruction 1" in capsys.readouterr().err


@pytest.mark.parametrize("script,message", [
    ([LocalOp("a", "h", 0), LocalOp("a", "h", 99)], "instruction 1: node 'a' has no "
                                                    "register unit at address 99"),
    ([LocalOp("a", "h", -1)], "instruction 0: node 'a' has no register unit at address -1"),
    ([LocalOp("b", "h", 0), *(LocalOp("a", "h", i) for i in range(8)),
      Transmit("b", "a", 0)], "instruction 9: local register of node 'a' is full"),
])
def test_compile_register_fault_exits_1_naming_index(tmp_path, capsys, script, message):
    bad = tmp_path / "bad.json"
    bad.write_text(dump_script(script))
    out = tmp_path / "o.json"
    assert main(["compile", "--script", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"compile error: {message}\n"
    assert not out.exists()


def test_compile_empty_script(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(dump_script([]))
    out = tmp_path / "out.json"
    assert main(["compile", "--script", str(empty), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == []


@pytest.mark.parametrize("script,message", [
    ([{"node": "a", "name": "h", "addr": 0}], "instruction 0: unknown kind"),
    ([{"kind": "local", "name": "h", "addr": 0}], "instruction 0: "),
    ([{"kind": "local", "node": "a", "name": "h", "addr": 0},
      {"kind": "classical", "src": "a", "dst": "b", "ref": 3}], "instruction 1: "),
    ({}, "must be a JSON list, got dict"),
    ([{"kind": "transmit", "src": "a", "dst": "b", "addr": True}], "instruction 0: "),
])
def test_compile_malformed_script_exits_2_naming_index(tmp_path, capsys, script, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(script))
    out = tmp_path / "o.json"
    assert main(["compile", "--script", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_compile_missing_script_exits_2(tmp_path):
    assert main(["compile", "--script", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "o.json")]) == 2


# ---- sweep ----------------------------------------------------------------

def test_sweep_zero_replications_exits_2(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": "chsh"})
    assert main(["sweep", "--config", cfg, "--parameter", "rounds",
                 "--values", "10", "--replications", "0",
                 "--out-dir", str(tmp_path)]) == 2


def test_sweep_non_numeric_values_exit_2(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": "chsh"})
    assert main(["sweep", "--config", cfg, "--parameter", "rounds",
                 "--values", "many", "--replications", "1",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_fewer_than_one_job_exits_2(tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path, {"scenario": "chsh", "rounds": 100})
    assert main(["sweep", "--config", cfg, "--parameter", "rounds", "--values", "10",
                 "--jobs", jobs, "--out-dir", str(tmp_path / "sw")]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("parameter,values", [
    ("capacity", ["0"]),
    ("capacity", ["20", "20.5"]),
    ("capacity", ["20", "nan"]),
    ("n_repeaters", ["1"]),  # the default extra endnode D hangs off R2
])
def test_sweep_value_the_scenario_rejects_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                      parameter, values):
    cfg = _write_config(tmp_path, {"scenario": "keypool", "num_requests": 1})
    assert main(["sweep", "--config", cfg, "--parameter", parameter, "--values", *values,
                 "--out-dir", str(tmp_path / "sw")]) == 2
    assert parameter in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("values", [["100", "100"], ["100", "200", "100.0"]])
def test_sweep_repeated_value_exits_2_before_any_run(tmp_path, capsys, values):
    cfg = _write_config(tmp_path, {"scenario": "chsh", "rounds": 100})
    assert main(["sweep", "--config", cfg, "--parameter", "rounds", "--values", *values,
                 "--out-dir", str(tmp_path / "sw")]) == 2
    assert "--values lists 100 more than once" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_sweep_a_declared_key_the_config_omits(tmp_path):
    omitted = _write_config(tmp_path, {"scenario": "keypool", "seed": 3}, "omitted.json")
    given = _write_config(tmp_path, {"scenario": "keypool", "seed": 3, "capacity": 40})
    assert main(["sweep", "--config", omitted, "--parameter", "capacity", "--values", "40",
                 "--out-dir", str(tmp_path / "sw")]) == 0
    assert main(["run", "--config", given, "--out-dir", str(tmp_path / "direct")]) == 0
    assert (tmp_path / "sw" / "value_40_rep_0" / "results.csv").read_bytes() == \
        (tmp_path / "direct" / "results.csv").read_bytes()


def test_sweep_unknown_parameter_exits_2(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": "chsh"})
    assert main(["sweep", "--config", cfg, "--parameter", "warp.factor",
                 "--values", "1", "--replications", "1",
                 "--out-dir", str(tmp_path)]) == 2


def test_sweep_rows_follow_value_order_and_mean_is_exact(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": "keypool", "seed": 3,
                                   "capacity": 40})
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg, "--parameter", "capacity",
                 "--values", "40", "20", "--replications", "2",
                 "--out-dir", str(out)])
    assert code == 0
    rows = _csv_rows(out / "sweep.csv")
    assert rows[0] == ["capacity", "mean", "std", "replications"]
    assert [row[0] for row in rows[1:]] == ["40.0", "20.0"]
    for value in (20, 40):
        reps = []
        for rep in range(2):
            rep_rows = _csv_rows(out / f"value_{value}_rep_{rep}" / "results.csv")
            reps.append(sum(1 for r in rep_rows[1:] if r[5] == "done"))
        row = next(r for r in rows[1:] if float(r[0]) == value)
        assert float(row[1]) == sum(reps) / len(reps)  # exact arithmetic mean


def test_sweep_single_value_single_rep_matches_run(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": "keypool", "seed": 3,
                                   "capacity": 40})
    assert main(["run", "--config", cfg,
                 "--out-dir", str(tmp_path / "direct")]) == 0
    assert main(["sweep", "--config", cfg, "--parameter", "capacity",
                 "--values", "40", "--replications", "1",
                 "--out-dir", str(tmp_path / "sw")]) == 0
    direct = (tmp_path / "direct" / "results.csv").read_bytes()
    swept = (tmp_path / "sw" / "value_40_rep_0" / "results.csv").read_bytes()
    assert direct == swept
