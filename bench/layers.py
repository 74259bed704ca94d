"""Per-layer tracing of qnetsim from outside the package.

``Tracer`` wraps the public entry points of each layer (des, netmodel,
protocols with its scenarios entry point, backend, mbqc, compiler) with
span or count recorders, and restores the originals on ``uninstall``.
A span is (name, start, end, parent span, job id, attribute); spans are
kept in flat arrays in memory and written out once, at the end.  A
layer's self time is its span durations minus the time its direct child
spans cover.

An entry point that no longer exists is skipped, and the metrics that
depend on it are left out of the report rather than reported as zero.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter_ns

import numpy as np

SPAN, COUNT = "span", "count"


def _n_of_self(args, _kwargs, _result):
    return args[0].n


def _events(_args, _kwargs, result):
    return result.events_executed


def _shots(args, kwargs, _result):
    return kwargs["shots"] if "shots" in kwargs else args[1]


def _leaves(_args, _kwargs, result):
    return len(result)


def _ops(args, kwargs, _result):
    return len(kwargs["instructions"] if "instructions" in kwargs else args[0])


def _accepted(_args, _kwargs, result):
    return int(result is True)


def _fel_len(args, _kwargs, _result):
    return len(args[0].fel)


# (span or counter name, kind, module, class or None, attribute, value hook).
# For a span the hook gives the span's attribute; for a counter it gives a
# figure whose sum and peak are kept next to the call count.
ENTRY_POINTS = (
    ("des.run", SPAN, "qnetsim.des.env", "SimEnv", "run", _events),
    ("des.init", SPAN, "qnetsim.des.env", "SimEnv", "init", None),
    ("des.schedule", COUNT, "qnetsim.des.env", "SimEnv", "schedule", _fel_len),
    ("netmodel.channel_between", SPAN, "qnetsim.netmodel.network", "Network",
     "channel_between", None),
    ("netmodel.node", SPAN, "qnetsim.netmodel.network", "Network", "node", None),
    ("netmodel.compute_routes", SPAN, "qnetsim.netmodel.network", "Network",
     "compute_routes", None),
    ("netmodel.route", SPAN, "qnetsim.netmodel.network", "Network", "route", None),
    ("netmodel.transmit", COUNT, "qnetsim.netmodel.channel", "ClassicalFiberChannel",
     "transmit", None),
    ("netmodel.transmit", COUNT, "qnetsim.netmodel.channel", "QuantumFiberChannel",
     "transmit", None),
    ("protocols.receive", SPAN, "qnetsim.protocols.qkd_network", "QKDNode",
     "receive_classical_msg", None),
    ("protocols.keygen_tick", SPAN, "qnetsim.protocols.qkd_network", "QKDNode",
     "keygen_tick", None),
    ("protocols.handle_classical", SPAN, "qnetsim.protocols.qkd_network", "QKDRMP",
     "handle_classical", None),
    ("protocols.pool_recovered", SPAN, "qnetsim.protocols.qkd_network", "QKDRMP",
     "pool_recovered", None),
    ("protocols.add_key", COUNT, "qnetsim.protocols.keypool", "KeyPool", "add_key",
     _accepted),
    ("scenarios.run_scenario", SPAN, "qnetsim.scenarios", None, "run_scenario", None),
    ("backend.run_circuit", SPAN, "qnetsim.backend.simulator", None, "run_circuit",
     _shots),
    ("backend.exact_state", SPAN, "qnetsim.backend.simulator", None, "exact_state",
     None),
    ("backend.apply", SPAN, "qnetsim.backend.statevector", "StateVector", "apply",
     _n_of_self),
    ("backend.prob_one", SPAN, "qnetsim.backend.statevector", "StateVector",
     "prob_one", None),
    ("backend.project", SPAN, "qnetsim.backend.statevector", "StateVector",
     "project", None),
    ("mbqc.sample_pattern", SPAN, "qnetsim.mbqc.engine", None, "sample_pattern",
     _leaves),
    ("mbqc.run_pattern", SPAN, "qnetsim.mbqc.engine", None, "run_pattern", None),
    ("mbqc.dense_oracle", SPAN, "qnetsim.mbqc.engine", None, "dense_oracle", None),
    ("compiler.compile_protocol", SPAN, "qnetsim.compiler.compile", None,
     "compile_protocol", _ops),
    ("compiler.defer_measurements", SPAN, "qnetsim.compiler.compile", None,
     "defer_measurements", None),
)

# Widths at which StateVector.apply is reported.
APPLY_WIDTHS = (4, 12, 20)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job_id = array("q")
        self.attr = array("q")
        self.counts = {}  # counter name -> [calls, hook sum, hook peak]
        self.job = -1
        self.installed = set()  # names of entry points found
        self._stack = [-1]
        self._saved = []

    # ---- wrapping -------------------------------------------------------
    def install(self):
        for name, kind, module, cls, attr, hook in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            make = self._span if kind == SPAN else self._counter
            self._saved.append((owner, attr, attr in vars(owner), original))
            setattr(owner, attr, make(name, original, hook))
            self.installed.add(name)

    def uninstall(self):
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _span(self, name, original, hook):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        sid = self._ids[name]
        stack = self._stack
        name_id, start, end = self.name_id, self.start, self.end
        parent, job_id, attr = self.parent, self.job_id, self.attr

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            job_id.append(self.job)
            end.append(0)
            attr.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                attr[idx] = hook(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, original, hook):
        cell = self.counts.setdefault(name, [0, 0, 0])  # calls, hook sum, hook peak

        if hook is None:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                value = hook(args, kwargs, result)
                cell[0] += 1
                cell[1] += value
                if value > cell[2]:
                    cell[2] = value
                return result

        return wrapper

    # ---- output ---------------------------------------------------------
    def spans(self):
        """Columns of all spans as numpy arrays, with durations and self times."""
        cols = {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                if len(getattr(self, key)) else np.zeros(0, dtype=np.int64)
                for key in ("name_id", "start", "end", "parent", "job_id", "attr")}
        dur = cols["end"] - cols["start"]
        covered = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(covered, cols["parent"][has_parent], dur[has_parent])
        cols["dur"] = dur
        cols["self"] = dur - covered
        return cols

    def write(self, path, jobs):
        """Save the span columns, the span names and `jobs` (job id ->
        description) as one compressed numpy archive."""
        cols = self.spans()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            jobs=np.array(json.dumps(jobs)),
                            **{k: cols[k] for k in ("name_id", "start", "end",
                                                    "parent", "job_id", "attr")})

    def metrics(self):
        """Per-layer metrics measured by the wrappers (model outputs and
        trace bytes come from the job outcomes, see run.model_metrics)."""
        cols = self.spans()
        out = {}

        def sel(name):
            if name not in self.installed:
                return None
            sid = self._ids[name]
            return cols["name_id"] == sid

        def total(name, key="dur"):
            mask = sel(name)
            return None if mask is None else float(cols[key][mask].sum()) / 1e9

        def calls(name):
            mask = sel(name)
            return None if mask is None else int(mask.sum())

        def pct_us(mask, q):
            durs = cols["dur"][mask]
            return float(np.percentile(durs, q)) / 1e3 if durs.size else 0.0

        def put(key, value, unit):
            if value is not None:
                out[key] = (value, unit)

        # des
        run = sel("des.run")
        if run is not None:
            events = int(cols["attr"][run].sum())
            run_self = float(cols["self"][run].sum()) / 1e9
            put("des.events", events, "count")
            put("des.run_self_s", run_self, "s")
            put("des.us_per_event", run_self / events * 1e6 if events else 0.0, "us")
        if "des.schedule" in self.installed:
            calls_, _total, peak = self.counts["des.schedule"]
            put("des.schedule_calls", calls_, "count")
            put("des.fel_peak", peak, "count")
        put("des.init_s", total("des.init"), "s")

        # netmodel
        for name, key in (("netmodel.channel_between", "channel_between"),
                          ("netmodel.node", "node_lookup")):
            mask = sel(name)
            if mask is None:
                continue
            put(f"netmodel.{key}_calls", int(mask.sum()), "count")
            put(f"netmodel.{key}_us_p50", pct_us(mask, 50), "us")
            if key == "channel_between":
                put(f"netmodel.{key}_us_p99", pct_us(mask, 99), "us")
        put("netmodel.compute_routes_s", total("netmodel.compute_routes"), "s")
        put("netmodel.route_s", total("netmodel.route"), "s")
        if "netmodel.transmit" in self.installed:
            put("netmodel.transmits", self.counts["netmodel.transmit"][0], "count")

        # protocols
        if "protocols.add_key" in self.installed:
            adds, accepted, _peak = self.counts["protocols.add_key"]
            put("protocols.add_key_calls", adds, "count")
            put("protocols.add_key_accept_ratio", accepted / adds if adds else 0.0,
                "ratio")
        put("protocols.pool_recovered_calls", calls("protocols.pool_recovered"), "count")
        put("protocols.pool_recovered_s", total("protocols.pool_recovered"), "s")
        put("protocols.handle_classical_calls", calls("protocols.handle_classical"),
            "count")
        put("protocols.handle_classical_self_s",
            total("protocols.handle_classical", "self"), "s")
        dispatch = [total(n, "self") for n in ("protocols.receive",
                                               "protocols.keygen_tick")]
        if any(d is not None for d in dispatch):
            put("protocols.dispatch_self_s", sum(d or 0.0 for d in dispatch), "s")

        # scenarios
        put("scenarios.self_s", total("scenarios.run_scenario", "self"), "s")

        # backend
        put("backend.run_circuit_s", total("backend.run_circuit"), "s")
        put("backend.exact_state_s", total("backend.exact_state"), "s")
        apply = sel("backend.apply")
        if apply is not None:
            put("backend.apply_calls", int(apply.sum()), "count")
            rc = sel("backend.run_circuit")
            if rc is not None:
                shots = int(cols["attr"][rc].sum())
                under = _under(cols, rc)
                put("backend.apply_calls_per_shot",
                    int((apply & under).sum()) / shots if shots else 0.0, "calls/shot")
            for width in APPLY_WIDTHS:
                put(f"backend.apply_us_p50.{width}q",
                    pct_us(apply & (cols["attr"] == width), 50), "us")
            wide = apply & (cols["attr"] == max(APPLY_WIDTHS))
            p50 = pct_us(wide, 50)
            put("backend.gb_per_s_computed",
                2 * 16 * 2 ** max(APPLY_WIDTHS) / (p50 * 1e3) if p50 else 0.0, "GB/s")
        put("backend.prob_one_s", total("backend.prob_one"), "s")
        put("backend.project_s", total("backend.project"), "s")

        # mbqc
        put("mbqc.sample_pattern_s", total("mbqc.sample_pattern"), "s")
        sp = sel("mbqc.sample_pattern")
        if sp is not None:
            put("mbqc.branches", int(cols["attr"][sp].sum()), "count")
        rp = sel("mbqc.run_pattern")
        if rp is not None:
            put("mbqc.run_pattern_us_per_shot",
                float(cols["dur"][rp].mean()) / 1e3 if rp.any() else 0.0, "us")
        put("mbqc.dense_oracle_s", total("mbqc.dense_oracle"), "s")

        # compiler
        put("compiler.compile_s", total("compiler.compile_protocol"), "s")
        put("compiler.defer_s", total("compiler.defer_measurements"), "s")
        cp = sel("compiler.compile_protocol")
        if cp is not None:
            ops = cols["attr"][cp]
            put("compiler.ops", int(ops.sum()), "count")
            longest = int(np.argmax(ops)) if ops.size else None
            put("compiler.us_per_op",
                float(cols["dur"][cp][longest]) / 1e3 / ops[longest]
                if longest is not None and ops[longest] else 0.0, "us")
        return out


def _under(cols, root_mask):
    """Mask of spans that have a span of `root_mask` among their ancestors.
    A parent is always recorded before its children."""
    parent = cols["parent"].tolist()
    root = root_mask.tolist()
    under = [False] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            under[i] = root[p] or under[p]
    return np.array(under, dtype=bool)
