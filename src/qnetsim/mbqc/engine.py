"""MBQC execution with vertex dynamic classification.

A pattern (graph, order, specs) compiles once into a static program for
the branch walker (`backend.simulator.walk`).  Vertices move through
pending -> active -> measured: a vertex's qubit is allocated when it
activates and dropped as soon as it is measured, keeping the effective
width at the number of active vertices.

Before a vertex is measured, every still-unrealized incident edge is
realized as a CZ (activating pending endpoints first), so each edge of
the graph contributes exactly one CZ whatever the measurement order.
None of this depends on measurement outcomes, only the bases do, so
every register position is resolved when the program is built.
"""

from __future__ import annotations

from ..backend.gates import gate_matrix
from ..backend.simulator import (Alloc, Gate, Measure, _bitstring, check_shots,
                                 exact_split, shot_split, stratified_split, walk)
from ..backend.statevector import PLUS, StateVector
from .pattern import ResourceGraph

DENSE_ORACLE_MAX_VERTICES = 16

_CZ = gate_matrix("cz")


def _check_order(graph: ResourceGraph, order, specs=None):
    if len(order) != len(graph.vertices) or set(order) != set(graph.vertices):
        raise ValueError("measurement order must be a permutation of the vertices")
    if specs is not None:
        earlier = set()
        for v in order:
            if v not in specs:
                raise ValueError(f"measurement of {v!r} has no spec")
            for ref in specs[v].references():
                if ref not in earlier:
                    raise ValueError(
                        f"measurement of {v!r} adapts on {ref!r}, which is not measured earlier")
            earlier.add(v)


def _program(graph: ResourceGraph, order, specs=None, dense=False):
    """The pattern's walker program and its peak number of active vertices.

    With `dense`, every vertex and edge is realized before the first
    measurement.  Without `specs` the measurements carry no basis.
    """
    active = list(graph.input_vertices)
    realized = set()
    program = []
    cz_rows = _CZ.tolist()

    def activate(v):
        active.append(v)
        program.append(Alloc(PLUS))

    def realize(a, b):
        program.append(Gate(_CZ, cz_rows, (active.index(a), active.index(b))))
        realized.add(frozenset((a, b)))

    if dense:
        for v in graph.vertices:
            if v not in active:
                activate(v)
        for edge in graph.edges:
            realize(*edge)
    peak = len(active)
    for k in order:
        if k not in active:
            activate(k)
        for j in sorted(graph.neighbors(k), key=str):
            if frozenset((j, k)) not in realized:
                if j not in active:
                    activate(j)
                realize(j, k)
        peak = max(peak, len(active))
        pos = active.index(k)
        program.append(Measure(pos, k, None if specs is None else specs[k], True))
        active.pop(pos)
    return program, peak


def _input_state(graph: ResourceGraph) -> StateVector:
    return StateVector(0) if graph.input_state is None else graph.input_state.copy()


def run_pattern(graph: ResourceGraph, order, specs: dict, rng) -> dict:
    """Execute the pattern; returns {vertex: outcome bit}."""
    _check_order(graph, order, specs)
    outcomes = {}
    walk(_program(graph, order, specs)[0], _input_state(graph), shot_split(rng), 1,
         lambda seen, _weight, _state: outcomes.update(seen))
    return outcomes


def max_active_width(graph: ResourceGraph, order) -> int:
    """Peak number of simultaneously active vertices; no state allocation."""
    _check_order(graph, order)
    return _program(graph, order)[1]


def sample_pattern(graph: ResourceGraph, order, specs: dict, shots: int,
                   rng) -> dict:
    """Empirical outcome counts for `shots` independent pattern runs.

    Stratified sampling: at every measurement the remaining shots are
    split binomially between the two outcomes, so the counts follow
    exactly the same law as `shots` separate run_pattern calls while the
    state evolution happens once per realized branch instead of once per
    shot.  Keys are outcome bitstrings in measurement order.
    """
    shots = check_shots(shots)
    _check_order(graph, order, specs)
    counts = {}

    def leaf(outcomes, n, _state):
        if n:
            counts[_bitstring(outcomes, order)] = n

    walk(_program(graph, order, specs)[0], _input_state(graph), stratified_split(rng),
         shots, leaf)
    return counts


def dense_oracle(graph: ResourceGraph, specs: dict, order) -> dict:
    """Exact outcome distribution by full-state branch enumeration.

    Builds the complete entangled resource state up front (input state
    tensored with |+> vertices, one CZ per edge) and branches over both
    outcomes of every measurement.  Keys are outcome bitstrings in
    measurement order.
    """
    _check_order(graph, order, specs)
    if len(graph) > DENSE_ORACLE_MAX_VERTICES:
        raise ValueError(f"graph with {len(graph)} vertices exceeds the "
                         f"{DENSE_ORACLE_MAX_VERTICES}-vertex enumeration limit")
    dist = {}

    def leaf(outcomes, prob, _state):
        dist[_bitstring(outcomes, order)] = prob

    walk(_program(graph, order, specs, dense=True)[0], _input_state(graph), exact_split,
         1.0, leaf)
    return dist
