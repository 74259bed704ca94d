"""MBQC engine: bases, adaptivity, lazy activation, oracle equivalence."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnetsim.backend.statevector import StateVector
from qnetsim.mbqc import (MeasurementSpec, ResourceGraph, dense_oracle,
                          dump_pattern, load_pattern, max_active_width,
                          run_pattern)
from qnetsim.mbqc import pattern
from qnetsim.mbqc.engine import sample_pattern
from qnetsim.mbqc.pattern import plane_basis, x_measurement, z_measurement


def chain(n):
    return ResourceGraph(vertices=list(range(n)),
                         edges=[(i, i + 1) for i in range(n - 1)])


def total_variation(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ---- bases ----------------------------------------------------------------

@pytest.mark.parametrize("plane", ["XY", "YZ", "XZ"])
@pytest.mark.parametrize("angle", [0.0, 0.4, np.pi / 2, 2.1])
def test_plane_bases_are_orthonormal(plane, angle):
    v0, v1 = plane_basis(plane, angle)
    assert np.linalg.norm(v0) == pytest.approx(1.0)
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    assert abs(np.vdot(v0, v1)) < 1e-12


def test_xy_zero_angle_is_x_basis():
    v0, v1 = plane_basis("XY", 0.0)
    assert np.allclose(v0, [2**-0.5, 2**-0.5])
    assert np.allclose(v1, [2**-0.5, -(2**-0.5)])


def test_xz_zero_angle_is_z_basis():
    v0, v1 = plane_basis("XZ", 0.0)
    assert np.allclose(v0, [1, 0])
    assert abs(abs(np.vdot(v1, [0, 1])) - 1) < 1e-12  # |1> up to phase


def test_adaptive_angle_transformation():
    spec = MeasurementSpec(2, plane="XY", angle=0.5,
                           s_domain=(0,), t_domain=(1,))
    # s=1 flips the sign, t=1 adds pi
    expected0, _ = plane_basis("XY", -0.5 + np.pi)
    v0, _ = spec.basis({0: 1, 1: 1})
    assert np.allclose(v0, expected0)


def test_explicit_basis_must_be_orthonormal():
    with pytest.raises(ValueError):
        MeasurementSpec(0, explicit_basis=([1, 0], [1, 0]))


@pytest.mark.parametrize("plane", ["XY", "YZ", "XZ"])
@pytest.mark.parametrize("s_domain,t_domain", [((), ()), ((0,), ()), ((), (1,)),
                                               ((0, 1), (1,))])
def test_cached_rotations_equal_the_adapted_basis(plane, s_domain, t_domain):
    spec = MeasurementSpec(2, plane, 0.83, s_domain=s_domain, t_domain=t_domain)
    for a in (0, 1):
        for b in (0, 1):
            outcomes = {0: a, 1: b}
            v0, v1 = spec.basis(outcomes)
            assert np.array_equal(spec.rotation(*spec.parities(outcomes)),
                                  np.array([v0.conj(), v1.conj()]))


def test_cached_rotation_of_an_explicit_basis():
    v0, v1 = np.array([0.6, 0.8j]), np.array([0.8, -0.6j])
    spec = MeasurementSpec(0, explicit_basis=(v0, v1))
    assert np.array_equal(spec.rotation(0, 0), np.array([v0.conj(), v1.conj()]))


def test_measurement_specs_are_frozen():
    spec = MeasurementSpec(0, "XY", 0.3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.angle = 0.4
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.s_domain = (1,)


def test_rotations_are_built_once_per_spec(monkeypatch):
    graph = chain(4)
    specs = {v: MeasurementSpec(v, "XY", 0.2 + v) for v in range(4)}
    calls = []

    def counting_plane_basis(plane, angle):
        calls.append((plane, angle))
        return plane_basis(plane, angle)

    monkeypatch.setattr(pattern, "plane_basis", counting_plane_basis)
    first = run_pattern(graph, [0, 1, 2, 3], specs, np.random.default_rng(1))
    assert len(calls) == 4  # one rotation per spec, at its first measurement
    calls.clear()
    second = run_pattern(graph, [0, 1, 2, 3], specs, np.random.default_rng(1))
    assert calls == [] and second == first


@pytest.mark.parametrize("shots", [-5, 2.5, "10", False])
def test_sample_pattern_rejects_bad_shot_counts(shots):
    graph, specs = ResourceGraph([0], []), {0: MeasurementSpec(0, "XY", 0.0)}
    with pytest.raises(ValueError, match="shots"):
        sample_pattern(graph, [0], specs, shots, np.random.default_rng(0))


def test_sample_pattern_of_zero_shots_is_empty():
    graph, specs = chain(3), {v: MeasurementSpec(v, "XY", 0.4) for v in range(3)}
    assert sample_pattern(graph, [0, 1, 2], specs, 0, np.random.default_rng(0)) == {}


# ---- graph validation -----------------------------------------------------

def test_graph_rejects_self_loops_and_dangling_edges():
    with pytest.raises(ValueError):
        ResourceGraph([0, 1], edges=[(0, 0)])
    with pytest.raises(ValueError):
        ResourceGraph([0, 1], edges=[(0, 2)])


def test_graph_input_state_width_checked():
    with pytest.raises(ValueError):
        ResourceGraph([0, 1], edges=[(0, 1)], input_vertices=[0],
                      input_state=StateVector(2))


# ---- deterministic patterns ----------------------------------------------

def _one_qubit_teleport_specs():
    """X-measurements along a 3-chain with the standard X correction."""
    return {0: x_measurement(0),
            1: MeasurementSpec(1, plane="XY", angle=0.0, s_domain=(0,)),
            2: x_measurement(2)}


def test_chain_identity_pattern_oracle():
    """Adaptively measuring a 3-chain teleports |+> to the output wire.

    With the s-corrected second measurement, the final X measurement of
    the output must then give + (outcome 0) up to the known byproduct.
    """
    graph = chain(3)
    specs = _one_qubit_teleport_specs()
    dist = dense_oracle(graph, specs, [0, 1, 2])
    # outcome of vertex 2 is determined by the earlier byproducts:
    # only half of the 8 bitstrings carry weight
    assert len(dist) == 4
    assert sum(dist.values()) == pytest.approx(1.0)


def test_z_measurement_disconnects_vertex():
    """Z-measuring a leaf just removes it: remaining X statistics stay 50/50."""
    graph = chain(2)
    specs = {0: z_measurement(0), 1: x_measurement(1)}
    dist = dense_oracle(graph, specs, [0, 1])
    marg = {"0": 0.0, "1": 0.0}
    for bits, p in dist.items():
        marg[bits[1]] += p
    assert marg["0"] == pytest.approx(0.5)
    assert marg["1"] == pytest.approx(0.5)


def test_input_state_is_respected():
    """A |1> input on a single isolated vertex measured in Z gives 1."""
    one = StateVector(1)
    from qnetsim.backend.gates import gate_matrix
    one.apply(gate_matrix("x"), (0,))
    graph = ResourceGraph([0], edges=[], input_vertices=[0], input_state=one)
    specs = {0: z_measurement(0)}
    dist = dense_oracle(graph, specs, [0])
    assert dist == {"1": pytest.approx(1.0)}


# ---- lazy activation ------------------------------------------------------

def test_chain_width_is_two():
    n = 200
    graph = chain(n)
    assert max_active_width(graph, list(range(n))) == 2


def test_star_width_is_full_degree():
    # measuring the hub first activates every leaf
    graph = ResourceGraph(vertices=list(range(6)),
                          edges=[(0, i) for i in range(1, 6)])
    assert max_active_width(graph, [0, 1, 2, 3, 4, 5]) == 6
    # measuring leaves first keeps only {hub, leaf} active
    assert max_active_width(graph, [1, 2, 3, 4, 5, 0]) == 2


@st.composite
def patterns(draw):
    """A random graph on up to 7 vertices, an input state on up to 3 of
    them, and a random measurement order."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                        max_size=len(pairs)))) if keep]
    inputs = draw(st.permutations(range(n)))[:draw(st.integers(0, min(n, 3)))]
    state = StateVector(len(inputs)) if inputs else None
    graph = ResourceGraph(range(n), edges, input_vertices=inputs, input_state=state)
    return graph, draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(patterns(), st.integers(0, 2**32 - 1))
def test_max_active_width_is_the_widest_state_of_a_run(pattern, seed):
    graph, order = pattern
    specs = {v: x_measurement(v) for v in graph.vertices}
    widths = [len(graph.input_vertices)]
    append = StateVector.append_qubit

    def recording_append(self, *args, **kwargs):
        append(self, *args, **kwargs)
        widths.append(self.n)

    StateVector.append_qubit = recording_append
    try:
        run_pattern(graph, order, specs, np.random.default_rng(seed))
    finally:
        StateVector.append_qubit = append
    assert max_active_width(graph, order) == max(widths)


def test_each_edge_realized_once():
    """Sampling matches the oracle on a triangle, where a naive
    re-application of CZ per measured endpoint would double edges."""
    graph = ResourceGraph([0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])
    specs = {v: x_measurement(v) for v in range(3)}
    oracle = dense_oracle(graph, specs, [0, 1, 2])
    rng = np.random.default_rng(0)
    counts = Counter()
    shots = 10000
    for _ in range(shots):
        out = run_pattern(graph, [0, 1, 2], specs, rng)
        counts["".join(str(out[v]) for v in [0, 1, 2])] += 1
    empirical = {k: v / shots for k, v in counts.items()}
    assert total_variation(empirical, oracle) < 0.02


def test_order_must_be_permutation():
    graph = chain(3)
    specs = {v: x_measurement(v) for v in range(3)}
    with pytest.raises(ValueError):
        run_pattern(graph, [0, 1], specs, np.random.default_rng(0))
    # labels equal to the vertices only as strings are not the vertices
    with pytest.raises(ValueError):
        run_pattern(graph, ["0", "1", "2"], specs, np.random.default_rng(0))
    with pytest.raises(ValueError):
        max_active_width(graph, ["0", "1", "2"])
    # a vertex without a spec is named, for every entry point that takes specs
    partial = {v: x_measurement(v) for v in range(2)}
    for call in (lambda: run_pattern(graph, [0, 1, 2], partial, np.random.default_rng(0)),
                 lambda: sample_pattern(graph, [0, 1, 2], partial, 10,
                                        np.random.default_rng(0)),
                 lambda: dense_oracle(graph, partial, [0, 1, 2])):
        with pytest.raises(ValueError, match="measurement of 2 has no spec"):
            call()


def test_adaptive_reference_must_be_measured_earlier():
    graph = chain(2)
    specs = {0: MeasurementSpec(0, plane="XY", angle=0.3, s_domain=(1,)),
             1: x_measurement(1)}
    with pytest.raises(ValueError):
        run_pattern(graph, [0, 1], specs, np.random.default_rng(0))


def test_oracle_rejects_oversized_graphs():
    n = 17
    graph = chain(n)
    specs = {v: x_measurement(v) for v in range(n)}
    with pytest.raises(ValueError):
        dense_oracle(graph, specs, list(range(n)))


# ---- sampled runs vs oracle ----------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_graph_sampling_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 5
    vertices = list(range(n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    graph = ResourceGraph(vertices, edges)
    specs = {v: MeasurementSpec(v, plane="XY", angle=float(rng.uniform(0, 2 * np.pi)))
             for v in vertices}
    order = list(rng.permutation(n))
    oracle = dense_oracle(graph, specs, order)
    shots = 8000
    counts = Counter()
    sample_rng = np.random.default_rng(seed + 100)
    for _ in range(shots):
        out = run_pattern(graph, order, specs, sample_rng)
        counts["".join(str(out[v]) for v in order)] += 1
    empirical = {k: v / shots for k, v in counts.items()}
    assert total_variation(empirical, oracle) < 0.04


# ---- serialization --------------------------------------------------------

def test_pattern_json_round_trip():
    graph = chain(3)
    specs = _one_qubit_teleport_specs()
    text = dump_pattern(graph, [0, 1, 2], specs)
    graph2, order2, specs2 = load_pattern(text)
    assert order2 == [0, 1, 2]
    assert graph2.edges == graph.edges
    assert dense_oracle(graph2, specs2, order2) == pytest.approx(
        dense_oracle(graph, specs, [0, 1, 2]))
