"""Resource graphs and measurement specifications for the MBQC engine.

A resource state is a graph (V, E): input vertices I carry an arbitrary
(possibly entangled) input state, every other vertex starts as |+>, and
each edge contributes one CZ.  Measurements are single-qubit, specified
by a plane (XY, YZ or XZ) and an angle, or by an explicit orthonormal
basis pair.  Adaptivity follows the standard angle transformation
phi' = (-1)^s * phi + t*pi with s, t parities of designated earlier
outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..backend.statevector import StateVector

BASIS_TOL = 1e-10


class ResourceGraph:
    def __init__(self, vertices, edges, input_vertices=(), input_state=None):
        self.vertices = list(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.edges = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a!r}")
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex")
            self.edges.add(frozenset((a, b)))
        self.input_vertices = list(input_vertices)
        if not set(self.input_vertices) <= vset:
            raise ValueError("input vertices must be a subset of V")
        if input_state is None and self.input_vertices:
            raise ValueError("input vertices given without an input state")
        if input_state is not None:
            if input_state.n != len(self.input_vertices):
                raise ValueError("input state width does not match input vertices")
            input_state.check_norm()
        self.input_state = input_state
        self._adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = tuple(e)
            self._adj[a].add(b)
            self._adj[b].add(a)

    def neighbors(self, v):
        return self._adj[v]

    def __len__(self):
        return len(self.vertices)


def plane_basis(plane: str, angle: float):
    """Orthonormal measurement basis (plus eigenvector first)."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if plane == "XY":
        # eigenvectors of cos(a) X + sin(a) Y
        v0 = np.array([1, np.exp(1j * angle)], dtype=complex) / np.sqrt(2)
        v1 = np.array([1, -np.exp(1j * angle)], dtype=complex) / np.sqrt(2)
    elif plane == "YZ":
        # eigenvectors of cos(a) Z + sin(a) Y
        v0 = np.array([c, 1j * s], dtype=complex)
        v1 = np.array([s, -1j * c], dtype=complex)
    elif plane == "XZ":
        # eigenvectors of cos(a) Z + sin(a) X
        v0 = np.array([c, s], dtype=complex)
        v1 = np.array([s, -c], dtype=complex)
    else:
        raise ValueError(f"unknown measurement plane {plane!r}")
    return v0, v1


@dataclass(frozen=True)
class MeasurementSpec:
    """Measurement for one vertex.

    Either (plane, angle) with optional adaptivity domains, or an
    explicit orthonormal basis pair.  Outcome 0 corresponds to the +1
    eigenvector, outcome 1 to the -1 eigenvector.  Frozen, so the
    rotations it keeps (see `rotation`) stay valid.
    """
    vertex: object
    plane: str = "XY"
    angle: float = 0.0
    s_domain: tuple = ()
    t_domain: tuple = ()
    explicit_basis: tuple | None = None

    def __post_init__(self):
        if self.explicit_basis is not None:
            v0, v1 = (np.asarray(v, dtype=complex) for v in self.explicit_basis)
            if (abs(np.linalg.norm(v0) - 1) > BASIS_TOL
                    or abs(np.linalg.norm(v1) - 1) > BASIS_TOL
                    or abs(np.vdot(v0, v1)) > BASIS_TOL):
                raise ValueError("explicit basis must be orthonormal")
            object.__setattr__(self, "explicit_basis", (v0, v1))
        object.__setattr__(self, "_rotations", {})

    def basis(self, outcomes: dict):
        return self.basis_for(*self.parities(outcomes))

    def parities(self, outcomes: dict):
        """(s, t): parities of the earlier outcomes in the two domains."""
        return (sum(outcomes[v] for v in self.s_domain) % 2,
                sum(outcomes[v] for v in self.t_domain) % 2)

    def basis_for(self, s, t):
        """The basis adapted to the parities (s, t)."""
        if self.explicit_basis is not None:
            return self.explicit_basis
        return plane_basis(self.plane, (-1) ** s * self.angle + t * np.pi)

    def rotation(self, s, t):
        """The rotation taking the basis adapted to the parities (s, t) to
        Z (v0 -> |0>, v1 -> |1>), built on its first use."""
        if (s, t) not in self._rotations:
            v0, v1 = self.basis_for(s, t)
            self._rotations[s, t] = np.array([v0.conj(), v1.conj()])
        return self._rotations[s, t]

    def references(self):
        return tuple(self.s_domain) + tuple(self.t_domain)


# convenience constructors for common bases
def x_measurement(vertex):
    return MeasurementSpec(vertex, plane="XY", angle=0.0)


def z_measurement(vertex):
    return MeasurementSpec(vertex, plane="XZ", angle=0.0)


# ---- pattern JSON wire format -------------------------------------------

def dump_pattern(graph: ResourceGraph, order, specs) -> str:
    state = None
    if graph.input_state is not None:
        state = [[float(a.real), float(a.imag)] for a in graph.input_state.amps]
    return json.dumps({
        "vertices": graph.vertices,
        "edges": [sorted(tuple(e)) for e in sorted(graph.edges, key=lambda e: sorted(tuple(e)))],
        "input": {"vertices": graph.input_vertices, "state": state},
        "order": list(order),
        "measurements": {
            str(v): {"plane": spec.plane, "angle": spec.angle,
                     "s_domain": list(spec.s_domain), "t_domain": list(spec.t_domain)}
            for v, spec in specs.items()
        },
    }, indent=2)


def load_pattern(text: str):
    obj = json.loads(text)
    input_state = None
    if obj["input"].get("state"):
        amps = np.array([complex(re, im) for re, im in obj["input"]["state"]])
        input_state = StateVector(amplitudes=amps)
    graph = ResourceGraph(obj["vertices"], obj["edges"],
                          obj["input"].get("vertices", ()), input_state)
    by_label = {str(v): v for v in graph.vertices}
    specs = {}
    for key, m in obj["measurements"].items():
        v = by_label[key]
        specs[v] = MeasurementSpec(v, plane=m["plane"], angle=m["angle"],
                                   s_domain=tuple(by_label[str(u)] if str(u) in by_label else u
                                                  for u in m.get("s_domain", ())),
                                   t_domain=tuple(by_label[str(u)] if str(u) in by_label else u
                                                  for u in m.get("t_domain", ())))
    return graph, obj["order"], specs
