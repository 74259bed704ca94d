"""Loading a network from a JSON topology document.

Schema:
{
  "nodes": [{"name": str, "type": str, "devices": [{"kind": ..., params...}],
             "location": [x, y] | null}],
  "links": [{"ends": [a, b],
             "channels": [{"kind": "classical-fiber" | "quantum-fiber" | "free-space",
                           "sender": a, "receiver": b, "distance_km": float,
                           "loss_db_per_km": float | "loss_table": [[km, dB], ...]}]}]
}
Distances are km, losses dB, frequencies Hz.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .channel import (ClassicalFiberChannel, FreeSpaceChannel,
                      QuantumFiberChannel, FIBER_LOSS_DB_PER_KM)
from .devices import PhotonSource, PolarizationDetector
from .network import Link, Network, Node


class TopologyError(ValueError):
    pass


_DEVICE_KINDS = {
    "photon_source": PhotonSource,
    "polarization_detector": PolarizationDetector,
}


def _build_device(node_name, spec, env):
    kind = spec.get("kind")
    if kind not in _DEVICE_KINDS:
        raise TopologyError(f"unknown device kind {kind!r} on node {node_name!r}")
    params = {k: v for k, v in spec.items() if k != "kind"}
    name = params.pop("name", f"{node_name}.{kind}")
    return _DEVICE_KINDS[kind](name, env=env, **params)


def _build_channel(link_name, spec, nodes, env):
    kind = spec.get("kind")
    try:
        sender = nodes[spec["sender"]]
        receiver = nodes[spec["receiver"]]
    except KeyError as missing:
        raise TopologyError(
            f"link {link_name!r} channel references unknown node {missing}") from None
    distance = spec.get("distance_km", 0.0)
    if (isinstance(distance, bool) or not isinstance(distance, (int, float))
            or not 0 <= distance < math.inf):
        raise TopologyError(f"distance_km on link {link_name!r} must be a finite "
                            f"number >= 0, got {distance!r}")
    name = spec.get("name", f"{link_name}.{kind}.{spec['sender']}->{spec['receiver']}")
    if kind == "classical-fiber":
        return ClassicalFiberChannel(name, sender, receiver, distance, env=env)
    if kind == "quantum-fiber":
        return QuantumFiberChannel(name, sender, receiver, distance,
                                   loss_db_per_km=spec.get("loss_db_per_km",
                                                           FIBER_LOSS_DB_PER_KM),
                                   env=env)
    if kind == "free-space":
        table = [tuple(row) for row in spec.get("loss_table", [])] or None
        return FreeSpaceChannel(name, sender, receiver, loss_table=table, env=env)
    raise TopologyError(f"unknown channel kind {kind!r} on link {link_name!r}")


def load_topology_from(doc, env=None, name="network") -> Network:
    """Build a Network from a JSON document (path, JSON text or dict)."""
    if isinstance(doc, (str, Path)):
        text = str(doc)
        # JSON text starts with '{'; anything else is treated as a path
        if not text.lstrip().startswith("{"):
            path = Path(text)
            if not path.exists():
                raise TopologyError(f"topology file not found: {path}")
            text = path.read_text()
        doc = json.loads(text)
    network = Network(name, env=env)
    env = network.env
    nodes = {}
    for nspec in doc.get("nodes", []):
        nname = nspec["name"]
        if nname in nodes:
            raise TopologyError(f"duplicate node name {nname!r}")
        node = Node(nname, env=env, location=nspec.get("location"))
        for dspec in nspec.get("devices", []):
            node.install_device(_build_device(nname, dspec, env))
        nodes[nname] = node
        network.install_node(node)
    for i, lspec in enumerate(doc.get("links", [])):
        ends = lspec.get("ends", [])
        for end in ends:
            if end not in nodes:
                raise TopologyError(f"link references unknown node {end!r}")
        lname = lspec.get("name", f"link{i}:{'-'.join(ends)}")
        try:  # the network and the link check ends and channel endpoints
            link = Link(lname, ends=[nodes[end] for end in ends], env=env)
            network.install_link(link)
            for cspec in lspec.get("channels", []):
                link.install_channel(_build_channel(lname, cspec, nodes, env))
        except ValueError as err:
            raise TopologyError(str(err)) from None
    return network
