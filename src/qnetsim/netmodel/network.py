"""Network, nodes and links.

A Network owns nodes and links and computes static shortest-path
(minimum hop) routing tables at initialization, separately for the
classical and quantum channel graphs.  Equal-length alternatives are
broken toward the lexicographically smallest next hop.

Node lookups by name go through a dict, and channel lookups are
memoised per (sender, receiver, kind): nodes, links and channels are
only ever added, so a channel once found stays the answer.
"""

from __future__ import annotations

from collections import deque

from ..des import Entity
from .channel import Channel, ClassicalFiberChannel, QuantumFiberChannel


class Node(Entity):
    def __init__(self, name, env=None, location=None):
        super().__init__(name, env)
        self.devices = {}
        self.stack = None
        self.location = location
        self.mobility = None
        self.network = None

    def install_device(self, device):
        if device.name in self.devices:
            raise ValueError(f"duplicate device name {device.name!r} on node {self.name!r}")
        self.devices[device.name] = device
        self.install(device)

    def device_of_kind(self, cls):
        for device in self.devices.values():
            if isinstance(device, cls):
                return device
        return None

    def load_protocol(self, stack):
        self.stack = stack
        stack.owner_node = self

    def load_mobility(self, mobility):
        self.mobility = mobility

    # ---- messaging ------------------------------------------------------
    def channel_to(self, dst, kind=ClassicalFiberChannel):
        if self.network is None:
            raise RuntimeError(f"node {self.name!r} is not installed in a network")
        return self.network.channel_between(self, dst, kind)

    def send_classical_msg(self, dst, msg):
        self.channel_to(dst, ClassicalFiberChannel).transmit(msg, src=self)

    def send_quantum_msg(self, dst, qubit):
        self.channel_to(dst, QuantumFiberChannel).transmit(qubit, src=self)

    def receive_classical_msg(self, msg, src):
        if self.stack is not None:
            self.stack.handle_classical(msg, src)

    def receive_quantum_msg(self, qubit, src):
        if self.stack is not None:
            self.stack.handle_quantum(qubit, src)


class Link(Entity):
    def __init__(self, name, ends=None, env=None):
        super().__init__(name, env)
        self.ends = tuple(ends) if ends else None
        self.channels = []

    def connect(self, a, b):
        self.ends = (a, b)

    def install_channel(self, channel: Channel):
        if self.ends is None:
            raise RuntimeError(f"link {self.name!r} has no endpoints")
        if {channel.sender, channel.receiver} - set(self.ends):
            raise ValueError(
                f"channel {channel.name!r} endpoints are not the ends of link {self.name!r}")
        self.channels.append(channel)
        self.install(channel)


class Network(Entity):
    def __init__(self, name, env=None):
        super().__init__(name, env)
        self.nodes = []
        self.links = []
        self._by_name = {}  # node name -> node
        self._channels = {}  # (sender, receiver, kind) -> channel, filled on lookup
        self.classical_routes = {}
        self.quantum_routes = {}

    def install_node(self, node: Node):
        if node.name in self._by_name:
            raise ValueError(f"duplicate node name {node.name!r}")
        node.network = self
        self._by_name[node.name] = node
        self.nodes.append(node)
        self.install(node)

    def install_link(self, link: Link):
        for end in link.ends:
            if self._by_name.get(end.name) is not end:
                raise ValueError(
                    f"link {link.name!r} endpoint {end.name!r} is not installed")
        self.links.append(link)
        self.install(link)

    def node(self, name) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    def channel_between(self, src, dst, kind):
        key = (src, dst, kind)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = self._find_channel(src, dst, kind)
        return channel

    def _find_channel(self, src, dst, kind):
        for link in self.links:
            if set(link.ends) == {src, dst}:
                for ch in link.channels:
                    if isinstance(ch, kind) and ch.sender is src and ch.receiver is dst:
                        return ch
        raise LookupError(
            f"no {kind.__name__} from {src.name!r} to {dst.name!r}")

    # ---- routing --------------------------------------------------------
    def _adjacency(self, kind):
        adj = {n.name: set() for n in self.nodes}
        for link in self.links:
            for ch in link.channels:
                if isinstance(ch, kind):
                    adj[ch.sender.name].add(ch.receiver.name)
        return adj

    @staticmethod
    def _distances_to(reverse, dst):
        """BFS over reversed edges: dist[v] = hops from v to dst."""
        dist = {dst: 0}
        queue = deque([dst])
        while queue:
            v = queue.popleft()
            for u in reverse[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    def _routes(self, kind):
        adj = self._adjacency(kind)
        reverse = {v: set() for v in adj}
        for u, outs in adj.items():
            for v in outs:
                reverse[v].add(u)
        routes = {}
        for dst in adj:
            dist = self._distances_to(reverse, dst)
            for src in adj:
                if src == dst or src not in dist:
                    continue
                hops = [n for n in adj[src] if dist.get(n, float("inf")) == dist[src] - 1]
                routes[(src, dst)] = min(hops)  # lexicographic tie-break
        return routes

    def compute_routes(self):
        self.classical_routes = self._routes(ClassicalFiberChannel)
        self.quantum_routes = self._routes(QuantumFiberChannel)

    def next_hop(self, src, dst, quantum=False) -> str | None:
        table = self.quantum_routes if quantum else self.classical_routes
        return table.get((src, dst))

    def route(self, src, dst, quantum=False):
        """Full node-name path src..dst, or None when unreachable."""
        if src == dst:
            return [src]
        path = [src]
        cur = src
        while cur != dst:
            nxt = self.next_hop(cur, dst, quantum)
            if nxt is None:
                return None
            path.append(nxt)
            cur = nxt
        return path

    def _init(self):
        self.compute_routes()
