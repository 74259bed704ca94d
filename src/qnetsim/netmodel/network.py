"""Network, nodes and links.

A Network owns nodes and links and computes static shortest-path
(minimum hop) routing tables at initialization, separately for the
classical and quantum channel graphs.  Equal-length alternatives are
broken toward the lexicographically smallest next hop.

Node lookups by name go through a dict, and channel lookups are
memoised per (sender, receiver, kind): nodes, links and channels are
only ever added, so a channel once found stays the answer.  The first
classical channel toward a destination is memoised until routes change.
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
        for proto in stack.protocols:
            proto.node = self

    # ---- messaging ------------------------------------------------------
    def channel_to(self, dst, kind=ClassicalFiberChannel):
        if self.network is None:
            raise RuntimeError(f"node {self.name!r} is not installed in a network")
        return self.network.channel_between(self, dst, kind)

    # override points for what channels deliver; a plain node drops it
    def receive_classical_msg(self, msg, src):
        pass

    def receive_quantum_msg(self, qubit, src):
        pass


class Link(Entity):
    def __init__(self, name, ends=None, env=None):
        super().__init__(name, env)
        self.ends = tuple(ends) if ends else None
        self.channels = []

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
        self._toward = {}  # (sender, destination name) -> first classical channel
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
    @staticmethod
    def _next_hops_to(reverse, dst):
        """BFS over reversed edges: the smallest next hop toward dst of each
        node that reaches it (all its candidates are dequeued before it)."""
        dist = {dst: 0}
        hop = {}
        queue = deque([dst])
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            for u in reverse[v]:
                if u not in dist:
                    dist[u] = d
                    hop[u] = v
                    queue.append(u)
                elif dist[u] == d and v < hop[u]:
                    hop[u] = v  # lexicographic tie-break
        return hop

    def _routes(self, kind):
        reverse = {n.name: set() for n in self.nodes}  # receiver -> senders
        for link in self.links:
            for ch in link.channels:
                if isinstance(ch, kind):
                    reverse[ch.receiver.name].add(ch.sender.name)
        routes = {}
        for dst in reverse:
            for src, hop in self._next_hops_to(reverse, dst).items():
                routes[(src, dst)] = hop
        return routes

    def compute_routes(self):
        self.classical_routes = self._routes(ClassicalFiberChannel)
        self.quantum_routes = self._routes(QuantumFiberChannel)
        self._toward.clear()

    def next_hop(self, src, dst, quantum=False) -> str | None:
        table = self.quantum_routes if quantum else self.classical_routes
        return table.get((src, dst))

    def channel_toward(self, src, dst) -> ClassicalFiberChannel | None:
        """The classical channel from node `src` to its next hop toward the
        node named `dst`, or None when `dst` is unreachable."""
        key = (src, dst)
        channel = self._toward.get(key)
        if channel is None:
            hop = self.next_hop(src.name, dst)
            if hop is None:
                return None
            channel = self._toward[key] = self.channel_between(
                src, self._by_name[hop], ClassicalFiberChannel)
        return channel

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
