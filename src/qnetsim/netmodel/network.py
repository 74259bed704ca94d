"""Network, nodes and links.

A Network owns nodes and links and computes one static shortest-path
(minimum hop) routing table over its classical channels at
initialization.  Equal-length alternatives are broken toward the
lexicographically smallest next hop.  Hop-by-hop messages go to a
neighbour that the sender names (a key request's hop map is this table's
`route`); `path_toward` gives the delay and last channel of a whole path.

Node lookups by name go through a dict, and channel lookups are
memoised per (sender, receiver, kind): nodes, links and channels are
only ever added, so a channel once found stays the answer.  A path
toward a destination lasts until routes change.
"""

from __future__ import annotations

from collections import deque

from ..des import Entity
from .channel import Channel, ClassicalFiberChannel


class Node(Entity):
    def __init__(self, name, env=None, location=None):
        super().__init__(name, env)
        self.devices = {}
        self.location = location
        self.network = None

    def install_device(self, device):
        self.install(device)
        if device.name in self.devices:
            raise ValueError(f"duplicate device name {device.name!r} on node {self.name!r}")
        self.devices[device.name] = device

    def device_of_kind(self, cls):
        for device in self.devices.values():
            if isinstance(device, cls):
                return device
        return None

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
        self.install(channel)
        if self.ends is None:
            raise RuntimeError(f"link {self.name!r} has no endpoints")
        if {channel.sender, channel.receiver} - set(self.ends):
            raise ValueError(
                f"channel {channel.name!r} endpoints are not the ends of link {self.name!r}")
        self.channels.append(channel)


class Network(Entity):
    def __init__(self, name, env=None):
        super().__init__(name, env)
        self.nodes = []
        self.links = []
        self._by_name = {}  # node name -> node
        self._channels = {}  # (sender, receiver, kind) -> channel, filled on lookup
        self._paths = {}  # (sender, destination name) -> (path delay ps, last channel)
        self.classical_routes = {}

    def install_node(self, node: Node):
        self.install(node)
        if node.name in self._by_name:
            raise ValueError(f"duplicate node name {node.name!r}")
        node.network = self
        self._by_name[node.name] = node
        self.nodes.append(node)

    def install_link(self, link: Link):
        self.install(link)
        for end in link.ends:
            if self._by_name.get(end.name) is not end:
                raise ValueError(
                    f"link {link.name!r} endpoint {end.name!r} is not installed")
        self.links.append(link)

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

    def compute_routes(self):
        reverse = {n.name: set() for n in self.nodes}  # receiver -> senders
        for link in self.links:
            for ch in link.channels:
                if isinstance(ch, ClassicalFiberChannel):
                    reverse[ch.receiver.name].add(ch.sender.name)
        routes = {}
        for dst in reverse:
            for src, hop in self._next_hops_to(reverse, dst).items():
                routes[(src, dst)] = hop
        self.classical_routes = routes
        self._paths.clear()

    def next_hop(self, src, dst) -> str | None:
        return self.classical_routes.get((src, dst))

    def path_toward(self, src, dst) -> tuple:
        """(delay ps, last channel) of the classical path that hop-by-hop
        forwarding takes from node `src` to the node named `dst`."""
        hops, node = [], src  # walk to dst or to a node whose rest is known
        while (node, dst) not in self._paths and (not hops or node.name != dst):
            hop = self.next_hop(node.name, dst)
            if hop is None:  # dst is unreachable or src itself
                raise LookupError(f"no classical path from {src.name!r} to {dst!r}")
            hops.append(self.channel_between(node, self._by_name[hop],
                                             ClassicalFiberChannel))
            node = hops[-1].receiver
        delay, last = self._paths.get((node, dst)) or (0, hops[-1])
        for channel in reversed(hops):
            delay += channel.delay_ps
            self._paths[channel.sender, dst] = (delay, last)
        return self._paths[src, dst]

    def route(self, src, dst):
        """Full node-name path src..dst, or None when unreachable."""
        if src == dst:
            return [src]
        path = [src]
        cur = src
        while cur != dst:
            nxt = self.next_hop(cur, dst)
            if nxt is None:
                return None
            path.append(nxt)
            cur = nxt
        return path

    def _init(self):
        self.compute_routes()
