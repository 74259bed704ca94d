"""Network, nodes and links.

A Network owns nodes and links and keeps one channel table.  A channel
enters it when it is installed on a link the network holds, and the
channels a link already holds enter when the link is installed.  One
rule fills it: the first channel installed from a sender to a receiver
carries that direction's traffic of its kind.  `channel_between` reads
the table, and routing walks the classical channels it holds.  When two
links join one pair, a direction's channel is thus the first installed
on either link, whatever the link order; no scenario, topology or demo
installs such channels out of link order.

Routes go over the classical channels by minimum hop count;
equal-length alternatives are broken toward the lexicographically
smallest next hop.  The routes toward a destination are found by one
BFS the first time that destination is asked, over the channels
installed by then, and kept until `compute_routes` clears them.
Hop-by-hop messages go to a neighbour that the sender names (a key
request's hop map is `route`); `path_toward` gives the delay and last
channel of a whole path.  Node lookups by name go through a dict.
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
        self.network = None

    def install_channel(self, channel: Channel):
        self.install(channel)
        if self.ends is None:
            raise RuntimeError(f"link {self.name!r} has no endpoints")
        if {channel.sender, channel.receiver} != set(self.ends):
            raise ValueError(
                f"channel {channel.name!r} endpoints are not the ends of link {self.name!r}")
        self.channels.append(channel)
        if self.network is not None:
            self.network._index(channel)


class Network(Entity):
    def __init__(self, name, env=None):
        super().__init__(name, env)
        self.nodes = []
        self.links = []
        self._by_name = {}  # node name -> node
        self._channels = {}  # (sender, receiver, kind) -> the first such channel installed
        self._into = {}  # receiver name -> {sender name: its classical channel}
        self._routes = {}  # destination name -> its routes, filled when first asked

    def install_node(self, node: Node):
        self.install(node)
        if node.name in self._by_name:
            raise ValueError(f"duplicate node name {node.name!r}")
        node.network = self
        self._by_name[node.name] = node
        self.nodes.append(node)

    def install_link(self, link: Link):
        self.install(link)
        ends = link.ends or ()
        if len(ends) != 2 or ends[0] is ends[1]:
            raise ValueError(f"link {link.name!r} needs two distinct ends, got {link.ends!r}")
        for end in ends:
            if self._by_name.get(end.name) is not end:
                raise ValueError(
                    f"link {link.name!r} endpoint {end.name!r} is not installed")
        link.network = self
        self.links.append(link)
        for channel in link.channels:
            self._index(channel)

    def _index(self, channel):
        """Enter `channel` under each channel class it is an instance of,
        unless an earlier channel holds that (sender, receiver, kind)."""
        sender, receiver = channel.sender, channel.receiver
        for kind in type(channel).__mro__:
            if issubclass(kind, Channel):
                self._channels.setdefault((sender, receiver, kind), channel)
        if isinstance(channel, ClassicalFiberChannel):
            self._into.setdefault(receiver.name, {}).setdefault(sender.name, channel)

    def node(self, name) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    def channel_between(self, src, dst, kind):
        try:
            return self._channels[src, dst, kind]
        except KeyError:
            raise LookupError(
                f"no {kind.__name__} from {src.name!r} to {dst.name!r}") from None

    # ---- routing --------------------------------------------------------
    def _routes_to(self, dst):
        """{node name: (next hop, path delay ps, last channel)} toward the
        node named `dst`, for each node that reaches it.  A BFS over the
        reversed classical channels finds it when dst is first asked."""
        routes = self._routes.get(dst)
        if routes is not None:
            return routes
        into = self._into
        dist = {dst: 0}
        hop = {}
        queue = deque([dst])
        while queue:  # a node's candidates are all dequeued before it
            v = queue.popleft()
            d = dist[v] + 1
            for u in into.get(v, ()):
                if u not in dist:
                    dist[u] = d
                    hop[u] = v
                    queue.append(u)
                elif dist[u] == d and v < hop[u]:
                    hop[u] = v  # lexicographic tie-break
        routes = self._routes[dst] = {}
        for u, v in hop.items():  # in distance order, so v is filled first
            channel = into[v][u]
            delay, last = routes[v][1:] if v != dst else (0, channel)
            routes[u] = (v, delay + channel.delay_ps, last)
        return routes

    def compute_routes(self):
        """Forget the routes found so far: each destination's is found
        again, over the channels installed by then, when next asked."""
        self._routes.clear()

    def next_hop(self, src, dst) -> str | None:
        entry = self._routes_to(dst).get(src)
        return None if entry is None else entry[0]

    def path_toward(self, src, dst) -> tuple:
        """(delay ps, last channel) of the classical path that hop-by-hop
        forwarding takes from node `src` to the node named `dst`."""
        entry = self._routes_to(dst).get(src.name)
        if entry is None:  # dst is unreachable or src itself
            raise LookupError(f"no classical path from {src.name!r} to {dst!r}")
        return entry[1:]

    def route(self, src, dst):
        """Full node-name path src..dst, or None when unreachable."""
        routes = self._routes_to(dst)
        path = [src]
        while path[-1] != dst:
            entry = routes.get(path[-1])
            if entry is None:
                return None
            path.append(entry[0])
        return path
