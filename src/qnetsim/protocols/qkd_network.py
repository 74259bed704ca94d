"""End-to-end key distribution with key pools and trusted repeaters.

The key network has four layers.  Endnodes run an application that
issues requests; every node runs resource management and routing; key
generation fills battery-like pools, each shared by the two endpoints of
a segment.  One keygen clock per network adds a key to every pool at
each interval (a full pool drops it), and an added key wakes the
resource managers of its segment that wait for keys.  A repeater serves
a request by taking keys from its upstream and downstream pools and
relaying the one-time-pad ciphertext c = k_up XOR k_down to the
destination, which unwinds the chain of ciphertexts to recover the
sender-side key.

Request lifecycle: the source issues a request toward the destination;
repeaters forward it (or reject it when it can never be satisfied); the
destination returns an acceptance; repeaters process or queue the
request depending on their pools; ciphertexts flow to the destination,
which combines everything into the end-to-end key and propagates a done
message back to the source.

The source routes a request once into its hop map, `request.hops` =
{node: (upstream, downstream)} with None beyond either end, from which
each node learns the pools that serve it (an endpoint's is on the side
that is not None).  ACCEPT retraces the path hop by hop, so its
repeaters see it even where the route back to the source differs.
REJECT, CIPHERTEXT and DONE are relay-only: read at the end they travel
to, forwarded unread everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..des import Entity, Event
from ..netmodel.channel import ClassicalFiberChannel, QuantumFiberChannel
from ..netmodel.network import Link, Network, Node
from .keypool import KeyPool
from .stack import Protocol, ProtocolStack


def xor_keys(a: str, b: str) -> str:
    """Bitwise XOR of two equal-length '0'/'1' strings."""
    if len(a) != len(b):
        raise ValueError("key lengths differ")
    if not a:
        return ""
    return format(int(a, 2) ^ int(b, 2), f"0{len(a)}b")


def xor_key_lists(ka, kb):
    return [xor_keys(x, y) for x, y in zip(ka, kb)]


@dataclass
class KeyRequest:
    id: int
    src: str
    dst: str
    key_num: int = 10
    key_length: int = 32
    state: str = "issued"
    issued_ps: int = 0
    completed_ps: int | None = None
    path: list = field(default_factory=list)
    hops: dict = field(default_factory=dict)  # path node -> (upstream, downstream)
    ciphertexts: dict = field(default_factory=dict)  # repeater name -> key list
    src_keys: list | None = None
    dst_keys: list | None = None

    _ORDER = ["issued", "accepted", "queued", "serving", "done"]

    def advance(self, state):
        if state in self._ORDER and self.state in self._ORDER:
            if self._ORDER.index(state) < self._ORDER.index(self.state):
                return  # lifecycle is monotone; ignore stale transitions
        self.state = state


class KeyClock:
    """Key generation: every `interval_ps`, one key for each of its pools.

    At each instant the clock walks its `(node, peer, pool)` generators in
    order, has `node` generate a key toward `peer` into every pool below
    its capacity (`QKDNode.keygen_tick`), then re-arms its one event.

    Why one clock for all pools keeps every other event in its order and
    every random draw in its place: with one timer per pool, started
    together in generator order and each re-armed right after its own key,
    the timers due at instant T + I are all scheduled during instant T.
    Between two of those re-arms the only code that runs is the wake-ups
    of a key, which send first-hop messages due at T + D for a classical
    channel delay D.  Unless some D equals the interval I, the timers of
    each instant thus form one contiguous block of the event list with
    nothing run between them, and one event re-armed after the block's
    last key pops where the block would, relative to every other event.
    When some D equals I, such messages pop inside the block, so the
    network gives each pool a clock of its own: one timer per pool again.
    """

    def __init__(self, name, env, interval_ps, generators):
        self.name = name
        self.env = env
        self.interval_ps = interval_ps
        self.generators = generators
        self.event = env.schedule(Event(env.now + interval_ps, self, "keygen"))

    def keygen(self):
        for node, peer, pool in self.generators:
            if len(pool.keys) < pool.v_max:
                node.keygen_tick(peer)
        event, env = self.event, self.env
        event.time = env.now + self.interval_ps
        env.schedule(event)


class QKDRouting(Protocol):
    """Static shortest-path routing layer."""

    def forward(self, msg, toward):
        node = self.node
        channel = node.network.channel_toward(node, toward)
        if channel is None:
            raise RuntimeError(f"no route from {node.name!r} to {toward!r}")
        channel.transmit(msg, node)


class QKDRMP(Protocol):
    """Resource management: request queue and pool coordination."""

    def __init__(self, name, routing: QKDRouting):
        super().__init__(name)
        self.routing = routing
        self.pools = {}  # neighbor name -> KeyPool (shared with the neighbor)
        self.queue = []  # FIFO of queued KeyRequests (repeater role)
        self.waiting_local = []  # endnode requests waiting for segment keys

    # --- request initiation (source side) --------------------------------
    def initiate(self, request: KeyRequest):
        request.issued_ps = self.env.now
        path = self.node.network.route(self.node.name, request.dst)
        if path is None:
            request.state = "unreachable"
            return
        request.path = path
        request.hops = {name: (up, down) for up, name, down
                        in zip([None, *path], path, [*path[1:], None])}
        self.routing.forward({"type": "REQUEST", "request": request}, request.dst)

    # --- message handling ------------------------------------------------
    def handle_classical(self, msg, src):
        request = msg["request"]
        end = self._RELAYED.get(msg["type"])
        if end and getattr(request, end) != self.node.name:
            self.routing.forward(msg, getattr(request, end))
            return
        self._HANDLERS[msg["type"]](self, request, msg)

    def _on_request(self, request, msg):
        up, down = request.hops[self.node.name]
        if down is None:  # destination
            request.advance("accepted")
            self.routing.forward({"type": "ACCEPT", "request": request}, up)
            self._take_or_wait(request)
        elif any(request.key_num > self.pools[n].v_max for n in (up, down)):
            # fail fast: an on-path pool can never hold enough keys
            self.routing.forward({"type": "REJECT", "request": request}, request.src)
        else:
            self.routing.forward(msg, request.dst)

    def _on_reject(self, request, msg):
        request.state = "rejected"

    def _on_accept(self, request, msg):
        up = request.hops[self.node.name][0]
        if up is None:  # source
            self._take_or_wait(request)
            return
        self.routing.forward(msg, up)
        request.advance("queued")
        self.queue.append(request)
        self.try_process()

    def _take_or_wait(self, request):
        if not self._take_local(request):
            self.waiting_local.append(request)

    def _take_local(self, request) -> bool:
        """Take this end's segment keys if its pool serves them; False
        when the request must wait."""
        up, down = request.hops[self.node.name]
        keys = self.pools[up or down].take_for(request.id, request.key_num)
        if keys is None:
            return False
        if up is None:
            request.src_keys = keys
        else:
            request.dst_keys = keys
            self._try_complete_dst(request)
        return True

    # --- repeater processing ---------------------------------------------
    def try_process(self):
        while self.queue:
            request = self.queue[0]
            up, down = request.hops[self.node.name]
            pool_up, pool_down = self.pools[up], self.pools[down]
            if not (pool_up.can_take_for(request.id, request.key_num) and
                    pool_down.can_take_for(request.id, request.key_num)):
                return
            self.queue.pop(0)
            request.advance("serving")
            k_up = pool_up.take_for(request.id, request.key_num)
            k_down = pool_down.take_for(request.id, request.key_num)
            cipher = xor_key_lists(k_up, k_down)
            self.routing.forward({"type": "CIPHERTEXT", "request": request,
                                  "repeater": self.node.name,
                                  "cipher": cipher}, request.dst)

    # --- destination side -------------------------------------------------
    def _on_ciphertext(self, request, msg):
        request.ciphertexts[msg["repeater"]] = msg["cipher"]
        self._try_complete_dst(request)

    def _try_complete_dst(self, request):
        if request.dst_keys is None or len(request.ciphertexts) < len(request.hops) - 2:
            return  # wait for this end's keys and every repeater's ciphertext
        keys = request.dst_keys
        for cipher in request.ciphertexts.values():  # XOR commutes: any order
            keys = xor_key_lists(keys, cipher)
        request.dst_keys = keys  # now equals the source-side segment keys
        self.routing.forward({"type": "DONE", "request": request}, request.src)

    def _on_done(self, request, msg):
        request.advance("done")
        request.completed_ps = self.env.now

    # --- pool recovery ----------------------------------------------------
    def pool_recovered(self):
        """Serve what waits on this node's pools; a no-op when nothing waits."""
        self.try_process()
        self.waiting_local = [request for request in self.waiting_local
                              if not self._take_local(request)]

    # message type -> handler, taken once from the methods above
    _HANDLERS = {"REQUEST": _on_request, "REJECT": _on_reject,
                 "ACCEPT": _on_accept, "CIPHERTEXT": _on_ciphertext,
                 "DONE": _on_done}
    # relay-only message type -> the request end it travels to; every other
    # node on the way forwards it unread
    _RELAYED = {"REJECT": "src", "CIPHERTEXT": "dst", "DONE": "src"}


class QKDApp(Protocol):
    """Top layer on endnodes: issues requests."""

    def __init__(self, name, rmp: QKDRMP):
        super().__init__(name)
        self.rmp = rmp

    def issue(self, request: KeyRequest):
        self.rmp.initiate(request)


def build_stack(node_name, is_endnode):
    """Application (endnodes only), resource management and routing,
    built bottom-up so that each layer is handed the layers it calls."""
    routing = QKDRouting(f"{node_name}.routing")
    rmp = QKDRMP(f"{node_name}.rmp", routing)
    relations = [(rmp, routing)]
    if is_endnode:
        relations.insert(0, (QKDApp(f"{node_name}.app", rmp), rmp))
    return ProtocolStack(f"{node_name}.stack").build(relations)


class QKDNode(Node):
    """Node that dispatches key-distribution traffic to its stack.

    Loading a (built) stack names its layers once: `app` (None on a
    repeater) and `rmp`.  Messages, generated keys and the key network
    reach a layer through these names, never by scanning the stack.
    """

    def load_protocol(self, stack):
        super().load_protocol(stack)
        layers = {type(p): p for p in stack.protocols}
        self.app = layers.get(QKDApp)
        self.rmp = layers[QKDRMP]

    def receive_classical_msg(self, msg, src):
        self.rmp.handle_classical(msg, src)

    def keygen_tick(self, peer):
        """Add a key to the pool shared with `peer` and wake the resource
        managers of both ends, this node's first, that wait for keys."""
        if self.rmp.pools[peer.name].add_key():
            for rmp in (self.rmp, peer.rmp):
                if rmp.queue or rmp.waiting_local:
                    rmp.pool_recovered()


def keygen_interval_ps(keygen_rate) -> int:
    """Picoseconds between two keys of a pool at `keygen_rate` keys/s."""
    if not keygen_rate > 0 or round(1e12 / keygen_rate) < 1:
        raise ValueError("keygen_rate must be positive and give a keygen interval "
                         f"round(1e12 / keygen_rate) of at least 1 ps, got {keygen_rate}")
    return round(1e12 / keygen_rate)


class KeyDistributionNetwork:
    """A network plus shared segment pools, per-node stacks and the
    keygen clock that fills the pools at `keygen_rate` keys/s each."""

    def __init__(self, network: Network, endnodes, pool_capacity=40,
                 key_length=32, keygen_rate=1000.0):
        self.network = network
        self.endnodes = list(endnodes)
        self.interval_ps = keygen_interval_ps(keygen_rate)
        self.pools = {}
        self._ends = {}  # pool key -> the link's two nodes, in link order
        self.clocks = []
        env = network.env
        for node in network.nodes:
            node.load_protocol(build_stack(node.name, node.name in self.endnodes))
        for link in network.links:
            if not any(isinstance(c, QuantumFiberChannel) for c in link.channels):
                continue
            a, b = link.ends
            pool = KeyPool(pool_capacity, key_length=key_length,
                           rng=env.rng_for(f"pool:{a.name}:{b.name}"),
                           name=f"{a.name}~{b.name}")
            pool.fill()
            key = frozenset((a.name, b.name))
            self.pools[key] = pool
            self._ends[key] = (a, b)
            a.rmp.pools[b.name] = pool
            b.rmp.pools[a.name] = pool

    def start(self):
        """Start key generation; call after env.init().

        Pools tick in the order of their sorted endpoint names, all on one
        clock, or each on a clock of its own when a channel delay equals
        the keygen interval (see `KeyClock`)."""
        if self.clocks:
            raise RuntimeError("key generation is already running")
        env = self.network.env
        generators = [(*self._ends[key], self.pools[key])
                      for key in sorted(self.pools, key=sorted)]
        if any(channel.delay_ps == self.interval_ps
               for link in self.network.links for channel in link.channels):
            self.clocks = [KeyClock(pool.name, env, self.interval_ps, [(a, b, pool)])
                           for a, b, pool in generators]
        else:
            self.clocks = [KeyClock(self.network.name, env, self.interval_ps,
                                    generators)]

    def issue_request(self, request: KeyRequest):
        self.network.node(request.src).app.issue(request)

    def schedule_request(self, time_ps, request: KeyRequest):
        self.network.env.schedule_at(time_ps, _RequestIssuer(self, request), "fire")


class _RequestIssuer:
    """Tiny event owner that injects a request at its start time."""

    def __init__(self, kdn, request):
        self.kdn = kdn
        self.request = request
        self.name = f"issuer:{request.id}"

    def fire(self):
        self.kdn.issue_request(self.request)


def build_chain_network(env, n_repeaters=2, extra_endnodes=(),
                        distance_km=10.0) -> tuple:
    """Chain A - R1 - ... - Rn - B with optional endnodes hung off
    repeaters: extra_endnodes is a list of (endnode_name, repeater_index).

    Returns (network, endnode names).
    """
    network = Network("kdnet", env=env)
    names = ["A"] + [f"R{i+1}" for i in range(n_repeaters)] + ["B"]
    nodes = {}
    for name in names:
        nodes[name] = QKDNode(name, env=env)
        network.install_node(nodes[name])
    endnodes = ["A", "B"]
    for ename, rep_idx in extra_endnodes:
        nodes[ename] = QKDNode(ename, env=env)
        network.install_node(nodes[ename])
        endnodes.append(ename)

    def connect(a, b):
        link = Link(f"{a}-{b}", ends=(nodes[a], nodes[b]), env=env)
        network.install_link(link)
        for s, r in ((a, b), (b, a)):
            link.install_channel(ClassicalFiberChannel(
                f"c:{s}->{r}", nodes[s], nodes[r], distance_km, env=env))
        link.install_channel(QuantumFiberChannel(
            f"q:{a}->{b}", nodes[a], nodes[b], distance_km, env=env))

    for a, b in zip(names, names[1:]):
        connect(a, b)
    for ename, rep_idx in extra_endnodes:
        connect(ename, f"R{rep_idx+1}")
    return network, endnodes
