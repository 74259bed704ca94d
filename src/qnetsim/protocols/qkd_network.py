"""End-to-end key distribution with key pools and trusted repeaters.

The key network has four layers, each a direct call into the next:
- application: a `_RequestIssuer` event issues a request at an endnode
  (`KeyDistributionNetwork.issue_request`);
- resource management: each `QKDNode`'s `QKDRMP` queues requests, takes
  keys from the pools it shares with its neighbours and sends messages;
- routing: the `Network`'s next-hop table, from which the source builds
  a request's hop map and express messages take their delay;
- key generation: one `KeyClock` per key network fills battery-like
  pools, each shared by the two endpoints of a segment.
At each interval the clock adds a key to every pool with room, in the
order of their sorted endpoint names; it sleeps while every pool is full,
and the first delivery from a full pool wakes it at its next instant on
the same grid, whatever the channel delays.  An added key
wakes a resource manager of its segment only when that manager can now
serve a request it holds: the head of its queue, when both of the head's
pools can serve it, or one of its waiting endnode requests.  A repeater
serves a request by taking keys from its upstream and downstream pools
and relaying the one-time-pad ciphertext c = k_up XOR k_down to the
destination, which unwinds the chain of ciphertexts to recover the
sender-side key.

Request lifecycle: the source issues a request toward the destination;
the first node on the path that would take from a pool that can never
hold enough keys rejects it, or else the destination returns an
acceptance; repeaters process or queue the request depending on their
pools; ciphertexts flow to the destination, which combines everything
into the end-to-end key and propagates a done message back to the
source.

The source routes a request once into its hop map, `request.hops` =
{node: (upstream, downstream)} with None beyond either end, from which
each node learns the pools that serve it (an endpoint's is on the side
that is not None).  A node on the path reads only static capacities
from a REQUEST, so REQUEST is one event, at the first node whose
fail-fast check fails or else at the destination.  ACCEPT retraces the
path hop by hop to each upstream neighbour, so its repeaters see it even
where the route back to the source differs.  REJECT, CIPHERTEXT and DONE
are relay-only: each is one event at the end that reads it.  An express
message (REQUEST or relay-only) is due when hop-by-hop forwarding would
bring it there and is sent from its last hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from ..des import EnvState, Event
from ..netmodel.channel import ClassicalFiberChannel, QuantumFiberChannel
from ..netmodel.network import Link, Network, Node
from .keypool import KeyPool


def xor_keys(a: str, b: str) -> str:
    """Bitwise XOR of two equal-length '0'/'1' strings."""
    if len(a) != len(b):
        raise ValueError("key lengths differ")
    if not a:
        return ""
    return format(int(a, 2) ^ int(b, 2), f"0{len(a)}b")


def xor_key_lists(ka, kb):
    """Keywise XOR of two lists of '0'/'1' keys, as one integer XOR over
    each list joined into one string, sliced back into keys."""
    lengths = list(map(len, ka))
    if lengths != list(map(len, kb)):
        raise ValueError("key lengths differ")
    a = "".join(ka)
    if not a:
        return list(ka)
    bits = format(int(a, 2) ^ int("".join(kb), 2), f"0{len(a)}b")
    return [bits[end - n:end] for end, n in zip(accumulate(lengths), lengths)]


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
    """Key generation: at each instant `start + k * interval_ps`, a key for
    each of its pools that has room.

    At each instant the clock walks its `(node, peer, pool)` generators in
    order, has `node` generate a key toward `peer` into every pool below
    its capacity (`QKDNode.keygen_tick`), then re-arms its one event.  When
    every pool it drives is full after the walk it sleeps instead, and the
    first delivery from one of those pools (`KeyPool.on_room`) arms it at
    its next instant on the same grid (`wake`).  An instant at which every
    pool is full adds no key, draws no random number and wakes no resource
    manager, so only the trace misses it.

    Why one clock for all pools keeps every event that touches a pool in
    its order and every random draw in its place: with one timer per pool,
    started together in generator order and each re-armed after its own
    key, the timers due at T + I are all scheduled during instant T, and
    between two re-arms only the wake-ups of a key run.  These send only
    relay-only messages (CIPHERTEXT, DONE), which touch no pool, queue or
    waiter.  So no event that touches a pool runs inside the timers of an
    instant, and one event re-armed after the last key adds the keys of
    the instant in the same order.  Where a path delay equals I, relay-only
    messages sent at T pop before the clock at T + I rather than among the
    timers, which moves only trace lines.

    The events that touch a pool are the keygen instants and, for each
    request, its REQUEST at the destination and its ACCEPT hops, due at
    its issue time plus sums of hop delays.  Those of a request fall on a
    keygen instant, or on the picosecond of another request's REQUEST or
    ACCEPT, only when issue times line up to the picosecond, which times
    drawn over a span of many intervals almost never do; the arguments
    below hold when they do not.  Every other message touches no pool,
    queue or waiter, so its place within a picosecond is free.

    - A wake.  The instants the clock sleeps through would add nothing, so
      only the instant it wakes for counts.  A delivery inside its own walk
      finds it awake, and it re-arms after the walk; any other delivery
      comes from a REQUEST or ACCEPT, off the grid, so the first instant
      after it is the first at which a key could be added.
    - The express REQUEST's earlier seq.  Its seq is taken at the issue,
      not when its last hop would send it, so within its picosecond it
      moves ahead of the events sent in between.  Those that touch a pool
      are keygen instants and other requests' messages on the same
      picosecond, which the premise above rules out.
    - Reservations made between two wakes.  An added key wakes a resource
      manager only when `QKDRMP.pool_recovered` would then serve
      something (`QKDRMP.can_serve`), so every wake left out would have
      served nothing.  The check reads both pools of the queue head and
      the pool of every waiting request, whichever pool got the key, so it
      sees keys reserved since the last wake.  Such a reservation never
      makes a waiter servable anyway: the other end of a pool reserves
      keys for a request only by taking them from a pool that could serve
      that many, so a waiter becomes servable only when a key lands in
      one of its pools.
    """

    def __init__(self, name, env, interval_ps, generators):
        self.name = name
        self.env = env
        self.interval_ps = interval_ps
        self.generators = generators
        self.start_ps = env.now
        self.asleep = False
        self.event = env.schedule(Event(env.now + interval_ps, self, "keygen"))
        for *_, pool in generators:
            pool.on_room = self.wake

    def keygen(self):
        for node, peer, pool in self.generators:
            if len(pool.keys) < pool.v_max:
                node.keygen_tick(peer)
        if all(len(pool.keys) >= pool.v_max for *_, pool in self.generators):
            self.asleep = True
            return
        event, env = self.event, self.env
        event.time = env.now + self.interval_ps
        env.schedule(event)

    def wake(self):
        """Arm a sleeping clock at its first instant after now; a finished
        run stays finished."""
        env, interval = self.env, self.interval_ps
        if not self.asleep or env.state is EnvState.FINISHED:
            return
        self.asleep = False
        self.event.time = env.now + interval - (env.now - self.start_ps) % interval
        env.schedule(self.event)


class QKDRMP:
    """Resource management of one node: its request queue, the pools it
    shares with its neighbours, and the sends along a request's hop map."""

    def __init__(self, node):
        self.node = node
        self.env = node.env
        self.pools = {}  # neighbor name -> KeyPool (shared with the neighbor)
        self.queue = []  # FIFO of queued KeyRequests (repeater role)
        self.waiting_local = []  # endnode requests waiting for segment keys

    # --- sending ----------------------------------------------------------
    def forward(self, msg, neighbor):
        """Send `msg` to the neighbour named `neighbor` (from the hop map)."""
        node = self.node
        network = node.network
        network.channel_between(node, network.node(neighbor),
                                ClassicalFiberChannel).transmit(msg, node)

    def relay(self, msg, end):
        """Send `msg`, which only the node named `end` reads, as one event
        there, due when hop-by-hop forwarding would bring it."""
        delay, channel = self.node.network.path_toward(self.node, end)
        self.env.schedule_after(delay, channel.receiver, "receive_classical_msg",
                                msg, channel.sender)

    # --- request initiation (source side) --------------------------------
    def initiate(self, request: KeyRequest):
        """Route `request` into its hop map and send REQUEST as one event,
        to the first node whose fail-fast check fails or else to the
        destination."""
        request.issued_ps = self.env.now
        if request.dst == self.node.name:
            raise ValueError(f"request {request.id}: source and destination are both "
                             f"{request.dst!r}")
        network = self.node.network
        path = network.route(self.node.name, request.dst)
        if path is None:
            request.state = "unreachable"
            return
        request.path = path
        request.hops = {name: (up, down) for up, name, down
                        in zip([None, *path], path, [*path[1:], None])}
        node, delay = self.node, 0
        for name in path[1:]:
            channel = network.channel_between(node, network.node(name),
                                              ClassicalFiberChannel)
            node, delay = channel.receiver, delay + channel.delay_ps
            if name == request.dst or node.rmp._rejects(request):
                break
        self.env.schedule_after(delay, node, "receive_classical_msg",
                                {"type": "REQUEST", "request": request}, channel.sender)

    # --- message handling ------------------------------------------------
    def handle_classical(self, msg, src):
        self._HANDLERS[msg["type"]](self, msg["request"], msg)

    def _rejects(self, request) -> bool:
        """Fail fast: a pool this node takes from can never hold enough keys."""
        return any(request.key_num > self.pools[n].v_max
                   for n in request.hops[self.node.name] if n is not None)

    def _on_request(self, request, msg):
        if self._rejects(request):
            self.relay({"type": "REJECT", "request": request}, request.src)
            return
        # the destination: REQUEST stops at a repeater only to be rejected
        request.advance("accepted")
        self.forward({"type": "ACCEPT", "request": request},
                     request.hops[self.node.name][0])
        self._take_or_wait(request)

    def _on_reject(self, request, msg):
        request.state = "rejected"

    def _on_accept(self, request, msg):
        up = request.hops[self.node.name][0]
        if up is None:  # source
            self._take_or_wait(request)
            return
        self.forward(msg, up)
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
    def _ready_head(self):
        """The queue head when both of its pools can serve it now, else None."""
        if self.queue:
            request = self.queue[0]
            up, down = request.hops[self.node.name]
            if (self.pools[up].can_take_for(request.id, request.key_num) and
                    self.pools[down].can_take_for(request.id, request.key_num)):
                return request
        return None

    def try_process(self):
        while (request := self._ready_head()) is not None:
            self.queue.pop(0)
            request.advance("serving")
            up, down = request.hops[self.node.name]
            k_up = self.pools[up].take_for(request.id, request.key_num)
            k_down = self.pools[down].take_for(request.id, request.key_num)
            cipher = xor_key_lists(k_up, k_down)
            self.relay({"type": "CIPHERTEXT", "request": request,
                        "repeater": self.node.name, "cipher": cipher}, request.dst)

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
        self.relay({"type": "DONE", "request": request}, request.src)

    def _on_done(self, request, msg):
        request.advance("done")
        request.completed_ps = self.env.now

    # --- pool recovery ----------------------------------------------------
    def can_serve(self) -> bool:
        """Whether `pool_recovered` would serve a request now: the queue
        head, or a waiting endnode request."""
        if self._ready_head() is not None:
            return True
        for request in self.waiting_local:
            up, down = request.hops[self.node.name]
            if self.pools[up or down].can_take_for(request.id, request.key_num):
                return True
        return False

    def pool_recovered(self):
        """Serve what waits on this node's pools; a no-op when nothing can
        be served (`can_serve`)."""
        self.try_process()
        self.waiting_local = [request for request in self.waiting_local
                              if not self._take_local(request)]

    # message type -> handler, taken once from the methods above
    _HANDLERS = {"REQUEST": _on_request, "REJECT": _on_reject,
                 "ACCEPT": _on_accept, "CIPHERTEXT": _on_ciphertext,
                 "DONE": _on_done}


class QKDNode(Node):
    """Node whose resource manager `rmp` handles key-distribution traffic."""

    def __init__(self, name, env=None, location=None):
        super().__init__(name, env, location)
        self.rmp = QKDRMP(self)

    def receive_classical_msg(self, msg, src):
        self.rmp.handle_classical(msg, src)

    def keygen_tick(self, peer):
        """Add a key to the pool shared with `peer` and wake the resource
        managers of both ends, this node's first, that can now serve a
        request they hold."""
        if self.rmp.pools[peer.name].add_key():
            for rmp in (self.rmp, peer.rmp):
                if (rmp.queue or rmp.waiting_local) and rmp.can_serve():
                    rmp.pool_recovered()


def keygen_interval_ps(keygen_rate) -> int:
    """Picoseconds between two keys of a pool at `keygen_rate` keys/s."""
    if not keygen_rate > 0 or round(1e12 / keygen_rate) < 1:
        raise ValueError("keygen_rate must be positive and give a keygen interval "
                         f"round(1e12 / keygen_rate) of at least 1 ps, got {keygen_rate}")
    return round(1e12 / keygen_rate)


class KeyDistributionNetwork:
    """A network plus shared segment pools and the keygen clock that
    fills the pools at `keygen_rate` keys/s each."""

    def __init__(self, network: Network, endnodes, pool_capacity=40,
                 key_length=32, keygen_rate=1000.0):
        self.network = network
        self.endnodes = list(endnodes)
        self.interval_ps = keygen_interval_ps(keygen_rate)
        self.pools = {}
        self._ends = {}  # pool key -> the link's two nodes, in link order
        self.clock = None
        env = network.env
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

        One clock walks every pool, in the order of their sorted endpoint
        names (see `KeyClock`)."""
        if self.clock is not None:
            raise RuntimeError("key generation is already running")
        generators = [(*self._ends[key], self.pools[key])
                      for key in sorted(self.pools, key=sorted)]
        self.clock = KeyClock(self.network.name, self.network.env, self.interval_ps,
                              generators)

    def issue_request(self, request: KeyRequest):
        if request.src not in self.endnodes:
            raise ValueError(f"request {request.id}: source {request.src!r} "
                             "is not an endnode")
        self.network.node(request.src).rmp.initiate(request)

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
