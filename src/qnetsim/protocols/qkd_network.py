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
Each instant of the clock adds a key to every pool with room, in the
order of their sorted endpoint names, whatever the channel delays.  A
pool counts the keys of the instants that passed when it is read, and
draws a key's value only when it delivers it, so the clock runs an event
only at instants that could serve a waiting request.  An added key
wakes the resource managers at both ends of its segment, which serve
what they can: the head of the queue, when both of the head's pools can
serve it, and the waiting endnode requests.  A key is an int of the
pools' key length (see `KeyPool`).  A repeater serves a request by
taking keys from its upstream and downstream pools and relaying the
one-time-pad ciphertext c = k_up XOR k_down to the destination, which
unwinds the chain of ciphertexts to recover the sender-side key.

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
from functools import partial, reduce

from ..des import Event
from ..netmodel.channel import ClassicalFiberChannel, QuantumFiberChannel
from ..netmodel.network import Link, Network, Node
from .keypool import KeyPool


def xor_key_lists(ka, kb):
    """Keywise XOR of two equally long lists of int keys."""
    if len(ka) != len(kb):
        raise ValueError("key lists differ in length")
    return [a ^ b for a, b in zip(ka, kb)]


@dataclass
class KeyRequest:
    id: int
    src: str
    dst: str
    key_num: int = 10
    state: str = "issued"
    issued_ps: int = 0
    completed_ps: int | None = None
    path: list = field(default_factory=list)
    hops: dict = field(default_factory=dict)  # path node -> (upstream, downstream)
    ciphertexts: dict = field(default_factory=dict)  # repeater name -> key list
    src_keys: list | None = None
    dst_keys: list | None = None

    _RANK = {state: rank for rank, state
             in enumerate(["issued", "accepted", "queued", "serving", "done"])}

    def advance(self, state):
        new, old = self._RANK.get(state), self._RANK.get(self.state)
        if new is not None and old is not None and new < old:
            return  # lifecycle is monotone; ignore stale transitions
        self.state = state


class KeyClock:
    """Key generation: at each instant `start + k * interval_ps`, a key for
    each of its pools that has room.

    An instant that serves nothing only adds keys, so it runs no event:
    each pool counts the keys of the instants that passed when it is next
    read, and once the run has finished those through its end time
    (`KeyPool._settle`).  The clock's one event is armed at a lower bound
    of the first instant at which a resource manager could serve its
    queue head or a waiting endnode request (`QKDRMP.first_instant`), read
    from the pools' reservations, status, volume and V_r as if nothing were
    taken first.  There the clock walks its `(node, peer, pool)` generators
    in order, has `node` count the instant's key toward `peer`
    (`QKDNode.keygen_tick`, which wakes the resource managers of both
    ends), and re-arms at the least bound of all.

    Why this keeps every result: a wake that turns out early is harmless,
    since a walk that serves nothing only adds keys, which the pools count
    anyway.  A late wake cannot happen.  A take only moves a bound later,
    and so does one that reserves keys for a request in a pool whose other
    end holds it: it needed the pool to serve that many keys, which the
    bound already allowed for.  A bound moves earlier only when a queue
    head changes or a waiter is added; outside a walk that happens while
    a REQUEST or ACCEPT is handled, which re-reads it (`QKDRMP._watch`),
    and a walk re-reads every bound after it.  A walk arms the next one
    only when it ends, as a clock that ran at every instant did, so the
    messages a walk sends stay ahead of the next walk in their picosecond.

    Premise: no event that touches a pool (a REQUEST at its destination or
    an ACCEPT hop) falls on the picosecond of a keygen instant.  A pool
    read there counts only the instants before it, as if that instant's
    walk ran after the event, which a clock that ran at every instant did
    only for events scheduled before its previous instant.  Issue times
    drawn over many intervals almost never line up so; with keygen
    intervals of a few picoseconds they do.
    """

    def __init__(self, name, env, interval_ps, generators):
        self.name = name
        self.env = env
        self.interval_ps = interval_ps
        self.generators = generators
        self.start_ps = env.now
        self.event = None  # the armed walk
        self.walked = 0  # index of the last instant walked
        self.rmps = list(dict.fromkeys(
            rmp for node, peer, _ in generators for rmp in (node.rmp, peer.rmp)))
        for node, peer, pool in generators:
            pool.clock = node.rmp.clock = peer.rmp.clock = self

    def keygen(self):
        self.event = None
        self.walked = (self.env.now - self.start_ps) // self.interval_ps
        for node, peer, _ in self.generators:
            node.keygen_tick(peer)
        first = min((instant for rmp in self.rmps
                     if (instant := rmp.first_instant()) is not None), default=None)
        if first is not None:
            self.arm(first)

    def arm(self, instant):
        """Run a walk no later than `instant`, and after the instants passed."""
        env, interval = self.env, self.interval_ps
        instant = max(instant, self.walked + 1,
                      (env.now - self.start_ps - 1) // interval + 1)
        time = self.start_ps + instant * interval
        if self.event is not None:
            if self.event.time <= time:
                return
            self.event.cancel()
        self.event = env.schedule(Event(time, self, "keygen"))


class QKDRMP:
    """Resource management of one node: its request queue, the pools it
    shares with its neighbours, and the sends along a request's hop map."""

    def __init__(self, node):
        self.node = node
        self.env = node.env
        self.pools = {}  # neighbor name -> KeyPool (shared with the neighbor)
        self.queue = []  # FIFO of queued KeyRequests (repeater role)
        self.waiting_local = []  # endnode requests waiting for segment keys
        self.clock = None  # the KeyClock of its pools, set by it
        self._channels = {}  # neighbor name -> classical channel toward it

    # --- sending ----------------------------------------------------------
    def forward(self, msg, neighbor):
        """Send `msg` to the neighbour named `neighbor` (from the hop map);
        the first channel installed toward it always carries it."""
        channel = self._channels.get(neighbor)
        if channel is None:
            node = self.node
            network = node.network
            channel = self._channels[neighbor] = network.channel_between(
                node, network.node(neighbor), ClassicalFiberChannel)
        channel.transmit(msg, self.node)

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
        head = self.queue[0] if self.queue else None
        self.queue.append(request)
        self.try_process()
        if self.queue and self.queue[0] is not head:
            self._watch(self.queue[0])

    def _take_or_wait(self, request):
        if not self._take_local(request):
            self.waiting_local.append(request)
            self._watch(request)

    def _watch(self, request):
        """Arm the clock no later than the first instant at which this node
        could serve `request`, its queue head or a waiting endnode request."""
        if self.clock is not None:
            instant = self._instant(request)
            if instant is not None:
                self.clock.arm(instant)

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
            cipher = xor_key_lists(self.pools[up].take_for(request.id, request.key_num),
                                   self.pools[down].take_for(request.id, request.key_num))
            self.relay({"type": "CIPHERTEXT", "request": request,
                        "repeater": self.node.name, "cipher": cipher}, request.dst)

    # --- destination side -------------------------------------------------
    def _on_ciphertext(self, request, msg):
        request.ciphertexts[msg["repeater"]] = msg["cipher"]
        self._try_complete_dst(request)

    def _try_complete_dst(self, request):
        if request.dst_keys is None or len(request.ciphertexts) < len(request.hops) - 2:
            return  # wait for this end's keys and every repeater's ciphertext
        # XOR commutes, so any order gives the source-side segment keys
        request.dst_keys = reduce(xor_key_lists, request.ciphertexts.values(),
                                  request.dst_keys)
        self.relay({"type": "DONE", "request": request}, request.src)

    def _on_done(self, request, msg):
        request.advance("done")
        request.completed_ps = self.env.now

    # --- pool recovery ----------------------------------------------------
    def _instant(self, request):
        """The first keygen instant at which this node could take the keys
        of `request` if nothing is taken first, or None if never."""
        instants = [self.pools[name].first_instant(request.id, request.key_num)
                    for name in request.hops[self.node.name] if name is not None]
        return None if None in instants else max(instants)

    def first_instant(self):
        """A lower bound of the first keygen instant at which
        `pool_recovered` would serve something (see `KeyClock`), or None."""
        instants = map(self._instant, [*self.queue[:1], *self.waiting_local])
        return min((instant for instant in instants if instant is not None), default=None)

    def pool_recovered(self):
        """Serve what waits on this node's pools: the queue head, when both
        of its pools can serve it, and each waiting endnode request whose
        pool can.  A no-op when nothing can be served."""
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
        """Count this instant's key in the pool shared with `peer` and, if
        it fits, wake the resource managers of both ends, this node's first
        (`QKDRMP.pool_recovered`)."""
        if self.rmp.pools[peer.name].add_key():
            for rmp in (self.rmp, peer.rmp):
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
                           rng=partial(env.rng_for, f"pool:{a.name}:{b.name}"),
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
