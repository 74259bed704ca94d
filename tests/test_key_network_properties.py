"""Properties of key pools, and of the key network over small random chains.

A pool that counts its keys when read, and draws them when it delivers
them, matches one that adds and draws a key at every instant, and its
keys, of any length, are the per-bit draws of its stream.  Every pool
conserves keys (generated - delivered == current volume), in memory and
in `pools.csv`; every finished request holds the same keys at both ends,
leaves no reservation behind in any pool and completes no earlier than a
request's round trip over its path allows; a (config, seed) pair writes
the same bytes when it is run again; and the relay-only messages
(REJECT, CIPHERTEXT, DONE) are handled only at the request end they
travel to, arriving from a neighbour of that end.
The outputs also match those of the rules the event diet replaced: one
keygen clock per pool, each run at every instant rather than only at
instants that can serve, a new key that wakes every resource manager with
anything waiting, and REQUEST forwarded hop by hop.
"""

import csv
import tempfile
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qnetsim import scenarios
from qnetsim.des import EnvState, Event
from qnetsim.netmodel.channel import ClassicalFiberChannel, classical_delay_ps
from qnetsim.protocols import KeyPool
from qnetsim.protocols.qkd_network import (QKDRMP, KeyClock, KeyDistributionNetwork,
                                          QKDNode)
from test_protocols import reference_key

OUTPUTS = ("results.csv", "pools.csv", "trace.log")


class _EagerPool:
    """Reference pool: a key per instant while there is room, drawn one
    per-bit draw at a time when it is added."""

    def __init__(self, v_max, v_interrupt, v_recover, key_length, seed):
        self.v_max, self.v_interrupt, self.v_recover = v_max, v_interrupt, v_recover
        self.key_length = key_length
        self.rng = np.random.default_rng(seed)
        self.keys = deque()
        self.status = "serving"
        self.generated = self.delivered = 0

    def add(self):
        if len(self.keys) < self.v_max:
            self.keys.append(reference_key(self.rng, self.key_length))
            self.generated += 1
            if self.status == "replenishing" and len(self.keys) >= self.v_recover:
                self.status = "serving"

    def deliver(self, count):
        if self.status != "serving" or len(self.keys) < count:
            return None
        keys = [self.keys.popleft() for _ in range(count)]
        self.delivered += count
        if len(self.keys) < self.v_interrupt:
            self.status = "replenishing"
        return keys

    def instants_until_serving(self, count):
        if count > self.v_max:
            return None
        volume, status, instants = len(self.keys), self.status, 0
        while not (status == "serving" and volume >= count):
            volume, instants = min(volume + 1, self.v_max), instants + 1
            if volume >= self.v_recover:
                status = "serving"
        return instants


@st.composite
def pool_runs(draw):
    v_max = draw(st.integers(1, 20))
    v_interrupt = draw(st.integers(0, v_max))
    v_recover = draw(st.integers(v_interrupt, v_max))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("advance"), st.integers(0, 2 * v_max)),
        st.tuples(st.sampled_from(["deliver", "take", "fill"]), st.integers(1, v_max)),
        st.tuples(st.just("read"), st.just(0))), max_size=40))
    return v_max, v_interrupt, v_recover, draw(st.integers(0, 40)), ops


@settings(max_examples=200, deadline=None)
@given(pool_runs(), st.integers(0, 2**32 - 1))
def test_lazy_pool_matches_a_pool_that_adds_a_key_per_instant(run, seed):
    v_max, v_interrupt, v_recover, key_length, ops = run
    pool = KeyPool(v_max, key_length, v_interrupt, v_recover,
                   rng=np.random.default_rng(seed)).fill()
    # instant k falls on 3k ps; the pool counts the instants before now
    pool.clock = clock = SimpleNamespace(env=SimpleNamespace(now=1, state=EnvState.RUNNING),
                                         start_ps=0, interval_ps=3)
    eager = _EagerPool(v_max, v_interrupt, v_recover, key_length, seed)
    for _ in range(v_max):
        eager.add()
    passed, reserved, request_ids = 0, deque(), iter(range(len(ops)))
    for op, n in ops:
        if op == "advance":
            clock.env.now += 3 * n
            passed += n
            for _ in range(n):
                eager.add()
        elif op == "fill":
            pool.fill(n)
            for _ in range(n):
                eager.add()
        elif op == "deliver":
            assert pool.deliver(n) == eager.deliver(n)
        elif op == "take":  # the first end of a segment
            request_id = next(request_ids)
            keys = pool.take_for(request_id, n)
            assert keys == eager.deliver(n)
            if keys is not None:
                reserved.append((request_id, keys))
        elif reserved:  # the second end reads the same keys
            request_id, keys = reserved.popleft()
            assert pool.take_for(request_id, v_max) == keys
        assert (pool.v_current, pool.status, pool.generated, pool.delivered) == (
            len(eager.keys), eager.status, eager.generated, eager.delivered)
        for count in range(1, v_max + 2):
            instants = eager.instants_until_serving(count)
            assert pool.first_instant(None, count) == (
                None if instants is None else passed + instants)
        for request_id, _ in reserved:
            assert pool.first_instant(request_id, v_max + 1) == passed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.lists(st.integers(1, 100), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
@example(7, [60, 10, 81], 0)
@example(8, [64, 1, 63, 2], 1)
@example(9, [1, 100, 27], 2)
@example(63, [65, 64], 3)
@example(64, [63, 2, 100], 4)
@example(65, [100, 100], 5)
@example(257, [30, 40, 59], 6)
def test_delivered_keys_match_the_per_bit_reference(key_length, splits, seed):
    """Keys delivered in any split, across 64-key blocks, are the per-bit
    draws of the pool's stream, as ints below 2**key_length."""
    pool = KeyPool(100, key_length, v_interrupt=0, rng=np.random.default_rng(seed))
    keys = []
    for count in splits:
        keys += pool.fill().deliver(count)
    rng = np.random.default_rng(seed)
    assert keys == [reference_key(rng, key_length) for _ in keys]
    assert all(0 <= key < 2**key_length for key in keys)


@st.composite
def chains(draw):
    n_repeaters = draw(st.integers(1, 6))
    branches = draw(st.lists(st.integers(0, n_repeaters - 1), max_size=2))
    return {"scenario": "keypool",
            "n_repeaters": n_repeaters,
            "extra_endnodes": [[f"E{i}", r] for i, r in enumerate(branches)],
            "capacity": draw(st.integers(10, 60)),
            "keygen_rate": float(draw(st.integers(100, 5000))),
            "num_requests": draw(st.integers(1, 20)),
            "key_num": 5,
            "end_time_ps": 50_000_000_000}  # 0.05 s; links keep the 1 km default


def _run(config, seed, out_dir):
    built = []

    class Recorded(KeyDistributionNetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(scenarios, "KeyDistributionNetwork", Recorded):
        metrics = scenarios.run_scenario(config, seed, out_dir)
    (kdn,) = built
    return kdn, metrics["requests"]


@settings(max_examples=25, deadline=None)
@given(chains(), st.integers(0, 2**32 - 1))
def test_pools_conserve_keys_and_requests_agree(config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        kdn, requests = _run(config, seed, first)
        for pool in kdn.pools.values():
            assert pool.generated - pool.delivered == pool.v_current
        with open(first / "pools.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(kdn.pools)
        for row in rows:
            assert int(row["generated"]) - int(row["delivered"]) == int(row["final_Vc"])
        hop_ps = classical_delay_ps(1.0)
        for request in requests:
            if request.state == "done":
                assert request.src_keys == request.dst_keys
                assert len(request.src_keys) == request.key_num
                assert request.completed_ps >= request.issued_ps
                # REQUEST out to the destination and DONE back to the source
                hops = len(request.path) - 1
                assert request.completed_ps - request.issued_ps >= 2 * hops * hop_ps
                assert not any(request.id in pool._reservations
                               for pool in kdn.pools.values())
        _run(config, seed, second)
        for name in OUTPUTS:
            assert (first / name).read_bytes() == (second / name).read_bytes()


# the request end that reads each relay-only message type
RELAY_ENDS = {"REJECT": "src", "CIPHERTEXT": "dst", "DONE": "src"}


@settings(max_examples=25, deadline=None)
@given(chains(), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_relay_only_messages_are_handled_only_at_their_end(config, key_num, seed):
    # key_num beyond a pool's capacity gets the request rejected
    handled = []
    handle_classical = QKDRMP.handle_classical

    def recording(rmp, msg, src):
        handled.append((rmp.node, msg, src))
        handle_classical(rmp, msg, src)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(QKDRMP, "handle_classical", recording):
        kdn, requests = _run({**config, "key_num": key_num}, seed, Path(tmp))
    seen = Counter()
    for node, msg, src in handled:
        request, kind = msg["request"], msg["type"]
        if kind in RELAY_ENDS:
            assert node.name == getattr(request, RELAY_ENDS[kind])
            kdn.network.channel_between(src, node, ClassicalFiberChannel)  # a neighbour
            seen[request.id, kind] += 1
    for request in requests:
        if request.state == "rejected":
            assert seen[request.id, "REJECT"] == 1
        if request.state == "done":
            assert seen[request.id, "DONE"] == 1
            assert seen[request.id, "CIPHERTEXT"] == len(request.path) - 2


# ---- the rules the event diet replaced ------------------------------------

def _clock_per_pool(kdn):
    # kdn.clock ends as the last pool's clock; each pool counts its instants
    # through its own clock, which walks every instant
    env = kdn.network.env
    for key in sorted(kdn.pools, key=sorted):  # generator order
        pool = kdn.pools[key]
        kdn.clock = KeyClock(pool.name, env, kdn.interval_ps, [(*kdn._ends[key], pool)])
        kdn.clock.event = env.schedule(Event(env.now + kdn.interval_ps, kdn.clock, "keygen"))


def _rearming_keygen(clock):
    # every instant: a full pool's add_key adds nothing, as a skipped pool did
    for node, peer, _ in clock.generators:
        node.keygen_tick(peer)
    clock.event = clock.env.schedule(Event(clock.env.now + clock.interval_ps, clock, "keygen"))


def _wake_every_waiter(node, peer):
    if node.rmp.pools[peer.name].add_key():
        for rmp in (node.rmp, peer.rmp):
            if rmp.queue or rmp.waiting_local:
                rmp.pool_recovered()


def _initiate_hop_by_hop(rmp, request):
    request.issued_ps = rmp.env.now
    path = rmp.node.network.route(rmp.node.name, request.dst)
    if path is None:
        request.state = "unreachable"
        return
    request.path = path
    request.hops = {name: (up, down) for up, name, down
                    in zip([None, *path], path, [*path[1:], None])}
    rmp.forward({"type": "REQUEST", "request": request}, path[1])


_on_request = QKDRMP._HANDLERS["REQUEST"]


def _forward_request(rmp, request, msg):
    down = request.hops[rmp.node.name][1]
    if down is None or rmp._rejects(request):
        _on_request(rmp, request, msg)
    else:
        rmp.forward(msg, down)


@st.composite
def trees(draw):
    """Chains with endnodes hung off repeaters, whose hop delay D is half,
    one or two keygen intervals."""
    n_repeaters = draw(st.integers(0, 5))
    branches = draw(st.lists(st.integers(0, n_repeaters - 1), max_size=3)
                    if n_repeaters else st.just([]))
    distance_km = draw(st.sampled_from([0.5, 1.0, 2.0]))
    hop_ps = classical_delay_ps(distance_km)
    interval_ps = draw(st.sampled_from([2 * hop_ps, hop_ps, hop_ps // 2]))
    capacity = draw(st.integers(5, 40))
    return {"scenario": "keypool", "n_repeaters": n_repeaters,
            "extra_endnodes": [[f"E{i}", r] for i, r in enumerate(branches)],
            "distance_km": distance_km, "keygen_rate": 1e12 / interval_ps,
            "capacity": capacity, "key_num": draw(st.integers(1, capacity + 2)),
            "key_length": 8, "num_requests": draw(st.integers(1, 40)),
            "end_time_ps": draw(st.integers(50, 1000)) * interval_ps}


@settings(max_examples=20, deadline=None)
@given(trees(), st.integers(0, 2**32 - 1))
# hop delay == interval, so messages sent at one instant arrive at the next,
# where the reference runs one timer per pool; here a wake-up inside an
# instant's walk takes from a pool later in the walk, which that instant refills,
# so that pool must count the instant's key after the take
@example({"scenario": "keypool", "n_repeaters": 6, "extra_endnodes": [["E0", 0]],
          "distance_km": 1.0, "keygen_rate": 200_000.0, "capacity": 16, "key_num": 14,
          "key_length": 8, "num_requests": 53, "end_time_ps": 4_820_000_000}, 160849039)
# hop delay == interval here too, and every pool fills up between requests:
# the clock runs only at instants that can serve, while the reference's
# timers run at every instant
@example({"scenario": "keypool", "n_repeaters": 5, "extra_endnodes": [["E0", 2], ["E1", 2]],
          "distance_km": 0.5, "keygen_rate": 400_000.0, "capacity": 19, "key_num": 18,
          "key_length": 8, "num_requests": 41, "end_time_ps": 605_000_000}, 896963902)
def test_outputs_match_the_replaced_rules(config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new"), Path(tmp, "old")
        scenarios.run_scenario(config, seed, new)
        with mock.patch.object(KeyDistributionNetwork, "start", _clock_per_pool), \
                mock.patch.object(KeyClock, "keygen", _rearming_keygen), \
                mock.patch.object(KeyClock, "arm", lambda clock, instant: None), \
                mock.patch.object(QKDNode, "keygen_tick", _wake_every_waiter), \
                mock.patch.object(QKDRMP, "initiate", _initiate_hop_by_hop), \
                mock.patch.dict(QKDRMP._HANDLERS, {"REQUEST": _forward_request}):
            scenarios.run_scenario(config, seed, old)
        for name in ("results.csv", "pools.csv"):
            assert (new / name).read_bytes() == (old / name).read_bytes()
